"""Per-layer tracing from outside the program.

`Tracer.install()` wraps the entry points of each stringhorizon module and
replaces every module binding of each one (for example `abel_limit` in
summation, identities and conespace, or scipy's `quad` as bound in
identities, conespace and blackhole).  A wrapper counts calls, failures and
the layer's own work counters, and accumulates inclusive and self time:
self time is a call's duration minus the time spent in the wrapped calls it
makes.  `Tracer.remove()` puts every original binding back.
"""

import sys
import time

import scipy.integrate


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _terms(stats, args, kwargs, out):
    stats["terms"] += _arg(args, kwargs, 3, "count")


def _qbar_counts(miller_degree):
    def hook(stats, args, kwargs, out):
        count = _arg(args, kwargs, 3, "count")
        stats["terms"] += count
        # the chain's own switch: long chains start by Miller's algorithm
        stats["miller_calls"] += _arg(args, kwargs, 0, "nu0") + count - 1 > miller_degree
    return hook


def _coeffs(stats, args, kwargs, out):
    stats["coeffs"] += len(_arg(args, kwargs, 0, "coeffs"))


def _heine_bands(stats, args, kwargs, out):
    stats["bands"] += out[3] + 1          # out[3] is the last m summed


def _nfev(stats, args, kwargs, out):
    stats["nfev"] += out.nfev


def _count_bands(stats, args, kwargs):
    band_fn = _arg(args, kwargs, 0, "band_fn")

    def counted(m):
        stats["bands"] += 1
        return band_fn(m)
    if args:
        return (counted,) + tuple(args[1:]), kwargs
    return args, dict(kwargs, band_fn=counted)


def _layers(specfun):
    """(metric prefix, module, attribute, counters, before, after) per layer.
    `before` may replace the arguments; `after` sees the result."""
    qbar = _qbar_counts(getattr(specfun, "_MILLER_DEGREE", 250.0))
    return [
        ("specfun.ferrers_P_sequence", "specfun", "ferrers_P_sequence",
         ("terms",), None, _terms),
        ("specfun.ferrers_P", "specfun", "ferrers_P", (), None, None),
        ("specfun.legendre_P_axis_sequence", "specfun", "legendre_P_axis_sequence",
         ("terms",), None, _terms),
        ("specfun.legendre_Qbar_axis_sequence", "specfun",
         "legendre_Qbar_axis_sequence", ("terms", "miller_calls"), None, qbar),
        ("specfun.hyp_series", "specfun", "_hyp_series", ("failed",), None, None),
        ("summation.abel_limit", "summation", "abel_limit", ("coeffs",), None, _coeffs),
        ("summation.sum_m_bands", "summation", "sum_m_bands", ("bands",),
         _count_bands, None),
        ("conespace.heine_double_sum", "conespace", "heine_double_sum",
         ("bands",), None, _heine_bands),
        ("quadpack", scipy.integrate, "quad", (), None, None),
        ("ode", scipy.integrate, "solve_ivp", ("nfev",), None, _nfev),
        ("blackhole.radial_solutions", "blackhole", "radial_solutions", (), None, None),
        ("blackhole.horizon_green", "blackhole", "horizon_green", (), None, None),
        ("vacuumpol.phi2_result", "vacuumpol", "phi2_result", (), None, None),
    ]


class Tracer:
    """Wrappers around every layer of stringhorizon, with per-layer stats."""

    def __init__(self):
        self.stats = {}          # layer prefix -> counters and times
        self.metrics = []        # (metric name, layer prefix, stats key, unit)
        self.missing = []        # layers whose entry point no longer exists
        self._stack = [0.0]      # per open wrapped call: time in wrapped callees
        self._patches = []       # (setter, key, original)

    def _wrap(self, stats, fn, before, after):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(stats, args, kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stats["failed"] += 1
                raise
            finally:
                dt = clock() - t0
                inner = stack.pop()
                stack[-1] += dt
                stats["calls"] += 1
                stats["self_s"] += dt - inner
                stats["incl_s"] += dt
            if after is not None:
                after(stats, args, kwargs, out)
            return out
        return wrapper

    def install(self):
        from stringhorizon import identities, specfun
        modules = [m for name, m in sys.modules.items()
                   if name == "stringhorizon" or name.startswith("stringhorizon.")]
        targets = []
        for prefix, owner, attr, counters, before, after in _layers(specfun):
            if isinstance(owner, str):
                owner = sys.modules[f"stringhorizon.{owner}"]
            targets.append((prefix, getattr(owner, attr, None), counters, before, after))
        for prefix, *_, counters, _, _ in targets:
            self.metrics.append((f"{prefix}.calls", prefix, "calls", "count"))
            self.metrics += [(f"{prefix}.{c}", prefix, c, "count") for c in counters]
            self.metrics.append((f"{prefix}.self_s", prefix, "self_s", "s"))
        for check, fn in identities.CHECKS.items():
            targets.append((f"identities.{check}", fn, (), None, None))
            # a check's inclusive time: everything one check type costs
            self.metrics.append((f"identities.{check}.s", f"identities.{check}",
                                 "incl_s", "s"))
        for prefix, original, counters, before, after in targets:
            stats = self.stats.setdefault(prefix, {})
            for key in ("calls", "failed", "self_s", "incl_s") + counters:
                stats[key] = 0
            if original is None:
                self.missing.append(prefix)
                continue
            wrapper = self._wrap(stats, original, before, after)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    self._patches.append((mod.__setattr__, key, original))
                    setattr(mod, key, wrapper)
            for key in [k for k, v in identities.CHECKS.items() if v is original]:
                self._patches.append((identities.CHECKS.__setitem__, key, original))
                identities.CHECKS[key] = wrapper

    def remove(self):
        while self._patches:
            setter, key, original = self._patches.pop()
            setter(key, original)

    def reset(self):
        for stats in self.stats.values():
            for key in stats:
                stats[key] = 0

    def snapshot(self):
        return {prefix: dict(stats) for prefix, stats in self.stats.items()}
