"""The benchmark's three workloads: their inputs, the operations one pass
runs, and the check of every output against an independent reference.

Every call into stringhorizon looks its function up on the module at call
time, so that the traced run's wrappers (layertrace.py) see it.
"""

import inspect
import math
import random
from dataclasses import dataclass
from typing import Callable

import reference
from stringhorizon import blackhole, cli, identities, vacuumpol

# Operations in one pass; a run checks that it attempted a whole multiple.
OPS_PER_PASS = {"verify": 244, "horizon": 30, "hard": 7}

# Fewest passes in a run, so that on a slow run the rank of op_tail_s still
# falls in the same group of operations as on a normal one (verify: the four
# long linet cases; horizon: eps = 1e-2 at alpha = 1, two per pass), and so
# that hard pools 40 samples of its main operation.  A hard pass is long
# enough that no run reaches the eleven passes that would move its tail.
MIN_PASSES = {"verify": 5, "horizon": 6, "hard": 6}

HG_TOL = 1e-8            # horizon_green tolerance, relative to the closed form
HEINE_TOL = 1e-6         # check_heine_generalized's default tolerance
PHI2_CLOSED_TOL = 1e-12
PHI2_LIMIT_TOL = 1e-8
WRONSKIAN_TOL = 1e-6     # relative to -2|n|
EXPONENT_TOL = 1e-3

HORIZON_EPS = (2e-2, 1e-2)
HORIZON_ALPHAS = (1.0, 0.75, 0.5)
RADIAL_NS = (1, 2)

# hard: (chi, alpha) for check_heine_generalized(alpha, pi/2, pi/2, 0.3, chi)
# and (eps, alpha) for horizon_green at theta = theta' = pi/2.  The chi = 0.1
# cases pass; each of the others is a case of a fault that fails every time
# (see README.md).  The grid is thinned so that a run of about 30 s still
# pools at least 40 samples of the main operation.
HARD_HEINE = ((0.1, 0.5), (0.1, 0.25), (0.05, 1.0), (0.05, 0.25), (0.02, 0.25))
HARD_HORIZON = ((5e-3, 0.5), (2.5e-3, 0.5))
HARD_THETA = math.pi / 2
HARD_DPHI = 0.3


@dataclass(frozen=True)
class Op:
    """One operation of a pass.  `call` runs the program and returns plain
    data (compared across passes); `check` says whether that data meets
    its tolerance against the reference."""

    label: str
    main: bool               # pooled into op_p50_s and op_tail_s
    call: Callable[[], object]
    check: Callable[[object], bool]


def inputs(workload, seed):
    """What a fresh process loads before its first pass."""
    if workload == "verify":
        # the packaged manifest, loaded and validated as `stringhorizon verify` does
        return cli._load_manifest(None)
    if workload == "horizon":
        rng = random.Random(seed)
        # one theta in each half of [pi/3, pi/2], so that every seed spans the range
        return [math.pi / 3 + (k + rng.random()) * math.pi / 12 for k in range(2)]
    if workload == "hard":
        return {"heine": HARD_HEINE, "horizon": HARD_HORIZON}
    raise ValueError(f"unknown workload {workload!r}")


def operations(workload, data):
    """The ops of one pass, each with its reference already computed."""
    return {"verify": _verify_ops, "horizon": _horizon_ops,
            "hard": _hard_ops}[workload](data)


def _residual(value, ref):
    # the harness's own scale: relative when |ref| > 1, absolute otherwise
    return abs(value - ref) / max(1.0, abs(ref))


def _rel(value, ref):
    return abs(value - ref) / abs(ref)


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _case_reference(case):
    p = case["params"]
    name = case["check"]
    if name == "heine_classic":
        return reference.heine_classic(p["zeta"], p["psi"])
    if name == "heine_generalized":
        return reference.heine_kernel(p["alpha"], p["theta"], p["theta_p"],
                                      p["dphi"], p["chi"])
    if name == "app5":
        return reference.app5(p["alpha"], p["m"], p["theta"], p["theta_p"])
    if name == "norm_integral":
        return reference.norm_integral(p["alpha"], p["m"], p["l"], p["l_p"])
    return None


def _verify_op(i, case):
    ref = _case_reference(case)
    if ref is None:
        # linet, toroidal, spheroidal and the audit: the record's own verdict
        def check(rec):
            return rec["passed"]
    else:
        tol = case["params"].get("tol")
        if tol is None:
            tol = inspect.signature(identities.CHECKS[case["check"]]).parameters["tol"].default

        def check(rec):
            return "error" not in rec and _residual(rec["lhs"], ref) <= tol
    return Op(f"{i}:{case['check']}", True,
              lambda: identities.run_case(case), check)


def _verify_ops(cases):
    return [_verify_op(i, c) for i, c in enumerate(cases)]


# ----------------------------------------------------------------------
# horizon and hard
# ----------------------------------------------------------------------

def _horizon_green_op(theta, eps, alpha):
    eta = 1.0 + eps
    ref = reference.horizon_green(theta, eta, alpha)

    def call():
        return blackhole.horizon_green(theta, theta, 0.0, eta,
                                       blackhole.DeficitGeometry(alpha), tol=HG_TOL)
    return Op(f"horizon_green(theta={theta:.6f}, eps={eps:g}, alpha={alpha:g})",
              True, call, lambda v: _rel(v, ref) <= HG_TOL)


def _phi2_op(theta, alpha):
    ref = reference.phi2(theta, alpha)

    def call():
        r = vacuumpol.phi2_result(theta, alpha)
        return [r.value_closed, r.value_limit, r.extrapolation_error]

    def check(out):
        return (_rel(out[0], ref) <= PHI2_CLOSED_TOL
                and _rel(out[1], ref) <= PHI2_LIMIT_TOL)
    return Op(f"phi2_result(theta={theta:.6f}, alpha={alpha:g})", False, call, check)


def _radial_op(n, alpha):
    lam = 1.0 / alpha        # the l = m = 1 mode

    def call():
        pair = blackhole.radial_solutions(n, lam, blackhole.DeficitGeometry(alpha))
        return [pair.wronskian_scale, blackhole.exponent_fit(pair.p)]

    def check(out):
        return (abs(out[0] + 2.0 * abs(n)) <= WRONSKIAN_TOL * 2.0 * abs(n)
                and abs(out[1] - abs(n) / 2.0) <= EXPONENT_TOL)
    return Op(f"radial_solutions(n={n}, alpha={alpha:g})", False, call, check)


def _horizon_ops(thetas):
    ops = []
    for theta in thetas:
        for alpha in HORIZON_ALPHAS:
            ops += [_horizon_green_op(theta, eps, alpha) for eps in HORIZON_EPS]
            ops.append(_phi2_op(theta, alpha))
            ops += [_radial_op(n, alpha) for n in RADIAL_NS]
    return ops


def _heine_op(chi, alpha):
    th = HARD_THETA
    ref = reference.heine_kernel(alpha, th, th, HARD_DPHI, chi)

    def call():
        return identities.check_heine_generalized(alpha, th, th, HARD_DPHI,
                                                  chi).to_record()
    return Op(f"check_heine_generalized(chi={chi:g}, alpha={alpha:g})", True,
              call, lambda rec: _residual(rec["lhs"], ref) <= HEINE_TOL)


def _hard_ops(data):
    return ([_heine_op(chi, alpha) for chi, alpha in data["heine"]]
            + [_horizon_green_op(HARD_THETA, eps, alpha)
               for eps, alpha in data["horizon"]])
