"""One fresh benchmark process for one workload; run.py starts it.

    python3 perfbench/worker.py --workload verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/worker.py --workload verify --seed 1 --setup-only

It must run from the root of a checkout, with src/ first on PYTHONPATH and
one BLAS/OpenMP thread (run.py sets both).  With --setup-only it imports
stringhorizon, loads the workload's inputs and exits; run.py times such
processes for setup_s.  Otherwise it computes the references, runs whole
passes over the workload for --seconds seconds, checks every output, and
prints one JSON line of results for run.py.

With --trace 1 the first half of the time runs untraced passes and the
second half traced ones (layertrace.py); the traced outputs must equal the
untraced ones, and the difference of the two pass times is the tracing
overhead.
"""

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate

MIN_TAIL_SAMPLES = 40      # a tail is taken only from this many samples or more
CALIBRATE_EVERY_S = 0.5    # run the calibration loop between ops this often
SPEED_WINDOW_S = 2.0       # an op is scaled by the loops within this of its start


@dataclass
class Pass:
    wall: float            # seconds in the pass's operations
    times: list            # seconds per operation, in op order
    scaled: list           # the same, scaled to calibrate.REF_S
    speed: float           # median slowdown against calibrate.REF_S
    outputs: str           # every output, serialized, to compare passes
    failed: list           # labels of the ops that raised or missed their tolerance
    layers: dict | None    # tracer snapshot, traced passes only


def _import_program():
    import stringhorizon
    src = (Path.cwd() / "src").resolve()
    if src not in Path(stringhorizon.__file__).resolve().parents:
        sys.exit(f"stringhorizon was imported from {stringhorizon.__file__}, not from {src}")


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _environment():
    import numpy
    import scipy
    numpy.dot(numpy.ones(64), numpy.ones(64))      # make sure BLAS is up
    try:
        status = Path("/proc/self/status").read_text()
        threads = int(status.split("Threads:")[1].split()[0])
    except (OSError, IndexError, ValueError):
        threads = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": _blas_threads(), "process_threads": threads}


def _scale(starts, times, loops):
    """Each op's time divided by the machine's slowdown around it: the
    median of the calibration loops that started within SPEED_WINDOW_S of
    the op (the nearest loop if none did)."""
    scaled = []
    for t0, dt in zip(starts, times):
        near = [s for t, s in loops if abs(t - t0) <= SPEED_WINDOW_S]
        if not near:
            near = [min(loops, key=lambda loop: abs(loop[0] - t0))[1]]
        scaled.append(dt / calibrate.speed(near))
    return scaled


def run_pass(ops, tracer=None):
    from stringhorizon.errors import StringHorizonError
    clock = time.perf_counter
    outputs, raised, starts, times = [], [], [], []
    loops = [(clock(), calibrate.loop_seconds())]      # (start, seconds)
    if tracer is not None:
        tracer.reset()
    for op in ops:
        t0 = clock()
        try:
            out, err = op.call(), False
        except StringHorizonError as exc:
            out, err = f"{type(exc).__name__}: {exc}", True
        t1 = clock()
        starts.append(t0)
        times.append(t1 - t0)
        outputs.append(out)
        raised.append(err)
        if t1 - loops[-1][0] >= CALIBRATE_EVERY_S:
            loops.append((t1, calibrate.loop_seconds()))
    layers = tracer.snapshot() if tracer is not None else None
    loops.append((clock(), calibrate.loop_seconds()))
    failed = [op.label for op, out, err in zip(ops, outputs, raised)
              if err or not op.check(out)]
    return Pass(sum(times), times, _scale(starts, times, loops),
                calibrate.speed([s for _, s in loops]),
                json.dumps(outputs, sort_keys=True), failed, layers)


def run_passes(ops, deadline, min_passes, tracer=None):
    """Whole passes until the next one would end after `deadline`, and at
    least `min_passes` of them."""
    passes = []
    while (len(passes) < min_passes or time.perf_counter()
           + statistics.median(p.wall for p in passes) <= deadline):
        passes.append(run_pass(ops, tracer))
    return passes


def tail(samples):
    """(percentile, value): the highest whole percentile with at least ten
    samples beyond it, by the nearest-rank rule."""
    n = len(samples)
    p = math.floor(100 * (n - 10) / n)
    rank = math.ceil(p * n / 100)
    return p, sorted(samples)[rank - 1]


def _layer_metrics(tracer, traced, untraced):
    """Per-layer metrics: medians over the traced passes."""
    def med(fn):
        return statistics.median(fn(p) for p in traced)

    metrics = {name: {"value": med(lambda p: p.layers[prefix][key]), "unit": unit}
               for name, prefix, key, unit in tracer.metrics}
    # scaled like the end-to-end times, so that a drift of the machine's
    # speed between the two halves of the run does not read as overhead
    metrics["trace.overhead_s"] = {
        "value": (med(lambda p: sum(p.scaled))
                  - statistics.median(sum(p.scaled) for p in untraced)),
        "unit": "s"}
    metrics["trace.attributed_share"] = {
        "value": med(lambda p: sum(s["self_s"] for s in p.layers.values()) / p.wall),
        "unit": "ratio"}
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _import_program()
    import workloads
    data = workloads.inputs(args.workload, args.seed)
    if args.setup_only:
        return 0

    start = time.perf_counter()
    env = _environment()
    ops = workloads.operations(args.workload, data)
    if args.trace:
        from layertrace import Tracer
        untraced = run_passes(ops, start + args.seconds / 2, 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(ops, start + args.seconds, 2, tracer)
        finally:
            tracer.remove()
        passes = untraced + traced
        metrics = _layer_metrics(tracer, traced, untraced)
        extra = {"missing_layers": tracer.missing}
        checks = {}
    else:
        passes = run_passes(ops, start + args.seconds,
                            workloads.MIN_PASSES[args.workload])
        main = [i for i, op in enumerate(ops) if op.main]
        samples = [p.scaled[i] for p in passes for i in main]
        percentile, tail_s = tail(samples)
        metrics = {
            "wall_s": statistics.median(sum(p.scaled) for p in passes),
            "op_p50_s": statistics.median(samples),
            "op_tail_s": tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": "MB" if k == "peak_rss_mb" else "s"}
                   for k, v in metrics.items()}
        extra = {"tail": {"percentile": percentile, "samples": len(samples)},
                 "raw": {"wall_s": statistics.median(p.wall for p in passes),
                         "speed": statistics.median(p.speed for p in passes)}}
        checks = {"op_tail_s >= op_p50_s": tail_s >= metrics["op_p50_s"]["value"],
                  "at least 40 tail samples": len(samples) >= MIN_TAIL_SAMPLES}

    attempted = len(passes) * len(ops)
    checks.update({
        "attempted is a whole number of fixed passes":
            len(ops) == workloads.OPS_PER_PASS[args.workload],
        "every pass gives identical outputs":
            all(p.outputs == passes[0].outputs for p in passes),
        "one BLAS thread": env["blas_threads"] in (1, None),
    })
    result = {"correct": all(checks.values()), "attempted": attempted,
              "failed": sum(len(p.failed) for p in passes), "metrics": metrics,
              "passes": len(passes), "failed_ops": passes[0].failed,
              "checks": checks, "env": env, **extra}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
