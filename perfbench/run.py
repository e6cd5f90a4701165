"""Benchmark of stringhorizon: the verify manifest, the horizon mode sums and
the near-singular regime.  Run from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in a fresh process (worker.py) with one BLAS/OpenMP
thread.  Before it, fresh processes that only import stringhorizon and load
the workload's inputs are timed for setup_s.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("verify", "horizon", "hard")
SETUP_PROBES = 5          # timed set-ups per run; setup_s is their median
RUN_LIMIT_S = 170.0       # a run must end within 180 s


class BenchError(Exception):
    pass


def _child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run(cmd, env, timeout):
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, timeout))
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:])} exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return proc


def _import_times(stderr):
    """Cumulative import seconds of stringhorizon and scipy.integrate, from
    the output of `python -X importtime`."""
    found = {"stringhorizon": 0.0, "scipy.integrate": 0.0}
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in found:
            found[parts[2].strip()] = int(parts[1]) / 1e6
    return found


def _setup(workload, seed, env, trace, deadline):
    """Median wall time of fresh set-up processes, scaled by the calibration
    loops timed between them; with trace, the median import times instead.
    The first probe is untimed: it writes bytecode and warms the file
    cache.  The machine's speed flips within a second, so one scale for the
    whole set-up phase is steadier than one per probe."""
    cmd = ([sys.executable] + (["-X", "importtime"] if trace else [])
           + [str(WORKER), "--workload", workload, "--seed", str(seed), "--setup-only"])
    times, imports, loops = [], [], []
    for i in range(SETUP_PROBES + 1):
        loops += [calibrate.loop_seconds() for _ in range(3)]
        t0 = time.perf_counter()
        proc = _run(cmd, env, deadline - time.perf_counter())
        if i:
            times.append(time.perf_counter() - t0)
            imports.append(_import_times(proc.stderr))
    if trace:
        return {f"import.{name.replace('scipy.integrate', 'scipy_integrate')}_s":
                {"value": statistics.median(t[name] for t in imports), "unit": "s"}
                for name in imports[0]}
    return {"setup_s": {"value": statistics.median(times) / calibrate.speed(loops),
                        "unit": "s"}}


def run_workload(workload, seed, seconds, trace, root):
    deadline = time.perf_counter() + RUN_LIMIT_S
    env = _child_env(root)
    metrics = _setup(workload, seed, env, trace, deadline)
    proc = _run([sys.executable, str(WORKER), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(int(trace))], env, deadline - time.perf_counter())
    sys.stderr.write(proc.stderr)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics.update(res["metrics"])
    return res, metrics


def _report(workload, res, metrics):
    tag = f"[{workload}]"
    env = " ".join(f"{k}={v}" for k, v in res["env"].items())
    print(f"{tag} env: {env}")
    print(f"{tag} passes={res['passes']} attempted={res['attempted']} "
          f"failed={res['failed']}")
    for label in res["failed_ops"]:
        print(f"{tag} fails every pass: {label}")
    for name, ok in res["checks"].items():
        print(f"{tag} check {'ok  ' if ok else 'FAIL'} {name}")
    if "tail" in res:
        print(f"{tag} op_tail_s is the p{res['tail']['percentile']} of "
              f"{res['tail']['samples']} samples")
        print(f"{tag} unscaled median pass {res['raw']['wall_s']:.4f} s at "
              f"{res['raw']['speed']:.3f}x the calibration loop's reference time")
    for layer in res.get("missing_layers", []):
        print(f"{tag} layer not found, reads 0: {layer}")
    for name, m in metrics.items():
        print(f"{tag} {name:48s} {m['value']:.6g} {m['unit']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "stringhorizon" / "__init__.py").is_file():
        print("error: no src/stringhorizon here; run from the root of a "
              "stringhorizon checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            res, metrics = run_workload(name, args.seed, args.seconds,
                                        args.trace, root)
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        _report(name, res, metrics)
        line = {"correct": res["correct"], "attempted": res["attempted"],
                "failed": res["failed"], "metrics": metrics}
        results[name] = line
        print(json.dumps(line))
    if len(names) > 1:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
