"""Command-line surface: run identity suites, compute phi^2, emit figure
data, and persist machine-readable reports.

Exit codes: 0 success, 1 verification failures, 2 config errors (bad
options, or arguments outside a function's domain), 3 numeric/convergence
errors.  Output files are byte-deterministic for a fixed config: floats are
written with 17 significant digits and reports carry no timestamps.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import io
import json
import math
import sys
from importlib import resources

import numpy as np

from . import blackhole, identities, specfun, vacuumpol
from .errors import DomainError, StringHorizonError

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_MANIFEST_KEYS = {"version", "description", "cases"}
_CASE_KEYS = {"check", "params"}


class ConfigError(Exception):
    pass


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17e")
    return str(x)


def _write(args, payload, csv_text: str) -> None:
    """Write payload as JSON, or csv_text, as --format asks, to --out or stdout."""
    text = (csv_text if args.format == "csv"
            else json.dumps(payload, sort_keys=True, indent=2) + "\n")
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)


def _csv(rows) -> str:
    """CSV text of rows: each field by _fmt, quoted as the csv module quotes."""
    import csv      # on first use: importing the CLI loads no csv
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [_fmt(v) for v in row] for row in rows)
    return buf.getvalue()


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _load_manifest(path: str | None) -> list[dict]:
    if path is None:
        src = resources.files("stringhorizon").joinpath("manifests/default.json")
        text = src.read_text()
        where = "default manifest"
    else:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read manifest {path}: {exc}")
        where = path
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{where}: line {exc.lineno}, col {exc.colno}: {exc.msg}")
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: the manifest must be a JSON object")
    unknown = set(data) - _MANIFEST_KEYS
    if unknown:
        raise ConfigError(f"{where}: unknown manifest keys {sorted(unknown)}")
    cases = data.get("cases", [])
    if not isinstance(cases, list):
        raise ConfigError(f"{where}: cases must be a list")
    for i, case in enumerate(cases):
        if not isinstance(case, dict):
            raise ConfigError(f"{where}: case {i}: must be an object")
        unknown = set(case) - _CASE_KEYS
        if unknown:
            raise ConfigError(f"{where}: case {i}: unknown keys {sorted(unknown)}")
        name = case.get("check")
        if name not in identities.CHECKS:
            raise ConfigError(f"{where}: case {i}: unknown check {name!r}")
        _check_params(f"{where}: case {i} ({name})", identities.CHECKS[name],
                      case.get("params", {}))
    return cases


def _check_params(where: str, check, params) -> None:
    """Raise ConfigError unless params suit check: an object of known,
    finite, non-bool numbers naming every required parameter, with tol in
    [1e-12, 1e-3]."""
    if not isinstance(params, dict):
        raise ConfigError(f"{where}: params must be an object")
    sig = inspect.signature(check).parameters
    bad = set(params) - set(sig)
    if bad:
        raise ConfigError(f"{where}: unknown params {sorted(bad)}")
    missing = [k for k, p in sig.items()
               if p.default is p.empty and k not in params]
    if missing:
        raise ConfigError(f"{where}: missing params {missing}")
    for key, value in params.items():
        if not (type(value) is int
                or (type(value) is float and math.isfinite(value))):
            raise ConfigError(
                f"{where}: {key} must be a finite number, got {value!r}")
    if "tol" in params:
        _check_tol(params["tol"], f"{where}: tol")


def _check_tol(tol: float, what: str) -> None:
    if not 1e-12 <= tol <= 1e-3:
        raise ConfigError(f"{what} {tol} outside [1e-12, 1e-3]")


def _records_csv(records: list[dict]) -> str:
    cols = [f.name for f in dataclasses.fields(identities.IdentityCase)] + ["error"]
    rows = [dict(r, params=";".join(f"{k}={_fmt(v)}"
                                    for k, v in sorted(r["params"].items())))
            for r in records]
    return _csv([cols] + [["" if r.get(c) is None else r[c] for c in cols]
                          for r in rows])


def cmd_verify(args) -> int:
    if args.tolerance is not None:
        _check_tol(args.tolerance, "tolerance")
    cases = _load_manifest(args.manifest)
    # the summary stays out of a report written to stdout
    log = sys.stderr if args.out is None else sys.stdout
    if not cases:
        print("warning: empty manifest, nothing to verify", file=log)
        _write(args, [], _records_csv([]))
        return EXIT_OK
    records = identities.run_cases(cases, tol_override=args.tolerance)
    n_err = sum(1 for r in records if "error" in r)
    n_fail = sum(1 for r in records if not r.get("passed") and "error" not in r)
    for r in records:
        if "error" in r:
            print(f"ERROR {r['name']}: {r['error']}", file=log)
        else:
            status = "PASS" if r["passed"] else "FAIL"
            print(f"{status} {r['name']} residual={_fmt(r['residual'])} "
                  f"tail={_fmt(r['certified_tail'])}", file=log)
    print(f"{len(records)} checks: {len(records) - n_fail - n_err} passed, "
          f"{n_fail} failed, {n_err} errored", file=log)
    _write(args, records, _records_csv(records))
    if n_err:
        return EXIT_NUMERIC
    if n_fail:
        return EXIT_FAILURES
    return EXIT_OK


# ----------------------------------------------------------------------
# phi2
# ----------------------------------------------------------------------

def cmd_phi2(args) -> int:
    res = vacuumpol.phi2_result(args.theta, args.alpha, args.mass)
    payload = {
        "theta": res.theta, "alpha": res.alpha, "M": res.M,
        "phi2_closed": res.value_closed,
        "phi2_limit": res.value_limit,
        "extrapolation_error": res.extrapolation_error,
        "route_agreement": res.route_agreement,
    }
    _write(args, payload, _csv(payload.items()))
    return EXIT_OK


# ----------------------------------------------------------------------
# figure1
# ----------------------------------------------------------------------

def _check_points(points: int):
    if points < 1:
        raise ConfigError(f"--points must be >= 1, got {points}")


def cmd_figure1(args) -> int:
    try:
        alphas = [float(a) for a in args.alphas.split(",") if a]
    except ValueError as exc:
        raise ConfigError(f"bad --alphas: {exc}")
    _check_points(args.points)
    if not 0.0 < args.margin < 1.0:
        raise ConfigError(f"--margin must lie in (0, 1), got {args.margin}")
    rows = vacuumpol.figure1_data(alphas, margin=args.margin,
                                  points=args.points)
    cols = ("cos_theta", "alpha", "phi2_M2")
    _write(args, [dict(zip(cols, r)) for r in rows], _csv([cols, *rows]))
    return EXIT_OK


# ----------------------------------------------------------------------
# radial
# ----------------------------------------------------------------------

_ETA_MIN = 1.0 + 1e-3     # first row of the radial table


def cmd_radial(args) -> int:
    lam = blackhole.lambda_of(args.l, args.m, args.alpha)
    _check_points(args.points)
    if not _ETA_MIN < args.eta_max < math.inf:
        raise ConfigError(
            f"--eta-max must be finite and exceed {_ETA_MIN}, got {args.eta_max}")
    etas = np.geomspace(_ETA_MIN, args.eta_max, args.points)
    if args.n == 0:
        table = [(float(e), specfun.legendre_P_axis(lam, float(e)),
                  specfun.legendre_Q(lam, float(e))) for e in etas]
        diag = {"n": 0, "lambda": lam, "branch": "analytic (P_lambda, Q_lambda)"}
    else:
        pair = blackhole.radial_solutions(args.n, lam, eta_max=args.eta_max)
        table = [(float(e), pair.p(float(e)), pair.q(float(e))) for e in etas]
        diag = {
            "n": args.n, "lambda": lam,
            "wronskian_scale": pair.wronskian_scale,
            "wronskian_target": -2.0 * abs(args.n),
            "wronskian_spread": pair.wronskian_spread,
            "exponent_fit_p": blackhole.exponent_fit(pair.p),
            "exponent_fit_q": blackhole.exponent_fit(pair.q),
            "exponent_target": abs(args.n) / 2.0,
        }
    if args.format == "csv":
        # the diagnostics stay out of a table written to stdout
        log = sys.stderr if args.out is None else sys.stdout
        for k, v in sorted(diag.items()):
            print(f"# {k} = {_fmt(v)}", file=log)
    cols = ("eta", "p", "q")
    payload = {"diagnostics": diag, "table": [dict(zip(cols, r)) for r in table]}
    _write(args, payload, _csv([cols, *table]))
    return EXIT_OK


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stringhorizon",
        description="Cosmic-string black-hole vacuum polarization toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the identity suite")
    v.add_argument("--manifest", default=None, help="grid manifest (JSON)")
    v.add_argument("--tolerance", type=float, default=None)

    f = sub.add_parser("phi2", help="horizon vacuum polarization, both routes")
    f.add_argument("--theta", type=float, required=True)
    f.add_argument("--alpha", type=float, required=True)
    f.add_argument("--mass", type=float, default=1.0)

    g = sub.add_parser("figure1", help="emit the horizon profile data table")
    g.add_argument("--alphas", default="1.0,0.9,0.75,0.5")
    g.add_argument("--points", type=int, default=81)
    g.add_argument("--margin", type=float, default=0.995)

    r = sub.add_parser("radial", help="tabulate radial solutions")
    r.add_argument("--n", type=int, required=True)
    r.add_argument("--l", type=int, required=True)
    r.add_argument("--m", type=int, required=True)
    r.add_argument("--alpha", type=float, default=1.0)
    r.add_argument("--eta-max", type=float, default=20.0)
    r.add_argument("--points", type=int, default=40)
    for parser, func, default in ((v, cmd_verify, "json"), (f, cmd_phi2, "csv"),
                                  (g, cmd_figure1, "csv"), (r, cmd_radial, "csv")):
        parser.add_argument("--out", default=None)
        parser.add_argument("--format", choices=("csv", "json"), default=default)
        parser.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError) as exc:
        # every argument of phi2, figure1 and radial comes from the command
        # line; verify records its cases' domain errors instead of raising
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StringHorizonError, OverflowError) as exc:
        # OverflowError: math.exp or math.sinh met a value beyond float
        # range, such as P_lambda(eta) at large lambda and eta
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
