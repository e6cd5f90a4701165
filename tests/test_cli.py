"""Command-line surface: exit codes, output schemas, determinism."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringhorizon.cli import (EXIT_CONFIG, EXIT_FAILURES, EXIT_NUMERIC,
                               EXIT_OK, main)

PI = math.pi
SRC = str(Path(__file__).resolve().parents[1] / "src")


def write_manifest(path, cases, extra_top=None, extra_case_key=None):
    data = {"version": 1, "cases": cases}
    if extra_top:
        data.update(extra_top)
    if extra_case_key and cases:
        cases[0] = dict(cases[0], **extra_case_key)
    with open(path, "w") as fh:
        json.dump(data, fh)
    return str(path)


SMALL_CASES = [
    {"check": "heine_classic", "params": {"zeta": 2.0, "psi": 0.3}},
    {"check": "norm_integral",
     "params": {"alpha": 0.75, "m": 1, "l": 1, "l_p": 2}},
    {"check": "heine_generalized",
     "params": {"alpha": 0.75, "theta": PI / 4, "theta_p": PI / 4,
                "dphi": 1.0, "chi": 0.5}},
]


def test_verify_small_manifest(tmp_path, capsys):
    man = write_manifest(tmp_path / "m.json", list(SMALL_CASES))
    out = tmp_path / "report.json"
    assert main(["verify", "--manifest", man, "--out", str(out)]) == EXIT_OK
    records = json.loads(out.read_text())
    assert len(records) == 3
    assert all(r["passed"] for r in records)
    assert "PASS heine_classic" in capsys.readouterr().out


def test_verify_byte_determinism(tmp_path):
    man = write_manifest(tmp_path / "m.json", list(SMALL_CASES))
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["verify", "--manifest", man, "--out", str(out)]) == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_verify_csv_format(tmp_path):
    man = write_manifest(tmp_path / "m.json", list(SMALL_CASES))
    out = tmp_path / "report.csv"
    assert main(["verify", "--manifest", man, "--format", "csv",
                 "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("name,params,lmax")
    assert len(lines) == 4


def test_verify_empty_manifest(tmp_path, capsys):
    man = write_manifest(tmp_path / "m.json", [])
    assert main(["verify", "--manifest", man]) == EXIT_OK
    captured = capsys.readouterr()
    assert "warning: empty manifest" in captured.err
    assert json.loads(captured.out) == []


def test_verify_report_on_stdout_parses(tmp_path, capsys):
    # without --out the report alone goes to stdout, the summary to stderr
    man = write_manifest(tmp_path / "m.json", [dict(_CLASSIC)])
    assert main(["verify", "--manifest", man]) == EXIT_OK
    captured = capsys.readouterr()
    assert json.loads(captured.out)[0]["passed"]
    assert "PASS heine_classic" in captured.err
    assert "1 checks: 1 passed" in captured.err
    assert main(["verify", "--manifest", man, "--format", "csv"]) == EXIT_OK
    text = capsys.readouterr().out
    assert text.startswith("name,params,lmax,")
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 1 and rows[0]["name"] == "heine_classic"
    assert rows[0]["passed"] == "True"


def test_verify_huge_zeta_under_warnings_as_errors(tmp_path):
    # (2l + 1) zeta overflows in the Miller recurrence of the Q chain; the
    # case must pass without a RuntimeWarning
    man = write_manifest(tmp_path / "m.json", [
        {"check": "heine_classic", "params": {"zeta": 1e307, "psi": 0.3}},
        {"check": "heine_classic", "params": {"zeta": 1.7e308, "psi": 0.3}}])
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "stringhorizon.cli", "verify", "--manifest", man, "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
        timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stderr == ""
    assert all(r["passed"] for r in json.loads(out.read_text()))


@pytest.mark.parametrize("case,code,error", [
    # l-sum terms at mu = 100 still grow at the rate's cutoff lmax = 30
    ({"check": "spheroidal_sum",
      "params": {"alpha": 0.01, "m": 1, "theta": 0.7, "theta_p": 1.1,
                 "sigma_lt": 0.8, "sigma_gt": 1.5}},
     EXIT_NUMERIC, "SlowConvergenceError"),
    # finite but failed: at one point the terms cancel beyond float64
    ({"check": "spheroidal_ratio_audit", "params": {"alpha": 0.05}},
     EXIT_FAILURES, None),
    # P_{n-1/2}^{-300}(cosh 0.5) underflows in every term
    ({"check": "toroidal_addition",
      "params": {"alpha": 0.01, "m": 3, "w": 0.5, "w_p": 0.9,
                 "eta": 1.0, "eta_p": 2.0}},
     EXIT_NUMERIC, "ConvergenceError"),
])
def test_verify_small_alpha_coefficients_under_warnings_as_errors(
        tmp_path, case, code, error):
    # the gamma ratios of the toroidal and spheroidal coefficients leave
    # float range at mu = m/alpha of a few hundred; each case must give a
    # failed report record, never a traceback and never a PASS
    man = write_manifest(tmp_path / "m.json", [case])
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "stringhorizon.cli", "verify", "--manifest", man, "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
        timeout=120)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr == ""
    [record] = json.loads(out.read_text())
    assert record["passed"] is False
    if error is None:
        assert "error" not in record and math.isfinite(record["lhs"])
    else:
        assert record["error"].startswith(error + ":")


def test_verify_pole_angle_is_an_error_record(tmp_path):
    # theta = 0 puts cos(theta) = 1 on the pole of the Ferrers functions:
    # every path that reaches a Ferrers chain raises DomainError, which the
    # run records, instead of a traceback
    man = write_manifest(tmp_path / "m.json", [
        {"check": "app5", "params": {"alpha": 1.0, "m": 1, "theta": 0.0,
                                     "theta_p": 1.0}},
        {"check": "linet", "params": {"alpha": 0.75, "theta": 0.0,
                                      "theta_p": 1.0, "dphi": 0.5}},
        {"check": "spheroidal_sum",
         "params": {"alpha": 1.0, "m": 1, "theta": 0.0, "theta_p": 1.1,
                    "sigma_lt": 0.8, "sigma_gt": 1.5}}])
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "stringhorizon.cli", "verify", "--manifest", man, "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
        timeout=120)
    assert proc.returncode == EXIT_NUMERIC, proc.stderr
    assert "Traceback" not in proc.stderr
    records = json.loads(out.read_text())
    assert [r["error"].split(":")[0] for r in records] == ["DomainError"] * 3


@pytest.mark.parametrize("warning_filter", ["error::RuntimeWarning",
                                            "error::UserWarning"])
def test_verify_quadpack_failure_is_an_error_record(tmp_path, warning_filter):
    # at dphi = 1e-4 the diagonal Linet resummation meets QUADPACK's
    # roundoff failure, which is one ERROR record under either warning
    # filter, never a warning or a traceback
    man = write_manifest(tmp_path / "m.json", [
        {"check": "linet", "params": {"alpha": 0.75, "theta": PI / 2,
                                      "theta_p": PI / 2, "dphi": 1e-4}}])
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-W", warning_filter, "-m", "stringhorizon.cli",
         "verify", "--manifest", man, "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
        timeout=120)
    assert proc.returncode == EXIT_NUMERIC, proc.stderr
    assert proc.stderr == ""
    [record] = json.loads(out.read_text())
    assert record["error"].startswith("QuadratureError: diagonal resummation: ")
    assert "\n" not in record["error"]
    assert proc.stdout.startswith("ERROR linet: QuadratureError: ")


@pytest.mark.parametrize("warning_filter", ["error::RuntimeWarning",
                                            "error::UserWarning"])
@pytest.mark.parametrize("alpha", [0.75, 0.9])
def test_verify_null_image_is_one_domain_error(tmp_path, warning_filter, alpha):
    # 1e-8 from a null image the Linet kernel divided by zero, a traceback;
    # a pair within 1e-2 of one is refused in one line
    dphi = 2.0 * PI - PI / alpha - 1e-8
    man = write_manifest(tmp_path / "m.json", [
        {"check": "linet", "params": {"alpha": alpha, "theta": 1.0,
                                      "theta_p": 2.0, "dphi": dphi}}])
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-W", warning_filter, "-m", "stringhorizon.cli",
         "verify", "--manifest", man, "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
        timeout=120)
    assert proc.returncode == EXIT_NUMERIC, proc.stderr
    assert proc.stderr == ""
    [record] = json.loads(out.read_text())
    assert record["error"].startswith("DomainError: pair within 1e-2 of a null image")
    assert "\n" not in record["error"]
    assert [line for line in proc.stdout.splitlines()
            if line.startswith("ERROR")] == [f"ERROR linet: {record['error']}"]


def test_verify_domain_error_case_distinct_exit(tmp_path, capsys):
    cases = list(SMALL_CASES) + [
        {"check": "linet", "params": {"alpha": 0.4, "theta": PI / 3,
                                      "theta_p": 2 * PI / 3, "dphi": 1.0}}]
    man = write_manifest(tmp_path / "m.json", cases)
    out = tmp_path / "r.json"
    code = main(["verify", "--manifest", man, "--out", str(out)])
    assert code == EXIT_NUMERIC
    assert code not in (EXIT_OK, EXIT_FAILURES)
    records = json.loads(out.read_text())
    assert "DomainError" in records[-1]["error"]


def test_verify_failure_exit_code(tmp_path):
    # the spurious 1/alpha in the printed spheroidal constant makes this an
    # honest FAIL (large residual, small certified tail) rather than an error
    man = write_manifest(tmp_path / "m.json", [
        {"check": "spheroidal_sum",
         "params": {"alpha": 0.75, "m": 0, "theta": 0.7, "theta_p": 1.1,
                    "sigma_lt": 0.8, "sigma_gt": 1.5}}])
    assert main(["verify", "--manifest", man]) == EXIT_FAILURES


def test_verify_unknown_manifest_key_rejected(tmp_path):
    man = write_manifest(tmp_path / "m.json", list(SMALL_CASES),
                         extra_top={"tolerance_default": 1e-6})
    assert main(["verify", "--manifest", man]) == EXIT_CONFIG


def test_verify_unknown_case_key_rejected(tmp_path):
    man = write_manifest(tmp_path / "m.json", list(SMALL_CASES),
                         extra_case_key={"tolerence": 1e-6})
    assert main(["verify", "--manifest", man]) == EXIT_CONFIG


def test_verify_unknown_check_rejected(tmp_path):
    man = write_manifest(tmp_path / "m.json",
                         [{"check": "heine_clasic", "params": {}}])
    assert main(["verify", "--manifest", man]) == EXIT_CONFIG


def test_verify_unknown_param_rejected(tmp_path):
    man = write_manifest(tmp_path / "m.json",
                         [{"check": "heine_classic",
                           "params": {"zeta": 2.0, "psi": 0.3, "zita": 1.0}}])
    assert main(["verify", "--manifest", man]) == EXIT_CONFIG


def test_verify_tolerance_bounds(tmp_path):
    man = write_manifest(tmp_path / "m.json", list(SMALL_CASES))
    assert main(["verify", "--manifest", man, "--tolerance", "1e-2"]) \
        == EXIT_CONFIG
    assert main(["verify", "--manifest", man, "--tolerance", "1e-13"]) \
        == EXIT_CONFIG


_CLASSIC = {"check": "heine_classic", "params": {"zeta": 2.0, "psi": 0.3}}


def _with_params(**params):
    return {"cases": [dict(_CLASSIC, params=dict(_CLASSIC["params"], **params))]}


@pytest.mark.parametrize("manifest", [
    [],                                              # top level not an object
    {"cases": [1]},                                  # case not an object
    {"cases": {"check": "heine_classic"}},           # cases not a list
    {"cases": [{"check": "heine_classic", "params": [2.0, 0.3]}]},
    _with_params(zeta="2"),
    _with_params(zeta=True),
    _with_params(zeta=float("nan")),
    _with_params(tol=0),
    _with_params(tol=-1),
    _with_params(tol=True),
    _with_params(tol=1e-2),
    _with_params(lmax=60),
    _with_params(mmax=None),
    {"cases": [{"check": "heine_classic", "params": {"zeta": 2.0}}]},
], ids=["top-list", "case-int", "cases-object", "params-list", "zeta-str",
        "zeta-bool", "zeta-nan", "tol-0", "tol-neg", "tol-bool", "tol-big",
        "lmax-unknown", "mmax-unknown", "psi-missing"])
def test_bad_manifest_is_one_line_config_error(tmp_path, capsys, manifest):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    assert main(["verify", "--manifest", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_verify_accepts_null_counts_and_integer_params(tmp_path):
    man = write_manifest(tmp_path / "m.json", [
        {"check": "heine_classic",
         "params": {"zeta": 2, "psi": 0.3, "tol": 1e-8}}])
    assert main(["verify", "--manifest", man]) == EXIT_OK


@pytest.mark.parametrize("key", ["lmax", "mmax", "nmax"])
def test_verify_rejects_cutoff_params(tmp_path, capsys, key):
    # tol is the only truncation setting a case can give
    man = write_manifest(tmp_path / "m.json", [
        {"check": "toroidal_addition",
         "params": {"alpha": 1.0, "m": 0, "w": 0.9, "w_p": 1.4, "eta": 0.7,
                    "eta_p": 0.0, key: 10}}])
    assert main(["verify", "--manifest", man]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith(f"unknown params ['{key}']\n")


def test_verify_overflowing_case_is_recorded(tmp_path, capsys):
    # sinh(chi/alpha) of the closed kernel overflows at alpha = 1e-3; the
    # other cases and the report must survive it
    cases = [{"check": "heine_generalized",
              "params": {"alpha": 1e-3, "theta": 1.0, "theta_p": 1.2,
                         "dphi": 0.3, "chi": 1.0}}, dict(_CLASSIC)]
    man = write_manifest(tmp_path / "m.json", cases)
    out = tmp_path / "r.json"
    assert main(["verify", "--manifest", man, "--out", str(out)]) \
        == EXIT_NUMERIC
    records = json.loads(out.read_text())
    assert records[0]["error"].startswith("OverflowError")
    assert records[1]["passed"]
    assert "1 passed, 0 failed, 1 errored" in capsys.readouterr().out


def test_verify_missing_manifest(tmp_path):
    assert main(["verify", "--manifest", str(tmp_path / "nope.json")]) \
        == EXIT_CONFIG


@pytest.mark.parametrize("argv", [
    ["radial", "--n", "0", "--l", "1", "--m", "2"],
    ["figure1", "--points", "0"],
    ["figure1", "--alphas", "1.5"],
    ["figure1", "--margin", "1.0"],
    ["phi2", "--theta", "1.0", "--alpha", "1.0", "--mass", "-1"],
    ["phi2", "--theta", "0", "--alpha", "1"],
    ["phi2", "--theta", "-1", "--alpha", "1"],
    ["phi2", "--theta", "3.2", "--alpha", "1"],
    ["phi2", "--theta", "inf", "--alpha", "1"],
    ["phi2", "--theta", "nan", "--alpha", "1"],
    ["phi2", "--theta", "1", "--alpha", "1e-300"],
    ["phi2", "--theta", "1e-300", "--alpha", "1"],
    ["phi2", "--theta", "1", "--alpha", "1", "--mass", "1e-300"],
    ["phi2", "--theta", "1", "--alpha", "1", "--mass", "nan"],
    ["phi2", "--theta", "1", "--alpha", "1", "--mass", "inf"],
    ["radial", "--n", "0", "--l", "1", "--m", "0", "--points", "-2"],
    ["radial", "--n", "0", "--l", "1", "--m", "0", "--points", "0"],
    ["radial", "--n", "1", "--l", "1", "--m", "1", "--alpha", "1e-300"],
    ["radial", "--n", "0", "--l", "1", "--m", "0", "--eta-max", "0.5"],
    ["radial", "--n", "1", "--l", "1", "--m", "0", "--eta-max", "1.2"],
    ["radial", "--n", "1", "--l", "1", "--m", "0", "--eta-max", "nan"],
    ["radial", "--n", "0", "--l", "-1", "--m", "0"],
    ["figure1", "--alphas", "1e-300"],
])
def test_bad_input_is_one_line_config_error(argv, capsys):
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


# ----------------------------------------------------------------------
# phi2
# ----------------------------------------------------------------------

def test_phi2_json(capsys):
    code = main(["phi2", "--theta", "1.5707963", "--alpha", "1.0",
                 "--mass", "1.0", "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["phi2_closed"] == pytest.approx(
        1.0 / (192.0 * PI ** 2), rel=1e-9)
    assert abs(payload["phi2_closed"] - payload["phi2_limit"]) < 1e-8
    assert payload["route_agreement"] < 1e-8


def test_phi2_human_output(tmp_path, capsys):
    # stdout gets the same key,value rows as --out, and nothing else
    out = tmp_path / "phi2.csv"
    argv = ["phi2", "--theta", "0.8", "--alpha", "0.75"]
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert main(argv) == EXIT_OK
    text = capsys.readouterr().out
    assert text == out.read_text()
    assert [row.split(",")[0] for row in text.splitlines()] == [
        "theta", "alpha", "M", "phi2_closed", "phi2_limit",
        "extrapolation_error", "route_agreement"]


def test_phi2_pole_is_config_error(capsys):
    assert main(["phi2", "--theta", "0.0", "--alpha", "0.9"]) == EXIT_CONFIG
    assert "theta" in capsys.readouterr().err


def test_phi2_near_axis(capsys):
    # the default epsilon sequence used to start above 0.1 M sin^2(theta)
    assert main(["phi2", "--theta", "0.2", "--alpha", "0.75",
                 "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["phi2_limit"] == pytest.approx(payload["phi2_closed"],
                                                  rel=1e-8)


def test_phi2_tiny_alpha(capsys):
    # the epsilon sequence scales with alpha^2, so sinh(chi/alpha) in the
    # bracket stays in float range
    assert main(["phi2", "--theta", "1.5707963", "--alpha", "1.4e-45",
                 "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["phi2_limit"] == pytest.approx(payload["phi2_closed"],
                                                  rel=1e-8)


def test_phi2_string_factor(capsys):
    main(["phi2", "--theta", "1.5707963267948966", "--alpha", "0.5",
          "--format", "json"])
    v = json.loads(capsys.readouterr().out)["phi2_closed"]
    assert v == pytest.approx(4.0 / (192.0 * PI ** 2), rel=1e-12)


# ----------------------------------------------------------------------
# figure1
# ----------------------------------------------------------------------

def test_figure1_csv(tmp_path):
    out = tmp_path / "fig.csv"
    assert main(["figure1", "--points", "21", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "cos_theta,alpha,phi2_M2"
    assert len(lines) == 1 + 4 * 21   # default alpha set has 4 entries
    row0 = lines[1].split(",")
    assert float(row0[1]) == 1.0


def test_figure1_equator_row(tmp_path):
    out = tmp_path / "fig.csv"
    main(["figure1", "--points", "21", "--alphas", "1.0", "--out", str(out)])
    for line in out.read_text().splitlines()[1:]:
        ct, alpha, val = map(float, line.split(","))
        assert val == pytest.approx(1.0 / (192.0 * PI ** 2), rel=1e-12)


def test_figure1_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["figure1", "--out", str(a)])
    main(["figure1", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_figure1_bad_alphas():
    assert main(["figure1", "--alphas", "1.0,zebra"]) == EXIT_CONFIG


# ----------------------------------------------------------------------
# radial
# ----------------------------------------------------------------------

def test_radial_n0_analytic(tmp_path, capsys):
    out = tmp_path / "rad.csv"
    assert main(["radial", "--n", "0", "--l", "2", "--m", "0",
                 "--alpha", "1.0", "--out", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "analytic" in text
    lines = out.read_text().splitlines()
    assert lines[0] == "eta,p,q"
    eta, p, q = map(float, lines[-1].split(","))
    assert p == pytest.approx(0.5 * (3 * eta ** 2 - 1), rel=1e-10)


def test_radial_table_alone_on_stdout(capsys):
    # the diagnostics go to stderr when the table goes to stdout
    assert main(["radial", "--n", "0", "--l", "2", "--m", "0"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "eta,p,q"
    assert "# branch = analytic" in captured.err


@pytest.mark.parametrize("n,l,m,alpha", [(1, 0, 0, 1.0), (3, 2, 1, 0.5)])
def test_radial_exponent_diagnostics(n, l, m, alpha, capsys):
    assert main(["radial", "--n", str(n), "--l", str(l), "--m", str(m),
                 "--alpha", str(alpha), "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    d = payload["diagnostics"]
    assert d["exponent_fit_p"] == pytest.approx(n / 2.0, abs=1e-3)
    assert d["lambda"] == pytest.approx(l - abs(m) + abs(m) / alpha)
    assert d["wronskian_scale"] == pytest.approx(-2.0 * n, rel=1e-6)


@pytest.mark.parametrize("argv", [
    ["--n", "400", "--l", "1", "--m", "0"],
    ["--n", "2", "--l", "3000", "--m", "0"],
    ["--n", "2", "--l", "1", "--m", "0", "--eta-max", "1e6"],
    # the Frobenius start itself leaves float range
    ["--n", str(10 ** 40), "--l", "1", "--m", "0"],
    ["--n", str(10 ** 100), "--l", "1", "--m", "0"],
    ["--n", str(10 ** 150), "--l", "1", "--m", "0"],
])
def test_radial_overflow_is_one_line_stiffness_error(argv):
    # the radial solutions leave float range before the solve ends
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "stringhorizon.cli", "radial"] + argv,
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
        timeout=120)
    assert proc.returncode == EXIT_NUMERIC
    assert proc.stderr.startswith("StiffnessError: ")
    assert "overflowed" in proc.stderr
    assert proc.stderr.count("\n") == 1


def test_radial_degree_past_float_range_is_one_line_config_error():
    # n^2 = 1e310 has no float: a bad argument, not a numerical failure
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "stringhorizon.cli",
         "radial", "--n", str(10 ** 155), "--l", "1", "--m", "0"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
        timeout=120)
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith("config error: ")
    assert "n^2 leaves float range" in proc.stderr
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv,top", [
    (["--n", "2", "--l", "640", "--m", "0", "--eta-max", "1.6"], 2e284),
    (["--n", "85", "--l", "1", "--m", "0", "--eta-max", "3"], 1e30),
])
def test_radial_near_the_float_range_edge(argv, top):
    # solutions that come within a few decades of overflow still tabulate
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "stringhorizon.cli", "radial"] + argv,
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
        timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    rows = [list(map(float, line.split(","))) for line in proc.stdout.splitlines()[1:]]
    assert len(rows) > 1 and all(map(math.isfinite, sum(rows, [])))
    assert max(abs(r[1]) for r in rows) > top


def test_scipy_modules_load_on_use():
    # scipy.special and scipy.integrate load where they are first called:
    # neither the import nor phi2, figure1 and the radial pair (Taylor
    # steps) load either; norm_integral (Gauss rule, also at l = l' = 1000)
    # loads scipy.special for gammaln and still no QUADPACK; none of them
    # writes to stderr
    code = (
        "import sys, io, contextlib\n"
        "def loaded():\n"
        "    return [m in sys.modules for m in ('scipy.integrate', 'scipy.special')]\n"
        "import stringhorizon\n"
        "seen = [loaded()]\n"
        "from stringhorizon.cli import main\n"
        "from stringhorizon.identities import run_case\n"
        "from stringhorizon.blackhole import radial_solutions\n"
        "codes = []\n"
        "for argv in (['phi2', '--theta', '1.2', '--alpha', '0.75'],\n"
        "             ['figure1', '--points', '5'],\n"
        "             ['radial', '--n', '2', '--l', '1', '--m', '0',\n"
        "              '--format', 'json']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(main(argv))\n"
        "    seen.append(loaded())\n"
        "passed = [radial_solutions(1, 1.0).wronskian_spread < 1e-12]\n"
        "seen.append(loaded())\n"
        "passed += [run_case({'check': 'norm_integral', 'params': {'alpha': 0.75,\n"
        "                     'm': 2, 'l': l, 'l_p': l}})['passed'] for l in (3, 1000)]\n"
        "seen.append(loaded())\n"
        "print(codes, seen, passed)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC),
                          timeout=120)
    assert proc.stdout == ("[0, 0, 0] " + str([[False, False]] * 5 + [[False, True]])
                           + " [True, True, True]\n"), proc.stderr
    assert proc.stderr == ""


def test_verify_has_no_parallelism_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--parallelism", "2"])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --parallelism" in capsys.readouterr().err


# ----------------------------------------------------------------------
# fuzz
# ----------------------------------------------------------------------

_EDGES = [0.0, -1.0, 1e-300, -1e-300, math.inf, -math.inf, math.nan]


def _number(lo, hi):
    return st.one_of(st.sampled_from(_EDGES),
                     st.floats(lo, hi, allow_nan=False)).map(repr)


# values go in the --flag=value form, so that argparse reads "-1e-300" as a
# value and not as an option
_PHI2 = st.tuples(_number(0.0, 3.5), _number(0.0, 1.2), _number(0.0, 5.0)).map(
    lambda t: ["phi2", f"--theta={t[0]}", f"--alpha={t[1]}", f"--mass={t[2]}"])
_FIGURE1 = st.tuples(st.lists(_number(0.0, 1.2), min_size=1, max_size=3),
                     st.integers(-2, 30), _number(0.0, 1.2)).map(
    lambda t: ["figure1", f"--alphas={','.join(t[0])}",
               f"--points={t[1]}", f"--margin={t[2]}"])
# n = 0 is analytic and fast; n != 0 only with an eta-max that fails
# validation, so no ODE solve runs
_RADIAL0 = st.tuples(_number(0.0, 1.2), _number(0.0, 5.0), _number(0.5, 1e3),
                     st.integers(-2, 30)).map(
    lambda t: ["radial", "--n", "0", "--l", "1", "--m", "1", f"--alpha={t[0]}",
               f"--mass={t[1]}", f"--eta-max={t[2]}", f"--points={t[3]}"])
_RADIAL1 = st.tuples(_number(0.0, 1.2),
                     st.sampled_from(_EDGES + [1.2, 1.5]).map(repr)).map(
    lambda t: ["radial", "--n", "1", "--l", "1", "--m", "1",
               f"--alpha={t[0]}", f"--eta-max={t[1]}"])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argv=st.one_of(_PHI2, _FIGURE1, _RADIAL0, _RADIAL1))
def test_cli_fuzz_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_FAILURES, EXIT_CONFIG, EXIT_NUMERIC)
    if code == EXIT_OK:
        text = out.getvalue().lower()
        assert "inf" not in text and "nan" not in text, argv
    else:
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
