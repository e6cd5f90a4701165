"""Command-line surface: exit codes, output schemas, determinism."""

import json
import math

import pytest

from stringhorizon.cli import (EXIT_CONFIG, EXIT_FAILURES, EXIT_NUMERIC,
                               EXIT_OK, main)

PI = math.pi


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


def test_verify_parallel_matches_serial(tmp_path):
    man = write_manifest(tmp_path / "m.json", list(SMALL_CASES))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--manifest", man, "--out", str(a)]) == EXIT_OK
    assert main(["verify", "--manifest", man, "--out", str(b),
                 "--parallelism", "2"]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_verify_empty_manifest(tmp_path, capsys):
    man = write_manifest(tmp_path / "m.json", [])
    assert main(["verify", "--manifest", man]) == EXIT_OK
    assert "warning: empty manifest" in capsys.readouterr().out


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


def test_verify_missing_manifest(tmp_path):
    assert main(["verify", "--manifest", str(tmp_path / "nope.json")]) \
        == EXIT_CONFIG


@pytest.mark.parametrize("argv", [
    ["radial", "--n", "0", "--l", "1", "--m", "2"],
    ["figure1", "--points", "0"],
    ["figure1", "--alphas", "1.5"],
    ["figure1", "--margin", "1.0"],
    ["phi2", "--theta", "1.0", "--alpha", "1.0", "--mass", "-1"],
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


def test_phi2_human_output(capsys):
    assert main(["phi2", "--theta", "0.8", "--alpha", "0.75"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "closed route" in text and "route agreement" in text


def test_phi2_pole_is_numeric_error(capsys):
    assert main(["phi2", "--theta", "0.0", "--alpha", "0.9"]) == EXIT_NUMERIC
    assert "theta" in capsys.readouterr().err


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


@pytest.mark.parametrize("n,l,m,alpha", [(1, 0, 0, 1.0), (3, 2, 1, 0.5)])
def test_radial_exponent_diagnostics(n, l, m, alpha, capsys):
    assert main(["radial", "--n", str(n), "--l", str(l), "--m", str(m),
                 "--alpha", str(alpha), "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    d = payload["diagnostics"]
    assert d["exponent_fit_p"] == pytest.approx(n / 2.0, abs=1e-3)
    assert d["lambda"] == pytest.approx(l - abs(m) + abs(m) / alpha)
    assert d["wronskian_scale"] == pytest.approx(-2.0 * n, rel=1e-6)
