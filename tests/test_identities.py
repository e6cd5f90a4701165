"""Identity harness: residuals at the documented parameter points, limit
behavior, determinism, and the runner."""

import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stringhorizon import specfun
from stringhorizon.cli import _load_manifest
from stringhorizon.conespace import ConePoint, _toroidal_terms, g3_cylindrical_Qsum
from stringhorizon.errors import (ConvergenceError, DomainError,
                                  SlowConvergenceError)
from stringhorizon.identities import (CHECKS, _app5_rhs, _linet_lhs_offdiag,
                                      check_app5,
                                      check_heine_classic,
                                      check_heine_generalized,
                                      check_linet_sum, check_norm_integral,
                                      check_spheroidal_sum,
                                      check_toroidal_addition, run_case,
                                      run_cases, spheroidal_ratio_audit)
from stringhorizon.summation import sum_l, sum_m_bands

PI = math.pi


# ----------------------------------------------------------------------
# classic Heine
# ----------------------------------------------------------------------

def test_heine_classic_basic():
    c = check_heine_classic(2.0, 0.0, tol=1e-12)
    assert c.passed and c.residual < 1e-10
    assert c.rhs == pytest.approx(0.5)


def test_heine_classic_near_cut():
    c = check_heine_classic(1.05, 0.9)
    assert c.passed
    assert c.lmax > 60  # tail rule demands a larger truncation here


def test_heine_classic_parity_flip():
    a = check_heine_classic(2.0, 0.7)
    b = check_heine_classic(2.0, -0.7)
    assert b.rhs == pytest.approx(1.0 / (2.0 + 0.7), rel=1e-15)
    assert abs(a.residual - b.residual) < 1e-10


def test_heine_classic_legendre_P_near_the_ends(monkeypatch):
    # with Q_l = 1 the terms are (2l+1) P_l(psi); Bonnet's recurrence on
    # P_l - P_(l-1) keeps P_l to a few ulps as |psi| -> 1, where the
    # recurrence on P_l itself erred by up to 4.4e-13 at psi = 0.999999
    terms = []

    def first_400_terms(f, tol, rate):
        terms.append(f(400))
        return 0.0, 0.0, 0

    monkeypatch.setattr(specfun, "legendre_Q_sequence",
                        lambda lam0, zeta, count: np.ones(count))
    monkeypatch.setattr("stringhorizon.identities.sum_l", first_400_terms)
    ls = np.arange(400)
    with mpmath.workdps(30):
        for psi in (0.999999, -0.999999, 1.0 - 1e-12, -0.7, 0.0, 0.3):
            check_heine_classic(1.5, psi)
            ref = [float(mpmath.legendre(int(l), psi)) for l in ls]
            assert np.abs(terms.pop() / (2 * ls + 1) - ref).max() <= 4e-15


def test_heine_classic_domain():
    with pytest.raises(DomainError):
        check_heine_classic(1.0, 0.5)
    with pytest.raises(DomainError):
        check_heine_classic(0.9, 0.95)


@pytest.mark.parametrize("zeta, tol", [(1.0 + 1e-7, 1e-6), (1.0 + 4e-7, 1e-8)])
def test_heine_classic_just_above_one_is_refused_at_once(monkeypatch, zeta, tol):
    # rates acosh(zeta) of 4.5e-4 and 8.9e-4 lie below summation.MIN_RATE;
    # these passed on their tails alone, at residuals of 56 and 27 times
    # tol (the first at lmax 30,903 after about 2 s)
    def no_chain(*args):
        raise AssertionError("no Q chain may be built")
    monkeypatch.setattr(specfun, "legendre_Q_sequence", no_chain)
    rec = run_case({"check": "heine_classic",
                    "params": {"zeta": zeta, "psi": 0.3, "tol": tol}})
    assert rec["error"].startswith(
        "SlowConvergenceError: no geometric decay (rate=")


def _assert_deeper_and_closer(cases):
    # a smaller tol buys a longer l-sum and a smaller residual
    floor = 1e-12
    for a, b in zip(cases, cases[1:]):
        assert b.lmax > a.lmax
        assert b.residual_abs <= a.residual_abs + floor
    assert cases[-1].residual_abs < 1e-3 * cases[0].residual_abs


def test_heine_classic_residual_decreases_with_lmax():
    _assert_deeper_and_closer([check_heine_classic(1.2, 0.5, tol=tol)
                               for tol in (1e-3, 1e-5, 1e-7, 1e-9)])


def test_heine_generalized_residual_decreases_with_lmax():
    _assert_deeper_and_closer([
        check_heine_generalized(0.75, PI / 3, PI / 3, 1.0, 0.5, tol=tol)
        for tol in (1e-3, 1e-5, 1e-7, 1e-9)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("zeta", [1e200, 1e300, 1e307, 1.7e308])
def test_heine_classic_at_huge_zeta(zeta):
    # each backward ratio Q_l / Q_{l-1} of the chain is about 1/(2 zeta);
    # from about 3e306 the factor (2l + 1) zeta overflows and the ratio is
    # 0, while every Q_l with l >= 1 underflows anyway, so the sum is Q_0
    c = check_heine_classic(zeta, 0.3)
    assert c.passed and c.residual_rel < 1e-12


# ----------------------------------------------------------------------
# generalized Heine
# ----------------------------------------------------------------------

def test_heine_generalized_alpha1_reduces_to_classic():
    # the alpha = 1 double sum must reproduce 1/(zeta - cos gamma)
    th, chi, dphi = PI / 3, 0.8, 0.7
    c = check_heine_generalized(1.0, th, th, dphi, chi, tol=1e-9)
    cos_gamma = math.cos(th) ** 2 + math.sin(th) ** 2 * math.cos(dphi)
    zeta = math.cos(th) ** 2 + math.sin(th) ** 2 * math.cosh(chi)
    assert c.rhs == pytest.approx(1.0 / (zeta - cos_gamma), rel=1e-12)
    assert c.passed and c.residual < 1e-8


@pytest.mark.parametrize("alpha", [1.0, 0.75, 0.5])
@pytest.mark.parametrize("chi", [0.5, 1.0])
def test_heine_generalized_grid(alpha, chi):
    for th in (PI / 4, PI / 2, 2 * PI / 3):
        for dphi in (0.0, 1.0, PI):
            c = check_heine_generalized(alpha, th, th, dphi, chi)
            assert c.passed, (alpha, th, dphi, chi, c.residual)
            assert c.residual < 1e-6


def test_heine_generalized_image_oracle():
    # alpha = 1/2: the RHS equals the two-image sum of alpha = 1 kernels
    th, chi = PI / 2, 0.8
    c = check_heine_generalized(0.5, th, th, 0.0, chi, tol=1e-7)
    img = 0.5 * sum(1.0 / (math.sin(th) ** 2 * (math.cosh(chi) - math.cos(a)))
                    for a in (0.0, math.pi))
    assert c.rhs == pytest.approx(img, rel=1e-12)
    assert c.residual < 1e-6


def test_heine_generalized_horizon_limit_kernel():
    # chi from the horizon mapping cosh(chi) = 1 + eps/(M sin^2 th); the
    # bands reach mu of about 440, far past where P^{-mu} leaves float range
    from stringhorizon.specfun import arccosh1p
    th, eps = PI / 3, 1e-3
    chi = arccosh1p(eps / math.sin(th) ** 2)
    c = check_heine_generalized(0.75, th, th, 0.0, chi, tol=1e-7)
    assert c.passed
    assert abs(c.lhs - c.rhs) <= c.tol * max(1.0, abs(c.rhs))


def test_heine_generalized_small_chi_pass_is_true():
    # chi = 0.02 needs about 250 bands at alpha = 0.25, and about 400 and
    # 800 at alpha = 0.5 and 1: past the 400-band cap those raise, never
    # returning a wrong value
    c = check_heine_generalized(0.25, PI / 2, PI / 2, 0.3, 0.02)
    assert c.passed and abs(c.lhs - c.rhs) <= c.tol * max(1.0, abs(c.rhs))
    for alpha in (1.0, 0.5):
        with pytest.raises(SlowConvergenceError):
            check_heine_generalized(alpha, PI / 2, PI / 2, 0.3, 0.02)


def test_heine_generalized_invalid_regime():
    with pytest.raises(DomainError):
        check_heine_generalized(0.75, PI / 4, 2 * PI / 3, 0.0, 0.5)


# ----------------------------------------------------------------------
# appendix identities
# ----------------------------------------------------------------------

def test_app5_m0():
    c = check_app5(0.85, 0, 0.9, 1.7)
    assert c.passed and c.residual < 1e-7


def test_app5_classical_case():
    c = check_app5(1.0, 1, PI / 2 - 0.3, PI / 2 + 0.3)
    assert c.passed and c.residual < 1e-8


def test_app5_parity():
    a = check_app5(0.75, 1, 0.7, 1.2)
    b = check_app5(0.75, 1, PI - 0.7, PI - 1.2)
    assert a.lhs == pytest.approx(b.lhs, rel=1e-8)
    assert abs(a.residual - b.residual) < 1e-7


def test_app5_degenerate_angles_rejected():
    with pytest.raises(DomainError):
        check_app5(0.75, 1, 0.9, 0.9)


def test_linet_cases():
    c = check_linet_sum(0.75, PI / 3, 2 * PI / 3, 1.0)
    assert c.passed and c.residual < 1e-6
    c = check_linet_sum(0.75, PI / 2, PI / 2, 1.0)
    assert c.passed and c.residual < 1e-6
    assert "diagonal" in c.note


def test_linet_dphi_to_zero_finite():
    c = check_linet_sum(0.9, PI / 3, 2 * PI / 3, 1e-4)
    assert math.isfinite(c.rhs) and c.passed


def test_linet_alpha1_reduces_to_image_term():
    c = check_linet_sum(1.0, PI / 3, 2 * PI / 3, 1.0)
    cc = math.cos(PI / 3) * math.cos(2 * PI / 3)
    ss = math.sin(PI / 3) * math.sin(2 * PI / 3)
    cos_g = cc + ss * math.cos(1.0)
    assert c.rhs == pytest.approx(1.0 / math.sqrt(2.0 * (1.0 - cos_g)),
                                  rel=1e-13)
    assert c.passed


def test_linet_domain():
    with pytest.raises(DomainError):
        check_linet_sum(0.5, PI / 3, 2 * PI / 3, 1.0)
    with pytest.raises(DomainError):
        check_linet_sum(0.4, PI / 3, 2 * PI / 3, 1.0)


@pytest.mark.parametrize("alpha, theta, theta_p, dphi", [
    (0.55, PI / 2, PI / 2, 3.0), (0.6, 1.0, 2.0, 2.5), (0.75, 1.0, 2.0, 3.0),
    (0.9, 0.7, 1.1, 3.1), (0.55, 1.2, 1.5, -2.9), (0.6, PI / 2, PI / 2, 2.5)])
def test_linet_second_image_cases(alpha, theta, theta_p, dphi):
    # |dphi| > 2 pi - pi/alpha: the rhs takes the n = -1 image as well
    c = check_linet_sum(alpha, theta, theta_p, dphi, tol=1e-6)
    assert c.passed and c.residual < 1e-6
    if theta != theta_p:
        x = ConePoint("spherical", (1.0, theta, 0.0))
        xp = ConePoint("spherical", (1.0, theta_p, abs(dphi)))
        ref = 4.0 * PI * g3_cylindrical_Qsum(x, xp, alpha, tol=1e-13)
        assert c.rhs == pytest.approx(ref, rel=1e-12)


def _assert_sane_record(rec):
    assert "error" in rec or (math.isfinite(rec["lhs"])
                              and math.isfinite(rec["rhs"])), rec


def _linet_record(alpha, theta, theta_p, dphi):
    return run_case({"check": "linet", "params": {
        "alpha": alpha, "theta": theta, "theta_p": theta_p, "dphi": dphi}})


@settings(max_examples=40, deadline=None, derandomize=True)
@given(alpha=st.floats(0.5, 1.0, exclude_min=True),
       theta=st.floats(0.05, PI - 0.05), theta_p=st.floats(0.05, PI - 0.05),
       dphi=st.floats(-PI, PI, exclude_min=True))
def test_linet_any_input_is_a_record(alpha, theta, theta_p, dphi):
    # a refusal or a failed quadrature is an error record, never a traceback
    # and never a non-finite value
    _assert_sane_record(_linet_record(alpha, theta, theta_p, dphi))


def test_linet_past_the_band_cap_is_refused_at_once(monkeypatch):
    # theta and theta' 0.0147 apart: the closed bands (app5's rhs) need about
    # 700 m-bands, so the sum refuses before any Wynn band; it took 40 s to
    # a wrong FAIL, its bands read on their rise
    wynn_bands = []
    ferrers_band = specfun.ferrers_band

    def counted(*args):
        wynn_bands.append(args[0])
        return ferrers_band(*args)
    monkeypatch.setattr(specfun, "ferrers_band", counted)
    start = time.perf_counter()
    rec = _linet_record(0.8547274150120507, 0.9100934970669989,
                        0.9248082021804244, 1.5)
    assert time.perf_counter() - start < 5.0
    assert rec["error"] == ("SlowConvergenceError: m-band sum did not settle "
                            "within 400 bands (tol=1e-06)")
    assert wynn_bands == []


def test_linet_refusal_near_the_diagonal_reads_one_Q(monkeypatch):
    # theta and theta' 1.1e-3 apart: the last band, below which no band
    # falls, refuses the sum from one Q value, where a series per closed
    # band takes seconds
    q_calls = []
    legendre_Qhat_axis = specfun.legendre_Qhat_axis

    def counted(*args):
        q_calls.append(args)
        return legendre_Qhat_axis(*args)
    monkeypatch.setattr(specfun, "legendre_Qhat_axis", counted)
    rec = _linet_record(0.75, 1.0, 1.0011, 1.0)
    assert rec["error"] == ("SlowConvergenceError: m-band sum did not settle "
                            "within 400 bands (tol=1e-06)")
    assert len(q_calls) <= 1


def test_linet_sum_settling_near_the_cap_reaches_its_wynn_bands(monkeypatch):
    # the closed bands at theta' - theta = 0.02 settle at band 374 of 400, so
    # the pre-pass must let the sum through to its Wynn bands; their bound
    # e^{-mu xi} band 0 settles only at band 449, so no count from it serves
    class Reached(Exception):
        pass

    def first_wynn_band(*args):
        raise Reached
    closed = sum_m_bands(lambda m: (_app5_rhs(m / 0.6, 1.0, 1.02), 0.0), 1e-6, 1.0)
    assert 350 < closed[2] < 400
    monkeypatch.setattr(specfun, "ferrers_band", first_wynn_band)
    with pytest.raises(Reached):
        check_linet_sum(0.6, 1.0, 1.02, 1.0)


def _linet_per_band(alpha, theta, theta_p, dphi, tol):
    """The off-diagonal Linet sum band by band: `sum_m_bands` over the Wynn
    limit (`sum_l` without a rate) of each scalar band."""
    x1, x2 = math.cos(theta), math.cos(theta_p)
    value, tail, bands = sum_m_bands(
        lambda m: sum_l(lambda n: specfun.ferrers_band(m / alpha, x1, x2, n), tol)[:2],
        tol, dphi)
    return value / alpha, tail / alpha, bands


def test_linet_default_cases_equal_per_band_sums():
    # `mode_sum` counts the closed bands first, then builds every Wynn band
    # alone: the four off-diagonal default records, bit for bit
    cases = [c["params"] for c in _load_manifest(None) if c["check"] == "linet"
             and c["params"]["theta"] != c["params"]["theta_p"]]
    assert len(cases) == 4
    for p in cases:
        args = (p["alpha"], p["theta"], p["theta_p"], p["dphi"], p["tol"])
        assert _linet_lhs_offdiag(*args) == _linet_per_band(*args)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(alpha=st.floats(0.5, 1.0, exclude_min=True),
       theta=st.floats(0.2, PI - 0.2), gap=st.floats(0.3, 2.0),
       dphi=st.floats(-PI, PI), tol=st.sampled_from([1e-6, 1e-4]))
def test_linet_sum_equals_per_band_sum(alpha, theta, gap, dphi, tol):
    theta_p = theta + gap if theta + gap < PI - 0.2 else theta - gap
    assume(0.2 < theta_p)
    args = (alpha, theta, theta_p, dphi, tol)
    assert _linet_lhs_offdiag(*args) == _linet_per_band(*args)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mu=st.floats(0.0, 600.0), step=st.floats(0.0, 600.0),
       theta=st.floats(0.2, PI - 0.2), theta_p=st.floats(0.2, PI - 0.2))
def test_app5_band_falls_with_its_order(mu, step, theta, theta_p):
    # Q_{mu-1/2}(cosh xi) = 2^{-1/2} int_xi^oo e^{-mu t} (cosh t - cosh xi)^{-1/2} dt
    # (DLMF 14.12) falls with mu: the Linet pre-pass takes the last band as
    # a floor under every band; equal at step = 0, hence the rounding slack
    assume(abs(theta - theta_p) >= 1e-3)
    assert (_app5_rhs(mu + step, theta, theta_p)
            <= _app5_rhs(mu, theta, theta_p) * (1.0 + 1e-12))


@pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9])
@pytest.mark.parametrize("k", range(1, 10))
def test_linet_near_null_image_is_a_record(alpha, k):
    # 10^-k on either side of the null images at dphi = +-(2 pi - pi/alpha)
    edge = 2.0 * PI - PI / alpha
    for dphi in (edge - 10.0 ** -k, edge + 10.0 ** -k,
                 -edge - 10.0 ** -k, -edge + 10.0 ** -k):
        _assert_sane_record(_linet_record(alpha, 1.0, 2.0, dphi))


def test_toroidal_addition_classical():
    c = check_toroidal_addition(1.0, 0, 0.9, 1.4, 0.7, 0.0)
    assert c.passed and c.residual < 1e-7


def test_toroidal_addition_fractional():
    c = check_toroidal_addition(0.75, 1, 1.0, 1.6, 1.2, 0.0)
    assert c.passed and c.residual < 1e-6


def test_toroidal_addition_half_odd_order():
    # mu = |m|/alpha = 1.5: the ratio's gamma poles cancel against Qhat
    c = check_toroidal_addition(2.0 / 3.0, 1, 1.0, 1.5, 0.8, 0.2)
    assert c.passed


@pytest.mark.xfail(strict=True, reason=(
    "the pass rule is absolute for |rhs| <= 1: lhs and rhs of 1e-59 to 1e-9 "
    "pass with relative errors from 6e-2 to 2e31 until a residual scale "
    "that resolves them (ROADMAP item 1) replaces it"))
@pytest.mark.parametrize("alpha", [0.03, 0.05, 0.1, 0.2])
def test_toroidal_small_alpha_is_not_passed(alpha):
    c = check_toroidal_addition(alpha, 3, 0.5, 0.9, 1.0, 2.0)
    assert c.passed is False


def test_toroidal_equal_w_regulated():
    c = check_toroidal_addition(0.75, 1, 0.9, 0.9, 0.5, 1.9)
    assert c.passed and "Wynn" in c.note
    with pytest.raises(DomainError):
        check_toroidal_addition(0.75, 1, 0.9, 0.9, 0.5, 0.5)


def test_toroidal_folded_sum_is_real_sum():
    # the +-n fold equals the explicit complex sum; imaginary parts vanish
    alpha, m, w, wp, deta = 0.75, 1, 1.0, 1.6, 1.2
    count = 40
    c = _toroidal_terms(alpha, m, w, wp, 0.0, count)
    c[1:] /= 2.0
    ns = np.arange(count)
    explicit = complex(c[0]) + np.sum(
        c[1:] * (np.exp(1j * ns[1:] * deta) + np.exp(-1j * ns[1:] * deta)))
    folded = float(np.sum(_toroidal_terms(alpha, m, w, wp, deta, count)))
    assert abs(explicit.imag) < 1e-12 * abs(folded)
    assert explicit.real == pytest.approx(folded, rel=1e-13)


@pytest.mark.parametrize("check, params", [
    ("spheroidal_sum", {"alpha": 1.0, "theta": 0.7, "theta_p": 1.1,
                        "sigma_lt": 0.8, "sigma_gt": 1.5}),
    ("toroidal_addition", {"alpha": 0.75, "w": 0.5, "w_p": 0.9,
                           "eta": 1.0, "eta_p": 2.0}),
])
def test_negative_m_records_equal_positive_m(check, params):
    # both identities are even in m: each side of the sum takes |m|
    plus, minus = (run_case({"check": check, "params": dict(params, m=m)})
                   for m in (1, -1))
    assert "error" not in minus and plus["passed"]
    assert {**minus, "params": plus["params"]} == plus


def test_spheroidal_alpha1():
    c = check_spheroidal_sum(1.0, 0, 0.7, 1.1, 0.8, 1.5)
    assert c.passed and c.residual < 1e-7


@pytest.mark.filterwarnings("error")
def test_spheroidal_sum_raises_where_an_axis_chain_underflows():
    # P_lam^{-300}(cosh 0.8) at lam = 300 is about sinh(0.8)^300 / (2^300 300!)
    with pytest.raises(ConvergenceError):
        check_spheroidal_sum(0.01, 3, 0.7, 1.1, 0.8, 1.5)


@pytest.mark.parametrize("check, params, error", [
    # sigma> - sigma< = 5e-4 is below summation.MIN_RATE
    ("spheroidal_sum", {"alpha": 1.0, "m": 1, "theta": 0.7, "theta_p": 1.1,
                        "sigma_lt": 0.8, "sigma_gt": 0.8005},
     "SlowConvergenceError: no geometric decay (rate="),
    ("spheroidal_sum", {"alpha": 0.01, "m": 1, "theta": 0.7, "theta_p": 1.1,
                        "sigma_lt": 0.8, "sigma_gt": 1.5},
     "SlowConvergenceError: terms still grow at l = 30 (rate=0.7"),
    ("spheroidal_sum", {"alpha": 1.0, "m": 1, "theta": 0.7, "theta_p": 1.1,
                        "sigma_lt": 1.5, "sigma_gt": 0.8},
     "DomainError: need sigma< <= sigma>"),
    # w' - w = 5e-4 takes the Wynn limit, which eta - eta' = 5e-7 cannot feed
    ("toroidal_addition", {"alpha": 0.75, "m": 1, "w": 0.9, "w_p": 0.9005,
                           "eta": 1.0000005, "eta_p": 1.0},
     "SlowConvergenceError: toroidal n-sum has no decay and no oscillation"),
])
def test_sums_without_decay_are_error_records(check, params, error):
    rec = run_case({"check": check, "params": params})
    assert rec["error"].startswith(error), rec


def test_spheroidal_chi_exceeds_one(rng):
    from stringhorizon.identities import _spheroidal_chi
    for _ in range(100):
        th, thp = rng.uniform(0.1, PI - 0.1, 2)
        s1 = rng.uniform(0.2, 2.0)
        s2 = s1 + rng.uniform(0.05, 1.5)
        assert _spheroidal_chi(th, thp, s1, s2) > 1.0


def test_spheroidal_ratio_audit():
    a = spheroidal_ratio_audit(1.0)
    assert a.passed and "FLAGGED" not in a.note
    assert a.lhs == pytest.approx(1.0, abs=1e-8)
    a = spheroidal_ratio_audit(0.75)
    assert a.passed            # ratio constant across the points
    assert "FLAGGED" in a.note  # but differs from 1: printed constant is off
    assert a.lhs == pytest.approx(0.75, abs=1e-8)


def test_norm_integral_cases():
    c = check_norm_integral(1.0, 0, 2, 2)
    assert c.rhs == pytest.approx(0.4, rel=1e-14)
    assert c.passed
    c = check_norm_integral(0.5, 1, 1, 1)
    assert c.rhs == pytest.approx(1.0 / 60.0, rel=1e-14)
    assert c.passed
    c = check_norm_integral(0.75, 2, 3, 5)
    assert c.rhs == 0.0 and c.residual_abs < 1e-8


def test_norm_integral_matches_two_point_values_per_node():
    # reference: the same Gauss nodes and weights with two ferrers_P climbs
    # per node, on every norm_integral case of the default manifest
    from stringhorizon.identities import _gauss_gegenbauer
    from stringhorizon.specfun import ferrers_P
    cases = [c["params"] for c in _load_manifest(None)
             if c["check"] == "norm_integral"]
    assert len(cases) == 138
    for p in cases:
        mu = abs(p["m"]) / p["alpha"]
        lam, lam_p = (l - abs(p["m"]) + mu for l in (p["l"], p["l_p"]))
        x, w = _gauss_gegenbauer(mu, max(p["l"], p["l_p"]) - abs(p["m"]) + 1)
        ref = math.fsum(wj * ferrers_P(lam, mu, xj) * ferrers_P(lam_p, mu, xj)
                        / (1.0 - xj * xj) ** mu for xj, wj in zip(x, w))
        assert abs(check_norm_integral(**p).lhs - ref) <= 1e-16


@pytest.mark.parametrize("alpha,m,l,l_p", [
    (1.0, 0, 100, 100), (1.0, 0, 1000, 1000), (0.75, 2, 100, 100),
    (0.75, 2, 1000, 1000), (0.75, 2, 99, 101),
    # where the log-offset term of K dominates: n = 0 at mu = 8/3 and 40
    (0.75, 2, 2, 2), (0.1, 4, 4, 4)])
def test_norm_integral_within_its_rounding_bound_of_mpmath(alpha, m, l, l_p):
    # the rule is exact, so its tail bounds rounding only; the reference is
    # the closed form at 40 digits, not the record's gammaln rhs
    with mpmath.workdps(40):
        mu = mpmath.mpf(abs(m) / alpha)     # the float order the check uses
        lam = l - abs(m) + mu
        exact = (2 / (2 * lam + 1) * mpmath.gamma(lam - mu + 1)
                 / mpmath.gamma(lam + mu + 1)) if l == l_p else mpmath.mpf(0)
        c = check_norm_integral(alpha, m, l, l_p)
        err = float(abs(mpmath.mpf(c.lhs) - exact))
    assert c.passed
    assert err <= c.certified_tail * max(1.0, abs(c.rhs))


@pytest.mark.parametrize("params", [{"m": 0.5, "l": 2, "l_p": 2},
                                    {"m": 0, "l": 2.5, "l_p": 2}])
def test_norm_integral_non_integer_mode_is_a_domain_error(params):
    rec = run_case({"check": "norm_integral",
                    "params": {"alpha": 0.75, **params}})
    assert rec["error"].startswith("DomainError: l and m must be integers")


def test_norm_integral_degree_cap_is_a_domain_error():
    # the Gauss rule's dense Jacobi matrix grows as the square of the degree
    rec = run_case({"check": "norm_integral",
                    "params": {"alpha": 1.0, "m": 0, "l": 4096, "l_p": 2}})
    assert rec["error"] == ("DomainError: max(l, l') - |m| must be below 4096, "
                            "got 4096")


# ----------------------------------------------------------------------
# harness behavior
# ----------------------------------------------------------------------

def test_alpha_to_one_limits_match_classical():
    # generalized checks at alpha = 1 - 1e-9 reproduce the classical ones
    # within ten times the classical residual (plus certified tails)
    th, chi, dphi = PI / 3, 0.8, 0.7
    c1 = check_heine_generalized(1.0, th, th, dphi, chi)
    c2 = check_heine_generalized(1.0 - 1e-9, th, th, dphi, chi)
    assert abs(c2.lhs - c1.lhs) < 1e-7 * abs(c1.lhs)
    assert c2.residual < 10.0 * max(c1.residual, c1.certified_tail)


def test_checks_are_deterministic():
    a = check_heine_generalized(0.75, PI / 4, PI / 4, 1.0, 0.5)
    b = check_heine_generalized(0.75, PI / 4, PI / 4, 1.0, 0.5)
    assert a.to_record() == b.to_record()
    a = check_app5(0.75, 1, PI / 4, PI / 2)
    b = check_app5(0.75, 1, PI / 4, PI / 2)
    assert a.to_record() == b.to_record()


def test_run_case_records_errors():
    rec = run_case({"check": "linet",
                    "params": {"alpha": 0.4, "theta": 1.0, "theta_p": 2.0,
                               "dphi": 1.0}})
    assert not rec["passed"]
    assert rec["error"].startswith("DomainError")


def test_run_case_records_nan_parameters_as_domain_errors():
    # each float parameter of the first manifest case of every check, and
    # its tol, set to NaN: a DomainError record, never a traceback, a NaN
    # record or a run of the sum to its band cap
    firsts = {}
    for case in _load_manifest(None):
        firsts.setdefault(case["check"], case)
    assert set(firsts) == set(CHECKS)
    for name, case in firsts.items():
        floats = {k for k, v in case["params"].items() if isinstance(v, float)}
        floats.add("tol")
        for key in sorted(floats):
            rec = run_case({"check": name,
                            "params": dict(case["params"], **{key: math.nan})})
            assert rec.get("error", "").startswith("DomainError"), (name, key, rec)


@pytest.mark.parametrize("name,params", [
    ("linet", {"alpha": 0.75, "theta": 1.0, "theta_p": 2.0, "dphi": math.inf}),
    ("linet", {"alpha": 0.75, "theta": 1.0, "theta_p": 2.0, "dphi": -math.inf}),
    ("toroidal_addition", {"alpha": 0.75, "m": 1, "w": 0.5, "w_p": 0.9,
                           "eta": math.inf, "eta_p": 2.0}),
    ("toroidal_addition", {"alpha": 0.75, "m": 1, "w": 0.5, "w_p": 0.9,
                           "eta": 1.0, "eta_p": -math.inf}),
    ("toroidal_addition", {"alpha": 0.75, "m": 1, "w": 0.5, "w_p": 0.9,
                           "eta": math.inf, "eta_p": math.inf}),
])
def test_run_case_records_infinite_angles_as_domain_errors(name, params):
    # math.remainder rejects an infinite angle with a bare ValueError; the
    # checks refuse it first, with one line
    rec = run_case({"check": name, "params": params})
    assert not rec["passed"]
    assert rec["error"].startswith("DomainError: "), rec
    assert "finite" in rec["error"] and "\n" not in rec["error"]


def test_run_case_records_overflow():
    # sinh(chi/alpha) of the closed kernel leaves float range at alpha = 1e-3
    rec = run_case({"check": "heine_generalized",
                    "params": {"alpha": 1e-3, "theta": 1.0, "theta_p": 1.2,
                               "dphi": 0.3, "chi": 1.0}})
    assert not rec["passed"]
    assert rec["error"].startswith("OverflowError")


def test_tolerance_override():
    cases = [{"check": "heine_classic", "params": {"zeta": 2.0, "psi": 0.3}}]
    rec = run_cases(cases, tol_override=1e-4)[0]
    assert rec["tol"] == 1e-4
