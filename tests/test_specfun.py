"""Special-function core: values against independent oracles, invariants,
and domain guards."""

import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln, gammasgn, lpmv

from stringhorizon import specfun
from stringhorizon.blackhole import lambda_of
from stringhorizon.errors import ConvergenceError, DomainError, PoleError
from stringhorizon.specfun import (arccosh1p, axis_band, bessel_IK,
                                   ferrers_band, ferrers_P,
                                   ferrers_P_sequence, gamma_ratio_signed,
                                   legendre_P_axis, legendre_P_axis_sequence,
                                   legendre_Q, legendre_Q_sequence,
                                   legendre_Qbar_axis_sequence,
                                   legendre_Qhat_axis)


# ----------------------------------------------------------------------
# gamma ratios
# ----------------------------------------------------------------------

def test_log_gamma_ratio_integer_cases():
    assert gamma_ratio_signed(2.0, 1.0) == (pytest.approx(0.0, abs=1e-15), 1.0)
    assert gamma_ratio_signed(5.0, 3.0) == (
        pytest.approx(math.log(12.0), rel=1e-14), 1.0)
    # Gamma(-0.5) < 0 < Gamma(0.5): |ratio| = 2, sign -1
    assert gamma_ratio_signed(-0.5, 0.5) == (
        pytest.approx(math.log(2.0), rel=1e-14), -1.0)


def test_log_gamma_ratio_oracle():
    # frozen from the arbitrary-precision gamma oracle (mpmath, 30 digits)
    assert gamma_ratio_signed(3.7, 1.2)[0] == pytest.approx(
        1.5134464166687037716, rel=1e-12)


def test_log_gamma_ratio_large_arguments_no_overflow():
    v, _ = gamma_ratio_signed(1.0e4, 9.9e3)
    assert math.isfinite(v)


@pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, -2.0), (-3.0 + 1e-13, 1.0)])
def test_log_gamma_ratio_pole(a, b):
    with pytest.raises(PoleError):
        gamma_ratio_signed(a, b)


def test_gamma_ratio_closed_form_sign_is_scipys():
    # sign Gamma(x) = (-1)^ceil(-x) below zero, against scipy's gammasgn; the
    # value against mpmath within rounding of the math.lgamma pair
    xs = [-k - f for k in range(25) for f in (1e-6, 0.03, 0.5, 0.97)] + [0.3, 7.5]
    with mpmath.workdps(30):
        mp_lg = {x: mpmath.log(abs(mpmath.gamma(x))) for x in xs}
        for a in xs:
            for b in xs:
                lg, sign = gamma_ratio_signed(a, b)
                assert sign == gammasgn(a) * gammasgn(b)
                ref = float(mp_lg[a] - mp_lg[b])
                assert abs(lg - ref) <= 1e-13 * max(1.0, abs(ref))


def test_gammaln_is_named_nowhere():
    # ln Gamma is math.lgamma and its recurrence, and its sign a closed form
    texts = [p.read_text() for p in Path(specfun.__file__).parent.glob("*.py")]
    assert not any(name in t for t in texts for name in
                   ("gammaln", "gammasgn", "_near_nonpositive_integer"))


def mp_log_gamma_ratios(a, b, count):
    """[ln Gamma(a+k)/Gamma(b+k), k < count] at 40 digits: mpmath's pair at
    k = 0, then its exact steps ln((a+k)/(b+k))."""
    with mpmath.workdps(40):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        out = [mpmath.loggamma(a) - mpmath.loggamma(b)]
        for k in range(count - 1):
            out.append(out[-1] + mpmath.log((a + k) / (b + k)))
        return np.array([float(v) for v in out])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mu=st.floats(0.0, 1000.0), count=st.integers(1, 2000),
       pair=st.sampled_from(["ferrers", "heine"]))
def test_log_gamma_ratios_against_mpmath(mu, count, pair):
    # the chains' two ratios, G(2mu+1+k)/G(1+k) and G(mu+1+k)/G(mu+3/2+k):
    # no worse than the difference of two gammaln values, plus a few ulps
    a, b = (2.0 * mu + 1.0, 1.0) if pair == "ferrers" else (mu + 1.0, mu + 1.5)
    ref = mp_log_gamma_ratios(a, b, count)
    k = np.arange(count)
    err = np.abs(specfun.log_gamma_ratios(a, b, count) - ref)
    err_gammaln = np.abs(gammaln(a + k) - gammaln(b + k) - ref)
    assert err.max() <= err_gammaln.max() + 4.0 * np.spacing(np.abs(ref).max())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=st.floats(10.0, 1e8), db=st.floats(-20.0, 20.0))
@example(a=1e5, db=0.5)
@example(a=1e5 + 0.5, db=-0.5)
@example(a=65539.3, db=0.5)
@example(a=10.0, db=1e5 - 10.0)
@example(a=1e5, db=10.0 - 1e5)
def test_gamma_ratio_stirling_path_against_mpmath(a, db):
    # at min(a, b) >= 10 the ratio is Stirling's series of the difference: a
    # few ulps of the ratio itself, where a difference of two ln Gamma values
    # cancels about eps ln Gamma (1.0e-11 at (1e5, 1e5 + 1/2))
    b = a + db
    if b < 10.0:
        b = a - db
    lg, sign = gamma_ratio_signed(a, b)
    with mpmath.workdps(40):
        ref = float(mpmath.loggamma(a) - mpmath.loggamma(b))
    assert sign == 1.0
    assert abs(lg - ref) <= 4.0 * np.spacing(max(1.0, abs(ref)))


@pytest.mark.parametrize("fn, args", [
    (legendre_Q, (math.nan, 2.0)),
    (legendre_Q, (math.inf, 2.0)),
    (legendre_P_axis, (math.nan, 2.0)),
    (legendre_P_axis, (math.inf, 2.0)),
    (legendre_Qhat_axis, (1.0, math.inf, 2.0)),
    (gamma_ratio_signed, (math.nan, 1.0)),
    (legendre_Q_sequence, (-1.2, 2.0, 3)),
    (ferrers_band, (-0.5, 0.3, 0.4, 3)),
    (ferrers_band, ([-0.5, 1.0], 0.3, 0.4, 3)),
    (ferrers_P_sequence, (0.0, -1.0, 0.5, 3)),
    (ferrers_P_sequence, (0.5, -0.3, 0.5, 3)),
    (legendre_P_axis_sequence, (0.0, -0.5, 2.0, 3)),
    (legendre_Qbar_axis_sequence, (0.0, -0.5, 2.0, 3)),
    (axis_band, (-0.5, math.nan, 0.5, 0.9, 3)),
    (axis_band, (-1.2, 0.1, 0.5, 0.9, 3)),
    (arccosh1p, (math.nan,)),
    (bessel_IK, (math.nan, 1.0)),
    (bessel_IK, (1.0, math.nan)),
], ids=lambda v: getattr(v, "__name__", None))
def test_bad_degree_order_or_argument_is_a_domain_error(fn, args):
    # a NaN or infinite degree, a negative, NaN or infinite order, a degree
    # below a Q chain's -1 or a NaN argument: a DomainError, not a value, an
    # inf or a ValueError, ConvergenceError, OverflowError or ZeroDivisionError
    with pytest.raises(DomainError):
        fn(*args)


def test_integer_degrees_and_orders_equal_float_ones():
    assert ferrers_P(2, 1, 0.5) == ferrers_P(2.0, 1.0, 0.5)
    assert legendre_Q(2, 3) == legendre_Q(2.0, 3.0)
    assert legendre_P_axis(2, 3) == legendre_P_axis(2.0, 3.0)
    assert legendre_Qhat_axis(2, 1, 3) == legendre_Qhat_axis(2.0, 1.0, 3.0)
    for fn, ints, floats in [
            (ferrers_P_sequence, (1, 1, 0.5, 4), (1.0, 1.0, 0.5, 4)),
            (ferrers_band, ([1, 2], 0.3, 0.4, 4), ([1.0, 2.0], 0.3, 0.4, 4)),
            (legendre_Q_sequence, (0, 3, 4), (0.0, 3.0, 4)),
            (legendre_P_axis_sequence, (0, 1, 3, 4), (0.0, 1.0, 3.0, 4)),
            (legendre_Qbar_axis_sequence, (0, 1, 3, 4), (0.0, 1.0, 3.0, 4)),
            (axis_band, (0, 1, 0.5, 0.9, 4), (0.0, 1.0, 0.5, 0.9, 4))]:
        assert np.array_equal(fn(*ints), fn(*floats))


# ----------------------------------------------------------------------
# Ferrers functions on the cut
# ----------------------------------------------------------------------

def test_ferrers_trivial_degrees():
    assert ferrers_P(0.0, 0.0, 0.3) == pytest.approx(1.0, abs=1e-15)
    assert ferrers_P(1.0, 0.0, 0.3) == pytest.approx(0.3, rel=1e-14)


def mehler_dirichlet(nu, mu, x):
    """Quadrature oracle: P_nu^{-mu}(cos th) =
    sqrt(2/pi) (sin th)^{-mu} / Gamma(mu+1/2)
        * int_0^th cos((nu+1/2) t) (cos t - cos th)^{mu-1/2} dt."""
    th = math.acos(x)

    def f(v):
        # t = th - v^2 removes the (cos t - cos th)^{mu-1/2} endpoint issue
        t = th - v * v
        return (math.cos((nu + 0.5) * t)
                * (math.cos(t) - math.cos(th)) ** (mu - 0.5) * 2.0 * v)

    val, err = quad(f, 0.0, math.sqrt(th), epsabs=1e-13, epsrel=1e-12,
                    limit=300)
    assert err < 1e-11
    return (math.sqrt(2.0 / math.pi) * math.sin(th) ** (-mu)
            / math.exp(gammaln(mu + 0.5)) * val)


def test_ferrers_quadrature_oracle():
    # value frozen from the oracle itself: 0.11815030154461420355
    assert mehler_dirichlet(2.5, 1.25, 0.5) == pytest.approx(
        0.11815030154461420355, rel=1e-10)
    assert ferrers_P(2.5, 1.25, 0.5) == pytest.approx(
        0.11815030154461420355, rel=1e-10)


@pytest.mark.parametrize("nu,mu,x", [
    (0.5, 0.8, -0.7), (4.7, 3.2, 0.9), (10.2, 3.2, 0.001), (6.0, 5.5, -0.3),
])
def test_ferrers_against_quadrature_oracle(nu, mu, x):
    assert ferrers_P(nu, mu, x) == pytest.approx(
        mehler_dirichlet(nu, mu, x), rel=1e-10)


@pytest.mark.parametrize("x", [-0.9, -0.5, 0.0, 0.5, 0.9])
@pytest.mark.parametrize("l", [0, 1, 2, 5, 12, 20])
def test_ferrers_integer_orders_match_classical_recurrence(l, x):
    # scipy.special.lpmv implements the classical Ferrers recurrence
    for m in range(0, l + 1):
        mine = ferrers_P(float(l), float(m), x)
        ref = float(lpmv(-m, l, x))
        assert mine == pytest.approx(ref, rel=1e-12, abs=1e-280)


def test_ferrers_finite_limit_toward_cut_edge():
    # P_nu^{-mu} -> 0 as x -> 1- for mu > 0
    vals = [ferrers_P(2.5, 1.25, x) for x in (0.9, 0.99, 0.999999)]
    assert vals[0] > vals[1] > vals[2] > 0.0


def test_ferrers_domain_rejection():
    with pytest.raises(DomainError):
        ferrers_P(1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        ferrers_P(1.0, 0.0, 1.0 - 1e-13)
    with pytest.raises(DomainError):
        ferrers_P(1.0, 0.0, -1.0 + 1e-13)
    with pytest.raises(DomainError):
        ferrers_P(1.0, -0.5, 0.3)


@pytest.mark.parametrize("mu", [-0.1, math.nan])
def test_negative_or_nan_order_rejected(mu):
    with pytest.raises(DomainError):
        ferrers_P(1.0, mu, 0.3)
    with pytest.raises(DomainError):
        legendre_Qhat_axis(1.0, mu, 2.0)


@pytest.mark.parametrize("nu,mu", [(math.nan, 1.0), (math.inf, 1.0),
                                   (-math.inf, 1.0), (2.0, math.inf)])
def test_ferrers_non_finite_degree_or_order_rejected(nu, mu):
    with pytest.raises(DomainError):
        ferrers_P(nu, mu, 0.3)


@pytest.mark.parametrize("nu0,mu", [(math.nan, 1.0), (math.inf, 1.0),
                                    (-math.inf, 1.0), (1.0, math.nan),
                                    (1.0, math.inf)])
def test_ferrers_sequence_non_finite_degree_or_order_rejected(nu0, mu):
    with pytest.raises(DomainError):
        ferrers_P_sequence(nu0, mu, 0.3, 3)


def test_ferrers_sequence_rejects_a_start_below_minus_half():
    # the seed series F(51, -48; 2; 0.35) cancels: the chain returned
    # -12705.25 where P_{-50}^{-1}(0.3) = P_{49}^{-1}(0.3) = -0.0018983
    with pytest.raises(DomainError, match="P_nu = P_"):
        ferrers_P_sequence(-50.0, 1.0, 0.3, 1)
    with pytest.raises(DomainError):
        ferrers_P_sequence(-0.5 - 1e-9, 0.0, 0.3, 1)
    assert ferrers_P(-50.0, 1.0, 0.3) == pytest.approx(
        float(mpmath.legenp(-50, -1, 0.3, type=2)), rel=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mu=st.floats(0.0, 20.0), t=st.floats(0.0, 0.999),
       x=st.integers(-9900, 9900).filter(bool).map(lambda i: i / 1e4))
def test_ferrers_sequence_starts_from_minus_half_match_mpmath(mu, t, x):
    # nu0 anywhere in [-1/2, mu + 2): both seeds and two recurrence steps
    # within 1e-12 of the largest |P| among the four degrees
    nu0 = -0.5 + t * (mu + 2.5)
    m, L = ferrers_P_sequence(nu0, mu, x, 4)
    with mpmath.workdps(30):
        ref = [mpmath.legenp(nu0 + k, -mu, mpmath.mpf(x), type=2)
               for k in range(4)]
        scale = max(abs(r) for r in ref)
        for k in range(4):
            got = mpmath.mpf(float(m[k])) * mpmath.exp(float(L[k]))
            assert abs(got - ref[k]) <= 1e-12 * scale


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mu=st.one_of(st.integers(0, 500).map(float), st.floats(0.0, 500.0)),
       x=st.floats(-0.99, 0.99, exclude_min=True, exclude_max=True))
def test_ferrers_closed_form_seeds_are_the_series_bit_for_bit(mu, x):
    # at a = mu - nu = 0 and -1 the seed series ends after one or two terms
    w = 0.5 * (1.0 - x)
    expected = [specfun._hyp_series(0.0, mu + mu + 1.0, 1.0 + mu, w)[0],
                specfun._hyp_series(-1.0, mu + (mu + 1.0) + 1.0, 1.0 + mu, w)[0]]
    assert specfun._ferrers_chain(mu, mu, x, 2)[0] == expected
    assert specfun._ferrers_chain(mu + 1.0, mu, x, 1)[0] == expected[1:]


@pytest.mark.parametrize("mu,n,depth", [(0.5, 40, 0), (150.0, 1100, 1),
                                        (400.0, 1400, 2)])
@pytest.mark.parametrize("frac", [0.0, 0.37])
def test_ferrers_point_value_is_the_sequence_end(mu, n, depth, frac):
    # ferrers_P reads the last mantissa and offset of the same chain, after
    # 0, 1 and 2 rescalings of the mantissas
    x, nu = 0.3, mu + n + frac
    m, L = ferrers_P_sequence(nu - n, mu, x, n + 1)
    assert len(set(L.tolist())) - 1 == depth
    assert ferrers_P(nu, mu, x) == m[-1] * math.exp(L[-1])


def test_ferrers_sequence_matches_single_evaluations():
    mu = 1.6
    m, L = ferrers_P_sequence(mu, mu, 0.4, 12)
    assert m.shape == L.shape == (12,)
    for k in (0, 3, 11):
        assert m[k] * math.exp(L[k]) == pytest.approx(
            ferrers_P(mu + k, mu, 0.4), rel=1e-11)


def mp_ferrers(nu, mu, x):
    # P_nu^{-mu}(x) for nu - mu a non-negative integer k, by the parity
    # P(-x) = (-1)^k P(x) at x <= 0, where mpmath's series cancels badly
    k = round(nu - mu)
    if x == 0.0 and k % 2:
        return mpmath.mpf(0)
    # an mpf argument carries mpmath through the cancellation near x = 0
    p = mpmath.legenp(nu, -mu, mpmath.mpf(abs(x)), type=2)
    return (-1) ** k * p if x < 0 else p


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mu=st.one_of(st.integers(0, 500).map(float), st.floats(0.0, 500.0)),
       x=st.integers(-9900, 9900).map(lambda i: i / 1e4),
       count=st.integers(1, 1200),
       frac=st.floats(0.0, 1.0))
def test_ferrers_chain_matches_mpmath(mu, x, count, frac):
    # m e^L over values far below float range: |error| <= 1e-9 of the
    # largest |P| among the degree and its two neighbours, which is relative
    # away from the zeros of P and local near one
    m, L = ferrers_P_sequence(mu, mu, x, count)
    with mpmath.workdps(30):
        for k in sorted({0, int(frac * (count - 1)), count - 1}):
            ref = [mp_ferrers(mu + j, mu, x) for j in (k - 1, k, k + 1)
                   if j >= 0]
            got = mpmath.mpf(float(m[k])) * mpmath.exp(float(L[k]))
            assert abs(got - mp_ferrers(mu + k, mu, x)) <= 1e-9 * max(
                abs(r) for r in ref)


def test_ferrers_chain_below_float_range():
    # P_mu^{-mu}(0) = 2^-mu / Gamma(1 + mu) is 1.2e-308 at mu = 150 and
    # e^-2958 at mu = 500; a chain carries it in its offset
    m, L = ferrers_P_sequence(500.0, 500.0, 0.0, 3)
    assert m[0] == 1.0 and m[1] == 0.0
    assert L[0] == pytest.approx(-500.0 * math.log(2.0) - gammaln(501.0),
                                 rel=1e-15)


@pytest.mark.parametrize("x", [1.0, -1.0, 1.0 - 1e-13, math.nan])
def test_ferrers_chain_rejects_the_poles(x):
    with pytest.raises(DomainError):
        ferrers_P_sequence(0.0, 0.0, x, 3)
    with pytest.raises(DomainError):
        ferrers_band(1.0, 0.3, x, 3)


def test_ferrers_band_builds_one_chain_at_equal_angles(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return ferrers_P_sequence(*args)
    monkeypatch.setattr(specfun, "ferrers_P_sequence", counted)
    same = ferrers_band(2.5, 0.4, 0.4, 10)
    assert len(calls) == 1
    ferrers_band(2.5, 0.4, -0.7, 10)
    assert len(calls) == 3
    lg, _ = gamma_ratio_signed(2.5 + 9 + 2.5 + 1.0, 9 + 1.0)
    assert same[9] == pytest.approx(
        math.exp(lg) * ferrers_P(11.5, 2.5, 0.4) ** 2, rel=1e-11)


@pytest.mark.parametrize("mu", [0.0, 1.6, 40.0])
def test_ferrers_band_matches_term_by_term_product(mu):
    # reference: each term as gamma ratio x P x P x e^{log_factor}, one by one
    x1, x2, count = 0.4, -0.7, 15
    log_factor = -0.3 * np.arange(count)
    band = ferrers_band(mu, x1, x2, count, log_factor)
    for k in range(count):
        lam = mu + k
        lg, sg = gamma_ratio_signed(lam + mu + 1.0, lam - mu + 1.0)
        ref = (sg * math.exp(lg + log_factor[k])
               * ferrers_P(lam, mu, x1) * ferrers_P(lam, mu, x2))
        assert band[k] == pytest.approx(ref, rel=1e-11, abs=1e-300)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(alpha=st.sampled_from([1.0, 0.75, 0.5, 0.25, 1.0 / math.sqrt(2.0)]),
       first=st.integers(0, 399), bands=st.integers(1, 400),
       x1=st.floats(-0.99, 0.99), x2=st.one_of(st.none(), st.floats(-0.99, 0.99)),
       count=st.integers(1, 800), log_factor=st.booleans())
def test_ferrers_band_rows_equal_scalar_bands(alpha, first, bands, x1, x2,
                                              count, log_factor):
    # an array of orders runs one vectorized chain; each row must be the
    # scalar chain's band bit for bit, with mu up to 1600 so that mantissas
    # cross 2^+-500, and at one mu where mu + 1 rounds (the second seed's
    # a = mu - nu is exactly -1 on both paths)
    mu = np.append(np.arange(first, min(first + bands, 400)) / alpha,
                   16383.749999999998)
    x2 = x1 if x2 is None else x2
    extra = -0.01 * np.arange(count) if log_factor else 0.0
    rows = ferrers_band(mu, x1, x2, count, extra)
    ref = np.array([ferrers_band(v, x1, x2, count, extra) for v in mu.tolist()])
    assert rows.shape == (mu.size, count)
    assert np.array_equal(rows, ref)


# ----------------------------------------------------------------------
# Legendre functions on the axis
# ----------------------------------------------------------------------

def test_legendre_Q_closed_forms():
    assert legendre_Q(0.0, 2.0) == pytest.approx(0.5 * math.log(3.0), rel=1e-13)
    assert legendre_Q(1.0, 2.0) == pytest.approx(
        math.log(3.0) - 1.0, rel=1e-12)


def bessel_integral_oracle(lam, zeta):
    """Q_lam(zeta) from the omega-integral of modified-Bessel products,
    via 2 sqrt(r r') * int cos(w dtau) I K dw at r = r' = 1."""
    from scipy.special import ive, kve
    dtau = math.sqrt(2.0 * zeta - 2.0)

    def f(w):
        if w <= 0.0:
            return 0.0
        return float(ive(lam + 0.5, w) * kve(lam + 0.5, w))

    val, err = quad(f, 0.0, np.inf, weight="cos", wvar=dtau, limit=400,
                    limlst=200, epsabs=1e-13)
    assert err < 1e-10
    return 2.0 * val


def test_legendre_Q_bessel_integral_oracle():
    assert legendre_Q(0.75, 1.5) == pytest.approx(
        bessel_integral_oracle(0.75, 1.5), rel=1e-10)
    # frozen reference: 0.28353969267169298742
    assert legendre_Q(0.75, 1.5) == pytest.approx(0.28353969267169298742,
                                                  rel=1e-12)


def test_legendre_Q_domain():
    with pytest.raises(DomainError):
        legendre_Q(0.5, 1.0)
    with pytest.raises(DomainError):
        legendre_Q(0.5, 1.0 + 1e-13)
    with pytest.raises(DomainError):
        legendre_Q(-1.0, 2.0)


@pytest.mark.parametrize("nu,mu", [(-1.5, 0.5), (-1.5, 0.0), (-1.0, 0.5),
                                   (-2.5, 1.0)])
def test_Qhat_degree_at_or_below_minus_one_rejected(nu, mu):
    # degree > -1 at every order; no half-integer fold Q_{-nu-1} = Q_nu
    with pytest.raises(DomainError):
        legendre_Qhat_axis(nu, mu, 2.0)


def test_legendre_Q_unreachable_tolerance_errors_loudly():
    with pytest.raises(ConvergenceError):
        legendre_Q(0.0, 1.0 + 2e-12)


def chain_log(chain):
    """log|value| of each degree of an (m, L) chain."""
    m, L = chain
    return np.log(np.abs(m)) + L


def test_legendre_PQ_axis_trivial():
    log_p = chain_log(legendre_P_axis_sequence(0.0, 0.0, 2.0, 1))[0]
    q = legendre_Qhat_axis(0.0, 0.0, 2.0)
    assert log_p == pytest.approx(0.0, abs=1e-15)
    assert q == pytest.approx(0.5 * math.log(3.0), rel=1e-13)


def heine_integral_oracle(zeta):
    """Q_{-1/2}(zeta) = int_xi^oo dt / sqrt(2 cosh t - 2 cosh xi)."""
    xi = math.acosh(zeta)

    def f(v):
        t = xi + v * v
        return 2.0 * v / math.sqrt(2.0 * math.cosh(t) - 2.0 * zeta)

    val, err = quad(f, 0.0, 8.0, epsabs=1e-13, epsrel=1e-12)
    assert err < 1e-11
    return val


def test_legendre_Q_minus_half_integral_oracle():
    log_p = chain_log(legendre_P_axis_sequence(-0.5, 0.0, 1.2, 1))[0]
    q = legendre_Qhat_axis(-0.5, 0.0, 1.2)
    assert q > 0.0
    assert q == pytest.approx(heine_integral_oracle(1.2), rel=1e-10)
    assert log_p == pytest.approx(math.log(legendre_P_axis(-0.5, 1.2)), abs=1e-14)


def test_legendre_PQ_axis_fractional_order_frozen_oracle():
    # frozen from the arbitrary-precision oracle (mpmath legenp/legenq type 3,
    # with the e^{mu pi i} phase absorbed into Qhat)
    log_p = chain_log(legendre_P_axis_sequence(0.5, 0.8, 1.5, 1))[0]
    q = legendre_Qhat_axis(0.5, 0.8, 1.5)
    assert log_p == pytest.approx(math.log(0.61980752818223876838), abs=1e-12)
    assert q == pytest.approx(0.60643677741722520573, rel=1e-12)


def test_wronskian_on_axis_finite_differences():
    h = 1e-5
    for lam in (0.0, 0.5, 1.3, 4.8):
        for x in (1.1, 2.0, 10.0):
            dp = (legendre_P_axis(lam, x + h) - legendre_P_axis(lam, x - h)) / (2 * h)
            dq = (legendre_Q(lam, x + h) - legendre_Q(lam, x - h)) / (2 * h)
            w = legendre_P_axis(lam, x) * dq - dp * legendre_Q(lam, x)
            assert w == pytest.approx(-1.0 / (x * x - 1.0), rel=1e-8)


def test_Q_monotonicity():
    for zeta in (1.1, 1.5, 3.0):
        vals = [legendre_Q(lam, zeta) for lam in (0.0, 1.0, 2.5, 4.0, 7.5)]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))
    for lam in (0.0, 2.5):
        vals = [legendre_Q(lam, z) for z in (1.2, 1.5, 2.0, 4.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_Q_sequence_matches_single(rng):
    seq = legendre_Q_sequence(0.7, 1.4, 30)
    for k in (0, 7, 29):
        assert seq[k] == pytest.approx(legendre_Q(0.7 + k, 1.4), rel=1e-11)


# ----------------------------------------------------------------------
# differential tests of the Q chains against mpmath, in log form
# ----------------------------------------------------------------------

MILLER_DEGREE = 250.0   # splits the order-0 inputs below into short and long chains
LOG_NORMAL_MIN = -700.0    # below this a double is subnormal or zero


def mp_log_Qhat(nu, mu, x):
    """ln|Qhat_nu^{-mu}(x)| from mpmath.legenq (type 3) at 30 digits."""
    with mpmath.workdps(30):
        q = mpmath.legenq(nu, -mu, mpmath.mpf(x), type=3,
                          maxprec=4000, maxterms=10**6)
        return float(mpmath.log(abs(q)))


def mp_log_Qbar(nu, mu, x):
    """ln|Qbar_nu^{-mu}(x)| = ln|Qhat| + ln Gamma(nu+3/2) - ln|Gamma(nu-mu+1)|."""
    with mpmath.workdps(30):
        return float(mp_log_Qhat(nu, mu, x) + mpmath.loggamma(nu + 1.5)
                     - mpmath.log(abs(mpmath.gamma(nu - mu + 1))))


def assert_log_close(value, ref_log):
    """value matches e^{ref_log} to 1e-12 relative (plus the spacing of
    the logs themselves), or underflows where e^{ref_log} does."""
    if ref_log < LOG_NORMAL_MIN:
        assert abs(value) < 1e-300
        return
    assert value > 0.0
    assert abs(math.log(value) - ref_log) <= 1e-12 + 1e-15 * abs(ref_log)


def assert_chain_matches(nu0, mu, x, count):
    """A positive Qbar chain's logs match mpmath's at its ends and middle,
    also where its values lie below float range."""
    m, L = legendre_Qbar_axis_sequence(nu0, mu, x, count)
    for k in sorted({0, count // 2, count - 1}):
        ref = mp_log_Qbar(nu0 + k, mu, x)
        assert m[k] == 1.0
        assert abs(L[k] - ref) <= 1e-12 + 1e-15 * abs(ref)


# x from 1 + 1e-4 to 10, log-uniform in x - 1
axis_x = st.floats(-4.0, math.log10(9.0)).map(lambda u: 1.0 + 10.0 ** u)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(nu0=st.floats(-0.5, 240.0), frac=st.floats(0.0, 1.0), x=axis_x)
def test_Qbar_chain_order0_two_point_start(nu0, frac, x):
    count = 1 + int(frac * math.floor(MILLER_DEGREE - nu0))
    assert_chain_matches(nu0, 0.0, x, count)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(nu0=st.floats(0.0, 1000.0), extra=st.integers(0, 200), x=axis_x)
def test_Qbar_chain_order0_miller(nu0, extra, x):
    count = max(1, math.floor(MILLER_DEGREE + 1.0 - nu0) + 1) + extra
    assert nu0 + count - 1 > MILLER_DEGREE
    assert_chain_matches(nu0, 0.0, x, count)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(nu=st.floats(-0.999, 1000.0), x=axis_x)
def test_Qhat_order0_single(nu, x):
    assert_log_close(legendre_Qhat_axis(nu, 0.0, x), mp_log_Qhat(nu, 0.0, x))


@pytest.mark.parametrize("nu,x", [(816.6268018922251, 1.1), (2500.3, 1.001),
                                  (5000.7, 1.0002)])
def test_Qhat_order0_single_at_a_large_degree(nu, x):
    # points that the derandomized draws of test_Qhat_order0_single miss; a
    # difference of two ln Gamma values of this size cancels about
    # eps |ln Gamma|, beyond the bound at each of them
    assert_log_close(legendre_Qhat_axis(nu, 0.0, x), mp_log_Qhat(nu, 0.0, x))


@pytest.mark.parametrize("nu", [80.0, 700.0])
def test_Q_order0_near_singular_point(nu):
    # the 1/x^2 series ran out of terms here; the e^{-2 xi} series does not
    x = 1.0002
    assert_log_close(legendre_Q(nu, x), mp_log_Qhat(nu, 0.0, x))
    assert_chain_matches(nu, 0.0, x, 3)


@pytest.mark.parametrize("nu0,count", [(100.0, 151), (150.0, 300)])
def test_Qbar_chain_start_below_normal_range(nu0, count):
    # at x = 10 the top of the chain underflows while its bottom does not
    assert_chain_matches(nu0, 0.0, 10.0, count)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("zeta", [1e307, 1.7e308])
def test_Q_chain_where_a_miller_step_overflows(zeta):
    # (2 nu + 1) zeta leaves float range; Q_1 / Q_0 ~ 1/(2 zeta), so past
    # Q_0 = atanh(1/zeta) the chain is zero in float precision
    q = legendre_Q_sequence(0.0, zeta, 12)
    assert q[0] == pytest.approx(1.0 / zeta, rel=1e-12)
    assert not q[1:].any()


@pytest.mark.parametrize("nu0,mu,x,count", [
    (-0.5, 4.0 / 3.0, 1.5, 40),      # toroidal chain
    (2.5, 2.5, 1.2, 30),             # spheroidal chain
    (40.0, 40.0, 1.01, 5),           # large order near x = 1
    (-0.5, 2.0, 1.05, 400),          # long chain, top degree above 250
])
def test_Qbar_chain_positive_order(nu0, mu, x, count):
    assert_chain_matches(nu0, mu, x, count)


def assert_abs_chain_matches(nu0, mu, x, count):
    """log|Qbar| along an order-mu chain, whose sign changes below nu = mu,
    against mpmath; degrees on a gamma pole (where mp_log_Qbar is undefined)
    and references above float range are skipped."""
    try:
        log_abs = chain_log(legendre_Qbar_axis_sequence(nu0, mu, x, count))
    except OverflowError:
        # only a bottom value beyond float range may overflow
        assert mp_log_Qbar(nu0, mu, x) > 709.0
        return
    for k in sorted({0, count // 2, count - 1}):
        a = nu0 + k - mu + 1.0
        if a <= 0.0 and abs(a - round(a)) < 1e-9:
            continue
        ref = mp_log_Qbar(nu0 + k, mu, x)
        if ref < 700.0:
            assert abs(log_abs[k] - ref) <= 1e-12 + 1e-15 * abs(ref)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(mu=st.floats(0.0, 300.0), at_order=st.booleans(), x=axis_x,
       count=st.integers(1, 60))
def test_Qbar_chain_order_mu(mu, at_order, x, count):
    # toroidal chains start at nu0 = -1/2, spheroidal ones at nu0 = mu
    assert_abs_chain_matches(mu if at_order else -0.5, mu, x, count)


def test_Qbar_chain_starts_above_the_order():
    # the ratios separate the minimal solution only above nu ~ mu: a start
    # 17/xi + 20 above the top degree alone missed by 3.2e-6 here
    assert_abs_chain_matches(-0.5, 200.0, 1.438, 3)


@pytest.mark.parametrize("nu0", [0.0, 1.0 / 3.0])
@pytest.mark.parametrize("xi", [0.02, 0.5])
def test_Qbar_chain_at_its_segment_joins(nu0, xi):
    # Miller's recurrence restarts from r = 0 every 2 (17/xi + 20) degrees:
    # the degrees on both sides of the first two joins match mpmath
    x = math.cosh(xi)
    segment = 2 * (math.ceil(17.0 / math.acosh(x)) + 20)
    m, L = legendre_Qbar_axis_sequence(nu0, 0.0, x, 2 * segment + 1)
    for k in (segment - 1, segment, 2 * segment - 1, 2 * segment):
        ref = mp_log_Qbar(nu0 + k, 0.0, x)
        assert m[k] == 1.0
        assert abs(L[k] - ref) <= 1e-12 + 1e-15 * abs(ref)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(nu0=st.one_of(st.sampled_from([-0.5, 0.0]),
                     st.floats(0.0, 50.0, exclude_min=True)),
       mu=st.one_of(st.just(0.0), st.floats(0.0, 30.0, exclude_min=True)),
       u=st.floats(-3.0, 1.0), n=st.integers(1, 3000), frac=st.floats(0.0, 1.0))
# two points where a Miller run started a margin above the chain's own top
# gave the k-chain other last bits than the n-chain's first k entries
@example(nu0=0.0, mu=0.0, u=-2.8532933073442206, n=1451, frac=191 / 1451)
@example(nu0=0.0, mu=3.2519364802191797, u=-2.7131749932995692, n=1382, frac=955 / 1382)
def test_Qbar_chain_prefix_is_the_shorter_chain(nu0, mu, u, n, frac):
    # no Miller start depends on the chain's length, so a chain's first k
    # entries are the k-chain bit for bit, across several segment joins
    x, k = 1.0 + 10.0 ** u, max(1, round(frac * n))
    m, L = legendre_Qbar_axis_sequence(nu0, mu, x, n)
    m_k, L_k = legendre_Qbar_axis_sequence(nu0, mu, x, k)
    assert np.array_equal(m[:k], m_k) and np.array_equal(L[:k], L_k)


def test_Qbar_chain_logs_where_its_values_underflow():
    # Qbar_k(cosh 2) ~ e^{-2k} lies below float range from k = 355 on; its
    # logs still match mpmath's up to k = 2000
    assert_chain_matches(0.0, 0.0, math.cosh(2.0), 2001)


def mp_log_P(nu, mu, x):
    """ln P_nu^{-mu}(x) on the axis from mpmath.legenp (type 3) at 30 digits."""
    with mpmath.workdps(30):
        return float(mpmath.log(mpmath.legenp(nu, -mu, mpmath.mpf(x), type=3)))


@pytest.mark.parametrize("nu0,mu", [(0.0, 0.0), (-0.5, 2.5)])
def test_P_axis_chain_logs_where_its_values_overflow(nu0, mu):
    # P_nu(cosh 1.5) ~ e^{1.5 nu} lies above float range from nu ~ 480 on:
    # the mantissas move exact powers of two into the offsets
    x = math.cosh(1.5)
    log_p = chain_log(legendre_P_axis_sequence(nu0, mu, x, 1001))
    assert log_p[-1] > 1400.0
    for k in (0, 300, 480, 500, 750, 1000):
        ref = mp_log_P(nu0 + k, mu, x)
        assert abs(log_p[k] - ref) <= 1e-12 + 1e-15 * abs(ref)


@pytest.mark.parametrize("mu", [0.0, 2.5])
def test_Qbar_chain_near_singular_point_raises(mu):
    # the bottom series value cannot be certified this close to x = 1
    with pytest.raises(ConvergenceError):
        legendre_Qbar_axis_sequence(0.0, mu, 1.0 + 1e-11, 3)


# ----------------------------------------------------------------------
# the axis band of the toroidal and spheroidal mode sums
# ----------------------------------------------------------------------

@pytest.mark.parametrize("nu0,mu", [(-0.5, 4.0 / 3.0), (-0.5, 1.0),
                                    (1.0, 1.0), (2.0, 2.0)])
def test_axis_band_is_the_term_by_term_product(nu0, mu):
    # G(nu+mu+1)/G(nu-mu+1) P_nu^{-mu}(cosh s<) Qhat_nu^{-mu}(cosh s>), each
    # factor a point value
    s_lt, s_gt, count = 0.7, 1.3, 12
    sign, log_abs = specfun.axis_band(nu0, mu, s_lt, s_gt, count)
    for k in range(count):
        nu = nu0 + k
        lg, sg = gamma_ratio_signed(nu + mu + 1.0, nu - mu + 1.0)
        log_p = chain_log(legendre_P_axis_sequence(nu, mu, math.cosh(s_lt), 1))[0]
        ref = sg * math.exp(lg + log_p) * legendre_Qhat_axis(nu, mu, math.cosh(s_gt))
        assert sign[k] * math.exp(log_abs[k]) == pytest.approx(ref, rel=1e-12)


def test_axis_band_regular_at_half_odd_order():
    # at mu = 3/2 and nu0 = -1/2, G(nu-mu+1) has poles at k = 0, 1 that Qbar
    # absorbs: the rows are finite and move by O(1e-9) as mu moves by 1e-9
    def band(mu):
        sign, log_abs = specfun.axis_band(-0.5, mu, 0.9, 1.4, 10)
        return sign * np.exp(log_abs)
    mid = band(1.5)
    assert np.isfinite(mid).all() and (mid != 0.0).all()
    for mu in (1.5 - 1e-9, 1.5 + 1e-9):
        np.testing.assert_allclose(band(mu), mid, rtol=1e-7)


@pytest.mark.filterwarnings("error")
def test_axis_band_raises_where_a_chain_underflows():
    # P_nu^{-300}(cosh 0.1) is about sinh(0.1)^300 / (2^300 300!): below
    # the smallest subnormal
    with pytest.raises(ConvergenceError, match="underflowed"):
        specfun.axis_band(-0.5, 300.0, 0.1, 0.5, 4)


# ----------------------------------------------------------------------
# normalization integral of the angular functions
# ----------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [1.0, 0.75, 0.5])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_normalization_integral(alpha, m):
    mu = m / alpha
    for l in range(m, 6):
        for lp in range(l, 6):
            lam = l - m + mu
            lam_p = lp - m + mu

            def f(t):
                x = math.cos(t)
                return (ferrers_P(lam, mu, x) * ferrers_P(lam_p, mu, x)
                        * math.sin(t))

            val, err = quad(f, 0.0, math.pi, epsabs=1e-12, epsrel=1e-11,
                            limit=200)
            if l == lp:
                expected = (2.0 / (2.0 * lam + 1.0)
                            * math.exp(gammaln(lam - mu + 1.0)
                                       - gammaln(lam + mu + 1.0)))
            else:
                expected = 0.0
            assert val == pytest.approx(expected, abs=1e-8)


# ----------------------------------------------------------------------
# Bessel functions
# ----------------------------------------------------------------------

def test_bessel_half_integer_closed_forms():
    i, k = bessel_IK(0.5, 1.0)
    assert i == pytest.approx(math.sqrt(2.0 / math.pi) * math.sinh(1.0), rel=1e-13)
    assert k == pytest.approx(math.sqrt(math.pi / 2.0) * math.exp(-1.0), rel=1e-13)


def test_bessel_small_argument_limits():
    i, k = bessel_IK(0.0, 1e-8)
    assert i == pytest.approx(1.0, rel=1e-10)
    assert k > 17.0  # ~ -log(z/2) - gamma, grows logarithmically


def bessel_series_oracle(order, z):
    """I from its power series; K from the reflection
    K_nu = pi/2 (I_{-nu} - I_nu)/sin(nu pi) (non-integer nu)."""
    from scipy.special import gamma as _gamma

    def iser(nu):
        tot, term = 0.0, (z / 2.0) ** nu / float(_gamma(nu + 1.0))
        for k in range(200):
            tot += term
            term *= (z / 2.0) ** 2 / ((k + 1.0) * (nu + k + 1.0))
        return tot
    i = iser(order)
    k = math.pi / 2.0 * (iser(-order) - i) / math.sin(order * math.pi)
    return i, k


def test_bessel_series_oracle():
    i, k = bessel_IK(1.7, 2.3)
    i_ref, k_ref = bessel_series_oracle(1.7, 2.3)
    assert i == pytest.approx(i_ref, rel=1e-10)
    assert k == pytest.approx(k_ref, rel=1e-10)
    # frozen from the arbitrary-precision oracle
    assert i == pytest.approx(1.3021632979672265018, rel=1e-12)
    assert k == pytest.approx(0.13315500387781506766, rel=1e-12)


def test_bessel_product_decreasing_in_order():
    prods = [math.prod(bessel_IK(nu, 2.0)) for nu in (0.0, 0.5, 1.5, 3.0)]
    assert all(a > b for a, b in zip(prods, prods[1:]))


def test_bessel_overflow_and_scaling():
    with pytest.raises(OverflowError):
        bessel_IK(0.0, 800.0)
    i_s, k_s = bessel_IK(0.0, 800.0, scaled=True)
    assert 0.0 < i_s < 1.0 and 0.0 < k_s < 1.0
    with pytest.raises(DomainError):
        bessel_IK(-0.5, 1.0)
    with pytest.raises(DomainError):
        bessel_IK(0.5, 0.0)


# ----------------------------------------------------------------------
# domain types and helpers
# ----------------------------------------------------------------------

def test_degree_order_mode_indices():
    # mode (l, m) carries degree lambda_of(l, m, alpha) and order |m|/alpha,
    # whose difference l - |m| keeps 1/Gamma(nu - mu + 1) off its poles
    for l, m, alpha in ((3, 2, 0.5), (3, -2, 0.5), (4, 1, 0.75), (2, 0, 0.3)):
        nu, mu = lambda_of(l, m, alpha), abs(m) / alpha
        assert nu - mu == pytest.approx(l - abs(m), abs=1e-14)
    assert lambda_of(3, 2, 0.5) == pytest.approx(5.0)
    with pytest.raises(DomainError):
        lambda_of(1, 2, 0.5)


def test_eval_domain_classification():
    # ferrers_P evaluates on the cut only, away from the singular points
    assert math.isfinite(ferrers_P(0.5, 0.0, 0.3))
    for bad in (1.0, -1.0, 1.0 + 5e-13, 1.0 - 5e-13, -2.0, 1.5, math.nan):
        with pytest.raises(DomainError):
            ferrers_P(0.5, 0.0, bad)


def test_arccosh1p_stability():
    for d in (1e-14, 1e-8, 1e-3, 2.0):
        assert arccosh1p(d) == pytest.approx(math.acosh(1.0 + d), rel=1e-10) \
            or d < 1e-10  # plain acosh loses digits below ~1e-10
    assert arccosh1p(1e-14) == pytest.approx(math.sqrt(2e-14), rel=1e-6)
