"""Special-function core: values against independent oracles, invariants,
and domain guards."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln, lpmv

from stringhorizon import specfun
from stringhorizon.errors import ConvergenceError, DomainError, PoleError
from stringhorizon.specfun import (DegreeOrder, EvalDomain, arccosh1p,
                                   bessel_IK, ferrers_P, ferrers_P_sequence,
                                   legendre_PQ_axis, legendre_P_axis,
                                   legendre_Q, legendre_Q_sequence,
                                   legendre_Qbar_axis_sequence,
                                   legendre_Qhat_axis, log_gamma_ratio)


# ----------------------------------------------------------------------
# gamma ratios
# ----------------------------------------------------------------------

def test_log_gamma_ratio_integer_cases():
    assert log_gamma_ratio(2.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert log_gamma_ratio(5.0, 3.0) == pytest.approx(math.log(12.0), rel=1e-14)


def test_log_gamma_ratio_oracle():
    # frozen from the arbitrary-precision gamma oracle (mpmath, 30 digits)
    assert log_gamma_ratio(3.7, 1.2) == pytest.approx(
        1.5134464166687037716, rel=1e-12)


def test_log_gamma_ratio_large_arguments_no_overflow():
    v = log_gamma_ratio(1.0e4, 9.9e3)
    assert math.isfinite(v)


@pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, -2.0), (-3.0 + 1e-13, 1.0)])
def test_log_gamma_ratio_pole(a, b):
    with pytest.raises(PoleError):
        log_gamma_ratio(a, b)


# ----------------------------------------------------------------------
# Ferrers functions on the cut
# ----------------------------------------------------------------------

def test_ferrers_trivial_degrees():
    assert ferrers_P((0.0, 0.0), 0.3) == pytest.approx(1.0, abs=1e-15)
    assert ferrers_P((1.0, 0.0), 0.3) == pytest.approx(0.3, rel=1e-14)


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
    assert ferrers_P((2.5, 1.25), 0.5) == pytest.approx(
        0.11815030154461420355, rel=1e-10)


@pytest.mark.parametrize("nu,mu,x", [
    (0.5, 0.8, -0.7), (4.7, 3.2, 0.9), (10.2, 3.2, 0.001), (6.0, 5.5, -0.3),
])
def test_ferrers_against_quadrature_oracle(nu, mu, x):
    assert ferrers_P((nu, mu), x) == pytest.approx(
        mehler_dirichlet(nu, mu, x), rel=1e-10)


@pytest.mark.parametrize("x", [-0.9, -0.5, 0.0, 0.5, 0.9])
@pytest.mark.parametrize("l", [0, 1, 2, 5, 12, 20])
def test_ferrers_integer_orders_match_classical_recurrence(l, x):
    # scipy.special.lpmv implements the classical Ferrers recurrence
    for m in range(0, l + 1):
        mine = ferrers_P((float(l), float(m)), x)
        ref = float(lpmv(-m, l, x))
        assert mine == pytest.approx(ref, rel=1e-12, abs=1e-280)


def test_ferrers_finite_limit_toward_cut_edge():
    # P_nu^{-mu} -> 0 as x -> 1- for mu > 0
    vals = [ferrers_P((2.5, 1.25), x) for x in (0.9, 0.99, 0.999999)]
    assert vals[0] > vals[1] > vals[2] > 0.0


def test_ferrers_domain_rejection():
    with pytest.raises(DomainError):
        ferrers_P((1.0, 0.0), 1.0)
    with pytest.raises(DomainError):
        ferrers_P((1.0, 0.0), 1.0 - 1e-13)
    with pytest.raises(DomainError):
        ferrers_P((1.0, 0.0), -1.0 + 1e-13)
    with pytest.raises(DomainError):
        ferrers_P((1.0, -0.5), 0.3)


def test_ferrers_sequence_matches_single_evaluations():
    mu = 1.6
    seq = ferrers_P_sequence(mu, mu, 0.4, 12)
    for k in (0, 3, 11):
        assert seq[k] == pytest.approx(ferrers_P((mu + k, mu), 0.4), rel=1e-11)


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


def test_legendre_Q_unreachable_tolerance_errors_loudly():
    with pytest.raises(ConvergenceError):
        legendre_Q(0.0, 1.0 + 2e-12)


def test_legendre_PQ_axis_trivial():
    p, q = legendre_PQ_axis((0.0, 0.0), 2.0)
    assert p == pytest.approx(1.0, abs=1e-15)
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
    p, q = legendre_PQ_axis((-0.5, 0.0), 1.2)
    assert q > 0.0
    assert q == pytest.approx(heine_integral_oracle(1.2), rel=1e-10)
    assert p == pytest.approx(legendre_P_axis(-0.5, 1.2), rel=1e-14)


def test_legendre_PQ_axis_fractional_order_frozen_oracle():
    # frozen from the arbitrary-precision oracle (mpmath legenp/legenq type 3,
    # with the e^{mu pi i} phase absorbed into Qhat)
    p, q = legendre_PQ_axis((0.5, 0.8), 1.5)
    assert p == pytest.approx(0.61980752818223876838, rel=1e-12)
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

MILLER_DEGREE = specfun._MILLER_DEGREE   # higher top degrees start by Miller
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
    seq = legendre_Qbar_axis_sequence(nu0, mu, x, count)
    for k in sorted({0, count // 2, count - 1}):
        assert_log_close(seq[k], mp_log_Qbar(nu0 + k, mu, x))


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
    assert_log_close(legendre_Qhat_axis((nu, 0.0), x), mp_log_Qhat(nu, 0.0, x))


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


@pytest.mark.parametrize("nu0,mu,x,count", [
    (-0.5, 4.0 / 3.0, 1.5, 40),      # toroidal chain, two-point start
    (2.5, 2.5, 1.2, 30),             # spheroidal chain, two-point start
    (40.0, 40.0, 1.01, 5),           # large order near x = 1
    (-0.5, 2.0, 1.05, 400),          # Miller start
])
def test_Qbar_chain_positive_order(nu0, mu, x, count):
    assert_chain_matches(nu0, mu, x, count)


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
                return (ferrers_P((lam, mu), x) * ferrers_P((lam_p, mu), x)
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
    do = DegreeOrder.from_mode(l=3, m=2, alpha=0.5)
    assert do.nu == pytest.approx(5.0)
    assert do.mu == pytest.approx(4.0)
    assert do.degree_offset == pytest.approx(1.0)
    with pytest.raises(DomainError):
        DegreeOrder.from_mode(l=1, m=2, alpha=0.5)
    with pytest.raises(DomainError):
        DegreeOrder(nu=1.0, mu=-0.1)


def test_eval_domain_classification():
    assert EvalDomain.classify(0.3).region == "cut"
    assert EvalDomain.classify(1.5).region == "axis"
    for bad in (1.0, -1.0, 1.0 + 5e-13, -2.0):
        with pytest.raises(DomainError):
            EvalDomain.classify(bad)


def test_arccosh1p_stability():
    for d in (1e-14, 1e-8, 1e-3, 2.0):
        assert arccosh1p(d) == pytest.approx(math.acosh(1.0 + d), rel=1e-10) \
            or d < 1e-10  # plain acosh loses digits below ~1e-10
    assert arccosh1p(1e-14) == pytest.approx(math.sqrt(2e-14), rel=1e-6)
