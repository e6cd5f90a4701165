"""Black-hole sector: mode structure, radial solutions, horizon Green's
function, and the geometric subtraction terms."""

import math

import mpmath
import numpy as np
import pytest

from stringhorizon.blackhole import (DeficitGeometry, chi_radial_green,
                                     exponent_fit, frobenius_coefficients,
                                     g_sing, geodesic_distance,
                                     geodesic_distance_expansion,
                                     horizon_green, horizon_green_closed,
                                     lambda_of, radial_solutions)
from stringhorizon.errors import (DomainError, SeriesRadiusError,
                                  SlowConvergenceError)
from stringhorizon.specfun import legendre_P_axis, legendre_Q

GEO = DeficitGeometry(alpha=1.0, M=1.0)
GEO_S = DeficitGeometry(alpha=0.75, M=1.0)


def test_geometry_invariants():
    g = DeficitGeometry(alpha=0.8, M=2.5)
    assert g.kappa * 4.0 * g.M == pytest.approx(1.0, abs=0.0)
    assert g.tau_period == pytest.approx(2.0 * math.pi / g.kappa, rel=1e-15)
    with pytest.raises(DomainError):
        DeficitGeometry(alpha=1.2, M=1.0)
    for bad in (-1.0, 0.0, math.nan, math.inf, 1e-300, 1e200):
        with pytest.raises(DomainError):
            DeficitGeometry(alpha=0.5, M=bad)
    for bad in (0.0, -0.5, 1.0 + 1e-12, math.nan, math.inf):
        with pytest.raises(DomainError, match="alpha must lie in"):
            DeficitGeometry(alpha=bad, M=1.0)


def test_lambda_of():
    assert lambda_of(3, 2, 1.0) == pytest.approx(3.0)
    assert lambda_of(3, 2, 0.5) == pytest.approx(5.0)
    assert lambda_of(5, 0, 0.31) == pytest.approx(5.0)
    with pytest.raises(DomainError, match="exceeds l = 1"):
        lambda_of(1, 2, 1.0)
    # a negative l is named as such, not as |m| exceeding it
    with pytest.raises(DomainError, match="l must be >= 0"):
        lambda_of(-1, 0, 1.0)
    with pytest.raises(DomainError, match="alpha must lie in"):
        lambda_of(1, 1, math.nan)


def test_lambda_of_needs_integer_mode_numbers():
    # an integral float is an integer; l - |m| indexes the Ferrers chain
    assert lambda_of(3.0, 2.0, 0.5) == lambda_of(3, 2, 0.5)
    for l, m in ((2, 0.5), (2.5, 0), (math.nan, 0), (2, math.inf)):
        with pytest.raises(DomainError, match="must be integers"):
            lambda_of(l, m, 0.75)


def test_lambda_monotone_in_alpha():
    alphas = np.linspace(0.2, 1.0, 9)
    for (l, m) in [(3, 2), (5, 1), (4, 4)]:
        lams = [lambda_of(l, m, a) for a in alphas]
        assert all(x >= y - 1e-12 for x, y in zip(lams, lams[1:]))
    assert lambda_of(4, 0, 0.3) == lambda_of(4, 0, 1.0)


def test_mode_index():
    # lambda depends on |m| only
    assert lambda_of(3, -2, 0.5) == lambda_of(3, 2, 0.5) == pytest.approx(5.0)
    with pytest.raises(DomainError):
        lambda_of(1, -2, 0.5)


# ----------------------------------------------------------------------
# radial solutions, n != 0
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n,lam", [(1, 0.0), (2, 1.0), (3, 3.0), (2, 2.5)])
def test_radial_wronskian_constancy(n, lam):
    pair = radial_solutions(n, lam, GEO_S)
    target = -2.0 * abs(n)
    assert pair.wronskian_scale == pytest.approx(target, rel=1e-8)
    assert pair.wronskian_spread < 1e-12
    # explicit spot checks across [1.01, 5]
    for eta in (1.01, 1.5, 2.0, 5.0):
        w = (eta * eta - 1.0) * (pair.p(eta) * pair.dq(eta)
                                 - pair.dp(eta) * pair.q(eta))
        assert w == pytest.approx(target, rel=1e-6)


@pytest.mark.parametrize("n,lam", [(1, 0.0), (2, 1.0), (3, 3.0)])
def test_frobenius_exponent_fits(n, lam):
    pair = radial_solutions(n, lam, GEO_S)
    assert exponent_fit(pair.p) == pytest.approx(n / 2.0, abs=1e-3)
    assert exponent_fit(pair.q) == pytest.approx(-n / 2.0, abs=1e-3)


def test_frobenius_resonance_only_at_j_equal_n():
    # 4 (s + j)^2 - n^2 is formed as 4 j (j + 2 s): 0 only at j = |n| of the
    # second exponent, also where 8 s + 4 lies below the ulp of n^2
    with pytest.raises(SeriesRadiusError, match="j=3"):
        frobenius_coefficients(3, 1.0, -1.5, 5)
    for n in (10 ** 40, 10 ** 100):
        assert frobenius_coefficients(n, 1.0, n / 2.0, 8).size == 8


def test_p_leading_coefficient_normalized():
    # p(1+d) -> d^{|n|/2} (1 + O(d)): 3-point fit of the coefficient
    pair = radial_solutions(1, 0.0, GEO)
    ds = np.array([4e-6, 8e-6, 1.6e-5])
    vals = np.array([pair.p(1.0 + d) * d ** -0.5 for d in ds])
    design = np.stack([np.ones(3), ds * np.log(ds), ds], axis=1)
    c = np.linalg.solve(design, vals)[0]
    assert c == pytest.approx(1.0, abs=1e-6)


def test_q_leading_coefficient_normalized():
    # q(1+d) d^{|n|/2} -> 1, fitted away from the normalization points
    pair = radial_solutions(2, 1.0, GEO)
    ds = np.array([8e-6, 1.6e-5, 3.2e-5])
    vals = np.array([pair.q(1.0 + d) * d ** 1.0 for d in ds])
    design = np.stack([np.ones(3), ds * np.log(ds), ds], axis=1)
    c = np.linalg.solve(design, vals)[0]
    assert c == pytest.approx(1.0, abs=1e-6)


def test_radial_outer_boundary_insensitive():
    a = radial_solutions(2, 1.0, GEO, eta_max=20.0)
    b = radial_solutions(2, 1.0, GEO, eta_max=40.0)
    assert a.q(1.5) == pytest.approx(b.q(1.5), rel=1e-8)
    assert a.p(1.5) == pytest.approx(b.p(1.5), rel=1e-10)


def test_radial_domain_errors():
    with pytest.raises(DomainError):
        radial_solutions(0, 1.0, GEO)
    pair = radial_solutions(1, 0.0, GEO)
    with pytest.raises(DomainError):
        pair.p(1.0)
    with pytest.raises(DomainError):
        pair.q(25.0)


def _radial_reference(n, lam, t_start, sign, y0):
    """mpmath's Taylor solution of the radial equation
    16 t^2 (t+2)^2 chi'' + 32 t (t+1)(t+2) chi' - [16 lam(lam+1) t (t+2)
    + n^2 (t+2)^4] chi = 0 in u = sign (t - t_start), from (chi, dchi/du)."""
    ll = mpmath.mpf(lam) * (lam + 1)

    def f(u, y):
        t = t_start + sign * u
        p2 = 16 * t ** 2 * (t + 2) ** 2
        p1 = 32 * t * (t + 1) * (t + 2)
        p0 = 16 * ll * t * (t + 2) + n * n * (t + 2) ** 4
        return [y[1], (p0 * y[0] - sign * p1 * y[1]) / p2]
    return mpmath.odefun(f, 0, y0, tol=mpmath.mpf(1e-20))


@pytest.mark.parametrize("n,lam", [(1, 0.0), (2, 1.0), (3, 5.0)])
def test_radial_pair_matches_mpmath_odefun(n, lam):
    # p from its Frobenius start at eta - 1 = 1e-4 and q inward from eta_max,
    # against 25-digit Taylor solutions of the same equation in mpmath
    eta_max = 3.0
    pair = radial_solutions(n, lam, GEO, eta_max=eta_max)
    with mpmath.workdps(25):
        t0 = mpmath.mpf(1e-4)
        a = [mpmath.mpf(float(c)) for c in frobenius_coefficients(n, lam, n / 2.0, 8)]
        y0 = [sum(c * t0 ** (n / 2 + k) for k, c in enumerate(a)),
              sum(c * (n / 2 + k) * t0 ** (n / 2 + k - 1) for k, c in enumerate(a))]
        p_ref = _radial_reference(n, lam, t0, 1, y0)
        for eta in (1.0002, 1.001, 1.01, 1.1, 1.5, eta_max):
            ref = p_ref(mpmath.mpf(eta) - 1 - t0)[0]
            assert abs(pair.p(eta) / ref - 1) < 2e-12, eta
        # q(eta_max) = 1 before the normalization fit rescales it
        t_max = mpmath.mpf(eta_max) - 1
        q_ref = _radial_reference(n, lam, t_max, -1,
                                  [mpmath.mpf(1), n / 4 + 1 / mpmath.mpf(eta_max)])
        for eta in (2.5, 2.0, 1.3, 1.1, 1.01, 1.001):
            ref = q_ref(t_max - (mpmath.mpf(eta) - 1))[0]
            assert abs(pair.q(eta) / pair.q(eta_max) / ref - 1) < 1e-11, eta


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("lam", [0.0, 1.0, 2.5, 5.0])
def test_stepper_matches_solve_ivp(n, lam):
    # both Taylor solves of the pair against scipy's DOP853 at rtol 1e-13,
    # restarted from the same (chi, chi'): within 1e-10 at 50 points each
    # (DOP853's own global error reaches about 1e-11 here)
    from scipy.integrate import solve_ivp
    ll = lam * (lam + 1.0)

    def rhs(t, y):
        p2 = 16.0 * t * t * (t + 2.0) ** 2
        p1 = 32.0 * t * (t + 1.0) * (t + 2.0)
        p0 = 16.0 * ll * t * (t + 2.0) + n * n * (t + 2.0) ** 4
        return [y[1], (p0 * y[0] - p1 * y[1]) / p2]
    pair = radial_solutions(n, lam, GEO)
    t_max = pair.eta_max - 1.0
    for sol, t0, t1 in ((pair._p_sol, 1e-4, t_max), (pair._q_sol, t_max, 1e-6)):
        ref = solve_ivp(rhs, (t0, t1), list(sol(t0)), method="DOP853",
                        rtol=1e-13, atol=0.0, dense_output=True)
        assert ref.success
        for t in np.geomspace(t0, t1, 50):
            np.testing.assert_allclose(sol(float(t)), ref.sol(t), rtol=1e-10,
                                       atol=0.0)


@pytest.mark.parametrize("n,lam", [(1, 0.0), (2, 1.0)])
def test_q_domain_ends_with_the_inward_solve(n, lam):
    # q is integrated down to eta - 1 = 1e-6; below that it raises instead
    # of extrapolating the last step's interpolant
    pair = radial_solutions(n, lam, GEO)
    t = 1e-6
    assert pair.q(1.0 + 2.0 * t) * (2.0 * t) ** (n / 2.0) == pytest.approx(
        1.0, abs=1e-4)
    for d in (5e-7, 1e-10, 1e-12):
        with pytest.raises(DomainError, match="eta - 1 = 1e-06"):
            pair.q(1.0 + d)
        with pytest.raises(DomainError):
            pair.dq(1.0 + d)
    # p has its Frobenius series there
    assert pair.p(1.0 + 1e-10) == pytest.approx(1e-10 ** (n / 2.0), rel=1e-6)


def test_nonzero_modes_vanish_on_horizon():
    # p(1+d) ~ d^{|n|/2} -> 0: observed halving order within 0.05 of |n|/2
    for (n, lam) in [(1, 0.0), (2, 1.0), (3, 3.0)]:
        pair = radial_solutions(n, lam, GEO)
        q_ext = pair.q(2.0)
        c1 = pair.p(1.0 + 1e-5) * q_ext
        c2 = pair.p(1.0 + 5e-6) * q_ext
        order = math.log2(c1 / c2)
        assert order == pytest.approx(n / 2.0, abs=0.05)
        assert abs(c2) < abs(c1)


# ----------------------------------------------------------------------
# radial Green's function
# ----------------------------------------------------------------------

def test_chi_radial_green_n0_closed_form():
    g = DeficitGeometry(alpha=0.8, M=1.0)
    val = chi_radial_green(0, 0.0, 1.5, 2.0, g)
    assert val == pytest.approx(math.log(3.0) / (2.0 * 0.8), rel=1e-12)


def test_chi_radial_green_n0_matches_classical_legendre():
    # alpha = 1, integer lambda: radial solutions are classical P_l, Q_l
    for lam in (0.0, 1.0, 2.0):
        val = chi_radial_green(0, lam, 1.3, 2.2, GEO)
        ref = legendre_P_axis(lam, 1.3) * legendre_Q(lam, 2.2)
        assert val == pytest.approx(ref, rel=1e-10)
    assert legendre_P_axis(2.0, 1.3) == pytest.approx(
        0.5 * (3.0 * 1.3 ** 2 - 1.0), rel=1e-12)


def test_chi_radial_green_n0_satisfies_ode():
    # plug-in residual of the homogeneous equation away from eta';
    # Richardson-improved central differences push the h^2 operator error
    # below the 1e-8 target
    lam, g = 1.5, GEO_S

    def chi(e):
        return chi_radial_green(0, lam, e, 3.0, g)

    def resid(eta, h):
        d1 = (chi(eta + h) - chi(eta - h)) / (2 * h)
        d2 = (chi(eta + h) - 2 * chi(eta) + chi(eta - h)) / h ** 2
        return ((eta ** 2 - 1.0) * d2 + 2.0 * eta * d1
                - lam * (lam + 1.0) * chi(eta))

    for eta in (1.4, 2.0, 2.5):
        h = 5e-4
        improved = (4.0 * resid(eta, h / 2) - resid(eta, h)) / 3.0
        assert abs(improved) < 1e-8 * max(1.0, abs(lam * (lam + 1) * chi(eta)))


def test_chi_radial_green_jump_condition(rng):
    # derivative jump at eta = eta' equals -1/(alpha M (eta^2 - 1))
    g = DeficitGeometry(alpha=0.65, M=1.3)
    h = 1e-6
    # n = 0 branch: one-sided derivatives on each side of the diagonal
    for eta_p in (1.4, 2.1):
        lam = rng.uniform(0.0, 3.0)
        right = (chi_radial_green(0, lam, eta_p + 2 * h, eta_p, g)
                 - chi_radial_green(0, lam, eta_p + h, eta_p, g)) / h
        left = (chi_radial_green(0, lam, eta_p - h, eta_p, g)
                - chi_radial_green(0, lam, eta_p - 2 * h, eta_p, g)) / h
        expected = -1.0 / (g.alpha * g.M * (eta_p ** 2 - 1.0))
        assert right - left == pytest.approx(expected, rel=1e-4)
    # n != 0 branch analytically via the solution pair
    for _ in range(10):
        n = int(rng.integers(1, 4))
        lam = rng.uniform(0.0, 4.0)
        eta_p = rng.uniform(1.3, 4.0)
        pair = radial_solutions(n, lam, g)
        jump = (pair.p(eta_p) * pair.dq(eta_p)
                - pair.dp(eta_p) * pair.q(eta_p)) / (2.0 * n * g.alpha * g.M)
        expected = -1.0 / (g.alpha * g.M * (eta_p ** 2 - 1.0))
        assert jump == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("n", [1, -2])
def test_chi_radial_green_nonzero_n(n):
    # p(eta<) q(eta>) / (2 |n| alpha M), symmetric in eta <-> eta'
    g = DeficitGeometry(alpha=0.65, M=1.3)
    lam = 1.7
    pair = radial_solutions(n, lam, g)
    for eta, eta_p in ((1.2, 3.5), (2.0, 2.5), (1.01, 9.0)):
        expected = pair.p(eta) * pair.q(eta_p) / (2.0 * abs(n) * g.alpha * g.M)
        assert chi_radial_green(n, lam, eta, eta_p, g, pair) == expected
        assert chi_radial_green(n, lam, eta_p, eta, g, pair) == expected
        assert chi_radial_green(n, lam, eta_p, eta, g) == pytest.approx(
            expected, rel=1e-12)


@pytest.mark.parametrize("n,lam", [(1, 0.0), (2, 1.0), (3, 2.5)])
def test_dp_series_branch_matches_ode_branch(n, lam):
    # below t = eta - 1 = 1e-4 dp comes from the Frobenius series, above it
    # from the ODE solution; both sides of the switch must agree
    pair = radial_solutions(n, lam, GEO)
    below = pair.dp(1.0 + 1e-4 * (1.0 - 1e-9))
    above = pair.dp(1.0 + 1e-4 * (1.0 + 1e-9))
    assert below == pytest.approx(above, rel=1e-6)
    # and the series derivative is the derivative of the series value
    t, h = 3e-5, 1e-9
    fd = (pair.p(1.0 + t + h) - pair.p(1.0 + t - h)) / (2.0 * h)
    assert pair.dp(1.0 + t) == pytest.approx(fd, rel=1e-6)


# ----------------------------------------------------------------------
# horizon Green's function
# ----------------------------------------------------------------------

def test_horizon_green_candelas_closed_form():
    # alpha = 1: (1/(32 pi^2 M^2)) / (eta - cos gamma)
    eta = 1.4
    for (th, dphi) in [(0.9, 0.0), (1.2, 0.7)]:
        val = horizon_green(th, th, dphi, eta, GEO, tol=1e-9)
        cos_gamma = math.cos(th) ** 2 + math.sin(th) ** 2 * math.cos(dphi)
        ref = 1.0 / (32.0 * math.pi ** 2 * (eta - cos_gamma))
        assert val == pytest.approx(ref, rel=1e-8)


def test_horizon_green_matches_generalized_closed_form():
    val = horizon_green(0.9, 1.2, 0.8, 1.3, GEO_S, tol=1e-9)
    ref = horizon_green_closed(0.9, 1.2, 0.8, 1.3, GEO_S)
    assert val == pytest.approx(ref, rel=1e-7)


@pytest.mark.parametrize("alpha,theta,eps,tol", [
    (0.5, math.pi / 2, 5e-3, 1e-8),
    (0.5, math.pi / 2, 2.5e-3, 1e-8),
    (0.75, math.pi / 3, 2.5e-3, 1e-10),
])
def test_horizon_green_near_horizon_meets_tol(alpha, theta, eps, tol):
    # the bands pass mu = 160, where P^{-mu}(cos theta) leaves float range
    geometry = DeficitGeometry(alpha=alpha, M=1.0)
    val = horizon_green(theta, theta, 0.0, 1.0 + eps, geometry, tol=tol)
    ref = horizon_green_closed(theta, theta, 0.0, 1.0 + eps, geometry)
    assert abs(val - ref) <= tol * abs(ref)


def test_horizon_green_past_the_band_cap_raises():
    # eps = 1e-3 at alpha = 1 needs more than 400 bands
    with pytest.raises(SlowConvergenceError):
        horizon_green(math.pi / 2, math.pi / 2, 0.0, 1.0 + 1e-3, GEO, tol=1e-8)


def test_horizon_green_symmetries():
    v0 = horizon_green_closed(0.9, 1.2, 0.8, 1.3, GEO_S)
    assert horizon_green_closed(1.2, 0.9, 0.8, 1.3, GEO_S) == pytest.approx(
        v0, rel=1e-12)
    assert horizon_green_closed(0.9, 1.2, -0.8, 1.3, GEO_S) == pytest.approx(
        v0, rel=1e-12)


# ----------------------------------------------------------------------
# geometric subtraction
# ----------------------------------------------------------------------

def test_geodesic_distance_leading_behavior():
    g = DeficitGeometry(alpha=1.0, M=1.0)
    for eps in (1e-8, 1e-6):
        s = geodesic_distance(eps, g)
        assert s / math.sqrt(2.0 * eps) == pytest.approx(2.0, rel=1e-4)


def test_geodesic_distance_expansion_error():
    g = DeficitGeometry(alpha=1.0, M=1.0)
    s_exact = geodesic_distance(0.01, g)
    s_two = geodesic_distance_expansion(0.01, g)
    assert abs(s_exact - s_two) < 1e-5
    # the bracketed series remainder is O(eps^2), so the absolute expansion
    # error scales like sqrt(eps) * eps^2: halving ratio 2^(5/2)
    e1 = abs(geodesic_distance(0.02, g) - geodesic_distance_expansion(0.02, g))
    e2 = abs(geodesic_distance(0.01, g) - geodesic_distance_expansion(0.01, g))
    assert e1 / e2 == pytest.approx(2.0 ** 2.5, rel=0.05)


@pytest.mark.parametrize("M", [1e-3, 1.0, 7.0])
def test_geodesic_distance_against_mpmath_quadrature(M):
    # the defining integral with r = 2M + u^2, int_0^sqrt(eps) 2 sqrt(2M + u^2) du,
    # whose integrand is smooth, by tanh-sinh at 30 digits
    g = DeficitGeometry(alpha=1.0, M=M)
    with mpmath.workdps(30):
        for eps in (np.geomspace(1e-9, 0.099, 12) * M).tolist():
            ref = mpmath.quad(lambda u: 2 * mpmath.sqrt(2 * mpmath.mpf(M) + u * u),
                              [0, mpmath.sqrt(eps)])
            assert abs(geodesic_distance(eps, g) - ref) <= 4e-16 * ref, eps


def test_geodesic_distance_scaling():
    for k in (2.0, 5.0):
        s1 = geodesic_distance(0.01, DeficitGeometry(alpha=1.0, M=1.0))
        sk = geodesic_distance(0.01 * k, DeficitGeometry(alpha=1.0, M=k))
        assert sk == pytest.approx(k * s1, rel=1e-10)


def test_g_sing_value():
    g = DeficitGeometry(alpha=1.0, M=1.0)
    expected = 1.0 / (0.32 * math.pi ** 2) - 1.0 / (192.0 * math.pi ** 2)
    assert g_sing(0.01, g) == pytest.approx(expected, rel=1e-14)


def test_g_sing_consistency_with_geodesic():
    # 1/(4 pi^2 s^2) - g_sing = O(eps): the ratio to eps approaches a
    # finite slope under halving
    g = DeficitGeometry(alpha=1.0, M=1.0)

    def d(eps):
        s = geodesic_distance(eps, g)
        return 1.0 / (4.0 * math.pi ** 2 * s * s) - g_sing(eps, g)

    slopes = [d(e) / e for e in (4e-3, 2e-3, 1e-3)]
    assert slopes[0] == pytest.approx(slopes[-1], rel=0.05)
    assert all(math.isfinite(s) for s in slopes)


def test_g_sing_mass_homogeneity():
    # the constant term scales like M^-2
    c1 = g_sing(1e-3, DeficitGeometry(alpha=1.0, M=1.0)) \
        - 1.0 / (32.0 * math.pi ** 2 * 1.0 * 1e-3)
    c2 = g_sing(1e-3, DeficitGeometry(alpha=1.0, M=2.0)) \
        - 1.0 / (32.0 * math.pi ** 2 * 2.0 * 1e-3)
    assert c1 / c2 == pytest.approx(4.0, rel=1e-12)
