"""Cone-space Green's functions: chart geometry, closed forms, mode sums,
and cross-representation agreement."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from stringhorizon import conespace as cs
from stringhorizon import specfun
from stringhorizon.blackhole import DeficitGeometry, horizon_green
from stringhorizon.conespace import (ConePoint, SeparationInvariants,
                                     bessel_integral_lhs, g3_axisym_integral,
                                     g3_cylindrical_Qsum, g3_linet,
                                     g3_spherical_sum, g3_spheroidal_sum,
                                     g3_toroidal_sum, g4_closed,
                                     g4_modesum_spherical,
                                     generalized_heine_rhs, heine_double_sum)
from stringhorizon.errors import (CoincidenceError, DomainError,
                                  SlowConvergenceError)
from stringhorizon.identities import check_heine_generalized
from stringhorizon.specfun import legendre_Q
from stringhorizon.summation import BLOCK_TERMS, sum_l, sum_m_bands

P1 = ConePoint("spherical", (1.0, 1.1, 0.3), tau=0.2)
P2 = ConePoint("spherical", (1.6, 0.8, 1.1), tau=-0.1)
Q1 = ConePoint("spherical", (1.0, 1.1, 0.3))
Q2 = ConePoint("spherical", (1.7, 0.7, 1.2))

G3_REPS = [g3_spherical_sum, g3_cylindrical_Qsum, g3_axisym_integral,
           g3_linet, g3_toroidal_sum, g3_spheroidal_sum]


def coulomb(x, xp):
    a, b = x.to_cylindrical(), xp.to_cylindrical()
    rho1, z1, f1 = a.coords
    rho2, z2, f2 = b.coords
    d2 = (z1 - z2) ** 2 + rho1 ** 2 + rho2 ** 2 \
        - 2 * rho1 * rho2 * math.cos(f1 - f2)
    return 1.0 / (4.0 * math.pi * math.sqrt(d2))


def image_sum_3d(x, xp, n_images):
    """Method-of-images oracle, valid when 1/alpha = n_images is an integer."""
    alpha = 1.0 / n_images
    a, b = x.to_cylindrical(), xp.to_cylindrical()
    rho1, z1, f1 = a.coords
    rho2, z2, f2 = b.coords
    tot = 0.0
    for k in range(n_images):
        ang = alpha * ((f1 - f2) + 2.0 * math.pi * k)
        d = math.sqrt((z1 - z2) ** 2 + rho1 ** 2 + rho2 ** 2
                      - 2 * rho1 * rho2 * math.cos(ang))
        tot += 1.0 / (4.0 * math.pi * d)
    return tot


def image_sum_4d(x, xp, n_images):
    alpha = 1.0 / n_images
    rho1, z1, rho2, z2, dphi, dtau = cs._pair_cyl(x, xp)
    tot = 0.0
    for k in range(n_images):
        ang = alpha * (dphi + 2.0 * math.pi * k)
        d2 = dtau ** 2 + (z1 - z2) ** 2 + rho1 ** 2 + rho2 ** 2 \
            - 2 * rho1 * rho2 * math.cos(ang)
        tot += 1.0 / (4.0 * math.pi ** 2 * d2)
    return tot


# ----------------------------------------------------------------------
# charts
# ----------------------------------------------------------------------

@pytest.mark.parametrize("chart", ["cylindrical", "toroidal", "spheroidal"])
def test_chart_round_trips(chart, rng):
    for _ in range(50):
        r = rng.uniform(0.2, 3.0)
        th = rng.uniform(0.1, math.pi - 0.1)
        ph = rng.uniform(0.0, 2.0 * math.pi)
        p = ConePoint("spherical", (r, th, ph))
        q = getattr(p, f"to_{chart}")().to_spherical()
        assert np.allclose(q.coords, p.coords, rtol=1e-12, atol=1e-12)


def test_chart_validation():
    with pytest.raises(DomainError):
        ConePoint("spherical", (1.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        ConePoint("cylindrical", (-1.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        ConePoint("spherical", (1.0, 1.0, -0.1))
    with pytest.raises(DomainError):
        ConePoint("nonsense", (1.0, 1.0, 0.1))


def test_separation_invariants_triangle(rng):
    for _ in range(1000):
        r1, r2 = rng.uniform(0.3, 3.0, 2)
        th1, th2 = rng.uniform(0.1, math.pi - 0.1, 2)
        f1, f2 = rng.uniform(0.0, 2.0 * math.pi, 2)
        t1, t2 = rng.uniform(-1.0, 1.0, 2)
        a = ConePoint("spherical", (r1, th1, f1), tau=t1)
        b = ConePoint("spherical", (r2, th2, f2), tau=t2)
        inv = SeparationInvariants.from_points(a, b)
        dphi = math.remainder(f1 - f2, 2.0 * math.pi)
        lhs = inv.cos_gamma + (math.cosh(inv.chi) - math.cos(dphi)) \
            * math.sin(th1) * math.sin(th2)
        assert lhs == pytest.approx(inv.zeta, rel=1e-12)
        # cosh(chi) = (zeta - cos cos') / (sin sin')
        assert math.cosh(inv.chi) == pytest.approx(
            (inv.zeta - math.cos(th1) * math.cos(th2))
            / (math.sin(th1) * math.sin(th2)), rel=1e-10)


# ----------------------------------------------------------------------
# 4D Green's function
# ----------------------------------------------------------------------

def test_g4_closed_flat_space():
    g = g4_closed(P1, P2, 1.0)
    rho1, z1, rho2, z2, dphi, dtau = cs._pair_cyl(P1, P2)
    d2 = dtau ** 2 + (z1 - z2) ** 2 + rho1 ** 2 + rho2 ** 2 \
        - 2 * rho1 * rho2 * math.cos(dphi)
    assert g == pytest.approx(1.0 / (4.0 * math.pi ** 2 * d2), rel=1e-12)


def test_g4_closed_image_sum():
    assert g4_closed(P1, P2, 0.5) == pytest.approx(
        image_sum_4d(P1, P2, 2), rel=1e-10)
    assert g4_closed(P1, P2, 0.25) == pytest.approx(
        image_sum_4d(P1, P2, 4), rel=1e-10)


def test_g4_closed_symmetry_positivity():
    for alpha in (1.0, 0.7, 0.4):
        a = g4_closed(P1, P2, alpha)
        b = g4_closed(P2, P1, alpha)
        assert a == pytest.approx(b, rel=1e-13)
        assert a > 0.0


@pytest.mark.parametrize("alpha", [1.0, 0.75, 0.3])
def test_g4_closed_at_zero_chi(alpha):
    # equal rho, z and tau, different phi: chi = 0 exactly, where the
    # sinh(chi/alpha)/sinh(chi) ratio takes its small-chi form
    a = ConePoint("cylindrical", (1.3, 0.4, 0.2), tau=0.1)
    b = ConePoint("cylindrical", (1.3, 0.4, 1.9), tau=0.1)
    assert SeparationInvariants.from_points(a, b).chi == 0.0
    g0 = g4_closed(a, b, alpha)
    assert math.isfinite(g0) and g0 > 0.0
    # z moved by 1.3e-6 gives chi = 1e-6: chi/alpha is above the series
    # switch at 1e-8
    near = ConePoint("cylindrical", (1.3, 0.4 + 1.3e-6, 1.9), tau=0.1)
    assert SeparationInvariants.from_points(a, near).chi > 1e-8
    assert g0 == pytest.approx(g4_closed(a, near, alpha), rel=1e-9)


def test_g4_small_chi_expansion_coefficients():
    # kernel(chi) = sinh(chi/a)/[sinh chi (cosh(chi/a)-1)]
    #             = 2a/chi^2 + (1/(6a) - a/3) + O(chi^2)
    for alpha in (1.0, 0.75, 0.5):
        def kernel(chi):
            return generalized_heine_rhs(alpha, math.pi / 2, math.pi / 2,
                                         0.0, chi)
        c1, c2 = 1e-3, 2e-3
        A = np.array([[1.0 / c1 ** 2, 1.0], [1.0 / c2 ** 2, 1.0]])
        coef = np.linalg.solve(A, [kernel(c1), kernel(c2)])
        assert coef[0] == pytest.approx(2.0 * alpha, rel=1e-6)
        assert coef[1] == pytest.approx(1.0 / (6.0 * alpha) - alpha / 3.0,
                                        rel=1e-5)


@pytest.mark.parametrize("alpha", [1e-7, 6e-8])
def test_g4_closed_small_alpha_against_mpmath(alpha):
    # chi = 9.9e-9 but chi/alpha = 0.1 or more: the kernel takes the sinh
    # ratio there, not the chi -> 0 series (which was 8e-7 and 6e-6 off)
    a = ConePoint("cylindrical", (1.0, 0.0, 0.0))
    b = ConePoint("cylindrical", (1.0 + 9.9e-9, 0.0, 3.0))
    with mpmath.workdps(50):
        r1, r2 = mpmath.mpf(1.0), mpmath.mpf(1.0 + 9.9e-9)
        al = mpmath.mpf(alpha)
        chi = mpmath.acosh(1 + (r1 - r2) ** 2 / (2 * r1 * r2))
        ref = (mpmath.sinh(chi / al) / mpmath.sinh(chi)
               / (mpmath.cosh(chi / al) - mpmath.cos(3))
               / (8 * mpmath.pi ** 2 * al * r1 * r2))
    assert g4_closed(a, b, alpha) == pytest.approx(float(ref), rel=1e-12)


def test_g4_modesum_matches_closed():
    for alpha in (1.0, 0.8):
        gm = g4_modesum_spherical(P1, P2, alpha, tol=1e-9)
        gc = g4_closed(P1, P2, alpha)
        assert gm == pytest.approx(gc, rel=1e-8)


def test_g4_modesum_m0_partial_sums_monotone():
    # theta = theta' = pi/2: all m = 0 terms are positive, so truncated sums
    # increase monotonically toward (and stay below) the closed form
    a = ConePoint("spherical", (1.0, math.pi / 2, 0.0), tau=0.0)
    b = ConePoint("spherical", (1.5, math.pi / 2, 0.0), tau=0.4)
    inv = SeparationInvariants.from_points(a, b)
    closed_kernel = generalized_heine_rhs(0.8, math.pi / 2, math.pi / 2, 0.0,
                                          inv.chi)
    # the m = 0 band of heine_double_sum: (2l + 1) P_l(0)^2 Q_l(zeta)
    x = math.cos(math.pi / 2)
    q = specfun.legendre_Q_sequence(0.0, inv.zeta, 33)
    terms = (2.0 * np.arange(33) + 1.0) * specfun.ferrers_band(0.0, x, x, 33,
                                                               np.log(q))
    vals = [float(terms[:lmax + 1].sum()) for lmax in (2, 4, 8, 16, 32)]
    assert all(x < y for x, y in zip(vals, vals[1:]))
    assert all(v < closed_kernel for v in vals)


def test_g4_coincidence_guard():
    with pytest.raises(CoincidenceError):
        g4_closed(P1, P1, 0.8)


# ----------------------------------------------------------------------
# Bessel omega-integral
# ----------------------------------------------------------------------

def test_bessel_integral_closed_form():
    val = bessel_integral_lhs(0.0, 1.0, 2.0, 0.0)
    expected = 0.5 * math.log(9.0) / (2.0 * math.sqrt(2.0))
    assert val == pytest.approx(expected, rel=1e-10)


def test_bessel_integral_matches_Q():
    val = bessel_integral_lhs(0.6, 1.0, 1.5, 0.7)
    zeta = (0.49 + 1.0 + 2.25) / 3.0
    assert val == pytest.approx(legendre_Q(0.6, zeta) / (2.0 * math.sqrt(1.5)),
                                rel=1e-8)


def test_bessel_integral_validity_boundary():
    with pytest.raises(DomainError):
        bessel_integral_lhs(-1.0, 1.0, 2.0, 0.0)
    with pytest.raises(DomainError):
        bessel_integral_lhs(-1.0 + 1e-9, 1.0, 2.0, 0.0)
    with pytest.raises(DomainError):
        bessel_integral_lhs(0.5, 2.0, 1.0, 0.0)


# ----------------------------------------------------------------------
# 3D representations
# ----------------------------------------------------------------------

def test_g3_flat_space_all_representations():
    ref = coulomb(Q1, Q2)
    for rep in G3_REPS:
        assert rep(Q1, Q2, 1.0, tol=1e-9) == pytest.approx(ref, rel=1e-8), rep


def test_g3_cross_representation_agreement():
    vals = {rep.__name__: rep(Q1, Q2, 0.7, tol=1e-9) for rep in G3_REPS}
    ref = vals["g3_cylindrical_Qsum"]
    for name, v in vals.items():
        assert v == pytest.approx(ref, rel=1e-6), name


def test_g3_image_case():
    assert g3_spherical_sum(Q1, Q2, 0.5, tol=1e-9) == pytest.approx(
        image_sum_3d(Q1, Q2, 2), rel=1e-8)


def test_g3_symmetry():
    for rep in G3_REPS:
        a = rep(Q1, Q2, 0.75, tol=1e-9)
        b = rep(Q2, Q1, 0.75, tol=1e-9)
        assert a == pytest.approx(b, rel=1e-9), rep


def test_g3_alpha_continuity():
    for rep in (g3_cylindrical_Qsum, g3_spherical_sum):
        g1 = rep(Q1, Q2, 1.0, tol=1e-10)
        g2 = rep(Q1, Q2, 1.0 - 1e-6, tol=1e-10)
        assert abs(g2 - g1) < 1e-4 * g1


@pytest.mark.parametrize("s", [0.5, 2.0, 10.0])
def test_g3_scale_covariance(s):
    for rep in (g3_cylindrical_Qsum, g3_spherical_sum, g3_axisym_integral):
        g = rep(Q1, Q2, 0.7, tol=1e-11)
        gs = rep(Q1.scaled(s), Q2.scaled(s), 0.7, tol=1e-11)
        assert gs == pytest.approx(g / s, rel=1e-10)


def test_g3_linet_domain():
    with pytest.raises(DomainError):
        g3_linet(Q1, Q2, 0.5)
    with pytest.raises(DomainError):
        g3_linet(Q1, Q2, 0.4)


def test_g3_linet_second_image_window():
    # |dphi| > 2 pi - pi/alpha brings the n = -1 image into play
    a = ConePoint("cylindrical", (1.0, 0.0, 0.0))
    b = ConePoint("cylindrical", (1.3, 0.4, 2.5))
    ref = g3_cylindrical_Qsum(a, b, 0.75, tol=1e-10)
    assert g3_linet(a, b, 0.75, tol=1e-9) == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("alpha", [0.51, 0.75, 0.99])
def test_g3_linet_near_null_image(alpha):
    # r' = 1.3; the n = -1 image at |dphi - 2 pi| = pi/alpha - margin
    a = ConePoint("spherical", (1.0, 1.0, 0.0))
    for margin in (0.03, 0.011, -0.011, -0.03):
        b = ConePoint("spherical", (1.3, 2.0, 2.0 * math.pi - math.pi / alpha + margin))
        ref = g3_cylindrical_Qsum(a, b, alpha, tol=1e-12)
        assert g3_linet(a, b, alpha, tol=1e-10) == pytest.approx(ref, rel=1e-10)
    for margin in (0.009, 1e-8, 0.0, -1e-8, -0.009):
        b = ConePoint("spherical", (1.3, 2.0, 2.0 * math.pi - math.pi / alpha + margin))
        with pytest.raises(DomainError, match="null image"):
            g3_linet(a, b, alpha)


@pytest.mark.parametrize("alpha, psi", [(0.6, 0.8), (0.75, 1.0), (0.9, 3.0),
                                        (0.51, 2.0 * math.pi - math.pi / 0.51 + 0.011)])
def test_linet_kernel_array_is_its_scalar_values(alpha, psi):
    # one kernel for both: each entry of the array form, bit for bit
    u = np.concatenate(([0.0], np.geomspace(1e-8, 900.0, 61), [-2.5]))
    values = cs.linet_kernel(u, psi, alpha)
    assert values.tolist() == [float(cs.linet_kernel(x, psi, alpha)) for x in u.tolist()]
    assert np.isfinite(values).all()


def test_g3_toroidal_equal_w_wynn_path():
    t1 = ConePoint("toroidal", (0.9, 0.5, 0.3))
    t2 = ConePoint("toroidal", (0.9, 1.9, 1.0))
    ref = g3_cylindrical_Qsum(t1, t2, 0.75, tol=1e-10)
    assert g3_toroidal_sum(t1, t2, 0.75, tol=1e-8) == pytest.approx(
        ref, rel=1e-7)


def _spherical_per_band(x, xp, alpha, tol):
    """`g3_spherical_sum` band by band: `sum_m_bands` over `sum_l` of each
    scalar band (r</r>)^lam / r> times the Ferrers band."""
    (r1, th1, phi1), (r2, th2, phi2) = x.to_spherical().coords, xp.to_spherical().coords
    rate = math.log(max(r1, r2) / min(r1, r2))

    def terms(mu, count):
        log_radial = -(mu + np.arange(count)) * rate - math.log(max(r1, r2))
        return specfun.ferrers_band(mu, math.cos(th1), math.cos(th2), count, log_radial)

    value = sum_m_bands(lambda m: sum_l(lambda n: terms(m / alpha, n), tol, rate)[:2],
                        tol, math.remainder(phi1 - phi2, 2.0 * math.pi))[0]
    return value / (4.0 * math.pi * alpha)


def _spheroidal_per_band(x, xp, alpha, tol):
    """`g3_spheroidal_sum` band by band: `sum_m_bands` over `sum_l` of each
    scalar band of `_spheroidal_terms`."""
    (s1, th1, phi1), (s2, th2, phi2) = x.to_spheroidal().coords, xp.to_spheroidal().coords
    s_lt, s_gt = min(s1, s2), max(s1, s2)
    value = sum_m_bands(
        lambda m: sum_l(lambda n: cs._spheroidal_terms(alpha, m, th1, th2, s_lt, s_gt, n),
                        tol, s_gt - s_lt)[:2],
        tol, math.remainder(phi1 - phi2, 2.0 * math.pi))[0]
    return value / (4.0 * math.pi * alpha)


def _toroidal_per_band(x, xp, alpha, tol):
    """`g3_toroidal_sum` band by band: `sum_m_bands` over `sum_l` of each
    scalar band of `_toroidal_terms` at `_toroidal_rate`."""
    (w1, eta1, phi1), (w2, eta2, phi2) = x.to_toroidal().coords, xp.to_toroidal().coords
    deta = math.remainder(eta1 - eta2, 2.0 * math.pi)
    w_lt, w_gt = min(w1, w2), max(w1, w2)
    rate = cs._toroidal_rate(w_lt, w_gt, deta)
    value = sum_m_bands(
        lambda m: sum_l(lambda n: cs._toroidal_terms(alpha, m, w_lt, w_gt, deta, n),
                        tol, rate)[:2],
        tol, math.remainder(phi1 - phi2, 2.0 * math.pi))[0]
    pref = math.sqrt((math.cosh(w1) - math.cos(eta1)) * (math.cosh(w2) - math.cos(eta2)))
    return pref * value / (4.0 * math.pi ** 2 * alpha)


@pytest.mark.parametrize("x, xp, alpha", [
    (ConePoint("toroidal", (0.9, 0.5, 0.3)), ConePoint("toroidal", (1.4, 1.9, 1.0)), 0.75),
    (ConePoint("toroidal", (1.2, 3.0, 0.0)), ConePoint("toroidal", (0.6, 0.2, 2.5)), 0.5),
    # w = w': the Wynn path of test_g3_toroidal_equal_w_wynn_path
    (ConePoint("toroidal", (0.9, 0.5, 0.3)), ConePoint("toroidal", (0.9, 1.9, 1.0)), 0.75)])
@pytest.mark.parametrize("tol", [1e-8, 1e-4])
def test_g3_toroidal_sum_equals_per_band_sum(x, xp, alpha, tol):
    # `mode_sum` builds every toroidal band alone: bit for bit the band-by-band sum
    assert g3_toroidal_sum(x, xp, alpha, tol) == _toroidal_per_band(x, xp, alpha, tol)


@pytest.mark.parametrize("x, xp, alpha", [
    (Q1, Q2, 0.7), (Q2, Q1, 1.0), (P1, P2, 0.35),
    (ConePoint("spherical", (0.4, 2.9, 0.0)),
     ConePoint("spherical", (1.3, 0.2, 3.0)), 0.9)])
@pytest.mark.parametrize("tol", [1e-8, 1e-4])
def test_g3_sphere_and_spheroid_sums_equal_per_band_sums(x, xp, alpha, tol):
    # `mode_sum` builds every band of these sums alone, with no closed
    # count: each number must be the band-by-band sum's, bit for bit
    assert g3_spherical_sum(x, xp, alpha, tol) == _spherical_per_band(x, xp, alpha, tol)
    assert g3_spheroidal_sum(x, xp, alpha, tol) == _spheroidal_per_band(x, xp, alpha, tol)


def test_g3_coincidence_and_slow_convergence_guards():
    with pytest.raises(CoincidenceError):
        g3_cylindrical_Qsum(Q1, Q1, 0.7)
    near = ConePoint("spherical", (1.0 + 1e-9, 1.1, 0.3))
    with pytest.raises(CoincidenceError):
        g3_spherical_sum(Q1, near, 0.7)
    sep = ConePoint("spherical", (1.0, 0.4, 0.3))
    with pytest.raises(SlowConvergenceError):
        g3_spherical_sum(Q1, sep, 0.7)   # equal radii, angular separation


@pytest.mark.parametrize("alpha,lattices", [
    (1.0, 1), (0.5, 1), (0.75, 3), (1.0 / math.sqrt(2.0), None)])
def test_heine_double_sum_one_Q_chain_per_lattice(monkeypatch, alpha, lattices):
    # Q_lam(zeta) depends on lam alone: bands whose mu differ by integers
    # read one chain, built at most once per block of bands and at least
    # doubled when a later block reads past it; at an irrational alpha every
    # band computed starts its own, and bands are computed ahead to the
    # closed bands' count, past it one at a time
    starts = []
    chain = specfun.legendre_Qbar_axis_sequence

    def counted(nu0, mu, x, count):
        starts.append(nu0)
        return chain(nu0, mu, x, count)
    monkeypatch.setattr(specfun, "legendre_Qbar_axis_sequence", counted)
    zeta = math.cosh(0.05)
    value, _, lmax, mmax = heine_double_sum(alpha, math.pi / 2, math.pi / 2,
                                            0.3, zeta, tol=1e-6)
    rhs = generalized_heine_rhs(alpha, math.pi / 2, math.pi / 2, 0.3, 0.05)
    assert value == pytest.approx(rhs, rel=1e-6)
    count = 1 + sum_m_bands(
        lambda m: (math.exp(-m * 0.05 / alpha) / math.sinh(0.05), 0.0),
        1e-6, 0.3)[2]
    if lattices is None:
        assert starts == [m / alpha for m in range(len(starts))]
        assert mmax < len(starts) <= max(count, mmax + 1)
    else:
        assert len(set(starts)) == lattices
        blocks = math.ceil(count / max(1, BLOCK_TERMS // (lmax + 1)))
        rebuilds = math.log2((mmax / alpha + lmax + 1) / (lmax + 1))
        past = max(0, mmax + 1 - count)      # bands built past the count
        assert len(starts) <= lattices * min(blocks, 2 + rebuilds) + past
        assert len(starts) < mmax / 10


def _heine_per_band(alpha, theta, theta_p, dphi, zeta, tol):
    """The generalized Heine sum band by band: `sum_m_bands` over `sum_l` of
    the scalar band, each band reading a log-Q chain of its own, started at
    the first mu of its lattice of degrees and ending at its last degree."""
    x1, x2 = math.cos(theta), math.cos(theta_p)
    xi = math.acosh(zeta)
    starts = []                         # the first mu of each lattice

    def terms(mu, count):
        mu0 = next((c for c in starts if abs(mu - c - round(mu - c))
                    <= 1e-12 * (1.0 + mu)), None)
        if mu0 is None:
            starts.append(mu0 := mu)
        j = round(mu - mu0)
        # Qbar > 0 at order 0: its chain is its log offset
        log_qbar = specfun.legendre_Qbar_axis_sequence(mu0, 0.0, zeta, j + count)[1]
        lam = mu + np.arange(count)
        log_q = log_qbar[j:] + specfun.log_gamma_ratios(mu + 1.0, mu + 1.5, count)
        return (2.0 * lam + 1.0) * specfun.ferrers_band(mu, x1, x2, count, log_q)

    lmax = None

    def band(m):
        nonlocal lmax
        value, tail, lmax = sum_l(lambda n: terms(m / alpha, n), tol, xi)
        return value, tail

    value, tail, mmax = sum_m_bands(band, tol, dphi)
    return value, tail, lmax, mmax


@pytest.mark.parametrize("alpha", [1.0, 0.75, 0.25, 1.0 / math.sqrt(2.0)])
@pytest.mark.parametrize("chi", [0.5, 0.05])
@pytest.mark.parametrize("theta,theta_p", [(math.pi / 2, math.pi / 2),
                                           (1.0, 1.02)])
@pytest.mark.parametrize("tol", [1e-6, 1e-3])
def test_heine_double_sum_equals_per_band_sum(alpha, chi, theta, theta_p, tol):
    # the batches of bands, their row sums and the shared Q chains must leave
    # every number as the band-by-band sum gives it
    zeta = (math.cos(theta) * math.cos(theta_p)
            + math.sin(theta) * math.sin(theta_p) * math.cosh(chi))
    args = (alpha, theta, theta_p, 0.3, zeta, tol)
    assert heine_double_sum(*args) == _heine_per_band(*args)


def test_heine_double_sum_builds_bands_past_the_closed_count(monkeypatch):
    # the real sum stops at m = 31, five bands past the closed bands' count:
    # those five are built one at a time as the m-sum asks (at an irrational
    # alpha one Q chain each, none past m = 31), the numbers of the
    # band-by-band sum, and no refusal
    starts = []
    chain = specfun.legendre_Qbar_axis_sequence

    def counted(nu0, mu, x, count):
        starts.append(nu0)
        return chain(nu0, mu, x, count)
    monkeypatch.setattr(specfun, "legendre_Qbar_axis_sequence", counted)
    alpha, theta, theta_p = 1.0 / math.sqrt(2.0), 0.653460627064304, 1.1288247817191799
    dphi, chi, tol = 0.5845967719020324, 0.6264108415597511, 1e-8
    ss = math.sin(theta) * math.sin(theta_p)
    zeta = math.cos(theta) * math.cos(theta_p) + ss * math.cosh(chi)
    count = 1 + sum_m_bands(
        lambda m: (math.exp(-m * chi / alpha) / (ss * math.sinh(chi)), 0.0),
        tol, dphi)[2]
    args = (alpha, theta, theta_p, dphi, zeta, tol)
    result = heine_double_sum(*args)
    assert result[3] >= count
    assert len(starts) == result[3] + 1
    assert result == _heine_per_band(*args)


@pytest.mark.parametrize("call", [
    lambda: heine_double_sum(1.0 / math.sqrt(2.0), math.pi / 2, math.pi / 2, 0.3,
                             math.cosh(0.02), tol=1e-6),
    lambda: check_heine_generalized(1.0, math.pi / 2, math.pi / 2, 0.3, 0.02),
    lambda: check_heine_generalized(0.5, math.pi / 2, math.pi / 2, 0.3, 0.02),
], ids=["irrational-alpha", "alpha-1", "alpha-0.5"])
def test_heine_double_sum_refuses_before_any_band(monkeypatch, call):
    # the closed bands need more than 400: the refusal comes from them, before
    # any Ferrers band or Q chain is built
    built = []
    for name in ("ferrers_band", "legendre_Qbar_axis_sequence"):
        def counted(*args, _name=name, _f=getattr(specfun, name)):
            built.append(_name)
            return _f(*args)
        monkeypatch.setattr(specfun, name, counted)
    with pytest.raises(SlowConvergenceError, match="within 400 bands"):
        call()
    assert built == []


def test_heine_double_sum_memory_is_bounded():
    # 248 bands x 702 degrees are built BLOCK_TERMS = 2^16 terms at a time,
    # each block in place (`test_heine_rows_block_memory_is_bounded`); built
    # at once they held 12.8 MB
    tracemalloc.start()
    try:
        heine_double_sum(0.25, math.pi / 2, math.pi / 2, 0.3, math.cosh(0.02),
                         tol=1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def test_heine_rows_block_memory_is_bounded(monkeypatch):
    # one BLOCK_TERMS block of a Heine sum at two angles, 93 bands x 702
    # degrees: its Q logs, both angles' chains in one loop and the band
    # summed in place peak at no more than 7 times the block's own array
    got = []
    monkeypatch.setattr(cs, "mode_sum",
                        lambda rows, *args: got.append(rows) or (0.0, 0.0, 0, 0))
    heine_double_sum(0.25, 1.0, 1.3, 0.3, 1.6)
    rows, ms = got[0], np.arange(BLOCK_TERMS // 702)
    rows(ms, 702)                       # its Q chain is built outside the measure
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        band = rows(ms, 702)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert band.shape == (93, 702)
    assert peak <= 7 * band.nbytes


@pytest.mark.parametrize("call", [
    lambda: heine_double_sum(1.0, 1.0, 1.0, 0.0, math.nan),
    lambda: heine_double_sum(1.0, 1.0, 1.0, math.nan, 1.5),
    lambda: heine_double_sum(1.0, 1.0, 1.0, 0.0, 1.5, tol=0.0),
    lambda: heine_double_sum(1.0, 1.0, 1.0, 0.0, 1.5, tol=math.nan),
    lambda: heine_double_sum(1.0, 1.0, 1.0, 0.0, 1.5, tol=2.0),
    # sin(theta) = 0: no closed band, and the Ferrers chains refuse the pole
    lambda: heine_double_sum(1.0, 0.0, 1.0, 0.0, 1.5),
    lambda: horizon_green(1.0, 1.0, 0.0, math.nan, DeficitGeometry(1.0)),
    lambda: check_heine_generalized(1.0, 1.0, 1.0, 0.0, chi=math.nan),
], ids=["zeta-nan", "dphi-nan", "tol-0", "tol-nan", "tol-2", "theta-pole",
        "eta-nan", "chi-nan"])
def test_heine_entry_points_reject_bad_input(call):
    # a DomainError is a StringHorizonError, which a verify case records
    with pytest.raises(DomainError):
        call()


def test_heine_double_sum_zeta_guard():
    with pytest.raises(DomainError):
        heine_double_sum(0.8, 1.0, 1.0, 0.5, 1.0 + 1e-9)
