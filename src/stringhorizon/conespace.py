"""Green's functions on flat space threaded by a cosmic string.

The 4D Euclidean and 3D Laplace Green's functions in several representations:
closed form, spherical mode sum, cylindrical Q-sum, Bessel k-integral,
axisymmetric potential integral, Linet's image-plus-integral form (alpha >
1/2), and the toroidal and prolate-spheroidal mode sums; the three integrals
call `summation.quadpack`.  Their pairwise agreement is the content of the
summation identities; the harness in `identities` reads `g3_linet`,
`heine_double_sum`, `_toroidal_terms` at `_toroidal_rate`, and
`_spheroidal_terms`.

Azimuthal convention: phi has period 2*pi and the metric carries
alpha^2 rho^2 dphi^2, so the cone angle deficit is encoded in alpha alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import CoincidenceError, DomainError, SlowConvergenceError
from .specfun import arccosh1p, log_gamma
from .summation import MIN_RATE, mode_sum, quadpack, sum_m_bands

__all__ = [
    "check_alpha",
    "ConePoint",
    "SeparationInvariants",
    "g4_closed",
    "g4_modesum_spherical",
    "bessel_integral_lhs",
    "g3_spherical_sum",
    "g3_cylindrical_Qsum",
    "g3_axisym_integral",
    "g3_linet",
    "g3_toroidal_sum",
    "g3_spheroidal_sum",
    "heine_double_sum",
    "generalized_heine_rhs",
    "heine_kernel",
    "linet_kernel",
]

_CHARTS = ("spherical", "cylindrical", "toroidal", "spheroidal")
COINCIDENCE_TOL = 1e-7  # minimum chart-invariant separation


def check_alpha(alpha: float) -> None:
    """Raise DomainError unless the deficit alpha lies in (0, 1]; NaN fails."""
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")


@dataclass(frozen=True)
class ConePoint:
    """Point on the cone in one of four charts.

    spherical   (r, theta, phi)      r > 0, theta in (0, pi)
    cylindrical (rho, z, phi)        rho > 0
    toroidal    (w, eta, phi)        w > 0, eta in [0, 2pi); unit focal ring
    spheroidal  (sigma, theta, phi)  sigma > 0, theta in (0, pi); unit focus

    tau is the optional Euclidean time (4D Green's functions only).
    """

    chart: str
    coords: tuple
    tau: float | None = None

    def __post_init__(self):
        if self.chart not in _CHARTS:
            raise DomainError(f"unknown chart {self.chart!r}")
        a, b, c = self.coords
        if not 0.0 <= c < 2.0 * math.pi:
            raise DomainError(f"phi must lie in [0, 2pi), got {c}")
        if self.chart == "spherical":
            if a <= 0.0 or not 0.0 < b < math.pi:
                raise DomainError(f"invalid spherical coords {self.coords}")
        elif self.chart == "cylindrical":
            if a <= 0.0:
                raise DomainError(f"rho must be positive, got {a}")
        elif self.chart == "toroidal":
            if a <= 0.0 or not 0.0 <= b < 2.0 * math.pi:
                raise DomainError(f"invalid toroidal coords {self.coords}")
        elif self.chart == "spheroidal":
            if a <= 0.0 or not 0.0 < b < math.pi:
                raise DomainError(f"invalid spheroidal coords {self.coords}")

    # -- chart conversions (cylindrical is the hub) --------------------

    def to_cylindrical(self) -> "ConePoint":
        a, b, phi = self.coords
        if self.chart == "cylindrical":
            return self
        if self.chart == "spherical":
            rho, z = a * math.sin(b), a * math.cos(b)
        elif self.chart == "toroidal":
            d = math.cosh(a) - math.cos(b)
            rho, z = math.sinh(a) / d, math.sin(b) / d
        else:  # spheroidal
            rho, z = math.sinh(a) * math.sin(b), math.cosh(a) * math.cos(b)
        return ConePoint("cylindrical", (rho, z, phi), self.tau)

    def to_spherical(self) -> "ConePoint":
        if self.chart == "spherical":
            return self
        rho, z, phi = self.to_cylindrical().coords
        r = math.hypot(rho, z)
        theta = math.atan2(rho, z)
        return ConePoint("spherical", (r, theta, phi), self.tau)

    def to_toroidal(self) -> "ConePoint":
        if self.chart == "toroidal":
            return self
        rho, z, phi = self.to_cylindrical().coords
        d1sq = (rho + 1.0) ** 2 + z * z
        d2sq = (rho - 1.0) ** 2 + z * z
        if d2sq <= 0.0:
            raise DomainError("point on the focal ring; toroidal chart singular")
        w = 0.5 * math.log(d1sq / d2sq)
        eta = math.atan2(2.0 * z, rho * rho + z * z - 1.0) % (2.0 * math.pi)
        if w <= 0.0:
            raise DomainError("toroidal chart needs w > 0")
        return ConePoint("toroidal", (w, eta, phi), self.tau)

    def to_spheroidal(self) -> "ConePoint":
        if self.chart == "spheroidal":
            return self
        rho, z, phi = self.to_cylindrical().coords
        A = rho * rho + z * z + 1.0
        u2 = 0.5 * (A + math.sqrt(max(A * A - 4.0 * z * z, 0.0)))
        u = math.sqrt(u2)
        if u <= 1.0:
            raise DomainError("point on the focal segment; spheroidal chart singular")
        sigma = math.acosh(u)
        theta = math.acos(min(1.0, max(-1.0, z / u)))
        return ConePoint("spheroidal", (sigma, theta, phi), self.tau)

    def scaled(self, s: float) -> "ConePoint":
        """Point at s times the Euclidean position (same phi, tau scaled)."""
        rho, z, phi = self.to_cylindrical().coords
        tau = None if self.tau is None else s * self.tau
        return ConePoint("cylindrical", (s * rho, s * z, phi), tau)


def _pair_cyl(x: ConePoint, xp: ConePoint):
    a, b = x.to_cylindrical(), xp.to_cylindrical()
    rho1, z1, phi1 = a.coords
    rho2, z2, phi2 = b.coords
    dphi = math.remainder(phi1 - phi2, 2.0 * math.pi)
    t1 = 0.0 if a.tau is None else a.tau
    t2 = 0.0 if b.tau is None else b.tau
    return rho1, z1, rho2, z2, dphi, t1 - t2


def _guard_separation(x: ConePoint, xp: ConePoint, alpha: float, with_tau: bool):
    """`_pair_cyl(x, xp)` of a pair at least COINCIDENCE_TOL apart on the cone."""
    check_alpha(alpha)
    pair = rho1, z1, rho2, z2, dphi, dtau = _pair_cyl(x, xp)
    d2 = (z1 - z2) ** 2 + (rho1 - rho2) ** 2 \
        + 2.0 * rho1 * rho2 * alpha * alpha * (1.0 - math.cos(dphi))
    if d2 + (dtau * dtau if with_tau else 0.0) < COINCIDENCE_TOL ** 2:
        raise CoincidenceError("point pair closer than the coincidence guard")
    return pair


@dataclass(frozen=True)
class SeparationInvariants:
    """The (zeta, chi, cos_gamma) triple of a point pair.

    zeta = (dtau^2 + r^2 + r'^2) / (2 r r') and
    cosh(chi) = (zeta - cos(theta)cos(theta')) / (sin(theta)sin(theta'));
    the triple satisfies
    zeta = cos_gamma + (cosh chi - cos dphi) sin(theta) sin(theta').
    """

    zeta: float
    chi: float
    cos_gamma: float

    @classmethod
    def from_points(cls, x: ConePoint, xp: ConePoint) -> "SeparationInvariants":
        rho1, z1, rho2, z2, dphi, dtau = _pair_cyl(x, xp)
        r1, r2 = math.hypot(rho1, z1), math.hypot(rho2, z2)
        zeta = (dtau * dtau + r1 * r1 + r2 * r2) / (2.0 * r1 * r2)
        dcosh = (dtau * dtau + (z1 - z2) ** 2 + (rho1 - rho2) ** 2) / (2.0 * rho1 * rho2)
        chi = arccosh1p(dcosh)
        cg = (z1 * z2 + rho1 * rho2 * math.cos(dphi)) / (r1 * r2)
        return cls(zeta=zeta, chi=chi, cos_gamma=cg)


# ----------------------------------------------------------------------
# the generalized-Heine double sum and its closed form
# ----------------------------------------------------------------------

def heine_double_sum(alpha: float, theta: float, theta_p: float, dphi: float,
                     zeta: float, tol: float = 1e-8):
    """sum_m e^{i m dphi} sum_l (2 lam + 1) [G(lam+mu+1)/G(lam-mu+1)]
    P_lam^{-mu}(cos th) P_lam^{-mu}(cos th') Q_lam(zeta),
    lam = l - |m| + |m|/alpha, mu = |m|/alpha.

    Returns (value, certified_tail, lmax_used, mmax_used) of `mode_sum`,
    whose closed bands are e^{-m chi/alpha} / (sin th sin th' sinh chi),
    cosh chi = (zeta - cos th cos th') / (sin th sin th'): they count the
    bands, or refuse, before any Legendre chain is built.  Bands whose mu
    differ by integers read one log-Q chain, started at the first one's mu:
    a block of bands builds it at most once, to the largest degree the
    block reads and at least doubled, and a longer chain keeps the values
    of a shorter one.
    """
    check_alpha(alpha)
    if not zeta > 1.0 + 1e-6:
        raise DomainError(
            f"heine_double_sum needs zeta > 1 + 1e-6, got zeta = {zeta}")
    x1, x2 = math.cos(theta), math.cos(theta_p)
    xi = math.acosh(zeta)               # Q_lam(zeta) ~ e^{-lam xi}
    ss = math.sin(theta) * math.sin(theta_p)
    chi = math.acosh(max(zeta, (zeta - x1 * x2) / ss)) if ss > 0.0 else xi
    top = 1.0 / (ss * math.sinh(chi)) if ss > 0.0 else 0.0  # 0 at a pole
    chains = {}                         # lattice start mu0: log Qbar_{mu0+j}(zeta)

    def rows(ms, count):
        mu = np.asarray(ms) / alpha
        lam = np.add.outer(mu, np.arange(count))
        flat, log_q = mu.ravel(), np.empty((mu.size, count))
        left, known = np.ones(mu.size, dtype=bool), list(chains)
        while left.any():               # the known lattices first, then new ones
            mu0 = known.pop(0) if known else float(flat[left.argmax()])
            d = flat - mu0
            on = left & (np.abs(d - np.round(d)) <= 1e-12 * (1.0 + flat))
            if not on.any():
                continue
            j = np.round(d[on]).astype(int)
            size, need = len(chains.get(mu0, ())), int(j.max()) + count
            if size < need:             # at least doubled: few rebuilds over many blocks
                # Qbar > 0 at order 0: its chain is its log offset
                chains[mu0] = specfun.legendre_Qbar_axis_sequence(
                    mu0, 0.0, zeta, max(2 * size, need))[1]
            log_q[on] = chains[mu0][np.add.outer(j, np.arange(count))]
            left &= ~on
        # Q = Qbar Gamma(lam+1) / Gamma(lam+3/2)
        log_q = log_q.reshape(lam.shape) + log_gamma(lam + 1.0) - log_gamma(lam + 1.5)
        return (2.0 * lam + 1.0) * specfun.ferrers_band(mu, x1, x2, count, log_q)

    return mode_sum(rows, tol, dphi, xi,
                    lambda m: top * math.exp(-m * chi / alpha))


def heine_kernel(alpha: float, chi: float, dphi: float, scale: float) -> float:
    """sinh(chi/alpha) / [scale sinh chi (cosh(chi/alpha) - cos dphi)], the
    generalized Heine kernel: the last factor as 2 sinh^2(chi/(2 alpha)) +
    2 sin^2(dphi/2), the ratio by its series where chi/alpha < 1e-8, and
    CoincidenceError where that factor is below 1e-14 (a null image)."""
    denom = 2.0 * math.sinh(0.5 * chi / alpha) ** 2 + 2.0 * math.sin(0.5 * dphi) ** 2
    if denom < 1e-14:
        raise CoincidenceError("generalized Heine kernel at a null-separated image")
    if chi / alpha < 1e-8:
        ratio = (1.0 / alpha) * (1.0 + chi * chi * (1.0 / (alpha * alpha) - 1.0) / 6.0)
    else:
        ratio = math.sinh(chi / alpha) / math.sinh(chi)
    return ratio / (scale * denom)


def generalized_heine_rhs(alpha: float, theta: float, theta_p: float,
                          dphi: float, chi: float) -> float:
    """`heine_kernel` at scale sin th sin th': `heine_double_sum` in closed form."""
    if not chi > 0.0:
        raise DomainError(f"chi must be positive, got {chi}")
    return heine_kernel(alpha, chi, dphi, math.sin(theta) * math.sin(theta_p))


# ----------------------------------------------------------------------
# 4D Green's function
# ----------------------------------------------------------------------

def g4_closed(x: ConePoint, xp: ConePoint, alpha: float) -> float:
    """Closed form of the 4D Euclidean Green's function on the cone:
    `heine_kernel` with scale 8 pi^2 alpha rho rho'."""
    rho1, _, rho2, _, dphi, _ = _guard_separation(x, xp, alpha, with_tau=True)
    chi = SeparationInvariants.from_points(x, xp).chi
    return heine_kernel(alpha, chi, dphi, 8.0 * math.pi ** 2 * alpha * rho1 * rho2)


def g4_modesum_spherical(x: ConePoint, xp: ConePoint, alpha: float,
                         tol: float = 1e-8) -> float:
    """Spherical-polar mode sum of the 4D Green's function (omega integral
    already performed, leaving Q_lambda(zeta))."""
    dphi = _guard_separation(x, xp, alpha, with_tau=True)[4]
    s1, s2 = x.to_spherical(), xp.to_spherical()
    r1, th1, _ = s1.coords
    r2, th2, _ = s2.coords
    inv = SeparationInvariants.from_points(x, xp)
    value = heine_double_sum(alpha, th1, th2, dphi, inv.zeta, tol=tol)[0]
    return value / (8.0 * math.pi ** 2 * alpha * r1 * r2)


def bessel_integral_lhs(lam: float, r_lt: float, r_gt: float, dtau: float,
                        tol: float = 1e-10) -> float:
    """integral_0^oo cos(omega dtau) I_{lam+1/2}(omega r<) K_{lam+1/2}(omega r>) domega.

    Equals Q_lam(zeta) / (2 sqrt(r r')) for lam > -1.  Oscillation-aware:
    the Fourier weight is handed to QUADPACK's cycle-splitting rule.
    """
    if lam <= -1.0 + 1e-6:
        raise DomainError(f"integral diverges as lambda -> -1; got {lam}")
    if not 0.0 < r_lt <= r_gt:
        raise DomainError(f"need 0 < r< <= r>, got {r_lt}, {r_gt}")
    from scipy.special import ive, kve
    order = lam + 0.5
    gap = r_gt - r_lt

    def f(w):
        if w == 0.0:
            return 0.0
        # scaled product: I_nu(a) K_nu(b) = ive(nu,a) kve(nu,b) e^{a-b}
        return float(ive(order, w * r_lt) * kve(order, w * r_gt)
                     * math.exp(-w * gap))

    options = (dict(epsrel=1e-12) if dtau == 0.0
               else dict(weight="cos", wvar=abs(dtau), limlst=300))
    return quadpack(f, 0.0, np.inf, "omega-integral", tol, tol, **options)[0]


# ----------------------------------------------------------------------
# 3D representations
# ----------------------------------------------------------------------

def g3_spherical_sum(x: ConePoint, xp: ConePoint, alpha: float,
                     tol: float = 1e-8) -> float:
    """3D mode sum in spherical polars: terms (r</r>)^lam decay geometrically,
    so nearly equal radii are rejected (the identity harness handles the
    r -> r' limit by Wynn's epsilon-algorithm instead)."""
    dphi = _guard_separation(x, xp, alpha, with_tau=False)[4]
    s1, s2 = x.to_spherical(), xp.to_spherical()
    r1, th1, _ = s1.coords
    r2, th2, _ = s2.coords
    r_lt, r_gt = min(r1, r2), max(r1, r2)
    rate = math.log(r_gt / r_lt)
    x1, x2 = math.cos(th1), math.cos(th2)

    def band(m, count):
        # (r</r>)^lam / r>
        log_radial = -(m / alpha + np.arange(count)) * rate - math.log(r_gt)
        return specfun.ferrers_band(m / alpha, x1, x2, count, log_radial)

    return mode_sum(band, tol, dphi, rate)[0] / (4.0 * math.pi * alpha)


def g3_cylindrical_Qsum(x: ConePoint, xp: ConePoint, alpha: float,
                        tol: float = 1e-8) -> float:
    """3D Green's function as the azimuthal sum of Q_{|m|/alpha - 1/2}(u),
    u = ((z-z')^2 + rho^2 + rho'^2) / (2 rho rho')."""
    rho1, z1, rho2, z2, dphi, _ = _guard_separation(x, xp, alpha, with_tau=False)
    u = 1.0 + ((z1 - z2) ** 2 + (rho1 - rho2) ** 2) / (2.0 * rho1 * rho2)
    if u <= 1.0 + 1e-12:
        raise CoincidenceError("u = 1: pair on the same azimuthal circle")

    value, _, _ = sum_m_bands(
        lambda m: (specfun.legendre_Qhat_axis(m / alpha - 0.5, 0.0, u), 0.0),
        tol, dphi)
    return value / (4.0 * math.pi ** 2 * alpha * math.sqrt(rho1 * rho2))


def g3_axisym_integral(x: ConePoint, xp: ConePoint, alpha: float,
                       tol: float = 1e-8) -> float:
    """3D Green's function from general axisymmetric potential theory:
    per-m integrals of sin^{2 mu} Psi over the half-period."""
    rho1, z1, rho2, z2, dphi, _ = _guard_separation(x, xp, alpha, with_tau=False)
    base = (z1 - z2) ** 2 + rho1 * rho1 + rho2 * rho2
    lr = math.log(rho1 * rho2)

    def band(m: int):
        mu = m / alpha

        def integrand(psi):
            s = math.sin(psi)
            D = base - 2.0 * rho1 * rho2 * math.cos(psi)
            return math.exp(mu * (lr + 2.0 * math.log(s)) - (mu + 0.5) * math.log(D)) \
                if s > 0.0 else 0.0

        return quadpack(integrand, 0.0, math.pi, f"axisymmetric integral m={m}",
                        1e-11, 10.0 * tol)[0], 0.0

    value, _, _ = sum_m_bands(band, tol, dphi)
    return value / (4.0 * math.pi ** 2 * alpha)


def linet_kernel(u: float, psi: float, alpha: float) -> float:
    """F_alpha(u, psi) over a common denominator:
    2 sin(pi/a) [cos(pi/a) - cosh(u/a) cos(psi)] /
    [(cosh(u/a) - cos(psi - pi/a)) (cosh(u/a) - cos(psi + pi/a))].

    Evaluated through sech(u/a) so large u never overflows."""
    y = u / alpha
    spa, cpa = math.sin(math.pi / alpha), math.cos(math.pi / alpha)
    # vi = 1/cosh(y), computed overflow-free
    e = math.exp(-abs(y))
    vi = 2.0 * e / (1.0 + e * e)
    num = 2.0 * spa * (cpa * vi - math.cos(psi)) * vi
    den = ((1.0 - math.cos(psi - math.pi / alpha) * vi)
           * (1.0 - math.cos(psi + math.pi / alpha) * vi))
    return num / den


def g3_linet(x: ConePoint, xp: ConePoint, alpha: float,
             tol: float = 1e-8) -> float:
    """Linet's representation (B. Linet, Phys. Rev. D 35, 536 (1987)), valid
    for alpha in (1/2, 1]: the direct images alpha (dphi + 2 pi n) with
    |dphi + 2 pi n| < pi/alpha, plus int_0^oo F_alpha(u, dphi) / sqrt(base +
    2 rho rho' cosh u) du by `quadpack`.  A pair within 1e-2 of a null image
    (|dphi + 2 pi n| = pi/alpha) is a DomainError: there the u-integrand
    barely decays, QUADPACK fails from 2e-3 to 2e-4 in (by alpha), and at
    the null image F_alpha has a pole."""
    if not 0.5 < alpha <= 1.0:
        raise DomainError(f"g3_linet requires alpha in (1/2, 1], got {alpha}")
    rho1, z1, rho2, z2, dphi, _ = _guard_separation(x, xp, alpha, with_tau=False)
    base = (z1 - z2) ** 2 + rho1 * rho1 + rho2 * rho2
    total = 0.0
    for n in (-1, 0, 1):
        ang = dphi + 2.0 * math.pi * n
        margin = math.pi / alpha - abs(ang)
        if abs(margin) < 1e-2:
            raise DomainError("pair within 1e-2 of a null image "
                              f"(|dphi + 2 pi n| = pi/alpha, margin {margin:.1e})")
        if margin > 0.0:
            sigma = math.sqrt(base - 2.0 * rho1 * rho2 * math.cos(alpha * ang))
            total += 1.0 / (4.0 * math.pi * sigma)
    if alpha == 1.0:
        return total  # F_1 vanishes identically

    # base + 2 rho rho' cosh u = 2 rho rho' (c + cosh u)
    rr = 2.0 * rho1 * rho2
    c = base / rr

    def integrand(u):
        if u > 600.0:   # kernel ~ e^{-u/alpha}, denominator ~ e^{u/2}: far below eps
            return 0.0
        return linet_kernel(u, dphi, alpha) / math.sqrt(c + math.cosh(u))

    val = quadpack(integrand, 0.0, np.inf, "Linet u-integral", 1e-11 * math.sqrt(rr),
                   10.0 * tol)[0]
    return total + val / math.sqrt(rr) / (8.0 * math.pi ** 2 * alpha)


# -- toroidal ----------------------------------------------------------

def _toroidal_terms(alpha, m, w_lt, w_gt, deta, count):
    """c_0, then 2 cos(n deta) c_n for n = 1..count-1: the folded toroidal
    n-sum, c_n = G(n+mu+1/2)/G(n-mu+1/2) P_{n-1/2}^{-mu}(cosh w<)
    Qhat_{n-1/2}^{-mu}(cosh w>), mu = |m|/alpha, the `specfun.axis_band` at
    degree n - 1/2, whose Qbar absorbs the G(n-mu+1/2) poles, so half-odd-
    integer orders mu are regular here."""
    sign, log_abs = specfun.axis_band(-0.5, abs(m) / alpha, w_lt, w_gt, count)
    t = sign * np.exp(log_abs) * np.cos(np.arange(count) * deta)
    t[1:] *= 2.0
    return t


def _toroidal_rate(w_lt, w_gt, deta):
    """`sum_l`'s rate of the toroidal n-sum: w> - w<, or None (a Wynn limit)
    at or below MIN_RATE, where |deta| < 1e-6 leaves no oscillation and
    the sum is refused before any term."""
    rate = w_gt - w_lt
    if rate <= MIN_RATE and abs(deta) < 1e-6:
        raise SlowConvergenceError(
            "toroidal n-sum has no decay and no oscillation (w=w', deta=0)")
    return rate if rate > MIN_RATE else None


def g3_toroidal_sum(x: ConePoint, xp: ConePoint, alpha: float,
                    tol: float = 1e-8) -> float:
    """3D Green's function as the toroidal-harmonic double sum."""
    dphi = _guard_separation(x, xp, alpha, with_tau=False)[4]
    t1, t2 = x.to_toroidal(), xp.to_toroidal()
    w1, eta1, _ = t1.coords
    w2, eta2, _ = t2.coords
    deta = math.remainder(eta1 - eta2, 2.0 * math.pi)
    w_lt, w_gt = min(w1, w2), max(w1, w2)
    pref = math.sqrt((math.cosh(w1) - math.cos(eta1)) * (math.cosh(w2) - math.cos(eta2)))

    value = mode_sum(lambda m, n: _toroidal_terms(alpha, m, w_lt, w_gt, deta, n),
                     tol, dphi, _toroidal_rate(w_lt, w_gt, deta))[0]
    return pref * value / (4.0 * math.pi ** 2 * alpha)


# -- prolate spheroidal ------------------------------------------------

def _spheroidal_terms(alpha, m, th1, th2, s_lt, s_gt, count):
    """(2 lam + 1) gr^2 P^{-mu}_lam(cos th) P^{-mu}_lam(cos th')
    P^{-mu}_lam(cosh s<) Qhat^{-mu}_lam(cosh s>), lam = mu + k for k < count,
    mu = |m|/alpha, each the Ferrers band with the `specfun.axis_band` as
    its log factor; summed at rate s> - s< (at mu of about 100 the terms still
    grow at that cutoff, which `sum_l` refuses)."""
    mu = abs(m) / alpha
    lam = mu + np.arange(count, dtype=float)
    # gr^2 * Qhat = gr * [G(lam+mu+1) / G(lam+3/2)] * Qbar, gr in the band
    sign, log_axis = specfun.axis_band(mu, mu, s_lt, s_gt, count)
    return (2.0 * lam + 1.0) * sign * specfun.ferrers_band(
        mu, math.cos(th1), math.cos(th2), count, log_axis)


def g3_spheroidal_sum(x: ConePoint, xp: ConePoint, alpha: float,
                      tol: float = 1e-8) -> float:
    """3D Green's function as the prolate-spheroidal mode sum (the
    four-Legendre-product series)."""
    dphi = _guard_separation(x, xp, alpha, with_tau=False)[4]
    p1, p2 = x.to_spheroidal(), xp.to_spheroidal()
    s1, th1, _ = p1.coords
    s2, th2, _ = p2.coords
    s_lt, s_gt = min(s1, s2), max(s1, s2)
    return mode_sum(lambda m, n: _spheroidal_terms(alpha, m, th1, th2, s_lt, s_gt, n),
                    tol, dphi, s_gt - s_lt)[0] / (4.0 * math.pi * alpha)
