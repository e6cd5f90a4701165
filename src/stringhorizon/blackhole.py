"""Schwarzschild-plus-string sector: mode structure, radial Green's
function, horizon-limited Green's function, and geometric subtraction terms.

Radial variable: eta = r/M - 1, horizon at eta = 1.  The n = 0 radial
solutions are Legendre P_lambda / Q_lambda of eta; for n != 0 the equation
is integrated numerically between a Frobenius start at the horizon
(indicial exponents +-|n|/2) and a decaying start at an outer boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad, solve_ivp

from . import specfun
from .conespace import check_alpha, generalized_heine_rhs, heine_double_sum
from .errors import (DomainError, QuadratureError, SeriesRadiusError,
                     StiffnessError)
from .specfun import arccosh1p

__all__ = [
    "DeficitGeometry",
    "RadialSolutionPair",
    "lambda_of",
    "radial_solutions",
    "chi_radial_green",
    "horizon_green",
    "horizon_green_closed",
    "geodesic_distance",
    "geodesic_distance_expansion",
    "g_sing",
    "frobenius_coefficients",
    "exponent_fit",
]


@dataclass(frozen=True)
class DeficitGeometry:
    """Cone deficit alpha and black-hole mass M (geometric units)."""

    alpha: float
    M: float = 1.0

    def __post_init__(self):
        check_alpha(self.alpha)
        # every result scales with 1/M^2, so M^2 must be a positive float
        if not (self.M > 0.0 and 0.0 < self.M * self.M < math.inf):
            raise DomainError(
                f"M must be positive with M^2 in floating-point range, got {self.M}")

    @property
    def kappa(self) -> float:
        """Surface gravity 1/(4M)."""
        return 1.0 / (4.0 * self.M)

    @property
    def tau_period(self) -> float:
        """Euclidean-time period 2 pi / kappa = 8 pi M."""
        return 8.0 * math.pi * self.M


def lambda_of(l: int, m: int, alpha: float) -> float:
    """lambda = l - |m| + |m|/alpha; the degree that keeps the angular
    functions regular at the poles."""
    if l < 0:
        raise DomainError(f"l must be >= 0, got {l}")
    if abs(m) > l:
        raise DomainError(f"|m| = {abs(m)} exceeds l = {l}")
    check_alpha(alpha)
    return l - abs(m) + abs(m) / alpha


# ----------------------------------------------------------------------
# radial solutions for n != 0
# ----------------------------------------------------------------------

_FROBENIUS_T = 1e-4     # eta - 1 below which p is its Frobenius series


def frobenius_coefficients(n: int, lam: float, exponent: float,
                           nterms: int) -> np.ndarray:
    """Series coefficients a_j of chi = t^s sum a_j t^j (t = eta - 1) for the
    radial equation, s = exponent = +-|n|/2, a_0 = 1."""
    n2 = float(n * n)
    ll = lam * (lam + 1.0)
    s = exponent
    a = [1.0]
    for j in range(1, nterms):
        A = 4.0 * (s + j) ** 2 - n2
        if abs(A) < 1e-10:
            raise SeriesRadiusError(
                f"second-exponent resonance at j={j} for n={n}")
        B = (4.0 * (s + j - 1) * (s + j - 2) + 6.0 * (s + j - 1)
             - 2.0 * ll - 2.0 * n2)
        C = (s + j - 2) * (s + j - 1) - ll - 1.5 * n2
        tot = B * a[j - 1]
        if j >= 2:
            tot += C * a[j - 2]
        if j >= 3:
            tot += -0.5 * n2 * a[j - 3]
        if j >= 4:
            tot += -(n2 / 16.0) * a[j - 4]
        a.append(-tot / A)
    return np.asarray(a)


def _radial_rhs(sv, y, n, lam):
    # u(s) = chi(1 + e^s):  (1 + 2 e^{-s}) u'' + u' = V(s) u
    t = math.exp(sv)
    V = lam * (lam + 1.0) + n * n * (2.0 + t) ** 4 / (16.0 * t * (t + 2.0))
    u, up = y
    upp = (V * u - up) / (1.0 + 2.0 / t)
    return (up, upp)


@dataclass
class RadialSolutionPair:
    """Horizon-regular p and boundary-regular q for one (n, lambda), n != 0,
    normalized to p ~ (eta-1)^{|n|/2}, q ~ (eta-1)^{-|n|/2} with unit
    leading coefficients."""

    n: int
    lam: float
    eta_max: float
    wronskian_scale: float
    wronskian_spread: float
    _p_sol: object = field(repr=False)
    _q_sol: object = field(repr=False)
    _q_norm: float = field(repr=False)
    _series: np.ndarray = field(repr=False)

    def _check(self, eta):
        if not 1.0 < eta <= self.eta_max:
            raise DomainError(f"eta = {eta} outside (1, {self.eta_max}]")

    def p(self, eta: float) -> float:
        self._check(eta)
        t = eta - 1.0
        if t < _FROBENIUS_T:
            ks = np.arange(self._series.size)
            return float(np.sum(self._series * t ** (abs(self.n) / 2.0 + ks)))
        return float(self._p_sol.sol(math.log(t))[0])

    def dp(self, eta: float) -> float:
        self._check(eta)
        t = eta - 1.0
        if t < _FROBENIUS_T:
            ks = np.arange(self._series.size)
            e = abs(self.n) / 2.0 + ks
            return float(np.sum(self._series * e * t ** (e - 1.0)))
        return float(self._p_sol.sol(math.log(t))[1]) / t

    def q(self, eta: float) -> float:
        self._check(eta)
        return float(self._q_sol.sol(math.log(eta - 1.0))[0]) / self._q_norm

    def dq(self, eta: float) -> float:
        self._check(eta)
        t = eta - 1.0
        return float(self._q_sol.sol(math.log(t))[1]) / t / self._q_norm


def radial_solutions(n: int, lam: float, geometry: DeficitGeometry | None = None,
                     eta_max: float = 20.0) -> RadialSolutionPair:
    """Construct the normalized (p, q) pair for n != 0.

    p starts from an 8-term Frobenius series at eta = 1 + 1e-4 and integrates
    outward; q starts from the decaying large-eta behavior e^{-|n| eta/4}/eta
    at eta_max and integrates inward, then is rescaled so its fitted
    (eta-1)^{-|n|/2} coefficient is 1.  The equation is integrated in
    s = ln(eta - 1), where the horizon endpoint is regular.

    In the eta variable the equation is mass-free (kappa M = 1/4), so
    `geometry` only fixes the normalization used downstream.
    """
    if n == 0:
        raise DomainError("radial_solutions handles n != 0; use the analytic branch")
    if not (lam >= 0.0 and lam * (lam + 1.0) < math.inf):
        raise DomainError(
            f"lambda must be >= 0 with lambda (lambda + 1) finite, got {lam}")
    if not 1.5 < eta_max < math.inf:
        raise DomainError(f"eta_max must be finite and exceed 1.5, got {eta_max}")
    nn = abs(n)
    t0 = _FROBENIUS_T
    a = frobenius_coefficients(n, lam, nn / 2.0, 8)
    ks = np.arange(a.size)
    v0 = float(np.sum(a * t0 ** (nn / 2.0 + ks)))
    dv0 = float(np.sum(a * (nn / 2.0 + ks) * t0 ** (nn / 2.0 + ks - 1.0)))
    s0, s1 = math.log(t0), math.log(eta_max - 1.0)
    p_sol = solve_ivp(_radial_rhs, (s0, s1), (v0, t0 * dv0), args=(n, lam),
                      method="DOP853", rtol=1e-11, atol=1e-300, dense_output=True)
    if not p_sol.success:
        raise StiffnessError(f"outward integration failed: {p_sol.message}")

    q0 = 1.0
    dq0 = -(nn / 4.0 + 1.0 / eta_max) * q0
    t_min = 1e-6
    q_sol = solve_ivp(_radial_rhs, (s1, math.log(t_min)),
                      (q0, (eta_max - 1.0) * dq0), args=(n, lam),
                      method="DOP853", rtol=1e-11, atol=1e-300, dense_output=True)
    if not q_sol.success:
        raise StiffnessError(f"inward integration failed: {q_sol.message}")

    # leading coefficient of q ~ c t^{-|n|/2}: 3-point fit with basis
    # {1, t ln t, t} removes the subleading (and possible log) terms
    ts = np.array([t_min, 2.0 * t_min, 4.0 * t_min])
    vals = np.array([q_sol.sol(math.log(t))[0] * t ** (nn / 2.0) for t in ts])
    design = np.stack([np.ones(3), ts * np.log(ts), ts], axis=1)
    q_norm = float(np.linalg.solve(design, vals)[0])
    if q_norm == 0.0 or not math.isfinite(q_norm):
        raise StiffnessError("q normalization fit failed")

    pair = RadialSolutionPair(n=n, lam=lam, eta_max=eta_max,
                              wronskian_scale=0.0, wronskian_spread=0.0,
                              _p_sol=p_sol, _q_sol=q_sol, _q_norm=q_norm,
                              _series=a)
    etas = np.geomspace(1.01, min(5.0, eta_max), 9)
    w = np.array([(e * e - 1.0) * (pair.p(e) * pair.dq(e) - pair.dp(e) * pair.q(e))
                  for e in etas])
    pair.wronskian_scale = float(np.mean(w))
    pair.wronskian_spread = float(np.ptp(w) / abs(np.mean(w)))
    return pair


def exponent_fit(f) -> float:
    """Near-horizon power of f(eta) ~ (eta-1)^s: 3-point Richardson slope
    fit at eta - 1 = (d, 2d, 4d), d = 2e-4, removing the O(d) correction."""
    v1, v2, v3 = f(1.0 + 2e-4), f(1.0 + 4e-4), f(1.0 + 8e-4)
    s1 = math.log2(abs(v2 / v1))
    s2 = math.log2(abs(v3 / v2))
    return 2.0 * s1 - s2


# ----------------------------------------------------------------------
# radial Green's function and horizon limit
# ----------------------------------------------------------------------

def chi_radial_green(n: int, lam: float, eta: float, eta_p: float,
                     geometry: DeficitGeometry,
                     pair: RadialSolutionPair | None = None) -> float:
    """One-dimensional radial Green's function chi_{n lambda}(eta, eta').

    n = 0:  P_lambda(eta<) Q_lambda(eta>) / (alpha M);
    n != 0: p(eta<) q(eta>) / (2 |n| alpha M).
    """
    if eta <= 1.0 or eta_p <= 1.0:
        raise DomainError("eta and eta' must exceed 1")
    lo, hi = min(eta, eta_p), max(eta, eta_p)
    if n == 0:
        return (specfun.legendre_P_axis(lam, lo) * specfun.legendre_Q(lam, hi)
                / (geometry.alpha * geometry.M))
    if pair is None:
        pair = radial_solutions(n, lam, geometry,
                                eta_max=max(20.0, 2.0 * hi))
    return pair.p(lo) * pair.q(hi) / (2.0 * abs(n) * geometry.alpha * geometry.M)


def horizon_green(theta: float, theta_p: float, dphi: float, eta: float,
                  geometry: DeficitGeometry, tol: float = 1e-8) -> float:
    """Green's function with one point on the horizon (only n = 0 survives):
    the generalized-Heine double sum with Q_lambda(eta)."""
    if eta <= 1.0:
        raise DomainError(f"exterior point needs eta > 1, got {eta}")
    value = heine_double_sum(geometry.alpha, theta, theta_p, dphi, eta,
                             tol=tol)[0]
    return value / (32.0 * math.pi ** 2 * geometry.M ** 2 * geometry.alpha)


def horizon_green_closed(theta: float, theta_p: float, dphi: float, eta: float,
                         geometry: DeficitGeometry) -> float:
    """Closed form of horizon_green via the generalized Heine identity."""
    if eta <= 1.0:
        raise DomainError(f"exterior point needs eta > 1, got {eta}")
    ss = math.sin(theta) * math.sin(theta_p)
    # cosh(chi) - 1 = (eta - cos(theta - theta_p)) / (sin sin') - 1, stable form
    dcosh = ((eta - 1.0) + 2.0 * math.sin(0.5 * (theta - theta_p)) ** 2) / ss
    chi = arccosh1p(dcosh)
    kernel = generalized_heine_rhs(geometry.alpha, theta, theta_p, dphi, chi)
    return kernel / (32.0 * math.pi ** 2 * geometry.M ** 2 * geometry.alpha)


# ----------------------------------------------------------------------
# geometric subtraction
# ----------------------------------------------------------------------

def _check_eps(epsilon: float, geometry: DeficitGeometry):
    if not 0.0 < epsilon < 0.1 * geometry.M:
        raise DomainError(
            f"epsilon = {epsilon} outside the expansion regime (0, 0.1 M)")


def geodesic_distance(epsilon: float, geometry: DeficitGeometry) -> float:
    """Radial geodesic distance from the horizon to r = 2M + epsilon,
    s = int_2M^{2M+eps} dr / sqrt(1 - 2M/r), by quadrature (substitution
    x = u^2 removes the integrable endpoint singularity)."""
    _check_eps(epsilon, geometry)
    M = geometry.M

    def f(u):
        return 2.0 * math.sqrt(2.0 * M + u * u)

    val, err = quad(f, 0.0, math.sqrt(epsilon), epsabs=1e-14, epsrel=1e-12)
    if err > max(1e-13, 1e-12 * val):
        raise QuadratureError(f"geodesic quadrature error {err:.2e}")
    return val


def geodesic_distance_expansion(epsilon: float, geometry: DeficitGeometry) -> float:
    """Two-term expansion sqrt(2 M eps) [2 + (1/3)(eps/2M)]."""
    _check_eps(epsilon, geometry)
    M = geometry.M
    return math.sqrt(2.0 * M * epsilon) * (2.0 + (epsilon / (2.0 * M)) / 3.0)


def g_sing(epsilon: float, geometry: DeficitGeometry) -> float:
    """Subtraction terms of 1/(4 pi^2 s^2) through O(1):
    1/(32 pi^2 M eps) - 1/(192 pi^2 M^2)."""
    _check_eps(epsilon, geometry)
    M = geometry.M
    return (1.0 / (32.0 * math.pi ** 2 * M * epsilon)
            - 1.0 / (192.0 * math.pi ** 2 * M * M))
