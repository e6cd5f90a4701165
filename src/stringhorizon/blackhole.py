"""Schwarzschild-plus-string sector: mode structure, radial Green's
function, horizon-limited Green's function, and geometric subtraction terms.

Radial variable: eta = r/M - 1, horizon at eta = 1.  The n = 0 radial
solutions are Legendre P_lambda / Q_lambda of eta; for n != 0 the equation
is integrated between a Frobenius start at the horizon (indicial exponents
+-|n|/2) and a decaying start at an outer boundary, by Taylor series of the
equation itself: its coefficients are polynomials in eta - 1, so each step's
series follows from one short recurrence.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .conespace import check_alpha, generalized_heine_rhs, heine_double_sum
from .errors import DomainError, SeriesRadiusError, StiffnessError
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
    if not (float(l).is_integer() and float(m).is_integer()):
        raise DomainError(f"l and m must be integers, got l = {l}, m = {m}")
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
_Q_T_MIN = 1e-6         # eta - 1 where the inward solve of q ends


def frobenius_coefficients(n: int, lam: float, exponent: float,
                           nterms: int) -> np.ndarray:
    """Series coefficients a_j of chi = t^s sum a_j t^j (t = eta - 1) for the
    radial equation, s = exponent = +-|n|/2, a_0 = 1."""
    n2 = float(n * n)
    ll = lam * (lam + 1.0)
    s = exponent
    a = [1.0]
    for j in range(1, nterms):
        A = 4.0 * j * (j + 2.0 * s)     # 4 (s + j)^2 - n^2 at s^2 = n^2 / 4
        if A == 0.0:
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


def _frobenius(a: np.ndarray, n: int, t: float) -> tuple[float, float]:
    """(chi, chi') of the series chi = sum_j a_j t^(|n|/2 + j) at t; a value
    beyond float range (at astronomically large n) raises StiffnessError."""
    e = abs(n) / 2.0 + np.arange(a.size)
    with np.errstate(over="ignore", invalid="ignore"):
        v, dv = float(np.sum(a * t ** e)), float(np.sum(a * e * t ** (e - 1.0)))
    if not (math.isfinite(v) and math.isfinite(dv)):
        raise StiffnessError(f"Frobenius start overflowed at eta - 1 = {t:.6g}")
    return v, dv


# ----------------------------------------------------------------------
# Taylor steps of the radial equation (Corliss & Chang, ACM TOMS 8, 114 (1982))
# ----------------------------------------------------------------------

_TERMS = 28     # Taylor coefficients per step
_TAIL = 1e-16   # weight of a step's last two terms against |c_0| + |c_1|
_REACH = 0.4    # longest step over t_c, the distance to the singular point t = 0
_M_MM1 = tuple((float(m), float(m * (m - 1))) for m in range(2, _TERMS))


def _shifted(poly, tc, s, f):
    """Coefficients in x of f poly(tc + s x), poly a cubic, by synthetic division."""
    p0, p1, p2, p3 = poly
    p2 += tc * p3
    p1 += tc * p2
    p0 += tc * p1
    p2 += tc * p3
    p1 += tc * p2
    p2 += tc * p3
    return f * p0, f * (p1 * s), f * (p2 * s ** 2), f * (p3 * s ** 3)


def _taylor_series(polys, tc, s, c0, c1):
    """The _TERMS coefficients of chi = sum c_k x^k, x = (t - tc)/s, from
    c_0 = chi(tc) and c_1 = s chi'(tc).  The three cubics moved to
    tc + s x and times 1, s, s^2 have x^i coefficients a_i, b_(i+1) and
    g_(i+2); the x^(m-2) coefficient of the equation is then the recurrence
    sum_d [a_d k (k-1) + b_d k + g_d] c_k = 0 over k = m - d, d = 0..5."""
    a0, a1, a2, a3 = _shifted(polys[0], tc, s, 1.0)
    b1, b2, b3, _ = _shifted(polys[1], tc, s, s)
    g2, g3, g4, g5 = _shifted(polys[2], tc, s, s * s)
    # rolling floats: c_k for k = m-1..m-5, k c_k and k (k-1) c_k for
    # k = m-1..m-3, zero below k = 0
    k1, k2, k3, k4, k5 = c1, c0, 0.0, 0.0, 0.0
    v1, v2, v3, u1, u2, u3 = c1, 0.0, 0.0, 0.0, 0.0, 0.0
    c = [c0, c1]
    for m, mm1 in _M_MM1:
        cm = -(a1 * u1 + a2 * u2 + a3 * u3 + b1 * v1 + b2 * v2 + b3 * v3
               + g2 * k2 + g3 * k3 + g4 * k4 + g5 * k5) / (a0 * mm1)
        c.append(cm)
        k1, k2, k3, k4, k5 = cm, k1, k2, k3, k4
        v1, v2, v3 = m * cm, v1, v2
        u1, u2, u3 = mm1 * cm, u1, u2
    return c


def _horner(c, x):
    """(sum c_k x^k, sum k c_k x^(k-1))."""
    v = dv = 0.0
    for k in range(len(c) - 1, 0, -1):
        v = v * x + c[k]
        dv = dv * x + k * c[k]
    return v * x + c[0], dv


def _taylor_solve(n, lam, t0, t1, chi, dchi, label):
    """(chi, chi') as a function of t in [t0, t1], from (chi, dchi) at t0,
    for the radial equation in t = eta - 1 with its common factor t + 2
    removed:
        16 t^2 (t+2) chi'' + 32 t (t+1) chi' - [16 lam(lam+1) t + n^2 (t+2)^3] chi = 0.
    A step at tc is scaled by the length s of the previous step (the first
    by _REACH t0), covers at most _REACH tc and is short enough that its last
    two terms weigh under _TAIL of |c_0| + |c_1|.  A point is evaluated from
    the start of its step in the direction of integration.  A non-finite
    series or a step below 10 ulp raises StiffnessError."""
    n2, ll = float(n * n), lam * (lam + 1.0)
    polys = ((0.0, 0.0, 32.0, 16.0), (0.0, 32.0, 32.0, 0.0),
             (-8.0 * n2, -12.0 * n2 - 16.0 * ll, -6.0 * n2, -n2))
    d = 1.0 if t1 >= t0 else -1.0
    keys, steps = [], []
    tc, s = t0, d * _REACH * t0
    c0, c1 = chi, s * dchi
    while True:
        c = _taylor_series(polys, tc, s, c0, c1)
        if not math.isfinite(sum(map(abs, c))):
            raise StiffnessError(
                f"{label} integration overflowed near eta - 1 = {tc:.6g}")
        keys.append(d * tc)
        steps.append((tc, s, c))
        if tc == t1:
            break
        norm = _TAIL * (abs(c0) + abs(c1))
        r = min([(norm / abs(ck)) ** (1.0 / k) for k, ck in
                 ((_TERMS - 2, c[-2]), (_TERMS - 1, c[-1])) if ck], default=math.inf)
        h = min(r * abs(s), _REACH * tc, abs(t1 - tc))
        if h < 10.0 * math.ulp(tc):
            raise StiffnessError(
                f"{label} integration failed: the step fell below 10 ulp "
                f"at eta - 1 = {tc:.6g}")
        tn = t1 if h == abs(t1 - tc) else tc + d * h
        x = (tn - tc) / s
        c0, dv = _horner(c, x)
        tc, s, c1 = tn, tn - tc, x * dv

    def solution(t):
        tc, s, c = steps[bisect.bisect_right(keys, d * t) - 1]
        v, dv = _horner(c, (t - tc) / s)
        return v, dv / s
    return solution


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

    def _check(self, eta):
        if not 1.0 < eta <= self.eta_max:
            raise DomainError(f"eta = {eta} outside (1, {self.eta_max}]")

    def _check_q(self, eta):
        self._check(eta)
        if eta - 1.0 < _Q_T_MIN:
            raise DomainError(
                f"q is integrated down to eta - 1 = {_Q_T_MIN:g}, got eta = {eta}")

    def p(self, eta: float) -> float:
        self._check(eta)
        return self._p_sol(eta - 1.0)[0]

    def dp(self, eta: float) -> float:
        self._check(eta)
        return self._p_sol(eta - 1.0)[1]

    def q(self, eta: float) -> float:
        self._check_q(eta)
        return self._q_sol(eta - 1.0)[0] / self._q_norm

    def dq(self, eta: float) -> float:
        self._check_q(eta)
        return self._q_sol(eta - 1.0)[1] / self._q_norm


def radial_solutions(n: int, lam: float, geometry: DeficitGeometry | None = None,
                     eta_max: float = 20.0) -> RadialSolutionPair:
    """Construct the normalized (p, q) pair for n != 0.

    p starts from an 8-term Frobenius series at eta = 1 + 1e-4 and integrates
    outward; q starts from the decaying large-eta behavior e^{-|n| eta/4}/eta
    at eta_max and integrates inward to eta = 1 + 1e-6, then is rescaled so
    its fitted (eta-1)^{-|n|/2} coefficient is 1; q and dq are defined for
    eta - 1 >= 1e-6 only.  Both are integrated by Taylor steps of the
    equation in t = eta - 1 (see _taylor_solve).

    In the eta variable the equation is mass-free (kappa M = 1/4) and alpha
    enters only through lam, so `geometry` is not read.
    """
    if n == 0:
        raise DomainError("radial_solutions handles n != 0; use the analytic branch")
    if not n * n <= sys.float_info.max:
        raise DomainError(f"|n| = 2^{math.log2(abs(n)):.1f}: n^2 leaves float range")
    if not (lam >= 0.0 and lam * (lam + 1.0) < math.inf):
        raise DomainError(
            f"lambda must be >= 0 with lambda (lambda + 1) finite, got {lam}")
    if not 1.5 < eta_max < math.inf:
        raise DomainError(f"eta_max must be finite and exceed 1.5, got {eta_max}")
    nn = abs(n)
    t0 = _FROBENIUS_T
    a = frobenius_coefficients(n, lam, nn / 2.0, 8)
    outward = _taylor_solve(n, lam, t0, eta_max - 1.0, *_frobenius(a, n, t0),
                            "outward")

    def p_sol(t):                       # the Frobenius series below t0
        return _frobenius(a, n, t) if t < t0 else outward(t)

    q_sol = _taylor_solve(n, lam, eta_max - 1.0, _Q_T_MIN, 1.0,
                          -(nn / 4.0 + 1.0 / eta_max), "inward")

    # leading coefficient of q ~ c t^{-|n|/2}: 3-point fit with basis
    # {1, t ln t, t} removes the subleading (and possible log) terms
    ts = np.array([_Q_T_MIN, 2.0 * _Q_T_MIN, 4.0 * _Q_T_MIN])
    vals = np.array([q_sol(t)[0] * t ** (nn / 2.0) for t in ts])
    design = np.stack([np.ones(3), ts * np.log(ts), ts], axis=1)
    q_norm = float(np.linalg.solve(design, vals)[0])
    if q_norm == 0.0 or not math.isfinite(q_norm):
        raise StiffnessError("q normalization fit failed")

    pair = RadialSolutionPair(n=n, lam=lam, eta_max=eta_max,
                              wronskian_scale=0.0, wronskian_spread=0.0,
                              _p_sol=p_sol, _q_sol=q_sol, _q_norm=q_norm)
    w = []
    for e in np.geomspace(1.01, min(5.0, eta_max), 9):
        pair._check_q(e)                # one (p, dp) and one (q, dq) per eta
        (p, dp), (q, dq) = p_sol(e - 1.0), q_sol(e - 1.0)
        w.append((e * e - 1.0) * (p * (dq / q_norm) - dp * (q / q_norm)))
    w = np.array(w)
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
        pair = radial_solutions(n, lam, eta_max=max(20.0, 2.0 * hi))
    return pair.p(lo) * pair.q(hi) / (2.0 * abs(n) * geometry.alpha * geometry.M)


def horizon_green(theta: float, theta_p: float, dphi: float, eta: float,
                  geometry: DeficitGeometry, tol: float = 1e-8) -> float:
    """Green's function with one point on the horizon (only n = 0 survives):
    the generalized-Heine double sum with Q_lambda(eta)."""
    if not eta > 1.0:
        raise DomainError(f"exterior point needs eta > 1, got {eta}")
    value = heine_double_sum(geometry.alpha, theta, theta_p, dphi, eta,
                             tol=tol)[0]
    return value / (32.0 * math.pi ** 2 * geometry.M ** 2 * geometry.alpha)


def horizon_green_closed(theta: float, theta_p: float, dphi: float, eta: float,
                         geometry: DeficitGeometry) -> float:
    """Closed form of horizon_green via the generalized Heine identity."""
    if not eta > 1.0:
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
    """Radial geodesic distance int_2M^{2M+eps} dr / sqrt(1 - 2M/r) from the
    horizon, in closed form: sqrt(eps (2M + eps)) + 2M asinh(sqrt(eps/2M))."""
    _check_eps(epsilon, geometry)
    M = geometry.M
    return (math.sqrt(epsilon * (2.0 * M + epsilon))
            + 2.0 * M * math.asinh(math.sqrt(epsilon / (2.0 * M))))


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
