"""Schwarzschild-plus-string sector: mode structure, radial Green's
function, horizon-limited Green's function, and geometric subtraction terms.

Radial variable: eta = r/M - 1, horizon at eta = 1.  The n = 0 radial
solutions are Legendre P_lambda / Q_lambda of eta; for n != 0 the equation
is integrated numerically between a Frobenius start at the horizon
(indicial exponents +-|n|/2) and a decaying start at an outer boundary,
by a DOP853 stepper on Python floats.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from operator import mul

import numpy as np

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


def _radial_rhs(n, lam):
    """(u', u'') of the radial equation in s = ln(eta - 1), u(s) = chi(1 + e^s):
    (1 + 2 e^{-s}) u'' + u' = V(s) u."""
    ll = lam * (lam + 1.0)
    n2 = n * n

    def rhs(sv, u, up):
        t = math.exp(sv)
        V = ll + n2 * (2.0 + t) ** 4 / (16.0 * t * (t + 2.0))
        return up, (V * u - up) / (1.0 + 2.0 / t)
    return rhs


# ----------------------------------------------------------------------
# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.10) on floats
# ----------------------------------------------------------------------

_RTOL, _ATOL = 1e-11, 1e-300
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0     # the error estimator has order 7


@functools.cache
def _dop853_tableau():
    """scipy's DOP853 coefficients as floats: C, the rows A[s, :s] of all 16
    stages, B, E3, E5 and the interpolant's D."""
    from scipy.integrate._ivp import dop853_coefficients as c
    rows = tuple(tuple(c.A[s, :s].tolist()) for s in range(c.N_STAGES_EXTENDED))
    return (tuple(c.C.tolist()), rows, tuple(c.B.tolist()), tuple(c.E3.tolist()),
            tuple(c.E5.tolist()), tuple(tuple(r) for r in c.D.tolist()))


def _rms(a, b):
    return math.sqrt(a * a + b * b) / math.sqrt(2.0)


class _Dop853:
    """(u, u') from s0 to s1 by the steps of scipy's DOP853 integrator at
    rtol 1e-11, atol 1e-300, on two Python floats: the same initial step,
    RMS error norm with its E3/E5 correction, and step control.  Calling it
    at s in [s0, s1] evaluates the 7th-order interpolant of the step holding
    s (at a step boundary, the step that ends there), built on first use.
    A non-finite state or error norm, or a step below 10 ulp, raises
    StiffnessError."""

    def __init__(self, rhs, s0, s1, y0, label):
        _, _, B, E3, E5, _ = self._tableau = _dop853_tableau()
        self._rhs = rhs
        self._dir = d = 1.0 if s1 >= s0 else -1.0
        t, (u, up) = s0, y0
        fu, fp = rhs(t, u, up)
        h_abs = self._initial_step(t, u, up, fu, fp, s1)
        self.ts, self._ys, self._k, self._dense = [t], [(u, up)], [], {}
        while d * (t - s1) < 0.0:
            min_step = 10.0 * abs(math.nextafter(t, d * math.inf) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                if h_abs < min_step:
                    raise StiffnessError(
                        f"{label} integration failed: the step fell below 10 ulp "
                        f"at eta - 1 = {math.exp(t):.6g}")
                t_new = t + h_abs * d
                if d * (t_new - s1) > 0.0:
                    t_new = s1
                h = t_new - t
                h_abs = abs(h)
                ku, kp = self._stages_to(12, t, h, u, up, [fu], [fp])
                u1 = u + h * sum(map(mul, B, ku))
                up1 = up + h * sum(map(mul, B, kp))
                fu1, fp1 = rhs(t + h, u1, up1)
                ku.append(fu1)
                kp.append(fp1)
                su = _ATOL + max(abs(u), abs(u1)) * _RTOL
                sp = _ATOL + max(abs(up), abs(up1)) * _RTOL
                e5u, e5p = sum(map(mul, E5, ku)) / su, sum(map(mul, E5, kp)) / sp
                e3u, e3p = sum(map(mul, E3, ku)) / su, sum(map(mul, E3, kp)) / sp
                e5, e3 = e5u * e5u + e5p * e5p, e3u * e3u + e3p * e3p
                err = 0.0 if e5 == 0.0 and e3 == 0.0 else (
                    h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * 2.0))
                if not all(map(math.isfinite, (u1, up1, fu1, fp1, err))):
                    raise StiffnessError(
                        f"{label} integration overflowed near eta - 1 = "
                        f"{math.exp(t):.6g}")
                if err < 1.0:
                    factor = _MAX_FACTOR if err == 0.0 else min(
                        _MAX_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
                    h_abs *= min(1.0, factor) if rejected else factor
                    break
                h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
                rejected = True
            self._k.append((ku, kp))
            t, u, up, fu, fp = t_new, u1, up1, fu1, fp1
            self.ts.append(t)
            self._ys.append((u, up))
        self._keys = [d * x for x in self.ts]

    def _initial_step(self, t, u, up, fu, fp, s1):
        """scipy's select_initial_step (Hairer, Norsett & Wanner, sec. II.4)."""
        length = abs(s1 - t)
        su, sp = _ATOL + abs(u) * _RTOL, _ATOL + abs(up) * _RTOL
        d0, d1 = _rms(u / su, up / sp), _rms(fu / su, fp / sp)
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, length)
        hd = h0 * self._dir
        gu, gp = self._rhs(t + hd, u + hd * fu, up + hd * fp)
        d2 = _rms((gu - fu) / su, (gp - fp) / sp) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
        return min(100.0 * h0, h1, length)

    def _stages_to(self, stop, t, h, u, up, ku, kp):
        """Append the stages len(ku) .. stop - 1 of the step (t, h) from
        (u, up) to the stage lists ku, kp and return them."""
        C, A = self._tableau[:2]
        for s in range(len(ku), stop):
            a = A[s]
            gu, gp = self._rhs(t + C[s] * h, u + sum(map(mul, a, ku)) * h,
                               up + sum(map(mul, a, kp)) * h)
            ku.append(gu)
            kp.append(gp)
        return ku, kp

    def _interpolant(self, i):
        """(y, F[0..6]) of step i per component, F[3..6] from the three
        extra stages of the extended tableau."""
        if i not in self._dense:
            t, h = self.ts[i], self.ts[i + 1] - self.ts[i]
            (u, up), (u1, up1) = self._ys[i], self._ys[i + 1]
            ku, kp = self._stages_to(16, t, h, u, up, *self._k[i])
            self._dense[i] = tuple(
                (y, dy, h * k[0] - dy, 2.0 * dy - h * (k[12] + k[0]),
                 *(h * sum(map(mul, row, k)) for row in self._tableau[5]))
                for y, dy, k in ((u, u1 - u, ku), (up, up1 - up, kp)))
        return self._dense[i]

    def __call__(self, s):
        i = max(bisect.bisect_left(self._keys, self._dir * s) - 1, 0)
        h = self.ts[i + 1] - self.ts[i]
        x = (s - self.ts[i]) / h
        out = []
        for y0, *F in self._interpolant(i):
            y = 0.0
            for j in range(6, -1, -1):      # odd j multiply by 1 - x
                y = (y + F[j]) * (x if j % 2 == 0 else 1.0 - x)
            out.append(y + y0)
        return out


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

    def _check_q(self, eta):
        self._check(eta)
        if eta - 1.0 < _Q_T_MIN:
            raise DomainError(
                f"q is integrated down to eta - 1 = {_Q_T_MIN:g}, got eta = {eta}")

    def p(self, eta: float) -> float:
        self._check(eta)
        t = eta - 1.0
        if t < _FROBENIUS_T:
            ks = np.arange(self._series.size)
            return float(np.sum(self._series * t ** (abs(self.n) / 2.0 + ks)))
        return self._p_sol(math.log(t))[0]

    def dp(self, eta: float) -> float:
        self._check(eta)
        t = eta - 1.0
        if t < _FROBENIUS_T:
            ks = np.arange(self._series.size)
            e = abs(self.n) / 2.0 + ks
            return float(np.sum(self._series * e * t ** (e - 1.0)))
        return self._p_sol(math.log(t))[1] / t

    def q(self, eta: float) -> float:
        self._check_q(eta)
        return self._q_sol(math.log(eta - 1.0))[0] / self._q_norm

    def dq(self, eta: float) -> float:
        self._check_q(eta)
        t = eta - 1.0
        return self._q_sol(math.log(t))[1] / t / self._q_norm


def radial_solutions(n: int, lam: float, geometry: DeficitGeometry | None = None,
                     eta_max: float = 20.0) -> RadialSolutionPair:
    """Construct the normalized (p, q) pair for n != 0.

    p starts from an 8-term Frobenius series at eta = 1 + 1e-4 and integrates
    outward; q starts from the decaying large-eta behavior e^{-|n| eta/4}/eta
    at eta_max and integrates inward to eta = 1 + 1e-6, then is rescaled so
    its fitted (eta-1)^{-|n|/2} coefficient is 1; q and dq are defined for
    eta - 1 >= 1e-6 only.  The equation is integrated in s = ln(eta - 1),
    where the horizon endpoint is regular, by DOP853 at rtol 1e-11.

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
    rhs = _radial_rhs(n, lam)
    p_sol = _Dop853(rhs, s0, s1, (v0, t0 * dv0), "outward")

    q0 = 1.0
    dq0 = -(nn / 4.0 + 1.0 / eta_max) * q0
    q_sol = _Dop853(rhs, s1, math.log(_Q_T_MIN), (q0, (eta_max - 1.0) * dq0),
                    "inward")

    # leading coefficient of q ~ c t^{-|n|/2}: 3-point fit with basis
    # {1, t ln t, t} removes the subleading (and possible log) terms
    ts = np.array([_Q_T_MIN, 2.0 * _Q_T_MIN, 4.0 * _Q_T_MIN])
    vals = np.array([q_sol(math.log(t))[0] * t ** (nn / 2.0) for t in ts])
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
    """Radial geodesic distance from the horizon to r = 2M + epsilon,
    s = int_2M^{2M+eps} dr / sqrt(1 - 2M/r), by quadrature (substitution
    x = u^2 removes the integrable endpoint singularity)."""
    _check_eps(epsilon, geometry)
    from scipy.integrate import quad
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
