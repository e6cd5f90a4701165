"""Renormalized vacuum polarization on the horizon, by closed form and by
the independent point-splitting limit, plus the near-axis asymptote,
dominance angle, and the figure-1 data table."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blackhole import DeficitGeometry, g_sing
from .conespace import check_alpha, heine_kernel
from .errors import DomainError, ExtrapolationError
from .specfun import arccosh1p
from .summation import richardson_table

__all__ = [
    "Phi2Result",
    "phi2_closed",
    "phi2_limit",
    "phi2_result",
    "phi2_near_axis",
    "dominance_angle",
    "figure1_data",
]


@dataclass(frozen=True)
class Phi2Result:
    """Both routes to <phi^2>_ren at one (theta, alpha, M)."""

    theta: float
    alpha: float
    M: float
    value_closed: float
    value_limit: float
    extrapolation_error: float

    @property
    def route_agreement(self) -> float:
        return abs(self.value_closed - self.value_limit)


def _check_angles(theta: float, alpha: float, M: float) -> DeficitGeometry:
    if not 0.0 < theta < math.pi:
        raise DomainError(
            f"theta = {theta} at or beyond a pole; <phi^2> diverges there")
    return DeficitGeometry(alpha=alpha, M=M)


def _phi2(s2: float, alpha: float, M: float) -> float:
    """[1 + (1 - alpha^2)/(alpha^2 s2)] / (192 pi^2 M^2), s2 = sin^2 theta;
    raises DomainError where the value leaves floating-point range."""
    den = alpha * alpha * s2
    if den == 0.0:
        raise DomainError(f"alpha^2 sin^2(theta) underflows to 0 at "
                          f"alpha = {alpha}, sin^2(theta) = {s2}")
    value = (1.0 + (1.0 - alpha * alpha) / den) / (192.0 * math.pi ** 2 * M * M)
    if not math.isfinite(value):
        raise DomainError(f"<phi^2> overflows at alpha = {alpha}, "
                          f"sin^2(theta) = {s2}, M = {M}")
    return value


def phi2_closed(theta: float, alpha: float, M: float = 1.0) -> float:
    """[1 + (1 - alpha^2)/(alpha^2 sin^2 theta)] / (192 pi^2 M^2)."""
    _check_angles(theta, alpha, M)
    return _phi2(math.sin(theta) ** 2, alpha, M)


def _bracket(epsilon: float, theta: float, geometry: DeficitGeometry) -> float:
    """Closed-form horizon Green's function at radial split epsilon minus
    the geometric subtraction terms."""
    alpha, M = geometry.alpha, geometry.M
    s2 = math.sin(theta) ** 2
    dcosh = epsilon / (M * s2)            # cosh(chi) - 1
    kernel = heine_kernel(alpha, arccosh1p(dcosh), 0.0, 1.0)
    G = kernel / (32.0 * math.pi ** 2 * M * M * alpha * s2)
    return G - g_sing(epsilon, geometry)


def phi2_limit(theta: float, alpha: float,
               M: float = 1.0) -> tuple[float, float]:
    """Point-splitting route: evaluate the subtracted bracket on a
    decreasing epsilon sequence and Richardson-extrapolate to epsilon -> 0.

    Returns (limit, error_estimate).  The sequence is
    eps_k = min(1e-2, 0.05 alpha^2 sin^2 theta) * M * 2^-k, k = 0..6: the
    bracket reaches its expansion in eps only for
    eps << alpha^2 sin^2 theta M, and the sequence stays below the bound
    0.1 M sin^2 theta at every theta.
    """
    geometry = _check_angles(theta, alpha, M)
    eps0 = min(1e-2, 0.05 * alpha * alpha * math.sin(theta) ** 2)
    eps = [eps0 * M * 0.5 ** k for k in range(7)]
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.array([_bracket(e, theta, geometry) for e in eps])
    if not np.all(np.isfinite(vals)):
        raise ExtrapolationError(
            f"bracket leaves floating-point range at eps down to {eps[-1]:.3e}")
    spans = np.abs(np.diff(vals))
    noise = 1e-10 * float(np.max(np.abs(vals)))
    nz = spans[spans > noise]
    if nz.size >= 2 and nz[-1] > 4.0 * nz[0]:
        raise ExtrapolationError(
            "bracket values diverge with shrinking epsilon; check the chi(eps) mapping")
    cols = richardson_table(vals)
    est = float(cols[3][-1])            # 3-level extrapolation
    err = abs(est - float(cols[2][-1]))
    return est, err


def phi2_result(theta: float, alpha: float, M: float = 1.0) -> Phi2Result:
    closed = phi2_closed(theta, alpha, M)
    lim, err = phi2_limit(theta, alpha, M)
    return Phi2Result(theta=theta, alpha=alpha, M=M, value_closed=closed,
                      value_limit=lim, extrapolation_error=err)


def phi2_near_axis(theta: float, alpha: float, M: float = 1.0) -> float:
    """Near-axis asymptote (1-alpha^2)/(48 pi^2 alpha^2 (2 M sin theta)^2);
    the flat-space cosmic-string form at proper distance 2 M sin(theta)."""
    if alpha >= 1.0:
        raise DomainError("no string term at alpha = 1; asymptote undefined")
    _check_angles(theta, alpha, M)
    s = math.sin(theta)
    if s >= 0.1:
        raise DomainError(f"asymptote valid only near the axis (sin theta < 0.1), got {s}")
    return (1.0 - alpha * alpha) / (48.0 * math.pi ** 2 * alpha * alpha
                                    * (2.0 * M * s) ** 2)


def dominance_angle(alpha: float) -> float:
    """cos(theta_2) = 1/sqrt(2 - alpha^2): the polar angle at which the
    horizon vacuum polarization reaches twice its equatorial value."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"dominance angle defined for alpha in (0, 1), got {alpha}")
    return 1.0 / math.sqrt(2.0 - alpha * alpha)


def figure1_data(alphas, margin: float = 0.995,
                 points: int = 81) -> list[tuple]:
    """Rows (cos_theta, alpha, M^2 phi2_ren) for the horizon profile plot.

    Sorted by (alpha descending, cos_theta ascending); the grid of `points`
    values is symmetric about cos_theta = 0 and spans [-margin, margin].
    """
    # exactly sign-symmetric grid, so value(c) == value(-c) bitwise
    half = points // 2
    if points % 2:
        pos = np.linspace(0.0, margin, half + 1)
        grid = np.concatenate([-pos[:0:-1], pos])
    else:
        pos = (np.arange(half) + 0.5) * (margin / half)
        grid = np.concatenate([-pos[::-1], pos])
    rows = []
    for alpha in sorted(set(float(a) for a in alphas), reverse=True):
        check_alpha(alpha)
        for ct in np.sort(grid):
            s2 = float(1.0 - ct * ct)     # even in ct by construction
            rows.append((float(ct), alpha, _phi2(s2, alpha, 1.0)))
    return rows
