"""Renormalized vacuum polarization on the horizon, by closed form and by
the independent point-splitting limit, plus the near-axis asymptote,
dominance angle, and the figure-1 data table."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blackhole import DeficitGeometry, g_sing
from .conespace import check_alpha
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
    chi = arccosh1p(dcosh)
    # kernel = sinh(chi/alpha) / [sinh(chi) (cosh(chi/alpha) - 1)], stable
    kernel = (math.sinh(chi / alpha) / math.sinh(chi)
              / (2.0 * math.sinh(0.5 * chi / alpha) ** 2))
    G = kernel / (32.0 * math.pi ** 2 * M * M * alpha * s2)
    return G - g_sing(epsilon, geometry)


def phi2_limit(theta: float, alpha: float, M: float = 1.0,
               eps_sequence=None) -> tuple[float, float]:
    """Point-splitting route: evaluate the subtracted bracket on a
    decreasing epsilon sequence and Richardson-extrapolate to epsilon -> 0.

    Returns (limit, error_estimate).  The default sequence is
    eps_k = min(1e-2, 0.05 alpha^2 sin^2 theta) * M * 2^-k, k = 0..6
    (ratio 2, as the extrapolation assumes): the bracket reaches its
    expansion in eps only for eps << alpha^2 sin^2 theta M, and the
    sequence stays below the bound 0.1 M sin^2 theta at every theta.
    """
    geometry = _check_angles(theta, alpha, M)
    if eps_sequence is None:
        eps0 = min(1e-2, 0.05 * alpha * alpha * math.sin(theta) ** 2)
        eps_sequence = [eps0 * M * 0.5 ** k for k in range(7)]
    eps = np.asarray(list(eps_sequence), dtype=float)
    if eps.size < 3:
        raise ExtrapolationError("need at least 3 epsilon values")
    if np.any(np.diff(eps) >= 0.0):
        raise DomainError("epsilon sequence must be strictly decreasing")
    limit = 0.1 * M * math.sin(theta) ** 2
    if np.any(eps >= limit):
        raise DomainError(
            f"epsilon sequence must stay below 0.1 M sin^2(theta) = {limit:.3e}")
    ratios = eps[:-1] / eps[1:]
    if np.any(np.abs(ratios - ratios[0]) > 1e-9):
        raise DomainError("epsilon sequence must use a fixed ratio")
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
    cols = richardson_table(vals, ratio=float(ratios[0]))
    depth = min(3, len(cols) - 1)   # 3-level extrapolation
    est = float(cols[depth][-1])
    err = abs(float(cols[depth][-1]) - float(cols[depth - 1][-1]))
    return est, err


def phi2_result(theta: float, alpha: float, M: float = 1.0,
                eps_sequence=None) -> Phi2Result:
    closed = phi2_closed(theta, alpha, M)
    lim, err = phi2_limit(theta, alpha, M, eps_sequence)
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


def figure1_data(alphas, cos_theta_grid=None,
                 margin: float = 0.995, points: int = 81) -> list[tuple]:
    """Rows (cos_theta, alpha, M^2 phi2_ren) for the horizon profile plot.

    Sorted by (alpha descending, cos_theta ascending); the grid is symmetric
    about cos_theta = 0 and bounded away from the poles by `margin`.
    """
    if cos_theta_grid is None:
        # exactly sign-symmetric grid, so value(c) == value(-c) bitwise
        half = points // 2
        if points % 2:
            pos = np.linspace(0.0, margin, half + 1)
            cos_theta_grid = np.concatenate([-pos[:0:-1], pos])
        else:
            pos = (np.arange(half) + 0.5) * (margin / half)
            cos_theta_grid = np.concatenate([-pos[::-1], pos])
    cos_theta_grid = np.asarray(cos_theta_grid, dtype=float)
    if np.any(np.abs(cos_theta_grid) > margin + 1e-15):
        raise DomainError(f"cos_theta grid exceeds the pole margin {margin}")
    rows = []
    for alpha in sorted(set(float(a) for a in alphas), reverse=True):
        check_alpha(alpha)
        for ct in np.sort(cos_theta_grid):
            s2 = float(1.0 - ct * ct)     # even in ct by construction
            rows.append((float(ct), alpha, _phi2(s2, alpha, 1.0)))
    return rows
