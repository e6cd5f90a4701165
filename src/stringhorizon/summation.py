"""Truncation and acceleration helpers for the mode sums.

Two regimes appear throughout the library:

* geometric decay (a Q_lambda(zeta) factor, a radial ratio, or an
  exponential in the toroidal chain) -- summed directly with a certified
  geometric tail estimate;
* conditionally convergent 1/lambda-type oscillatory sums (mode sums at
  coincident radii) -- summed as an Abel limit sum(t_l x^l), x -> 1-, with
  Richardson extrapolation in h = 1 - x.  The summand is the Fourier/Legendre
  coefficient stream of a Green's function that is analytic at x = 1 away
  from coincidence, so the limit is polynomial in h and the extrapolation is
  justified.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SlowConvergenceError

__all__ = [
    "geometric_tail",
    "lmax_for_rate",
    "sum_m_bands",
    "abel_limit",
    "richardson_table",
]


def lmax_for_rate(rate: float, tol: float, safety: int = 10, cap: int = 100_000) -> int:
    """Truncation index for terms decaying like e^{-rate*l}."""
    if rate <= 0.0:
        raise SlowConvergenceError(f"no geometric decay (rate={rate})")
    n = int(math.ceil(math.log(1.0 / tol) / rate)) + safety
    if n > cap:
        raise SlowConvergenceError(
            f"required truncation {n} exceeds cap {cap} (rate={rate}, tol={tol})")
    return n


def geometric_tail(last_terms, rate: float, safety: float = 10.0) -> float:
    """Tail estimate for a sum whose terms decay like e^{-rate*l}.

    Uses the largest of the last few term magnitudes times the geometric
    tail factor, inflated by a safety margin.
    """
    if rate <= 0.0:
        raise SlowConvergenceError(f"no geometric decay (rate={rate})")
    r = math.exp(-rate)
    amp = max(abs(float(t)) for t in last_terms)
    return safety * amp * r / (1.0 - r)


def sum_m_bands(band_fn, tol: float, dphi: float = 0.0,
                mmax: int | None = None) -> tuple[float, float, int]:
    """Azimuthal mode sum sum_m e^{i m dphi} B_m folded onto m >= 0:
    B_0 + sum_{m>0} 2 cos(m dphi) B_m.

    band_fn(m) returns (B_m, tail_m): the unweighted band and the tail of
    its own inner sum (0.0 when it tracks none).  The sum stops once three
    successive weighted bands with m > 0 each fall below tol/10.  With
    mmax it sums at most mmax + 1 bands and never raises; without, it
    raises SlowConvergenceError if 400 bands do not settle.

    Returns (value, sum of band tails + 10 |last weighted band|, last m).
    """
    nbands = 400 if mmax is None else mmax + 1
    total = tails = last = 0.0
    small = 0
    for m in range(nbands):
        band, tail = band_fn(m)
        if m > 0:
            band = 2.0 * math.cos(m * dphi) * band
        total += band
        tails += tail
        last = abs(band)
        if m > 0 and last < 0.1 * tol:
            small += 1
            if small >= 3:
                return total, tails + 10.0 * last, m
        else:
            small = 0
    if mmax is None:
        raise SlowConvergenceError(
            f"m-band sum did not settle within {nbands} bands (tol={tol})")
    return total, tails + 10.0 * last, nbands - 1


def abel_limit(coeffs: np.ndarray, h0: float = 0.08, levels: int = 7,
               start: int = 0) -> tuple[float, float]:
    """Limit of sum(coeffs[l] * x^(l - start)) as x -> 1- by Richardson in h.

    coeffs must be long enough that the truncated geometric tail at the
    smallest x is negligible; the caller controls the length.
    Returns (limit, error_estimate).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    L = coeffs.size
    powers = np.arange(L, dtype=float)
    vals = np.empty(levels)
    for j in range(levels):
        x = 1.0 - h0 * 0.5 ** j
        vals[j] = float(np.dot(coeffs, x ** powers))
    table = richardson_table(vals, ratio=2.0)
    est = table[-1][-1]
    err = abs(table[-1][-1] - table[-2][-1]) if len(table) > 1 else math.inf
    return est, err


def richardson_table(vals, ratio: float = 2.0) -> list[np.ndarray]:
    """Richardson table for f(h_j) with h_j = h0 / ratio^j, eliminating
    h, h^2, ... successively.  Returns the list of columns."""
    cols = [np.asarray(vals, dtype=float)]
    for k in range(1, len(vals)):
        prev = cols[-1]
        fac = ratio ** k
        cols.append((fac * prev[1:] - prev[:-1]) / (fac - 1.0))
    return cols

