"""Truncation and acceleration helpers for the mode sums: `sum_m_bands`
folds and stops every azimuthal m-sum, and `sum_l` cuts off every degree
sum over l (or n) and estimates its tail.  Degree sums come in two regimes:

* geometric decay (a Q_lambda(zeta) factor, a radial ratio, or an
  exponential in the toroidal chain) -- summed directly with a geometric
  tail estimate;
* conditionally convergent 1/lambda-type oscillatory sums (mode sums at
  coincident radii) -- handed to `wynn_limit`, Wynn's epsilon-algorithm on
  the partial sums, which settles such series within a few hundred terms.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SlowConvergenceError

__all__ = [
    "sum_l",
    "sum_m_bands",
    "wynn_limit",
    "richardson_table",
]


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


def _wynn(sums: np.ndarray) -> float:
    """Wynn's epsilon-algorithm on partial sums: the last entry of the
    deepest even column that is still finite (nan for no sums)."""
    prev, cur, est = np.zeros(sums.size + 1), sums, math.nan
    with np.errstate(all="ignore"):
        while cur.size and math.isfinite(cur[-1]):
            est = float(cur[-1])
            for _ in range(2):
                prev, cur = cur, prev[1:cur.size] + 1.0 / np.diff(cur)
    return est


def wynn_limit(terms_fn, tol: float,
               count: int | None = None) -> tuple[float, float, int]:
    """(value, error, n) of a slowly convergent oscillating series: Wynn's
    epsilon-algorithm (MTAC 10, 91 (1956)) on the partial sums S_k of the
    terms terms_fn(n) and on S_1, S_3, ... (pairs, for when every other term
    vanishes).  A run's error is the change of its estimate from half of its
    sums to all; the smaller error wins.  n = count if given, else 160, 320,
    ... until the error is at most tol/10 or n = 20,480 (no raise there)."""
    n = 160 if count is None else count
    while True:
        sums = np.cumsum(terms_fn(n))
        runs = []
        for s in (sums, sums[1::2]):
            est = _wynn(s)
            err = abs(est - _wynn(s[: s.size // 2]))
            runs.append((est, err if math.isfinite(err) else math.inf))
        value, err = min(runs, key=lambda run: run[1])
        if count is not None or err <= 0.1 * tol or n >= 20_480:
            return value, err, n
        n *= 2


def sum_l(terms_fn, tol: float, rate: float | None = None,
          lmax: int | None = None) -> tuple[float, float, int]:
    """(value, tail, lmax) of sum_{l=0}^{lmax} t_l, terms_fn(n) giving
    t_0..t_{n-1}.  With a rate (|t_l| ~ e^{-rate l}) the terms are summed
    directly: lmax defaults to ceil(ln(1/tol)/rate) + 10, capped at 100,000
    (SlowConvergenceError), and tail = 10 max|last three terms| r/(1 - r),
    r = e^{-rate}.  With rate=None it is `wynn_limit` on lmax + 1 terms, or
    on as many as the limit needs."""
    if rate is None:
        value, err, n = wynn_limit(terms_fn, tol,
                                   None if lmax is None else lmax + 1)
        return value, err, n - 1
    if rate <= 0.0:
        raise SlowConvergenceError(f"no geometric decay (rate={rate})")
    if lmax is None:
        lmax = int(math.ceil(math.log(1.0 / tol) / rate)) + 10
        if lmax > 100_000:
            raise SlowConvergenceError(
                f"truncation {lmax} exceeds cap 100000 (rate={rate}, tol={tol})")
    terms = terms_fn(lmax + 1)
    r = math.exp(-rate)
    amp = max(abs(float(t)) for t in terms[-3:])
    return float(terms.sum()), 10.0 * amp * r / (1.0 - r), lmax


def richardson_table(vals, ratio: float = 2.0) -> list[np.ndarray]:
    """Richardson table for f(h_j) with h_j = h0 / ratio^j, eliminating
    h, h^2, ... successively.  Returns the list of columns."""
    cols = [np.asarray(vals, dtype=float)]
    for k in range(1, len(vals)):
        prev = cols[-1]
        fac = ratio ** k
        cols.append((fac * prev[1:] - prev[:-1]) / (fac - 1.0))
    return cols

