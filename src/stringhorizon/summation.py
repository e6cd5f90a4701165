"""Truncation and acceleration helpers, which hold every rule that stops or
refuses a mode sum: `sum_m_bands` folds and stops every azimuthal m-sum,
`count_bands` counts its bands from closed values, `sum_l` cuts off every
degree sum over l (or n) and estimates its tail, and `mode_sum`, the engine
of every Legendre double sum, counts, builds and folds its bands with them.
Two regimes:

* geometric decay (a Q_lambda(zeta) factor, a radial ratio, or an
  exponential in the toroidal chain) -- summed directly with a geometric
  tail estimate;
* conditionally convergent 1/lambda-type oscillatory sums (mode sums at
  coincident radii) -- handed to `wynn_limit`, Wynn's epsilon-algorithm on
  the partial sums, which settles such series within a few hundred terms;
  its four runs share one epsilon table (`_wynn_runs`), and `mode_sum`
  sums its counted bands as one 160-term block in one such table, each
  band that block leaves unsettled by a `wynn_limit` of its own.

`trapezoid` integrates the Linet integrands in numpy; `quadpack` is the one
call into QUADPACK, with its settings, failure code and bound.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import (ConvergenceError, DomainError, QuadratureError,
                     SlowConvergenceError)

__all__ = [
    "MAX_BANDS",
    "MIN_RATE",
    "count_bands",
    "mode_sum",
    "sum_l",
    "sum_m_bands",
    "wynn_limit",
    "richardson_table",
    "trapezoid",
    "quadpack",
]

MAX_BANDS = 400           # the most m-bands any azimuthal sum takes
MIN_RATE = 1e-3           # sum_l refuses a geometric rate at or below this


def sum_m_bands(band_fn, tol: float,
                dphi: float = 0.0) -> tuple[float, float, int]:
    """Azimuthal mode sum sum_m e^{i m dphi} B_m folded onto m >= 0:
    B_0 + sum_{m>0} 2 cos(m dphi) B_m.

    band_fn(m) returns (B_m, tail_m): the unweighted band and the tail of
    its own inner sum (0.0 when it tracks none).  The sum stops once three
    successive weighted bands with m > 0 each fall below tol/10, and raises
    SlowConvergenceError if MAX_BANDS bands do not settle.

    Returns (value, sum of band tails + 10 |last weighted band|, last m).
    DomainError unless 0 < tol < 1 and dphi is finite.
    """
    if not 0.0 < tol < 1.0:
        raise DomainError(f"tol must lie in (0, 1), got {tol}")
    if not math.isfinite(dphi):
        raise DomainError(f"dphi must be finite, got {dphi}")
    total = tails = 0.0
    small = 0
    for m in range(MAX_BANDS):
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
    raise SlowConvergenceError(
        f"m-band sum did not settle within {MAX_BANDS} bands (tol={tol})")


def count_bands(closed, tol: float, dphi: float = 0.0) -> int:
    """How many bands `sum_m_bands` takes over closed(m), a float at or below
    band m that falls with m: a floor closed(MAX_BANDS - 1) (1 - 1e-9) that
    does not settle refuses the sum from that one value, before the count."""
    low = (1.0 - 1e-9) * closed(MAX_BANDS - 1)
    sum_m_bands(lambda m: (low, 0.0), tol, dphi)
    return sum_m_bands(lambda m: (closed(m), 0.0), tol, dphi)[2] + 1


def _wynn_runs(sums: np.ndarray) -> list:
    """Wynn's epsilon-algorithm on four runs of partial sums -- all of sums,
    its first half, the pairs sums[1::2] and their first half -- in one table
    over sums and pairs, rows of a 2-D sums laid end to end.  Entry i of
    column j reads only entries i..i+j of column 0, so a run (e, length), e
    its last index there, has its last entry of column j at e - j, as in a
    table of its own.  A run's estimate is that entry of its deepest
    still-finite even column (nan if empty): four floats, or four per row."""
    n, p = sums.shape[-1], sums.shape[-1] // 2
    table = np.concatenate((sums, sums[..., 1::2]), axis=-1).ravel()
    runs = [(i + e, length) for i in range(0, table.size, n + p) for e, length in
            ((n - 1, n), (n // 2 - 1, n // 2), (n + p - 1, p), (n + p // 2 - 1, p // 2))]
    est = [math.nan] * len(runs)
    prev, cur, live, j = np.zeros(table.size + 1), table, range(len(runs)), 0
    with np.errstate(all="ignore"):
        while live := [r for r in live if j < runs[r][1]
                       and math.isfinite(cur[runs[r][0] - j])]:
            for r in live:
                est[r] = float(cur[runs[r][0] - j])
            for _ in range(2):
                prev, cur = cur, prev[1:cur.size] + 1.0 / (cur[1:] - cur[:-1])
            j += 2
    return est if sums.ndim == 1 else [est[k:k + 4] for k in range(0, len(est), 4)]


def _wynn_estimate(est: list) -> tuple[float, float]:
    """(value, error) from `_wynn_runs`' four estimates: a run's error is the
    change of its estimate from half of its sums to all; the smaller wins."""
    runs = []
    for full, half in (est[:2], est[2:]):
        err = abs(full - half)
        runs.append((full, err if math.isfinite(err) else math.inf))
    return min(runs, key=lambda run: run[1])


def wynn_limit(terms_fn, tol: float) -> tuple[float, float, int]:
    """(value, error, n) of a slowly convergent oscillating series: Wynn's
    epsilon-algorithm (MTAC 10, 91 (1956)) on the partial sums S_k of the
    terms terms_fn(n) and on S_1, S_3, ... (pairs, for when every other term
    vanishes), all four runs in one table (`_wynn_runs`).  A run's error is
    the change of its estimate from half of its sums to all; the smaller
    error wins.  n = 160, 320, ... until the error is at most tol/10 or
    n = 20,480 (the estimate there, however rough).  While the largest
    |term| lies past the first quarter, the terms still rise (a band before
    its turning point, where every partial sum is near 0): n doubles before
    any estimate is formed, and at n = 20,480 it is SlowConvergenceError.
    A non-finite term is ConvergenceError at once; DomainError unless
    0 < tol < 1."""
    if not 0.0 < tol < 1.0:
        raise DomainError(f"tol must lie in (0, 1), got {tol}")
    n = 160
    while True:
        terms = terms_fn(n)
        bad = np.flatnonzero(~np.isfinite(terms))
        if bad.size:
            raise ConvergenceError(
                f"non-finite term {terms[bad[0]]} at k = {bad[0]} of a Wynn series")
        if np.argmax(np.abs(terms)) >= n / 4:   # still rising
            if n >= 20_480:
                raise SlowConvergenceError(
                    f"terms still rising at the Wynn cap of {n} terms")
            n *= 2
            continue
        value, err = _wynn_estimate(_wynn_runs(np.cumsum(terms)))
        if err <= 0.1 * tol or n >= 20_480:
            return value, err, n
        n *= 2


def sum_l(terms_fn, tol: float, rate: float | None = None):
    """(value, tail, lmax) of sum_{l=0}^{lmax} t_l, terms_fn(n) giving
    t_0..t_{n-1}.  With a rate (|t_l| ~ e^{-rate l}) the terms are summed
    directly: lmax = ceil(ln(1/tol)/rate) + 10, and tail = 10 max|last three
    terms| r/(1 - r), r = e^{-rate}; 2-D terms give one such sum per row,
    value and tail as lists.  SlowConvergenceError at a rate <= MIN_RATE or
    an lmax > 100,000 (before any term), and where the largest term is one of
    the last three.  With rate=None it is `wynn_limit` on as many terms as
    the limit needs.  DomainError unless 0 < tol < 1."""
    if not 0.0 < tol < 1.0:
        raise DomainError(f"tol must lie in (0, 1), got {tol}")
    if rate is None:
        value, err, n = wynn_limit(terms_fn, tol)
        return value, err, n - 1
    if not rate > MIN_RATE:
        raise SlowConvergenceError(f"no geometric decay (rate={rate})")
    lmax = int(math.ceil(math.log(1.0 / tol) / rate)) + 10
    if lmax > 100_000:
        raise SlowConvergenceError(
            f"truncation {lmax} exceeds cap 100000 (rate={rate}, tol={tol})")
    terms = terms_fn(lmax + 1)
    size = np.abs(terms)
    if np.any(size.argmax(axis=-1) > lmax - 3):
        raise SlowConvergenceError(f"terms still grow at l = {lmax} (rate={rate})")
    r = math.exp(-rate)
    amp = size[..., -3:].max(axis=-1)
    return terms.sum(axis=-1).tolist(), (10.0 * amp * r / (1.0 - r)).tolist(), lmax


def mode_sum(rows, tol: float, dphi: float = 0.0, rate: float | None = None,
             closed=None) -> tuple[float, float, int, int]:
    """(value, tail, lmax, mmax) of sum_m e^{i m dphi} sum_l t_{m,l}:
    `sum_m_bands` over the `sum_l` of each band at `rate` (a Wynn limit at
    None), lmax that of band mmax.  rows(ms, n) gives t_{m,l} for l < n: a
    row per m of an array ms, one band for a scalar m.  With closed,
    `count_bands` runs first and may refuse the sum before any row, and the
    bands it counts are built ahead: those of a geometric sum as many at a
    time as fit 2^15 terms, those of a Wynn sum as one block of 160 terms in
    one epsilon table, each row kept where `wynn_limit` would stop at 160.
    Every other band is built alone, by `sum_l`, as the m-sum reads it."""
    stop = 0 if closed is None else count_bands(closed, tol, dphi)
    bands = []                  # (value, tail, lmax) per band, None: alone

    def band(m: int):
        if m == len(bands) and m < stop:    # the m-sum reads bands in order
            if rate is None:
                terms = rows(np.arange(stop), 160)
                keep = np.flatnonzero(np.isfinite(terms).all(axis=1)
                                      & (np.abs(terms).argmax(axis=1) < 160 / 4))
                bands.extend([None] * stop)
                for k, est in zip(keep, _wynn_runs(np.cumsum(terms[keep], axis=1))):
                    value, err = _wynn_estimate(est)
                    if err <= 0.1 * tol:
                        bands[k] = (value, err, 159)
            else:
                values, tails, lmax = sum_l(lambda n: rows(np.arange(
                    m, min(stop, m + max(1, 2 ** 15 // n))), n), tol, rate)
                bands.extend((value, tail, lmax) for value, tail in zip(values, tails))
        if m == len(bands):
            bands.append(None)
        if bands[m] is None:
            bands[m] = sum_l(lambda n: rows(m, n), tol, rate)
        return bands[m][:2]

    value, tail, mmax = sum_m_bands(band, tol, dphi)
    return value, tail, bands[mmax][2], mmax


def richardson_table(vals) -> list[np.ndarray]:
    """Richardson table for f(h_j) with h_j = h0 / 2^j, eliminating
    h, h^2, ... successively.  Returns the list of columns."""
    cols = [np.asarray(vals, dtype=float)]
    for k in range(1, len(vals)):
        prev = cols[-1]
        fac = 2.0 ** k
        cols.append((fac * prev[1:] - prev[:-1]) / (fac - 1.0))
    return cols


def trapezoid(f, d: float, what: str, abs_bound: float,
              rel_bound: float = 0.0) -> tuple[float, float]:
    """(value, error) of int_0^oo f(t) dt, f even, vectorized, analytic in |Im t| < d,
    decaying exponentially: the trapezoid rule in s, t = d sinh(s), whose step h errs
    by e^{-pi^2/h} (poles +-id at s = +-i pi/2; Trefethen & Weideman, SIAM Rev. 56, 385
    (2014)).  From h = pi^2/25, cut one past the last term above 1e-17 sum |terms|, h
    halves until a halving moves the sum (the error) by <= min(bound, 1e-9 sum |terms|)
    or by no less than the last.  One-line QuadratureError naming `what`: terms alive at
    s = 37.5, over 2048 nodes, or not error <= bound = max(abs_bound, rel_bound |value|)."""
    h, s, last = math.pi ** 2 / 25.0, np.arange(96.0), math.inf
    g = f(d * np.sinh(h * s)) * (d * np.cosh(h * s))
    alive = np.abs(g) > 1e-17 * np.abs(g).sum()
    if alive[-2:].any():
        raise QuadratureError(f"{what}: no decay by t = {d * math.sinh(95 * h):.1e}")
    g = g[:g.size + 1 - np.argmax(alive[::-1])]
    while True:
        if 2 * g.size > 2048:
            raise QuadratureError(f"{what}: no estimate within 2048 nodes")
        s = h * (np.arange(g.size) + 0.5)
        mid = f(d * np.sinh(s)) * (d * np.cosh(s))
        coarse, midpoint = h * (g.sum() - 0.5 * g[0]), h * mid.sum()
        value, error = 0.5 * (coarse + midpoint), 0.5 * abs(midpoint - coarse)
        bound = max(abs_bound, rel_bound * abs(value))
        if not min(bound, 1e-9 * h * np.abs(g).sum()) < error < last:
            break
        g, h, last = np.column_stack((g, mid)).ravel(), 0.5 * h, error
    if not error <= bound:
        raise QuadratureError(f"{what}: error estimate {error:.2e} exceeds {bound:.2e}")
    return float(value), float(error)


def quadpack(f, a: float, b: float, what: str, abs_bound: float,
             rel_bound: float = 0.0, epsrel: float = 1e-11,
             **options) -> tuple[float, float]:
    """(value, error) of scipy's `quad(f, a, b, epsabs=1e-13, epsrel=epsrel,
    limit=400, **options)`, loaded on first use; a one-line
    QuadratureError naming `what` when QUADPACK reports a failure (its
    message's first sentence) or unless error <= max(abs_bound,
    rel_bound |value|), which a NaN estimate fails."""
    from scipy.integrate import quad
    value, error, _, *failure = quad(f, a, b, full_output=1, epsabs=1e-13,
                                     epsrel=epsrel, limit=400, **options)
    if failure:
        reason = re.split(r"(?<=\.) (?=[A-Z])", " ".join(failure[0].split()))[0]
        raise QuadratureError(f"{what}: {reason}")
    bound = max(abs_bound, rel_bound * abs(value))
    if not error <= bound:
        raise QuadratureError(f"{what}: error estimate {error:.2e} exceeds {bound:.2e}")
    return value, error
