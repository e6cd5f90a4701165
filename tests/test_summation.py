"""The azimuthal mode sum `sum_m_bands`: the m >= 0 fold, the tail
it reports, and its two stopping rules; `count_bands`, its count from
closed bands.  `mode_sum`, the Legendre double sum over both: the bands
it builds at once and alone (the counted Wynn bands as one 160-term
block, and the rows that block leaves to `wynn_limit`), and its refusal
before any band.  The degree
sum `sum_l`: its cutoff, its geometric tail, its
refusals and its Wynn branch.  The Wynn limit
`wynn_limit`: closed sums, its length rule, its refusals, its one shared
epsilon table against a table per run and a block's rows against their
own tables, and the Abel/Richardson limit it replaced.  The QUADPACK gate `quadpack`: its failure code and its
error bound.  The sinh-mapped trapezoid rule `trapezoid`: its error bound,
node cap and decay rule, and its value against QUADPACK on both Linet
integrands."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stringhorizon import conespace, identities, specfun
from stringhorizon.conespace import (ConePoint, _toroidal_rate, _toroidal_terms,
                                     g3_linet, g3_toroidal_sum)
from stringhorizon.errors import (ConvergenceError, DomainError, QuadratureError,
                                  SlowConvergenceError)
from stringhorizon.identities import (_app5_rhs, check_app5, check_linet_sum,
                                      check_toroidal_addition)
from stringhorizon.summation import (MAX_BANDS, MIN_RATE, _wynn_runs, count_bands,
                                     mode_sum, quadpack, richardson_table,
                                     sum_l, sum_m_bands, trapezoid, wynn_limit)


def test_fold_of_constant_bands():
    # unit bands up to m = 10, then three zero bands stop the sum at m = 13
    dphi = 0.7
    value, _, m_last = sum_m_bands(lambda m: (float(m <= 10), 0.0), 1e-8, dphi)
    expected = 1.0 + 2.0 * sum(math.cos(m * dphi) for m in range(1, 11))
    assert value == pytest.approx(expected, rel=1e-14)
    assert m_last == 13


def test_band_weight_bits():
    # m = 0 enters unweighted, m > 0 as 2 cos(m dphi) * band, in that order
    dphi, bands = 1.3, [0.3, -0.7, 0.11]
    value, _, _ = sum_m_bands(
        lambda m: (bands[m] if m < 3 else 0.0, 0.0), 1e-8, dphi)
    total = 0.0
    for m, b in enumerate(bands):
        total += b if m == 0 else 2.0 * math.cos(m * dphi) * b
    assert value == total


def test_tail_adds_band_tails_and_last_band():
    # bands with tails up to m = 5, then three bands far below tol/10
    dphi = 0.4

    def band(m):
        return (0.5 ** m, 0.25 * m) if m <= 5 else (1e-12 * 0.5 ** m, 0.0)

    value, tail, m_last = sum_m_bands(band, 1e-8, dphi)
    last = abs(2.0 * math.cos(8 * dphi) * 1e-12 * 0.5 ** 8)
    assert m_last == 8
    assert tail == pytest.approx(0.25 * (1 + 2 + 3 + 4 + 5) + 10.0 * last,
                                 rel=1e-15)


def test_stops_after_three_small_bands():
    # weighted bands 2 * 10^-m fall below tol/10 = 1e-4 from m = 5 on
    calls = []

    def band(m):
        calls.append(m)
        return 10.0 ** -m, 0.0

    value, tail, m_last = sum_m_bands(band, 1e-3)
    assert m_last == 7 and calls == list(range(8))
    assert tail == pytest.approx(10.0 * 2e-7, rel=1e-12)
    assert value == pytest.approx(1.0 + 2.0 * sum(10.0 ** -m
                                                  for m in range(1, 8)))


def test_unsettled_sum_raises_without_mmax():
    calls = []

    def band(m):
        calls.append(m)
        return 1.0, 0.0

    with pytest.raises(SlowConvergenceError):
        sum_m_bands(band, 1e-8)
    assert len(calls) == 400


@pytest.mark.parametrize("dphi", [math.nan, math.inf, -math.inf])
def test_sum_m_bands_refuses_a_non_finite_dphi(dphi):
    def band(m):
        raise AssertionError("no band may be asked for")

    with pytest.raises(DomainError, match="dphi must be finite"):
        sum_m_bands(band, 1e-8, dphi)


@pytest.mark.parametrize("decay, dphi", [(0.5, 0.0), (0.05, 1.3), (0.2, 0.4)])
def test_count_bands_counts_the_closed_bands(decay, dphi):
    def closed(m):
        return math.exp(-decay * m)

    stop = sum_m_bands(lambda m: (closed(m), 0.0), 1e-6, dphi)[2]
    assert count_bands(closed, 1e-6, dphi) == stop + 1


def test_count_bands_refuses_from_one_closed_value():
    # bands e^{-m/100} stay above tol/20 up to the cap: the floor at the
    # last band refuses, and no other closed value is read
    read = []

    def closed(m):
        read.append(m)
        return math.exp(-0.01 * m)

    with pytest.raises(SlowConvergenceError, match="within 400 bands"):
        count_bands(closed, 1e-6, 0.7)
    assert read == [MAX_BANDS - 1]


# ----------------------------------------------------------------------
# mode_sum
# ----------------------------------------------------------------------

def _recorded_rows(rows):
    """rows, and the list of (ms, n) they were asked for."""
    asked = []

    def recorded(ms, n):
        asked.append((ms, n))
        return rows(ms, n)
    return recorded, asked


def _recorded(decay, ratio):
    """rows of t_{m,l} = e^{-decay m} ratio^l (the alternating harmonic
    series in l at ratio None), and the list of (ms, n) they were asked for."""
    def rows(ms, n):
        ls = np.arange(n)
        series = (-1.0) ** ls / (ls + 1.0) if ratio is None else ratio ** ls
        return np.multiply.outer(np.exp(-decay * np.asarray(ms, dtype=float)), series)
    return _recorded_rows(rows)


def _per_band(rows, tol, dphi, rate):
    return sum_m_bands(lambda m: sum_l(lambda n: rows(m, n), tol, rate)[:2], tol, dphi)


@pytest.mark.parametrize("rate, tol", [(0.01, 1e-6), (0.5, 1e-8), (5.0, 1e-3)])
def test_mode_sum_builds_the_counted_bands_in_blocks(rate, tol):
    # the closed bands are the real ones: every band up to the count comes
    # in blocks of at most 2^15 terms, in order, and none is built twice
    rows, asked = _recorded(0.2, math.exp(-rate))

    def closed(m):
        return math.exp(-0.2 * m) / (1.0 - math.exp(-rate))
    stop = count_bands(closed, tol, 0.4)
    value, tail, lmax, mmax = mode_sum(rows, tol, 0.4, rate, closed)
    assert mmax == stop - 1
    assert all(np.ndim(ms) == 1 and 0 < ms.size * n <= 2 ** 15 for ms, n in asked)
    assert np.concatenate([ms for ms, _ in asked]).tolist() == list(range(stop))
    assert {n for _, n in asked} == {lmax + 1}
    ref = _per_band(_recorded(0.2, math.exp(-rate))[0], tol, 0.4, rate)
    assert (value, tail, mmax) == ref


def test_mode_sum_builds_bands_past_the_count_alone():
    # closed bands below the real ones count too few: the real sum reads on,
    # and each band past the count comes alone, as a scalar m
    rows, asked = _recorded(0.2, 0.5)
    stop = count_bands(lambda m: math.exp(-0.3 * m), 1e-6)
    value, tail, lmax, mmax = mode_sum(rows, 1e-6, 0.0, math.log(2.0),
                                       lambda m: math.exp(-0.3 * m))
    blocks = [ms for ms, _ in asked if np.ndim(ms) == 1]
    alone = [ms for ms, _ in asked if np.ndim(ms) == 0]
    assert np.concatenate(blocks).tolist() == list(range(stop))
    assert alone == list(range(stop, mmax + 1)) and len(alone) > 3
    ref = _per_band(_recorded(0.2, 0.5)[0], 1e-6, 0.0, math.log(2.0))
    assert (value, tail, mmax) == ref


def _bumped(rows, bumped, at=60, factor=100.0):
    """rows with term l = at of the bands in `bumped` scaled by factor: the
    largest term lies past n/4 at n = 160 and before it at 320, so a Wynn
    limit takes such a band at 320 terms."""
    def bumped_rows(ms, n):
        terms = rows(ms, n)
        terms[..., at] *= np.where(np.isin(ms, bumped), factor, 1.0)
        return terms
    return bumped_rows


@pytest.mark.parametrize("closed", [None, lambda m: 2.0 * math.exp(-0.2 * m)])
def test_mode_sum_without_rate_blocks_the_counted_bands_at_160(closed):
    # with closed, the counted bands are asked for once, as one array at
    # n = 160, and only the bands that block does not settle (1 and 4 still
    # rise at 160) come again alone at 160, 320, ...; without closed every
    # band comes alone, at the lengths its own limit asks for
    rows, asked = _recorded(0.2, None)
    value, tail, lmax, mmax = mode_sum(_bumped(rows, (1, 4)), 1e-8, 0.7, None, closed)
    alone = [(ms, n) for ms, n in asked if np.ndim(ms) == 0]
    rising = [(1, 160), (1, 320), (4, 160), (4, 320)]
    if closed is None:
        assert alone == asked
        assert alone == [(m, n) for m in range(mmax + 1)
                         for n in ((160, 320) if m in (1, 4) else (160,))]
    else:
        stop = count_bands(closed, 1e-8, 0.7)
        assert asked[0][0].tolist() == list(range(stop)) and asked[0][1] == 160
        assert alone == asked[1:] == rising + [(m, 160) for m in range(stop, mmax + 1)]
    assert lmax == 159
    ref = _per_band(_bumped(_recorded(0.2, None)[0], (1, 4)), 1e-8, 0.7, None)
    assert (value, tail, mmax) == ref
    assert value == pytest.approx(sum(
        (1.0 if m == 0 else 2.0 * math.cos(0.7 * m)) * math.exp(-0.2 * m)
        * (math.log(2.0) + (99.0 / 61.0 if m in (1, 4) else 0.0))
        for m in range(mmax + 1)))


def _spoilt(rows, m_bad, k=5, value=math.nan):
    """rows with term k of band m_bad replaced by value."""
    def spoilt_rows(ms, n):
        terms = rows(ms, n)
        terms[..., k] = np.where(np.asarray(ms) == m_bad, value, terms[..., k])
        return terms
    return spoilt_rows


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_mode_sum_skips_a_non_finite_block_row_past_the_m_sum(value):
    # the closed bands count far past the real sum's stop: terms +-value in
    # the last counted band are built in the block but never read
    def closed(m):
        return 1e3 * math.exp(-0.2 * m)
    stop = count_bands(closed, 1e-8, 0.7)
    rows, _ = _recorded(0.2, None)
    rows = _spoilt(_spoilt(rows, stop - 1, 5, value), stop - 1, 6, -value)
    got = mode_sum(rows, 1e-8, 0.7, None, closed)
    assert got[3] < stop - 1
    assert got == mode_sum(_recorded(0.2, None)[0], 1e-8, 0.7, None, closed)


@pytest.mark.parametrize("value", [math.nan, -math.inf])
def test_mode_sum_raises_the_wynn_text_on_a_non_finite_band_it_reads(value):
    # the block sets the row aside, and the band alone raises what each band
    # alone raised before the block
    def closed(m):
        return 2.0 * math.exp(-0.2 * m)
    errors = []
    for given_closed in (None, closed):
        rows, asked = _recorded(0.2, None)
        with pytest.raises(ConvergenceError, match=f"non-finite term {value} at k = 5 ") as info:
            mode_sum(_spoilt(rows, 2, value=value), 1e-8, 0.7, None, given_closed)
        errors.append(str(info.value))
        assert asked[-1] == (2, 160)
    assert errors[0] == errors[1]


@pytest.mark.parametrize("kind, unsettled, lmax, mmax", [
    ("rising", 3, 319, 3), ("slow", 1, 159, 4)])
def test_mode_sum_band_unsettled_at_160_is_the_one_alone(kind, unsettled, lmax, mmax):
    # bands past 0 are small but one: band 3 of "rising" still rises at 160
    # terms (a bump at l = 60) and is the last band read; band 1 of "slow",
    # cos(0.3 l)/(l + 1), has a Wynn error of 8e-8 at 160, above tol/10.
    # That band alone comes again at 160 and 320, and the sum, its tail, the
    # lmax of band mmax and mmax are those of every band alone
    def rows(ms, n):
        ls = np.arange(n)
        ms = np.asarray(ms)[..., None]
        alt = np.where(ms == 0, 1.0, 1e-12) * (-1.0) ** ls / (ls + 1.0)
        return np.where(ms == 1, np.cos(0.3 * ls) / (ls + 1.0), alt) if kind == "slow" else alt
    rows, asked = _recorded_rows(_bumped(rows, (3,)) if kind == "rising" else rows)
    got = mode_sum(rows, 1e-8, 0.7, None, lambda m: 2.0 * math.exp(-0.2 * m))
    assert [a for a in asked if np.ndim(a[0]) == 0] == [(unsettled, 160), (unsettled, 320)]
    assert got[2:] == (lmax, mmax)
    assert got == mode_sum(rows, 1e-8, 0.7, None)


@pytest.mark.parametrize("alpha, theta, theta_p, dphi", [
    (1.0, math.pi / 3, 2 * math.pi / 3, 1.0),
    (0.9, math.pi / 3, 2 * math.pi / 3, 0.5),
    (0.75, math.pi / 3, 2 * math.pi / 3, 1.0),
    (0.6, 0.9, 1.9, 0.8),
])
def test_mode_sum_blocks_the_linet_bands_bit_identically(alpha, theta, theta_p, dphi):
    # the four off-diagonal Linet sums of the default manifest: value, tail,
    # lmax and band count of the block are those of every band alone
    x1, x2 = math.cos(theta), math.cos(theta_p)
    rows, asked = _recorded_rows(lambda ms, n: specfun.ferrers_band(ms / alpha, x1, x2, n))
    got = mode_sum(rows, 1e-6, dphi, None, lambda m: _app5_rhs(m / alpha, theta, theta_p))
    assert np.ndim(asked[0][0]) == 1 and asked[0][0].size >= got[3] + 1
    assert got == mode_sum(rows, 1e-6, dphi)


@pytest.mark.parametrize("rate", [0.5, None])
def test_mode_sum_refuses_from_the_closed_floor_before_any_row(rate):
    rows, asked = _recorded(0.001, 0.5)
    with pytest.raises(SlowConvergenceError, match="within 400 bands"):
        mode_sum(rows, 1e-6, 0.7, rate, lambda m: math.exp(-0.001 * m))
    assert asked == []


# ----------------------------------------------------------------------
# sum_l
# ----------------------------------------------------------------------

def _k(n):
    return np.arange(n, dtype=float)


@pytest.mark.parametrize("r", [0.5, 0.9, 0.99])
def test_sum_l_geometric_series(r):
    # sum r^k = 1/(1 - r); the tail must cover the true remainder
    tol = 1e-8
    value, tail, lmax = sum_l(lambda n: r ** _k(n), tol, -math.log(r))
    assert lmax == math.ceil(math.log(1.0 / tol) / -math.log(r)) + 10
    remainder = r ** (lmax + 1) / (1.0 - r)
    assert abs(value - 1.0 / (1.0 - r)) <= tail
    assert tail >= remainder


def test_sum_l_tail_reads_the_last_three_terms():
    # at rate ln 2 and tol 1e-3, lmax = ceil(ln(1e3)/ln 2) + 10 = 20
    lengths = []
    terms = np.zeros(21)
    terms[:3] = [7.0, 1.0, -9.0]
    terms[-3:] = [-4.0, 3.0, 2.0]

    def terms_fn(n):
        lengths.append(n)
        return terms[:n]

    value, tail, lmax = sum_l(terms_fn, 1e-3, math.log(2.0))
    assert (value, lmax, lengths) == (0.0, 20, [21])
    assert tail == 10.0 * 4.0 * 0.5 / (1.0 - 0.5)


def test_sum_l_cap_and_no_decay_raise():
    def terms(n):
        raise AssertionError("no terms may be asked for")

    # ln(1e100)/2e-3 + 10 is about 115,139 > 100,000
    with pytest.raises(SlowConvergenceError, match="exceeds cap"):
        sum_l(terms, 1e-100, 2e-3)
    for rate in (0.0, math.nan, 1e-4, MIN_RATE):
        with pytest.raises(SlowConvergenceError, match="no geometric decay"):
            sum_l(terms, 1e-8, rate)


def test_sum_l_refuses_terms_still_growing_at_the_cutoff():
    # at rate ln 2 and tol 1e-3, lmax = 20: a largest term at l = 18 lies in
    # the last three of the 21 terms, one at l = 17 does not
    rate, fall = math.log(2.0), 0.5 ** _k(21)
    grow, late = fall.copy(), fall.copy()
    grow[18], late[17] = 2.0, 2.0
    with pytest.raises(SlowConvergenceError, match="still grow at l = 20"):
        sum_l(lambda n: grow[:n], 1e-3, rate)
    batch = np.array([fall, grow, np.zeros(21)])
    with pytest.raises(SlowConvergenceError, match="still grow at l = 20"):
        sum_l(lambda n: batch[:, :n], 1e-3, rate)
    # a row of zeros beside falling rows is summed, with a zero tail
    batch = np.array([fall, late, np.zeros(21)])
    value, tail, lmax = sum_l(lambda n: batch[:, :n], 1e-3, rate)
    assert lmax == 20 and value == batch.sum(axis=1).tolist()
    assert tail[2] == 0.0


def test_sum_l_without_rate_is_the_wynn_limit():
    value, err, lmax = sum_l(lambda n: (-1.0) ** _k(n) / (_k(n) + 1.0), 1e-10)
    assert lmax == 159 and err <= 1e-11
    assert value == pytest.approx(math.log(2.0), abs=1e-14)


def _toroidal_series(alpha, m, w_lt, w_gt, deta, tol):
    """The toroidal n-sum as its callers take it: `sum_l` over
    `_toroidal_terms` at `_toroidal_rate`."""
    rate = _toroidal_rate(w_lt, w_gt, deta)
    return sum_l(lambda n: _toroidal_terms(alpha, m, w_lt, w_gt, deta, n), tol, rate)


def test_toroidal_rate_refuses_no_decay_and_no_oscillation(monkeypatch):
    # w> - w< at MIN_RATE or below takes the Wynn limit, which needs the
    # cos(n deta) oscillation: at |deta| < 1e-6 it is refused before any term
    def no_terms(*args):
        raise AssertionError("no coefficient may be asked for")
    monkeypatch.setattr(specfun, "axis_band", no_terms)
    for w_gt in (0.9, 0.9 + 5e-4):
        with pytest.raises(SlowConvergenceError, match="no oscillation"):
            _toroidal_series(0.75, 1, 0.9, w_gt, 5e-7, 1e-8)
        with pytest.raises(SlowConvergenceError, match="no oscillation"):
            g3_toroidal_sum(ConePoint("toroidal", (0.9, 1.0 + 5e-7, 0.3)),
                            ConePoint("toroidal", (w_gt, 1.0, 1.0)), 0.75)
    with pytest.raises(SlowConvergenceError, match="no oscillation"):
        check_toroidal_addition(0.75, 1, 0.9, 0.9 + 5e-4, 1.0 + 5e-7, 1.0)
    assert _toroidal_rate(0.9, 0.9 + 5e-4, 1e-3) is None
    assert _toroidal_rate(0.9, 1.4, 0.0) == 1.4 - 0.9


def test_toroidal_tail_reads_the_folded_terms():
    # at deta = 0 the n-sum is c_0 + sum 2 c_n, and its geometric tail must
    # be read from the 2 c_n it sums, not from the bare c_n
    alpha, m, w_lt, w_gt = 0.75, 1, 0.9, 1.4
    value, tail, nmax = _toroidal_series(alpha, m, w_lt, w_gt, 0.0, 1e-8)
    c = _toroidal_terms(alpha, m, w_lt, w_gt, 0.0, nmax + 1)
    c[1:] /= 2.0
    r = math.exp(-(w_gt - w_lt))
    assert tail == pytest.approx(
        10.0 * float(np.max(np.abs(2.0 * c[-3:]))) * r / (1.0 - r), rel=1e-14)
    assert value == pytest.approx(c[0] + 2.0 * c[1:].sum(), rel=1e-14)


# ----------------------------------------------------------------------
# wynn_limit
# ----------------------------------------------------------------------


def test_wynn_alternating_series():
    # sum (-1)^k/(k+1) = ln 2: the single-term run settles at 160 terms
    value, err, n = wynn_limit(lambda n: (-1.0) ** _k(n) / (_k(n) + 1.0), 1e-10)
    assert n == 160 and err <= 1e-11
    assert value == pytest.approx(math.log(2.0), abs=1e-14)


def test_wynn_pairs_when_every_other_term_vanishes():
    # sum cos(k pi/2)/(k+1) = pi/4: the odd terms vanish, the pair run settles
    value, err, n = wynn_limit(
        lambda n: np.cos(_k(n) * math.pi / 2.0) / (_k(n) + 1.0), 1e-10)
    assert n == 160 and err <= 1e-11
    assert value == pytest.approx(math.pi / 4.0, abs=1e-14)


def test_wynn_doubles_the_length():
    # sum cos((k+1) 0.3)/(k+1) = -ln(2 sin 0.15) needs a second pass
    value, err, n = wynn_limit(
        lambda n: np.cos((_k(n) + 1.0) * 0.3) / (_k(n) + 1.0), 1e-6)
    assert n == 320 and err <= 1e-7
    assert value == pytest.approx(-math.log(2.0 * math.sin(0.15)), abs=1e-10)


def test_wynn_doubles_while_the_terms_rise():
    # e^{k - 400} up to k = 399, then sum (-1)^j / j from j = 1: the first
    # 160 partial sums are all near 0 and agree, so an estimate formed there
    # is 0; n doubles until the largest term, at k = 400, lies in the first
    # quarter
    def terms(n):
        k = _k(n)
        t = np.exp(np.minimum(k, 400.0) - 400.0)
        t[400:] = (-1.0) ** k[400:] / (k[400:] - 399.0)
        return t
    value, err, n = wynn_limit(terms, 1e-10)
    assert n == 2560 and err <= 1e-11
    e = math.exp(-1.0)
    assert value == pytest.approx(e * (1.0 - e ** 400) / (1.0 - e) + math.log(2.0),
                                  abs=1e-12)


def test_wynn_refuses_terms_still_rising_at_its_cap():
    # the largest term at k = 6,000 lies past the first quarter of the
    # 20,480 terms at the cap: no estimate is certified there
    def terms(n):
        k = _k(n)
        return np.exp((np.minimum(k, 6000.0) - 6000.0) / 100.0) * (-1.0) ** k
    with pytest.raises(SlowConvergenceError, match="still rising"):
        wynn_limit(terms, 1e-10)


@pytest.mark.parametrize("alpha, m, theta, theta_p", [
    (1.0, 100, 0.5, 0.6),
    (0.8547274150120507, 600, 0.9100934970669989, 0.9248082021804244),
    (1.0, 400, 1.0, 1.02),
])
def test_app5_band_is_summed_past_its_turning_point(alpha, m, theta, theta_p):
    # the terms peak near (lam + 1/2) sin(theta) = mu, past the first 160:
    # on the rise the first two cases passed with lhs of about 0 and the
    # third failed
    c = check_app5(alpha, m, theta, theta_p)
    miss = abs(c.lhs - c.rhs)
    assert c.passed and miss <= c.certified_tail * max(1.0, abs(c.rhs))
    assert miss <= 1e-4 * abs(c.rhs)


def test_wynn_divergent_series_returns_at_cap():
    value, err, n = wynn_limit(lambda n: 1.0 / (_k(n) + 1.0), 1e-6)
    assert n == 20_480 and err > 1e-6 and math.isfinite(value)


def test_wynn_refuses_a_non_finite_term_at_once():
    # a NaN at k = 5 used to run terms_fn at every length up to the cap
    calls = []

    def terms(n):
        calls.append(n)
        t = (-1.0) ** _k(n) / (_k(n) + 1.0)
        t[5] = math.nan
        return t
    with pytest.raises(ConvergenceError, match="non-finite term nan at k = 5 "):
        wynn_limit(terms, 1e-10)
    assert calls == [160]


def test_wynn_non_finite_term_past_the_first_quarter_is_not_still_rising():
    # the rise guard used to read an inf at k = 100 as the largest term
    def terms(n):
        t = (-1.0) ** _k(n) / (_k(n) + 1.0)
        t[100] = -math.inf
        return t
    with pytest.raises(ConvergenceError, match="non-finite term -inf at k = 100 ") as info:
        wynn_limit(terms, 1e-10)
    assert not isinstance(info.value, SlowConvergenceError)


@pytest.mark.parametrize("tol", [0.0, 1.0, math.nan])
def test_wynn_refuses_tol_outside_the_unit_interval(tol):
    def no_terms(n):
        raise AssertionError("no term may be asked for")
    with pytest.raises(DomainError, match="tol must lie in"):
        wynn_limit(no_terms, tol)


def _wynn_one_run(sums):
    """Wynn's epsilon-algorithm on one run in a table of its own, as
    `wynn_limit` took each of its four runs before they shared one table."""
    prev, cur, est = np.zeros(sums.size + 1), sums, math.nan
    with np.errstate(all="ignore"):
        while cur.size and math.isfinite(cur[-1]):
            est = float(cur[-1])
            for _ in range(2):
                prev, cur = cur, prev[1:cur.size] + 1.0 / (cur[1:] - cur[:-1])
    return est


def _assert_runs_bit_identical(sums):
    pairs = sums[1::2]
    runs = (sums, sums[: sums.size // 2], pairs, pairs[: pairs.size // 2])
    expected = [_wynn_one_run(run) for run in runs]
    got = _wynn_runs(sums)
    assert len(got) == 4
    for e, g in zip(expected, got):
        assert e == g or (math.isnan(e) and math.isnan(g)), (expected, got)


_FLOATS = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sums=st.one_of(
    # arbitrary partial sums, odd and even lengths
    st.lists(_FLOATS, min_size=2, max_size=400),
    # repeated values: zero differences put 1/0 into a column
    st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0]), min_size=2, max_size=400),
    # an infinite partial sum stops a run at column 0 or cuts its window
    st.lists(st.one_of(_FLOATS, st.sampled_from([math.inf, -math.inf])),
             min_size=2, max_size=400)))
def test_wynn_shared_table_is_bit_identical_on_drawn_sums(sums):
    _assert_runs_bit_identical(np.array(sums))


def _block_row(kind, n, seed):
    """A row of n partial sums of one kind, drawn from seed."""
    rng = np.random.default_rng(seed)
    k = np.arange(n, dtype=float)
    if kind == "noise":
        return rng.uniform(-1e3, 1e3, n)
    if kind == "repeated":          # zero differences put 1/0 into a column
        return rng.choice([-1.0, 0.0, 0.5, 1.0], n)
    if kind == "infinite":          # +-inf partial sums stop or cut a run
        row = rng.uniform(-1e3, 1e3, n)
        row[rng.integers(0, n, rng.integers(1, 4))] = rng.choice([math.inf, -math.inf])
        return row
    # oscillating series: their runs die at depths that vary with p and phase
    return np.cumsum(np.cos(k * rng.uniform(0.0, math.pi)) / (k + 1.0) ** rng.uniform(0.1, 3.0))


def _assert_block_rows_bit_identical(sums):
    got = _wynn_runs(sums)
    assert len(got) == len(sums)
    for row, g in zip(sums, got):
        e = _wynn_runs(row)
        assert len(g) == 4
        assert all(a == b or (math.isnan(a) and math.isnan(b)) for a, b in zip(e, g)), (e, g)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n=st.integers(2, 400), rows=st.lists(st.tuples(
    st.sampled_from(["noise", "repeated", "infinite", "series"]),
    st.integers(0, 2 ** 32 - 1)), min_size=1, max_size=20))
def test_wynn_block_rows_are_bit_identical_to_their_own_tables(n, rows):
    # a 2-D table lays its rows end to end: each row's four estimates are
    # those of its own 1-D table, wherever each of its runs stops
    _assert_block_rows_bit_identical(np.array([_block_row(kind, n, seed) for kind, seed in rows]))


@pytest.mark.parametrize("n", [2, 3, 160])
def test_wynn_block_rows_dying_at_different_depths(n):
    # a table that empties (n = 3 is sums = [0, 0, 1]), repeated values
    # that die at once, an infinite sum and a series that runs to full depth
    k = np.arange(n, dtype=float)
    sums = np.array([np.where(k < 2, 0.0, 1.0), np.zeros(n), np.where(k == 1, math.inf, k),
                     np.cumsum((-1.0) ** k / (k + 1.0))])
    _assert_block_rows_bit_identical(sums)
    assert _wynn_runs(sums)[1][:3] == [0.0, 0.0, 0.0]   # dead after column 0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 400), p=st.floats(0.1, 3.0), phase=st.floats(0.0, math.pi))
def test_wynn_shared_table_is_bit_identical_on_convergent_sums(n, p, phase):
    # oscillating series deep into the table, odd and even lengths
    k = np.arange(n, dtype=float)
    _assert_runs_bit_identical(np.cumsum(np.cos(k * phase) / (k + 1.0) ** p))


@pytest.mark.parametrize("n", [160, 320, 333])
def test_wynn_shared_table_is_bit_identical_on_an_app5_band(n):
    # the app5 band of (alpha, m, theta, theta') = (0.75, 1, pi/4, pi/2)
    x1, x2 = math.cos(math.pi / 4.0), math.cos(math.pi / 2.0)
    _assert_runs_bit_identical(np.cumsum(specfun.ferrers_band(1.0 / 0.75, x1, x2, n)))


def _abel_oracle(coeffs, h0, levels):
    """The Abel/Richardson limit that wynn_limit replaced: sum c_l x^l at
    x = 1 - h0 2^-j, j < levels, Richardson-extrapolated in h = 1 - x.
    Needs about 26 / (h0 2^(1 - levels)) coefficients."""
    powers = np.arange(coeffs.size, dtype=float)
    vals = [float(np.dot(coeffs, (1.0 - h0 * 0.5 ** j) ** powers))
            for j in range(levels)]
    table = richardson_table(vals)
    return table[-1][-1], abs(table[-1][-1] - table[-2][-1])


@pytest.mark.parametrize("mu, theta, theta_p", [
    (1.0 / 0.75, math.pi / 4.0, math.pi / 2.0),       # app5 band, theta' = pi/2
    (2.0 / 0.75, math.pi / 3.0, 2.0 * math.pi / 3.0),  # Linet band, theta' = pi - theta
])
def test_wynn_matches_abel_on_ferrers_bands(mu, theta, theta_p):
    x1, x2 = math.cos(theta), math.cos(theta_p)
    ref, ref_err = _abel_oracle(specfun.ferrers_band(mu, x1, x2, 20_800),
                                0.08, 7)
    value, err, _ = wynn_limit(lambda n: specfun.ferrers_band(mu, x1, x2, n),
                               1e-10)
    assert err <= 1e-11 and ref_err < 1e-10
    assert value == pytest.approx(ref, abs=1e-10)


def test_wynn_matches_abel_on_equal_w_toroidal_sum():
    alpha, m, w, deta = 0.75, 1, 0.9, -1.4
    ref, ref_err = _abel_oracle(_toroidal_terms(alpha, m, w, w, deta, 12_000), 0.1, 6)
    value, err, _ = _toroidal_series(alpha, m, w, w, deta, 1e-10)
    assert err <= 1e-11 and ref_err < 1e-10
    assert value == pytest.approx(ref, abs=1e-10)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(theta=st.floats(0.05, math.pi - 0.05),
       theta_p=st.floats(0.05, math.pi - 0.05),
       alpha=st.sampled_from([1.0, 0.75, 0.5, 0.25, 0.1]),
       m=st.integers(0, 4))
def test_app5_against_mpmath(theta, theta_p, alpha, m):
    assume(abs(theta - theta_p) >= 0.05)
    c = check_app5(alpha, m, theta, theta_p)
    ss = math.sin(theta) * math.sin(theta_p)
    coshxi = (1.0 - math.cos(theta) * math.cos(theta_p)) / ss
    with mpmath.workdps(30):
        q = mpmath.legenq(m / alpha - 0.5, 0, mpmath.mpf(coshxi), type=3)
        rhs = float(mpmath.re(q) / (mpmath.pi * mpmath.sqrt(ss)))
    assert abs(c.lhs - rhs) / max(1.0, abs(rhs)) <= 1e-6


@pytest.mark.parametrize("alpha, theta, theta_p, dphi", [
    (0.758770507550478, 1.407756873103598, math.pi / 2, -1.1148595641672572),
    (0.8016828137246776, 1.4266567571901136, math.pi / 2, 1.2475837126601808),
])
def test_linet_high_order_bands_stay_finite(alpha, theta, theta_p, dphi):
    # 20,800-term Ferrers chains at mu of 120-160 left float range here and
    # gave lhs of order -1e306 against rhs of about 1
    c = check_linet_sum(alpha, theta, theta_p, dphi)
    assert math.isfinite(c.lhs) and c.residual < 1e-6


# ----------------------------------------------------------------------
# the QUADPACK gate
# ----------------------------------------------------------------------

def test_quadpack_failure_code_is_one_line_error(capfd):
    # the fixed 400 subintervals cannot resolve 16,000 periods: QUADPACK's
    # ier = 1, which scipy reports as a multi-line warning without full_output
    with warnings.catch_warnings(), pytest.raises(QuadratureError) as exc:
        warnings.simplefilter("error")
        quadpack(lambda x: math.sin(1e5 * x), 0.0, 1.0, "test integral", 1.0)
    # the first sentence of QUADPACK's message
    assert str(exc.value) == ("test integral: The maximum number of "
                              "subdivisions (400) has been achieved.")
    assert capfd.readouterr() == ("", "")


def test_quadpack_estimate_above_bound_raises():
    value, error = quadpack(math.exp, 0.0, 1.0, "exp", 1.0)
    assert 0.0 < error
    with pytest.raises(QuadratureError, match="^exp: error estimate"):
        quadpack(math.exp, 0.0, 1.0, "exp", 0.5 * error, 0.5 * error / value)


def test_quadpack_nan_estimate_raises(monkeypatch):
    import scipy.integrate
    monkeypatch.setattr(scipy.integrate, "quad",
                        lambda *args, **kwargs: (1.0, math.nan, {}))
    with pytest.raises(QuadratureError, match="error estimate nan"):
        quadpack(math.exp, 0.0, 1.0, "exp", 1.0, 1.0)


@pytest.mark.parametrize("f, a, b, options", [
    (math.exp, 0.0, 1.0, {}),
    (lambda x: math.exp(-x * x), 0.0, math.inf, {"epsrel": 1e-12}),
    (lambda x: math.exp(-x), 0.0, math.inf, {"weight": "cos", "wvar": 2.0}),
])
def test_quadpack_returns_scipy_value_and_error(f, a, b, options):
    # quadpack's own settings, then what the caller passes
    from scipy.integrate import quad
    settings = {"epsabs": 1e-13, "epsrel": 1e-11, "limit": 400, **options}
    assert quadpack(f, a, b, "f", 1e-6, **options) == quad(f, a, b, **settings)


# ----------------------------------------------------------------------
# the sinh-mapped trapezoid rule
# ----------------------------------------------------------------------

def _sech(t):
    # 1/cosh t without overflow: poles at +-i pi/2, integral pi/2 on [0, oo)
    e = np.exp(-np.abs(t))
    return 2.0 * e / (1.0 + e * e)


def test_trapezoid_closed_form():
    # the error is the move of the last halving, far above the error left
    value, error = trapezoid(_sech, 0.5 * math.pi, "sech", 1e-9)
    assert value == pytest.approx(0.5 * math.pi, rel=4e-16)
    assert 1e-15 < error <= 1e-9


def test_trapezoid_estimate_above_bound_raises():
    # a ripple of 1e-6 at period 2 pi/1000 that the steps do not resolve:
    # the halvings stop falling far above the bound
    def f(t):
        return _sech(t) * (1.0 + 1e-6 * np.sin(1e3 * t))
    with pytest.raises(QuadratureError, match="^ripple: error estimate .* exceeds 1.00e-12$"):
        trapezoid(f, 0.5 * math.pi, "ripple", 1e-12)


def test_trapezoid_nan_estimate_raises():
    def f(t):
        return np.where(t > 1.0, math.nan, _sech(t))
    with pytest.raises(QuadratureError, match="^nan: error estimate nan exceeds 1.00e[+]00$"):
        trapezoid(f, 0.5 * math.pi, "nan", 1.0, 1.0)


def test_trapezoid_node_cap_raises():
    # e^{-|t|} has a kink at t = 0: each halving moves the sum a quarter of
    # the last, which reaches 1e-9 of it only past the node cap
    with pytest.raises(QuadratureError, match="^kink: no estimate within 2048 nodes$"):
        trapezoid(lambda t: np.exp(-np.abs(t)), 1.0, "kink", 1.0, 1.0)


def test_trapezoid_refuses_terms_that_do_not_decay():
    with pytest.raises(QuadratureError, match="^flat: no decay by t = "):
        trapezoid(lambda t: np.ones_like(t), 1.0, "flat", 1.0, 1.0)


def _quad_of(f):
    # QUADPACK on the scalar values of a vectorized integrand; full_output
    # keeps its roundoff flag (the diagonal near its dphi guard) from warning
    from scipy.integrate import quad
    return quad(lambda t: float(f(np.array([t]))[0]), 0.0, math.inf, epsabs=0.0,
                epsrel=1e-12, limit=400, full_output=1)[0]


def _spied_integrands(call):
    """(f, value) of every `trapezoid` that call() runs in conespace and
    identities."""
    seen = []

    def spy(f, *args):
        out = trapezoid(f, *args)
        seen.append((f, out[0]))
        return out
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conespace, "trapezoid", spy)
        mp.setattr(identities, "trapezoid", spy)
        call()
    return seen


_NULL_OFFSET = st.floats(1.05e-2, 0.2) | st.floats(-0.2, -1.05e-2)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(alpha=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
       theta=st.floats(0.02, math.pi - 0.02), theta_p=st.floats(0.02, math.pi - 0.02),
       where=st.sampled_from(["any", "n = 0", "n = -1"]),
       dphi=st.floats(0.0, math.pi), offset=_NULL_OFFSET)
def test_trapezoid_against_quad_on_linet_u_integral(alpha, theta, theta_p, where,
                                                    dphi, offset):
    # a null image lies at dphi = pi/alpha (n = 0) or 2 pi - pi/alpha (n = -1);
    # pairs reach 1.05e-2 of one, where the poles of F_alpha near the axis
    assume(abs(theta - theta_p) > 1e-3)
    if where != "any":
        dphi = offset + (math.pi / alpha if where == "n = 0"
                         else 2.0 * math.pi - math.pi / alpha)
    assume(0.0 <= dphi <= math.pi
           and min(abs(math.pi / alpha - abs(dphi + 2.0 * math.pi * n))
                   for n in (-1, 0, 1)) >= 1.05e-2)
    [(f, value)] = _spied_integrands(lambda: g3_linet(
        ConePoint("spherical", (1.0, theta, 0.0)),
        ConePoint("spherical", (1.0, theta_p, dphi)), alpha))
    assert value == pytest.approx(_quad_of(f), rel=1e-10, abs=1e-13)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(alpha=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
       theta=st.floats(0.02, math.pi - 0.02),
       log_dphi=st.floats(math.log10(1.415e-5), math.log10(math.pi)))
def test_trapezoid_against_quad_on_diagonal_resummation(alpha, theta, log_dphi):
    # dphi from pi down to the 2 sin^2(dphi/2) >= 1e-10 guard (dphi ~ 1.414e-5)
    [(f, value)] = _spied_integrands(
        lambda: identities._linet_lhs_diag(alpha, theta, 10.0 ** log_dphi, 1e-6))
    assert value == pytest.approx(_quad_of(f), rel=1e-10)
