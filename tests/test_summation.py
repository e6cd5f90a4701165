"""The azimuthal mode sum `sum_m_bands`: the m >= 0 fold, the tail
it reports, and its two stopping rules."""

import math

import pytest

from stringhorizon.errors import SlowConvergenceError
from stringhorizon.summation import sum_m_bands


def test_fold_of_constant_bands():
    dphi = 0.7
    value, _, m_last = sum_m_bands(lambda m: (1.0, 0.0), 1e-8, dphi, mmax=10)
    expected = 1.0 + 2.0 * sum(math.cos(m * dphi) for m in range(1, 11))
    assert value == pytest.approx(expected, rel=1e-14)
    assert m_last == 10


def test_band_weight_bits():
    # m = 0 enters unweighted, m > 0 as 2 cos(m dphi) * band, in that order
    dphi, bands = 1.3, [0.3, -0.7, 0.11]
    value, _, _ = sum_m_bands(lambda m: (bands[m], 0.0), 1e-8, dphi, mmax=2)
    total = 0.0
    for m, b in enumerate(bands):
        total += b if m == 0 else 2.0 * math.cos(m * dphi) * b
    assert value == total


def test_tail_adds_band_tails_and_last_band():
    dphi = 0.4
    value, tail, m_last = sum_m_bands(lambda m: (0.5 ** m, 0.25 * m), 1e-8,
                                      dphi, mmax=5)
    last = abs(2.0 * math.cos(5 * dphi) * 0.5 ** 5)
    assert m_last == 5
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


def test_mmax_truncates_without_raising():
    value, _, m_last = sum_m_bands(lambda m: (1.0, 0.0), 1e-8, mmax=7)
    assert m_last == 7 and value == 15.0
    # an early stop still applies below mmax
    _, _, m_last = sum_m_bands(lambda m: (10.0 ** -m, 0.0), 1e-3, mmax=100)
    assert m_last <= 100 and m_last == 7


def test_unsettled_sum_raises_without_mmax():
    calls = []

    def band(m):
        calls.append(m)
        return 1.0, 0.0

    with pytest.raises(SlowConvergenceError):
        sum_m_bands(band, 1e-8)
    assert len(calls) == 400
