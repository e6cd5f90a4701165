"""Vacuum polarization on the horizon: both routes, asymptote, dominance
angle, and the figure data table."""

import math

import numpy as np
import pytest

from stringhorizon.blackhole import DeficitGeometry
from stringhorizon.errors import DomainError, ExtrapolationError
from stringhorizon.vacuumpol import (dominance_angle, figure1_data,
                                     phi2_closed, phi2_limit, phi2_near_axis,
                                     phi2_result)

PI = math.pi
CANDELAS = 1.0 / (192.0 * PI ** 2)


def test_phi2_closed_candelas():
    for th in (0.3, PI / 2, 2.5):
        assert phi2_closed(th, 1.0, 1.0) == pytest.approx(CANDELAS, rel=1e-14)


def test_phi2_closed_string_factor():
    assert phi2_closed(PI / 2, 0.5, 1.0) == pytest.approx(4.0 * CANDELAS,
                                                          rel=1e-14)
    for alpha in (0.9, 0.75, 0.5):
        ratio = phi2_closed(PI / 2, alpha) / phi2_closed(PI / 2, 1.0)
        assert ratio == pytest.approx(1.0 / alpha ** 2, rel=1e-12)


def test_phi2_closed_string_term_vanishes_alpha1():
    for th in (0.4, 1.2):
        d = phi2_closed(th, 1.0 - 1e-9) - phi2_closed(th, 1.0)
        # string term ~ 2e-9 / sin^2(theta) times the Candelas value
        assert 0.0 <= d < 3e-9 / math.sin(th) ** 2 * CANDELAS


def test_phi2_closed_domain():
    with pytest.raises(DomainError):
        phi2_closed(0.0, 0.9)
    with pytest.raises(DomainError):
        phi2_closed(PI, 0.9)


def test_phi2_limit_candelas():
    eps = [1e-2 * 0.5 ** k for k in range(7)]
    lim, err = phi2_limit(PI / 2, 1.0, 1.0, eps)
    assert lim == pytest.approx(CANDELAS, abs=1e-8)


def test_phi2_limit_matches_closed():
    lim, err = phi2_limit(PI / 3, 0.6)
    assert abs(lim - phi2_closed(PI / 3, 0.6)) < 1e-7


def test_phi2_limit_bracket_slope_finite():
    # value(eps) - limit = O(eps): the fitted slope settles under halving
    from stringhorizon.vacuumpol import _bracket
    geo = DeficitGeometry(alpha=0.75, M=1.0)
    closed = phi2_closed(PI / 2, 0.75)
    slopes = [( _bracket(e, PI / 2, geo) - closed) / e
              for e in (2e-3, 1e-3, 5e-4)]
    assert slopes[0] == pytest.approx(slopes[-1], rel=0.02)
    assert all(math.isfinite(s) for s in slopes)


def test_phi2_limit_route_agreement_grid():
    for alpha in (1.0, 0.9, 0.75, 0.5, 0.25):
        for th in (PI / 6, PI / 3, PI / 2):
            res = phi2_result(th, alpha, 1.0)
            assert res.route_agreement < 1e-7, (alpha, th)
            assert res.value_closed > 0.0


@pytest.mark.parametrize("alpha", [1.0, 0.5])
@pytest.mark.parametrize("theta", [0.05, 0.1, 0.2, 0.3])
def test_phi2_limit_near_axis(theta, alpha):
    # the default epsilon sequence starts below 0.1 M sin^2(theta) there too
    lim, _ = phi2_limit(theta, alpha)
    assert lim == pytest.approx(phi2_closed(theta, alpha), rel=1e-8)


@pytest.mark.parametrize("alpha", [0.1, 0.05, 0.01, 1e-3])
@pytest.mark.parametrize("theta", [PI / 3, PI / 2])
def test_phi2_limit_small_alpha(theta, alpha):
    # the default epsilon sequence shrinks with alpha^2: the bracket reaches
    # its expansion only for eps << alpha^2 sin^2(theta) M
    lim, _ = phi2_limit(theta, alpha)
    assert lim == pytest.approx(phi2_closed(theta, alpha), rel=1e-8)


def test_phi2_limit_bracket_out_of_float_range():
    # at alpha = 1e-154 the default epsilons are subnormal and g_sing
    # overflows: an ExtrapolationError, not a NaN limit
    with pytest.raises(ExtrapolationError):
        phi2_limit(PI / 2, 1e-154)


def test_phi2_closed_out_of_float_range():
    # alpha^2 sin^2(theta) or M^2 underflows: a DomainError, not a
    # ZeroDivisionError or an inf
    for theta, alpha, M in ((1.0, 1e-300, 1.0), (1e-300, 0.5, 1.0),
                            (1e-160, 0.5, 1.0), (1.0, 1.0, 1e-300)):
        with pytest.raises(DomainError):
            phi2_closed(theta, alpha, M)
    with pytest.raises(DomainError):
        figure1_data([1e-300], points=3)


def test_phi2_limit_validation():
    with pytest.raises(DomainError):
        phi2_limit(PI / 2, 1.0, 1.0, [1e-3, 1e-3, 1e-3])
    with pytest.raises(DomainError):
        phi2_limit(PI / 6, 1.0, 1.0, [0.09, 0.045, 0.0225])  # above 0.1 M sin^2
    with pytest.raises(DomainError):
        phi2_limit(PI / 2, 1.0, 1.0, [1e-2, 5e-3, 3e-3])     # ratio not fixed


def test_phi2_mass_scaling():
    for M in (0.5, 2.0, 10.0):
        assert phi2_closed(1.0, 0.8, M) == pytest.approx(
            phi2_closed(1.0, 0.8, 1.0) / M ** 2, rel=1e-13)
        lim, _ = phi2_limit(PI / 2, 0.8, M)
        assert lim == pytest.approx(phi2_closed(PI / 2, 0.8, M), rel=1e-6)


def test_phi2_monotone_in_alpha():
    for th in (PI / 6, PI / 2):
        vals = [phi2_closed(th, a) for a in (0.25, 0.5, 0.75, 0.9, 1.0)]
        assert all(x > y for x, y in zip(vals, vals[1:]))


def test_phi2_string_contribution_positive():
    for th in (0.3, 1.0, 2.8):
        for alpha in (0.3, 0.7, 0.99):
            assert phi2_closed(th, alpha) - phi2_closed(th, 1.0) > 0.0
    assert phi2_closed(1.0, 1.0) - phi2_closed(1.0, 1.0) == 0.0


# ----------------------------------------------------------------------
# near-axis asymptote and dominance angle
# ----------------------------------------------------------------------

def test_near_axis_ratio():
    th = math.asin(1e-3)
    ratio = phi2_closed(th, 0.9) / phi2_near_axis(th, 0.9)
    assert ratio == pytest.approx(1.0, abs=1e-3)


def test_near_axis_domain():
    with pytest.raises(DomainError):
        phi2_near_axis(math.asin(1e-3), 1.0)
    with pytest.raises(DomainError):
        phi2_near_axis(PI / 4, 0.9)   # not near the axis


def test_near_axis_mass_scaling():
    th = math.asin(5e-3)
    assert phi2_near_axis(th, 0.8, 2.0) == pytest.approx(
        phi2_near_axis(th, 0.8, 1.0) / 4.0, rel=1e-13)


def test_dominance_angle_values():
    assert dominance_angle(0.9) == pytest.approx(1.0 / math.sqrt(1.19),
                                                 rel=1e-12)
    for alpha in (0.5, 0.75, 0.9):
        ct2 = dominance_angle(alpha)
        th2 = math.acos(ct2)
        assert phi2_closed(th2, alpha) == pytest.approx(
            2.0 * phi2_closed(PI / 2, alpha), rel=1e-10)


def test_dominance_angle_alpha_to_one():
    assert dominance_angle(1.0 - 1e-12) == pytest.approx(1.0, abs=1e-10)


def test_dominance_angle_first_order():
    # 1 - cos(theta_2) = (1 - alpha) + O((1-alpha)^2): the quadratic-order
    # remainder shows slope-2 decay in log-log
    alphas = np.array([0.9, 0.99, 0.999])
    rem = np.array([abs((1.0 - dominance_angle(a)) - (1.0 - a))
                    for a in alphas])
    slopes = np.diff(np.log(rem)) / np.diff(np.log(1.0 - alphas))
    assert np.all(np.abs(slopes - 2.0) < 0.1)


# ----------------------------------------------------------------------
# figure-1 data
# ----------------------------------------------------------------------

def test_figure1_alpha1_row_constant():
    rows = figure1_data([1.0], points=21)
    vals = [r[2] for r in rows]
    assert all(v == pytest.approx(CANDELAS, rel=1e-14) for v in vals)


def test_figure1_shape_and_order():
    rows = figure1_data([1.0, 0.5, 0.9], points=21)
    assert len(rows) == 3 * 21
    alphas = [r[1] for r in rows]
    assert alphas == sorted(alphas, reverse=True)
    # cos grid ascending within each alpha block
    for b in range(3):
        block = rows[b * 21:(b + 1) * 21]
        cts = [r[0] for r in block]
        assert cts == sorted(cts)


def test_figure1_symmetry_exact():
    rows = figure1_data([0.75], points=41)
    cts = [r[0] for r in rows]
    vals = [r[2] for r in rows]
    n = len(rows)
    for i in range(n // 2):
        assert cts[i] == -cts[n - 1 - i]
        assert vals[i] == vals[n - 1 - i]   # bitwise equal


def test_figure1_equator_minimum_and_alpha_monotone():
    rows_a = figure1_data([0.75], points=41)
    vals = [r[2] for r in rows_a]
    mid = len(vals) // 2
    assert vals[mid] == min(vals)
    assert all(vals[i] >= vals[i + 1] for i in range(mid))       # toward equator
    assert all(vals[i] <= vals[i + 1] for i in range(mid, 40))   # toward pole
    rows_b = figure1_data([0.9], points=41)
    assert all(a[2] > b[2] for a, b in zip(rows_a, rows_b))


def test_figure1_equator_value_string_factor():
    rows = figure1_data([0.5], cos_theta_grid=[0.0])
    assert rows[0][2] == pytest.approx(4.0 * CANDELAS, rel=1e-14)


def test_figure1_margin():
    with pytest.raises(DomainError):
        figure1_data([0.9], cos_theta_grid=[0.999])
