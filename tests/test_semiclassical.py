import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (asymptotic_speed, big_ball_speed, extremum_floor_mp,
                     near_integer_extremum_ratio, ode_half_trip_phase,
                     ode_phase_integral, two_level_mean_position_quadrature)
from pibilliards import (BilliardParams, DomainError, SemiclassicalConfig,
                         accumulated_phase, berry_connection, count_extrema,
                         extremum_count, sample_curve, total_phase)


def cfg_for(n, ratio_root, x_min=1.0):
    return SemiclassicalConfig(n, BilliardParams(ratio_root ** 2, 1.0), x_min=x_min)


# -- Berry connection ------------------------------------------------------

def test_berry_connection_quadrature_tiny():
    assert abs(berry_connection(2, 1.7)) < 1e-10
    for n in range(1, 11):
        for x in (0.7, 1.0, 1.7):
            assert abs(berry_connection(n, x)) < 1e-10


@pytest.mark.parametrize("n, x", [
    (143, 1.0), (144, 0.7), (183, 1.7), (260, 1.0), (300, 0.7), (300, 1.0), (300, 1.7),
    (1000, 1.0), (2000, 1.0), (3000, 0.7), (3000, 1.0), (3000, 1.7),
    pytest.param(10000, 0.7, marks=pytest.mark.xfail(strict=True, reason=(
        "-7.7e-10: random half-ulp shifts of the nodes move the sum by 1.3e-9, "
        "a relative 1e-15 on the weights by 6e-14")))])
def test_berry_connection_resolves_large_n(n, x):
    # beyond n = 143 the rule must grow: 320 nodes give -1.38 at n = 200 and
    # 22.1 at n = 260.  n = 143 and 144 straddle the step from 320 nodes to
    # 2(n + 1) + 32, and up to n = 183 that rule has fewer than 400 nodes.
    # n = 3000 is the end of the checked range.  There the value is set by
    # the last bit of each node, not by the weights: the integrand is of
    # size n and its phase n pi (t + 1)/2, so random half-ulp shifts of the
    # nodes move the value at x = 1.0 by 6.7e-11 (one standard deviation).
    # This rule gives 5.9e-11, 8.0e-11 and -6.9e-12 at x = 0.7, 1.0 and 1.7.
    assert abs(berry_connection(n, x)) < 1e-10


def test_berry_connection_takes_integral_float_n():
    # n = 200.0 passes the quantum-number check, so the rule grows as for 200
    assert berry_connection(200.0, 0.7) == berry_connection(200, 0.7)


# -- speed law --------------------------------------------------------------------

def test_speed_vanishes_at_turning_point():
    cfg = cfg_for(1, 10.0)
    assert big_ball_speed(cfg.x_min, cfg) == 0.0


def test_speed_monotone_to_asymptote():
    cfg = cfg_for(3, 10.0, x_min=0.8)
    xs = np.geomspace(cfg.x_min, 1e5 * cfg.x_min, 200)
    vs = [big_ball_speed(float(x), cfg) for x in xs]
    assert all(a <= b for a, b in zip(vs, vs[1:]))
    assert vs[-1] == pytest.approx(asymptotic_speed(cfg), rel=1e-9)


def test_speed_ratio_at_double_width():
    for n, rr in [(1, 10.0), (5, 3.0)]:
        cfg = cfg_for(n, rr, x_min=1.3)
        ratio = big_ball_speed(2 * cfg.x_min, cfg) / asymptotic_speed(cfg)
        assert ratio == pytest.approx(math.sqrt(3) / 2, rel=1e-14)


def test_speed_domain():
    cfg = cfg_for(1, 10.0)
    with pytest.raises(DomainError):
        big_ball_speed(0.5 * cfg.x_min, cfg)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            big_ball_speed(bad, cfg)


def test_energy_bookkeeping():
    # M v(x)^2 / 2 + mean two-level energy(x) = mean two-level energy(x_min),
    # with the well levels E_n(x) = (n pi hbar)^2 / (2 m x^2), hbar = 1
    def two_level_energy(x, cfg):
        p = cfg.params
        return 0.5 * sum((k * math.pi) ** 2 / (2.0 * p.m * x * x)
                         for k in (cfg.n, cfg.n + 1))

    for n, rr, xm in [(1, 10.0, 1.0), (4, 3.08, 0.5), (10, 100.0, 2.0)]:
        cfg = cfg_for(n, rr, x_min=xm)
        e_turn = two_level_energy(cfg.x_min, cfg)
        for x in np.geomspace(xm, 100 * xm, 50):
            lhs = 0.5 * cfg.params.M * big_ball_speed(float(x), cfg) ** 2 \
                + two_level_energy(float(x), cfg)
            assert abs(lhs - e_turn) / e_turn < 1e-12


# -- accumulated phase ---------------------------------------------------------------

def test_total_phase_value():
    cfg = cfg_for(1, 10.0)
    expected = math.sqrt(9.0 / 10.0) * math.pi ** 2 * 10.0
    assert total_phase(cfg) == pytest.approx(expected, rel=1e-15)
    assert total_phase(cfg) == pytest.approx(93.631289, abs=1e-5)


def test_accumulated_phase_at_turning_point_is_half():
    for n, rr in [(1, 10.0), (7, 3.0)]:
        cfg = cfg_for(n, rr, x_min=0.7)
        for sign in (-1, 0, 1):
            assert accumulated_phase(cfg.x_min, cfg, sign) == \
                pytest.approx(total_phase(cfg) / 2, rel=1e-15)


def test_accumulated_phase_legs_monotone_in_time():
    cfg = cfg_for(2, 10.0)
    xs = np.geomspace(cfg.x_min, 50.0, 40)
    incoming = [accumulated_phase(float(x), cfg, -1) for x in xs[::-1]]
    outgoing = [accumulated_phase(float(x), cfg, +1) for x in xs]
    full = incoming + outgoing
    assert all(a <= b + 1e-12 for a, b in zip(full, full[1:]))
    # phase starts near zero far out (arccos(x_min/x) ~ pi/2 - x_min/x)
    assert accumulated_phase(1e6, cfg, -1) == pytest.approx(0.0, abs=1e-4)
    assert accumulated_phase(1e6, cfg, +1) == \
        pytest.approx(total_phase(cfg), rel=1e-4)


def test_phase_matches_ode_oracle():
    for n in (1, 3):
        for rr in (3.08, 10.0):
            cfg = cfg_for(n, rr, x_min=1.0)
            half_ode = ode_half_trip_phase(cfg)
            assert half_ode == pytest.approx(total_phase(cfg) / 2, rel=1e-6)
            for x in (1.3, 2.9):
                run = ode_phase_integral(cfg, x)
                assert accumulated_phase(x, cfg, -1) == \
                    pytest.approx(half_ode - run, rel=1e-6)
                assert accumulated_phase(x, cfg, +1) == \
                    pytest.approx(half_ode + run, rel=1e-6)


def test_bohr_phase_is_independent_of_hbar():
    # the Bohr frequency (E_{n+1} - E_n)/hbar and the heavy ball's speed both
    # scale as hbar, so their ratio, the phase, has no hbar to carry
    for n, rr in [(1, 10.0), (4, 3.08)]:
        cfg = cfg_for(n, rr)
        for hbar in (0.5, 2.0):
            assert ode_half_trip_phase(cfg, hbar) == \
                pytest.approx(total_phase(cfg) / 2, rel=1e-6)


def test_total_phase_independent_of_x_min():
    for xm in (0.5, 1.0, 2.0):
        assert total_phase(cfg_for(2, 10.0, x_min=xm)) == \
            total_phase(cfg_for(2, 10.0, x_min=1.0))


def test_total_phase_ratio_monotone_to_one():
    ratios = [total_phase(cfg_for(n, 10.0)) / (math.pi ** 2 * 10.0)
              for n in range(1, 60)]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert all(r < 1.0 for r in ratios)
    assert ratios[-1] > 0.99996


def test_accumulated_phase_domain():
    cfg = cfg_for(1, 10.0)
    with pytest.raises(DomainError):
        accumulated_phase(0.5, cfg, -1)
    with pytest.raises(DomainError):
        accumulated_phase(2.0, cfg, 2)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            accumulated_phase(bad, cfg, 1)
    with pytest.raises(DomainError):
        accumulated_phase(2.0, cfg, math.nan)


# -- mean position ------------------------------------------------------------------

def test_mean_position_value_and_quadrature():
    # the mean position in a well of width x is x (1/2 - A(n) cos(phase))
    cfg = cfg_for(1, 10.0)
    assert cfg.position_amplitude == pytest.approx(16.0 / (9.0 * math.pi ** 2), rel=1e-14)
    for phase in (0.0, 0.7, 2.0):
        assert 0.5 - cfg.position_amplitude * math.cos(phase) == \
            pytest.approx(two_level_mean_position_quadrature(1, phase, 1.0), abs=1e-12)
    cfg5 = cfg_for(5, 10.0)
    assert 2.3 / 2 - 2.3 * cfg5.position_amplitude * math.cos(1.1) == \
        pytest.approx(two_level_mean_position_quadrature(5, 1.1, 2.3), abs=1e-12)


def test_mean_position_strictly_inside_well():
    for n in range(1, 30):
        cfg = cfg_for(n, 10.0)
        assert 0.0 < cfg.position_amplitude < 0.5


def test_amplitude_coefficient_limit():
    # 8n(n+1)/(2n+1)^2 -> 2, so the normalized amplitude tends to 2/pi^2
    n = 10 ** 6
    cfg = cfg_for(n, 10.0)
    assert cfg.position_amplitude * math.pi ** 2 == pytest.approx(2.0, rel=1e-6)


# -- extrema and curves ----------------------------------------------------------------

def test_extremum_count_values():
    assert extremum_count(cfg_for(1, 10.0)) == 29
    assert extremum_count(cfg_for(10, 10.0)) == 31


def test_extremum_count_large_n_tie_geometry():
    # n -> infinity at beta = pi/10: the prefactor tends to pi cot(pi/10),
    # i.e. 9.67, one short of pi/beta = 10 exactly like the grazed classical ray
    rr = 1.0 / math.tan(math.pi / 10)
    assert extremum_count(cfg_for(10 ** 6, rr)) == 9


@settings(max_examples=200, deadline=None)
@given(st.builds(lambda n, k: (n, near_integer_extremum_ratio(n, k)),
                 st.sampled_from([1, 3, 10]), st.integers(1, 10 ** 8)))
@example((1, 8955504.841738565))  # the double prefactor's floor is 8918, P = 8919 + 5.5e-15
@example((1, 31918226.74030792))  # 16838 from the double, floor 16837
@example((1, 120203058.9867468))  # 32675 from the double, floor 32676
def test_extremum_count_matches_mpmath_floor(case):
    # P lands within a few ulps of an integer, where the double's floor is
    # off by one for about a third of such ratios
    n, ratio = case
    cfg = SemiclassicalConfig(n, BilliardParams(ratio, 1.0))
    assert extremum_count(cfg) == extremum_floor_mp(n, ratio)


def test_extremum_count_matches_curve_scan():
    for n, rr in [(1, 10.0), (10, 10.0), (3, 3.0777)]:
        cfg = cfg_for(n, rr)
        series = sample_curve(cfg, grid=6000)
        scanned = count_extrema(series.ys, prominence=1e-4)
        assert abs(scanned - extremum_count(cfg)) <= 1


def test_sample_curve_bounds_and_independence():
    cfg = sample_curve(cfg_for(1, 10.0), grid=512)
    assert np.all(cfg.ys > 0.0) and np.all(cfg.ys < 1.0)
    a = sample_curve(cfg_for(4, 10.0, x_min=0.5), grid=257)
    b = sample_curve(cfg_for(4, 10.0, x_min=2.0), grid=257)
    np.testing.assert_array_equal(a.ys, b.ys)


def test_sample_curve_approaches_classical_count():
    # at fixed geometry the oscillation phase grows with n toward the
    # classical full-trip phase, and the extremum count settles at the
    # classical collision count (9 for this grazed-tie geometry)
    rr = 1.0 / math.tan(math.pi / 10)
    prefactors = [cfg_for(n, rr).phase_prefactor for n in (1, 3, 10, 100)]
    assert all(a < b for a, b in zip(prefactors, prefactors[1:]))
    assert extremum_count(cfg_for(100, rr)) == 9


def test_config_validation():
    with pytest.raises(DomainError):
        SemiclassicalConfig(0, BilliardParams())
    with pytest.raises(DomainError):
        SemiclassicalConfig(1, BilliardParams(), x_min=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            SemiclassicalConfig(1, BilliardParams(), x_min=bad)
        with pytest.raises(DomainError):
            SemiclassicalConfig(bad, BilliardParams())
