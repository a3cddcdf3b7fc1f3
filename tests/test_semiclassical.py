import math

import numpy as np
import pytest

from oracles import (ode_half_trip_phase, ode_phase_integral,
                     two_level_mean_position_quadrature)
from pibilliards import (BilliardParams, DomainError, SemiclassicalConfig,
                         accumulated_phase, alpha_of, berry_connection,
                         berry_phase, big_ball_speed, count_extrema,
                         energy_level, extremum_count, mean_position,
                         sample_curve, total_phase, two_level_energy)


def cfg_for(n, ratio_root, x_min=1.0):
    return SemiclassicalConfig(n, BilliardParams(ratio_root ** 2, 1.0), x_min=x_min)


# -- levels and Berry phase ------------------------------------------------------

def test_energy_level_values():
    p = BilliardParams(1, 1)
    assert energy_level(1, 1.0, p) == pytest.approx(math.pi ** 2 / 2, rel=1e-15)
    assert energy_level(3, 2.0, p) == pytest.approx(9 * math.pi ** 2 / 8, rel=1e-15)
    for x in (0.3, 1.0, 7.7):
        assert energy_level(2, x, p) / energy_level(1, x, p) == pytest.approx(4.0, rel=1e-14)


def test_energy_level_monotonicity():
    p = BilliardParams(1, 2.5, hbar=0.7)
    levels = [energy_level(n, 1.3, p) for n in range(1, 8)]
    assert all(a < b for a, b in zip(levels, levels[1:]))
    widths = [energy_level(3, x, p) for x in np.linspace(0.5, 5.0, 20)]
    assert all(a > b for a, b in zip(widths, widths[1:]))


def test_energy_level_domain():
    p = BilliardParams()
    with pytest.raises(DomainError):
        energy_level(0, 1.0, p)
    with pytest.raises(DomainError):
        energy_level(1, 0.0, p)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            energy_level(1, bad, p)


def test_berry_phase_exact_zero():
    assert berry_phase(1) == 0.0
    assert berry_phase(7) == 0.0


def test_berry_connection_quadrature_tiny():
    assert abs(berry_connection(2, 1.7)) < 1e-10
    for n in range(1, 11):
        for x in (0.7, 1.0, 1.7):
            assert abs(berry_connection(n, x)) < 1e-10


# -- speed law --------------------------------------------------------------------

def test_speed_vanishes_at_turning_point():
    cfg = cfg_for(1, 10.0)
    assert big_ball_speed(cfg.x_min, cfg) == 0.0


def test_speed_monotone_to_asymptote():
    cfg = cfg_for(3, 10.0, x_min=0.8)
    xs = np.geomspace(cfg.x_min, 1e5 * cfg.x_min, 200)
    vs = [big_ball_speed(float(x), cfg) for x in xs]
    assert all(a <= b for a, b in zip(vs, vs[1:]))
    assert vs[-1] == pytest.approx(cfg.asymptotic_speed, rel=1e-9)


def test_speed_ratio_at_double_width():
    for n, rr in [(1, 10.0), (5, 3.0)]:
        cfg = cfg_for(n, rr, x_min=1.3)
        ratio = big_ball_speed(2 * cfg.x_min, cfg) / cfg.asymptotic_speed
        assert ratio == pytest.approx(math.sqrt(3) / 2, rel=1e-14)


def test_speed_domain():
    cfg = cfg_for(1, 10.0)
    with pytest.raises(DomainError):
        big_ball_speed(0.5 * cfg.x_min, cfg)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            big_ball_speed(bad, cfg)


def test_energy_bookkeeping():
    # M v(x)^2 / 2 + mean two-level energy(x) = mean two-level energy(x_min)
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

def test_mean_position_quarter_phase_is_midpoint():
    cfg = cfg_for(1, 10.0)
    assert mean_position(cfg, math.pi / 2, 1.0) == pytest.approx(0.5, abs=1e-16)


def test_mean_position_value_and_quadrature():
    cfg = cfg_for(1, 10.0)
    value = mean_position(cfg, 0.0, 1.0)
    assert value == pytest.approx(0.5 - 16.0 / (9.0 * math.pi ** 2), rel=1e-14)
    for phase in (0.0, 0.7, 2.0):
        assert mean_position(cfg, phase, 1.0) == \
            pytest.approx(two_level_mean_position_quadrature(1, phase, 1.0), abs=1e-12)
    cfg5 = cfg_for(5, 10.0)
    assert mean_position(cfg5, 1.1, 2.3) == \
        pytest.approx(two_level_mean_position_quadrature(5, 1.1, 2.3), abs=1e-12)


def test_mean_position_strictly_inside_well():
    for n in range(1, 30):
        cfg = cfg_for(n, 10.0)
        assert 0.0 < cfg.amplitude_coefficient < 0.5
        for phase in np.linspace(0, 2 * math.pi, 17):
            assert 0.0 < mean_position(cfg, float(phase), 1.0) < 1.0


def test_mean_position_domain():
    cfg = cfg_for(1, 10.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            mean_position(cfg, bad, 1.0)
        with pytest.raises(DomainError):
            mean_position(cfg, 0.5, bad)


def test_amplitude_coefficient_limit():
    # 8n(n+1)/(2n+1)^2 -> 2, so the normalized amplitude tends to 2/pi^2
    n = 10 ** 6
    cfg = cfg_for(n, 10.0)
    assert cfg.amplitude_coefficient * math.pi ** 2 == pytest.approx(2.0, rel=1e-6)


# -- extrema and curves ----------------------------------------------------------------

def test_extremum_count_values():
    assert extremum_count(cfg_for(1, 10.0)) == 29
    assert extremum_count(cfg_for(10, 10.0)) == 31


def test_extremum_count_large_n_tie_geometry():
    # n -> infinity at beta = pi/10: the prefactor tends to pi cot(pi/10),
    # i.e. 9.67, one short of pi/beta = 10 exactly like the grazed classical ray
    rr = 1.0 / math.tan(math.pi / 10)
    assert extremum_count(cfg_for(10 ** 6, rr)) == 9


def test_extremum_count_matches_curve_scan():
    for n, rr in [(1, 10.0), (10, 10.0), (3, 3.0777)]:
        cfg = cfg_for(n, rr)
        series = sample_curve(cfg, grid=6000)
        scanned = count_extrema(series.ys, prominence=1e-4)
        assert abs(scanned - extremum_count(cfg)) <= 1


def test_alpha_of_values():
    assert alpha_of(1.0, 1.0, 1) == 0.0
    assert alpha_of(1e12, 1.0, 1) == pytest.approx(math.pi / 2, abs=1e-5)
    assert alpha_of(2.0, 1.0, -1) == pytest.approx(-math.pi / 3, rel=1e-14)
    with pytest.raises(DomainError):
        alpha_of(0.5, 1.0, 1)
    with pytest.raises(DomainError):
        alpha_of(2.0, 0.0, 1)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            alpha_of(bad, 1.0, 1)
        with pytest.raises(DomainError):
            alpha_of(2.0, bad, 1)


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
