import math

import mpmath
import numpy as np
import pytest

from pibilliards import (BilliardParams, DomainError, PolarPoint,
                         beta_of_ratio, from_polar, to_polar)


def test_beta_of_ratio_known_angles():
    assert beta_of_ratio(1.0) == pytest.approx(math.pi / 4, abs=1e-15)
    assert beta_of_ratio(0.0) == math.pi / 2


def test_beta_of_ratio_matches_series_oracle():
    # arctan(1/10) summed independently at high precision
    with mpmath.workdps(30):
        expected = float(mpmath.atan(mpmath.mpf(1) / 10))
    assert beta_of_ratio(10.0) == pytest.approx(expected, rel=1e-15)
    assert beta_of_ratio(10.0) == pytest.approx(0.09966865, abs=5e-9)


def test_beta_of_ratio_rejects_negative():
    with pytest.raises(DomainError):
        beta_of_ratio(-0.1)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            beta_of_ratio(bad)


def test_beta_strictly_decreasing_in_ratio():
    ratios = np.linspace(0.0, 50.0, 200)
    betas = [beta_of_ratio(r) for r in ratios]
    assert all(b1 > b2 for b1, b2 in zip(betas, betas[1:]))


def test_large_ratio_angle_product():
    for r in [100.0, 316.0, 1e3, 1e4, 1e6]:
        assert abs(r * beta_of_ratio(r) - 1.0) < 1.0 / r ** 2


def test_to_polar_on_axis():
    p = to_polar(1.0, 0.0, BilliardParams(M=4.0, m=1.0))
    assert p.rho == pytest.approx(2.0, rel=1e-15)
    assert p.theta == 0.0


def test_to_polar_symmetric_case():
    p = to_polar(1.0, 1.0, BilliardParams(M=1.0, m=1.0))
    assert p.rho == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert p.theta == pytest.approx(math.pi / 4, rel=1e-15)


def test_to_polar_heavy_limit_angle_ratio():
    # for M >> m the normalized angle approaches y/x with an O(m/M) error
    for ratio in [1e4, 1e6, 1e8]:
        params = BilliardParams(M=ratio, m=1.0)
        beta = params.wedge_angle
        for y_over_x in [0.1, 0.5, 0.9]:
            p = to_polar(1.0, y_over_x, params)
            assert abs(p.theta / beta - y_over_x) < 10.0 / ratio


def test_to_polar_rejects_inadmissible():
    params = BilliardParams()
    with pytest.raises(DomainError):
        to_polar(1.0, -0.5, params)
    with pytest.raises(DomainError):
        to_polar(1.0, 1.5, params)
    for x, y in ((math.nan, 0.5), (math.inf, 0.5), (1.0, math.nan), (math.inf, math.inf)):
        with pytest.raises(DomainError):
            to_polar(x, y, params)


def test_polar_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(300):
        params = BilliardParams(M=float(rng.uniform(0.5, 1e4)),
                                m=float(rng.uniform(0.5, 10.0)))
        x = float(rng.uniform(0.1, 100.0))
        y = x * float(rng.uniform(0.0, 1.0))
        p = to_polar(x, y, params)
        x2, y2 = from_polar(p, params)
        assert x2 == pytest.approx(x, rel=1e-12)
        assert y2 == pytest.approx(y, rel=1e-12, abs=1e-12)


def test_wedge_constraint_maps_to_angle_range():
    rng = np.random.default_rng(11)
    for _ in range(200):
        params = BilliardParams(M=float(rng.uniform(1.0, 1e3)), m=1.0)
        x = float(rng.uniform(0.1, 10.0))
        y = x * float(rng.uniform(0.0, 1.0))
        p = to_polar(x, y, params)
        assert 0.0 <= p.theta <= params.wedge_angle * (1 + 1e-12)
    # boundaries map exactly
    assert to_polar(2.0, 0.0, BilliardParams(9.0, 1.0)).theta == 0.0
    edge = to_polar(2.0, 2.0, BilliardParams(9.0, 1.0))
    assert edge.theta == pytest.approx(BilliardParams(9.0, 1.0).wedge_angle, rel=1e-15)


def test_degenerate_origin():
    p = to_polar(0.0, 0.0, BilliardParams())
    assert (p.rho, p.theta) == (0.0, 0.0)


def test_params_validation_and_derived():
    with pytest.raises(DomainError):
        BilliardParams(M=-1.0)
    with pytest.raises(DomainError):
        BilliardParams(m=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            BilliardParams(M=bad)
        with pytest.raises(DomainError):
            BilliardParams(hbar=bad)
        with pytest.raises(DomainError):
            BilliardParams.from_mass_ratio(bad)
    p = BilliardParams(M=100.0, m=1.0)
    assert p.mass_ratio_root == pytest.approx(10.0)
    assert p.wedge_angle == pytest.approx(math.atan(0.1), rel=1e-15)


def test_params_from_beta_round_trip():
    p = BilliardParams.from_beta(0.3)
    assert p.wedge_angle == pytest.approx(0.3, rel=1e-12)
    with pytest.raises(DomainError):
        BilliardParams.from_beta(math.pi / 2)


def test_params_json_schema():
    assert BilliardParams.from_json("{}") == BilliardParams(1.0, 1.0, 1.0)
    p = BilliardParams.from_json('{"M": 4.0, "m": 2.0, "hbar": 0.5}')
    assert (p.M, p.m, p.hbar) == (4.0, 2.0, 0.5)
    with pytest.raises(DomainError):
        BilliardParams.from_json('{"mass": 3}')
    with pytest.raises(DomainError):
        BilliardParams.from_json('[1, 2]')


def test_polar_point_is_plain_record():
    p = PolarPoint(rho=1.0, theta=0.25)
    assert (p.rho, p.theta) == (1.0, 0.25)
