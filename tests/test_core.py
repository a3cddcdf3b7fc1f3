import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import mpmath
import numpy as np
import pytest

import pibilliards
from oracles import to_polar
from pibilliards import BilliardParams, DomainError, beta_of_ratio


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
    rho, theta = to_polar(1.0, 0.0, BilliardParams(M=4.0, m=1.0))
    assert rho == pytest.approx(2.0, rel=1e-15)
    assert theta == 0.0


def test_to_polar_symmetric_case():
    rho, theta = to_polar(1.0, 1.0, BilliardParams(M=1.0, m=1.0))
    assert rho == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert theta == pytest.approx(math.pi / 4, rel=1e-15)


def test_to_polar_heavy_limit_angle_ratio():
    # for M >> m the normalized angle approaches y/x with an O(m/M) error
    for ratio in [1e4, 1e6, 1e8]:
        params = BilliardParams(M=ratio, m=1.0)
        beta = params.wedge_angle
        for y_over_x in [0.1, 0.5, 0.9]:
            _, theta = to_polar(1.0, y_over_x, params)
            assert abs(theta / beta - y_over_x) < 10.0 / ratio


def test_polar_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(300):
        params = BilliardParams(M=float(rng.uniform(0.5, 1e4)),
                                m=float(rng.uniform(0.5, 10.0)))
        x = float(rng.uniform(0.1, 100.0))
        y = x * float(rng.uniform(0.0, 1.0))
        rho, theta = to_polar(x, y, params)
        x2 = rho * math.cos(theta) / math.sqrt(params.M)
        y2 = rho * math.sin(theta) / math.sqrt(params.m)
        assert x2 == pytest.approx(x, rel=1e-12)
        assert y2 == pytest.approx(y, rel=1e-12, abs=1e-12)


def test_wedge_constraint_maps_to_angle_range():
    rng = np.random.default_rng(11)
    for _ in range(200):
        params = BilliardParams(M=float(rng.uniform(1.0, 1e3)), m=1.0)
        x = float(rng.uniform(0.1, 10.0))
        y = x * float(rng.uniform(0.0, 1.0))
        _, theta = to_polar(x, y, params)
        assert 0.0 <= theta <= params.wedge_angle * (1 + 1e-12)
    # boundaries map exactly
    assert to_polar(2.0, 0.0, BilliardParams(9.0, 1.0))[1] == 0.0
    _, edge = to_polar(2.0, 2.0, BilliardParams(9.0, 1.0))
    assert edge == pytest.approx(BilliardParams(9.0, 1.0).wedge_angle, rel=1e-15)
    # within the slack just outside the strip: clamped onto it, not mapped past it
    params = BilliardParams(100.0, 1.0)
    for x, y in ((-1e-13, -1e-13), (-1e-13, 1e-13)):
        _, theta = to_polar(x, y, params)
        assert 0.0 <= theta <= params.wedge_angle * (1 + 1e-12)


def test_degenerate_origin():
    assert to_polar(0.0, 0.0, BilliardParams()) == (0.0, 0.0)


def test_params_validation_and_derived():
    with pytest.raises(DomainError):
        BilliardParams(M=-1.0)
    with pytest.raises(DomainError):
        BilliardParams(m=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            BilliardParams(M=bad)
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
    # the parameters are the two masses: the units are natural (hbar = 1)
    assert [f.name for f in fields(BilliardParams)] == ["M", "m"]
    assert BilliardParams.from_json("{}") == BilliardParams(1.0, 1.0)
    p = BilliardParams.from_json('{"M": 4.0, "m": 2.0}')
    assert (p.M, p.m) == (4.0, 2.0)
    for unknown in ('{"mass": 3}', '{"hbar": 0.5}'):
        with pytest.raises(DomainError, match="unknown parameter keys"):
            BilliardParams.from_json(unknown)
    with pytest.raises(DomainError):
        BilliardParams.from_json('[1, 2]')


def test_public_names_resolve():
    # a stale __all__ entry would break `from pibilliards import *`
    for name in pibilliards.__all__:
        getattr(pibilliards, name)
    namespace = {}
    exec("from pibilliards import *", namespace)
    assert set(pibilliards.__all__) <= set(namespace)


def test_lazy_package_contract():
    # in a fresh interpreter: importing the package loads none of its modules,
    # and each public name resolves, on first use, to its defining module's object
    src = str(Path(pibilliards.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import importlib, sys\n"
        "import pibilliards\n"
        "assert pibilliards.__version__ == '0.1.0'\n"
        "assert not [m for m in sys.modules if m.startswith('pibilliards.')]\n"
        "assert len(pibilliards.__all__) == len(set(pibilliards.__all__)) == 42\n"
        "namespace = {}\n"
        "exec('from pibilliards import *', namespace)\n"
        "del namespace['__builtins__']\n"
        "assert set(namespace) == set(pibilliards.__all__)\n"
        "modules = [importlib.import_module('pibilliards.' + m) for m in\n"
        "           ('bigreal', 'core', 'curves', 'classical', 'semiclassical', 'quantum')]\n"
        "for name in pibilliards.__all__[1:]:\n"
        "    value = getattr(pibilliards, name)\n"
        "    # the one public constant, a str, is quantum's\n"
        "    owner = ('pibilliards.quantum' if name == 'AMPLITUDE_COEFFICIENT_RULE'\n"
        "             else value.__module__)\n"
        "    assert owner.startswith('pibilliards.'), name\n"
        "    assert value is getattr(sys.modules[owner], name), name\n"
        "    assert namespace[name] is value, name\n"
        "for name in ('no_such_name', 'numpy', 'cli'):\n"
        "    try:\n"
        "        getattr(pibilliards, name)\n"
        "    except AttributeError:\n"
        "        pass\n"
        "    else:\n"
        "        raise AssertionError(name)\n"
        "from pibilliards import cli\n"
        "assert cli is sys.modules['pibilliards.cli']\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
