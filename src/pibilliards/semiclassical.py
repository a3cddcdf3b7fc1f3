"""Quantum particle in a slowly expanding box driven by a classical ball.

The light ball becomes a quantum particle in an infinite well whose moving
wall is the (classical) heavy ball.  Under the adiabatic approximation the
particle stays in instantaneous eigenstates; a superposition of two adjacent
levels makes its mean position oscillate at the instantaneous Bohr frequency,
and the number of oscillations over the full approach-and-retreat of the
heavy ball reproduces the collision count of the fully classical process.

The heavy ball's speed follows from energy conservation: the kinetic energy
it gains equals the drop of the mean two-level energy (E_n + E_{n+1})/2 as
the well widens from its minimum width x_min.  That normalization is the one
under which the accumulated Bohr phase integrates to the closed form used
throughout this module; it is cross-checked against direct numerical
integration in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (BilliardParams, _check_positive, _check_quantum_number,
                   _check_real, _check_v_sign, _turning_ratio)
from .curves import CurveSeries, _alpha_grid, _gauss_legendre

_BERRY_NODES = 400  # Gauss-Legendre nodes of the Berry-connection quadrature


@dataclass(frozen=True)
class SemiclassicalConfig:
    """Lower quantum number, masses and the heavy ball's retracing point."""

    n: int
    params: BilliardParams
    x_min: float = 1.0

    def __post_init__(self):
        _check_quantum_number(self.n)
        _check_positive("x_min", self.x_min)

    @property
    def amplitude_coefficient(self) -> float:
        """8n(n+1) / (pi^2 (2n+1)^2), the mean-position oscillation amplitude
        as a fraction of the well width; always below 1/2."""
        n = self.n
        return 8.0 * n * (n + 1) / (math.pi ** 2 * (2 * n + 1) ** 2)

    @property
    def phase_prefactor(self) -> float:
        """P(n, R) = sqrt((4n^2+4n+1)/(4n^2+4n+2)) * pi * R; the accumulated
        Bohr phase over the full trip is pi * P."""
        n = self.n
        ratio = (4 * n * n + 4 * n + 1) / (4 * n * n + 4 * n + 2)
        return math.sqrt(ratio) * math.pi * self.params.mass_ratio_root

    @property
    def asymptotic_speed(self) -> float:
        """Heavy-ball speed limit as the well width grows without bound."""
        n, p = self.n, self.params
        return (math.pi * p.hbar / self.x_min) * \
            math.sqrt((2 * n * n + 2 * n + 1) / (2.0 * p.M * p.m))


def energy_level(n: int, x: float, params: BilliardParams) -> float:
    """n-th level of an infinite well of width x: (n pi hbar)^2 / (2 m x^2)."""
    _check_quantum_number(n)
    _check_positive("well width", x)
    return (n * math.pi * params.hbar) ** 2 / (2.0 * params.m * x * x)


def two_level_energy(x: float, cfg: SemiclassicalConfig) -> float:
    """Mean energy (E_n + E_{n+1})/2 of the equal-weight two-level state."""
    return 0.5 * (energy_level(cfg.n, x, cfg.params) +
                  energy_level(cfg.n + 1, x, cfg.params))


def berry_phase(n: int) -> float:
    """Geometric phase of an instantaneous well eigenstate: identically zero.

    The eigenfunctions are real, so the geometric connection <psi | d psi>
    vanishes; :func:`berry_connection` exposes the quadrature cross-check.
    """
    _check_quantum_number(n)
    return 0.0


def berry_connection(n: int, x: float) -> float:
    """<psi_n | d/dx psi_n> by 400-node Gauss-Legendre quadrature over the well."""
    _check_quantum_number(n)
    _check_positive("well width", x)
    y, wt = _gauss_legendre(_BERRY_NODES, x)
    a = n * math.pi / x
    psi = math.sqrt(2.0 / x) * np.sin(a * y)
    dpsi_dx = -0.5 * math.sqrt(2.0 / x ** 3) * np.sin(a * y) \
        - math.sqrt(2.0 / x) * np.cos(a * y) * (a * y / x)
    return float(np.sum(wt * psi * dpsi_dx))


def big_ball_speed(x: float, cfg: SemiclassicalConfig) -> float:
    """Heavy-ball speed at well width x >= x_min.

    Vanishes at the retracing point and rises monotonically toward
    :attr:`SemiclassicalConfig.asymptotic_speed`; satisfies the bookkeeping
    M v^2 / 2 + (E_n(x) + E_{n+1}(x))/2 = (E_n + E_{n+1})(x_min)/2.
    """
    ratio = _turning_ratio(x, cfg.x_min, "x", "the retracing point x_min")
    return cfg.asymptotic_speed * math.sqrt(max(0.0, 1.0 - ratio * ratio))


def accumulated_phase(x: float, cfg: SemiclassicalConfig, v_sign: int) -> float:
    """Bohr phase accumulated since the start of the trip, at width x.

    ``v_sign`` selects the leg: -1 while the heavy ball still approaches,
    +1 after it has turned around (0 is only meaningful at x == x_min).
    The closed form P * (pi/2 + sgn(v) * arccos(x_min/x)) follows from
    integrating the Bohr frequency with time traded for width through the
    energy-exchange speed law.
    """
    _check_v_sign(v_sign)
    ratio = _turning_ratio(x, cfg.x_min, "x", "the retracing point x_min")
    return cfg.phase_prefactor * (math.pi / 2 + v_sign * math.acos(ratio))


def total_phase(cfg: SemiclassicalConfig) -> float:
    """Full-trip Bohr phase pi * P(n, R); independent of x_min, and equal to
    pi^2 R in the large-n limit."""
    return cfg.phase_prefactor * math.pi


def mean_position(cfg: SemiclassicalConfig, phase: float, x: float) -> float:
    """Mean particle position x/2 - x * A(n) * cos(phase); stays in (0, x)."""
    _check_positive("well width", x)
    _check_real("phase", phase)
    return x / 2.0 - x * cfg.amplitude_coefficient * math.cos(phase)


def extremum_count(cfg: SemiclassicalConfig) -> int:
    """Number of mean-position oscillation extrema over the full trip,
    floor(P(n, R))."""
    return math.floor(cfg.phase_prefactor)


def alpha_of(rho: float, rho_min: float, v_sign: int) -> float:
    """Compactified time sgn(v) * arccos(rho_min/rho) in [-pi/2, pi/2]."""
    _check_v_sign(v_sign)
    _check_positive("rho_min", rho_min)
    return v_sign * math.acos(_turning_ratio(rho, rho_min, "rho", "rho_min"))


def sample_curve(cfg: SemiclassicalConfig, grid: int = 2000) -> CurveSeries:
    """Normalized mean position against alpha over the full trip.

    In the heavy-ball coordinate (rho ~ sqrt(M) x for M >> m) the accumulated
    phase is linear in alpha, phi = P * (pi/2 + alpha), so the curve is an
    x_min-independent cosine sweep; its extremum count matches
    :func:`extremum_count`.
    """
    alphas = _alpha_grid(grid)
    phases = cfg.phase_prefactor * (math.pi / 2 + alphas)
    ys = 0.5 - cfg.amplitude_coefficient * np.cos(phases)
    return CurveSeries(
        abscissa="alpha", ordinate="y_over_x", xs=alphas, ys=ys,
        labels={"model": "semiclassical", "n": str(cfg.n)},
        metadata={
            "n": cfg.n,
            "mass_ratio_root": cfg.params.mass_ratio_root,
            "beta": cfg.params.wedge_angle,
            "phase_prefactor": cfg.phase_prefactor,
            "extremum_count": extremum_count(cfg),
            "amplitude_coefficient": cfg.amplitude_coefficient,
        })
