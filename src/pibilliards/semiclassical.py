"""Quantum particle in a slowly expanding box driven by a classical ball.

The light ball becomes a quantum particle in an infinite well whose moving
wall is the (classical) heavy ball.  Under the adiabatic approximation the
particle stays in instantaneous eigenstates; a superposition of two adjacent
levels makes its mean position oscillate at the instantaneous Bohr frequency,
and the number of oscillations over the full approach-and-retreat of the
heavy ball reproduces the collision count of the fully classical process.

The well of width x has the levels E_n = (n pi hbar)^2 / (2 m x^2).  The
heavy ball's speed follows from energy conservation, the speed law

    M v^2 / 2 + (E_n(x) + E_{n+1}(x)) / 2 = (E_n + E_{n+1})(x_min) / 2,

so it vanishes at the minimum width x_min and rises toward its limit as the
well widens.  That normalization is the one under which the accumulated Bohr
phase integrates to the closed form used throughout this module; the test
suite cross-checks it against direct numerical integration.  Units are
natural, hbar = 1, and the Bohr phase is independent of hbar: the Bohr
frequency (E_{n+1} - E_n)/hbar and the speed from the speed law are both
proportional to hbar, so their ratio carries none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .classical import _certify, _pi_root, _ratio_start
from .core import (BilliardParams, _check_positive, _check_quantum_number,
                   _check_v_sign, _turning_ratio)
from .curves import CurveSeries, _alpha_grid, _gauss_legendre

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
    def position_amplitude(self) -> float:
        """A(n) = 8n(n+1) / (pi^2 (2n+1)^2), the mean-position oscillation
        amplitude as a fraction of the well width: at Bohr phase phi the mean
        position is x (1/2 - A(n) cos(phi)), inside the well as A(n) < 1/2.
        It equals the quantum mean-angle coefficient
        ``amplitude_coefficient(n)`` over pi^2."""
        n = self.n
        # its own expression: amplitude_coefficient(n) / pi**2 differs in the
        # last bit for about a third of all n, and the manifests record this value
        return 8.0 * n * (n + 1) / (math.pi ** 2 * (2 * n + 1) ** 2)

    @property
    def phase_prefactor(self) -> float:
        """P(n, R) = sqrt((4n^2+4n+1)/(4n^2+4n+2)) * pi * R; the accumulated
        Bohr phase over the full trip is pi * P."""
        n = self.n
        ratio = (4 * n * n + 4 * n + 1) / (4 * n * n + 4 * n + 2)
        return math.sqrt(ratio) * math.pi * self.params.mass_ratio_root


def berry_connection(n: int, x: float) -> float:
    """<psi_n | d/dx psi_n> over the well, by the Gauss-Legendre rule ``curves._gauss_legendre``.

    The well eigenfunctions are real, so this geometric connection, and with
    it the geometric phase, vanishes; the quadrature is the cross-check.
    """
    _check_quantum_number(n)
    _check_positive("well width", x)
    y, wt = _gauss_legendre(x, n)
    a = n * math.pi / x
    psi = math.sqrt(2.0 / x) * np.sin(a * y)
    dpsi_dx = -0.5 * math.sqrt(2.0 / x ** 3) * np.sin(a * y) \
        - math.sqrt(2.0 / x) * np.cos(a * y) * (a * y / x)
    return float(np.sum(wt * psi * dpsi_dx))


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


def extremum_count(cfg: SemiclassicalConfig) -> int:
    """Number of mean-position oscillation extrema over the full trip,
    floor(P(n, R)), certified at the exact rational masses.

    P = pi sqrt(rho) with rho = (2n+1)^2 / ((2n+1)^2 + 1) * M/m, enclosed by
    ``classical._pi_root`` from ``classical._ratio_start(rho)`` bits, doubled
    as the collision count is.  P is pi times a nonzero algebraic number, so it
    is never an integer: only a near-tie can fail, and it raises
    IndeterminateFloorError rather than guess.  The double ``phase_prefactor``
    carries a few ulps of error, and its floor can be one off.
    """
    square = (2 * int(cfg.n) + 1) ** 2
    rho = Fraction(square, square + 1) * Fraction(cfg.params.M) / Fraction(cfg.params.m)
    (count,), _ = _certify(_ratio_start(rho), lambda pi: (_pi_root(pi, rho),),
                           lambda: f"extremum count not certified for n = {cfg.n}, "
                                   f"M/m = {cfg.params.M / cfg.params.m!r}")
    return count


def sample_curve(cfg: SemiclassicalConfig, grid: int = 2000) -> CurveSeries:
    """Normalized mean position against alpha over the full trip.

    In the heavy-ball coordinate (rho ~ sqrt(M) x for M >> m) the accumulated
    phase is linear in alpha, phi = P * (pi/2 + alpha), so the curve is an
    x_min-independent cosine sweep; its extremum count matches
    :func:`extremum_count`.
    """
    alphas = _alpha_grid(grid)
    phases = cfg.phase_prefactor * (math.pi / 2 + alphas)
    ys = 0.5 - cfg.position_amplitude * np.cos(phases)
    return CurveSeries(
        abscissa="alpha", ordinate="y_over_x", xs=alphas, ys=ys,
        labels={"model": "semiclassical", "n": str(cfg.n)},
        metadata={
            "n": cfg.n,
            "mass_ratio_root": cfg.params.mass_ratio_root,
            "beta": cfg.params.wedge_angle,
            "phase_prefactor": cfg.phase_prefactor,
            "extremum_count": extremum_count(cfg),
            "amplitude_coefficient": cfg.position_amplitude,
        })
