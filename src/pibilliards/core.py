"""Shared parameter types and the mass-scaled configuration-space transform.

Two balls on a half-line (heavy ball at x, light ball at y, hard wall at the
origin, 0 <= y <= x) map to a single free particle in a planar wedge once the
coordinates are scaled by the square roots of the masses.  The wedge angle is
beta = arccot(R) with R = sqrt(M/m), and every model in this package works in
that geometry.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Raised when an input lies outside the physically admissible domain."""


# Relative slack used when validating inequalities that are exact in real
# arithmetic but only hold to rounding error for states produced by the
# event-driven simulation (e.g. y == x at a collision instant).
_REL_SLACK = 1e-12


# Each check below fails on NaN (false in every comparison) and on +-inf.
def _check_quantum_number(n) -> None:
    if not 1 <= n < math.inf or n != int(n):
        raise DomainError("n must be an integer >= 1")


def _check_beta(beta: float) -> None:
    if not 0.0 < beta <= math.pi / 2:
        raise DomainError("beta must lie in (0, pi/2]")


def _check_real(name: str, value) -> None:
    """``value`` (a number or an array) is neither NaN nor +-inf."""
    if not np.all(np.isfinite(value)):
        raise DomainError(f"{name} must be finite")


def _check_positive(name: str, value, zero_ok: bool = False) -> None:
    """``value`` (a number or an array) is finite and > 0, or >= 0 with ``zero_ok``."""
    v = np.asarray(value)
    if not np.all((v >= 0 if zero_ok else v > 0) & (v < np.inf)):
        raise DomainError(f"{name} must be {'non-negative' if zero_ok else 'positive'} and finite")


def _check_v_sign(v_sign) -> None:
    if v_sign not in (-1, 0, 1):
        raise DomainError("v_sign must be -1, 0 or +1")


def _turning_ratio(outer: float, inner: float, name: str, turning: str) -> float:
    """min(inner/outer, 1) for ``outer`` at or beyond the turning value ``inner``."""
    if not inner * (1.0 - _REL_SLACK) <= outer < math.inf:
        raise DomainError(f"{name} must be finite and not below {turning}")
    return min(inner / outer, 1.0)


@dataclass(frozen=True)
class BilliardParams:
    """Masses of the two balls and the unit of action.

    M is the heavy (incoming) ball, m the light ball trapped against the
    wall.  hbar only matters for the quantum models; the default 1.0 gives
    natural units.
    """

    M: float = 1.0
    m: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        _check_positive("M, m and hbar", (self.M, self.m, self.hbar))

    @property
    def mass_ratio_root(self) -> float:
        """R = sqrt(M/m)."""
        return math.sqrt(self.M / self.m)

    @property
    def wedge_angle(self) -> float:
        """beta = arccot(R), the opening angle of the configuration wedge."""
        return beta_of_ratio(self.mass_ratio_root)

    @classmethod
    def from_mass_ratio(cls, ratio: float) -> "BilliardParams":
        """Parameters with M/m = ``ratio``, m = 1 and hbar = 1."""
        _check_positive("mass ratio", ratio)
        return cls(M=ratio)

    @classmethod
    def from_beta(cls, beta: float) -> "BilliardParams":
        """Parameters whose wedge angle is ``beta`` (0 < beta < pi/2), m = 1 and hbar = 1."""
        # open at pi/2: M = 0 there, but 1/tan(pi/2) is 6e-17 in floats, not 0
        if not 0.0 < beta < math.pi / 2:
            raise DomainError("beta must lie in (0, pi/2) to define finite masses")
        r = 1.0 / math.tan(beta)
        return cls(M=r * r)

    @classmethod
    def from_json(cls, text: str) -> "BilliardParams":
        """Parse ``{"M": number, "m": number, "hbar": number}``; all keys optional."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise DomainError("parameter JSON must be an object")
        unknown = set(data) - {"M", "m", "hbar"}
        if unknown:
            raise DomainError(f"unknown parameter keys: {sorted(unknown)}")
        return cls(M=float(data.get("M", 1.0)), m=float(data.get("m", 1.0)),
                   hbar=float(data.get("hbar", 1.0)))


@dataclass(frozen=True)
class PolarPoint:
    """Mass-scaled polar coordinates: rho >= 0, theta in [0, beta]."""

    rho: float
    theta: float


def beta_of_ratio(ratio_root: float) -> float:
    """Wedge angle arccot(R) for the mass-ratio root R = sqrt(M/m).

    Returns pi/2 for R = 0 (both axes treated alike) and decreases strictly
    toward 0 as R grows; R*beta -> 1 for large R.
    """
    _check_positive("mass-ratio root", ratio_root, zero_ok=True)
    return math.atan2(1.0, ratio_root)


def to_polar(x: float, y: float, params: BilliardParams) -> PolarPoint:
    """Map ball positions (x, y) to the wedge point (rho, theta).

    rho = sqrt(M x^2 + m y^2) and theta = atan2(sqrt(m) y, sqrt(M) x), so the
    admissible strip 0 <= y <= x becomes 0 <= theta <= beta.  The degenerate
    origin maps to (0, 0) by convention.
    """
    _check_real("x and y", (x, y))
    slack = _REL_SLACK * max(abs(x), 1.0)
    if y < -slack or y > x + slack:
        raise DomainError(f"inadmissible configuration: need 0 <= y <= x, got x={x}, y={y}")
    u = math.sqrt(params.M) * x
    w = math.sqrt(params.m) * max(y, 0.0)
    return PolarPoint(rho=math.hypot(u, w), theta=math.atan2(w, u))


def from_polar(point: PolarPoint, params: BilliardParams) -> tuple[float, float]:
    """Inverse of :func:`to_polar`."""
    x = point.rho * math.cos(point.theta) / math.sqrt(params.M)
    y = point.rho * math.sin(point.theta) / math.sqrt(params.m)
    return x, y
