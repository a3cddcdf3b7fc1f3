"""Parameter types, domain checks, number formatting, the wedge angle and phase shifts.

Two balls on a half-line (heavy ball at x, light ball at y, hard wall at the
origin, 0 <= y <= x) map to a single free particle in a planar wedge once the
coordinates are scaled by the square roots of the masses: the polar point
rho = sqrt(M x^2 + m y^2), theta = atan2(sqrt(m) y, sqrt(M) x) takes the strip
0 <= y <= x onto 0 <= theta <= beta.  The wedge angle is beta = arccot(R) with
R = sqrt(M/m), and every model in this package works in that geometry.

Nothing here imports numpy or scipy at load time, so ``digits``, ``count``,
``simulate`` and ``phaseshift`` start without them.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass


class DomainError(ValueError):
    """Raised when an input lies outside the physically admissible domain."""


# Relative slack used when validating inequalities that are exact in real
# arithmetic but only hold to rounding error (a width computed to equal its
# turning value may land a hair below it).
_REL_SLACK = 1e-12


# Each check below fails on NaN (false in every comparison) and on +-inf.
def _check_quantum_number(n) -> None:
    if not 1 <= n < math.inf or n != int(n):
        raise DomainError("n must be an integer >= 1")


def _check_beta(beta: float) -> None:
    if not 0.0 < beta <= math.pi / 2:
        raise DomainError("beta must lie in (0, pi/2]")


def _check_decade(N) -> None:
    if not 0 <= N < math.inf or N != int(N):
        raise DomainError("N must be a non-negative integer")


def _check_positive(name: str, value, zero_ok: bool = False) -> None:
    """``value`` (a number, a tuple of numbers or an array) is finite and > 0,
    or >= 0 with ``zero_ok``.  Real numbers are compared as they are; numpy is
    imported only for anything else."""
    values = value if isinstance(value, tuple) else (value,)
    if all(isinstance(v, numbers.Real) for v in values):
        ok = all((v >= 0 if zero_ok else v > 0) and v < math.inf for v in values)
    else:
        import numpy as np
        v = np.asarray(value)
        ok = np.all((v >= 0 if zero_ok else v > 0) & (v < np.inf))
    if not ok:
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
    """Masses M (heavy, incoming ball) and m (light ball at the wall), in natural units."""

    M: float = 1.0
    m: float = 1.0

    def __post_init__(self):
        _check_positive("M and m", (self.M, self.m))

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
        """Parameters with M/m = ``ratio`` and m = 1."""
        _check_positive("mass ratio", ratio)
        return cls(M=ratio)

    @classmethod
    def from_beta(cls, beta: float) -> "BilliardParams":
        """Parameters whose wedge angle is ``beta`` (0 < beta < pi/2) and m = 1."""
        # open at pi/2: M = 0 there, but 1/tan(pi/2) is 6e-17 in floats, not 0
        if not 0.0 < beta < math.pi / 2:
            raise DomainError("beta must lie in (0, pi/2) to define finite masses")
        r = 1.0 / math.tan(beta)
        return cls(M=r * r)

    @classmethod
    def from_json(cls, text: str) -> "BilliardParams":
        """Parse ``{"M": number, "m": number}``; both keys optional, and each
        value a JSON number (not a bool or a string)."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise DomainError("parameter JSON must be an object")
        unknown = set(data) - {"M", "m"}
        if unknown:
            raise DomainError(f"unknown parameter keys: {sorted(unknown)}")
        values = {}
        for key, value in data.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise DomainError(f"parameter {key} must be a JSON number, got {value!r}")
            try:
                values[key] = float(value)
            except OverflowError:  # an integer beyond the double range
                raise DomainError(f"parameter {key} is beyond the double range") from None
        return cls(**values)


@functools.cache
def _special():
    """``scipy.special``, imported at the first Bessel or Legendre evaluation
    and kept: importing it takes about 0.3 s, which no integer result needs."""
    from scipy import special
    return special


def format_sig(value, sig: int = 12) -> str:
    """Format a number with ``sig`` significant digits."""
    return f"{value:.{sig}g}"


def beta_of_ratio(ratio_root: float) -> float:
    """Wedge angle arccot(R) for the mass-ratio root R = sqrt(M/m).

    Returns pi/2 for R = 0 (both axes treated alike) and decreases strictly
    toward 0 as R grows; R*beta -> 1 for large R.
    """
    _check_positive("mass-ratio root", ratio_root, zero_ok=True)
    return math.atan2(1.0, ratio_root)


def phase_shift(n: int, beta: float) -> float:
    """delta(n) = (n pi / beta + 1/2) pi between incident and outgoing waves.

    Energy- and wavenumber-independent: the standing sector mode gains the
    same phase at every k.
    """
    _check_quantum_number(n)
    _check_beta(beta)
    return (n * math.pi / beta + 0.5) * math.pi


def phase_shift_difference(beta: float) -> float:
    """delta(n+1) - delta(n) = pi^2 / beta, the same for every channel."""
    _check_beta(beta)
    return math.pi ** 2 / beta
