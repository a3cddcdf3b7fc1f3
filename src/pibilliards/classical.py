"""Event-driven two-ball billiard and certified digit extraction.

A heavy ball slides toward a light ball resting near a hard wall; all
collisions are elastic.  The total number of collisions is finite and, for a
mass ratio M/m = 100**N, equals the integer part of pi * 10**N.  This module
provides the event-driven simulation (used as the counting oracle), the
closed-form count floor(pi/beta) with its integer-tie correction, a
certified extraction of floor(pi * 10**N) based on interval arithmetic plus
an independent high-precision series, and the trajectory curves.

The curves use the unfolding of the wedge (Galperin, "Playing pool with pi",
Regular and Chaotic Dynamics 8(4), 2003): in the mass-scaled plane
(sqrt(M) x, sqrt(m) y) the whole process is the straight line at height
rho_min = sqrt(m) y0, with polar angle phi = pi/2 + alpha folded back into
the wedge with period 2 beta; the k-th collision is the crossing phi = k beta.
Every sample is a closed form; only the collision count and the energy drift
come from :func:`simulate`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bigreal import BigReal
from .core import BilliardParams, DomainError, _check_beta, _check_positive
from .curves import CurveSeries, _alpha_grid, _eta_grid, _format_int

# Precision doublings allowed past the starting 64 + 10 N bits of pi_digits_detail.
_MAX_DOUBLINGS = 3

# Relative window inside which pi/beta is treated as an exact integer tie.
_TIE_REL_TOL = 1e-9


class SimulationConsistencyError(RuntimeError):
    """The event loop exceeded the theoretical collision bound."""


class IndeterminateFloorError(RuntimeError):
    """The floor could not be certified within the precision ceiling."""


class PiDigitsMismatchError(RuntimeError):
    """The two independent digit routes disagree."""

    def __init__(self, collision_count: int, pi_floor: int):
        self.collision_count = collision_count
        self.pi_floor = pi_floor
        super().__init__(
            f"collision-count route gives {_format_int(collision_count)}, "
            f"independent floor(pi*10^N) gives {_format_int(pi_floor)}")


class CollisionKind(str, enum.Enum):
    BALL_BALL = "ball-ball"
    BALL_WALL = "ball-wall"


@dataclass(frozen=True)
class ClassicalState:
    t: float
    x: float
    y: float
    vx: float
    vy: float

    def kinetic_energy(self, params: BilliardParams) -> float:
        return 0.5 * (params.M * self.vx ** 2 + params.m * self.vy ** 2)


@dataclass(frozen=True)
class CollisionEvent:
    index: int          # 1-based ordinal
    kind: CollisionKind
    t: float
    state_after: ClassicalState


@dataclass(frozen=True)
class CollisionTrace:
    params: BilliardParams
    initial: ClassicalState
    events: tuple[CollisionEvent, ...]
    count: int
    max_energy_drift: float

    @property
    def final(self) -> ClassicalState:
        return self.events[-1].state_after if self.events else self.initial


def _int_ratio_float(num: int, den: int) -> float:
    """num/den as a float without building huge intermediate floats."""
    shift = max(num.bit_length(), den.bit_length()) - 62
    if shift > 0:
        num >>= shift
        den >>= shift
    return num / den if den else math.inf


def simulate(params: BilliardParams, v0: float, x0: float, y0: float) -> CollisionTrace:
    """Run the elastic collision process to completion.

    The heavy ball starts at ``x0`` moving toward the wall with speed ``v0``;
    the light ball rests at ``y0`` with 0 < y0 < x0.  Velocities are updated
    in exact integer arithmetic (every float input is an exact rational, and
    the elastic update only ever divides by M + m), so the event sequence and
    the final count carry no rounding ambiguity at any mass ratio; event
    times and positions are tracked in floats for the trace.  Raises
    FloatingPointError when the initial kinetic energy underflows to 0, since
    the relative energy drift is then undefined.
    """
    _check_positive("v0, x0 and y0", (v0, x0, y0))
    if not x0 > y0:
        raise DomainError("need x0 > y0")

    # integer masses with a common scale: exact for any float input
    mf, mf2 = Fraction(params.M), Fraction(params.m)
    den = mf.denominator * mf2.denominator // math.gcd(mf.denominator, mf2.denominator)
    big = mf.numerator * (den // mf.denominator)
    small = mf2.numerator * (den // mf2.denominator)
    # velocities vx = px/q, vy = py/q with q = v0_den * (big+small)**k
    v0f = Fraction(v0)
    px, py, q = -v0f.numerator, 0, v0f.denominator

    t, x, y = 0.0, float(x0), float(y0)
    initial = ClassicalState(t, x, y, -float(v0), 0.0)
    e0 = initial.kinetic_energy(params)
    if e0 == 0.0:
        raise FloatingPointError("initial kinetic energy underflows to 0 in double precision")

    guard = 10 * math.ceil(math.pi / params.wedge_angle)
    events = []
    drift = 0.0
    while True:
        if py > px:
            # balls approaching: elastic ball-ball exchange
            vx = _int_ratio_float(px, q)
            dt = (x - y) / _int_ratio_float(py - px, q)
            t += dt
            x += vx * dt
            y = x
            px, py = (big - small) * px + 2 * small * py, \
                     2 * big * px + (small - big) * py
            q *= big + small
            kind = CollisionKind.BALL_BALL
        elif py < 0:
            # light ball reaches the wall and reflects
            dt = y / -_int_ratio_float(py, q)
            t += dt
            x += _int_ratio_float(px, q) * dt
            y = 0.0
            py = -py
            kind = CollisionKind.BALL_WALL
        else:
            break
        state = ClassicalState(t, x, y,
                               _int_ratio_float(px, q), _int_ratio_float(py, q))
        events.append(CollisionEvent(len(events) + 1, kind, t, state))
        drift = max(drift, abs(state.kinetic_energy(params) - e0) / e0)
        if len(events) > guard:
            raise SimulationConsistencyError(
                f"collision count exceeded {guard}; finiteness guarantee violated")

    return CollisionTrace(params, initial, tuple(events), len(events), drift)


def count_closed_form(beta: float) -> int:
    """Collision count floor(pi/beta), with pi/beta - 1 at exact integer ties.

    pi/beta within a relative 1e-9 of an integer is snapped to the tie: for
    those geometries (beta = pi/4, pi/6, ...) the final boundary ray of the
    unfolded wedge is grazed, not crossed, so the count drops by one.
    """
    _check_beta(beta)
    q = math.pi / beta
    nearest = round(q)
    if abs(q - nearest) <= _TIE_REL_TOL * max(1.0, q):
        return int(nearest) - 1
    return math.floor(q)


# -- certified digits ---------------------------------------------------------


@dataclass(frozen=True)
class PiDigitsResult:
    value: int            # floor(pi * 10**N) from mpmath, which both floors match
    digits: int           # N
    bits: int             # interval precision that certified the result
    collision_count: int  # route (a): count at beta = arccot(10**N)
    pi_floor: int         # BigReal interval floor(pi * 10**N)


def _pi_floor_independent(digits: int) -> int:
    """floor(pi * 10**N) from mpmath, accepted only when stable under a
    doubling of the working precision."""
    from mpmath import mp

    dps = digits + 30
    while True:
        with mp.workdps(dps):
            first = int(mp.floor(mp.pi * 10 ** digits))
        with mp.workdps(2 * dps):
            second = int(mp.floor(mp.pi * 10 ** digits))
        if first == second:
            return first
        dps *= 2


def pi_digits_detail(digits: int) -> PiDigitsResult:
    """Certified floor(pi * 10**N) computed two independent ways.

    Route (a): the closed-form collision count at beta = arccot(10**N),
    evaluated in interval arithmetic from 64 + 10 N bits, doubled at most
    ``_MAX_DOUBLINGS`` times until the floor is certain; there is no fixed
    ceiling on N.  N = 0 is the exact integer tie arccot(1) = pi/4, handled
    symbolically (count 4 - 1 = 3); for N >= 1 the ratio pi/arctan(10**-N) is
    irrational, so a certified floor is the exact count.

    Route (b): floor(pi * 10**N) from mpmath, which must also equal the
    BigReal interval floor of pi * 10**N at the certifying precision.  The
    value is returned only when all three agree.
    """
    if not 0 <= digits < math.inf or digits != int(digits):
        raise DomainError("N must be a non-negative integer")
    digits = int(digits)
    oracle = _pi_floor_independent(digits)

    for bits in ((64 + 10 * digits) << i for i in range(_MAX_DOUBLINGS + 1)):
        pi_iv = BigReal.pi(bits)
        scaled_floor = pi_iv.scale_int(10 ** digits).floor_certified()
        if digits == 0:
            count = 3
        else:
            beta_iv = BigReal.atan_fraction(1, 10 ** digits, bits)
            count = pi_iv.divide(beta_iv).floor_certified()
        if scaled_floor is None or count is None:
            continue
        if scaled_floor != oracle:
            raise RuntimeError(
                f"certified interval floor {_format_int(scaled_floor)} disagrees "
                f"with the mpmath floor {_format_int(oracle)}")
        if count != oracle:
            raise PiDigitsMismatchError(count, oracle)
        return PiDigitsResult(oracle, digits, bits, count, scaled_floor)

    raise IndeterminateFloorError(
        f"floor not certified for N={digits} within {bits} bits")


def pi_digits(digits: int) -> int:
    """floor(pi * 10**N) with a two-route certificate; see pi_digits_detail."""
    return pi_digits_detail(digits).value


# -- trajectory curves --------------------------------------------------------


def _fold(phi, beta: float):
    """Unfolded polar angle reflected into the wedge [0, beta], period 2 beta."""
    m = np.mod(phi, 2.0 * beta)
    return np.where(m > beta, 2.0 * beta - m, m)


def _unfolded_metadata(params: BilliardParams) -> tuple[CollisionTrace, dict]:
    """The simulated trace and the provenance both curves record.

    The trace starts from v0 = 1, x0 = 10, y0 = 1: the curves and the count
    depend on beta alone.  Only the count and the energy drift are taken from
    it: its exact integers settle float ties (beta = pi/10 gives 10
    collisions where the closed-form count at the exact tie is 9).
    """
    v0, x0, y0 = 1.0, 10.0, 1.0
    trace = simulate(params, v0, x0, y0)
    return trace, {
        "beta": params.wedge_angle,
        "mass_ratio": params.M / params.m,
        "v0": v0, "x0": x0, "y0": y0,
        "collision_count": trace.count,
        "rho_min": math.sqrt(params.m) * y0,
    }


def classical_curve(params: BilliardParams, samples: int = 2000) -> CurveSeries:
    """Normalized light-ball position y/x against the compactified time alpha.

    alpha = sgn(d rho/dt) * arccos(rho_min/rho) runs over (-pi/2, pi/2) as the
    trajectory comes in from infinity, reaches its closest approach to the
    corner, and recedes.  The values come from the unfolded straight line,
    y/x = R tan(fold(pi/2 + alpha)); collision events appear as slope breaks
    at alpha_k = k beta - pi/2, recorded in the metadata for k = 1 .. the
    count of :func:`simulate` from the fixed start v0 = 1, x0 = 10, y0 = 1.
    """
    alphas = _alpha_grid(samples)
    trace, metadata = _unfolded_metadata(params)
    beta = params.wedge_angle
    ys = params.mass_ratio_root * np.tan(_fold(math.pi / 2 + alphas, beta))
    return CurveSeries(
        abscissa="alpha", ordinate="y_over_x", xs=alphas, ys=ys,
        labels={"model": "classical", "n": ""},
        metadata={
            **metadata,
            "collision_alphas": [k * beta - math.pi / 2
                                 for k in range(1, trace.count + 1)],
            "max_energy_drift": trace.max_energy_drift,
        })


def classical_eta_curve(params: BilliardParams, samples: int = 2000) -> CurveSeries:
    """Incoming-branch wedge angle theta/beta against eta = arccos(rho_min/rho).

    This is the classical reference for the sector-scattering picture: eta
    plays the role of the compactified radius with the classical turning
    radius rho_min in place of the quantum one, and only the approach branch
    (the analogue of the incident wave) is emitted.  On that branch
    alpha = -eta, so the unfolded line gives theta/beta = fold(pi/2 - eta)/beta;
    the collision count comes from the same fixed :func:`simulate` run.
    """
    etas = _eta_grid(samples)
    _, metadata = _unfolded_metadata(params)
    beta = params.wedge_angle
    return CurveSeries(
        abscissa="eta", ordinate="theta_over_beta", xs=etas,
        ys=_fold(math.pi / 2 - etas, beta) / beta,
        labels={"model": "classical", "l": ""},
        metadata={**metadata, "branch": "incoming"})
