"""Event-driven two-ball billiard and certified digit extraction.

A heavy ball slides toward a light ball resting near a hard wall; all
collisions are elastic.  The total number of collisions is finite and, for a
mass ratio M/m = 100**N, equals the integer part of pi * 10**N.  This module
provides the event-driven simulation, the trajectory curves, and the
certified counts from one precision-doubling loop: floor(pi/beta) with its
integer-tie window, the count at an exact mass ratio, and floor(pi * 10**N),
whose collision-count route is that count at M/m = 100**N.

The curves use the unfolding of the wedge (Galperin, "Playing pool with pi",
Regular and Chaotic Dynamics 8(4), 2003): in the mass-scaled plane
(sqrt(M) x, sqrt(m) y) the whole process is the straight line at height
rho_min = sqrt(m) y0, with polar angle phi = pi/2 + alpha folded back into
the wedge with period 2 beta; the k-th collision is the crossing phi = k beta.
Every sample and the collision count are closed forms; :func:`simulate` is the
``simulate`` command and the tests' oracle for both.  Only the two curves use
numpy, and they import it (and :mod:`pibilliards.curves`) when called, so the
counts and the digits run on the standard library and mpmath alone.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from . import bigreal
from .bigreal import BigReal, _format_int
from .core import BilliardParams, DomainError, _check_beta, _check_decade, _check_positive

if TYPE_CHECKING:
    from .curves import CurveSeries

# Precision doublings allowed past the starting precision of each certified floor.
_MAX_DOUBLINGS = 3

# Bits by which beta's share of the width of pi/beta outweighs pi's, once pi
# is computed short of the interval's precision and widened (see _ratio_lift).
_LIFT_GUARD_BITS = 8

# Absolute window inside which pi/beta is treated as an exact integer tie.
_TIE_ABS_TOL = 1e-9

# By Niven's theorem pi/beta is an integer only at M/m = 1/3, 1 and 3 (beta =
# pi/3, pi/4, pi/6); the last boundary ray is grazed there, so the counts are
# 2, 3 and 5.  1/3 is no double, but the exact ratio of two masses can be.
_RATIO_TIES = {Fraction(1, 3): 2, 1: 3, 3: 5}


class SimulationConsistencyError(ArithmeticError):
    """The event loop exceeded the theoretical collision bound."""


class IndeterminateFloorError(ArithmeticError):
    """The floor could not be certified within the precision ceiling."""


class PiDigitsMismatchError(ArithmeticError):
    """The independent routes of the digit certificate disagree."""


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


def _int_ratio_float(num: int, den: int) -> float:
    """num/den for den > 0 as a float within an ulp, +-inf beyond the double range:
    each operand is cut to its own top 64 bits, and the power of two they drop is restored."""
    a, b = max(num.bit_length() - 64, 0), max(den.bit_length() - 64, 0)
    try:
        return math.ldexp((num >> a) / (den >> b), a - b)
    except OverflowError:  # copysign(inf, num) would raise on a huge num
        return math.inf if num > 0 else -math.inf


def simulate(params: BilliardParams, v0: float, x0: float, y0: float) -> CollisionTrace:
    """Run the elastic collision process to completion.

    The heavy ball starts at ``x0`` moving toward the wall with speed ``v0``;
    the light ball rests at ``y0`` with 0 < y0 < x0.  Velocities are updated
    in exact integer arithmetic (every float input is an exact rational, and
    the elastic update only ever divides by M + m), so the event sequence and
    the final count carry no rounding ambiguity at any mass ratio; event
    times and positions are tracked in floats for the trace.  Each velocity
    float is within an ulp of its exact rational, converted once per change
    of that velocity, or +-inf or 0 beyond the double range; the loop branches
    on the exact integers alone, so for finite input it raises only DomainError
    and SimulationConsistencyError.  The drift is the largest |E/E0 - 1|, as
    |(vx/v0)^2 + (vy/v0 / (sqrt(M)/sqrt(m)))^2 - 1| with operands of order 1;
    sqrt(M)/sqrt(m) >= 1.7e-316 is inf only where ``params.wedge_angle`` refuses M/m.
    """
    _check_positive("v0, x0 and y0", (v0, x0, y0))
    if not x0 > y0:
        raise DomainError("need x0 > y0")

    # velocities vx = px/q, vy = py/q with q = v0_den * (big+small)**k, where
    # big/small is M/m in lowest terms: exact for any float input
    ratio, v0f = Fraction(params.M) / Fraction(params.m), Fraction(v0)
    big, small = ratio.numerator, ratio.denominator
    px, py, q = -v0f.numerator, 0, v0f.denominator

    t, x, y, vx, vy = 0.0, float(x0), float(y0), -float(v0), 0.0
    initial = ClassicalState(t, x, y, vx, vy)
    root = math.sqrt(params.M) / math.sqrt(params.m)
    guard = 10 * math.ceil(math.pi / params.wedge_angle)
    events, drift = [], 0.0
    while True:
        if py > px:
            # balls approaching: elastic ball-ball exchange
            closing = _int_ratio_float(py - px, q)  # 0 only where it underflows
            dt = (x - y) / closing if closing else math.inf
            t += dt
            x += vx * dt
            y = x
            px, py = (big - small) * px + 2 * small * py, \
                     2 * big * px + (small - big) * py
            q *= big + small
            vx, vy = _int_ratio_float(px, q), _int_ratio_float(py, q)
            kind = CollisionKind.BALL_BALL
        elif py < 0:
            # light ball reaches the wall and reflects
            dt = y / -vy if vy else math.inf
            t += dt
            x += vx * dt
            y = 0.0
            py = -py
            vy = _int_ratio_float(py, q)
            kind = CollisionKind.BALL_WALL
        else:
            break
        state = ClassicalState(t, x, y, vx, vy)
        events.append(CollisionEvent(len(events) + 1, kind, t, state))
        drift = max(drift, abs((vx / v0) ** 2 + (vy / v0 / root) ** 2 - 1.0))
        if len(events) > guard:
            raise SimulationConsistencyError(
                f"collision count exceeded {guard}; finiteness guarantee violated")

    return CollisionTrace(params, initial, tuple(events), len(events), drift)


def _certify(start: int, intervals, failure, lift: int = 0) -> tuple[list[int], int]:
    """The certified floors of ``intervals(pi)``, with pi the BigReal at
    ``start`` bits doubled at most ``_MAX_DOUBLINGS`` times, and the bits that
    certified them all; else IndeterminateFloorError says ``failure()``, a
    message built only then.

    At each precision b, pi is computed at b - ``lift`` bits and widened to b
    by an exact left shift (:meth:`BigReal.round_to`): the interval encloses
    the same reals, 2^(lift + 1) units of 2^-b wide.  A lift is chosen where
    the intervals need pi to fewer bits than they are formed at
    (:func:`_ratio_lift`); 0 computes pi at b itself.
    """
    for bits in (start << i for i in range(_MAX_DOUBLINGS + 1)):
        pi = BigReal.pi(bits - lift).round_to(bits)
        floors = [interval.floor_certified() for interval in intervals(pi)]
        if None not in floors:
            return floors, bits
    raise IndeterminateFloorError(f"{failure()} within {bits} bits")


def _enclose(x: Fraction, bits: int) -> BigReal:
    """The narrowest interval at ``bits`` bits that contains the rational x >= 0."""
    scaled = x.numerator << bits
    return BigReal(scaled // x.denominator, -(-scaled // x.denominator), bits)


def _pi_over_beta(pi: BigReal, ratio: Fraction) -> BigReal:
    """An enclosure of pi/beta at the exact mass ratio M/m = p/q,
    beta = arctan(sqrt(q/p)), for its certified floor.

    At the ties of ``_RATIO_TIES`` it is their count, a degenerate interval.
    When p and q are perfect squares, beta is one arctan interval, so
    M/m = 100**N costs one arctan(10**-N).  Otherwise sqrt(q/p) is bracketed
    by an integer square root at pi's b bits as [r, r + 1] / 2^b, and beta by the
    arctan interval [lo, hi] at r / 2^b widened to [lo, hi + 2^-b].  Only the
    floor is read, so the quotient is :meth:`BigReal._divide_for_floor`'s: its
    floor is that of :meth:`BigReal.divide`, from two short divisions.
    """
    bits = pi.bits
    if ratio in _RATIO_TIES:
        count = _RATIO_TIES[ratio] << bits
        return BigReal(count, count, bits)
    p, q = ratio.numerator, ratio.denominator
    root_p, root_q = bigreal._isqrt(p), bigreal._isqrt(q)
    if root_p * root_p == p and root_q * root_q == q:
        return pi._divide_for_floor(BigReal.atan_fraction(root_q, root_p, bits))
    # root <= sqrt(q/p) 2^bits < root + 1
    root = bigreal._isqrt(bigreal._floordiv(q << (2 * bits), p))
    low = BigReal.atan_fraction(root, 1 << bits, bits)
    # arctan is increasing and 1-Lipschitz, so beta <= low.hi + 2^-bits
    return pi._divide_for_floor(BigReal(low.lo, low.hi + 1, bits))


def _pi_over_beta_root(pi: BigReal, root: int) -> BigReal:
    """:func:`_pi_over_beta` at M/m = root**2 for an integer root >= 1, bit for
    bit, from the known root: beta = arctan(1/root) is one arctan interval, and
    no square root is taken.  root = 1 is the tie M/m = 1."""
    if root == 1:
        return _pi_over_beta(pi, Fraction(1))
    return pi._divide_for_floor(BigReal.atan_fraction(1, root, pi.bits))


def _pi_root(pi: BigReal, ratio: Fraction) -> BigReal:
    """pi sqrt(p/q) for a rational p/q > 0, at twice pi's b bits: sqrt(p/q) is
    bracketed as [r, r + 1] / 2^b, as in :func:`_pi_over_beta`, and the two
    non-negative intervals multiply exactly."""
    bits = pi.bits
    root = bigreal._isqrt(bigreal._floordiv(ratio.numerator << (2 * bits), ratio.denominator))
    return BigReal(pi.lo * root, pi.hi * (root + 1), 2 * bits)


def count_closed_form(beta: float) -> int:
    """Collision count floor(pi/beta - 1e-9), certified.

    pi/beta within an absolute 1e-9 of an integer k counts as the exact tie:
    for those geometries (beta = pi/4, pi/6, ...) the final boundary ray of
    the unfolded wedge is grazed, not crossed, so the count is k - 1.  beta
    and the window 1e-9 are taken as the exact rationals the doubles hold, and
    the floor of the interval pi/beta - 1e-9 is certified from 64 bits plus
    the bit length of beta's denominator; at that start the interval is
    narrower than about 2^-60.
    """
    _check_beta(beta)
    exact, window = Fraction(beta), Fraction(_TIE_ABS_TOL)
    (count,), _ = _certify(
        64 + exact.denominator.bit_length(),
        lambda pi: (pi.divide(_enclose(exact, pi.bits)) - _enclose(window, pi.bits),),
        lambda: f"collision count not certified for beta = {beta!r}")
    return count


def _ratio_start(ratio: Fraction) -> int:
    """The starting precision of a certified count at M/m = p/q:
    64 + |bit_length(p) - bit_length(q)| bits, 64 plus about |log2(M/m)|."""
    return 64 + abs(ratio.numerator.bit_length() - ratio.denominator.bit_length())


def _ratio_lift(ratio: Fraction) -> int:
    """The bits pi may lack at the start of a certified count at M/m = p/q:
    max((bit_length(p) - bit_length(q)) // 2 - _LIFT_GUARD_BITS, 0).

    Above 1, beta is about sqrt(q/p), and an error of u in beta moves pi/beta
    by about pi u p/q, while an error of u in pi moves it by only u sqrt(p/q).
    So pi computed lift bits short and widened, 2^(lift + 1) units wide, adds
    less than 2^-_LIFT_GUARD_BITS of the width that beta's units give
    pi/beta, and pi * 10**N at M/m = 100**N stays about 2^-71 wide.  Below 1, beta is O(1)
    and pi needs every bit: the lift is 0.
    """
    lift = (ratio.numerator.bit_length() - ratio.denominator.bit_length()) // 2
    return max(lift - _LIFT_GUARD_BITS, 0)


def count_certified(ratio: float | Fraction) -> int:
    """Collision count floor(pi/beta) at the mass ratio M/m = ``ratio``, certified.

    ``ratio``, a double or a Fraction, is taken as the exact rational it
    holds, and :func:`_pi_over_beta` encloses pi/beta.  The floor is certified
    from b = 64 bits plus about |log2(ratio)| (:func:`_ratio_start`, the start
    ``digits`` shares): above 1, pi/beta grows like pi sqrt(ratio) while
    beta's relative error grows like sqrt(ratio) 2^-b; below 1, pi/beta
    exceeds 2 by only about (4/pi) sqrt(ratio).  pi itself is computed
    :func:`_ratio_lift` bits short of b, so at about b/2 + 40 bits for large
    ratios and at b below 1, and widened to b exactly.
    """
    _check_positive("mass ratio", ratio)
    exact = Fraction(ratio)
    (count,), _ = _certify(
        _ratio_start(exact), lambda pi: (_pi_over_beta(pi, exact),),
        lambda: "collision count not certified for M/m = " + (
            repr(ratio) if isinstance(ratio, float) else
            f"p/q of {exact.numerator.bit_length()} and {exact.denominator.bit_length()} bits"),
        _ratio_lift(exact))
    return count


# -- certified digits ---------------------------------------------------------


@dataclass(frozen=True)
class PiDigitsResult:
    value: int            # floor(pi * 10**N) from mpmath, which both floors match
    digits: int           # N
    bits: int             # interval precision that certified the result
    collision_count: int  # route (a): count_certified's floor at M/m = 100**N
    pi_floor: int         # BigReal interval floor(pi * 10**N)


def _pi_floor_independent(digits: int) -> int:
    """floor(pi * 10**N) from mpmath, evaluated once at N + 30 digits.

    The value errs by under about 1e-29, so its floor is wrong only when the
    about 29 digits after the N-th are all 0s or all 9s; the longest such run
    in pi's first 200 000 digits is 6.  It is a cross-check, not the
    certificate: any disagreement with the interval floors raises
    :class:`PiDigitsMismatchError` (exit 3), never a wrong integer.
    """
    from mpmath import mp

    with mp.workdps(digits + 30):
        return int(mp.floor(mp.pi * 10 ** digits))


def pi_digits_detail(digits: int) -> PiDigitsResult:
    """Certified floor(pi * 10**N) computed two independent ways.

    Route (a): the collision count at the exact mass ratio M/m = 100**N, as
    :func:`count_certified` encloses it, with beta = arctan(10**-N) formed
    from its known root 10**N (:func:`_pi_over_beta_root`; N = 0 is the tie
    M/m = 1).  Route (b): floor(pi * 10**N) from mpmath, which must also
    equal the BigReal interval floor of pi * 10**N.  Both intervals share one
    pi per precision, doubled until both floors are certain; there is no
    fixed ceiling on N.  The value is returned only when all three agree.

    The start is route (a)'s own, :func:`_ratio_start` at 100**N:
    b = 64 + floor(log2 100**N) bits.  There route (a)'s interval pi/beta is
    about 2 pi 10**(2N) 2^-b <~ 2^-60 wide, and route (b)'s interval
    pi * 10**N is narrower still.  pi is needed to only about
    64 + log2 10**N of those bits, so the shared pi is computed
    :func:`_ratio_lift` = max(floor(log2 10**N) - 8, 0) bits short of b and
    widened to b by an exact shift: route (a)'s width grows by under 2^-8
    of itself, and route (b)'s interval is about 2^-71 wide.  So a floor
    fails only when its value lies within about 2^-60 of an integer, and
    only then does the doubling loop take over.  Route (a) only floors
    pi/beta, so it forms the floors of its two endpoint quotients
    (:meth:`BigReal._divide_for_floor`), each about log2 10**N bits long,
    not the two b-bit quotients; the arctan divides by 5**N, the odd part
    of 10**N.
    """
    _check_decade(digits)
    digits = int(digits)
    oracle = _pi_floor_independent(digits)
    power = 10 ** digits
    ratio = Fraction(power * power)
    (scaled_floor, count), bits = _certify(
        _ratio_start(ratio), lambda pi: (pi.scale_int(power), _pi_over_beta_root(pi, power)),
        lambda: f"floor not certified for N={digits}", _ratio_lift(ratio))
    if scaled_floor != oracle:
        raise PiDigitsMismatchError(
            f"certified interval floor {_format_int(scaled_floor)} disagrees "
            f"with the mpmath floor {_format_int(oracle)}")
    if count != oracle:
        raise PiDigitsMismatchError(
            f"collision-count route gives {_format_int(count)}, "
            f"independent floor(pi*10^N) gives {_format_int(oracle)}")
    return PiDigitsResult(oracle, digits, bits, count, scaled_floor)


def pi_digits(digits: int) -> int:
    """floor(pi * 10**N) with a two-route certificate; see pi_digits_detail."""
    return pi_digits_detail(digits).value


# -- trajectory curves --------------------------------------------------------


def _fold(phi, beta: float):
    """Unfolded polar angle reflected into the wedge [0, beta], period 2 beta."""
    import numpy as np
    m = np.mod(phi, 2.0 * beta)
    return np.where(m > beta, 2.0 * beta - m, m)


def _unfolded_metadata(params: BilliardParams) -> dict:
    """The provenance both curves record: the start v0 = 1, x0 = 10, y0 = 1
    (the curves depend on beta alone) and :func:`count_certified` at the exact
    rational M/m of the masses, so cot^2(pi/10) as a double gives 10 where the
    exact tie beta = pi/10 gives 9."""
    v0, x0, y0 = 1.0, 10.0, 1.0
    return {
        "beta": params.wedge_angle,
        "mass_ratio": params.M / params.m,
        "v0": v0, "x0": x0, "y0": y0,
        "collision_count": count_certified(Fraction(params.M) / Fraction(params.m)),
        "rho_min": math.sqrt(params.m) * y0,
    }


def classical_curve(params: BilliardParams, samples: int = 2000) -> CurveSeries:
    """Normalized light-ball position y/x against the compactified time alpha.

    alpha = sgn(d rho/dt) * arccos(rho_min/rho) runs over (-pi/2, pi/2) as the
    trajectory comes in from infinity, reaches its closest approach to the
    corner, and recedes.  The values come from the unfolded straight line,
    y/x = R tan(fold(pi/2 + alpha)); collision events appear as slope breaks
    at alpha_k = k beta - pi/2, recorded in the metadata for k = 1 .. the
    certified count of :func:`_unfolded_metadata`.
    """
    import numpy as np

    from .curves import CurveSeries, _alpha_grid
    alphas = _alpha_grid(samples)
    metadata = _unfolded_metadata(params)
    beta = params.wedge_angle
    ys = params.mass_ratio_root * np.tan(_fold(math.pi / 2 + alphas, beta))
    return CurveSeries(
        abscissa="alpha", ordinate="y_over_x", xs=alphas, ys=ys,
        labels={"model": "classical", "n": ""},
        metadata={
            **metadata,
            "collision_alphas": [k * beta - math.pi / 2
                                 for k in range(1, metadata["collision_count"] + 1)],
        })


def classical_eta_curve(params: BilliardParams, samples: int = 2000) -> CurveSeries:
    """Incoming-branch wedge angle theta/beta against eta = arccos(rho_min/rho).

    This is the classical reference for the sector-scattering picture: eta
    plays the role of the compactified radius with the classical turning
    radius rho_min in place of the quantum one, and only the approach branch
    (the analogue of the incident wave) is emitted.  On that branch
    alpha = -eta, so the unfolded line gives theta/beta = fold(pi/2 - eta)/beta;
    the metadata, with the certified collision count, is that of
    :func:`classical_curve`.
    """
    from .curves import CurveSeries, _eta_grid
    etas = _eta_grid(samples)
    metadata = _unfolded_metadata(params)
    beta = params.wedge_angle
    return CurveSeries(
        abscissa="eta", ordinate="theta_over_beta", xs=etas,
        ys=_fold(math.pi / 2 - etas, beta) / beta,
        labels={"model": "classical", "l": ""},
        metadata={**metadata, "branch": "incoming"})
