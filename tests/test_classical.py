import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (closed_form_floor_mp, count_floor_mp, folded_line_angle_mp,
                     folded_line_position_mp, replay_angle_curve,
                     replay_position_curve, replay_rho_min_and_time, to_polar)

from pibilliards import (BilliardParams, CollisionKind, DomainError,
                         IndeterminateFloorError, beta_of_ratio,
                         classical_curve, classical_eta_curve,
                         count_certified, count_closed_form, pi_digits,
                         pi_digits_detail, simulate)
from pibilliards import bigreal, classical
from pibilliards.bigreal import BigReal
from pibilliards.cli import main

EPS = np.finfo(float).eps

PI_PREFIXES = [3, 31, 314, 3141, 31415, 314159, 3141592, 31415926, 314159265,
               3141592653, 31415926535, 314159265358, 3141592653589]


# -- event-driven simulation ---------------------------------------------------

def test_count_equal_masses():
    assert simulate(BilliardParams(1, 1), 1.0, 10.0, 1.0).count == 3


def test_count_hundred_to_one():
    assert simulate(BilliardParams(100, 1), 1.0, 10.0, 1.0).count == 31


def test_count_integer_ratio_edge():
    # pi/beta = 6 exactly for M = 3m: the final wedge ray is grazed, count 5
    assert simulate(BilliardParams(3, 1), 1.0, 10.0, 1.0).count == 5


def test_trace_structure_and_alternation():
    trace = simulate(BilliardParams(100, 1), 1.0, 10.0, 1.0)
    kinds = [ev.kind for ev in trace.events]
    # ball-ball events never adjacent
    for a, b in zip(kinds, kinds[1:]):
        assert not (a == CollisionKind.BALL_BALL and b == CollisionKind.BALL_BALL)
    assert kinds[0] == CollisionKind.BALL_BALL
    indices = [ev.index for ev in trace.events]
    assert indices == list(range(1, trace.count + 1))
    times = [ev.t for ev in trace.events]
    assert times == sorted(times)


def test_states_stay_admissible_and_energy_conserved():
    for ratio in (1.0, 3.0, 47.5, 2000.0):
        trace = simulate(BilliardParams(ratio, 1.0), 1.3, 12.0, 0.7)
        e0 = trace.initial.kinetic_energy(trace.params)
        for ev in trace.events:
            s = ev.state_after
            assert -1e-12 <= s.y <= s.x * (1 + 1e-12)
            assert abs(s.kinetic_energy(trace.params) - e0) / e0 < 1e-12
        assert trace.max_energy_drift < 1e-12


def test_count_independent_of_initial_conditions():
    rng = np.random.default_rng(5)
    for ratio in (2.0, 9.4721, 123.456):
        counts = set()
        for _ in range(8):
            x0 = float(rng.uniform(2.0, 50.0))
            y0 = x0 * float(rng.uniform(0.01, 0.9))
            v0 = float(rng.uniform(0.1, 5.0))
            counts.add(simulate(BilliardParams(ratio, 1.0), v0, x0, y0).count)
        assert len(counts) == 1


def test_count_bounded_by_angle_quotient():
    rng = np.random.default_rng(17)
    for ratio in rng.uniform(1.0, 1e4, 50):
        p = BilliardParams.from_mass_ratio(float(ratio))
        assert simulate(p, 1.0, 10.0, 1.0).count <= math.ceil(math.pi / p.wedge_angle)


def all_normal(trace) -> bool:
    """Every velocity of ``trace`` is 0 or a normal double."""
    return all(v == 0 or sys.float_info.min <= abs(v) <= sys.float_info.max
               for ev in trace.events for v in (ev.state_after.vx, ev.state_after.vy))


# |v| <= 100 v0 at M/m <= 1e4, so every velocity stays below the double range
@settings(max_examples=40, deadline=None)
@given(st.floats(-300.0, 306.0).map(lambda e: 10.0 ** e),
       st.floats(0.0, 4.0).map(lambda e: 10.0 ** e))
@example(1e-20, 100.0)  # the velocity floats lost every bit when cut to 62 bits together
@example(1e-9, 1e4)
@example(1e306, 1e4)
@example(1e-300, 1e4)
def test_simulate_velocities_within_an_ulp_at_any_speed(v0, ratio):
    p = BilliardParams.from_mass_ratio(ratio)
    trace = simulate(p, v0, 10.0, 1.0)
    M, m = Fraction(p.M), Fraction(p.m)
    vx, vy = -Fraction(v0), Fraction(0)
    for ev in trace.events:
        # replay the exact elastic update on rationals
        if vy > vx:
            assert ev.kind == CollisionKind.BALL_BALL
            vx, vy = (((M - m) * vx + 2 * m * vy) / (M + m),
                      (2 * M * vx + (m - M) * vy) / (M + m))
        else:
            assert ev.kind == CollisionKind.BALL_WALL and vy < 0
            vy = -vy
        for got, exact in ((ev.state_after.vx, vx), (ev.state_after.vy, vy)):
            assert abs(Fraction(got) - exact) <= Fraction(math.ulp(float(exact)))
    assert not vy > vx and vy >= 0  # no further collision
    assert trace.count == simulate(p, 1.0, 10.0, 1.0).count
    if all_normal(trace):
        assert trace.max_energy_drift < 1e-15


@settings(max_examples=60, deadline=None)
@given(st.floats(-300.0, 308.0), st.floats(-300.0, 300.0), st.floats(1.0, 1e4))
@example(308.0, 0.0, 100.0)  # vy passes the double range: inf in the trace
@example(-300.0, 0.0, 100.0)  # M v0^2 underflows to 0
@example(153.0, -204.0, 1e4)  # M = 1e-200, m = 1e-204: vy**2 overflowed in the drift
def test_simulate_count_exact_at_any_scale(e, s, ratio):
    # v0 = 10^e and masses scaled by 10^s: the count is the certified one, and
    # the drift, in units of the initial energy, is below 1e-15 whenever every
    # velocity is a normal double
    params = BilliardParams(ratio * 10.0 ** s, 10.0 ** s)
    trace = simulate(params, 10.0 ** e, 10.0, 1.0)
    assert trace.count == count_certified(Fraction(params.M) / Fraction(params.m))
    if all_normal(trace):
        assert trace.max_energy_drift < 1e-15


@pytest.mark.parametrize("params, v0", [
    (BilliardParams(2.0, 1.0), 5e-324),  # a closing speed rounds to 0
    (BilliardParams(100.0, 1.0), 1e308),  # vy rounds to inf
    (BilliardParams(1e-150, 1e150), 1e-200),  # vy rounds to 0 before the wall
])
def test_simulate_counts_where_velocities_leave_the_double_range(params, v0):
    # the exact integers decide every branch: the count is exact while event
    # times or the drift become non-finite, which only a trace run refuses
    trace = simulate(params, v0, 10.0, 1.0)
    assert trace.count == count_certified(Fraction(params.M) / Fraction(params.m))
    assert not all(math.isfinite(v) for ev in trace.events
                   for v in (ev.t, trace.max_energy_drift, *vars(ev.state_after).values()))


def test_simulate_preconditions():
    p = BilliardParams()
    with pytest.raises(DomainError):
        simulate(p, 1.0, 1.0, 2.0)   # y0 > x0
    with pytest.raises(DomainError):
        simulate(p, -1.0, 10.0, 1.0)
    with pytest.raises(DomainError):
        simulate(p, 1.0, 10.0, 0.0)
    for bad in (math.nan, math.inf):
        for args in ((bad, 10.0, 1.0), (1.0, bad, 1.0), (1.0, 10.0, bad)):
            with pytest.raises(DomainError):
                simulate(p, *args)


# -- closed-form count ----------------------------------------------------------

def test_closed_form_examples():
    assert count_closed_form(math.pi / 4) == 3
    assert count_closed_form(math.pi / 6) == 5
    assert count_closed_form(math.atan(0.1)) == 31


def test_closed_form_integer_tie_rule():
    # exact integer pi/beta loses the grazed final ray
    assert count_closed_form(math.pi / 10) == 9
    assert count_closed_form(math.pi / 2) == 1


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.floats(-323.0, 0.19).map(lambda e: 10.0 ** e),
                 st.integers(2, 10 ** 12).map(lambda k: math.pi / k)))
@example(1e-17)
@example(1e-320)
@example(5e-324)
def test_closed_form_matches_mpmath_floor(beta):
    # from pi/beta ~ 1e7 on, the double pi/beta can miss this floor: at 1e-17
    # it gives 314159265358979263 where the floor is ...301.  Below about
    # 1.75e-308 (subnormal beta) the double pi/beta overflows, and the
    # interval still certifies the floor
    assert count_closed_form(beta) == closed_form_floor_mp(beta)


def test_closed_form_domain():
    with pytest.raises(DomainError):
        count_closed_form(0.0)
    with pytest.raises(DomainError):
        count_closed_form(-0.3)
    with pytest.raises(DomainError):
        count_closed_form(2.0)


def test_closed_form_matches_simulation_randomized():
    rng = np.random.default_rng(123)
    for ratio in rng.uniform(1.0, 1e4, 300):
        p = BilliardParams.from_mass_ratio(float(ratio))
        assert simulate(p, 1.0, 10.0, 1.0).count == count_closed_form(p.wedge_angle)


# -- certified count ------------------------------------------------------------

def test_certified_count_ties_and_near_ties():
    # M/m = 1 and 3 are the exact ties (beta = pi/4, pi/6); the doubles next to
    # them, and the double nearest cot^2(pi/10), are not ties
    assert count_certified(1.0) == 3
    assert count_certified(3) == 5
    for ratio in (1.0000000000000002, 0.9999999999999999, 3.0000000000000004,
                  9.472135954999583, 1e-300):
        assert count_certified(ratio) == simulate(
            BilliardParams.from_mass_ratio(ratio), 1.0, 10.0, 1.0).count
    assert count_certified(9.472135954999583) == 10
    # pi/beta exceeds 2 by about (4/pi) sqrt(ratio) for tiny ratios
    assert count_certified(5e-324) == count_certified(2.2250738585072014e-308) == 2


def test_certified_count_exact_third_tie():
    # M/m = 1/3 (beta = pi/3) is no double, but the exact ratio of two masses
    # can be it: the last ray is grazed, so the count is 2
    assert count_certified(Fraction(1, 3)) == count_certified(Fraction(2, 6)) == 2


def test_certified_count_domain_and_ceiling(monkeypatch):
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            count_certified(bad)
    monkeypatch.setattr(BigReal, "floor_certified", lambda self: None)
    with pytest.raises(IndeterminateFloorError, match="not certified"):
        count_certified(2.0)


def test_certified_count_message_built_only_on_failure(monkeypatch):
    # repr(Fraction(100**2150)) passes the 4300-digit limit of int -> str
    ratio = Fraction(100 ** 2150)
    assert count_certified(ratio) == pi_digits_detail(2150).collision_count
    monkeypatch.setattr(BigReal, "floor_certified", lambda self: None)
    with pytest.raises(IndeterminateFloorError, match="M/m = p/q of 14285 and 1 bits"):
        count_certified(ratio)


def test_certified_count_matches_digits_at_decades():
    # 100**n is an exact double up to n = 11; as an integer it goes on
    for n in range(12):
        assert count_certified(float(100 ** n)) == pi_digits(n)
    for n in range(301):
        detail = pi_digits_detail(n)
        assert count_certified(100 ** n) == detail.collision_count == detail.value


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10 ** 12), st.integers(1, 10 ** 12))
@example(10 ** 12, 1)
@example(1, 10 ** 12)
@example(2, 1)
@example(10 ** 12 - 1, 10 ** 12)
def test_certified_count_at_square_ratios_matches_mpmath(a, b):
    # M/m = (a/b)^2 has the exact beta = arctan(b/a), enclosed by one arctan
    count = count_certified(Fraction(a * a, b * b))
    if a == b:
        assert count == 3  # the tie M/m = 1: its last ray is grazed
        return
    floors = set()
    for dps in (40, 80):
        with mpmath.workdps(dps):
            floors.add(int(mpmath.floor(mpmath.pi / mpmath.atan(mpmath.mpf(b) / a))))
    assert floors == {count}


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1.0, max_value=1e4))
def test_certified_count_matches_simulation(ratio):
    p = BilliardParams.from_mass_ratio(ratio)
    assert count_certified(ratio) == simulate(p, 1.0, 10.0, 1.0).count


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-4.0, max_value=32.0))
def test_certified_count_matches_mpmath_floor(exponent):
    ratio = 10.0 ** exponent
    assume(ratio not in (1.0, 3.0))  # the ties lose the grazed final ray
    assert count_certified(ratio) == count_floor_mp(ratio)


def test_certified_count_large_ratios():
    # the double pi/beta misses the floor for 41 of these ratios
    ratios = 10.0 ** np.random.default_rng(7).uniform(28.0, 30.0, 300)
    wrong = [float(r) for r in ratios if count_certified(float(r)) != count_floor_mp(float(r))]
    assert wrong == []


# -- certified digits -----------------------------------------------------------

def test_pi_digit_prefixes_exact():
    for n, expected in enumerate(PI_PREFIXES):
        assert pi_digits(n) == expected


def test_pi_digits_certificate_consistency():
    detail = pi_digits_detail(6)
    assert detail.value == 3141592
    assert detail.collision_count == detail.pi_floor == detail.value
    assert detail.bits == 103


def test_pi_digits_large_n():
    assert pi_digits(20) == 314159265358979323846


def test_pi_digits_certify_at_the_count_start():
    # route (a)'s start, 64 + bit_length(100**N) - 1, certifies both floors
    # at once; a doubling would cost about 4 times the time
    for n in range(301):
        assert pi_digits_detail(n).bits == 64 + (100 ** n).bit_length() - 1
    rng = np.random.default_rng(300)
    for n in sorted(int(k) for k in rng.integers(301, 3001, 20)):
        detail = pi_digits_detail(n)
        assert detail.bits == classical._ratio_start(Fraction(100 ** n))
        assert detail.collision_count == detail.pi_floor == detail.value


def test_pi_computed_at_the_lifted_precision(monkeypatch):
    # pi * 10**N and pi/beta need pi only to about 64 + log2 10**N bits: pi
    # is computed lift = 3321 - 8 bits short of the 6707 and shifted up
    calls, pi = [], BigReal.pi
    monkeypatch.setattr(BigReal, "pi",
                        classmethod(lambda cls, bits: calls.append(bits) or pi(bits)))
    assert pi_digits_detail(1000).bits == 6707
    assert calls == [6707 - 3313]
    # below 1, beta is O(1) and pi needs every bit of the start; the arctan's
    # reduction pi/2 - arctan(1/x) takes pi at the start plus its guard bits
    calls.clear()
    start = classical._ratio_start(Fraction(1e-300))
    assert count_certified(1e-300) == 2
    assert calls == [start, start + bigreal._GUARD_BITS]


@settings(max_examples=60, deadline=None)
@given(digits=st.integers(0, 400))
@example(digits=0)
@example(digits=1)
@example(digits=400)
def test_decade_route_is_pi_over_beta_bit_for_bit(digits):
    # route (a) of digits takes beta = arctan(10**-N) from the known root
    # 10**N; at M/m = 100**N that is _pi_over_beta's perfect-square branch
    ratio = Fraction(100 ** digits)
    bits = classical._ratio_start(ratio)
    pi = BigReal.pi(bits - classical._ratio_lift(ratio)).round_to(bits)
    route = classical._pi_over_beta_root(pi, 10 ** digits)
    exact = classical._pi_over_beta(pi, ratio)
    assert (route.lo, route.hi, route.bits) == (exact.lo, exact.hi, exact.bits)


def test_certified_floors_of_pi_over_beta_take_no_full_quotient(monkeypatch):
    # pi/beta is only floored, so route (a) and count_certified divide by
    # _divide_for_floor; count_closed_form subtracts the tie window first and
    # keeps divide
    def floors():
        return ([pi_digits_detail(n) for n in (0, 1, 50, 400)],
                [count_certified(r) for r in (Fraction(10 ** 40), 4.0, 2.0, 1e300)])

    def full_quotient(self, other):
        raise AssertionError("full-precision quotient")

    expected = floors()
    assert expected[1][:2] == [pi_digits(20), 6]
    monkeypatch.setattr(BigReal, "divide", full_quotient)
    assert floors() == expected
    with pytest.raises(AssertionError, match="full-precision quotient"):
        count_closed_form(0.1)


def test_mpmath_floor_evaluated_at_one_precision(monkeypatch):
    # the mpmath floor is a cross-check, not the certificate: one pi at
    # N + 30 digits is enough, and a second pi would dominate a fresh run
    precisions, workdps = [], mpmath.mp.workdps
    monkeypatch.setattr(mpmath.mp, "workdps",
                        lambda dps: precisions.append(dps) or workdps(dps))
    for n in (0, 8, 1000):
        precisions.clear()
        pi_digits_detail(n)
        assert precisions == [n + 30]


def test_certified_count_matches_mpmath_floor_at_any_scale():
    # the lift runs from 0 below M/m = 2^17 to 490 bits at 1e300, where
    # pi/beta is 3e150, so the reference floor needs over 150 digits
    ratios = 10.0 ** np.random.default_rng(22).uniform(-300.0, 300.0, 30)
    for ratio in [1e-300, 1e300, *ratios]:
        assert count_certified(float(ratio)) == count_floor_mp(float(ratio), dps=200)


def test_pi_digits_rejects_negative():
    with pytest.raises(DomainError):
        pi_digits(-1)


def test_pi_digits_beyond_former_precision_cap():
    # the start certifies at once; a fixed 65536-bit cap stopped near N = 6500
    detail = pi_digits_detail(6600)
    assert detail.bits == 43913
    assert detail.collision_count == detail.pi_floor == detail.value
    assert detail.value // 10 ** 6580 == 314159265358979323846


def test_pi_digits_precision_ceiling(monkeypatch):
    # a floor that no precision certifies ends after the last doubling
    monkeypatch.setattr(BigReal, "floor_certified", lambda self: None)
    with pytest.raises(IndeterminateFloorError, match="not certified"):
        pi_digits_detail(4)


# -- trajectory curves ------------------------------------------------------------

def test_classical_curve_spans_and_bounds():
    p = BilliardParams(100, 1)
    series = classical_curve(p, samples=800)
    assert series.header()[:2] == ["alpha", "y_over_x"]
    assert series.xs[0] > -math.pi / 2 and series.xs[-1] < math.pi / 2
    assert series.xs[0] == pytest.approx(-math.pi / 2 + math.pi / 1600, abs=1e-12)
    assert np.all(series.ys >= -1e-12) and np.all(series.ys <= 1.0 + 1e-12)
    assert series.metadata["collision_count"] == 31


def test_classical_curve_shape():
    # asymptotically the light ball hugs the wall (y/x -> 0); near collisions
    # it climbs to the heavy ball (y/x -> 1)
    p = BilliardParams(25, 1)
    series = classical_curve(p, samples=4001)
    assert series.ys[0] < 0.15 and series.ys[-1] < 0.15
    assert series.ys.max() > 0.8
    assert series.metadata["rho_min"] > 0


def test_classical_curve_tie_geometry_collisions():
    # beta = pi/10 realized through the float mass ratio cot(pi/10)**2 lands a
    # hair below the exact tie, so all ten wedge rays are crossed; the exact
    # tie itself (count_closed_form) grazes the last ray and gives 9.
    beta = math.pi / 10
    p = BilliardParams.from_beta(beta)
    series = classical_curve(p, samples=500)
    assert series.metadata["collision_count"] == 10
    assert count_closed_form(beta) == 9
    alphas = series.metadata["collision_alphas"]
    assert len(alphas) == 10
    assert all(-math.pi / 2 < a < math.pi / 2 for a in alphas)
    assert alphas == sorted(alphas)


def test_classical_curve_alpha_monotone_in_time():
    p = BilliardParams(49, 1)
    series = classical_curve(p, samples=300)
    assert np.all(np.diff(series.xs) > 0)


def test_classical_eta_curve_incoming_branch():
    p = BilliardParams.from_beta(math.pi / 10)
    series = classical_eta_curve(p, samples=400)
    assert series.header()[:2] == ["eta", "theta_over_beta"]
    assert np.all(series.ys >= -1e-12) and np.all(series.ys <= 1.0 + 1e-12)
    assert series.metadata["branch"] == "incoming"
    # near the far end (eta -> pi/2) the incoming angle is near the wedge floor
    assert series.ys[-1] < 0.2


def test_curves_run_no_event_loop(monkeypatch, tmp_path):
    # the curves take their count from the certified closed form
    def event_loop(*args):
        raise AssertionError("simulate called")

    monkeypatch.setattr(classical, "simulate", event_loop)
    p = BilliardParams.from_mass_ratio(1e8)
    position = classical_curve(p, samples=16)
    assert position.metadata["collision_count"] == 31415
    assert len(position.metadata["collision_alphas"]) == 31415
    assert "max_energy_drift" not in position.metadata
    assert classical_eta_curve(p, samples=16).metadata["collision_count"] == 31415
    assert main(["figures", "--samples", "64", "--outdir", str(tmp_path)]) == 0


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


@settings(max_examples=60, deadline=None)
@given(st.builds(lambda ratio, m: BilliardParams(ratio * m, m),
                 log_uniform(1e-3, 1e4), log_uniform(1e-6, 1e6)))
@example(BilliardParams(1, 3))
@example(BilliardParams(2, 6))
@example(BilliardParams(3, 1))
@example(BilliardParams(1, 1))
@example(BilliardParams.from_beta(math.pi / 10))
def test_curve_count_matches_event_loop(params):
    # closed form against event loop: both count at the exact ratio M/m
    count = classical_curve(params, samples=2).metadata["collision_count"]
    assert count == simulate(params, 1.0, 10.0, 1.0).count


# -- unfolded curves against their oracles ------------------------------------------

def test_classical_curves_match_folded_line_at_large_ratio():
    # 3141 collisions: replaying the float trace is off by 1.4e-8 here, the
    # unfolded line only by the rounding of pi/2 + alpha
    p = BilliardParams.from_mass_ratio(1e6)
    position = classical_curve(p)
    angle = classical_eta_curve(p)
    assert np.max(np.abs(position.ys - folded_line_position_mp(p, position.xs))) < 1e-11
    assert np.max(np.abs(angle.ys - folded_line_angle_mp(p, angle.xs))) < 1e-11


RATIOS = st.floats(min_value=1.0, max_value=1e4)


@settings(max_examples=40, deadline=None)
@given(RATIOS)
def test_events_land_on_unfolded_crossings(ratio):
    p = BilliardParams.from_mass_ratio(ratio)
    v0, x0, y0 = 1.0, 10.0, 1.0
    trace = simulate(p, v0, x0, y0)
    crossings = classical_curve(p, samples=2).metadata["collision_alphas"]
    assert len(crossings) == trace.count
    rho_min, t_star = math.sqrt(p.m) * y0, x0 / v0
    # relative rho error of the event states; d alpha = d rho / (rho tan alpha)
    # away from alpha = 0 and at most about sqrt(2 delta) at it
    delta = 16 * trace.count * EPS
    for ev, expected in zip(trace.events, crossings):
        s = ev.state_after
        rho, _ = to_polar(s.x, s.y, p)
        alpha = np.sign(ev.t - t_star) * math.acos(min(rho_min / rho, 1.0))
        assert abs(alpha - expected) <= \
            2 * delta / max(abs(math.sin(expected)), math.sqrt(delta))


@settings(max_examples=40, deadline=None)
@given(RATIOS)
def test_unfolded_curves_match_trace_replay(ratio):
    p = BilliardParams.from_mass_ratio(ratio)
    trace = simulate(p, 1.0, 10.0, 1.0)
    position = classical_curve(p, samples=257)
    angle = classical_eta_curve(p, samples=257)
    # each of the K float segments adds rounding to the replayed positions,
    # and y/x amplifies angle errors by R ~ K/pi
    tol = 1e-13 + 32 * trace.count ** 2 * EPS
    assert np.max(np.abs(position.ys - replay_position_curve(trace, position.xs))) <= tol
    assert np.max(np.abs(angle.ys - replay_angle_curve(trace, angle.xs))) <= tol
    rho_min, _ = replay_rho_min_and_time(trace)
    assert rho_min == pytest.approx(position.metadata["rho_min"], rel=tol)
