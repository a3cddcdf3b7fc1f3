import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (folded_line_angle_mp, folded_line_position_mp,
                     replay_angle_curve, replay_position_curve,
                     replay_rho_min_and_time)

from pibilliards import (BilliardParams, CollisionKind, DomainError,
                         IndeterminateFloorError, alpha_of, beta_of_ratio,
                         classical_curve, classical_eta_curve,
                         count_closed_form, pi_digits, pi_digits_detail,
                         simulate, to_polar)
from pibilliards.bigreal import BigReal

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


# -- certified digits -----------------------------------------------------------

def test_pi_digit_prefixes_exact():
    for n, expected in enumerate(PI_PREFIXES):
        assert pi_digits(n) == expected


def test_pi_digits_certificate_consistency():
    detail = pi_digits_detail(6)
    assert detail.value == 3141592
    assert detail.collision_count == detail.pi_floor == detail.value
    assert detail.bits >= 64 + 60


def test_pi_digits_large_n():
    assert pi_digits(20) == 314159265358979323846


def test_pi_digits_rejects_negative():
    with pytest.raises(DomainError):
        pi_digits(-1)


def test_pi_digits_beyond_former_precision_cap():
    # 64 + 10 N bits certify at once; a fixed 65536-bit cap stopped near N = 6500
    detail = pi_digits_detail(6600)
    assert detail.bits == 66064
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
        alpha = alpha_of(to_polar(s.x, s.y, p).rho, rho_min, int(np.sign(ev.t - t_star)))
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
