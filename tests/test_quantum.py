import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import bessel_j_integral, bessel_j_series, bessel_y_integral, \
    phase_shift_from_waves, theta_mean_adaptive, theta_mean_mp, \
    theta_mean_outgoing_closed_form
from pibilliards import (AMPLITUDE_COEFFICIENT_RULE, BilliardParams, DomainError,
                         amplitude_coefficient, count_closed_form,
                         count_extrema, cyl_j, cyl_y, cylinder,
                         first_extremum_abscissa, hankel1,
                         phase_shift, phase_shift_difference,
                         sample_quantum_curve, theta_mean,
                         theta_mean_quadrature)

BETA10 = math.pi / 10


# -- cylinder functions ---------------------------------------------------------

def test_j_near_origin():
    assert cyl_j(0.0, 1e-12) == pytest.approx(1.0, abs=1e-12)


def test_half_integer_closed_forms():
    for x in (1.0, 2.0, 5.0):
        assert cyl_j(0.5, x) == pytest.approx(
            math.sqrt(2 / (math.pi * x)) * math.sin(x), rel=1e-12)
        assert cyl_y(0.5, x) == pytest.approx(
            -math.sqrt(2 / (math.pi * x)) * math.cos(x), rel=1e-12)


def test_j_small_value_example():
    oracle = bessel_j_series(10, 1.0)
    assert cyl_j(10, 1.0) == pytest.approx(oracle, rel=1e-10)
    assert oracle == pytest.approx(2.63e-10, rel=5e-3)


def test_cylinder_against_independent_oracles():
    # series for J, quadrature of the integral representation for Y
    for nu in (0.5, 3.0, 10.0, 31.4, 100.0):
        for x in (max(0.5, nu / 2), nu + 0.5, 3 * nu + 2):
            assert cyl_j(nu, x) == pytest.approx(bessel_j_series(nu, x), rel=1e-10)
            assert cyl_y(nu, x) == pytest.approx(bessel_y_integral(nu, x), rel=1e-10)


def test_j_integral_representation_cross_check():
    # second, independent J route (valid in the oscillatory region)
    for nu, x in [(0.5, 1.0), (3.0, 5.0), (31.4, 40.0), (100.0, 130.0)]:
        assert bessel_j_integral(nu, x) == pytest.approx(
            bessel_j_series(nu, x), rel=1e-9)


def test_cyl_domain_errors():
    with pytest.raises(DomainError):
        cyl_j(-1.0, 1.0)
    with pytest.raises(DomainError):
        cyl_y(1.0, 0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            cyl_j(bad, 1.0)
        with pytest.raises(DomainError):
            cyl_y(1.0, bad)
        with pytest.raises(DomainError):
            cyl_j(1.0, np.array([1.0, bad]))
        with pytest.raises(DomainError):
            theta_mean(bad, 1, BETA10)
    # the order and argument check lives in cyl_j alone, which hankel1
    # calls; every entry point must still reach it
    for entry in (hankel1, cylinder):
        with pytest.raises(DomainError):
            entry(-1.0, 1.0)
        with pytest.raises(DomainError):
            entry(np.array([1.0, -1.0]), 1.0)
    quadratures = [lambda rho: theta_mean_quadrature(rho, 1, BETA10),
                   lambda rho: theta_mean_quadrature(rho, 1, BETA10, wave="outgoing")]
    for entry in [lambda x: hankel1(1.0, x), lambda x: cylinder(1.0, x), *quadratures]:
        for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                entry(bad)
            with pytest.raises(DomainError):
                entry(np.array([40.0, bad]))


def test_cylinder_certificate():
    val = cylinder(100.0, 120.0)
    assert val.err_bound <= 1e-10
    assert val.j == cyl_j(100.0, 120.0)
    # Wronskian residual drives the bound
    val2 = cylinder(0.5, 2.0)
    assert val2.err_bound <= 1e-10


def test_cylinder_certified_on_hankel1_alone(monkeypatch):
    # the certificate is the recurrence Wronskian J_{nu+1} Y_nu - J_nu Y_{nu+1}
    # = 2/(pi x): no derivative is evaluated
    from scipy import special
    from scipy.special import jv, yv

    def no_derivative(*_):
        raise AssertionError("cylinder evaluated a derivative")
    monkeypatch.setattr(special, "jvp", no_derivative)
    monkeypatch.setattr(special, "yvp", no_derivative)
    # criterion 7's worst point, where the residual sets the bound
    order = 10 * math.pi / BETA10
    x = order / math.cos(1.5)
    r = abs(jv(order + 1, x) * yv(order, x) - jv(order, x) * yv(order + 1, x)
            - 2 / (math.pi * x)) * math.pi * x / 2
    assert 4 * r > 1e-13
    value = cylinder(order, x)
    assert value.err_bound == max(4 * r, 1e-13)
    assert value.j == jv(order, x) and value.y == yv(order, x)


def test_cyl_j_evaluates_no_y(monkeypatch):
    # J is jv alone: through H1, cyl_j(1e8, 1e17) took about 1 s in yv
    from scipy import special
    orders, xs = np.array([0.5, 10.0, 1e8]), np.array([1.0, 1e3, 1e17])
    want = special.jv(orders, xs)

    def no_y(*_):
        raise AssertionError("cyl_j evaluated Y")
    monkeypatch.setattr(special, "hankel1", no_y)
    monkeypatch.setattr(special, "yv", no_y)
    assert cyl_j(orders, xs).tobytes() == want.tobytes()
    assert cyl_j(1e8, 1e17) == want[2]
    with pytest.raises(DomainError):
        cyl_j(-1.0, 1.0)


def test_wronskian_identity_grid():
    worst = 0.0
    for nu in (0.5, 3.0, 10.0, 31.4, 100.0):
        xs = np.geomspace(nu / 2, 20 * nu, 60)
        j, y = cyl_j(nu, xs), cyl_y(nu, xs)
        from scipy.special import jvp, yvp
        resid = np.abs(j * yvp(nu, xs) - jvp(nu, xs) * y - 2 / (np.pi * xs)) \
            * np.pi * xs / 2
        worst = max(worst, float(resid.max()))
    assert worst < 1e-9


# Orders and arguments reach beyond AMOS's range (about 1.07e9), where
# hankel1 gives NaN and cyl_y falls back to yv, with subnormal orders as 0.
# Past 7.15e8 an exact 0 from scipy is a missing value, NaN.
_SMALLEST_NORMAL = 2.2250738585072014e-308
_Y_ZERO_ARGUMENT = 7.15e8
_ORDERS = st.one_of(st.integers(0, 49).map(float), st.floats(0.0, 1e5),
                   st.floats(-3.0, 12.0).map(lambda e: 10.0 ** e))
_ARGUMENTS = st.one_of(st.floats(1e-3, 3e9), st.floats(-3.0, 300.0).map(lambda e: 10.0 ** e))


def _yv_or_missing(order, x):
    """scipy's yv, with its exact zeros past 7.15e8 as NaN."""
    from scipy.special import yv
    y = yv(order, x)
    return np.where((y == 0) & (np.asarray(x) > _Y_ZERO_ARGUMENT), np.nan, y)[()]


@settings(max_examples=300, deadline=None)
@given(nu=_ORDERS, xs=st.lists(_ARGUMENTS, min_size=1, max_size=16))
@example(nu=1e4, xs=[1.0, 1e4, 1e9])     # Y overflows at the first point
@example(nu=0.0, xs=[1e-3, 7.2e8, 3e9])  # Y_0 finite at the ends of the range
@example(nu=100.0, xs=[7.2e8, 1e3])     # scipy's Y is -0.0 at 7.2e8: missing
@example(nu=0.5, xs=[1e17, 1e300])      # hankel1 NaN, yv finite
@example(nu=1.08e9, xs=[1.0, 2e9])      # an order beyond AMOS's range
@example(nu=5e-324, xs=[1.0, 3.0])      # hankel1 NaN, yv 0 where Y_0 is not
@example(nu=2.0 ** -1023, xs=[1.0])     # hankel1 and yv 4 ulp off Y_0
def test_cyl_y_is_scipy_yv_bit_for_bit(nu, xs):
    # cyl_j and Re H1 are jv bit for bit, also where H1 falls back to yv;
    # Y is yv bit for bit except where the missing-value rule makes scipy's
    # 0 NaN
    from scipy.special import jv
    order = 0.0 if nu < _SMALLEST_NORMAL else nu  # Y_nu is Y_0 to the last bit
    x = np.array(xs)
    got, want = cyl_y(nu, x), _yv_or_missing(order, x)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    overflow = np.isinf(want)
    assert np.all(np.isneginf(got[overflow]) & np.isneginf(want[overflow]))
    got_j, want_j = cyl_j(nu, x), jv(nu, x)
    assert got_j.dtype == want_j.dtype and got_j.tobytes() == want_j.tobytes()
    h = hankel1(nu, x)
    assert np.real(h).tobytes() == got_j.tobytes()
    assert np.imag(h).tobytes() == got.tobytes()
    # at one point only: past AMOS's range each yv fallback can take seconds
    gj, hi = cyl_j(nu, xs[0]), hankel1(nu, xs[0])
    assert type(gj) is np.float64 and type(hi) is np.complex128
    assert gj.tobytes() == got_j[0].tobytes() and hi.tobytes() == h[0].tobytes()
    for xi in xs:
        g, w = cyl_y(nu, xi), _yv_or_missing(order, xi)
        assert type(g) is np.float64  # a numpy scalar, not a 0-d array
        assert np.float64(g).tobytes() == np.float64(w).tobytes()


def test_cyl_y_at_subnormal_orders_is_y0():
    # scipy's yv gives 0 at (5e-324, 1) and -8.8e292 at (1e-310, 2); at
    # (2**-1023, 1) its yv and hankel1 give a value 4 ulp off Y_0
    from scipy.special import yv
    xs = np.array([1.0, 2.0, 3.0])
    for nu in (5e-324, 1e-310, 2.0 ** -1023):
        assert np.array_equal(cyl_y(nu, xs), yv(0, xs))
        assert all(cyl_y(nu, float(x)) == yv(0, x) for x in xs)
    assert np.array_equal(cyl_y(np.array([5e-324, 1e-310, 2.0]), 2.0),
                          [yv(0, 2.0), yv(0, 2.0), yv(2.0, 2.0)])
    value = cylinder(5e-324, 1.0)
    assert value.y == yv(0, 1.0) and value.err_bound <= 1e-12


def test_hankel_modulus_decreasing():
    for nu in (0.5, 10.0, 100.0):
        xs = np.geomspace(max(nu, 0.5), 30 * max(nu, 1.0), 300)
        mods = np.abs(hankel1(nu, xs))
        assert np.all(np.diff(mods) < 0)


def test_radial_flux_balance():
    from scipy.special import jvp, yvp
    for nu in (0.5, 10.0, 100.0):
        for x in (max(1.0, nu), 5 * max(1.0, nu)):
            h1 = hankel1(nu, x)
            h1p = jvp(nu, x) + 1j * yvp(nu, x)
            flux_in = float(np.imag(np.conj(h1) * h1p))
            wronskian = 2 / (math.pi * x)
            assert flux_in == pytest.approx(wronskian, rel=1e-9)


# -- phase shifts --------------------------------------------------------------------

def test_phase_shift_value():
    assert phase_shift(1, BETA10) == pytest.approx(10.5 * math.pi, rel=1e-15)
    assert phase_shift(1, BETA10) == pytest.approx(32.98672, abs=1e-5)


def test_phase_shift_spacing_constant():
    for beta in (BETA10, math.pi / 50, math.atan(0.1), math.atan(0.01)):
        diffs = [phase_shift(n + 1, beta) - phase_shift(n, beta)
                 for n in range(1, 40)]
        for d in diffs:
            assert d == pytest.approx(math.pi ** 2 / beta, rel=1e-12)
        assert phase_shift_difference(beta) == pytest.approx(
            math.pi ** 2 / beta, rel=1e-15)


def test_phase_shift_heavy_mass_correspondence():
    # arccot(R) ~ 1/R: the channel spacing approaches pi^2 R
    for r in (100.0, 1000.0):
        beta = math.atan2(1.0, r)
        assert phase_shift_difference(beta) == pytest.approx(
            math.pi ** 2 * r, rel=2.0 / r ** 2)


def test_phase_shift_independent_of_k():
    # the formula takes no wavenumber at all; it only depends on the channel
    assert phase_shift(2, BETA10) == (2 * math.pi / BETA10 + 0.5) * math.pi


@settings(max_examples=25, deadline=None)
@given(st.floats(2.0, 1000.0))
def test_phase_shift_spacing_heard_from_the_waves(r):
    # the channel spacing measured from the phase of H1 spells out the count
    beta = math.atan2(1.0, r)  # arccot of R = sqrt(M/m)
    assume(abs(math.pi / beta - round(math.pi / beta)) > 1e-6)
    l, lp = math.pi / beta, 2 * math.pi / beta
    delta = phase_shift_from_waves(l, 200 * lp)
    spacing = phase_shift_from_waves(lp, 200 * lp) - delta
    assert math.floor(spacing / math.pi) == count_closed_form(beta)
    assert abs(spacing - math.pi ** 2 / beta) <= 1e-8 * math.pi ** 2 / beta
    assert delta == pytest.approx(phase_shift(1, beta), rel=1e-8)


# -- mean angle -------------------------------------------------------------------------

def test_theta_mean_range():
    rng = np.random.default_rng(31)
    for n in (1, 2, 10):
        l = n * math.pi / BETA10
        rhos = l / np.cos(rng.uniform(0.02, 1.55, 60))
        vals = theta_mean(rhos, n, BETA10)
        assert np.all(vals >= 0.0) and np.all(vals <= BETA10)


def test_theta_mean_matches_quadrature_oracle():
    rng = np.random.default_rng(77)
    for n in (1, 4, 10):
        l = n * math.pi / BETA10
        for eta in rng.uniform(0.05, 1.5, 8):
            rho = l / math.cos(float(eta))
            closed = theta_mean(rho, n, BETA10)
            assert closed == pytest.approx(
                theta_mean_adaptive(rho, n, BETA10), abs=1e-8)
            assert closed == pytest.approx(
                theta_mean_quadrature(rho, n, BETA10), abs=1e-10)


@pytest.mark.parametrize("n, beta, eta", [
    (300, BETA10, 0.3), (300, BETA10, 0.8), (300, 0.5, 0.3), (300, 0.5, 1.2),
    (300, 1.2, 0.8), (300, 1.2, 1.2), (1000, 0.5, 0.8), (2000, 0.5, 0.8)])
def test_theta_mean_quadrature_resolves_large_n(n, beta, eta):
    # beyond n = 143 the rule must grow: 320 nodes are off by 2e-4 to 6e-3 at n = 300
    rho = n * math.pi / beta / math.cos(eta)
    assert theta_mean_quadrature(rho, n, beta) == pytest.approx(
        theta_mean(rho, n, beta), abs=1e-12)


def test_rejected_amplitude_coefficient_fails_oracle():
    # the superficially similar coefficient 8n(n+1)/(2n^2+1)^2 is wrong for
    # every n >= 2 (at n = 1 the two happen to coincide)
    n, rho = 2, 23.5
    wrong_coef = 8 * n * (n + 1) / (2 * n * n + 1) ** 2
    right_coef = amplitude_coefficient(n)
    closed = theta_mean(rho, n, BETA10)
    oracle = theta_mean_adaptive(rho, n, BETA10)
    wrong = BETA10 / 2 + (closed - BETA10 / 2) * wrong_coef / right_coef
    assert abs(closed - oracle) < 1e-10
    assert abs(wrong - oracle) > 1e-4


def test_theta_mean_outgoing_via_quadrature():
    # outgoing-wave mean angle is exposed through the quadrature path only
    rho = 17.0
    val = theta_mean_quadrature(rho, 1, BETA10, wave="outgoing")
    assert 0.0 <= val <= BETA10
    assert val == pytest.approx(
        theta_mean_adaptive(rho, 1, BETA10, wave="outgoing"), abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 10), beta=st.floats(math.pi / 50, math.pi / 2),
       eta=st.floats(0.03, 1.5))
def test_theta_mean_outgoing_matches_conjugate_closed_form(n, beta, eta):
    # the quadrature of the conj(H1) pair against the closed form of the same
    # pair; yv stays finite over this range of orders and radii
    rho = n * math.pi / beta / math.cos(eta)
    assert abs(theta_mean_quadrature(rho, n, beta, wave="outgoing")
               - theta_mean_outgoing_closed_form(rho, n, beta)) <= 1e-10


def test_theta_mean_flattens_below_turning_radius():
    n = 2
    l = n * math.pi / BETA10
    rhos = np.linspace(0.3 * l, 0.9 * l, 24)
    vals = theta_mean(rhos, n, BETA10)
    assert np.all(np.abs(vals - BETA10 / 2) < 0.02 * BETA10)


@st.composite
def _below_turning_radius(draw):
    beta = draw(st.floats(math.pi / 50, math.pi / 2))
    n = draw(st.integers(1, 20))
    return beta, n, n * math.pi / beta * 10.0 ** draw(st.floats(-3.0, 0.0))


@settings(max_examples=25, deadline=None)
@given(case=_below_turning_radius())
@example(case=(1.2, 20, 0.0515))  # |H1_l'|^2 overflows while H1_l is finite
@example(case=(1.2, 16, 0.01))
def test_theta_mean_matches_mpmath_below_turning_radius(case):
    # rho = l u with u log-uniform in [1e-3, 1], wherever the double H1_l is finite
    beta, n, rho = case
    assume(np.isfinite(hankel1(n * math.pi / beta, rho)))
    assert abs(theta_mean(rho, n, beta) - theta_mean_mp(rho, n, beta)) <= 1e-14 * beta


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 10), exponent=st.floats(2.0, 8.0))
@example(n=1, exponent=5.0)
def test_theta_mean_finite_where_channel_n_plus_1_overflows(n, exponent):
    # on the curve grid rho = l / cos(eta), yv of order l' overflows from
    # M/m = 1e5 (n = 1) on, and both routes take the pair as (0, 1) there.
    # Beyond rho of about 7e8, which n >= 9 reaches at M/m = 1e8, scipy
    # returns Y = 0, which hankel1 takes as missing, so the grid stops at 5e8
    beta = BilliardParams.from_mass_ratio(10.0 ** exponent).wedge_angle
    rhos = n * math.pi / beta / np.cos((np.arange(2000) + 0.5) * (math.pi / 4000))
    rhos = rhos[rhos < 5e8]
    closed = theta_mean(rhos, n, beta)
    assert np.all(np.isfinite(closed))
    overflowed = np.flatnonzero(np.isinf(hankel1((n + 1) * math.pi / beta, rhos)))
    for i in overflowed[[0, overflowed.size // 2, -1]] if overflowed.size else []:
        assert abs(theta_mean_quadrature(rhos[i], n, beta) - closed[i]) <= 1e-12 * beta
        assert math.isfinite(theta_mean_quadrature(rhos[i], n, beta, wave="outgoing"))


def test_theta_mean_missing_where_scipy_y_is_zero():
    # at order 100.5 scipy's Y_l is -0 here, which gave a finite 0.5843 beta
    # where mpmath gives 0.3199 beta: the missing value is NaN instead
    beta = math.pi / 100.5
    assert np.isnan(np.imag(hankel1(100.5, 1e9)))
    assert math.isnan(theta_mean(1e9, 1, beta))


# -- curves ------------------------------------------------------------------------------

def test_quantum_curve_bounds_and_metadata():
    series = sample_quantum_curve(1, BETA10, grid=600)
    assert series.header() == ["eta", "theta_over_beta", "model", "l"]
    assert series.labels["l"] == "10"
    assert np.all(series.ys >= 0.0) and np.all(series.ys <= 1.0)
    assert series.metadata["amplitude_coefficient_rule"] == AMPLITUDE_COEFFICIENT_RULE


def test_quantum_curve_oscillates_about_half():
    series = sample_quantum_curve(1, BETA10, grid=2000)
    crossings = np.sum(np.diff(np.sign(series.ys - 0.5)) != 0)
    assert crossings >= 3


def test_stationary_region_shrinks_with_l():
    amp = amplitude_coefficient(1) * BETA10 / math.pi ** 2
    s10 = sample_quantum_curve(1, BETA10, grid=3000)
    s100 = sample_quantum_curve(10, BETA10, grid=3000)
    eta1_10 = first_extremum_abscissa(s10.xs, s10.ys, prominence=0.05 * amp / BETA10)
    eta1_100 = first_extremum_abscissa(s100.xs, s100.ys, prominence=0.05 * amp / BETA10)
    assert eta1_100 < eta1_10
    # both curves start flat at beta/2
    assert abs(s10.ys[0] - 0.5) < 0.05
    assert abs(s100.ys[0] - 0.5) < 0.05


def test_incident_curve_extrema_half_trip():
    # the incident wave carries half of the full-trip phase pi^2/beta, so the
    # visible oscillation count sits near pi/(2 beta) = 5, part of it hidden
    # inside the stationary throat
    series = sample_quantum_curve(10, BETA10, grid=3000)
    amp = amplitude_coefficient(10) / math.pi ** 2
    cnt = count_extrema(series.ys, prominence=0.05 * amp)
    assert 4 <= cnt <= 6
