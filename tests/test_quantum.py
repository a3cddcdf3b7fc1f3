import math

import numpy as np
import pytest

from oracles import bessel_j_integral, bessel_j_series, bessel_y_integral, \
    theta_mean_adaptive
from pibilliards import (AMPLITUDE_COEFFICIENT_RULE, AsymptoticValidityError,
                         CylinderPrecisionError, DomainError, QuantumMode,
                         amplitude_coefficient, count_extrema, cyl_j, cyl_y,
                         cylinder, eta_of, first_extremum_abscissa, hankel1,
                         hankel2, hankel_asymptotic, phase_shift,
                         phase_shift_difference, sample_quantum_curve,
                         theta_mean, theta_mean_quadrature)

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


def test_cylinder_certificate():
    val = cylinder(100.0, 120.0)
    assert val.err_bound <= 1e-10
    assert val.j == cyl_j(100.0, 120.0)
    # Wronskian residual drives the bound
    val2 = cylinder(0.5, 2.0)
    assert val2.err_bound <= 1e-10


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


def test_hankel_conjugate_symmetry():
    for nu in (0.0, 2.5, 31.4):
        for x in (0.7, 10.0, 300.0):
            assert hankel2(nu, x) == np.conj(hankel1(nu, x))


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
            h2 = hankel2(nu, x)
            h2p = jvp(nu, x) - 1j * yvp(nu, x)
            flux_out = float(np.imag(np.conj(h2) * h2p))
            wronskian = 2 / (math.pi * x)
            assert flux_in == pytest.approx(wronskian, rel=1e-9)
            assert abs(flux_in + flux_out) <= 1e-9 * abs(flux_in)


# -- asymptotic forms --------------------------------------------------------------

def test_hankel_asymptotic_modulus_and_conjugacy():
    h1, h2 = hankel_asymptotic(3.0, 1000.0)
    assert abs(h1) == pytest.approx(math.sqrt(2 / (math.pi * 1000.0)), rel=1e-15)
    assert h2 == h1.conjugate()


def test_hankel_asymptotic_validity_threshold():
    with pytest.raises(AsymptoticValidityError):
        hankel_asymptotic(10.0, 999.0)
    hankel_asymptotic(10.0, 1000.0)
    with pytest.raises(AsymptoticValidityError):
        hankel_asymptotic(0.5, 9.0)


def test_hankel_asymptotic_accuracy():
    # at the validity threshold the modulus is already at the 1e-3 level;
    # the complex value carries an O(nu^2/x) phase error that dies off as x
    # grows (the leading correction is (4 nu^2 - 1)/(8x))
    for nu in (0.0, 0.5, 10.0):
        x_thr = 10.0 * max(1.0, nu * nu)
        exact = hankel1(nu, x_thr)
        approx, _ = hankel_asymptotic(nu, x_thr)
        assert abs(abs(approx) - abs(exact)) / abs(exact) < 1e-3
        phase_scale = abs(4 * nu * nu - 1) / (8 * x_thr)
        assert abs(approx - exact) / abs(exact) < max(2e-3, 2 * phase_scale)
    # far beyond the threshold the full complex error crosses below 1e-3
    for nu in (0.0, 0.5, 10.0):
        x_far = 500.0 * max(1.0, nu * nu)
        exact = hankel1(nu, x_far)
        approx, _ = hankel_asymptotic(nu, x_far)
        assert abs(approx - exact) / abs(exact) < 1e-3


def test_hankel_asymptotic_error_improves_with_x():
    nu = 10.0
    errs = []
    for x in (1000.0, 4000.0, 16000.0):
        exact = hankel1(nu, x)
        approx, _ = hankel_asymptotic(nu, x)
        errs.append(abs(approx - exact) / abs(exact))
    assert errs[0] > errs[1] > errs[2]


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


def test_theta_mean_flattens_below_turning_radius():
    n = 2
    l = n * math.pi / BETA10
    rhos = np.linspace(0.3 * l, 0.9 * l, 24)
    vals = theta_mean(rhos, n, BETA10)
    assert np.all(np.abs(vals - BETA10 / 2) < 0.02 * BETA10)


def test_eta_of_values():
    assert eta_of(10.0, 10.0, 1.0) == 0.0
    assert eta_of(1e9, 10.0, 1.0) == pytest.approx(math.pi / 2, abs=1e-4)
    assert eta_of(20.0, 10.0, 1.0) == pytest.approx(math.pi / 3, rel=1e-14)
    with pytest.raises(DomainError):
        eta_of(5.0, 10.0, 1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            eta_of(bad, 10.0, 1.0)
        with pytest.raises(DomainError):
            eta_of(20.0, bad, 1.0)
        with pytest.raises(DomainError):
            eta_of(20.0, 10.0, bad)


def test_quantum_mode():
    mode = QuantumMode.from_channel(2, BETA10, k=2.0)
    assert mode.l == pytest.approx(20.0, rel=1e-15)
    assert mode.turning_radius == pytest.approx(10.0, rel=1e-15)
    with pytest.raises(DomainError):
        QuantumMode(k=0.0, n=1, l=10.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            QuantumMode(k=bad, n=1, l=10.0)
        with pytest.raises(DomainError):
            QuantumMode(k=1.0, n=1, l=bad)


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
