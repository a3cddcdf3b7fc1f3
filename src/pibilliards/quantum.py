"""Free particle in an unbounded plane sector: Bessel waves and the mean angle.

With both balls quantum, the problem separates in the mass-scaled polar
coordinates into sector eigenmodes sin(l theta) with l = n pi / beta and
radial cylinder waves of real order l.  The standing radial mode J splits
into the incident wave H1 = J + iY and the outgoing wave conj(H1) = J - iY
(for real order and argument the conjugate is the second Hankel function).
Their asymptotic phase shift delta(n) = (l + 1/2) pi, ``core.phase_shift``,
is independent of the wavenumber; the difference between adjacent channels,
pi^2 / beta, is the quantum image of the classical full-trip phase.  The mean
sector angle in a two-channel superposition oscillates with radius like the
classical angle oscillates with time; its amplitude coefficient C(n) is
:func:`amplitude_coefficient`.

The Bessel functions are scipy's: ``scipy.special`` is not imported with this
module but at the first evaluation of :func:`cyl_j` or :func:`hankel1`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (DomainError, _check_beta, _check_positive,
                   _check_quantum_number, _special)
from .curves import CurveSeries, _eta_grid, _gauss_legendre

# Accuracy contract for cylinder-function evaluation (relative).
CYLINDER_TOLERANCE = 1e-10

# Mean-angle oscillation amplitude rule, confirmed against direct quadrature
# of the sector wavefunction (see theta_mean_quadrature); the superficially
# similar 8n(n+1)/(2n^2+1)^2 variant fails that check by ~6e-2 already at
# n = 1 and is rejected.
AMPLITUDE_COEFFICIENT_RULE = "8*n*(n+1)/(2*n+1)**2"

_SMALLEST_NORMAL = 2.2250738585072014e-308  # below it hankel1 takes Y's order as 0
_Y_ZERO_ARGUMENT = 7.15e8  # past it hankel1 takes Y = 0 as missing (seen from 715 828 039)


class CylinderPrecisionError(ArithmeticError):
    """Certified cylinder-function accuracy could not be reached."""


@dataclass(frozen=True)
class CylinderValue:
    """J and Y at one (order, argument) point with a certified relative bound."""

    j: float
    y: float
    err_bound: float


def cyl_j(nu, x):
    """Bessel function of the first kind, real order nu >= 0, x > 0:
    ``scipy.special.jv``, the real part of :func:`hankel1`, evaluated without
    Y.  The order and argument check here is the one :func:`hankel1` uses."""
    _check_positive("order", nu, zero_ok=True)
    _check_positive("argument", x)
    return _special().jv(nu, x)


def cyl_y(nu, x):
    """Bessel function of the second kind, real order nu >= 0, x > 0: the
    imaginary part of :func:`hankel1`, which says how Y is evaluated and
    where it is NaN instead of scipy's spurious 0."""
    return np.imag(hankel1(nu, x))


def cylinder(nu: float, x: float) -> CylinderValue:
    """J and Y from :func:`hankel1`, with an accuracy certificate.

    The certificate is the scaled residual of the Wronskian identity
    J_{nu+1} Y_nu - J_nu Y_{nu+1} = 2/(pi x) (DLMF 10.5.2), with the order
    nu + 1 from a second :func:`hankel1` call: an identity the evaluation
    does not enforce, so its failure exposes evaluation error.  Raises if
    the contract tolerance cannot be certified.
    """
    h, h1 = hankel1(nu, x), hankel1(nu + 1.0, x)
    j, y, j1, y1 = np.real(h), np.imag(h), np.real(h1), np.imag(h1)
    if not all(map(math.isfinite, (j, y, j1, y1))):
        raise CylinderPrecisionError(f"non-finite cylinder values at nu={nu}, x={x}")
    residual = abs(j1 * y - j * y1 - 2.0 / (math.pi * x)) * math.pi * x / 2.0
    bound = max(4.0 * residual, 1e-13)
    if bound > CYLINDER_TOLERANCE:
        raise CylinderPrecisionError(
            f"cannot certify relative accuracy {CYLINDER_TOLERANCE} at nu={nu}, "
            f"x={x} (residual {residual:.3e})")
    return CylinderValue(j=float(j), y=float(y), err_bound=bound)


def hankel1(nu, x):
    """H(1) = J + iY (incident radial wave) for real order nu >= 0 and x > 0;
    its conjugate is the outgoing wave.  Every Y is taken here, and J from
    :func:`cyl_j`, which checks the order and argument.

    J is ``scipy.special.jv``.  Y is taken as Im H1: AMOS builds Y from the
    Hankel pair, so ``yv`` computes both H1 and H2 where ``hankel1`` computes
    one, and Im H1 equals ``scipy.special.yv`` bit for bit wherever
    ``hankel1`` gives a value (a property test pins this).  Where it gives NaN
    (Y overflows, or the argument or order is beyond AMOS's range) the points
    are evaluated by ``yv``, so Y is ``yv``'s everywhere except at subnormal
    orders: there they give NaN, 0, garbage or a value off in the last bits,
    while Y_nu equals Y_0 to the last bit, so those orders are taken as 0.
    Past x = 7.15e8 an exact 0 from both is taken as missing (NaN): there
    scipy gives Y = -0 at orders above about 86, while the zeros of Y are no
    doubles and its amplitude is about sqrt(2/(pi x)).
    """
    special = _special()
    h = np.array(cyl_j(nu, x), dtype=complex)
    nu = np.where(np.asarray(nu) < _SMALLEST_NORMAL, 0.0, nu)
    # set h.imag, not J + 1j * Y: 0 * inf would make the real part NaN
    h.imag = np.imag(special.hankel1(nu, x))
    missing = np.isnan(h.imag)
    if missing.any():
        nu, x = np.broadcast_arrays(nu, x)
        h.imag[missing] = special.yv(nu[missing], x[missing])
    h.imag[(h.imag == 0) & (np.asarray(x) > _Y_ZERO_ARGUMENT)] = np.nan
    return h[()]


def amplitude_coefficient(n: int) -> float:
    """C(n) = 8n(n+1)/(2n+1)^2, the mean-angle amplitude coefficient; see
    AMPLITUDE_COEFFICIENT_RULE for its status.  The semiclassical position
    fraction is ``SemiclassicalConfig.position_amplitude`` = C(n)/pi^2."""
    _check_quantum_number(n)
    return 8.0 * n * (n + 1) / (2 * n + 1) ** 2


def _channel_pair(rho, n: int, beta: float):
    """Check n and beta; return l = n pi / beta, l' = (n + 1) pi / beta and
    H1_l, H1_l' at rho times 2**-k, k the binary exponent of |H1_l'|, the
    larger wave (DLMF 10.9.30).  Both routes are blind to this exact factor,
    their one overflow rule; where only H1_l' overflows, the pair is (0, 1)."""
    _check_quantum_number(n)
    _check_beta(beta)
    l, lp = n * math.pi / beta, (n + 1) * math.pi / beta
    h_l, h_lp = hankel1(l, rho), hankel1(lp, rho)
    swamped = np.isinf(h_lp) & np.isfinite(h_l)
    h_l, h_lp = np.where(swamped, 0.0, h_l), np.where(swamped, 1.0, h_lp)
    scale = np.ldexp(1.0, -np.frexp(np.abs(h_lp))[1])
    return l, lp, h_l * scale, h_lp * scale


def theta_mean(rho, n: int, beta: float):
    """Mean sector angle of the two-channel incident wave at radius rho.

    The superposition weights channel n+1 with the fixed relative phase
    exp(i pi^2/(2 beta)), which cancels the asymptotic channel phase offset so
    the oscillation lines up with the classical angle.  Closed form:

        beta/2 - (beta/pi^2) C(n)
                 * 2 Re[exp(i c pi) conj(H1_l) H1_l'] / (|H1_l|^2 + |H1_l'|^2)

    with C(n) = 8n(n+1)/(2n+1)^2 and c = pi/(2 beta).  ``rho`` is the
    dimensionless radius k rho, the only way the wavenumber enters.  Below
    the turning radius l' the channel-(n+1) wave grows and the result
    flattens to beta/2.  It is NaN where both waves overflow (rho well below
    l, see _channel_pair) and past 7.15e8 wherever :func:`hankel1` has no Y
    (orders above about 86), never the finite value a spurious Y = 0 gives.
    """
    _, _, h_l, h_lp = _channel_pair(np.asarray(rho, dtype=float), n, beta)
    c = math.pi / (2.0 * beta)
    cross = 2.0 * np.real(np.exp(1j * c * math.pi) * np.conj(h_l) * h_lp)
    dens = np.abs(h_l) ** 2 + np.abs(h_lp) ** 2
    out = beta / 2.0 - (beta / math.pi ** 2) * amplitude_coefficient(n) * cross / dens
    return float(out) if np.isscalar(rho) else out


def theta_mean_quadrature(rho: float, n: int, beta: float,
                          wave: str = "incident") -> float:
    """Mean sector angle by direct quadrature of the wavefunction density.

    Integrates theta |Psi|^2 over the sector (the Gauss-Legendre rule shared
    with the Berry connection, which resolves the sines of both channels) for
    the two-channel incident (H1) or outgoing (conj(H1), which is H2 for real
    order and argument) wave at the dimensionless radius ``rho`` = k rho, on
    the scaled channel pair of :func:`theta_mean`, so it is finite on the
    same radii.  It makes no use of the closed form above and is the only
    exposed route to the outgoing-wave mean angle.
    """
    if wave not in ("incident", "outgoing"):
        raise DomainError("wave must be 'incident' or 'outgoing'")
    l, lp, h_l, h_lp = _channel_pair(rho, n, beta)
    if wave == "outgoing":
        h_l, h_lp = np.conj(h_l), np.conj(h_lp)
    c = math.pi / (2.0 * beta)
    theta, wt = _gauss_legendre(beta, n)
    psi = h_l * np.sin(l * theta) + np.exp(1j * c * math.pi) * h_lp * np.sin(lp * theta)
    density = np.abs(psi) ** 2
    return float(np.sum(wt * theta * density) / np.sum(wt * density))


def sample_quantum_curve(n: int, beta: float, grid: int = 2000) -> CurveSeries:
    """Normalized mean angle against eta over (0, pi/2) for channel pair
    (n, n+1), sampled at the dimensionless radii k rho = l / cos(eta).

    Reproduces the sector-scattering oscillation curves: a stationary region
    near eta = 0 (whose width shrinks as l grows) followed by oscillations
    about beta/2 that settle at the asymptotic value beta(1/2 - C(n)/pi^2).
    """
    etas = _eta_grid(grid)
    _check_beta(beta)
    l = n * math.pi / beta
    rhos = l / np.cos(etas)
    ys = theta_mean(rhos, n, beta) / beta
    return CurveSeries(
        abscissa="eta", ordinate="theta_over_beta", xs=etas, ys=ys,
        labels={"model": "quantum", "l": f"{l:.12g}"},
        metadata={
            "n": n,
            "beta": beta,
            "k": 1.0,  # the radii are in units of 1/k
            "l": l,
            "l_next": (n + 1) * math.pi / beta,
            "relative_phase_c": math.pi / (2.0 * beta),
            "amplitude_coefficient_rule": AMPLITUDE_COEFFICIENT_RULE,
            "amplitude_coefficient": amplitude_coefficient(n),
            "wave": "incident",
        })
