"""Free particle in an unbounded plane sector: modes, phase shifts, mean angle.

With both balls quantum, the problem separates in the mass-scaled polar
coordinates into sector eigenmodes sin(l theta) with l = n pi / beta and
radial cylinder waves of real order l.  The standing radial mode splits into
an incident and an outgoing wave whose asymptotic phase shift is
delta(n) = (l + 1/2) pi, independent of the wavenumber; the difference
between adjacent channels, pi^2 / beta, is the quantum image of the classical
full-trip phase.  The mean sector angle in a two-channel superposition
oscillates with radius like the classical angle oscillates with time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .core import (DomainError, _check_beta, _check_positive,
                   _check_quantum_number, _turning_ratio)
from .curves import CurveSeries, _eta_grid, _gauss_legendre

# Accuracy contract for cylinder-function evaluation (relative).
CYLINDER_TOLERANCE = 1e-10

# Mean-angle oscillation amplitude rule, confirmed against direct quadrature
# of the sector wavefunction (see theta_mean_quadrature); the superficially
# similar 8n(n+1)/(2n^2+1)^2 variant fails that check by ~6e-2 already at
# n = 1 and is rejected.
AMPLITUDE_COEFFICIENT_RULE = "8*n*(n+1)/(2*n+1)**2"

_THETA_NODES = 320  # Gauss-Legendre nodes of the mean-angle quadrature


class CylinderPrecisionError(RuntimeError):
    """Certified cylinder-function accuracy could not be reached."""


class AsymptoticValidityError(DomainError):
    """Argument below the validity threshold of the asymptotic form."""


@dataclass(frozen=True)
class QuantumMode:
    """Radial wavenumber, channel index and angular order of a sector mode."""

    k: float
    n: int
    l: float

    def __post_init__(self):
        _check_positive("k", self.k)
        _check_quantum_number(self.n)
        _check_positive("l", self.l)

    @classmethod
    def from_channel(cls, n: int, beta: float, k: float = 1.0) -> "QuantumMode":
        _check_beta(beta)
        return cls(k=k, n=n, l=n * math.pi / beta)

    @property
    def turning_radius(self) -> float:
        return self.l / self.k


@dataclass(frozen=True)
class CylinderValue:
    """J and Y at one (order, argument) point with a certified relative bound."""

    j: float
    y: float
    err_bound: float


def _check_order_argument(nu, x) -> None:
    _check_positive("order", nu, zero_ok=True)
    _check_positive("argument", x)


def cyl_j(nu, x):
    """Bessel function of the first kind, real order nu >= 0, x > 0."""
    _check_order_argument(nu, x)
    return _sp.jv(nu, x)


def cyl_y(nu, x):
    """Bessel function of the second kind, real order nu >= 0, x > 0."""
    _check_order_argument(nu, x)
    return _sp.yv(nu, x)


def cylinder(nu: float, x: float) -> CylinderValue:
    """J and Y with an accuracy certificate.

    The certificate is the scaled residual of the Wronskian identity
    J Y' - J' Y = 2/(pi x), an identity the evaluation does not enforce, so
    its failure exposes evaluation error.  Raises if the contract tolerance
    cannot be certified.
    """
    _check_order_argument(nu, x)
    j, y = _sp.jv(nu, x), _sp.yv(nu, x)
    jp, yp = _sp.jvp(nu, x), _sp.yvp(nu, x)
    if not all(map(math.isfinite, (j, y, jp, yp))):
        raise CylinderPrecisionError(f"non-finite cylinder values at nu={nu}, x={x}")
    residual = abs(j * yp - jp * y - 2.0 / (math.pi * x)) * math.pi * x / 2.0
    bound = max(4.0 * residual, 1e-13)
    if bound > CYLINDER_TOLERANCE:
        raise CylinderPrecisionError(
            f"cannot certify relative accuracy {CYLINDER_TOLERANCE} at nu={nu}, "
            f"x={x} (residual {residual:.3e})")
    return CylinderValue(j=float(j), y=float(y), err_bound=bound)


def hankel1(nu, x):
    """H(1) = J + iY (incident radial wave)."""
    return cyl_j(nu, x) + 1j * cyl_y(nu, x)


def hankel2(nu, x):
    """H(2) = J - iY (outgoing radial wave); the conjugate of H(1) for real
    order and argument."""
    return cyl_j(nu, x) - 1j * cyl_y(nu, x)


def hankel_asymptotic(nu: float, x: float) -> tuple[complex, complex]:
    """Leading large-argument forms sqrt(2/(pi x)) exp(+-i(x - (nu+1/2)pi/2)).

    Enforced validity region x >= 10 * max(1, nu^2).  The modulus is already
    accurate there (its first correction is O(1/x^2)); the complex value
    carries an O(nu^2/x) phase error that shrinks as x grows.
    """
    _check_order_argument(nu, x)
    threshold = 10.0 * max(1.0, nu * nu)
    if x < threshold:
        raise AsymptoticValidityError(
            f"asymptotic form requires x >= {threshold} for nu={nu}")
    amplitude = math.sqrt(2.0 / (math.pi * x))
    phase = x - (nu + 0.5) * math.pi / 2.0
    first = amplitude * complex(math.cos(phase), math.sin(phase))
    return first, first.conjugate()


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


def amplitude_coefficient(n: int) -> float:
    """8n(n+1)/(2n+1)^2; see AMPLITUDE_COEFFICIENT_RULE for its status."""
    _check_quantum_number(n)
    return 8.0 * n * (n + 1) / (2 * n + 1) ** 2


def theta_mean(rho, n: int, beta: float):
    """Mean sector angle of the two-channel incident wave at radius rho.

    The superposition weights channel n+1 with the fixed relative phase
    exp(i pi^2/(2 beta)), which cancels the asymptotic channel phase offset so
    the oscillation lines up with the classical angle.  Closed form:

        beta/2 - (beta/pi^2) C(n)
                 * 2 Re[exp(i c pi) conj(H1_l) H1_l'] / (|H1_l|^2 + |H1_l'|^2)

    with C(n) = 8n(n+1)/(2n+1)^2 and c = pi/(2 beta).  ``rho`` is the
    dimensionless radius k rho, the only way the wavenumber enters.  Valid for
    any rho > 0; below the turning radius l the channel-(n+1) wave is
    evanescent and the result flattens to beta/2.
    """
    _check_quantum_number(n)
    _check_beta(beta)
    x = np.asarray(rho, dtype=float)
    h_l = hankel1(n * math.pi / beta, x)
    h_lp = hankel1((n + 1) * math.pi / beta, x)
    c = math.pi / (2.0 * beta)
    cross = 2.0 * np.real(np.exp(1j * c * math.pi) * np.conj(h_l) * h_lp)
    dens = np.abs(h_l) ** 2 + np.abs(h_lp) ** 2
    out = beta / 2.0 - (beta / math.pi ** 2) * amplitude_coefficient(n) * cross / dens
    return float(out) if np.isscalar(rho) else out


def theta_mean_quadrature(rho: float, n: int, beta: float,
                          wave: str = "incident") -> float:
    """Mean sector angle by direct quadrature of the wavefunction density.

    Integrates theta |Psi|^2 over the sector (fixed 320-node Gauss-Legendre
    rule) for the two-channel incident (H1) or outgoing (H2) wave at the
    dimensionless radius ``rho`` = k rho, as in :func:`theta_mean`.  This path
    makes no use of the closed form above and is the only exposed route to
    the outgoing-wave mean angle.
    """
    _check_quantum_number(n)
    _check_beta(beta)
    if wave not in ("incident", "outgoing"):
        raise DomainError("wave must be 'incident' or 'outgoing'")
    hankel = hankel1 if wave == "incident" else hankel2
    l = n * math.pi / beta
    lp = (n + 1) * math.pi / beta
    h_l, h_lp = hankel(l, rho), hankel(lp, rho)
    c = math.pi / (2.0 * beta)
    theta, wt = _gauss_legendre(_THETA_NODES, beta)
    psi = h_l * np.sin(l * theta) + np.exp(1j * c * math.pi) * h_lp * np.sin(lp * theta)
    density = np.abs(psi) ** 2
    return float(np.sum(wt * theta * density) / np.sum(wt * density))


def eta_of(rho: float, l: float, k: float) -> float:
    """Compactified radius arccos(l/(k rho)) in [0, pi/2); zero at the
    turning radius rho = l/k, approaching pi/2 far away."""
    _check_positive("l", l)
    _check_positive("k", k)
    return math.acos(_turning_ratio(k * rho, l, "rho", "the turning radius l/k"))


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
