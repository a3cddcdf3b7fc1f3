"""Independent numerical oracles used by the test suite.

These deliberately avoid the code paths they check: Bessel values come from a
high-precision power series and from quadrature of the integral
representation (not from scipy); the accumulated Bohr phase comes from an
adaptive ODE integration of the Bohr frequency over the heavy-ball speed
``big_ball_speed`` of the speed law, whose limit is ``asymptotic_speed`` (not
from the closed form), each at a given unit of action ``hbar`` (the library
has none: its units are natural, hbar = 1);
mean angles come from adaptive quadrature (not from Gauss-Legendre), the
incident one also from mpmath's Hankel functions at 40 digits (not from scipy,
and with no overflow to scale away), and the outgoing one also from the
closed form of the H2 = J - iY pair (not from quadrature of the conjugated H1
pair); Gauss-Legendre nodes and weights come from Newton's method on the
plain three-term recurrence at 50 digits (not from scipy's
``eval_legendre``); channel phase shifts come from the
phase of H1 integrated through its Wronskian (not from the closed form
(l + 1/2) pi); the
classical curves are replayed from the float event trace of ``simulate``,
mapped to the wedge by ``to_polar``, and evaluated on the folded straight line
in high-precision arithmetic (not from the vectorized unfolding); pi comes
from the Machin series, interval quotients from all eight endpoint
quotients and arctangents from the series divided by the whole denominator
(not from the Chudnovsky binary splitting, the two-quotient
``BigReal.divide`` and the division by the denominator's odd part), and the
floor enclosure of a quotient from its two endpoint divisions by the builtin
// and divmod (not from one division and a product, by the recursive
division).
"""

from __future__ import annotations

import bisect
import math

import mpmath
import numpy as np
from scipy import integrate

from pibilliards import bigreal
from pibilliards.bigreal import BigReal
from pibilliards.classical import ClassicalState, CollisionTrace
from pibilliards.core import BilliardParams, _turning_ratio
from pibilliards.semiclassical import SemiclassicalConfig


def bessel_j_series(nu: float, x: float) -> float:
    """J_nu(x) by the ascending power series in high-precision arithmetic.

    The series converges for every x; the working precision is raised with x
    to absorb the cancellation between the large alternating terms.
    """
    dps = 40 + int(0.6 * x)
    with mpmath.workdps(dps):
        nu_mp = mpmath.mpf(nu)
        x_mp = mpmath.mpf(x)
        half = x_mp / 2
        term = half ** nu_mp / mpmath.gamma(nu_mp + 1)
        total = term
        k = 0
        while True:
            k += 1
            term *= -(half * half) / (k * (nu_mp + k))
            total += term
            if abs(term) < abs(total) * mpmath.mpf(10) ** (-dps + 5) and k > x / 2:
                break
        return float(total)


def _tail_cutoff(nu: float, x: float, margin: float = 140.0) -> float:
    """Upper limit T with x sinh(T) - nu T > margin, so the truncated mass of
    exp(nu t - x sinh t) is below e^-margin (negligible at 40 digits)."""
    t = 1.0
    while x * math.sinh(t) - nu * t < margin:
        t += 0.5
    return t


def bessel_y_integral(nu: float, x: float) -> float:
    """Y_nu(x) by quadrature of its integral representation.

    Y_nu(x) = (1/pi) int_0^pi sin(x sin t - nu t) dt
              - (1/pi) int_0^inf (e^{nu t} + e^{-nu t} cos(nu pi)) e^{-x sinh t} dt
    """
    with mpmath.workdps(40):
        nu_mp = mpmath.mpf(nu)
        x_mp = mpmath.mpf(x)
        pieces = np.linspace(0, math.pi, max(9, int(x / 2) + 9))
        osc = mpmath.quad(lambda t: mpmath.sin(x_mp * mpmath.sin(t) - nu_mp * t),
                          [mpmath.mpf(float(p)) for p in pieces])
        cut = _tail_cutoff(nu, x)
        tail = mpmath.quad(
            lambda t: (mpmath.exp(nu_mp * t) +
                       mpmath.exp(-nu_mp * t) * mpmath.cos(nu_mp * mpmath.pi)) *
            mpmath.exp(-x_mp * mpmath.sinh(t)),
            [mpmath.mpf(float(p)) for p in np.linspace(0, cut, 9)],
            maxdegree=10)
        return float((osc - tail) / mpmath.pi)


def bessel_j_integral(nu: float, x: float) -> float:
    """J_nu(x) by quadrature of its integral representation (any real nu >= 0)."""
    with mpmath.workdps(40):
        nu_mp = mpmath.mpf(nu)
        x_mp = mpmath.mpf(x)
        pieces = np.linspace(0, math.pi, max(9, int(x / 2) + 9))
        osc = mpmath.quad(lambda t: mpmath.cos(nu_mp * t - x_mp * mpmath.sin(t)),
                          [mpmath.mpf(float(p)) for p in pieces])
        cut = _tail_cutoff(nu, x)
        tail = mpmath.sin(nu_mp * mpmath.pi) * mpmath.quad(
            lambda t: mpmath.exp(-x_mp * mpmath.sinh(t) - nu_mp * t),
            [mpmath.mpf(float(p)) for p in np.linspace(0, cut, 9)],
            maxdegree=10)
        return float((osc - tail) / mpmath.pi)


def asymptotic_speed(cfg: SemiclassicalConfig, hbar: float = 1.0) -> float:
    """Heavy-ball speed limit as the well width grows without bound."""
    n, p = cfg.n, cfg.params
    return (math.pi * hbar / cfg.x_min) * \
        math.sqrt((2 * n * n + 2 * n + 1) / (2.0 * p.M * p.m))


def big_ball_speed(x: float, cfg: SemiclassicalConfig, hbar: float = 1.0) -> float:
    """Heavy-ball speed at well width x >= x_min, for the unit of action ``hbar``.

    Vanishes at the retracing point and rises monotonically toward
    :func:`asymptotic_speed`; satisfies the speed law
    M v^2 / 2 + (E_n(x) + E_{n+1}(x))/2 = (E_n + E_{n+1})(x_min)/2.
    """
    ratio = _turning_ratio(x, cfg.x_min, "x", "the retracing point x_min")
    return asymptotic_speed(cfg, hbar) * math.sqrt(max(0.0, 1.0 - ratio * ratio))


def ode_phase_integral(cfg: SemiclassicalConfig, x_upper: float, hbar: float = 1.0) -> float:
    """int_{x_min}^{x_upper} (E_{n+1} - E_n)/(hbar v(x)) dx by adaptive ODE
    integration, with the integrable sqrt singularity at the turning point
    handled by a small analytic first step."""
    p = cfg.params
    bohr_num = (2 * cfg.n + 1) * math.pi ** 2 * hbar / (2.0 * p.m)
    eps = 1e-8
    x0 = cfg.x_min * (1.0 + eps)
    # leading contribution of the (x - x_min)^(-1/2) singularity over [x_min, x0]
    local = bohr_num * math.sqrt(2.0 * eps) / (cfg.x_min * asymptotic_speed(cfg, hbar))

    def rhs(x, _):
        return bohr_num / (x * x * big_ball_speed(x, cfg, hbar))

    sol = integrate.solve_ivp(rhs, (x0, x_upper), [local], method="DOP853",
                              rtol=1e-11, atol=1e-14)
    if not sol.success:
        raise RuntimeError(sol.message)
    return float(sol.y[0, -1])


def ode_half_trip_phase(cfg: SemiclassicalConfig, hbar: float = 1.0) -> float:
    """Phase accumulated from the turning point out to infinite width."""
    x_upper = 1e6 * cfg.x_min
    base = ode_phase_integral(cfg, x_upper, hbar)
    p = cfg.params
    bohr_num = (2 * cfg.n + 1) * math.pi ** 2 * hbar / (2.0 * p.m)
    tail = bohr_num / (asymptotic_speed(cfg, hbar) * x_upper)
    return base + tail


def theta_mean_adaptive(rho: float, n: int, beta: float, k: float = 1.0,
                        wave: str = "incident") -> float:
    """Mean sector angle by adaptive quadrature (scipy.integrate.quad)."""
    from scipy import special as sp

    l = n * math.pi / beta
    lp = (n + 1) * math.pi / beta
    sgn = 1.0 if wave == "incident" else -1.0
    h_l = sp.jv(l, k * rho) + sgn * 1j * sp.yv(l, k * rho)
    h_lp = sp.jv(lp, k * rho) + sgn * 1j * sp.yv(lp, k * rho)
    phase = np.exp(1j * math.pi * math.pi / (2.0 * beta))

    def density(theta):
        psi = h_l * math.sin(l * theta) + phase * h_lp * math.sin(lp * theta)
        return abs(psi) ** 2

    num, _ = integrate.quad(lambda t: t * density(t), 0.0, beta, limit=400,
                            epsabs=1e-13, epsrel=1e-13)
    den, _ = integrate.quad(density, 0.0, beta, limit=400,
                            epsabs=1e-13, epsrel=1e-13)
    return num / den


def theta_mean_outgoing_closed_form(rho: float, n: int, beta: float) -> float:
    """Outgoing-wave mean angle in closed form: the ``theta_mean`` formula with
    each H1 replaced by H2 = J - iY, the conjugate of H1 for real order and
    argument."""
    from scipy import special as sp

    l = n * math.pi / beta
    lp = (n + 1) * math.pi / beta
    h_l = sp.jv(l, rho) - 1j * sp.yv(l, rho)
    h_lp = sp.jv(lp, rho) - 1j * sp.yv(lp, rho)
    cross = 2.0 * np.real(np.exp(1j * math.pi ** 2 / (2.0 * beta)) * np.conj(h_l) * h_lp)
    dens = abs(h_l) ** 2 + abs(h_lp) ** 2
    coefficient = 8.0 * n * (n + 1) / (2 * n + 1) ** 2
    return beta / 2.0 - (beta / math.pi ** 2) * coefficient * cross / dens


def theta_mean_mp(rho: float, n: int, beta: float) -> float:
    """Incident-wave mean angle in closed form with mpmath's ``hankel1`` at 40
    digits, at the double orders n pi / beta and (n + 1) pi / beta.  mpmath's
    exponent range is unbounded, so no wave overflows and no scaling enters."""
    with mpmath.workdps(40):
        b = mpmath.mpf(beta)
        h_l = mpmath.hankel1(mpmath.mpf(n * math.pi / beta), mpmath.mpf(rho))
        h_lp = mpmath.hankel1(mpmath.mpf((n + 1) * math.pi / beta), mpmath.mpf(rho))
        cross = 2 * mpmath.re(mpmath.expj(mpmath.pi ** 2 / (2 * b)) * mpmath.conj(h_l) * h_lp)
        dens = abs(h_l) ** 2 + abs(h_lp) ** 2
        coefficient = mpmath.mpf(8 * n * (n + 1)) / (2 * n + 1) ** 2
        return float(b / 2 - b / mpmath.pi ** 2 * coefficient * cross / dens)


def _legendre_pair_mp(m: int, x):
    """P_m(x) and P_(m-1)(x) by the three-term recurrence
    (j + 1) P_(j+1) = (2j + 1) x P_j - j P_(j-1), at mpmath's precision."""
    p_prev, p = mpmath.mpf(1), x
    for j in range(1, m):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    return p, p_prev


def legendre_rule_mp(m: int, indices, dps: int = 50) -> list[tuple]:
    """Nodes and weights of the m-point Gauss-Legendre rule at the given
    positions of the ascending order, as mpmath numbers at ``dps`` digits:
    Newton's method on the plain recurrence from Tricomi's guess, to 1e-40,
    and the weight 2/((1 - x^2) P'_m(x)^2) at the root."""
    out = []
    with mpmath.workdps(dps):
        for i in indices:
            k = m - i  # Tricomi's index counts down from the largest node
            x = (1 - mpmath.mpf(m - 1) / (8 * mpmath.mpf(m) ** 3)) \
                * mpmath.cos(mpmath.pi * (k - mpmath.mpf(1) / 4) / (m + mpmath.mpf(1) / 2))
            for _ in range(10):
                p, q = _legendre_pair_mp(m, x)
                dx = p * (1 - x * x) / (m * (q - x * p))
                x -= dx
                if abs(dx) < mpmath.mpf(10) ** -40:
                    break
            p, q = _legendre_pair_mp(m, x)
            dp = m * (q - x * p) / (1 - x * x)
            out.append((x, 2 / ((1 - x * x) * dp ** 2)))
    return out


def phase_shift_from_waves(order: float, x_max: float) -> float:
    """delta = 2 lim_{x->inf} (x - arg H1_order(x)), measured from the waves.

    The Wronskian J Y' - J' Y = 2/(pi t) gives the continuous phase
    arg H1(x) = -pi/2 + int_0^x f dt with f = 2/(pi t |H1(t)|^2).  The
    integral starts where yv becomes finite, found by bisection: below that
    t0, |Y| exceeds the double range, so the part before it is far below one
    ulp.  It is summed as x - pi/2 - t0 - int_t0^x (1 - f) dt, over geometric
    breakpoints that follow the (mu - 1)/(8 t^2) decay of 1 - f.  At large t
    scipy's J and Y carry about 1e-9 relative noise, which the quadrature
    accumulates, so the integral only picks the branch of atan2(Y, J) at
    x_max, whose own error is that 1e-9.  The limit is then corrected by the
    asymptotic phase terms (mu - 1)/(8x) and (mu - 1)(mu - 25)/(384 x^3) with
    mu = 4 order^2.
    """
    from scipy import special as sp

    lo, t0 = 0.0, order  # yv is infinite at lo and finite at t0
    for _ in range(60):
        mid = (lo + t0) / 2
        lo, t0 = (lo, mid) if math.isfinite(sp.yv(order, mid)) else (mid, t0)

    def one_minus_f(t):
        j, y = float(sp.jv(order, t)), float(sp.yv(order, t))
        return 1.0 - 2.0 / (math.pi * t * (j * j + y * y))

    breaks = [t0] + [b for b in (0.5 * order, 0.9 * order) if b > t0]
    b = 1.1 * order
    while b < x_max:
        breaks.append(b)
        b *= 2
    breaks.append(x_max)
    rest = math.fsum(integrate.quad(one_minus_f, a, b, limit=200, epsabs=1e-3,
                                    epsrel=1e-9)[0] for a, b in zip(breaks, breaks[1:]))
    phase = x_max - math.pi / 2 - t0 - rest
    branch = math.atan2(sp.yv(order, x_max), sp.jv(order, x_max))
    phase = branch + 2 * math.pi * round((phase - branch) / (2 * math.pi))
    mu = 4.0 * order * order
    return 2.0 * (x_max - phase + (mu - 1) / (8 * x_max)
                  + (mu - 1) * (mu - 25) / (384 * x_max ** 3))


def two_level_mean_position_quadrature(n: int, phase: float, x: float) -> float:
    """<y> for (psi_n + e^{-i phase} psi_{n+1})/sqrt(2) by adaptive quadrature."""
    a_n = n * math.pi / x
    a_m = (n + 1) * math.pi / x

    def density(y):
        psi = math.sqrt(1.0 / x) * (math.sin(a_n * y) +
                                    np.exp(-1j * phase) * math.sin(a_m * y))
        return abs(psi) ** 2

    num, _ = integrate.quad(lambda y: y * density(y), 0.0, x, limit=200,
                            epsabs=1e-13, epsrel=1e-13)
    return num


# -- classical curves ----------------------------------------------------------


def to_polar(x: float, y: float, params: BilliardParams) -> tuple[float, float]:
    """Map ball positions (x, y) to the wedge point (rho, theta).

    rho = sqrt(M x^2 + m y^2) and theta = atan2(sqrt(m) y, sqrt(M) x), so the
    admissible strip 0 <= y <= x becomes 0 <= theta <= beta.  A point outside
    the strip, as a rounded replay can give, is clamped onto it.  The
    degenerate origin maps to (0, 0) by convention.
    """
    x = max(x, 0.0)
    u = math.sqrt(params.M) * x
    w = math.sqrt(params.m) * min(max(y, 0.0), x)
    return math.hypot(u, w), math.atan2(w, u)


def _segment_states(trace: CollisionTrace) -> list[ClassicalState]:
    return [trace.initial] + [ev.state_after for ev in trace.events]


def replay_rho_min_and_time(trace: CollisionTrace) -> tuple[float, float]:
    """Minimum of rho over the replayed trajectory and the time it occurs.

    Projects the corner onto every straight segment (the first and last
    extend to infinite time) and keeps the closest point.
    """
    params = trace.params
    states = _segment_states(trace)
    best_r2, best_t = math.inf, 0.0
    for i, s in enumerate(states):
        lo = -math.inf if i == 0 else 0.0
        hi = math.inf if i == len(states) - 1 else states[i + 1].t - s.t
        quad = params.M * s.vx ** 2 + params.m * s.vy ** 2
        slope = 2.0 * (params.M * s.x * s.vx + params.m * s.y * s.vy)
        tau = -slope / (2.0 * quad) if quad > 0 else 0.0
        tau = min(max(tau, lo), hi)
        x = s.x + s.vx * tau
        y = s.y + s.vy * tau
        r2 = params.M * x * x + params.m * y * y
        if r2 < best_r2:
            best_r2, best_t = r2, s.t + tau
    return math.sqrt(best_r2), best_t


def _replay_positions(trace: CollisionTrace, times) -> list[tuple[float, float]]:
    """Ball positions at each time, extrapolating the first/last segments."""
    states = _segment_states(trace)
    starts = [s.t for s in states]
    out = []
    for t in times:
        s = states[max(bisect.bisect_right(starts, t) - 1, 0)]
        out.append((s.x + s.vx * (t - s.t), s.y + s.vy * (t - s.t)))
    return out


def _replay_times(trace: CollisionTrace, alphas) -> list[float]:
    """Physical times of the compactified times alpha: t* + rho_min tan(alpha) / speed."""
    rho_min, t_star = replay_rho_min_and_time(trace)
    speed = math.sqrt(2.0 * trace.initial.kinetic_energy(trace.params))
    return [t_star + rho_min * math.tan(a) / speed for a in alphas]


def replay_position_curve(trace: CollisionTrace, alphas) -> np.ndarray:
    """y/x at each alpha, read off the float event trace."""
    return np.array([y / x for x, y in _replay_positions(trace, _replay_times(trace, alphas))])


def replay_angle_curve(trace: CollisionTrace, etas) -> np.ndarray:
    """Incoming-branch theta/beta at each eta (alpha = -eta), read off the trace."""
    positions = _replay_positions(trace, _replay_times(trace, -np.asarray(etas)))
    beta = trace.params.wedge_angle
    return np.array([to_polar(x, y, trace.params)[1] / beta for x, y in positions])


def _folded_line_mp(params: BilliardParams):
    """R and the fold into [0, beta] at 40 digits, for the exact float masses."""
    r = mpmath.sqrt(mpmath.mpf(params.M) / mpmath.mpf(params.m))
    beta = mpmath.acot(r)

    def fold(phi):
        rem = phi - 2 * beta * mpmath.floor(phi / (2 * beta))
        return 2 * beta - rem if rem > beta else rem
    return r, beta, fold


def folded_line_position_mp(params: BilliardParams, alphas) -> np.ndarray:
    """y/x = R tan(fold(pi/2 + alpha)) evaluated at 40 digits."""
    with mpmath.workdps(40):
        r, _, fold = _folded_line_mp(params)
        return np.array([float(r * mpmath.tan(fold(mpmath.pi / 2 + mpmath.mpf(float(a)))))
                         for a in alphas])


def folded_line_angle_mp(params: BilliardParams, etas) -> np.ndarray:
    """theta/beta = fold(pi/2 - eta)/beta evaluated at 40 digits."""
    with mpmath.workdps(40):
        _, beta, fold = _folded_line_mp(params)
        return np.array([float(fold(mpmath.pi / 2 - mpmath.mpf(float(e))) / beta)
                         for e in etas])


# -- interval arithmetic -------------------------------------------------------


def machin_pi(bits: int) -> BigReal:
    """pi = 16 arctan(1/5) - 4 arctan(1/239) in interval arithmetic."""
    work = bits + 48
    a = BigReal.atan_fraction(1, 5, work)
    b = BigReal.atan_fraction(1, 239, work)
    return (a.scale_int(16) - b.scale_int(4)).round_to(bits)


def atan_fraction_plain(num: int, den: int, bits: int) -> BigReal:
    """``BigReal.atan_fraction`` with every power divided by den and den^2 as
    they are, not by their odd parts: the same reductions to num/den <= 1/2
    and the same floored series at bits + _GUARD_BITS bits."""
    if num == 0:
        return BigReal(0, 0, bits)
    work = bits + bigreal._GUARD_BITS
    if 2 * num > den:
        pi = BigReal.pi(work)
        if num > 2 * den:
            half_pi = BigReal(pi.lo, pi.hi, work + 1).round_to(work)
            return (half_pi - atan_fraction_plain(den, num, work)).round_to(bits)
        quarter_pi = BigReal(pi.lo, pi.hi, work + 2).round_to(work)
        rest = atan_fraction_plain(abs(num - den), num + den, work)
        return (quarter_pi + rest if num >= den else quarter_pi - rest).round_to(bits)
    power, total, k = (num << work) // den, 0, 0
    while power > 2 * k + 1:
        total += (-1) ** k * (power // (2 * k + 1))
        power = power * num * num // (den * den)
        k += 1
    return BigReal(max(total - 3 * k - 3, 0), total + 3 * k + 3, work).round_to(bits)


def divide_for_floor_two_divisions(a: BigReal, b: BigReal) -> BigReal:
    """``BigReal._divide_for_floor``'s enclosure from its two endpoint floors,
    lo // b.hi and divmod(hi, b.lo), each taken by the builtin."""
    bits = a.bits
    quotient, remainder = divmod(a.hi, b.lo)
    high = quotient + (((b.lo - remainder) << bits) < b.lo)
    return BigReal((a.lo // b.hi) << bits, ((high + 1) << bits) - 1, bits)


def divide_all_quotients(a: BigReal, b: BigReal) -> BigReal:
    """a / b as the least and the greatest of the floor and the ceiling
    quotients over all four endpoint pairs."""
    quotients = []
    for x in (a.lo, a.hi):
        for y in (b.lo, b.hi):
            scaled = x << a.bits
            quotients.append(scaled // y)
            quotients.append(-((-scaled) // y))
    return BigReal(min(quotients), max(quotients), a.bits)


def count_floor_mp(ratio: float, dps: int = 80) -> int:
    """floor(pi / arccot(sqrt(ratio))) for the exact double ``ratio``, at ``dps`` digits."""
    with mpmath.workdps(dps):
        return int(mpmath.floor(mpmath.pi / mpmath.acot(mpmath.sqrt(mpmath.mpf(ratio)))))


def closed_form_floor_mp(beta: float, dps: int = 400) -> int:
    """floor(pi / beta - 1e-9) for the exact doubles ``beta`` and 1e-9, at ``dps`` digits."""
    with mpmath.workdps(dps):
        return int(mpmath.floor(mpmath.pi / mpmath.mpf(beta) - mpmath.mpf(1e-9)))


def extremum_floor_mp(n: int, ratio: float, dps: int = 60) -> int:
    """floor(P(n, R)) = floor(pi sqrt((2n+1)^2 / ((2n+1)^2 + 1) * ratio)) for
    the exact double ``ratio`` = M/m, at ``dps`` digits."""
    square = (2 * n + 1) ** 2
    with mpmath.workdps(dps):
        return int(mpmath.floor(mpmath.pi * mpmath.sqrt(
            mpmath.mpf(square) / (square + 1) * mpmath.mpf(ratio))))


def near_integer_extremum_ratio(n: int, k: int) -> float:
    """The double nearest (k / (c pi))^2, c = (2n+1) / sqrt((2n+1)^2 + 1): the
    mass ratio at which P(n, R) = c pi R crosses the integer k."""
    square = (2 * n + 1) ** 2
    with mpmath.workdps(40):
        return float((k / mpmath.pi) ** 2 * (square + 1) / square)
