"""The four seeded workloads: their ops, reference answers and checks.

A workload hands out its ops in rounds.  A round is stratified: the size
range is cut into equal slices on a log scale and each slice gets one seeded
draw, so every round has the same mix of small and large ops.  Rounds come in
antithetic pairs (see ``Draws``), which cancels most of the seed's effect on
a pair's total cost.  References are computed when a round is made, before
any of its ops is timed, and never with the program under test.

A check returns None for a correct answer and a one-line reason otherwise.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path

import mpmath
import numpy as np
from scipy import special

import ops

DIGITS_MAX = 4000


@dataclass
class Op:
    kind: str
    args: tuple
    expect: object = None   # reference answer

    def label(self) -> str:
        return f"{self.kind}{self.args!r}"


class Draws:
    """Seeded uniform draws, handed out in antithetic pairs of rounds.

    The second round of a pair replays 1 - u for every u the first drew, so a
    draw near the top of its slice is matched by one near the bottom and the
    pair's op mix stays log-uniform while its cost hardly moves with the seed.
    Shuffles use ``rng`` directly.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._saved: list[float] = []
        self._replay = None

    def start_round(self, index: int) -> None:
        if index % 2 == 0:
            self._saved, self._replay = [], None
        else:
            self._replay = iter(self._saved)

    def random(self) -> float:
        if self._replay is not None:
            return 1.0 - next(self._replay)
        u = self.rng.random()
        self._saved.append(u)
        return u


def log_strata(draws: Draws, lo: float, hi: float, strata: int) -> list[float]:
    """One log-uniform draw from each of ``strata`` equal slices of [10**lo, 10**hi]."""
    width = (hi - lo) / strata
    return [10 ** (lo + width * (i + draws.random())) for i in range(strata)]


def channel_cycle(draws: Draws, length: int) -> list[int]:
    """Channel indices 1..10, each used equally often, in seeded order."""
    out: list[int] = []
    while len(out) < length:
        block = list(range(1, 11))
        draws.rng.shuffle(block)
        out.extend(block)
    return out[:length]


# -- references ---------------------------------------------------------------


def pi_digit_string(n: int) -> str:
    """The decimal digits of floor(pi * 10**n), by Machin's formula in integers.

    Independent of both of the program's routes (interval ``BigReal`` and
    mpmath).  The truncation error is below 1e5 units of the last of 20 guard
    digits, so the first n + 1 digits are exact unless the guard digits start
    with ten 0s or 9s, which is checked.
    """
    guard = 20
    scale = 10 ** (n + guard)

    def arctan_inverse(x: int) -> int:
        term = scale // x
        total, x2, k, sign = term, x * x, 1, 1
        while term:
            term //= x2
            k += 2
            sign = -sign
            total += sign * (term // k)
        return total

    text = str(16 * arctan_inverse(5) - 4 * arctan_inverse(239))
    if text[n + 1:n + 11] in ("0" * 10, "9" * 10):
        raise RuntimeError("pi reference digits are not resolved by the guard digits")
    return text[:n + 1]


def collision_count(r: float) -> int:
    """floor(pi / arctan(1/sqrt(r))) for the float r, stable under doubled precision."""
    values = set()
    for dps in (40, 80):
        with mpmath.workdps(dps):
            values.add(int(mpmath.floor(mpmath.pi / mpmath.atan(1 / mpmath.sqrt(mpmath.mpf(r))))))
    if len(values) != 1:
        raise RuntimeError(f"reference collision count unresolved at r={r!r}")
    return values.pop()


def wedge_angle(r: float) -> float:
    return math.atan2(1.0, math.sqrt(r))


def fold(phi: np.ndarray, beta: float) -> np.ndarray:
    """Unfolded angle mapped back into the wedge [0, beta] by reflection."""
    m = np.mod(phi, 2.0 * beta)
    return np.where(m > beta, 2.0 * beta - m, m)


def mean_angle(rho: np.ndarray, n: int, beta: float, outgoing: bool = False) -> np.ndarray:
    """Two-channel mean sector angle from the Hankel pair (conjugated for the
    outgoing wave), evaluated with scipy."""
    l, lp = n * math.pi / beta, (n + 1) * math.pi / beta
    with np.errstate(over="ignore", invalid="ignore"):  # Y overflows on the probe's inputs too
        h = special.jv(l, rho) + 1j * special.yv(l, rho)
        hp = special.jv(lp, rho) + 1j * special.yv(lp, rho)
        if outgoing:
            h, hp = np.conj(h), np.conj(hp)
        coefficient = 8.0 * n * (n + 1) / (2 * n + 1) ** 2
        cross = 2.0 * np.real(np.exp(1j * math.pi ** 2 / (2.0 * beta)) * np.conj(h) * hp)
        return beta / 2.0 - (beta / math.pi ** 2) * coefficient * cross / (np.abs(h) ** 2 + np.abs(hp) ** 2)


def alpha_grid() -> np.ndarray:
    return (np.arange(ops.SAMPLES) + 0.5) * (math.pi / ops.SAMPLES) - math.pi / 2


def eta_grid() -> np.ndarray:
    return (np.arange(ops.SAMPLES) + 0.5) * (math.pi / 2 / ops.SAMPLES)


# -- checks on emitted files and printed output -----------------------------------


def cli_failure(result) -> str | None:
    code, _, err = result
    if code != 0:
        lines = err.strip().splitlines()
        return f"exit status {code}: {lines[-1] if lines else ''}"
    return None


def printed_integer(result, expect: int, what: str) -> str | None:
    failure = cli_failure(result)
    if failure:
        return f"{what}: {failure}"
    printed = result[1].strip()
    if printed != str(expect):
        return f"{what} printed {printed}, expected {expect}"
    return None


def check_curve_csv(path: Path, header: list[str], grid: np.ndarray, expect: np.ndarray,
                    tol: float) -> str | None:
    """The CSV has the header, one row per grid point, and ordinates within
    ``tol`` of ``expect``."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        return f"{path.name}: header {rows[0] if rows else None}, expected {header}"
    if len(rows) - 1 != grid.size:
        return f"{path.name}: {len(rows) - 1} rows, expected {grid.size}"
    xs = np.array([float(row[0]) for row in rows[1:]])
    ys = np.array([float(row[1]) for row in rows[1:]])
    bad = int(np.count_nonzero(~np.isfinite(ys)))
    if bad:
        return f"{path.name}: {bad} non-finite ordinates"
    if np.max(np.abs(xs - grid)) > 1e-11:
        return f"{path.name}: abscissae off the sample grid"
    worst = float(np.max(np.abs(ys - expect)))
    if not worst <= tol:
        return f"{path.name}: ordinate off the reference by {worst:.3g} (tolerance {tol:g})"
    return None


def classical_position(r: float) -> np.ndarray:
    """y/x on the alpha grid from the unfolded straight-line trajectory:
    theta = fold(pi/2 + alpha) and y/x = sqrt(r) tan(theta)."""
    return math.sqrt(r) * np.tan(fold(math.pi / 2 + alpha_grid(), wedge_angle(r)))


def classical_angle(r: float) -> np.ndarray:
    """theta/beta on the eta grid of the incoming branch: fold(pi/2 - eta)/beta."""
    beta = wedge_angle(r)
    return fold(math.pi / 2 - eta_grid(), beta) / beta


def semiclassical_position(r: float, n: int) -> np.ndarray:
    """0.5 - A cos(P (pi/2 + alpha)), the adiabatic two-level mean position."""
    prefactor = math.sqrt((4 * n * n + 4 * n + 1) / (4 * n * n + 4 * n + 2)) * math.pi * math.sqrt(r)
    amplitude = 8.0 * n * (n + 1) / (math.pi ** 2 * (2 * n + 1) ** 2)
    return 0.5 - amplitude * np.cos(prefactor * (math.pi / 2 + alpha_grid()))


def quantum_angle(beta: float, n: int) -> np.ndarray:
    eta = eta_grid()
    return mean_angle(n * math.pi / beta / np.cos(eta), n, beta) / beta


# Tolerances: the classical curves replay a float trace whose error grows with
# the collision count (1.4e-8 at M/m = 1e6); the other curves are closed forms
# printed with 12 significant digits.
CLASSICAL_TOL = 1e-6
SEMICLASSICAL_TOL = 1e-8
QUANTUM_TOL = 1e-9
OUTGOING_TOL = 1e-10
BERRY_TOL = 1e-10

POSITION_HEADER = ["alpha", "y_over_x", "model", "n"]
ANGLE_HEADER = ["eta", "theta_over_beta", "model", "l"]


# -- workloads ----------------------------------------------------------------------


class Workload:
    name: str
    why: str
    tail_pct: float       # latency percentile reported as op_tail_ms
    strata: int

    @property
    def min_ops(self) -> int:
        """Ops a run makes at least, so that ten samples lie beyond the tail percentile."""
        return math.ceil(10 / (1 - self.tail_pct / 100) - 1e-9)

    def round(self, draws: Draws, strata: int | None = None) -> list[Op]:
        raise NotImplementedError

    def probe(self, draws: Draws) -> list[Op]:
        """Ops on inputs where the program is known to be wrong; see README."""
        return []

    def run(self, op: Op, scratch: Path):
        raise NotImplementedError

    def count_is_wrong(self, op: Op, result) -> bool:
        """The ``count`` subcommand exited 0 and printed a wrong integer."""
        if op.kind not in ("collide", "count"):
            return False
        code, out, _ = result[1] if op.kind == "collide" else result
        return code == 0 and out.strip() != str(op.expect)

    def check(self, op: Op, result, scratch: Path) -> str | None:
        raise NotImplementedError


class Digits(Workload):
    name = "digits"
    why = "digits --N k, k log-uniform in [100, 4000]: BigReal.pi does nearly all the work; bypasses simulate, scipy and curves"
    tail_pct = 95
    strata = 40

    def __init__(self):
        self.pi = pi_digit_string(DIGITS_MAX)

    def round(self, draws, strata=None):
        ks = log_strata(draws, 2.0, math.log10(DIGITS_MAX), strata or self.strata)
        out = [Op("digits", (k,), self.pi[:k + 1]) for k in map(round, ks)]
        draws.rng.shuffle(out)
        return out

    def run(self, op, scratch):
        return ops.digits(*op.args)

    def check(self, op, result, scratch):
        failure = cli_failure(result)
        if failure:
            return failure
        printed = result[1].strip()
        if printed != op.expect:
            return f"printed {len(printed)} digits that are not the first {len(op.expect)} of pi"
        return None


def count_probe(draws: Draws) -> list[Op]:
    """``count --mass-ratio r`` for r log-uniform in (1e8, 1e16]: the relative
    1e-9 tie snap (ROADMAP item 2) misfires on about 1 in 20 from 1e10 up and
    about 1 in 20000 below."""
    return [Op("count", (r,), collision_count(r)) for r in log_strata(draws, 8.0, 16.0, 100)]


class Collisions(Workload):
    name = "collisions"
    why = "simulate then count at M/m log-uniform in [1, 1e8]: short CLI-bound ops and an O(K^2) event-loop tail of up to 31000 collisions"
    tail_pct = 90
    strata = 20

    def round(self, draws, strata=None):
        out = [Op("collide", (r,), collision_count(r)) for r in log_strata(draws, 0.0, 8.0, strata or self.strata)]
        draws.rng.shuffle(out)
        return out

    def probe(self, draws):
        return count_probe(draws)

    def run(self, op, scratch):
        return (ops.collide if op.kind == "collide" else ops.count)(*op.args)

    def check(self, op, result, scratch):
        if op.kind == "collide":
            return (printed_integer(result[0], op.expect, "simulate")
                    or printed_integer(result[1], op.expect, "count"))
        return printed_integer(result, op.expect, "count")


class Curves(Workload):
    name = "curves"
    why = "classical curves at M/m in [1e2, 1e6] plus semiclassical, quantum and figures: trace replay, CSV emission and scipy Bessel calls"
    tail_pct = 95
    strata = 16
    probe_size = 10

    def round(self, draws, strata=None):
        strata = strata or self.strata
        channels = channel_cycle(draws, strata)
        out = []
        for r, n, rq in zip(log_strata(draws, 2.0, 6.0, strata), channels,
                            log_strata(draws, 2.0, 4.0, strata)):
            count = collision_count(r)
            out += [Op("classical", (r,), count), Op("classical_eta", (r,), count),
                    Op("semiclassical", (r, n)), Op("quantum", (rq, n))]
        out.append(Op("figures", ()))
        draws.rng.shuffle(out)
        return out

    def probe(self, draws):
        # Quantum curves go non-finite once the Bessel orders pass ~1000.  The
        # count probe runs here too, because collisions is not a gated workload.
        channels = channel_cycle(draws, self.probe_size)
        quantum = [Op("quantum", (r, n)) for r, n in zip(log_strata(draws, 4.0, 6.0, self.probe_size), channels)]
        return quantum + count_probe(draws)

    def run(self, op, scratch):
        path = scratch / f"{op.kind}.csv"
        if op.kind == "classical":
            return ops.classical_curve(op.args[0], path)
        if op.kind == "classical_eta":
            return ops.classical_eta_curve(op.args[0], path)
        if op.kind == "semiclassical":
            return ops.semiclassical_curve(*op.args, path)
        if op.kind == "quantum":
            return ops.quantum_curve(*op.args, path)
        if op.kind == "count":
            return ops.count(*op.args)
        return ops.figures(scratch / "figures")

    def check(self, op, result, scratch):
        path = scratch / f"{op.kind}.csv"
        if op.kind in ("classical", "classical_eta"):
            r = op.args[0]
            if result["collision_count"] != op.expect:
                return f"collision_count {result['collision_count']}, expected {op.expect}"
            if op.kind == "classical":
                return check_curve_csv(path, POSITION_HEADER, alpha_grid(), classical_position(r), CLASSICAL_TOL)
            return check_curve_csv(path, ANGLE_HEADER, eta_grid(), classical_angle(r), CLASSICAL_TOL)
        if op.kind == "count":
            return printed_integer(result, op.expect, "count")
        failure = cli_failure(result)
        if failure:
            return failure
        if op.kind == "semiclassical":
            r, n = op.args
            return check_curve_csv(path, POSITION_HEADER, alpha_grid(), semiclassical_position(r, n),
                                   SEMICLASSICAL_TOL)
        if op.kind == "quantum":
            r, n = op.args
            return check_curve_csv(path, ANGLE_HEADER, eta_grid(), quantum_angle(wedge_angle(r), n), QUANTUM_TOL)
        return self.check_figures(scratch / "figures")

    @staticmethod
    def check_figures(outdir: Path) -> str | None:
        beta = math.pi / 10
        r = (1.0 / math.tan(beta)) ** 2
        expected = {
            "fig3_classical.csv": (POSITION_HEADER, alpha_grid(), classical_position(r), CLASSICAL_TOL),
            "fig3_n1.csv": (POSITION_HEADER, alpha_grid(), semiclassical_position(r, 1), SEMICLASSICAL_TOL),
            "fig3_n10.csv": (POSITION_HEADER, alpha_grid(), semiclassical_position(r, 10), SEMICLASSICAL_TOL),
            "fig5_classical.csv": (ANGLE_HEADER, eta_grid(), classical_angle(r), CLASSICAL_TOL),
            "fig5_l10.csv": (ANGLE_HEADER, eta_grid(), quantum_angle(beta, 1), QUANTUM_TOL),
            "fig5_l100.csv": (ANGLE_HEADER, eta_grid(), quantum_angle(beta, 10), QUANTUM_TOL),
        }
        if not (outdir / "figures_manifest.json").is_file():
            return "figures_manifest.json missing"
        for name, spec in expected.items():
            failure = check_curve_csv(outdir / name, *spec)
            if failure:
                return failure
        return None


class Scattering(Workload):
    name = "scattering"
    why = "outgoing-wave theta_mean_quadrature points and berry_connection calls: rebuilding Gauss-Legendre nodes is nearly all the cost"
    tail_pct = 95
    strata = 3      # eta slices per channel

    def round(self, draws, strata=None):
        strata = strata or self.strata
        out = []
        for n in range(1, 11):
            out += [Op("outgoing", (n, (j + draws.random()) * (math.pi / 2) / strata)) for j in range(strata)]
            out.append(Op("berry", (n, log_strata(draws, math.log10(0.5), math.log10(5.0), 1)[0])))
        for op in out:
            if op.kind == "outgoing":
                n, eta = op.args
                rho = n * math.pi / ops.SCATTER_BETA / math.cos(eta)
                op.expect = float(mean_angle(np.array(rho), n, ops.SCATTER_BETA, outgoing=True))
        draws.rng.shuffle(out)
        return out

    def run(self, op, scratch):
        return (ops.outgoing_point if op.kind == "outgoing" else ops.berry)(*op.args)

    def check(self, op, result, scratch):
        if op.kind == "outgoing":
            if not abs(result - op.expect) <= OUTGOING_TOL:
                return f"mean angle {result!r}, closed form {op.expect!r}"
            return None
        if not abs(result) < BERRY_TOL:
            return f"Berry connection {result!r}, expected 0"
        return None


WORKLOADS = {w.name: w for w in (Digits, Collisions, Curves, Scattering)}
