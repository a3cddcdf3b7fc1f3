"""Curve containers, CSV/JSON emission and extremum scanning."""

from __future__ import annotations

import decimal
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import eval_legendre

from .core import DomainError


def _midpoints(samples: int, width: float) -> np.ndarray:
    """Centres of ``samples`` equal cells covering [0, width]."""
    if samples < 2:
        raise DomainError("need at least two samples")
    return (np.arange(samples) + 0.5) * (width / samples)


_LEAST_NODES = 320  # fewest Gauss-Legendre nodes of either quadrature


def _legendre_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and weights of the m-point Gauss-Legendre rule on
    [-1, 1], for even m (the node policy of :func:`_gauss_legendre` never
    asks for an odd one, so there is no middle node at 0).

    Each positive node is the root of P_m found by three Newton steps from
    Tricomi's guess (1 - (m - 1)/(8 m^3)) cos(pi (k - 1/4)/(m + 1/2)), with
    P_m and P_(m-1) from scipy's integer-order recurrence and
    P'_m = m (P_(m-1) - x P_m)/(1 - x^2); the weight is
    2/((1 - x^2) P'_m^2) at the last iterate, and the negative half is the
    mirror image.  Against a 50-digit recurrence the nodes are within
    1e-16 and the weights within a relative 2.6e-12 at m = 320 and 4.4e-11
    at m = 2034 (numpy's eigenvalue-based ``leggauss``: 2.3e-10 and 6.3e-8).
    The work is O(m^2), in compiled loops."""
    k = np.arange(m // 2, 0, -1)
    x = (1.0 - (m - 1) / (8.0 * m ** 3)) * np.cos(math.pi * (k - 0.25) / (m + 0.5))
    for _ in range(3):
        p = eval_legendre(m, x)
        dp = m * (eval_legendre(m - 1, x) - x * p) / (1.0 - x * x)
        x = x - p / dp
    p = eval_legendre(m, x)
    dp = m * (eval_legendre(m - 1, x) - x * p) / (1.0 - x * x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))


def _gauss_legendre(width: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Points and weights of the Gauss-Legendre rule on [0, width] of both
    quadratures (mean angle and Berry connection), for sines with up to n + 1
    half-waves across it: 320 points, or 2(n + 1) + 32 from n = 144 on (even
    either way).  The smallest rule that resolves them (the mean angle to
    1e-12, the Berry connection to 1e-10) grows as about 1.6-1.9 n for
    n = 100 to 1000."""
    t, w = _legendre_rule(max(_LEAST_NODES, 2 * (int(n) + 1) + 32))
    return width * (t + 1.0) / 2.0, w * width / 2.0


def _alpha_grid(samples: int) -> np.ndarray:
    """Midpoint grid over the compactified time (-pi/2, pi/2)."""
    return _midpoints(samples, math.pi) - math.pi / 2


def _eta_grid(samples: int) -> np.ndarray:
    """Midpoint grid over the compactified radius (0, pi/2)."""
    return _midpoints(samples, math.pi / 2)


def format_sig(value, sig: int = 12) -> str:
    """Format a number with ``sig`` significant digits."""
    return f"{value:.{sig}g}"


def _format_int(value: int) -> str:
    """All decimal digits of ``value``; unlike str(), not bounded by
    sys.get_int_max_str_digits() (4300 digits by default)."""
    return str(decimal.Decimal(value))


@dataclass
class CurveSeries:
    """Ordered (abscissa, ordinate) samples plus row labels and provenance.

    ``labels`` become constant trailing CSV columns (model tag, quantum
    numbers); ``metadata`` is free-form provenance that only reaches the JSON
    manifest, never the CSV.
    """

    abscissa: str
    ordinate: str
    xs: np.ndarray
    ys: np.ndarray
    labels: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.ys = np.asarray(self.ys, dtype=float)
        if self.xs.shape != self.ys.shape or self.xs.ndim != 1:
            raise ValueError("xs and ys must be 1-d arrays of equal length")

    def header(self) -> list[str]:
        return [self.abscissa, self.ordinate, *self.labels.keys()]

    def to_csv(self, path, sig: int = 12) -> None:
        """Write the header, then one row per sample: x and y as format_sig
        at ``sig`` digits, then the label values.  All rows are formatted by
        one ``%`` over the flattened values; ``%.{sig}g`` gives the same text
        as format_sig."""
        tail = "".join("," + str(v) for v in self.labels.values()).replace("%", "%%")
        row = f"%.{sig}g,%.{sig}g{tail}\n"
        values = np.column_stack((self.xs, self.ys)).ravel().tolist()
        with open(path, "w", newline="") as fh:
            fh.write(",".join(self.header()) + "\n" + (row * len(self.xs)) % tuple(values))

    def to_json(self, path, sig: int = 12) -> None:
        payload = {
            "columns": self.header(),
            "labels": {k: str(v) for k, v in self.labels.items()},
            "rows": [[float(format_sig(x, sig)), float(format_sig(y, sig))]
                     for x, y in zip(self.xs, self.ys)],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def extremum_indices(values, prominence: float = 0.0) -> list[int]:
    """Indices of interior local extrema of a sampled curve.

    With ``prominence`` > 0, oscillations whose swing stays below that
    threshold are merged away pairwise (smallest swing first), so
    sub-threshold numerical wiggles (for example in a stationary plateau) are
    not counted; removing a turning-point pair keeps maxima and minima
    alternating.
    """
    y = np.asarray(values, dtype=float)
    if y.size < 3:
        return []
    turn = [0]
    for i in range(1, y.size - 1):
        if (y[i] - y[turn[-1]]) != 0 and (y[i + 1] - y[i]) * (y[i] - y[turn[-1]]) < 0:
            turn.append(i)
    turn.append(y.size - 1)
    while prominence > 0 and len(turn) > 2:
        swings = [abs(y[turn[j + 1]] - y[turn[j]]) for j in range(len(turn) - 1)]
        j = int(np.argmin(swings))
        if swings[j] >= prominence:
            break
        if j == 0:
            del turn[1]
        elif j == len(turn) - 2:
            del turn[-2]
        else:
            del turn[j + 1]
            del turn[j]
    return turn[1:-1]


def count_extrema(values, prominence: float = 0.0) -> int:
    return len(extremum_indices(values, prominence))


def first_extremum_abscissa(xs, ys, prominence: float = 0.0):
    """Abscissa of the first interior extremum, or None if the curve is monotone."""
    idx = extremum_indices(ys, prominence)
    if not idx:
        return None
    return float(np.asarray(xs, dtype=float)[idx[0]])
