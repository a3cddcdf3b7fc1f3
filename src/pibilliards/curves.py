"""Curve containers, CSV/JSON emission and extremum scanning."""

from __future__ import annotations

import decimal
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import DomainError


def _midpoints(samples: int, width: float) -> np.ndarray:
    """Centres of ``samples`` equal cells covering [0, width]."""
    if samples < 2:
        raise DomainError("need at least two samples")
    return (np.arange(samples) + 0.5) * (width / samples)


def _gauss_legendre(nodes: int, width: float) -> tuple[np.ndarray, np.ndarray]:
    """Points and weights of the ``nodes``-point Gauss-Legendre rule on [0, width]."""
    t, w = np.polynomial.legendre.leggauss(nodes)
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
        tail = [str(v) for v in self.labels.values()]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(self.header()) + "\n")
            for x, y in zip(self.xs, self.ys):
                fh.write(",".join([format_sig(x, sig), format_sig(y, sig), *tail]) + "\n")

    def to_json_dict(self, sig: int = 12) -> dict:
        return {
            "columns": self.header(),
            "labels": {k: str(v) for k, v in self.labels.items()},
            "rows": [[float(format_sig(x, sig)), float(format_sig(y, sig))]
                     for x, y in zip(self.xs, self.ys)],
        }

    def to_json(self, path, sig: int = 12) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(sig), fh, indent=2, sort_keys=True)
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
