"""Curve containers, CSV/JSON emission, extremum scanning, and the
Gauss-Legendre rule that the mean-angle and Berry-connection quadratures share.

scipy is not imported with this module: ``scipy.special`` loads at the first
evaluation of the rule's outer nodes.  ``format_sig`` lives in
:mod:`pibilliards.core` and is re-exported here."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import DomainError, _special, format_sig


def _midpoints(samples: int, width: float) -> np.ndarray:
    """Centres of ``samples`` equal cells covering [0, width]."""
    if samples < 2:
        raise DomainError("need at least two samples")
    return (np.arange(samples) + 0.5) * (width / samples)


_LEAST_NODES = 320  # fewest Gauss-Legendre nodes of either quadrature
_OUTER_NODES = 10  # nodes at each end found on the recurrence, not the series
_SERIES_TERMS = 14  # terms of the interior series


def _legendre_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and weights of the m-point Gauss-Legendre rule on
    [-1, 1], for even m >= 2 * _OUTER_NODES (the node policy of
    :func:`_gauss_legendre` asks for even m >= 320 only, so there is no
    middle node at 0).  The positive half is computed and mirrored; with
    k = 1, 2, ... counting down from the largest node, x_k = cos(theta_k).

    Interior nodes (k > _OUTER_NODES) take two Newton steps in theta from
    Tricomi's guess theta_k = phi_k + (m - 1)/(8 m^3) cot(phi_k),
    phi_k = pi (k - 1/4)/(m + 1/2), on the interior (Stieltjes) series

        P_m(cos theta) = C_m sum_{j < J} h_j cos(alpha_j) / (2 sin theta)^(j + 1/2),
        alpha_j = (m + j + 1/2) theta - (j + 1/2) pi/2,
        h_0 = 1,  h_(j+1) = h_j (j + 1/2)^2 / ((j + 1)(m + j + 3/2)),

    and on its term-by-term theta-derivative.  With q = (1 - i cot theta)/2
    and e^(i alpha_j) = e^(i alpha_0) (-i e^(i theta))^j both are one
    complex polynomial in q, so each step costs O(J) array operations.
    alpha_0 = pi (k - 1/2) + (m + 1/2)(theta - phi_k) is never formed: the
    common sign (-1)^k cancels from the Newton step and the weight, and only
    the small offset from phi_k enters a sine, so no phase of size m loses
    digits.  For the same reason the node is sin(pi (m + 1 - 2k)/(2m + 1) -
    (theta - phi_k)).  The first interior node has 2 m sin theta ~ 2 pi
    (_OUTER_NODES + 3/4) ~ 67.5 for every m, where the last of the J = 14
    terms is 2.4e-16 of the first.  The weight is 2/(dP/dtheta)^2, so
    1 - x^2 is never formed; dP/dtheta is taken at the last iterate and moved
    to the node by one Taylor step of Legendre's equation,
    P'' = -cot(theta) P' - m (m + 1) P.  C_m is not computed: the interior
    weights are scaled so that all weights sum to 2.

    The _OUTER_NODES outermost nodes at each end, where the series would
    need more terms, take three Newton steps on P_m and P_(m-1) from scipy's
    integer-order recurrence, with P'_m = m (P_(m-1) - x P_m)/(1 - x^2) and
    the weight 2/((1 - x^2) P'_m^2).

    Against a 50-digit recurrence the nodes are within 1.6e-16; the interior
    weights are within a relative 1.2e-15 at m = 320 to 6034, and the outer
    ones, where 1 - x^2 is a difference of nearly equal numbers, within
    2.6e-12 at m = 320, 4.4e-11 at m = 2034 and 1.4e-10 at m = 6034
    (numpy's eigenvalue-based ``leggauss``: 2.3e-10 and 6.3e-8 at the first
    two).  The work is O(m) for the interior and O(_OUTER_NODES m), in
    scipy's compiled recurrence, at the ends."""
    eval_legendre = _special().eval_legendre
    k = np.arange(_OUTER_NODES, 0, -1)
    x = (1.0 - (m - 1) / (8.0 * m ** 3)) * np.cos(math.pi * (k - 0.25) / (m + 0.5))
    for _ in range(3):
        p = eval_legendre(m, x)
        dp = m * (eval_legendre(m - 1, x) - x * p) / (1.0 - x * x)
        x = x - p / dp
    p = eval_legendre(m, x)
    dp = m * (eval_legendre(m - 1, x) - x * p) / (1.0 - x * x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)

    # h_j for P; dP/dtheta also needs (j + 1/2) h_j, from the m + j + 1/2
    # in alpha_j and the power j + 1/2 of 2 sin(theta)
    coef, h = [], 1.0
    for j in range(_SERIES_TERMS):
        coef.append([[h], [(j + 0.5) * h]])
        h *= (j + 0.5) ** 2 / ((j + 1) * (m + j + 1.5))
    k = np.arange(m // 2, _OUTER_NODES, -1)
    phi = math.pi * (k - 0.25) / (m + 0.5)
    delta = (m - 1) / (8.0 * m ** 3) / np.tan(phi)  # theta - phi
    for _ in range(2):
        theta = phi + delta
        cot = 1.0 / np.tan(theta)
        q = 0.5 - 0.5j * cot
        z = 0.0
        for c in reversed(coef):
            z = z * q + c
        a, b = np.exp(1j * (m + 0.5) * delta) * z
        p = a.imag
        dp = m * a.real + b.real - cot * b.imag
        delta = delta - p / dp
    v = np.sin(theta) / (dp + cot * p) ** 2  # proportional to 2/(dP/dtheta)^2
    x = np.concatenate((np.sin(math.pi * (m + 1 - 2 * k) / (2 * m + 1) - delta), x))
    w = np.concatenate((v * ((1.0 - np.sum(w)) / np.sum(v)), w))
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
