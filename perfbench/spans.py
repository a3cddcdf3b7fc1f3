"""Spans around the program's public functions, recorded from outside it.

While a ``Tracer`` is installed, each traced function is replaced by a
wrapper at every place it is looked up: on its defining module, on every
pibilliards module that imported the name (``cli.simulate`` as well as
``classical.simulate``), and on the class for methods (``BigReal.pi``).  A
span is [name, start_ns, end_ns, parent index, op id, size]; spans are kept
in memory and written out when the run ends.  Nothing inside the program is
changed on disk.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import os
import sys
import time

import numpy as np

NAME, START, END, PARENT, OP, SIZE = range(6)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _curve_size(args, kwargs, curve):
    return (len(curve.xs), curve.metadata["collision_count"])


def _theta_mean_size(args, kwargs, out):
    values = np.asarray(out)
    return (values.size, int(np.count_nonzero(~np.isfinite(values))))


def _csv_size(args, kwargs, _):
    return (len(args[0].xs), os.path.getsize(_arg(args, kwargs, 1, "path")))


# (module, attribute, span name, size of the work done by one call)
TARGETS = (
    ("pibilliards.bigreal", "BigReal.pi", "bigreal.pi", lambda a, k, r: _arg(a, k, 1, "bits")),
    ("pibilliards.bigreal", "BigReal.atan_fraction", "bigreal.atan_fraction", None),
    ("pibilliards.bigreal", "BigReal.divide", "bigreal.divide", None),
    ("pibilliards.classical", "pi_digits_detail", "classical.pi_digits_detail", None),
    ("pibilliards.classical", "simulate", "classical.simulate", lambda a, k, r: r.count),
    ("pibilliards.classical", "count_closed_form", "classical.count_closed_form", None),
    ("pibilliards.classical", "classical_curve", "classical.curve", _curve_size),
    ("pibilliards.classical", "classical_eta_curve", "classical.curve", _curve_size),
    ("pibilliards.semiclassical", "sample_curve", "semiclassical.sample_curve", None),
    ("pibilliards.semiclassical", "berry_connection", "semiclassical.berry_connection", None),
    ("pibilliards.quantum", "theta_mean", "quantum.theta_mean", _theta_mean_size),
    ("pibilliards.quantum", "theta_mean_quadrature", "quantum.theta_mean_quadrature", None),
    ("pibilliards.curves", "CurveSeries.to_csv", "curves.to_csv", _csv_size),
    ("pibilliards.cli", "main", "cli.main", None),
)

# Per-layer metrics, in report order: (name, unit).
LAYER_METRICS = (
    ("bigreal.pi.calls", "count"),
    ("bigreal.pi.s", "s"),
    ("bigreal.pi.bits", "bit"),
    ("bigreal.pi.cost_exponent", "1"),
    ("bigreal.atan_beta.s", "s"),
    ("bigreal.divide.s", "s"),
    ("bigreal.certify_ratio", "1"),
    ("classical.oracle.self_s", "s"),
    ("classical.simulate.calls", "count"),
    ("classical.simulate.events", "count"),
    ("classical.simulate.s", "s"),
    ("classical.simulate.us_per_event", "us"),
    ("classical.simulate.cost_exponent", "1"),
    ("classical.count_closed_form.calls", "count"),
    ("classical.count_closed_form.s", "s"),
    ("classical.count.wrong", "count"),
    ("classical.curve.self_s", "s"),
    ("classical.curve.us_per_sample", "us"),
    ("classical.curve.cost_exponent", "1"),
    ("semiclassical.sample_curve.s", "s"),
    ("semiclassical.berry_connection.calls", "count"),
    ("semiclassical.berry_connection.ms_per_call", "ms"),
    ("quantum.theta_mean.points", "count"),
    ("quantum.theta_mean.us_per_point", "us"),
    ("quantum.nonfinite_points", "count"),
    ("quantum.theta_mean_quadrature.calls", "count"),
    ("quantum.theta_mean_quadrature.ms_per_call", "ms"),
    ("curves.to_csv.rows", "count"),
    ("curves.to_csv.us_per_row", "us"),
    ("curves.bytes_written", "B"),
    ("cli.calls", "count"),
    ("cli.self_ms_per_call", "ms"),
    ("trace.overhead_frac", "1"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_id: int | None = None
        self._stack: list[int] = []

    def _wrap(self, name, fn, size):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else None, self.op_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()
            if size is not None:
                span[SIZE] = size(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str, op_id: int, size=None):
        """A root span recorded by the benchmark itself, around one op."""
        self.op_id = op_id
        span = [name, 0, 0, None, op_id, size]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter_ns()
        try:
            yield
        finally:
            span[END] = time.perf_counter_ns()
            self._stack.pop()
            self.op_id = None

    @contextlib.contextmanager
    def installed(self):
        """Replace every traced function by its wrapper; restore on exit."""
        undo = []
        package = [m for n, m in list(sys.modules.items())
                   if n == "pibilliards" or n.startswith("pibilliards.")]
        try:
            for module_name, attr, name, size in TARGETS:
                module = importlib.import_module(module_name)
                if "." in attr:
                    owner, member = attr.split(".")
                    cls = getattr(module, owner)
                    raw = cls.__dict__[member]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__, size))
                    else:
                        new = self._wrap(name, raw, size)
                    setattr(cls, member, new)
                    undo.append((cls, member, raw))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original, size)
                for mod in package:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, original))
            yield self
        finally:
            for owner, key, value in reversed(undo):
                setattr(owner, key, value)


def cost_exponent(points) -> float:
    """Least-squares slope of log(time) against log(size); 0 without two sizes."""
    pts = [(math.log(x), math.log(t)) for x, t in points if x > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    xs, ts = np.array(pts).T
    return float(np.polyfit(xs, ts, 1)[0])


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_report(spans, counted_ops: set[int], digits_ops: int, count_wrong: int,
                 overhead_frac: float) -> tuple[dict, dict]:
    """Per-layer metrics and scaling series from the spans of ``counted_ops``.

    ``quantum.nonfinite_points`` also counts spans outside ``counted_ops``
    (the known-defect probe), as ``count_wrong`` does for the caller.
    """
    child = [0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child[span[PARENT]] += span[END] - span[START]

    def pick(name):
        return [(i, s) for i, s in enumerate(spans) if s[NAME] == name and s[OP] in counted_ops]

    def total(items):
        return sum(s[END] - s[START] for _, s in items) / 1e9

    def self_time(items):
        return sum(s[END] - s[START] - child[i] for i, s in items) / 1e9

    def dur(s):
        return (s[END] - s[START]) / 1e9

    pi = pick("bigreal.pi")
    atan_beta = [(i, s) for i, s in pick("bigreal.atan_fraction")
                 if s[PARENT] is None or spans[s[PARENT]][NAME] != "bigreal.pi"]
    sim = pick("classical.simulate")
    count_cf = pick("classical.count_closed_form")
    curve = pick("classical.curve")
    berry = pick("semiclassical.berry_connection")
    theta = pick("quantum.theta_mean")
    quad = pick("quantum.theta_mean_quadrature")
    csv = pick("curves.to_csv")
    cli = pick("cli.main")
    events = sum(s[SIZE] for _, s in sim)
    samples = sum(s[SIZE][0] for _, s in curve)
    points = sum(s[SIZE][0] for _, s in theta)
    rows = sum(s[SIZE][0] for _, s in csv)
    nonfinite = sum(s[SIZE][1] for s in spans if s[NAME] == "quantum.theta_mean" and s[SIZE])

    scaling = {
        "digits_time_vs_N": sorted((s[SIZE], dur(s)) for _, s in pick("op.digits")),
        "simulate_time_vs_events": sorted((s[SIZE], dur(s)) for _, s in sim),
        "curve_time_vs_collisions_x_samples": sorted((s[SIZE][0] * s[SIZE][1], dur(s)) for _, s in curve),
    }
    metrics = {
        "bigreal.pi.calls": len(pi),
        "bigreal.pi.s": total(pi),
        "bigreal.pi.bits": _ratio(sum(s[SIZE] for _, s in pi), len(pi)),
        "bigreal.pi.cost_exponent": cost_exponent((s[SIZE], dur(s)) for _, s in pi),
        "bigreal.atan_beta.s": total(atan_beta),
        "bigreal.divide.s": total(pick("bigreal.divide")),
        "bigreal.certify_ratio": _ratio(digits_ops, len(pi)),
        "classical.oracle.self_s": self_time(pick("classical.pi_digits_detail")),
        "classical.simulate.calls": len(sim),
        "classical.simulate.events": events,
        "classical.simulate.s": total(sim),
        "classical.simulate.us_per_event": _ratio(total(sim), events, 1e6),
        "classical.simulate.cost_exponent": cost_exponent(scaling["simulate_time_vs_events"]),
        "classical.count_closed_form.calls": len(count_cf),
        "classical.count_closed_form.s": total(count_cf),
        "classical.count.wrong": count_wrong,
        "classical.curve.self_s": self_time(curve),
        "classical.curve.us_per_sample": _ratio(self_time(curve), samples, 1e6),
        "classical.curve.cost_exponent": cost_exponent(scaling["curve_time_vs_collisions_x_samples"]),
        "semiclassical.sample_curve.s": total(pick("semiclassical.sample_curve")),
        "semiclassical.berry_connection.calls": len(berry),
        "semiclassical.berry_connection.ms_per_call": _ratio(total(berry), len(berry), 1e3),
        "quantum.theta_mean.points": points,
        "quantum.theta_mean.us_per_point": _ratio(total(theta), points, 1e6),
        "quantum.nonfinite_points": nonfinite,
        "quantum.theta_mean_quadrature.calls": len(quad),
        "quantum.theta_mean_quadrature.ms_per_call": _ratio(total(quad), len(quad), 1e3),
        "curves.to_csv.rows": rows,
        "curves.to_csv.us_per_row": _ratio(total(csv), rows, 1e6),
        "curves.bytes_written": sum(s[SIZE][1] for _, s in csv),
        "cli.calls": len(cli),
        "cli.self_ms_per_call": _ratio(self_time(cli), len(cli), 1e3),
        "trace.overhead_frac": overhead_frac,
    }
    exponents = {
        "digits_time_vs_N": cost_exponent(scaling["digits_time_vs_N"]),
        "simulate_time_vs_events": metrics["classical.simulate.cost_exponent"],
        "curve_time_vs_collisions_x_samples": metrics["classical.curve.cost_exponent"],
    }
    return metrics, {k: {"cost_exponent": exponents[k], "points": v} for k, v in scaling.items() if v}
