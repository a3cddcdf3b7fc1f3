"""Command-line entry point wiring all models together.

Subcommands: digits, count, simulate, semiclassical, quantum, phaseshift,
figures.  Geometry is specified by exactly one of --beta, --mass-ratio, --N
(or, for simulate, a --params JSON file with explicit masses).  Curve output
is CSV (or JSON with --format json) plus a JSON manifest recording the full
parameter provenance; runs are deterministic, so identical configurations
produce byte-identical artifacts.

Exit codes: 0 success, 2 usage error or non-finite input, 3 numerical
indeterminacy (an uncertified floor, a disagreement between the routes of the
digit certificate, or a NaN or infinite value in what would be printed or
written).

The semiclassical and quantum models are imported by the handlers that run
them, and only those handlers run under ``np.errstate``: ``digits``, ``count``,
``simulate`` and ``phaseshift`` load neither numpy nor scipy.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .classical import (CollisionTrace, classical_curve, classical_eta_curve,
                        count_certified, count_closed_form, pi_digits_detail,
                        simulate)
from .bigreal import _format_int
from .core import (BilliardParams, DomainError, _check_beta, _check_decade,
                   format_sig, phase_shift, phase_shift_difference)

if TYPE_CHECKING:
    from .curves import CurveSeries

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_INDETERMINATE = 3


def _geometry_params(args) -> BilliardParams:
    if args.params is not None:
        return BilliardParams.from_json(args.params.read_text())
    if args.beta is not None:
        return BilliardParams.from_beta(args.beta)
    if args.mass_ratio is not None:
        return BilliardParams.from_mass_ratio(args.mass_ratio)
    _check_decade(args.N)
    if 2 * args.N > sys.float_info.max_10_exp:  # 100**N = 10**(2N) overflows a double
        raise DomainError(f"--N {args.N}: the mass ratio 100**N exceeds the double range")
    return BilliardParams.from_mass_ratio(float(100 ** args.N))


def _geometry_beta(args) -> float:
    if args.beta is not None:
        _check_beta(args.beta)
        return args.beta
    return _geometry_params(args).wedge_angle


def _geometry_provenance(args) -> dict:
    prov = {k: getattr(args, k) for k in ("beta", "mass_ratio", "N")}
    if args.params is not None:
        prov["params_file"] = str(args.params)
    return prov


def _count_nonfinite(value) -> int:
    """NaN and infinite values in a number, an array, or a tuple or list of them:
    a number is checked with ``math``, and numpy is imported only for an array."""
    if isinstance(value, (int, float)):
        return not math.isfinite(value)
    if isinstance(value, (tuple, list)):
        return sum(map(_count_nonfinite, value))
    import numpy as np
    return int(np.count_nonzero(~np.isfinite(np.asarray(value, dtype=float))))


def _check_finite(what: str, *values) -> None:
    """Refuse to print or write anything when a number in ``values`` is NaN or inf."""
    if bad := _count_nonfinite(values):
        raise FloatingPointError(f"{what}: {bad} value(s) NaN or infinite in double precision")


def _array_handler(handler):
    """``handler`` under ``np.errstate(all="ignore")``: the NaN and inf values of
    its arrays are reported by _check_finite, not as numpy warnings."""
    @functools.wraps(handler)
    def run_quietly(args) -> int:
        import numpy as np
        with np.errstate(all="ignore"):
            return handler(args)
    return run_quietly


def _finish(args, parameters: dict, outputs: list[Path] | None = None,
            manifest: Path | None = None, stdout: tuple[str, ...] = (),
            stderr: tuple[str, ...] = (), **record) -> int:
    """Record the run's provenance, print its result and return the success
    status.

    The payload is the command, its ``parameters``, any further ``record``
    entries, the names of the ``outputs`` written and the package version.
    A run that writes files stores it in ``--manifest``, else in ``manifest``,
    else beside its first output as ``<name>.manifest.json``.  A run that only
    prints writes it as one JSON line on stderr after its ``stderr`` lines,
    and also to ``--manifest``.  The ``stdout`` and ``stderr`` lines are
    printed only once every file is written, so a run that cannot write one
    prints no result.
    """
    payload = {"command": args.command, "parameters": parameters, **record,
               "version": __version__}
    path = args.manifest
    if outputs:
        payload["outputs"] = sorted(out.name for out in outputs)
        path = path or manifest or outputs[0].with_name(outputs[0].name + ".manifest.json")
    else:
        stderr = (*stderr, json.dumps(payload, sort_keys=True))
    if path is not None:
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for line in stdout:
        print(line)
    for line in stderr:
        print(line, file=sys.stderr)
    return _EXIT_OK


def _emit_series(series: CurveSeries, args, **parameters) -> int:
    """Write a curve to --out; the manifest records geometry, --n, --samples, ``parameters``."""
    _check_finite(f"{args.command} curve", series.xs, series.ys)
    out: Path = args.out
    if args.format == "json":
        series.to_json(out, sig=args.precision)
    else:
        series.to_csv(out, sig=args.precision)
    parameters = {**_geometry_provenance(args), "n": args.n, "samples": args.samples,
                  **parameters}
    return _finish(args, parameters, [out],
                   series_labels={k: str(v) for k, v in series.labels.items()},
                   series_metadata=series.metadata)


# -- subcommand handlers ------------------------------------------------------


def _cmd_digits(args) -> int:
    result = pi_digits_detail(args.N)
    # pi_digits_detail returns only when the three floors are equal
    value = _format_int(result.value)
    note = (f"certified: {result.bits} bits; collision-count route = {value}, "
            f"interval floor = {value}, mpmath floor = {value}")
    return _finish(args, {"N": args.N, "bits": result.bits}, stdout=(value,), stderr=(note,))


def _cmd_count(args) -> int:
    if args.N is not None:
        # certified path: identical to the digits pipeline
        count = pi_digits_detail(args.N).collision_count
    elif args.mass_ratio is not None:
        count = count_certified(args.mass_ratio)
    else:
        count = count_closed_form(args.beta)
    return _finish(args, _geometry_provenance(args), stdout=(_format_int(count),))


def _trace_to_csv(trace: CollisionTrace, path: Path, sig: int) -> None:
    """Write the header, then one row per event: its index, its kind, and t,
    x, y, vx and vy after it as format_sig at ``sig`` digits.  All rows are
    formatted by one ``%`` over the flattened values; ``%.{sig}g`` gives the
    same text as format_sig.  Writes nothing, and raises FloatingPointError,
    when the energy drift or a value is NaN or infinite."""
    rows = [(ev.index, ev.kind.value, ev.t, s.x, s.y, s.vx, s.vy)
            for ev in trace.events for s in (ev.state_after,)]
    _check_finite("collision trace", trace.max_energy_drift, [event[2:] for event in rows])
    row = "%d,%s" + f",%.{sig}g" * 5 + "\n"
    with open(path, "w", newline="") as fh:
        fh.write("index,kind,t,x,y,vx,vy\n" + (row * len(rows)) % tuple(chain.from_iterable(rows)))


def _cmd_simulate(args) -> int:
    params = _geometry_params(args)
    trace = simulate(params, args.v0, args.x0, args.y0)
    parameters = {**_geometry_provenance(args), "M": params.M, "m": params.m,
                  "v0": args.v0, "x0": args.x0, "y0": args.y0}
    printed = (str(trace.count),)
    if args.trace is None:
        return _finish(args, parameters, stdout=printed)
    _trace_to_csv(trace, args.trace, args.precision)
    return _finish(args, parameters, [args.trace], stdout=printed,
                   collision_count=trace.count, max_energy_drift=trace.max_energy_drift)


@_array_handler
def _cmd_semiclassical(args) -> int:
    from .semiclassical import SemiclassicalConfig, sample_curve
    cfg = SemiclassicalConfig(n=args.n, params=_geometry_params(args))
    return _emit_series(sample_curve(cfg, grid=args.samples), args)


@_array_handler
def _cmd_quantum(args) -> int:
    from .quantum import AMPLITUDE_COEFFICIENT_RULE, sample_quantum_curve
    series = sample_quantum_curve(args.n, _geometry_beta(args), grid=args.samples)
    return _emit_series(series, args, amplitude_coefficient_rule=AMPLITUDE_COEFFICIENT_RULE)


def _cmd_phaseshift(args) -> int:
    beta = _geometry_beta(args)
    delta, diff = phase_shift(args.n, beta), phase_shift_difference(beta)
    _check_finite("phase shift", delta, diff)
    sig = args.precision
    return _finish(args, {**_geometry_provenance(args), "n": args.n}, stdout=(
        f"delta = {format_sig(delta, sig)} ({format_sig(delta / math.pi, sig)} pi)",
        f"delta_delta = {format_sig(diff, sig)} ({format_sig(diff / math.pi, sig)} pi)"))


@_array_handler
def _cmd_figures(args) -> int:
    from .quantum import AMPLITUDE_COEFFICIENT_RULE, sample_quantum_curve
    from .semiclassical import SemiclassicalConfig, sample_curve
    outdir: Path = args.outdir
    beta = math.pi / 10
    params = BilliardParams.from_beta(beta)
    samples = args.samples
    bundle = {
        "fig3_classical.csv": classical_curve(params, samples=samples),
        "fig3_n1.csv": sample_curve(SemiclassicalConfig(1, params), grid=samples),
        "fig3_n10.csv": sample_curve(SemiclassicalConfig(10, params), grid=samples),
        "fig5_classical.csv": classical_eta_curve(params, samples=samples),
        "fig5_l10.csv": sample_quantum_curve(1, beta, grid=samples),
        "fig5_l100.csv": sample_quantum_curve(10, beta, grid=samples),
    }
    _check_finite("figures", [(s.xs, s.ys) for s in bundle.values()])
    outdir.mkdir(parents=True, exist_ok=True)
    for name, series in bundle.items():
        series.to_csv(outdir / name, sig=args.precision)
    return _finish(args, {"beta": beta, "mass_ratio": params.M / params.m,
                          "samples": samples, "v0": 1.0, "x0": 10.0, "y0": 1.0, "k": 1.0},
                   [outdir / name for name in bundle], outdir / "figures_manifest.json",
                   amplitude_coefficient_rule=AMPLITUDE_COEFFICIENT_RULE,
                   series_metadata={name: s.metadata for name, s in bundle.items()})


# -- parser -------------------------------------------------------------------


def _precision(text: str) -> int:
    """The --precision value: an integer, at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache  # parsing leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pibilliards",
        description="Collision-counting billiards, quantum counterparts, "
                    "and certified digits of pi.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, *options, geometry=True, params_file=False, floats=True):
        """Subcommand ``name``, run by ``handler``: the geometry group, the (flag,
        keywords) ``options``, --precision when it prints floats, and --manifest."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler, params=None)
        if geometry:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--beta", type=float, help="wedge angle in radians")
            group.add_argument("--mass-ratio", type=float, help="mass ratio M/m")
            group.add_argument("--N", type=int, help="decade exponent: M/m = 100**N")
            if params_file:
                group.add_argument("--params", type=Path, help='JSON file {"M": ..., "m": ...}')
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        if floats:
            p.add_argument("--precision", type=_precision, default=12,
                           help="significant digits in numeric output (default 12)")
        p.add_argument("--manifest", type=Path, help="override the manifest path")

    samples = ("--samples", {"type": int, "default": 2000})
    curve = (samples, ("--out", {"type": Path, "required": True}),
             ("--format", {"choices": ("csv", "json"), "default": "csv"}))
    command("digits", _cmd_digits, "certified floor(pi * 10^N)",
            ("--N", {"type": int, "required": True}), geometry=False, floats=False)
    command("count", _cmd_count, "total collision count for a geometry", floats=False)
    command("simulate", _cmd_simulate, "event-driven collision trace",
            ("--v0", {"type": float, "default": 1.0}),
            ("--x0", {"type": float, "default": 10.0}),
            ("--y0", {"type": float, "default": 1.0}),
            ("--trace", {"type": Path, "help": "write the event trace CSV here"}),
            params_file=True)
    command("semiclassical", _cmd_semiclassical, "mean-position oscillation curve",
            ("--n", {"type": int, "default": 1, "help": "lower quantum number"}), *curve)
    command("quantum", _cmd_quantum, "mean-angle oscillation curve",
            ("--n", {"type": int, "default": 1, "help": "channel index"}), *curve)
    command("phaseshift", _cmd_phaseshift, "channel phase shift and spacing",
            ("--n", {"type": int, "default": 1}))
    command("figures", _cmd_figures, "write the full curve bundle",
            ("--outdir", {"type": Path, "required": True}), samples, geometry=False)
    return parser


def run(args: argparse.Namespace) -> int:
    """Dispatch a parsed configuration; returns the process exit status."""
    try:
        return args.handler(args)
    except ArithmeticError as exc:
        print(f"pibilliards: {exc}", file=sys.stderr)
        return _EXIT_INDETERMINATE
    except (ValueError, OSError) as exc:
        print(f"pibilliards: {exc}", file=sys.stderr)
        return _EXIT_USAGE


def main(argv=None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
