"""Command-line entry point wiring all models together.

Subcommands: digits, count, simulate, semiclassical, quantum, phaseshift,
figures.  Geometry is specified by exactly one of --beta, --mass-ratio, --N
(or, for simulate, a --params JSON file with explicit masses).  Curve output
is CSV (or JSON with --format json) plus a JSON manifest recording the full
parameter provenance; runs are deterministic, so identical configurations
produce byte-identical artifacts.

Exit codes: 0 success, 2 usage error or non-finite input, 3 numerical
indeterminacy (an uncertified floor, an unachievable accuracy certificate, or
a NaN or infinite value in what would be printed or written).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np

from . import __version__
from .classical import (CollisionTrace, IndeterminateFloorError,
                        PiDigitsMismatchError, classical_curve,
                        classical_eta_curve, count_closed_form, pi_digits_detail,
                        simulate)
from .core import BilliardParams, DomainError, _check_beta
from .curves import CurveSeries, _format_int, format_sig
from .quantum import (AMPLITUDE_COEFFICIENT_RULE, CylinderPrecisionError,
                      phase_shift, phase_shift_difference, sample_quantum_curve)
from .semiclassical import SemiclassicalConfig, sample_curve

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_INDETERMINATE = 3


def _add_geometry(parser: argparse.ArgumentParser, with_params_file: bool = False) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--beta", type=float, help="wedge angle in radians")
    group.add_argument("--mass-ratio", type=float, help="mass ratio M/m")
    group.add_argument("--N", type=int, help="decade exponent: M/m = 100**N")
    if with_params_file:
        group.add_argument("--params", type=Path,
                           help='JSON file {"M": ..., "m": ..., "hbar": ...}')


def _add_common(parser: argparse.ArgumentParser, floats: bool = True) -> None:
    if floats:
        parser.add_argument("--precision", type=int, default=12,
                            help="significant digits in numeric output (default 12)")
    parser.add_argument("--manifest", type=Path, default=None,
                        help="override the manifest path")


def _geometry_params(args) -> BilliardParams:
    if getattr(args, "params", None) is not None:
        return BilliardParams.from_json(args.params.read_text())
    if args.beta is not None:
        return BilliardParams.from_beta(args.beta)
    if args.mass_ratio is not None:
        return BilliardParams.from_mass_ratio(args.mass_ratio)
    return BilliardParams.from_mass_ratio(float(100 ** args.N))


def _geometry_beta(args) -> float:
    if args.beta is not None:
        _check_beta(args.beta)
        return args.beta
    return _geometry_params(args).wedge_angle


def _geometry_provenance(args) -> dict:
    keys = ("beta", "mass_ratio", "N")
    prov = {k: getattr(args, k, None) for k in keys}
    if getattr(args, "params", None) is not None:
        prov["params_file"] = str(args.params)
    return prov


def _check_finite(what: str, *values) -> None:
    """Refuse to print or write anything when a number in ``values`` is NaN or inf."""
    if bad := sum(np.count_nonzero(~np.isfinite(np.asarray(v, dtype=float))) for v in values):
        raise FloatingPointError(f"{what}: {bad} value(s) NaN or infinite in double precision")


def _write_manifest(path: Path, payload: dict) -> None:
    payload = dict(payload)
    payload["version"] = __version__
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit_series(series: CurveSeries, args, parameters: dict) -> None:
    _check_finite(f"{args.command} curve", series.xs, series.ys)
    out: Path = args.out
    if args.format == "json":
        series.to_json(out, sig=args.precision)
    else:
        series.to_csv(out, sig=args.precision)
    manifest = args.manifest or out.with_name(out.name + ".manifest.json")
    _write_manifest(manifest, {
        "command": args.command,
        "parameters": parameters,
        "series_labels": {k: str(v) for k, v in series.labels.items()},
        "series_metadata": series.metadata,
        "outputs": [out.name],
    })


def _print_manifest_stderr(command: str, parameters: dict, path: Path | None = None) -> None:
    payload = {"command": command, "parameters": parameters, "version": __version__}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    if path is not None:
        _write_manifest(path, payload)


# -- subcommand handlers ------------------------------------------------------


def _cmd_digits(args) -> int:
    result = pi_digits_detail(args.N)
    print(_format_int(result.value))
    print(f"certified: {result.bits} bits; collision-count route = "
          f"{_format_int(result.collision_count)}, interval floor = "
          f"{_format_int(result.pi_floor)}, mpmath floor = {_format_int(result.value)}",
          file=sys.stderr)
    _print_manifest_stderr("digits", {"N": args.N, "bits": result.bits}, args.manifest)
    return _EXIT_OK


def _cmd_count(args) -> int:
    if args.N is not None:
        # certified path: identical to the digits pipeline
        result = pi_digits_detail(args.N)
        count = result.collision_count
    else:
        count = count_closed_form(_geometry_beta(args))
    print(_format_int(count))
    _print_manifest_stderr("count", _geometry_provenance(args), args.manifest)
    return _EXIT_OK


def _trace_to_csv(trace: CollisionTrace, path: Path, sig: int) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("index,kind,t,x,y,vx,vy\n")
        for ev in trace.events:
            s = ev.state_after
            row = [str(ev.index), ev.kind.value] + \
                [format_sig(v, sig) for v in (ev.t, s.x, s.y, s.vx, s.vy)]
            fh.write(",".join(row) + "\n")


def _cmd_simulate(args) -> int:
    params = _geometry_params(args)
    trace = simulate(params, args.v0, args.x0, args.y0)
    if args.trace is not None:
        _check_finite("collision trace", trace.max_energy_drift,
                      [astuple(ev.state_after) for ev in trace.events])
    print(trace.count)
    parameters = {**_geometry_provenance(args), "M": params.M, "m": params.m,
                  "hbar": params.hbar, "v0": args.v0, "x0": args.x0, "y0": args.y0}
    if args.trace is not None:
        _trace_to_csv(trace, args.trace, args.precision)
        manifest = args.manifest or args.trace.with_name(args.trace.name + ".manifest.json")
        _write_manifest(manifest, {
            "command": "simulate",
            "parameters": parameters,
            "collision_count": trace.count,
            "max_energy_drift": trace.max_energy_drift,
            "outputs": [args.trace.name],
        })
    else:
        _print_manifest_stderr("simulate", parameters, args.manifest)
    return _EXIT_OK


def _cmd_semiclassical(args) -> int:
    cfg = SemiclassicalConfig(n=args.n, params=_geometry_params(args))
    series = sample_curve(cfg, grid=args.samples)
    _emit_series(series, args, {**_geometry_provenance(args), "n": args.n,
                                "samples": args.samples})
    return _EXIT_OK


def _cmd_quantum(args) -> int:
    beta = _geometry_beta(args)
    series = sample_quantum_curve(args.n, beta, grid=args.samples)
    _emit_series(series, args, {**_geometry_provenance(args), "n": args.n,
                                "samples": args.samples,
                                "amplitude_coefficient_rule": AMPLITUDE_COEFFICIENT_RULE})
    return _EXIT_OK


def _cmd_phaseshift(args) -> int:
    beta = _geometry_beta(args)
    delta = phase_shift(args.n, beta)
    diff = phase_shift_difference(beta)
    _check_finite("phase shift", delta, diff)
    sig = args.precision
    print(f"delta = {format_sig(delta, sig)} ({format_sig(delta / math.pi, sig)} pi)")
    print(f"delta_delta = {format_sig(diff, sig)} ({format_sig(diff / math.pi, sig)} pi)")
    _print_manifest_stderr("phaseshift", {**_geometry_provenance(args), "n": args.n}, args.manifest)
    return _EXIT_OK


def _cmd_figures(args) -> int:
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

    manifest = args.manifest or (outdir / "figures_manifest.json")
    _write_manifest(manifest, {
        "command": "figures",
        "parameters": {"beta": beta, "mass_ratio": params.M / params.m,
                       "samples": samples, "v0": 1.0, "x0": 10.0, "y0": 1.0,
                       "k": 1.0},
        "amplitude_coefficient_rule": AMPLITUDE_COEFFICIENT_RULE,
        "series_metadata": {name: s.metadata for name, s in bundle.items()},
        "outputs": sorted(bundle),
    })
    return _EXIT_OK


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pibilliards",
        description="Collision-counting billiards, quantum counterparts, "
                    "and certified digits of pi.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("digits", help="certified floor(pi * 10^N)")
    p.add_argument("--N", type=int, required=True)
    _add_common(p, floats=False)

    p = sub.add_parser("count", help="total collision count for a geometry")
    _add_geometry(p)
    _add_common(p, floats=False)

    p = sub.add_parser("simulate", help="event-driven collision trace")
    _add_geometry(p, with_params_file=True)
    p.add_argument("--v0", type=float, default=1.0)
    p.add_argument("--x0", type=float, default=10.0)
    p.add_argument("--y0", type=float, default=1.0)
    p.add_argument("--trace", type=Path, default=None,
                   help="write the event trace CSV here")
    _add_common(p)

    p = sub.add_parser("semiclassical", help="mean-position oscillation curve")
    _add_geometry(p)
    p.add_argument("--n", type=int, default=1, help="lower quantum number")
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common(p)

    p = sub.add_parser("quantum", help="mean-angle oscillation curve")
    _add_geometry(p)
    p.add_argument("--n", type=int, default=1, help="channel index")
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common(p)

    p = sub.add_parser("phaseshift", help="channel phase shift and spacing")
    _add_geometry(p)
    p.add_argument("--n", type=int, default=1)
    _add_common(p)

    p = sub.add_parser("figures", help="write the full curve bundle")
    p.add_argument("--outdir", type=Path, required=True)
    p.add_argument("--samples", type=int, default=2000)
    _add_common(p)

    return parser


_HANDLERS = {
    "digits": _cmd_digits,
    "count": _cmd_count,
    "simulate": _cmd_simulate,
    "semiclassical": _cmd_semiclassical,
    "quantum": _cmd_quantum,
    "phaseshift": _cmd_phaseshift,
    "figures": _cmd_figures,
}


def run(args: argparse.Namespace) -> int:
    """Dispatch a parsed configuration; returns the process exit status."""
    try:
        # NaN/inf results are reported by _check_finite, not as numpy warnings
        with np.errstate(all="ignore"):
            return _HANDLERS[args.command](args)
    except (IndeterminateFloorError, PiDigitsMismatchError, CylinderPrecisionError,
            FloatingPointError, OverflowError) as exc:
        print(f"pibilliards: {exc}", file=sys.stderr)
        return _EXIT_INDETERMINATE
    except (DomainError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"pibilliards: {exc}", file=sys.stderr)
        return _EXIT_USAGE


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
