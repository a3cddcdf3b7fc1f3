"""The operations the benchmark times, run in-process against pibilliards.

Subcommands go through ``pibilliards.cli.main(argv)`` with stdout and stderr
captured, so an op excludes interpreter start-up.  Library functions are
called only where no subcommand exists (the classical curves and the two
scattering quadratures).  Every program function is looked up on its module
at call time, so the tracer's wrappers are seen.

This module imports nothing beyond pibilliards and the standard library:
``setup_probe.py`` times importing it as the program's own set-up.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

from pibilliards import classical, cli, core, quantum, semiclassical

SAMPLES = 2000        # samples per curve, the CLI default
SCATTER_BETA = math.pi / 10


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Exit status, stdout and stderr of one in-process CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a usage error this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def digits(k: int):
    return run_cli(["digits", "--N", str(k)])


def count(r: float):
    return run_cli(["count", "--mass-ratio", repr(r)])


def collide(r: float):
    """``simulate`` and then ``count`` at the same mass ratio."""
    return run_cli(["simulate", "--mass-ratio", repr(r)]), count(r)


def classical_curve(r: float, path: Path) -> dict:
    curve = classical.classical_curve(core.BilliardParams.from_mass_ratio(r), samples=SAMPLES)
    curve.to_csv(path)
    return curve.metadata


def classical_eta_curve(r: float, path: Path) -> dict:
    curve = classical.classical_eta_curve(core.BilliardParams.from_mass_ratio(r), samples=SAMPLES)
    curve.to_csv(path)
    return curve.metadata


def semiclassical_curve(r: float, n: int, path: Path):
    return run_cli(["semiclassical", "--mass-ratio", repr(r), "--n", str(n),
                    "--samples", str(SAMPLES), "--out", str(path)])


def quantum_curve(r: float, n: int, path: Path):
    return run_cli(["quantum", "--mass-ratio", repr(r), "--n", str(n),
                    "--samples", str(SAMPLES), "--out", str(path)])


def figures(outdir: Path):
    return run_cli(["figures", "--outdir", str(outdir), "--samples", str(SAMPLES)])


def outgoing_point(n: int, eta: float) -> float:
    """Outgoing-wave mean angle at compactified radius eta, at beta = pi/10."""
    l = n * math.pi / SCATTER_BETA
    return quantum.theta_mean_quadrature(l / math.cos(eta), n, SCATTER_BETA, wave="outgoing")


def berry(n: int, x: float) -> float:
    return semiclassical.berry_connection(n, x)


def warm_up(workload: str, scratch: Path) -> None:
    """One untimed op of each kind the workload runs, so that lazy set-up
    (imports inside the program, BLAS start-up, mpmath's constant cache) is
    done before timing.  Its cost is part of ``setup_s``."""
    if workload == "digits":
        digits(100)
    elif workload == "collisions":
        collide(100.0)
    elif workload == "curves":
        figures(scratch / "warm-up")
    elif workload == "scattering":
        outgoing_point(1, 0.5)
        berry(1, 1.0)
    else:
        raise ValueError(f"unknown workload {workload!r}")
