"""pibilliards benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src/``.
One process, one thread, one op in flight.  Every answer is checked against
a reference computed outside the timed region.  Human-readable lines start
with ``perfbench``; the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (see BENCHMARK.json),
with ``--trace 1`` the per-layer ones.  Results, and with tracing the spans,
are also written under ``.perfbench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# BLAS is pinned to one thread, before numpy is first imported.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 5
# A run starts no op after this long, whatever it still owes, to end well
# within the three minutes a run may take.
WALL_LIMIT_S = 120.0


def log(*parts) -> None:
    print("perfbench", *parts, flush=True)


def environment(seed: int) -> dict:
    import mpmath
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "seed": seed,
    }


def measure_setup(workload: str, scratch: Path, repeats: int) -> list[float]:
    """Import-plus-warm-up times, each in a fresh interpreter (start-up excluded)."""
    times = []
    for i in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload, str(scratch / f"setup{i}")],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.split()[-1]))
    return times


class Run:
    """The checked, timed executions of one workload run."""

    def __init__(self, workload, scratch: Path, tracer=None, min_ops: int | None = None):
        self.workload = workload
        self.scratch = scratch
        self.tracer = tracer
        self.min_ops = workload.min_ops if min_ops is None else min_ops
        self.latencies: list[float] = []      # untraced executions, seconds
        self.traced_s = 0.0
        self.untraced_s = 0.0
        self.attempted = 0
        self.failures: list[tuple] = []       # (op, reason)
        self.count_wrong = 0
        self.digits_ops = 0
        self.counted_ops: set[int] = set()

    def _call(self, op) -> tuple[float, object, str | None]:
        start = time.perf_counter()
        try:
            result, reason = self.workload.run(op, self.scratch), None
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            result, reason = None, f"raised {type(exc).__name__}: {exc}"
        return time.perf_counter() - start, result, reason

    def execute(self, op, op_id: int, traced: bool) -> tuple[float, str | None]:
        """Run one op, then check its answer outside the timed call."""
        if traced:
            with self.tracer.installed(), self.tracer.span(f"op.{op.kind}", op_id, op.args[0] if op.args else None):
                elapsed, result, reason = self._call(op)
        else:
            elapsed, result, reason = self._call(op)
        if reason is None:
            reason = self.workload.check(op, result, self.scratch)
        if traced and result is not None and self.workload.count_is_wrong(op, result):
            self.count_wrong += 1
        return elapsed, reason

    def timed(self, draws, seconds: float, traced: bool, strata=None) -> None:
        """Whole pairs of rounds, stopping at the pair boundary nearest to
        ``seconds`` of op time once, untraced, at least ``min_ops`` ops are
        done.  Traced, every op runs twice, once with and once without spans,
        the order alternating from op to op.  Past ``WALL_LIMIT_S`` the run
        stops after the current op."""
        op_id, deadline = 0, time.monotonic() + WALL_LIMIT_S
        for index in itertools.count():
            busy = self.traced_s + self.untraced_s
            enough = busy + busy / max(index, 1) >= seconds
            if not traced:
                enough = enough and len(self.latencies) >= self.min_ops
            if index % 2 == 0 and index and enough:
                return
            draws.start_round(index)
            for op in self.workload.round(draws, strata):
                if time.monotonic() > deadline:
                    return
                op_id += 1
                if op.kind == "digits":
                    self.digits_ops += 1
                modes = ((False, True) if op_id % 2 else (True, False)) if traced else (False,)
                for mode in modes:
                    elapsed, reason = self.execute(op, op_id, mode)
                    self.attempted += 1
                    if mode:
                        self.traced_s += elapsed
                        self.counted_ops.add(op_id)
                    else:
                        self.untraced_s += elapsed
                        self.latencies.append(elapsed)
                    if reason:
                        self.failures.append((op, reason))

    def probe(self, draws, traced: bool) -> tuple[int, list[tuple]]:
        """Known-defect inputs, untimed: the number run, and (op, reason) for
        each wrong answer."""
        draws.start_round(0)
        probe_ops = self.workload.probe(draws)
        found = []
        for i, op in enumerate(probe_ops):
            _, reason = self.execute(op, -1 - i, traced)
            if reason:
                found.append((op, reason))
        return len(probe_ops), found


def tail(latencies: list[float], pct: float) -> tuple[float, int]:
    """The ``pct`` percentile and the number of samples beyond it.

    Hazen's rule: the value at 1-based rank pct/100 * n + 0.5, interpolated.
    When pct/100 of a round is a whole number of strata, that rank falls
    midway between the slowest op below a stratum boundary and the fastest
    above it, so the value hardly moves with the seed.
    """
    ordered = sorted(latencies)
    position = pct / 100 * len(ordered) + 0.5
    low = min(max(int(position), 1), len(ordered))
    high = min(low + 1, len(ordered))
    value = ordered[low - 1] + (ordered[high - 1] - ordered[low - 1]) * (position - int(position))
    return value, len(ordered) - low


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if result is None:
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


def load_program():
    """Pin BLAS, import pibilliards from this checkout's ``src/`` and return
    the ``workloads`` module, or None (with a message) if that is impossible."""
    if not (SRC / "pibilliards" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'pibilliards'}", file=sys.stderr)
        return None
    os.environ.update(BLAS_ENV)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pibilliards
    import workloads

    if Path(pibilliards.__file__).resolve().parent != SRC / "pibilliards":
        print(f"perfbench: imported pibilliards from {pibilliards.__file__}, not {SRC}", file=sys.stderr)
        return None
    return workloads


def measure(workload_name: str, seed: int, seconds: float, traced: bool, small: bool = False) -> dict | None:
    """One benchmark run; returns the result object, or None if the checkout
    cannot run it.  ``small`` shrinks the run to a smoke test: two strata per
    round, one set-up sample, no minimum op count."""
    workloads = load_program()
    if workloads is None:
        return None
    if workload_name not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {workload_name!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return None
    import ops
    from spans import LAYER_METRICS, Tracer, layer_report

    scratch = OUT / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        env = environment(seed)
        log("env", json.dumps(env, sort_keys=True))
        log("run", json.dumps({"workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(traced)}))
        setup_times = [] if traced else measure_setup(workload_name, scratch, 1 if small else SETUP_REPEATS)

        workload = workloads.WORKLOADS[workload_name]()
        ops.warm_up(workload_name, scratch)
        draws = workloads.Draws(seed)
        run = Run(workload, scratch, Tracer() if traced else None, 1 if small else None)
        run.timed(draws, seconds, traced, 2 if small else None)
        probe_size, defects = run.probe(draws, traced)

        for op, reason in run.failures:
            log("failure", op.label(), reason)
        for op, reason in defects:
            log("known_defect", op.label(), reason)
        if probe_size:
            log("known_defects", f"{len(defects)}/{probe_size} wrong on the known-defect probe")

        failed = len(run.failures)
        record = {"env": env, "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(traced),
                  "attempted": run.attempted, "failed": failed,
                  "failures": [[op.label(), r] for op, r in run.failures],
                  "known_defects": [[op.label(), r] for op, r in defects], "probe_size": probe_size}
        if traced:
            overhead = run.traced_s / run.untraced_s - 1.0
            layers, scaling = layer_report(run.tracer.spans, run.counted_ops, run.digits_ops,
                                           run.count_wrong, overhead)
            metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_METRICS}
            for name, series in scaling.items():
                log("scaling", name, "cost_exponent", f"{series['cost_exponent']:.4g}",
                    json.dumps([[x, round(t, 7)] for x, t in series["points"]]))
            for name, unit in LAYER_METRICS:
                log("layer", name, f"{layers[name]:.6g}", unit)
            record["scaling"] = scaling
            with open(OUT / f"{workload_name}-seed{seed}-spans.jsonl", "w") as fh:
                for span in run.tracer.spans:
                    fh.write(json.dumps(span) + "\n")
        else:
            metrics = end_to_end(run, setup_times)
            p_tail, beyond = tail(run.latencies, workload.tail_pct)
            record["tail"] = {"percentile": workload.tail_pct, "samples": len(run.latencies), "beyond": beyond}
            record["setup_samples_s"] = setup_times
            record["fail_frac"] = failed / run.attempted
            for name, entry in metrics.items():
                note = f"(p{workload.tail_pct:g} of {len(run.latencies)} ops, {beyond} beyond)" if name == "op_tail_ms" else ""
                log("metric", name, f"{entry['value']:.6g}", entry["unit"], note)
            log("metric", "fail_frac", f"{record['fail_frac']:.6g}", "1", f"({failed} of {run.attempted} ops)")
        record["metrics"] = metrics
        with open(OUT / f"{workload_name}-seed{seed}-trace{int(traced)}.json", "w") as fh:
            json.dump(record, fh, indent=1)
        return {"correct": failed == 0, "attempted": run.attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def end_to_end(run: Run, setup_times: list[float]) -> dict:
    p_tail, _ = tail(run.latencies, run.workload.tail_pct)
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "ops_per_s": {"value": len(run.latencies) / run.untraced_s, "unit": "ops/s"},
        "op_p50_ms": {"value": statistics.median(run.latencies) * 1e3, "unit": "ms"},
        "op_tail_ms": {"value": p_tail * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
    }


if __name__ == "__main__":
    sys.exit(main())
