"""Self-test of the benchmark itself (not of pibilliards).

    python3 perfbench/selftest.py

1. A tiny run of every workload, untraced and traced: every metric named in
   BENCHMARK.json is emitted, with its unit.
2. One deliberately wrong answer of every op kind is fed through the
   workload's check and must be counted as a failed op.
3. Without the program's source the command exits non-zero and prints no
   result.

Exits 0 when all pass.  Takes under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def check_metrics() -> None:
    for traced, section in ((False, "end_to_end"), (True, "per_layer")):
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        for w in SPEC["workloads"]:
            result = run.measure(w["name"], seed=7, seconds=0, traced=traced, small=True)
            emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
            assert emitted == expected, f"{w['name']} {section}: {emitted} != {expected}"
            assert result["attempted"] >= 1 and result["failed"] == 0, result
            assert all(isinstance(e["value"], (int, float)) for e in result["metrics"].values())


def spoil_csv(path: Path) -> None:
    """Shift the first ordinate of a curve CSV by 1e-3."""
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = repr(float(cells[1]) + 1e-3)
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def spoil_printed(result):
    code, out, err = result
    return code, str(int(out) + 1) + "\n", err


def spoil(op, result, scratch: Path):
    """A wrong answer of the op's own kind."""
    if op.kind in ("digits", "count"):
        return spoil_printed(result)
    if op.kind == "collide":
        return spoil_printed(result[0]), result[1]
    if op.kind in ("outgoing", "berry"):
        return result + 1e-6
    if op.kind == "figures":
        spoil_csv(scratch / "figures" / "fig5_l100.csv")
    else:
        spoil_csv(scratch / f"{op.kind}.csv")
    return result


class Spoiling:
    """A workload whose first op of each kind returns a wrong answer."""

    def __init__(self, inner):
        self.inner = inner
        self.spoiled: set[str] = set()

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def run(self, op, scratch):
        result = self.inner.run(op, scratch)
        if op.kind not in self.spoiled:
            self.spoiled.add(op.kind)
            result = spoil(op, result, scratch)
        return result


def check_checkers() -> None:
    workloads = run.load_program()
    scratch = run.OUT / "selftest"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        for name, cls in workloads.WORKLOADS.items():
            spoiling = Spoiling(cls())
            bench = run.Run(spoiling, scratch, min_ops=1)
            bench.timed(workloads.Draws(3), 0, False, strata=2)
            failed_kinds = {op.kind for op, _ in bench.failures}
            assert failed_kinds == spoiling.spoiled, f"{name}: {failed_kinds} != {spoiling.spoiled}"
            assert len(bench.failures) == len(spoiling.spoiled), f"{name}: {bench.failures}"
            fail_frac = len(bench.failures) / bench.attempted
            print(f"perfbench selftest {name}: {len(bench.failures)} spoiled answers caught, "
                  f"fail_frac {fail_frac:.3g}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def check_no_program() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                                                 "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180, check=False)
        assert proc.returncode != 0, proc
        assert not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_checkers()
    check_no_program()
    check_metrics()
    print("perfbench selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
