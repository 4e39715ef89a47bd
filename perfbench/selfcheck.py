"""Self-check of the benchmark at reduced sizes.

Usage, from the root of a checkout:

    python3 perfbench/selfcheck.py

For each workload, at a reduced size, it makes one timed and one traced
run and checks that

* every metric named in BENCHMARK.json is emitted, with the unit named
  there, and is a finite number (end-to-end metrics also positive);
* the traced layers' self times add up to the traced calls' wall time
  within COVERAGE_TOL, so the spans account for the run;
* no wrap target of the tracer is missing.

It also checks that the benchmark, copied without the package source,
exits non-zero without printing a result. Output checks of the reduced
runs are not applied: the reference values hold only at full size.
Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import run
from workloads import WORKLOADS

COVERAGE_TOL = 0.02

REDUCED_ARGV = {
    "price-call": ("price", "--scheme", "weak2", "--steps", "8", "--paths", "20000",
                   "--strike", "100"),
    "conv-ladder": ("strong-conv", "--steps", "16", "--paths", "1000"),
    "mlmc-lookback": ("mlmc", "--scheme", "weaktraj1", "--payoff", "lookback",
                      "--epsilon", "0.2"),
}


def unchecked(check):
    """An output check that keeps the measured quantities but passes."""
    def lenient(text):
        return dataclasses.replace(check(text), ok=True, problems=())
    return lenient


def check_metrics(metrics: dict, declared: list[dict], positive: bool) -> list[str]:
    errors = []
    for spec in declared:
        name = spec["name"]
        got = metrics.get(name)
        if got is None:
            errors.append(f"{name}: not emitted")
        elif got.get("unit") != spec["unit"]:
            errors.append(f"{name}: unit {got.get('unit')!r}, declared {spec['unit']!r}")
        elif not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            errors.append(f"{name}: value {got.get('value')!r} is not a finite number")
        elif positive and not got["value"] > 0:
            errors.append(f"{name}: value {got['value']} is not positive")
    extra = set(metrics) - {spec["name"] for spec in declared}
    if extra:
        errors.append(f"emitted but not declared: {sorted(extra)}")
    return errors


def check_bare_copy() -> list[str]:
    """The benchmark without the package must fail without a result."""
    bare = os.path.join(run.WORKDIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "price-call", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare copy: exit code {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    os.makedirs(run.WORKDIR, exist_ok=True)
    errors = check_bare_copy()
    for name, workload in WORKLOADS.items():
        small = dataclasses.replace(workload, argv=REDUCED_ARGV[name],
                                    check=unchecked(workload.check))
        timed = run.timed_run(small, seed=0, seconds=1)
        found = check_metrics(timed["metrics"], bench["end_to_end"], positive=True)
        traced = run.traced_run(small, seed=0)
        found += check_metrics(traced["metrics"], bench["per_layer"], positive=False)
        coverage = traced["metrics"]["trace.coverage"]["value"]
        if abs(coverage - 1.0) > COVERAGE_TOL:
            found.append(f"self times cover {coverage:.4f} of the traced run, "
                         f"not within {COVERAGE_TOL} of 1")
        if traced["metrics"]["trace.missing"]["value"]:
            found.append(traced["how"]["trace.missing"])
        print(f"{name}: {'ok' if not found else 'FAILED'} (coverage {coverage:.4f})")
        errors += [f"{name}: {e}" for e in found]
    for error in errors:
        print(f"  {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
