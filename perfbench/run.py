"""Benchmark of the svschemes CLI: end-to-end metrics or a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sample is a fresh Python process (``worker.py``) that imports the
package from ``src``, builds the Scott spec and calls
``svschemes.cli.main`` on the workload's arguments, one call after the
other (a closed loop with one client). The call seeds derive from
``--seed``. Every output is checked; a non-zero exit code or a failed
check counts as a failed call.

With ``--trace 0`` the run measures for about ``--seconds`` and reports
the end-to-end metrics of BENCHMARK.json, times at reference speed. With ``--trace 1`` it runs an
untraced, a traced and a memory-traced process on the same seeds and
reports the per-layer metrics. The last line of standard output is the result,
{"correct", "attempted", "failed", "metrics"}; the lines before it say
how each value was taken, which calls failed, and on what machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(HERE, ".work")

SETUP_SAMPLES = 3        # set-up-only processes per timed run
SETUP_EST_S = 0.9        # rough set-up time of one process
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "path_steps_per_s": "1/s", "peak_rss_mb": "MB",
    "var_time": "s", "mlmc_cost": "path-steps",
}

# Times are reported at reference speed: the speed at which the workers'
# fixed numpy kernel (worker.reference_s) takes REFERENCE_S. A run's
# measured times are scaled by REFERENCE_S over the median of all its
# kernel timings. On a shared host the machine's speed drifts by up to
# 40% over minutes, and the kernel's time follows it: see README.md.
REFERENCE_S = 0.020
# Power of the time unit in each metric, for that scaling.
TIME_POWER = {"setup_s": 1, "run_s": 1, "var_time": 1, "path_steps_per_s": -1}


class BenchError(Exception):
    """A worker process failed, so its calls could not be measured."""


def spawn(mode: str, workload: Workload, seeds: list[int]) -> dict:
    """Run one worker process to completion and return its JSON result."""
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), mode, repr(time.perf_counter()),
             ROOT, WORKDIR, ",".join(map(str, seeds)), "--", *workload.argv],
            capture_output=True, text=True, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-1000:]}")
    result = json.loads(lines[-1])
    result["stderr"] = proc.stderr.strip()
    return result


def checked_calls(workload: Workload, result: dict, problems: list[str]) -> list[dict]:
    """The worker's calls whose exit code and output check passed."""
    passed = []
    for call in result["calls"]:
        where = f"seed {call['seed']}"
        if call["exit_code"] != 0:
            problems.append(f"{where}: exit code {call['exit_code']}: {result['stderr'][-300:]}")
            continue
        with open(call["out"]) as fh:
            text = fh.read()
        os.remove(call["out"])
        try:
            outcome = workload.check(text)
        except (KeyError, ValueError) as exc:
            problems.append(f"{where}: output unreadable: {exc!r}")
            continue
        problems.extend(f"{where}: {p}" for p in outcome.problems)
        if outcome.ok:
            passed.append(dict(call, path_steps=outcome.path_steps, rel_var=outcome.rel_var))
    return passed


def plan(workload: Workload, seconds: int) -> int:
    """Number of processes that fills about ``seconds``, at least three."""
    budget = seconds - (SETUP_SAMPLES + 1) * SETUP_EST_S
    per_process = SETUP_EST_S + workload.calls_per_process * workload.call_s
    return max(3, int(budget // per_process))


def call_seeds(seed: int, count: int) -> list[int]:
    return [seed * 1000 + j for j in range(count)]


def describe(values: list[float]) -> str:
    return (f"median {statistics.median(values):.6g} of {len(values)} "
            f"(min {min(values):.6g}, max {max(values):.6g})")


def timed_run(workload: Workload, seed: int, seconds: int) -> dict:
    """End-to-end metrics over fresh processes, times at reference speed.

    Each metric is the median over processes of the process's mean over
    its calls that passed; ``setup_s`` is the median over all processes.
    """
    spawn("setup", workload, [])  # writes bytecode and fills the file cache
    setups = [spawn("setup", workload, []) for _ in range(SETUP_SAMPLES)]
    per = workload.calls_per_process
    seeds = call_seeds(seed, plan(workload, seconds) * per)
    problems: list[str] = []
    measured: dict[str, list[float]] = {name: [] for name in END_TO_END_UNITS}
    passed = 0
    for start in range(0, len(seeds), per):
        batch = seeds[start:start + per]
        try:
            result = spawn("run", workload, batch)
        except BenchError as exc:
            problems.append(f"seeds {batch[0]}..{batch[-1]}: {exc}")
            continue
        setups.append(result)
        calls = checked_calls(workload, result, problems)
        passed += len(calls)
        if not calls:
            continue
        run_s = [c["run_s"] for c in calls]
        measured["run_s"].append(statistics.fmean(run_s))
        measured["path_steps_per_s"].append(sum(c["path_steps"] for c in calls) / sum(run_s))
        measured["peak_rss_mb"].append(result["peak_rss_mb"])
        measured["var_time"].append(statistics.fmean(c["rel_var"] * c["run_s"] for c in calls))
        measured["mlmc_cost"].append(statistics.fmean(c["path_steps"] for c in calls))
    if not passed:
        raise BenchError("no call passed: " + "; ".join(problems[:3]))
    measured["setup_s"] = [s["setup_s"] for s in setups]
    references = [t for s in setups for t in s["reference_s"]]
    scale = REFERENCE_S / statistics.median(references)
    how = {name: f"measured {describe(v)}" for name, v in measured.items()}
    how["reference_s"] = f"kernel {describe(references)}; times scaled by {scale:.4f}"
    return {
        "attempted": len(seeds), "failed": len(seeds) - passed, "problems": problems,
        "metrics": {name: {"value": statistics.median(v) * scale ** TIME_POWER.get(name, 0),
                           "unit": END_TO_END_UNITS[name]}
                    for name, v in measured.items()},
        "how": how,
        "seeds": f"{seeds[0]}..{seeds[-1]}, {per} call(s) per process",
    }


# Units of the per-layer metrics; every other per-layer metric is a time in s.
LAYER_UNITS = {
    "rng.normals": "count", "rng.uniforms": "count", "rng.streams": "count",
    "models.coeff_calls": "count", "models.coeff_evals": "count",
    "schemes.path_steps": "path-steps", "schemes.bytes_per_path_step": "B",
    "coupling.bridge_calls": "count", "mlmc.batches": "count", "mlmc.samples": "count",
    "mlmc.levels": "count", "trace.spans": "count", "trace.missing": "count",
    "trace.coverage": "ratio",
}


def traced_run(workload: Workload, seed: int) -> dict:
    """Per-layer metrics from one traced process, against an untraced twin.

    A third process, traced with tracemalloc on, measures memory.
    """
    seeds = call_seeds(seed, workload.calls_per_process)
    spawn("setup", workload, [])
    problems: list[str] = []
    processes, passed = [], 0
    for mode in ("run", "trace", "memory"):
        processes.append(spawn(mode, workload, seeds))
        passed += len(checked_calls(workload, processes[-1], problems))
    plain, traced, memory = processes
    layers = traced["layers"]
    run_s = sum(c["run_s"] for c in traced["calls"])
    plain_s = sum(c["run_s"] for c in plain["calls"])
    del layers["schemes.largest_factor_batch"]
    largest = memory["layers"]["schemes.largest_factor_batch"]
    layers["schemes.bytes_per_path_step"] = memory["traced_peak_bytes"] / largest if largest else 0.0
    layers["trace.run_s"] = run_s
    layers["trace.untraced_run_s"] = plain_s
    layers["trace.overhead_s"] = run_s - plain_s
    layers["trace.coverage"] = layers.pop("trace.self_sum_s") / run_s
    layers["trace.missing"] = len(traced["missing"])
    how = {"trace.spans": "written to " + os.path.join(os.path.relpath(WORKDIR, ROOT), "spans.json"),
           "trace.missing": "missing: " + ", ".join(traced["missing"]) if traced["missing"] else ""}
    return {
        "attempted": 3 * len(seeds), "failed": 3 * len(seeds) - passed, "problems": problems,
        "metrics": {name: {"value": value, "unit": LAYER_UNITS.get(name, "s")}
                    for name, value in sorted(layers.items())},
        "how": how,
        "seeds": ",".join(map(str, seeds)),
    }


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def _git_commit() -> str:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head.startswith("ref: "):
        return _read(os.path.join(ROOT, ".git", *head[5:].split("/")))
    return head


def provenance(workload: Workload, seed: int) -> dict:
    """Machine, library versions, commit and the workload's arguments."""
    import numpy
    import scipy

    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, index, "level"))
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(os.path.join(base, index, "size"))
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "caches": caches,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": _git_commit(),
        "workload": workload.name, "seed": seed, "argv": list(workload.argv),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "svschemes", "cli.py")):
        print(f"no svschemes source under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    os.makedirs(WORKDIR, exist_ok=True)
    try:
        if args.trace:
            report = traced_run(workload, args.seed)
        else:
            report = timed_run(workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"provenance": provenance(workload, args.seed)}))
    print(f"{workload.name}: calls with seeds {report['seeds']}; "
          f"{report['failed']} of {report['attempted']} failed "
          f"(fail_frac {report['failed'] / report['attempted']:.4g})")
    for problem in report["problems"]:
        print(f"  FAILED {problem}")
    for name, m in report["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}  {report['how'].pop(name, '')}")
    for name, how in report["how"].items():
        print(f"  {name}: {how}")
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
