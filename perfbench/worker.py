"""Calls of one workload, in a fresh Python process.

Usage: worker.py MODE SPAWNED ROOT WORKDIR SEEDS -- CLI-ARGS...

MODE is ``setup`` (import the package and build the Scott spec, then
exit), ``run`` (then call ``svschemes.cli.main``), ``trace`` (the same
calls with span tracing on) or ``memory`` (span tracing and tracemalloc
on; tracemalloc is kept out of ``trace`` because it slows
allocation-heavy Python code by a third). SPAWNED is the parent's
``time.perf_counter()`` just before it started this process; both
processes read CLOCK_MONOTONIC, so set-up time counts from process
start. ROOT is the checkout whose ``src`` is imported. SEEDS is a
comma-separated list: one call per seed, ``CLI-ARGS --seed S --out
WORKDIR/call-S.out``. After set-up, after every REFERENCE_EVERY-th call
and after the last call the worker times a fixed numpy kernel
(``reference_s``), so the parent can tell how fast the machine ran
meanwhile. The result is one JSON object on
standard output; spans of a traced run go to WORKDIR/spans.json, written
once at the end.
"""

import json
import os
import resource
import statistics
import sys
import time
import tracemalloc

import numpy as np
from scipy.special import ndtri


REFERENCE_EVERY = 8  # calls between two timings of the kernel


def reference_s(u) -> float:
    """Median time of a fixed numpy kernel: the machine's current speed."""
    times = []
    for _ in range(9):
        started = time.perf_counter()
        np.exp(ndtri(u))
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def main(argv) -> int:
    mode, spawned, root, workdir, seeds = argv[0], float(argv[1]), argv[2], argv[3], argv[4]
    cli_args = argv[argv.index("--") + 1:]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)

    from svschemes import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"svschemes imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    cli.scott_model(cli.benchmark_scott_params())
    result = {"setup_s": time.perf_counter() - spawned, "calls": []}
    u = np.random.Generator(np.random.Philox(0)).random(1_000_000)
    result["reference_s"] = [reference_s(u)]
    if mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if mode in ("trace", "memory"):
        import tracing

        tracer = tracing.Tracer(run_id=f"{' '.join(cli_args)} --seed {seeds}")
        tracer.install()
    if mode == "memory":
        tracemalloc.start()
    calls = seeds.split(",")
    for i, seed in enumerate(calls, 1):
        out = os.path.join(workdir, f"call-{seed}.out")
        started = time.perf_counter()
        code = cli.main(cli_args + ["--seed", seed, "--out", out])
        elapsed = time.perf_counter() - started
        result["calls"].append({"seed": int(seed), "run_s": elapsed, "exit_code": code, "out": out})
        if i % REFERENCE_EVERY == 0 or i == len(calls):
            result["reference_s"].append(reference_s(u))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if mode == "memory":
        result["traced_peak_bytes"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        result["missing"] = tracer.missing
    if mode == "trace":
        tracer.dump(os.path.join(workdir, "spans.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
