"""The benchmark's workloads: CLI argument lists, work counts and output checks.

Why each workload was chosen is recorded in BENCHMARK.json and README.md.

Each workload is one closed-loop call of ``svschemes.cli.main(argv)``:
the next call starts only after the previous one has returned. The
reference values below are copies, not imports, so that a change to
the package cannot move the yardstick it is measured with.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# BENCHMARK_CALL_PRICE of svschemes.analysis: converged at-the-money call
# price of the benchmark Scott model.
CALL_REFERENCE = 12.82603
CALL_TOL = 0.01
CALL_PATHS = 1_000_000

# STRONG_TARGETS and SLOPE_TOL of the acceptance suite (criterion 1).
STRONG_TARGETS = {
    "weaktraj1": -1.01, "weak2": -0.88, "ou-improved": -0.94,
    "ijk": -0.92, "cmt": -0.98, "euler": -0.84,
}
SLOPE_TOL = 0.2
CONV_STEPS = 256
CONV_PATHS = 10_000
CONV_LADDER = tuple(2**k for k in range(1, 9))  # 2, 4, ..., CONV_STEPS

# Lookback price under the benchmark Scott model, from repeated MLMC
# runs at epsilon 0.02 (22.713 to 22.761). The tolerance is five RMS
# targets, as 0.1 is at epsilon 0.02.
LOOKBACK_REFERENCE = 22.74
LOOKBACK_EPSILON = 0.1
LOOKBACK_TOL = 5 * LOOKBACK_EPSILON


@dataclass(frozen=True)
class Outcome:
    """What one CLI call produced, reduced to the benchmark's quantities."""

    ok: bool
    problems: tuple[str, ...]
    path_steps: float      # fine plus coarse scheme path-steps of the estimate
    rel_var: float         # squared relative standard error of the estimate


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    call_s: float            # rough wall time of one call on a 2-core Xeon
    calls_per_process: int   # calls made by one fresh process
    check: Callable[[str], Outcome]


def _finite_positive(x: float) -> bool:
    return math.isfinite(x) and x > 0


def check_price_call(text: str) -> Outcome:
    out = json.loads(text)
    value, stderr, paths = float(out["value"]), float(out["stderr"]), int(out["paths"])
    problems = []
    if abs(value - CALL_REFERENCE) > CALL_TOL:
        problems.append(f"call price {value:.6f} not within {CALL_TOL} of {CALL_REFERENCE}")
    if paths != CALL_PATHS:
        problems.append(f"paths {paths} != {CALL_PATHS}")
    if not _finite_positive(stderr):
        problems.append(f"stderr {stderr} not finite and positive")
    steps = int(out["steps"])
    return Outcome(not problems, tuple(problems), float(steps * paths), (stderr / value) ** 2)


def _slope(ns, values) -> float:
    return float(np.polyfit(np.log(ns), np.log(values), 1)[0])


def check_conv_ladder(text: str) -> Outcome:
    rows = list(csv.DictReader(io.StringIO(text)))
    problems = []
    expected = len(STRONG_TARGETS) * len(CONV_LADDER) * 2
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    values = [float(r["value"]) for r in rows]
    stderrs = [float(r["stderr"]) for r in rows]
    rel_var = math.nan
    if not all(_finite_positive(v) for v in values + stderrs):
        problems.append("a value or stderr is not finite and positive")
    else:
        rel_var = float(np.median([(s / v) ** 2 for s, v in zip(stderrs, values)]))
        for scheme, target in STRONG_TARGETS.items():
            for metric in ("log_sq_err", "asset_sq_err"):
                picked = [r for r in rows if r["scheme"] == scheme and r["metric"] == metric]
                if len(picked) < 2:
                    problems.append(f"{scheme}/{metric}: {len(picked)} rows")
                    continue
                slope = _slope([int(r["N"]) for r in picked], [float(r["value"]) for r in picked])
                if abs(slope - target) > SLOPE_TOL:
                    problems.append(f"{scheme}/{metric}: slope {slope:.3f} vs {target} +/- {SLOPE_TOL}")
    path_steps = float(sum(3 * n for n in CONV_LADDER) * CONV_PATHS * len(STRONG_TARGETS))
    return Outcome(not problems, tuple(problems), path_steps, rel_var)


def check_mlmc_lookback(text: str) -> Outcome:
    rows = {r["metric"]: r for r in csv.DictReader(io.StringIO(text))}
    problems = []
    price = float(rows["price"]["value"])
    stderr = float(rows["price"]["stderr"])
    cost = float(rows["total_cost"]["value"])
    if abs(price - LOOKBACK_REFERENCE) > LOOKBACK_TOL:
        problems.append(f"lookback price {price:.4f} not within {LOOKBACK_TOL} of {LOOKBACK_REFERENCE}")
    if not 0 < stderr <= LOOKBACK_EPSILON:
        problems.append(f"stderr {stderr} not in (0, {LOOKBACK_EPSILON}]")
    if not cost > 0:
        problems.append(f"total_cost {cost} not positive")
    return Outcome(not problems, tuple(problems), cost, (stderr / price) ** 2)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "price-call",
            ("price", "--scheme", "weak2", "--steps", "8", "--paths", str(CALL_PATHS),
             "--strike", "100"),
            1.3, 1, check_price_call,
        ),
        Workload(
            "conv-ladder",
            ("strong-conv", "--steps", str(CONV_STEPS), "--paths", str(CONV_PATHS)),
            8.7, 1, check_conv_ladder,
        ),
        Workload(
            "mlmc-lookback",
            ("mlmc", "--scheme", "weaktraj1", "--payoff", "lookback",
             "--epsilon", str(LOOKBACK_EPSILON)),
            0.13, 40, check_mlmc_lookback,
        ),
    )
}
