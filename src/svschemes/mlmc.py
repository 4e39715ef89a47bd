"""Multilevel Monte Carlo driver and level samplers.

The estimator telescopes over grids of BASE_STEPS * 2^l steps with
refinement factor 2. A level sampler maps (level, rng, n) to n
independent samples of the level-l correction: the plain functional at
level 0, the coupled fine-minus-coarse difference above. Sample counts
follow the usual variance/cost allocation

    N_l = ceil(2 * eps^-2 * sqrt(V_l / C_l) * sum_j sqrt(V_j * C_j))

after Giles (Acta Numerica 24, 2015, section 3): levels 0 to 2 start
from the probe samples; a level above them starts from its allocation,
its variance extrapolated from the one below by the regressed variance
decay rate beta. The allocation is redone until no level is more than
1% short of its N_l. Levels are added until the regressed weak-decay
rate alpha (floored at 1/2) certifies

    max(|mean_L|, |mean_{L-1}| / 2^alpha) / (2^alpha - 1) < eps / sqrt(2),

the second term from level 2 up.

Costs are counted as simulated fine plus coarse steps per sample:
BASE_STEPS at level 0, 3 * BASE_STEPS * 2^(l-1) above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .coupling import coupled_lookback_levels, lookback_single_level
from .errors import BudgetExceededError, InvalidParameterError, NumericalError
from .models import VolModelSpec
from .pricing import LevelStats, conditional_call_values
from .rng import RngStream
from .schemes import SchemeKind, require_template

LevelSampler = Callable[[int, RngStream, int], np.ndarray]

# Steps of the level-0 grid; level l has BASE_STEPS * 2^l. The samplers'
# grids and MlmcConfig.cost_per_sample both read it.
BASE_STEPS = 2

# Most samples a level draws in one sampler call, each call on its own
# child stream.
BATCH_PATHS = 100_000

# Levels 0 to PROBE_LEVELS - 1 start from MlmcConfig.initial_samples; a
# level above them starts from its allocation.
PROBE_LEVELS = 3

# Most path-steps an allocation may project: one to four hours at the 7e6 to
# 2.5e7 path-steps a second of the benchmark workloads on a 2-core Xeon.
MAX_COST = 1e11


@dataclass(frozen=True)
class MlmcConfig:
    """Tuning knobs of the multilevel driver."""

    epsilon: float
    max_level: int
    initial_samples: int = 10_000

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise InvalidParameterError(f"epsilon must be finite and positive, got {self.epsilon}")
        if self.max_level < 1:
            raise InvalidParameterError(f"max_level must be >= 1, got {self.max_level}")
        if self.initial_samples < 2:
            raise InvalidParameterError("initial_samples must be >= 2")

    def cost_per_sample(self, level: int) -> float:
        if level == 0:
            return float(BASE_STEPS)
        return 3.0 * BASE_STEPS * 2 ** (level - 1)


@dataclass
class MlmcResult:
    """Multilevel estimate with its per-level accounting."""

    value: float
    stderr: float
    epsilon: float
    levels: list[LevelStats] = field(default_factory=list)
    total_cost: float = 0.0
    alpha: float = 0.5
    bias_bound: float = 0.0


def _draw_into(stats: LevelStats, sampler: LevelSampler, rng: RngStream, target: int):
    while stats.n < target:
        size = min(BATCH_PATHS, target - stats.n)
        batch_rng = rng.child("level", stats.level, "batch", stats.batches)
        stats.add(np.asarray(sampler(stats.level, batch_rng, size), dtype=float))
        stats.batches += 1


def _check_cost(cost: float, what: str):
    """Raise BudgetExceededError if ``cost`` path-steps exceed MAX_COST."""
    if cost > MAX_COST:
        raise BudgetExceededError(f"{what}: {cost:.3g} path-steps, above {MAX_COST:.3g}")


def _probe(sampler: LevelSampler, config: MlmcConfig, stats: list[LevelStats],
           rng: RngStream, level: int) -> LevelStats:
    """Level ``level`` with its config.initial_samples probe samples drawn.
    Raises BudgetExceededError first if they would take the cost of the
    samples drawn so far above MAX_COST."""
    _check_cost(sum(s.n * config.cost_per_sample(s.level) for s in stats)
                + config.initial_samples * config.cost_per_sample(level),
                f"cost with the probe samples of level {level}")
    probed = LevelStats(level=level)
    _draw_into(probed, sampler, rng, config.initial_samples)
    return probed


def _decay_rate(stats: list[LevelStats], moment: Callable[[LevelStats], float]) -> float:
    """Decay exponent of a level moment: minus the slope of log2 moment(l)
    regressed on l over the levels from 1 up that hold samples, floored
    at 1/2."""
    pts = [(s.level, moment(s)) for s in stats if s.level >= 1 and s.n >= 2]
    pts = [(l, m) for l, m in pts if m > 0]
    if len(pts) < 2:
        return 0.5
    slope = np.polyfit([l for l, _ in pts], np.log2([m for _, m in pts]), 1)[0]
    return max(-float(slope), 0.5)


def _variances(stats: list[LevelStats]) -> list[float]:
    """Level variances for the allocation.

    A level above the probe levels holds no samples when it is added: its
    variance is the level below's divided by 2^beta, beta regressed over
    the levels that hold samples. Once it has samples its estimate is kept
    from falling below half that extrapolation, as a few samples may put it.
    """
    beta = _decay_rate(stats, lambda s: s.variance)
    out: list[float] = []
    for s in stats:
        if s.level < PROBE_LEVELS:
            out.append(s.variance)
            continue
        extrapolated = out[-1] / 2.0**beta
        out.append(extrapolated if s.n < 2 else max(s.variance, 0.5 * extrapolated))
    return out


def _sample_target(config: MlmcConfig, level: int, variance: float, total_work: float) -> int:
    """N_l of the variance/cost allocation, at least two samples.

    Raises NumericalError when the target is not finite, as when
    epsilon^2 underflows.
    """
    eps2 = config.epsilon**2
    needed = math.inf if eps2 == 0.0 else 2.0 / eps2 * math.sqrt(
        variance / config.cost_per_sample(level)
    ) * total_work
    if not math.isfinite(needed):
        raise NumericalError(f"sample target {needed} at level {level} is not finite "
                             f"(epsilon {config.epsilon:.3g})")
    return max(2, math.ceil(needed))


def _allocate(sampler: LevelSampler, config: MlmcConfig, stats: list[LevelStats],
              rng: RngStream) -> bool:
    """Draw each level that is more than 1% short of its N_l up to it; True
    if one was, so that the allocation is to be redone on the new variances.
    Raises BudgetExceededError first if the N_l cost more than MAX_COST."""
    variances = _variances(stats)
    total_work = sum(math.sqrt(v * config.cost_per_sample(s.level))
                     for s, v in zip(stats, variances))
    targets = [_sample_target(config, s.level, v, total_work) for s, v in zip(stats, variances)]
    _check_cost(sum(max(t, s.n) * config.cost_per_sample(s.level)
                    for s, t in zip(stats, targets)), "projected cost")
    short = [(s, t) for s, t in zip(stats, targets) if t > 1.01 * s.n]
    for s, target in short:
        _draw_into(s, sampler, rng, target)
    return bool(short)


def mlmc_estimate(sampler: LevelSampler, config: MlmcConfig, rng: RngStream) -> MlmcResult:
    """Run the adaptive multilevel loop until the bias test passes.

    Raises BudgetExceededError if the bias criterion still fails with
    the finest level at config.max_level, or, before drawing them, if
    probe samples or an allocation would cost more than MAX_COST.
    """
    stats: list[LevelStats] = []
    for level in range(2):
        stats.append(_probe(sampler, config, stats, rng, level))

    while True:
        while _allocate(sampler, config, stats, rng):
            pass
        alpha = _decay_rate(stats, lambda s: abs(s.mean))
        finest = abs(stats[-1].mean)
        if stats[-1].level >= 2:
            finest = max(finest, abs(stats[-2].mean) / 2.0**alpha)
        remaining_bias = finest / (2.0**alpha - 1.0)
        if remaining_bias < config.epsilon / math.sqrt(2.0):
            break
        if stats[-1].level >= config.max_level:
            raise BudgetExceededError(
                f"bias test still failing at max level {config.max_level} "
                f"(remaining bias {remaining_bias:.3g} vs "
                f"{config.epsilon / math.sqrt(2.0):.3g})"
            )
        level = stats[-1].level + 1
        stats.append(_probe(sampler, config, stats, rng, level) if level < PROBE_LEVELS
                     else LevelStats(level=level))

    value = sum(s.mean for s in stats)
    stderr = math.sqrt(sum(s.variance / s.n for s in stats))
    cost = sum(s.n * config.cost_per_sample(s.level) for s in stats)
    return MlmcResult(
        value=value, stderr=stderr, epsilon=config.epsilon,
        levels=stats, total_cost=cost, alpha=alpha, bias_bound=remaining_bias,
    )


def call_level_sampler(spec: VolModelSpec, kind: SchemeKind, strike: float) -> LevelSampler:
    """Level sampler for the call under terminal coupling with conditioning.

    Both levels share the factor draws and each contributes its
    conditional Black-Scholes value, so the closing Gaussian is
    integrated out exactly at every level.
    """
    require_template(kind)

    def sampler(level: int, rng: RngStream, n: int) -> np.ndarray:
        values = conditional_call_values(spec, kind, BASE_STEPS * 2**level, strike, rng, n,
                                         depth=min(level, 1))
        return values[0] - values[1] if level else values

    return sampler


def lookback_level_sampler(spec: VolModelSpec, kind: SchemeKind) -> LevelSampler:
    """Level sampler for the lookback with bridge-interpolated minima."""
    require_template(kind)

    def sampler(level: int, rng: RngStream, n: int) -> np.ndarray:
        if level == 0:
            return lookback_single_level(spec, kind, BASE_STEPS, rng, n)
        pair = coupled_lookback_levels(spec, kind, BASE_STEPS * 2 ** (level - 1), rng, n)
        return pair[0] - pair[1]

    return sampler
