"""Multilevel Monte Carlo driver and level samplers.

The estimator telescopes over grids of base_steps * 2^l steps with
refinement factor 2. A level sampler maps (level, rng, n) to n
independent samples of the level-l correction: the plain functional at
level 0, the coupled fine-minus-coarse difference above. Sample counts
follow the usual variance/cost allocation

    N_l = ceil(2 * eps^-2 * sqrt(V_l / C_l) * sum_j sqrt(V_j * C_j))

and levels are added until the regressed weak-decay rate alpha
(floored at 1/2) certifies |mean_L| / (2^alpha - 1) < eps / sqrt(2).

Costs are counted as simulated fine plus coarse steps per sample:
base_steps at level 0, 3 * base_steps * 2^(l-1) above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .coupling import coupled_lookback_levels, lookback_single_level
from .errors import BudgetExceededError, InvalidParameterError, NumericalError
from .models import VolModelSpec
from .pricing import call_values_from_draws
from .rng import RngStream
from .schemes import SchemeKind, factor_blocks

LevelSampler = Callable[[int, RngStream, int], np.ndarray]


@dataclass(frozen=True)
class MlmcConfig:
    """Tuning knobs of the multilevel driver."""

    epsilon: float
    max_level: int
    base_steps: int = 2
    initial_samples: int = 10_000
    batch_paths: int = 100_000

    def __post_init__(self):
        if not self.epsilon > 0:
            raise InvalidParameterError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_level < 1:
            raise InvalidParameterError(f"max_level must be >= 1, got {self.max_level}")
        if self.base_steps < 1:
            raise InvalidParameterError(f"base_steps must be >= 1, got {self.base_steps}")
        if self.initial_samples < 2:
            raise InvalidParameterError("initial_samples must be >= 2")

    def cost_per_sample(self, level: int) -> float:
        if level == 0:
            return float(self.base_steps)
        return 3.0 * self.base_steps * 2 ** (level - 1)


@dataclass
class LevelStats:
    """Running moments of a sample stream, here the level-l corrections."""

    level: int = 0
    n: int = 0
    total: float = 0.0
    total_sq: float = 0.0
    batches: int = 0

    def add(self, samples: np.ndarray):
        self.n += samples.size
        self.total += float(samples.sum())
        self.total_sq += float(np.square(samples).sum())

    @property
    def mean(self) -> float:
        return self.total / self.n

    @property
    def variance(self) -> float:
        if self.n < 2:
            raise InvalidParameterError("need at least two samples for a variance")
        centered = self.total_sq - self.total**2 / self.n
        return max(centered / (self.n - 1), 0.0)

    @property
    def stderr(self) -> float:
        return math.sqrt(self.variance / self.n)


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


def _draw_into(stats: LevelStats, sampler: LevelSampler, rng: RngStream,
               target: int, batch_paths: int):
    while stats.n < target:
        size = min(batch_paths, target - stats.n)
        batch_rng = rng.child("level", stats.level, "batch", stats.batches)
        stats.add(np.asarray(sampler(stats.level, batch_rng, size), dtype=float))
        stats.batches += 1


def _regress_alpha(levels: list[LevelStats]) -> float:
    """Weak-decay exponent from log2 |mean_l| against l over the last three
    levels, floored at 1/2."""
    pts = [(s.level, abs(s.mean)) for s in levels if s.level >= 1 and abs(s.mean) > 0]
    pts = pts[-3:]
    if len(pts) < 2:
        return 0.5
    xs = np.array([p[0] for p in pts], dtype=float)
    ys = np.log2([p[1] for p in pts])
    slope = np.polyfit(xs, ys, 1)[0]
    return max(-float(slope), 0.5)


def _sample_target(config: MlmcConfig, stats: LevelStats, total_work: float) -> int:
    """N_l of the variance/cost allocation, at least the initial samples.

    Raises NumericalError when the target is not finite, as when
    epsilon^2 underflows.
    """
    eps2 = config.epsilon**2
    needed = math.inf if eps2 == 0.0 else 2.0 / eps2 * math.sqrt(
        stats.variance / config.cost_per_sample(stats.level)
    ) * total_work
    if not math.isfinite(needed):
        raise NumericalError(f"sample target {needed} at level {stats.level} is not finite "
                             f"(epsilon {config.epsilon:.3g})")
    return max(config.initial_samples, math.ceil(needed))


def mlmc_estimate(sampler: LevelSampler, config: MlmcConfig, rng: RngStream) -> MlmcResult:
    """Run the adaptive multilevel loop until the bias test passes.

    Raises BudgetExceededError if the bias criterion still fails with
    the finest level at config.max_level.
    """
    stats = [LevelStats(level=l) for l in range(2)]
    for s in stats:
        _draw_into(s, sampler, rng, config.initial_samples, config.batch_paths)

    while True:
        total_work = sum(
            math.sqrt(s.variance * config.cost_per_sample(s.level)) for s in stats
        )
        for s in stats:
            _draw_into(s, sampler, rng, _sample_target(config, s, total_work),
                       config.batch_paths)

        alpha = _regress_alpha(stats)
        remaining_bias = abs(stats[-1].mean) / (2.0**alpha - 1.0)
        if remaining_bias < config.epsilon / math.sqrt(2.0):
            break
        if stats[-1].level >= config.max_level:
            raise BudgetExceededError(
                f"bias test still failing at max level {config.max_level} "
                f"(remaining bias {remaining_bias:.3g} vs "
                f"{config.epsilon / math.sqrt(2.0):.3g})"
            )
        nxt = LevelStats(level=stats[-1].level + 1)
        _draw_into(nxt, sampler, rng, config.initial_samples, config.batch_paths)
        stats.append(nxt)

    value = sum(s.mean for s in stats)
    stderr = math.sqrt(sum(s.variance / s.n for s in stats))
    cost = sum(s.n * config.cost_per_sample(s.level) for s in stats)
    return MlmcResult(
        value=value, stderr=stderr, epsilon=config.epsilon,
        levels=stats, total_cost=cost, alpha=alpha, bias_bound=remaining_bias,
    )


def call_level_sampler(spec: VolModelSpec, kind: SchemeKind, strike: float,
                       base_steps: int = 2, cutoff: str = "floor") -> LevelSampler:
    """Level sampler for the call under terminal coupling with conditioning.

    Both levels share the factor draws and each contributes its
    conditional Black-Scholes value, so the closing Gaussian is
    integrated out exactly at every level.
    """
    if kind is SchemeKind.CMT:
        raise InvalidParameterError("CMT admits no conditional-Gaussian terminal law")

    def sampler(level: int, rng: RngStream, n: int) -> np.ndarray:
        blocks = factor_blocks(spec, kind, base_steps * 2**level, rng.child("y"), n)
        levels = (0, 1) if level else (0,)
        values = call_values_from_draws(spec, kind, blocks, strike, cutoff, levels)
        return values[0] - values[1] if level else values[0]

    return sampler


def lookback_level_sampler(spec: VolModelSpec, kind: SchemeKind,
                           base_steps: int = 2, cutoff: str = "floor") -> LevelSampler:
    """Level sampler for the lookback with bridge-interpolated minima."""
    if kind is SchemeKind.CMT:
        raise InvalidParameterError("CMT supports no coupled lookback levels")

    def sampler(level: int, rng: RngStream, n: int) -> np.ndarray:
        if level == 0:
            return lookback_single_level(spec, kind, base_steps, rng, n, cutoff)
        pair = coupled_lookback_levels(spec, kind, base_steps * 2 ** (level - 1), rng, n, cutoff)
        return pair.fine - pair.coarse

    return sampler
