"""Payoffs, Black-Scholes kernel and conditioning-based call pricing.

Conditionally on the factor path (Y and W draws), every template
scheme leaves the terminal log-asset Gaussian:

    x_T | factor  ~  N(x0 + D, V),   D = sum of drifts,
                                     V = delta * sum of squared multipliers.

The expected call payoff given the factor path is therefore a closed
Black-Scholes formula, which removes all the B-noise from the
estimator (Romano-Touzi conditioning). CMT admits no such form and is
priced by ``plain_call``, plain Monte Carlo on its terminal values. Each
price is one pass over the path-parallel pool (``chunked_estimate``): every
item carries its own paths from their first draw to the moments of their
path blocks, which are merged into one ``LevelStats``; a batch of conditional
call values is priced in its items' last step block, in the same pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from ._parallel import column_blocks, map_tasks
from .coupling import coupling_start, level_sums, level_variances
from .errors import InvalidParameterError, NumericalError
from .models import VolModelSpec
from .rng import PATH_BLOCK, RngStream
from .schemes import (SchemeKind, advance_blocks, block_steps, require_template,
                      simulate_terminal)


@dataclass
class PriceEstimate:
    """Monte Carlo price with its standard error and sample size."""

    value: float
    stderr: float
    npaths: int

    def ci(self, z: float = 1.96) -> tuple[float, float]:
        return self.value - z * self.stderr, self.value + z * self.stderr


@dataclass
class LevelStats:
    """Running moments of a sample stream: per-path prices or level corrections.

    Samples are merged one path block (``rng.PATH_BLOCK`` samples) at a
    time by the pairwise update of Chan, Golub and LeVeque: each block's
    count, mean and sum of squared deviations (M2, ``block_moments``) are
    combined with the running ones (``merge``), so the variance takes no
    difference of large sums, and samples added in whole path blocks give
    the same bytes however the calls split them. The moments of a block
    can be taken where its samples are computed, and merged later in path
    order (``path_moments``).
    """

    level: int = 0
    n: int = 0
    mean: float = 0.0
    m2: float = 0.0
    batches: int = 0

    @staticmethod
    def block_moments(samples: np.ndarray) -> list[tuple[int, float, float]]:
        """(count, mean, M2) of each path block of ``samples``, in order."""
        moments = []
        for start in range(0, samples.size, PATH_BLOCK):
            block = samples[start:start + PATH_BLOCK]
            block_mean = float(block.mean())
            moments.append((block.size, block_mean, float(np.square(block - block_mean).sum())))
        return moments

    def merge(self, moments):
        """Merge the (count, mean, M2) of ``block_moments``, in order."""
        for count, block_mean, block_m2 in moments:
            total = self.n + count
            delta = block_mean - self.mean
            self.mean += delta * count / total
            self.m2 += block_m2 + delta * delta * self.n * count / total
            self.n = total

    def add(self, samples: np.ndarray):
        self.merge(self.block_moments(samples))

    @property
    def variance(self) -> float:
        if self.n < 2:
            raise InvalidParameterError("need at least two samples for a variance")
        return self.m2 / (self.n - 1)

    @property
    def stderr(self) -> float:
        return math.sqrt(self.variance / self.n)


def bs_call(s, total_var, r: float, maturity: float, strike: float):
    """Black-Scholes call price from spot and total variance sigma^2*T.

    Zero total variance collapses to the intrinsic value of the forward,
    max(s - K*e^{-rT}, 0); a zero strike returns the spot.
    """
    if strike < 0:
        raise InvalidParameterError(f"strike must be nonnegative, got {strike}")
    if maturity < 0:
        raise InvalidParameterError(f"maturity must be nonnegative, got {maturity}")
    s = np.asarray(s, dtype=float)
    total_var = np.asarray(total_var, dtype=float)
    if np.any(s < 0) or np.any(total_var < 0):
        raise InvalidParameterError("spot and total variance must be nonnegative")
    discounted_strike = strike * math.exp(-r * maturity)
    if strike == 0.0:
        return s + 0.0 * total_var
    intrinsic = np.maximum(s - discounted_strike, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt(total_var)
        d1 = (np.log(s / strike) + r * maturity + 0.5 * total_var) / root
        d2 = d1 - root
        price = s * ndtr(d1) - discounted_strike * ndtr(d2)
    degenerate = (total_var == 0.0) | (s == 0.0)
    out = np.where(degenerate, intrinsic, price)
    return float(out) if out.ndim == 0 else out


def call_payoff(spot, strike: float):
    """Undiscounted call payoff."""
    return np.maximum(np.asarray(spot, dtype=float) - strike, 0.0)


def discounted_call_payoff(spec: VolModelSpec, x_terminal, strike: float):
    """Discounted call payoff from terminal log-asset values."""
    return math.exp(-spec.r * spec.T) * call_payoff(np.exp(x_terminal), strike)


def conditional_call_values(spec: VolModelSpec, kind: SchemeKind, n_steps: int,
                            strike: float, rng: RngStream, npaths: int,
                            depth: int = 0, first: int = 0) -> np.ndarray:
    """Per-path conditional call prices given factor draws from ``rng``, for
    the ``npaths`` paths from path block ``first`` on.

    Each value is bs_call(s0*e^{D + V/2 - rT}, V) with (D, V) the
    accumulated drift and conditional variance of the scheme
    (``coupling.level_sums``), so the spread across paths carries only the
    factor-side noise. The batch is one ``advance_blocks`` pass: each item
    prices its paths in its last step block, writing the values over the
    log-asset row of its carry. With ``depth`` > 0 the draws are priced on
    the n_steps grid and on each of its first ``depth`` halvings, one row
    per grid, finest first; the halvings of an OU-backed spec read the node
    table of the n_steps grid.
    """
    require_template(kind)

    def advance(k0, draws, carry):
        level_sums(spec, kind, draws, carry)
        if k0 + draws.dW.shape[0] == n_steps:
            total_var = level_variances(draws.delta, carry)
            spot_eff = spec.s0 * np.exp(carry[:, 0] + 0.5 * total_var - spec.r * spec.T)
            carry[:, 0] = bs_call(spot_eff, total_var, spec.r, spec.T, strike)

    values = advance_blocks(spec, (kind,), n_steps, rng,
                            coupling_start(spec, kind, npaths, levels=depth + 1), advance,
                            reads=(), multiple=2 ** max(depth, 1), first=first)[:, 0]
    return values if depth else values[0]


def _mc_estimate(stats: LevelStats) -> PriceEstimate:
    """The price of a stream's running moments; it needs two samples or more."""
    value, stderr = stats.mean, stats.stderr
    if not (math.isfinite(value) and math.isfinite(stderr)):
        raise NumericalError(f"estimate {value} with stderr {stderr} is not finite")
    return PriceEstimate(value=value, stderr=stderr, npaths=stats.n)


def path_moments(values, npaths: int) -> list[LevelStats]:
    """Running moments of each per-path row of ``values(first, size)`` over
    a run of ``npaths`` paths, in one pass over the path-parallel pool.

    The items are the column blocks of whole path blocks that
    ``schemes.advance_blocks`` cuts for a full step block of the run
    (``_parallel.column_blocks``). Each item computes the rows of its
    ``size`` paths from path block ``first`` on, its nested work inline,
    and returns each row's ``LevelStats.block_moments``, merged row by row
    in item order. Memory is that of the items in flight plus three floats
    per path block and row, and the result is the same bytes for any item
    cut and any number of CPUs.
    """
    if npaths < 1:
        raise InvalidParameterError(f"need at least one path, got {npaths}")
    steps = block_steps(npaths)

    def moments(cols):
        return [LevelStats.block_moments(row)
                for row in values(cols.start // PATH_BLOCK, cols.stop - cols.start)]

    items = map_tasks(moments, column_blocks(npaths, steps, PATH_BLOCK), steps * npaths)
    stats = [LevelStats() for _ in items[0]]
    for item in items:
        for row_stats, row_moments in zip(stats, item):
            row_stats.merge(row_moments)
    return stats


def chunked_estimate(values, npaths: int) -> PriceEstimate:
    """Monte Carlo estimate of the per-path ``values(first, size)`` of a run
    of ``npaths`` paths: the one-row case of ``path_moments``."""
    (stats,) = path_moments(lambda first, size: (values(first, size),), npaths)
    return _mc_estimate(stats)


def romano_touzi_call(spec: VolModelSpec, kind: SchemeKind, n_steps: int, strike: float,
                      rng: RngStream, npaths: int) -> PriceEstimate:
    """Conditioning-based call price (``plain_call`` for CMT), in one pool
    pass (``chunked_estimate``)."""
    if kind is SchemeKind.CMT:
        return plain_call(spec, kind, n_steps, strike, rng, npaths)

    def values(first, size):
        return conditional_call_values(spec, kind, n_steps, strike, rng, size, first=first)

    return chunked_estimate(values, npaths)


def plain_call(spec: VolModelSpec, kind: SchemeKind, n_steps: int, strike: float,
               rng: RngStream, npaths: int) -> PriceEstimate:
    """Unconditioned call price from the terminal values of ``simulate_terminal``."""
    def values(first, size):
        x_terminal = simulate_terminal(kind, spec, n_steps, rng, size, first)
        return discounted_call_payoff(spec, x_terminal, strike)

    return chunked_estimate(values, npaths)
