"""Payoffs, Black-Scholes kernel and conditioning-based call pricing.

Conditionally on the factor path (Y and W draws), every template
scheme leaves the terminal log-asset Gaussian:

    x_T | factor  ~  N(x0 + D, V),   D = sum of drifts,
                                     V = delta * sum of squared multipliers.

The expected call payoff given the factor path is therefore a closed
Black-Scholes formula, which removes all the B-noise from the
estimator (Romano-Touzi conditioning). CMT admits no such form and is
priced by ``plain_call``, plain Monte Carlo on its terminal values. Each
price streams its per-path values, chunk by chunk, into ``LevelStats``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from ._parallel import map_blocks
from .coupling import coupling_start, level_sums, level_variances
from .errors import InvalidParameterError, NumericalError
from .models import VolModelSpec
from .rng import PATH_BLOCK, RngStream, block_chunks
from .schemes import SchemeKind, advance_blocks, require_template, simulate_terminal


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
    mean and sum of squared deviations (M2) are combined with the running
    ones, so the variance takes no difference of large sums, and samples
    added in whole path blocks give the same bytes however the calls split
    them.
    """

    level: int = 0
    n: int = 0
    mean: float = 0.0
    m2: float = 0.0
    batches: int = 0

    def add(self, samples: np.ndarray):
        for start in range(0, samples.size, PATH_BLOCK):
            block = samples[start:start + PATH_BLOCK]
            count = block.size
            block_mean = float(block.mean())
            block_m2 = float(np.square(block - block_mean).sum())
            total = self.n + count
            delta = block_mean - self.mean
            self.mean += delta * count / total
            self.m2 += block_m2 + delta * delta * self.n * count / total
            self.n = total

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
    factor-side noise. With ``depth`` > 0 the draws are priced on the
    n_steps grid and on each of its first ``depth`` halvings, one row per
    grid, finest first; the halvings of an OU-backed spec read the node
    table of the n_steps grid.
    """
    require_template(kind)
    sums = advance_blocks(spec, (kind,), n_steps, rng,
                          coupling_start(spec, kind, npaths, levels=depth + 1),
                          lambda _, draws, carry: level_sums(spec, kind, draws, carry),
                          reads=(), multiple=2 ** max(depth, 1), first=first)

    def values(cols):
        total_var = level_variances(spec.T / n_steps, sums[..., cols])
        spot_eff = spec.s0 * np.exp(sums[:, 0, cols] + 0.5 * total_var - spec.r * spec.T)
        return bs_call(spot_eff, total_var, spec.r, spec.T, strike)

    out = np.concatenate(map_blocks(values, npaths, rows=depth + 1), axis=1)
    return out if depth else out[0]


def _mc_estimate(stats: LevelStats) -> PriceEstimate:
    """The price of a stream's running moments; it needs two samples or more."""
    value, stderr = stats.mean, stats.stderr
    if not (math.isfinite(value) and math.isfinite(stderr)):
        raise NumericalError(f"estimate {value} with stderr {stderr} is not finite")
    return PriceEstimate(value=value, stderr=stderr, npaths=stats.n)


def chunked_estimate(values, npaths: int, chunk_paths: int = 250_000) -> PriceEstimate:
    """Monte Carlo estimate from the per-path ``values(first, size)`` of the
    chunks of whole path blocks (``rng.block_chunks``), each merged into one
    ``LevelStats`` before the next is drawn: the chunk size bounds memory and
    does not change the result."""
    if npaths < 1:
        raise InvalidParameterError(f"need at least one path, got {npaths}")
    stats = LevelStats()
    for first, size in block_chunks(npaths, chunk_paths):
        stats.add(values(first, size))
    return _mc_estimate(stats)


def romano_touzi_call(spec: VolModelSpec, kind: SchemeKind, n_steps: int, strike: float,
                      rng: RngStream, npaths: int,
                      chunk_paths: int = 250_000) -> PriceEstimate:
    """Conditioning-based call price (``plain_call`` for CMT), simulated in
    chunks of about ``chunk_paths`` paths (``chunked_estimate``)."""
    if kind is SchemeKind.CMT:
        return plain_call(spec, kind, n_steps, strike, rng, npaths, chunk_paths)

    def values(first, size):
        return conditional_call_values(spec, kind, n_steps, strike, rng, size, first=first)

    return chunked_estimate(values, npaths, chunk_paths)


def plain_call(spec: VolModelSpec, kind: SchemeKind, n_steps: int, strike: float,
               rng: RngStream, npaths: int,
               chunk_paths: int = 250_000) -> PriceEstimate:
    """Unconditioned call price from the terminal values of ``simulate_terminal``."""
    def values(first, size):
        x_terminal = simulate_terminal(kind, spec, n_steps, rng, size, first)
        return discounted_call_payoff(spec, x_terminal, strike)

    return chunked_estimate(values, npaths, chunk_paths)
