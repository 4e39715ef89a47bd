"""Payoffs, Black-Scholes kernel and conditioning-based call pricing.

Conditionally on the factor path (Y and W draws), every template
scheme leaves the terminal log-asset Gaussian:

    x_T | factor  ~  N(x0 + D, V),   D = sum of drifts,
                                     V = delta * sum of squared multipliers.

The expected call payoff given the factor path is therefore a closed
Black-Scholes formula, which removes all the B-noise from the
estimator (Romano-Touzi conditioning). CMT admits no such form and is
priced by plain Monte Carlo on the simulated paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from ._parallel import map_blocks
from .errors import InvalidParameterError, NumericalError
from .models import VolModelSpec
from .rng import RngStream
from .schemes import (
    SchemeKind,
    add_step_sums,
    cmt_paths,
    coarsen_factor_draws,
    draw_brownian_increments,
    drift_and_mult,
    factor_blocks,
    simulate_paths,
)


@dataclass
class PriceEstimate:
    """Monte Carlo price with its standard error and sample size."""

    value: float
    stderr: float
    npaths: int

    def ci(self, z: float = 1.96) -> tuple[float, float]:
        return self.value - z * self.stderr, self.value + z * self.stderr


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


def call_values_from_draws(spec: VolModelSpec, kind: SchemeKind, blocks, strike: float,
                           cutoff: str = "floor", levels=(0,)) -> list[np.ndarray]:
    """Per-path conditional call prices of drawn factor paths, on several grids.

    ``blocks`` are the step blocks of one factor draw (``factor_blocks``);
    ``levels`` lists the grids priced, j for the j-th halving of the
    draws' grid. Each value is bs_call(s0*e^{D + V/2 - rT}, V) with (D, V)
    the accumulated drift and conditional variance of the scheme, so the
    spread across paths carries only the factor-side noise.
    """
    depth = max(levels)
    sums = None
    for fine in blocks:
        (steps, npaths), delta = fine.dW.shape, fine.delta
        if sums is None:  # per grid: sums of drifts and squared multipliers, factor
            sums = np.zeros((depth + 1, 3, npaths))
            sums[:, 2] = spec.y0

        def block(cols):
            draws = fine.columns(cols)
            for j, level in enumerate(sums[:, :, cols]):
                if j:
                    draws = coarsen_factor_draws(spec, kind, draws, level[2])
                    level[2] = draws.y[-1]
                if j in levels:
                    add_step_sums(*drift_and_mult(spec, kind, draws, cutoff), level[0], level[1])

        map_blocks(block, npaths, rows=steps)

    def values(j, cols):
        total_var = delta * 2**j * sums[j, 1, cols]
        spot_eff = spec.s0 * np.exp(sums[j, 0, cols] + 0.5 * total_var - spec.r * spec.T)
        return bs_call(spot_eff, total_var, spec.r, spec.T, strike)

    return [np.concatenate(map_blocks(lambda cols: values(j, cols), npaths)) for j in levels]


def conditional_call_values(spec: VolModelSpec, kind: SchemeKind, n_steps: int,
                            strike: float, rng: RngStream, npaths: int,
                            cutoff: str = "floor") -> np.ndarray:
    """Per-path conditional call prices given factor draws from ``rng``."""
    if kind is SchemeKind.CMT:
        raise InvalidParameterError("CMT admits no conditional-Gaussian terminal law")
    blocks = factor_blocks(spec, kind, n_steps, rng.child("y"), npaths)
    return call_values_from_draws(spec, kind, blocks, strike, cutoff)[0]


def _cmt_terminal(spec: VolModelSpec, n_steps: int, rng: RngStream, npaths: int) -> np.ndarray:
    """Terminal log-asset values of CMT paths drawn from ``rng``, a step block at a time."""
    rng_b, start = rng.child("b"), None
    for draws in factor_blocks(spec, SchemeKind.CMT, n_steps, rng.child("y"), npaths):
        db = draw_brownian_increments(rng_b, draws.dW.shape[0], npaths, draws.delta)
        x, y = cmt_paths(spec, draws.delta, draws.dW, db, start)
        start = x[-1], y[-1]
    return start[0]


def _mc_estimate(values: np.ndarray) -> PriceEstimate:
    n = values.size
    if n < 2:
        raise InvalidParameterError("need at least two samples for a standard error")
    value = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(n))
    if not (math.isfinite(value) and math.isfinite(stderr)):
        raise NumericalError(f"estimate {value} with stderr {stderr} is not finite")
    return PriceEstimate(value=value, stderr=stderr, npaths=n)


def chunk_sizes(npaths: int, chunk_paths: int) -> list[int]:
    """Sizes of the fixed-size path chunks, each simulated on its own stream."""
    sizes = [chunk_paths] * (npaths // chunk_paths)
    if npaths % chunk_paths:
        sizes.append(npaths % chunk_paths)
    return sizes


def romano_touzi_call(spec: VolModelSpec, kind: SchemeKind, n_steps: int, strike: float,
                      rng: RngStream, npaths: int, cutoff: str = "floor",
                      chunk_paths: int = 250_000) -> PriceEstimate:
    """Conditioning-based call price (plain Monte Carlo for CMT).

    Paths are simulated in fixed-size chunks, each on its own child
    stream, so the result is independent of available memory.
    """
    if npaths < 2:
        raise InvalidParameterError(f"need at least two paths, got {npaths}")
    pieces = []
    for i, size in enumerate(chunk_sizes(npaths, chunk_paths)):
        chunk_rng = rng.child("chunk", i)
        if kind is SchemeKind.CMT:
            pieces.append(discounted_call_payoff(spec, _cmt_terminal(spec, n_steps, chunk_rng,
                                                                     size), strike))
        else:
            pieces.append(
                conditional_call_values(spec, kind, n_steps, strike, chunk_rng, size, cutoff)
            )
    return _mc_estimate(np.concatenate(pieces))


def plain_call(spec: VolModelSpec, kind: SchemeKind, n_steps: int, strike: float,
               rng: RngStream, npaths: int, cutoff: str = "floor",
               chunk_paths: int = 250_000) -> PriceEstimate:
    """Unconditioned call price from simulated terminal values."""
    if npaths < 2:
        raise InvalidParameterError(f"need at least two paths, got {npaths}")
    pieces = []
    for i, size in enumerate(chunk_sizes(npaths, chunk_paths)):
        path = simulate_paths(kind, spec, n_steps, rng.child("chunk", i), size, cutoff)
        pieces.append(discounted_call_payoff(spec, path.x[-1], strike))
    return _mc_estimate(np.concatenate(pieces))
