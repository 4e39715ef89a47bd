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
from .coupling import coupling_start, level_sums
from .errors import InvalidParameterError, NumericalError
from .models import VolModelSpec
from .rng import RngStream, block_chunks
from .schemes import SchemeKind, advance_blocks, cmt_paths, simulate_paths


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


def conditional_call_values(spec: VolModelSpec, kind: SchemeKind, n_steps: int,
                            strike: float, rng: RngStream, npaths: int,
                            cutoff: str = "floor", depth: int = 0,
                            first: int = 0) -> np.ndarray:
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
    if kind is SchemeKind.CMT:
        raise InvalidParameterError("CMT admits no conditional-Gaussian terminal law")
    sums = advance_blocks(spec, (kind,), n_steps, rng, npaths,
                          lambda: coupling_start(spec, kind, npaths, levels=depth + 1),
                          lambda draws, carry: level_sums(spec, kind, draws, cutoff, carry),
                          streams=(), multiple=2 ** max(depth, 1), first=first)
    scale = spec.T / n_steps * 2.0 ** np.arange(depth + 1)[:, None]

    def values(cols):
        total_var = scale * sums[:, 2, cols]
        spot_eff = spec.s0 * np.exp(sums[:, 0, cols] + 0.5 * total_var - spec.r * spec.T)
        return bs_call(spot_eff, total_var, spec.r, spec.T, strike)

    out = np.concatenate(map_blocks(values, npaths, rows=depth + 1), axis=1)
    return out if depth else out[0]


def _cmt_terminal(spec: VolModelSpec, n_steps: int, rng: RngStream, npaths: int,
                  first: int = 0) -> np.ndarray:
    """Terminal log-asset values of the CMT paths from path block ``first`` on."""
    def advance(draws, db, carry):
        x, y = cmt_paths(spec, draws.delta, draws.dW, db, carry[0, :2])
        carry[0, :2] = x[-1], y[-1]

    return advance_blocks(spec, (SchemeKind.CMT,), n_steps, rng, npaths,
                          lambda: coupling_start(spec, SchemeKind.CMT, npaths, levels=1),
                          advance, first=first)[0, 0]


def _mc_estimate(values: np.ndarray) -> PriceEstimate:
    n = values.size
    if n < 2:
        raise InvalidParameterError("need at least two samples for a standard error")
    value = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(n))
    if not (math.isfinite(value) and math.isfinite(stderr)):
        raise NumericalError(f"estimate {value} with stderr {stderr} is not finite")
    return PriceEstimate(value=value, stderr=stderr, npaths=n)


def chunked_estimate(values, npaths: int, chunk_paths: int = 250_000) -> PriceEstimate:
    """Monte Carlo estimate from the per-path ``values(first, size)`` of the
    chunks of whole path blocks (``rng.block_chunks``); the chunk size
    bounds memory and does not change the result."""
    if npaths < 1:
        raise InvalidParameterError(f"need at least one path, got {npaths}")
    return _mc_estimate(np.concatenate([values(first, size)
                                        for first, size in block_chunks(npaths, chunk_paths)]))


def romano_touzi_call(spec: VolModelSpec, kind: SchemeKind, n_steps: int, strike: float,
                      rng: RngStream, npaths: int, cutoff: str = "floor",
                      chunk_paths: int = 250_000) -> PriceEstimate:
    """Conditioning-based call price (plain Monte Carlo for CMT), simulated
    in chunks of about ``chunk_paths`` paths (``chunked_estimate``)."""
    def values(first, size):
        if kind is SchemeKind.CMT:
            return discounted_call_payoff(spec, _cmt_terminal(spec, n_steps, rng, size, first),
                                          strike)
        return conditional_call_values(spec, kind, n_steps, strike, rng, size, cutoff,
                                       first=first)

    return chunked_estimate(values, npaths, chunk_paths)


def plain_call(spec: VolModelSpec, kind: SchemeKind, n_steps: int, strike: float,
               rng: RngStream, npaths: int, cutoff: str = "floor",
               chunk_paths: int = 250_000) -> PriceEstimate:
    """Unconditioned call price from simulated terminal values."""
    def values(first, size):
        path = simulate_paths(kind, spec, n_steps, rng, size, cutoff, first)
        return discounted_call_payoff(spec, path.x[-1], strike)

    return chunked_estimate(values, npaths, chunk_paths)
