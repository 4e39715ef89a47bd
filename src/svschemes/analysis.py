"""Experiment harness: convergence studies, weak-error ladders, CSV output.

Each experiment produces flat rows (experiment, scheme, N, metric,
value, stderr) where N is the coarse step count of the two-level pair
(or the finest step count for multilevel runs). Convergence metrics are
mean squared differences at maturity:

* ``log_sq_err``  -- E[(X_T^{2N} - X_T^{N})^2] on the log-asset,
* ``asset_sq_err`` -- the same on the asset S = e^X,

so a scheme of strong order p shows a log-log slope near -2p.

Within one (experiment, N) cell all schemes consume the same streams,
which shares the factor normals and B-increments across schemes and
removes cross-scheme Monte Carlo noise from slope comparisons. Paths are
processed in chunks of whole path blocks (``rng.block_chunks``), so
results depend neither on available memory nor on the chunk size. A
chunk is coupled one step block at a
time (``schemes.advance_blocks``), each block in parallel column blocks
of its paths: one node table per column block serves both levels of
every scheme that shares the draws, and each scheme carries its coupled
pair and running errors from one block to the next.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import numpy as np

from .coupling import (
    TerminalCoupling,
    cmt_coupling_from_draws,
    coupling_start,
    plain_coupling_from_draws,
    terminal_coupling_from_draws,
    traj_coupling_from_draws,
)
from .errors import InvalidParameterError
from .mlmc import (
    LevelStats,
    MlmcConfig,
    call_level_sampler,
    lookback_level_sampler,
    mlmc_estimate,
)
from .models import VolModelSpec
from .pricing import conditional_call_values, romano_touzi_call
from .rng import BlockStreams, RngStream, block_chunks
from .schemes import FactorDraws, SchemeKind, advance_blocks

# Converged at-the-money call price under the benchmark Scott parameters
# (strike 100, maturity 1); used as the weak-error reference.
BENCHMARK_CALL_PRICE = 12.82603

DEFAULT_KINDS = (
    SchemeKind.WEAKTRAJ1,
    SchemeKind.WEAK2,
    SchemeKind.OU_IMPROVED,
    SchemeKind.IJK,
    SchemeKind.EULER,
    SchemeKind.CMT,
)


@dataclass
class ExperimentRow:
    experiment: str
    scheme: str
    n_steps: int
    metric: str
    value: float
    stderr: float


@dataclass(frozen=True)
class RegressionResult:
    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared settings of the two-level convergence experiments."""

    n_ladder: tuple[int, ...] = (2, 4, 8, 16, 32, 64, 128, 256)
    npaths: int = 10_000
    cutoff: str = "floor"
    chunk_paths: int = 10_000
    kinds: tuple[SchemeKind, ...] = DEFAULT_KINDS

    def __post_init__(self):
        if len(self.n_ladder) < 2:
            raise InvalidParameterError("need at least two ladder points")
        for n in self.n_ladder:
            if n < 1 or n & (n - 1):
                raise InvalidParameterError(f"ladder entries must be powers of two, got {n}")
        if any(b <= a for a, b in zip(self.n_ladder, self.n_ladder[1:])):
            raise InvalidParameterError("ladder must be strictly increasing")
        if self.npaths < 2:
            raise InvalidParameterError("need at least two paths")
        if self.chunk_paths < 1:
            raise InvalidParameterError("chunk_paths must be positive")


def loglog_slope(ns, values) -> RegressionResult:
    """Least-squares slope of ln(value) against ln(n)."""
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    if ns.size != values.size or ns.size < 2:
        raise InvalidParameterError("need matching arrays with at least two points")
    if np.any(ns <= 0) or np.any(values <= 0):
        raise InvalidParameterError("log-log regression needs positive inputs")
    x = np.log(ns)
    y = np.log(values)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RegressionResult(float(slope), float(intercept), r2)


def _advance_pair(spec: VolModelSpec, kind: SchemeKind, mode: str, draws: FactorDraws,
                  db: np.ndarray, cutoff: str, carry: np.ndarray):
    """Advance one kind's coupled pair (``coupling_start``) over one step block;
    outside the terminal mode, the values of the carry's fine and coarse
    level keep the running sups of the log and asset errors over the
    shared coarse nodes."""
    if kind is SchemeKind.CMT:
        pair = cmt_coupling_from_draws(spec, draws, db, carry)
    elif mode == "terminal":
        return terminal_coupling_from_draws(spec, kind, draws, None, cutoff, carry)
    else:
        coupling = {"strong": plain_coupling_from_draws, "traj": traj_coupling_from_draws}[mode]
        pair = coupling(spec, kind, draws, db, cutoff, carry)
    if mode != "terminal":
        x_f, x_c = pair.x_fine[::2], pair.x_coarse
        np.maximum(carry[0, 2], np.abs(x_f - x_c).max(axis=0), out=carry[0, 2])
        np.maximum(carry[1, 2], np.abs(np.exp(x_f) - np.exp(x_c)).max(axis=0), out=carry[1, 2])


def _pair_errors(spec: VolModelSpec, kind: SchemeKind, mode: str, carry: np.ndarray,
                 g: np.ndarray | None, n_fine: int):
    """Per-path squared log and asset errors of a coupled pair advanced to T."""
    if mode != "terminal":
        return carry[0, 2] ** 2, carry[1, 2] ** 2
    pair = TerminalCoupling(spec.x0, spec.T / n_fine, carry, g)
    x_f, x_c = carry[:, 0] if kind is SchemeKind.CMT else (pair.x_fine, pair.x_coarse)
    return (x_f - x_c) ** 2, (np.exp(x_f) - np.exp(x_c)) ** 2


def _cell_errors(spec: VolModelSpec, groups, mode: str, cell: RngStream, n_fine: int,
                 size: int, cutoff: str, first: int = 0) -> dict:
    """Per-path (log_err, asset_err) of every kind for the ``size`` paths of
    a cell (one ladder point) from path block ``first`` on.

    Each group of kinds shares one factor draw, and all the B-increments:
    a group is one pass over the cell's step blocks, and every pass draws
    the same "b" values from the cell's block streams; the terminal
    coupling's closing normal is the stream "g".
    """
    g = None
    if mode == "terminal":
        g = BlockStreams(cell, size, first).draw(1, normals=("g",))["g"][0]
    errors = {}
    for group in groups:
        def advance(draws, db, carry):
            for kind, pair in zip(group, carry):
                _advance_pair(spec, kind, mode, draws, db, cutoff, pair)

        carry = advance_blocks(
            spec, group, n_fine, cell, size,
            lambda: np.stack([coupling_start(spec, kind, size) for kind in group]), advance,
            first=first)
        errors.update((kind, _pair_errors(spec, kind, mode, pair, g, n_fine))
                      for kind, pair in zip(group, carry))
    return errors


def _conv_experiment(spec: VolModelSpec, config: ExperimentConfig, rng: RngStream,
                     experiment: str, mode: str) -> list[ExperimentRow]:
    kinds = [k for k in config.kinds if not (k is SchemeKind.CMT and mode == "traj")]
    # factor draws are kind-independent for OU-backed specs
    groups = [kinds] if spec.ou is not None else [[k] for k in kinds]
    rows: list[ExperimentRow] = []
    for n_coarse in config.n_ladder:
        acc = {(k, m): LevelStats() for k in kinds for m in ("log_sq_err", "asset_sq_err")}
        cell = rng.child(experiment, n_coarse)
        for first, size in block_chunks(config.npaths, config.chunk_paths):
            errors = _cell_errors(spec, groups, mode, cell, 2 * n_coarse, size, config.cutoff,
                                  first)
            for kind in kinds:
                log_err, asset_err = errors[kind]
                acc[kind, "log_sq_err"].add(log_err)
                acc[kind, "asset_sq_err"].add(asset_err)
        for kind in kinds:
            for metric in ("log_sq_err", "asset_sq_err"):
                stats = acc[kind, metric]
                rows.append(ExperimentRow(experiment, kind.value, n_coarse, metric,
                                          stats.mean, stats.stderr))
    return rows


def run_strong_conv(spec: VolModelSpec, config: ExperimentConfig, rng: RngStream):
    """Two-level errors under the plain shared-Brownian coupling."""
    return _conv_experiment(spec, config, rng, "strong-conv", "strong")


def run_traj_conv(spec: VolModelSpec, config: ExperimentConfig, rng: RngStream):
    """Two-level errors under the trajectorial coupling (no CMT)."""
    return _conv_experiment(spec, config, rng, "traj-conv", "traj")


def run_terminal_conv(spec: VolModelSpec, config: ExperimentConfig, rng: RngStream):
    """Two-level errors under the shared-G terminal coupling."""
    return _conv_experiment(spec, config, rng, "terminal-conv", "terminal")


def run_weak_call(spec: VolModelSpec, config: ExperimentConfig, rng: RngStream,
                  strike: float, reference: float | None = None) -> list[ExperimentRow]:
    """Conditioning-based call prices per scheme and step count.

    With a converged ``reference`` price, an ``abs_error`` row per cell
    carries the measured weak error |price - reference|.
    """
    rows: list[ExperimentRow] = []
    for n_steps in config.n_ladder:
        for kind in config.kinds:
            est = romano_touzi_call(
                spec, kind, n_steps, strike,
                rng.child("weak-call", kind.value, n_steps),
                config.npaths, config.cutoff, chunk_paths=config.chunk_paths,
            )
            rows.append(ExperimentRow(
                "weak-call", kind.value, n_steps, "call_price", est.value, est.stderr,
            ))
            if reference is not None:
                rows.append(ExperimentRow(
                    "weak-call", kind.value, n_steps, "abs_error",
                    abs(est.value - reference), est.stderr,
                ))
    return rows


def weak_error_refinement(spec: VolModelSpec, kind: SchemeKind, n_ladder: tuple[int, ...],
                          fine_steps: int, strike: float, rng: RngStream, npaths: int,
                          cutoff: str = "floor",
                          chunk_paths: int = 250_000) -> list[ExperimentRow]:
    """Weak call errors measured against a nested fine grid.

    The direct error |price_N - reference| drowns in Monte Carlo noise
    once the bias falls below the estimator's standard error, so the
    weak error is measured instead as E[P_N - P_fine] with common
    random numbers: one fine factor draw per path is coarsened down the
    ladder and each resolution contributes its conditional call value.
    The per-path differences are tiny, which makes small biases
    measurable at practical path counts. Rows carry the metric
    ``weak_error`` with |E[P_N - P_fine]| and its standard error.
    """
    for n in n_ladder:
        if fine_steps % n or fine_steps < 2 * n:
            raise InvalidParameterError(
                f"ladder entry {n} must properly divide fine_steps={fine_steps}")
    grids = [fine_steps]  # the fine grid and each of its halvings down the ladder
    while grids[-1] // 2 >= min(n_ladder):
        grids.append(grids[-1] // 2)
    acc = {n: LevelStats() for n in n_ladder}
    for first, size in block_chunks(npaths, chunk_paths):
        values = conditional_call_values(spec, kind, fine_steps, strike,
                                         rng.child("weak-refine"), size, cutoff,
                                         depth=len(grids) - 1, first=first)
        for n in n_ladder:
            acc[n].add(values[grids.index(n)] - values[0])
    return [ExperimentRow("weak-refine", kind.value, n, "weak_error", abs(acc[n].mean),
                          acc[n].stderr) for n in n_ladder]


def run_mlmc_cost(spec: VolModelSpec, kind: SchemeKind, payoff: str,
                  epsilons: tuple[float, ...], rng: RngStream,
                  max_level: int = 10, base_steps: int = 2, strike: float = 100.0,
                  cutoff: str = "floor", initial_samples: int = 10_000,
                  reference: float | None = None) -> list[ExperimentRow]:
    """Multilevel cost-versus-accuracy sweep for one scheme and payoff.

    Emits, for each epsilon, rows with metrics ``price``, ``total_cost``
    (step-count proxy), ``wall_clock`` (seconds) and ``epsilon``, plus
    ``abs_error`` against a reference price when one is supplied; all
    rows carry the finest step count in the N column.
    """
    if payoff == "call":
        sampler = call_level_sampler(spec, kind, strike, base_steps, cutoff)
    elif payoff == "lookback":
        sampler = lookback_level_sampler(spec, kind, base_steps, cutoff)
    else:
        raise InvalidParameterError(f"unknown payoff {payoff!r}; expected 'call' or 'lookback'")
    rows: list[ExperimentRow] = []
    experiment = f"mlmc-{payoff}"
    for eps in epsilons:
        config = MlmcConfig(epsilon=eps, max_level=max_level, base_steps=base_steps,
                            initial_samples=initial_samples)
        started = time.perf_counter()
        result = mlmc_estimate(sampler, config, rng.child(experiment, kind.value, repr(eps)))
        elapsed = time.perf_counter() - started
        finest = base_steps * 2 ** result.levels[-1].level
        rows.append(ExperimentRow(experiment, kind.value, finest, "price",
                                  result.value, result.stderr))
        rows.append(ExperimentRow(experiment, kind.value, finest, "total_cost",
                                  result.total_cost, 0.0))
        rows.append(ExperimentRow(experiment, kind.value, finest, "wall_clock",
                                  elapsed, 0.0))
        rows.append(ExperimentRow(experiment, kind.value, finest, "epsilon", eps, 0.0))
        if reference is not None:
            rows.append(ExperimentRow(experiment, kind.value, finest, "abs_error",
                                      abs(result.value - reference), result.stderr))
    return rows


def rows_slope(rows: list[ExperimentRow], experiment: str, scheme: str,
               metric: str) -> RegressionResult:
    """Log-log slope of one metric across N for one scheme."""
    picked = [r for r in rows if (r.experiment, r.scheme, r.metric) == (experiment, scheme, metric)]
    if len(picked) < 2:
        raise InvalidParameterError(
            f"not enough rows for {experiment}/{scheme}/{metric}"
        )
    return loglog_slope([r.n_steps for r in picked], [r.value for r in picked])


def write_rows_csv(rows: list[ExperimentRow], path: str):
    """Write rows in the fixed schema experiment,scheme,N,metric,value,stderr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment", "scheme", "N", "metric", "value", "stderr"])
        for row in rows:
            writer.writerow([
                row.experiment, row.scheme, row.n_steps, row.metric,
                f"{row.value:.12g}", f"{row.stderr:.12g}",
            ])
