"""Experiment harness: convergence studies, weak-error ladders, CSV output.

Each experiment produces flat rows (experiment, scheme, N, metric,
value, stderr) where N is the coarse step count of the two-level pair
(or the finest step count for multilevel runs). Convergence metrics are
mean squared differences of the two levels of a coupled pair:

* ``log_sq_err``  -- E[(max_k |X_{t_k}^{2N} - X_{t_k}^N|)^2] on the log-asset,
  the sup over the coarse nodes t_k = kT/N (strong and traj), or
  E[(X_T^{2N} - X_T^N)^2] at maturity (terminal),
* ``asset_sq_err`` -- the same on the asset S = e^X,

so a scheme of strong order p shows a log-log slope near -2p.

Within one (experiment, N) cell all schemes consume the same streams,
which shares the factor normals and B-increments across schemes and
removes cross-scheme Monte Carlo noise from slope comparisons. The
cells of a ladder run as pool tasks, each on one thread, and each cell is
one pass of path items (``pricing.path_moments``), so every output is the
same bytes for any item cut and any number of CPUs. An item is coupled one
step block at a time (``schemes.advance_blocks``): one node table per
column block serves both levels of every scheme that shares the draws,
and each scheme carries its coupled pair and running errors from one
block to the next.
"""

from __future__ import annotations

import contextlib
import csv
import sys
import time
from dataclasses import dataclass

import numpy as np

from ._parallel import map_tasks
from .coupling import (
    cmt_coupling_from_draws,
    coupling_start,
    level_sums,
    level_variances,
    plain_coupling_from_draws,
    traj_coupling_from_draws,
)
from .errors import InvalidParameterError
from .mlmc import (
    BASE_STEPS,
    MlmcConfig,
    call_level_sampler,
    lookback_level_sampler,
    mlmc_estimate,
)
from .models import VolModelSpec
from .pricing import conditional_call_values, path_moments, romano_touzi_call
from .rng import BlockStreams, RngStream
from .schemes import FactorDraws, SchemeKind, advance_blocks, is_template, uses_nv

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
                  db: np.ndarray, carry: np.ndarray):
    """Advance one kind's coupled pair (``coupling_start``) over one step block;
    outside the terminal mode, the values of the carry's fine and coarse
    level keep the running sups of the log and asset errors over the
    shared coarse nodes."""
    if kind is SchemeKind.CMT:
        pair = cmt_coupling_from_draws(spec, draws, db, carry)
    elif mode == "terminal":
        return level_sums(spec, kind, draws, carry)
    else:
        coupling = {"strong": plain_coupling_from_draws, "traj": traj_coupling_from_draws}[mode]
        pair = coupling(spec, kind, draws, db, carry)
    if mode != "terminal":
        x_f, x_c = pair.x_fine[::2], pair.x_coarse
        np.maximum(carry[0, 2], np.abs(x_f - x_c).max(axis=0), out=carry[0, 2])
        np.maximum(carry[1, 2], np.abs(np.exp(x_f) - np.exp(x_c)).max(axis=0), out=carry[1, 2])


def _pair_errors(spec: VolModelSpec, kind: SchemeKind, mode: str, carry: np.ndarray,
                 g: np.ndarray | None, n_fine: int):
    """Per-path squared log and asset errors of a coupled pair advanced to T."""
    if mode != "terminal":
        return carry[:, 2] ** 2
    x = carry[:, 0]
    if kind is not SchemeKind.CMT:
        x = spec.x0 + x + np.sqrt(level_variances(spec.T / n_fine, carry)) * g
    return (x[0] - x[1]) ** 2, (np.exp(x[0]) - np.exp(x[1])) ** 2


def _cell_errors(spec: VolModelSpec, groups, mode: str, cell: RngStream, n_fine: int,
                 size: int, first: int = 0) -> dict:
    """Per-path (log_err, asset_err) of every kind for the ``size`` paths of
    a cell (one ladder point) from path block ``first`` on.

    Each group of kinds shares one factor draw, and all the B-increments:
    a group is one ``advance_blocks`` batch, and every batch draws the
    same "b" values from the cell's block streams; the terminal
    coupling's closing normal is the stream "g".
    """
    g = None
    if mode == "terminal":
        g = BlockStreams(cell, size, first).draw(1, ("g",))["g"][0]
    errors = {}
    for group in groups:
        def advance(_, draws, db, carry):
            for kind, pair in zip(group, carry):
                _advance_pair(spec, kind, mode, draws, db, pair)

        carry = advance_blocks(spec, group, n_fine, cell,
                               np.stack([coupling_start(spec, kind, size) for kind in group]),
                               advance, first=first)
        errors.update((kind, _pair_errors(spec, kind, mode, pair, g, n_fine))
                      for kind, pair in zip(group, carry))
    return errors


def _conv_experiment(spec: VolModelSpec, config: ExperimentConfig, rng: RngStream,
                     experiment: str, mode: str) -> list[ExperimentRow]:
    """Rows of one convergence experiment, in ladder order.

    The cells (ladder points) are the items of one ``map_tasks`` call,
    finest first, so the path items, draws and column blocks of a cell run
    inline in its taker; when several cells fail, the finest one's
    exception is raised.
    """
    kinds = [k for k in config.kinds if mode != "traj" or is_template(k)]
    groups: dict = {}  # kinds sharing one factor draw (one recursion on a generic spec)
    for kind in kinds:
        groups.setdefault(spec.ou is None and uses_nv(kind), []).append(kind)

    def cell_stats(n_coarse):
        cell = rng.child(experiment, n_coarse)

        def values(first, size):
            errors = _cell_errors(spec, groups.values(), mode, cell, 2 * n_coarse, size, first)
            return [err for kind in kinds for err in errors[kind]]

        return path_moments(values, config.npaths)

    # a cell's cost grows with its steps: the other takers share out the
    # coarser cells while one runs the finest
    ladder = sorted(config.n_ladder, reverse=True)
    cells = dict(zip(ladder, map_tasks(cell_stats, ladder, config.npaths * 2 * sum(ladder))))
    metrics = [(kind, m) for kind in kinds for m in ("log_sq_err", "asset_sq_err")]
    return [ExperimentRow(experiment, kind.value, n_coarse, metric, stats.mean, stats.stderr)
            for n_coarse in config.n_ladder
            for (kind, metric), stats in zip(metrics, cells[n_coarse])]


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
            est = romano_touzi_call(spec, kind, n_steps, strike,
                                    rng.child("weak-call", kind.value, n_steps), config.npaths)
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
                          fine_steps: int, strike: float, rng: RngStream,
                          npaths: int) -> list[ExperimentRow]:
    """Weak call errors measured against a nested fine grid.

    The direct error |price_N - reference| drowns in Monte Carlo noise
    once the bias falls below the estimator's standard error, so the
    weak error is measured instead as E[P_N - P_fine] with common
    random numbers: one fine factor draw per path is coarsened down the
    ladder and each resolution contributes its conditional call value.
    The per-path differences are tiny, which makes small biases
    measurable at practical path counts. The paths are one pool pass
    (``pricing.path_moments``) with a row of differences per ladder entry.
    Rows carry the metric ``weak_error`` with |E[P_N - P_fine]| and its
    standard error.
    """
    grids = [fine_steps]  # the fine grid and each of its halvings down the ladder
    while grids[-1] % 2 == 0 and grids[-1] // 2 >= max(min(n_ladder), 1):
        grids.append(grids[-1] // 2)
    for n in n_ladder:
        if n not in grids[1:]:
            raise InvalidParameterError(
                f"ladder entry {n} must be fine_steps={fine_steps} halved once or more")
    refine = rng.child("weak-refine")

    def values(first, size):
        prices = conditional_call_values(spec, kind, fine_steps, strike, refine, size,
                                         depth=len(grids) - 1, first=first)
        return [prices[grids.index(n)] - prices[0] for n in n_ladder]

    return [ExperimentRow("weak-refine", kind.value, n, "weak_error", abs(stats.mean),
                          stats.stderr) for n, stats in zip(n_ladder, path_moments(values, npaths))]


def run_mlmc_cost(spec: VolModelSpec, kind: SchemeKind, payoff: str,
                  epsilons: tuple[float, ...], rng: RngStream,
                  max_level: int = 10, strike: float = 100.0, initial_samples: int = 10_000,
                  reference: float | None = None) -> list[ExperimentRow]:
    """Multilevel cost-versus-accuracy sweep for one scheme and payoff.

    Emits, for each epsilon, rows with metrics ``price``, ``total_cost``
    (step-count proxy), ``wall_clock`` (seconds) and ``epsilon``, plus
    ``abs_error`` against a reference price when one is supplied; all
    rows carry the finest step count in the N column.
    """
    if payoff == "call":
        sampler = call_level_sampler(spec, kind, strike)
    elif payoff == "lookback":
        sampler = lookback_level_sampler(spec, kind)
    else:
        raise InvalidParameterError(f"unknown payoff {payoff!r}; expected 'call' or 'lookback'")
    rows: list[ExperimentRow] = []
    experiment = f"mlmc-{payoff}"
    for eps in epsilons:
        config = MlmcConfig(epsilon=eps, max_level=max_level, initial_samples=initial_samples)
        started = time.perf_counter()
        result = mlmc_estimate(sampler, config, rng.child(experiment, kind.value, repr(eps)))
        elapsed = time.perf_counter() - started
        finest = BASE_STEPS * 2 ** result.levels[-1].level
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


def write_rows_csv(rows: list[ExperimentRow], path: str | None = None):
    """Write rows in the fixed schema experiment,scheme,N,metric,value,stderr
    to the file ``path``, or to stdout as it is open when no path is given."""
    with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment", "scheme", "N", "metric", "value", "stderr"])
        for row in rows:
            writer.writerow([
                row.experiment, row.scheme, row.n_steps, row.metric,
                f"{row.value:.12g}", f"{row.stderr:.12g}",
            ])
