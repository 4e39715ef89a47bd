"""Fine/coarse couplings for two-level and multilevel estimators.

Three coupling modes are implemented on top of the conditional-Gaussian
template of :mod:`.schemes`:

* plain coupling — the coarse path consumes the summed fine Brownian
  increments; this is what strong-error tables measure;
* trajectorial coupling — each coarse B-increment is the variance-
  matched reweighting of the two fine increments by the fine
  multipliers, sqrt(2)*(v1*dB1 + v2*dB2)/sqrt(v1^2 + v2^2);
* terminal coupling — both levels reduce their conditional law at T to
  one Gaussian N(sum of drifts, delta*sum of squared multipliers) and
  share the closing normal G.

CMT does not fit the template; its levels are coupled pathwise by
feeding the coarse recursion the summed fine (dW, dB) increments.

The lookback machinery follows the same trajectorial coupling for the
log-asset nodes and adds Brownian-bridge minima over each fine substep,
reusing one uniform per fine substep at both levels.

Functions come in pairs: a ``*_from_draws`` core that consumes
pre-drawn randomness (so experiment harnesses can share draws, and
their node table, across schemes), and a thin wrapper that draws from
an ``RngStream`` using the child streams "y" (factor), "b"
(B-increments), "g" (terminal closing normal) and "u" (bridge
uniforms).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .models import VolModelSpec
from .rng import RngStream
from .schemes import (
    FactorDraws,
    SchemeKind,
    _assemble_x,
    cmt_paths,
    coarsen_factor_draws,
    draw_brownian_increments,
    draw_factor_paths,
    drift_and_mult,
)


@dataclass
class CoupledPaths:
    """Node arrays of one fine path batch and its coupled coarse batch."""

    times_fine: np.ndarray
    x_fine: np.ndarray
    y_fine: np.ndarray
    times_coarse: np.ndarray
    x_coarse: np.ndarray
    y_coarse: np.ndarray


@dataclass
class TerminalCoupling:
    """Shared-G terminal coupling: conditional N(x0+drift, var) per level."""

    x0: float
    drift_fine: np.ndarray
    var_fine: np.ndarray
    drift_coarse: np.ndarray
    var_coarse: np.ndarray
    g: np.ndarray

    @property
    def x_fine(self) -> np.ndarray:
        return self.x0 + self.drift_fine + np.sqrt(self.var_fine) * self.g

    @property
    def x_coarse(self) -> np.ndarray:
        return self.x0 + self.drift_coarse + np.sqrt(self.var_coarse) * self.g


@dataclass
class LevelSample:
    """Per-path payoff (or functional) values at the fine and coarse level."""

    fine: np.ndarray
    coarse: np.ndarray


def plain_coarse_db(db_fine: np.ndarray) -> np.ndarray:
    """Coarse B-increments as plain sums of fine pairs."""
    if db_fine.shape[0] % 2 != 0:
        raise InvalidParameterError("fine increments must come in pairs")
    return db_fine[0::2] + db_fine[1::2]


def coupled_db_tilde(db1, db2, v1, v2):
    """Variance-matched coarse increment from fine multipliers.

    sqrt(2)*(v1*db1 + v2*db2)/sqrt(v1^2 + v2^2); where both multipliers
    vanish (possible under the floor cutoff) the weights fall back to
    equal, giving the plain sum db1 + db2.
    """
    norm2 = np.asarray(v1) ** 2 + np.asarray(v2) ** 2
    degenerate = norm2 == 0.0
    safe = np.where(degenerate, 1.0, norm2)
    tilde = np.sqrt(2.0) * (v1 * db1 + v2 * db2) / np.sqrt(safe)
    return np.where(degenerate, db1 + db2, tilde)


def lookback_db_mid(db1, db2, v1, v2):
    """Mid-node increment for the lookback coarse level.

    (a*db1 + b*db2)/sqrt(a^2 + b^2) with a = v1 + v2, b = v2 - v1; the
    degenerate fallback (a, b) = (2, 0) returns db1.
    """
    a = np.asarray(v1) + np.asarray(v2)
    b = np.asarray(v2) - np.asarray(v1)
    norm2 = a**2 + b**2
    degenerate = norm2 == 0.0
    safe = np.where(degenerate, 1.0, norm2)
    mid = (a * db1 + b * db2) / np.sqrt(safe)
    return np.where(degenerate, db1, mid)


def _grids(spec: VolModelSpec, n_coarse: int):
    times_fine = np.linspace(0.0, spec.T, 2 * n_coarse + 1)
    return times_fine, times_fine[::2]


def _check_coarse_steps(n_coarse: int):
    if n_coarse < 1:
        raise InvalidParameterError(f"need at least one coarse step, got {n_coarse}")


def plain_coupling_from_draws(spec: VolModelSpec, kind: SchemeKind, fine: FactorDraws,
                              db_fine: np.ndarray, cutoff: str = "floor") -> CoupledPaths:
    """Fine and coarse paths driven by the same Brownian motions."""
    drift_f, mult_f = drift_and_mult(spec, kind, fine, cutoff)
    x_f = _assemble_x(spec.x0, drift_f, mult_f, db_fine)
    coarse = coarsen_factor_draws(spec, kind, fine)
    drift_c, mult_c = drift_and_mult(spec, kind, coarse, cutoff)
    x_c = _assemble_x(spec.x0, drift_c, mult_c, plain_coarse_db(db_fine))
    t_f, t_c = _grids(spec, db_fine.shape[0] // 2)
    return CoupledPaths(t_f, x_f, fine.y, t_c, x_c, coarse.y)


def traj_coupling_from_draws(spec: VolModelSpec, kind: SchemeKind, fine: FactorDraws,
                             db_fine: np.ndarray, cutoff: str = "floor") -> CoupledPaths:
    """Trajectorial coupling: coarse increments reweighted by fine multipliers."""
    drift_f, mult_f = drift_and_mult(spec, kind, fine, cutoff)
    x_f = _assemble_x(spec.x0, drift_f, mult_f, db_fine)
    db_tilde = coupled_db_tilde(db_fine[0::2], db_fine[1::2], mult_f[0::2], mult_f[1::2])
    coarse = coarsen_factor_draws(spec, kind, fine)
    drift_c, mult_c = drift_and_mult(spec, kind, coarse, cutoff)
    x_c = _assemble_x(spec.x0, drift_c, mult_c, db_tilde)
    t_f, t_c = _grids(spec, db_fine.shape[0] // 2)
    return CoupledPaths(t_f, x_f, fine.y, t_c, x_c, coarse.y)


def cmt_coupling_from_draws(spec: VolModelSpec, fine: FactorDraws,
                            db_fine: np.ndarray) -> CoupledPaths:
    """CMT levels coupled by summed (dW, dB) increments."""
    x_f, y_f = cmt_paths(spec, fine.delta, fine.dW, db_fine)
    dw_c = fine.dW[0::2] + fine.dW[1::2]
    x_c, y_c = cmt_paths(spec, 2.0 * fine.delta, dw_c, plain_coarse_db(db_fine))
    t_f, t_c = _grids(spec, db_fine.shape[0] // 2)
    return CoupledPaths(t_f, x_f, y_f, t_c, x_c, y_c)


def terminal_coupling_from_draws(spec: VolModelSpec, kind: SchemeKind, fine: FactorDraws,
                                 g: np.ndarray, cutoff: str = "floor") -> TerminalCoupling:
    """Shared-G terminal coupling from fine factor draws."""
    if kind is SchemeKind.CMT:
        raise InvalidParameterError("CMT has no conditional-Gaussian terminal form")
    drift_f, mult_f = drift_and_mult(spec, kind, fine, cutoff)
    coarse = coarsen_factor_draws(spec, kind, fine)
    drift_c, mult_c = drift_and_mult(spec, kind, coarse, cutoff)
    return TerminalCoupling(
        x0=spec.x0,
        drift_fine=drift_f.sum(axis=0),
        var_fine=fine.delta * (mult_f**2).sum(axis=0),
        drift_coarse=drift_c.sum(axis=0),
        var_coarse=coarse.delta * (mult_c**2).sum(axis=0),
        g=g,
    )


def coupled_traj_paths(spec: VolModelSpec, kind: SchemeKind, n_coarse: int,
                       rng: RngStream, npaths: int, cutoff: str = "floor") -> CoupledPaths:
    """Draw and trajectorially couple a fine/coarse path batch."""
    _check_coarse_steps(n_coarse)
    fine = draw_factor_paths(spec, kind, 2 * n_coarse, rng.child("y"), npaths)
    db_fine = draw_brownian_increments(rng.child("b"), 2 * n_coarse, npaths, fine.delta)
    if kind is SchemeKind.CMT:
        return cmt_coupling_from_draws(spec, fine, db_fine)
    return traj_coupling_from_draws(spec, kind, fine, db_fine, cutoff)


def coupled_plain_paths(spec: VolModelSpec, kind: SchemeKind, n_coarse: int,
                        rng: RngStream, npaths: int, cutoff: str = "floor") -> CoupledPaths:
    """Draw and plainly couple a fine/coarse path batch (shared Brownians)."""
    _check_coarse_steps(n_coarse)
    fine = draw_factor_paths(spec, kind, 2 * n_coarse, rng.child("y"), npaths)
    db_fine = draw_brownian_increments(rng.child("b"), 2 * n_coarse, npaths, fine.delta)
    if kind is SchemeKind.CMT:
        return cmt_coupling_from_draws(spec, fine, db_fine)
    return plain_coupling_from_draws(spec, kind, fine, db_fine, cutoff)


def coupled_terminal(spec: VolModelSpec, kind: SchemeKind, n_coarse: int,
                     rng: RngStream, npaths: int, cutoff: str = "floor") -> TerminalCoupling:
    """Draw a shared-G terminal coupling."""
    _check_coarse_steps(n_coarse)
    fine = draw_factor_paths(spec, kind, 2 * n_coarse, rng.child("y"), npaths)
    g = rng.child("g").normal(npaths)
    return terminal_coupling_from_draws(spec, kind, fine, g, cutoff)


# ---------------------------------------------------------------------------
# lookback bridge machinery


def bridge_min(left, right, vol2, delta: float, u, anchor=None):
    """Conditional minimum of a Brownian bridge over one substep.

    0.5*(left + right - sqrt((left - right)^2 - 2*anchor^2*vol2*delta*ln u))
    with anchor defaulting to the left endpoint. u must lie in (0, 1];
    the radicand is then nonnegative and the result never exceeds
    min(left, right).
    """
    if not delta > 0:
        raise InvalidParameterError(f"delta must be positive, got {delta}")
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u > 1.0):
        raise InvalidParameterError("bridge uniforms must lie in (0, 1]")
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    if anchor is None:
        anchor = left
    rad = (left - right) ** 2 - 2.0 * np.asarray(anchor) ** 2 * np.asarray(vol2) * delta * np.log(u)
    return 0.5 * (left + right - np.sqrt(rad))


def _bridged_lookback(spec: VolModelSpec, draws: FactorDraws, nodes, x: np.ndarray,
                      db: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Discounted lookback payoffs of the log-asset nodes x on the grid of ``draws``.

    Each step contributes a Brownian-bridge minimum between its left spot
    and an exponential-Euler spot endpoint, drawn from the step's uniform;
    ``nodes`` is the node table of ``draws``.
    """
    sqrt1m = np.sqrt(max(0.0, 1.0 - spec.rho**2))
    f_vals, psi_vals = nodes.prev("f"), nodes.prev("psi")
    running_min = np.full(x.shape[1:], np.inf)
    for j in range(db.shape[0]):
        left = np.exp(x[j])
        right = left * (1.0 + spec.r * draws.delta
                        + f_vals[j] * (spec.rho * draws.dW[j] + sqrt1m * db[j]))
        running_min = np.minimum(running_min,
                                 bridge_min(left, right, psi_vals[j], draws.delta, uniforms[j]))
    return np.exp(-spec.r * spec.T) * (np.exp(x[-1]) - running_min)


def lookback_payoffs_from_draws(spec: VolModelSpec, kind: SchemeKind, fine: FactorDraws,
                                db_fine: np.ndarray, uniforms: np.ndarray,
                                cutoff: str = "floor") -> LevelSample:
    """Coupled discounted lookback payoffs at the fine and coarse level.

    Fine level: for each substep, an exponential-Euler spot endpoint and
    a Brownian-bridge minimum drawn from the substep uniform. Coarse
    level: the trajectorially coupled path supplies the nodes, and each
    coarse step spends its two substep uniforms on two bridge minima via
    a mid endpoint built from the reweighted increments; the bridge
    anchor stays frozen at the left coarse node.
    """
    n_fine = db_fine.shape[0]
    drift_f, mult_f = drift_and_mult(spec, kind, fine, cutoff)
    x_f = _assemble_x(spec.x0, drift_f, mult_f, db_fine)
    db1, db2 = db_fine[0::2], db_fine[1::2]
    v1, v2 = mult_f[0::2], mult_f[1::2]
    db_tilde = coupled_db_tilde(db1, db2, v1, v2)
    db_mid = lookback_db_mid(db1, db2, v1, v2)
    del drift_f, mult_f, v1, v2  # what follows reads only nodes and increments
    coarse = coarsen_factor_draws(spec, kind, fine)
    x_c = _assemble_x(spec.x0, *drift_and_mult(spec, kind, coarse, cutoff), db_tilde)

    nodes = spec.node_table(spec, fine.y, ())
    payoff_f = _bridged_lookback(spec, fine, nodes, x_f, db_fine, uniforms)

    delta_c = coarse.delta
    sqrt1m = np.sqrt(max(0.0, 1.0 - spec.rho**2))
    # OU coarse nodes are the even fine nodes; generic specs re-ran the factor
    nodes = nodes.even_nodes() if spec.ou is not None else spec.node_table(spec, coarse.y, ())
    f_c, psi_c = nodes.prev("f"), nodes.prev("psi")
    min_c = np.full(x_c.shape[1:], np.inf)
    for k in range(n_fine // 2):
        left = np.exp(x_c[k])
        f_val = f_c[k]
        vol2 = psi_c[k]
        base = left * (1.0 + spec.r * delta_c + f_val * spec.rho * coarse.dW[k])
        s_mid = base + left * f_val * sqrt1m * db_mid[k]
        s_end = base + left * f_val * sqrt1m * db_tilde[k]
        m1 = bridge_min(left, s_mid, vol2, fine.delta, uniforms[2 * k], anchor=left)
        m2 = bridge_min(s_mid, s_end, vol2, fine.delta, uniforms[2 * k + 1], anchor=left)
        min_c = np.minimum(min_c, np.minimum(m1, m2))
    payoff_c = np.exp(-spec.r * spec.T) * (np.exp(x_c[-1]) - min_c)

    return LevelSample(fine=payoff_f, coarse=payoff_c)


def coupled_lookback_levels(spec: VolModelSpec, kind: SchemeKind, n_coarse: int,
                            rng: RngStream, npaths: int,
                            cutoff: str = "floor") -> LevelSample:
    """Draw coupled lookback payoffs at resolutions 2*n_coarse and n_coarse."""
    _check_coarse_steps(n_coarse)
    n_fine = 2 * n_coarse
    fine = draw_factor_paths(spec, kind, n_fine, rng.child("y"), npaths)
    db_fine = draw_brownian_increments(rng.child("b"), n_fine, npaths, fine.delta)
    uniforms = rng.child("u").uniform_open((n_fine, npaths))
    return lookback_payoffs_from_draws(spec, kind, fine, db_fine, uniforms, cutoff)


def lookback_single_level(spec: VolModelSpec, kind: SchemeKind, n_steps: int,
                          rng: RngStream, npaths: int,
                          cutoff: str = "floor") -> np.ndarray:
    """Discounted lookback payoffs on a single grid (MLMC base level)."""
    if n_steps < 1:
        raise InvalidParameterError(f"need at least one step, got {n_steps}")
    fine = draw_factor_paths(spec, kind, n_steps, rng.child("y"), npaths)
    db = draw_brownian_increments(rng.child("b"), n_steps, npaths, fine.delta)
    uniforms = rng.child("u").uniform_open((n_steps, npaths))
    x = _assemble_x(spec.x0, *drift_and_mult(spec, kind, fine, cutoff), db)
    return _bridged_lookback(spec, fine, spec.node_table(spec, fine.y, ()), x, db, uniforms)
