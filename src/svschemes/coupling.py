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

The carry contract: the ``*_from_draws`` kernels and ``level_sums`` consume
pre-drawn randomness (so experiment harnesses can share draws, and their
node table, across schemes) one step block at a time, each advancing the
per-path carry its caller passes in (``coupling_start``) from the block's
first node to its last. The caller reads the carry once, in the pass that
advanced it, as a (levels, paths) array, finest first: the terminal
log-assets (``terminal_values``), the lookback payoffs, and the call values
of ``pricing.conditional_call_values``. Row l of a carry has the step
2^l * delta; ``level_variances`` is the one place that scales its summed
squared multipliers by it. The lookback estimators draw the factor normals
up to "dW" (the spot endpoints of the bridge read dW), the B-increments "b"
and the bridge uniforms "u" through ``schemes.advance_blocks``.
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
    _sqrt1m_rho2,
    advance_blocks,
    cmt_paths,
    coarsen_factor_draws,
    drift_and_mult,
    require_template,
    with_coeffs,
)


@dataclass
class CoupledPaths:
    """Node arrays of a step block of a fine path batch and its coupled coarse batch."""

    x_fine: np.ndarray
    y_fine: np.ndarray
    x_coarse: np.ndarray
    y_coarse: np.ndarray


def coupling_start(spec: VolModelSpec, kind: SchemeKind, npaths: int,
                   extra: float = 0.0, levels: int = 2) -> np.ndarray:
    """Per-path carry at the start of the paths, shape (levels, 3, npaths),
    finest level first; the one carry layout of every estimator.

    Each level holds the log-asset (for template schemes, the running sum
    of its increments), the factor, and, starting at ``extra``, the
    consumer's value: the sum of squared multipliers, the spot minimum or
    a running error sup.
    """
    if npaths < 1:
        raise InvalidParameterError(f"need at least one path, got {npaths}")
    x = spec.x0 if kind is SchemeKind.CMT else 0.0
    return np.repeat([[[x], [spec.y0], [extra]]] * levels, npaths, axis=2)


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


def _template_coupling(spec: VolModelSpec, kind: SchemeKind, fine: FactorDraws,
                       db_fine: np.ndarray, carry: np.ndarray, traj: bool):
    """Plain or trajectorial coupling; returns the paths, the coarse draws
    with their node table, the coarse B-increments and the fine multipliers."""
    drift_f, mult_f = drift_and_mult(spec, kind, fine)
    x_f = _assemble_x(spec.x0, drift_f, mult_f, db_fine, carry[0, 0])
    if traj:
        db_c = coupled_db_tilde(db_fine[0::2], db_fine[1::2], mult_f[0::2], mult_f[1::2])
    else:
        db_c = plain_coarse_db(db_fine)
    coarse = with_coeffs(spec, coarsen_factor_draws(spec, kind, fine, carry[1, 1]), (kind,))
    x_c = _assemble_x(spec.x0, *drift_and_mult(spec, kind, coarse), db_c, carry[1, 0])
    carry[:, 1] = fine.y[-1], coarse.y[-1]
    return CoupledPaths(x_f, fine.y, x_c, coarse.y), coarse, db_c, mult_f


def plain_coupling_from_draws(spec: VolModelSpec, kind: SchemeKind, fine: FactorDraws,
                              db_fine: np.ndarray, carry: np.ndarray) -> CoupledPaths:
    """Fine and coarse paths driven by the same Brownian motions."""
    return _template_coupling(spec, kind, fine, db_fine, carry, traj=False)[0]


def traj_coupling_from_draws(spec: VolModelSpec, kind: SchemeKind, fine: FactorDraws,
                             db_fine: np.ndarray, carry: np.ndarray) -> CoupledPaths:
    """Trajectorial coupling: coarse increments reweighted by fine multipliers."""
    return _template_coupling(spec, kind, fine, db_fine, carry, traj=True)[0]


def cmt_coupling_from_draws(spec: VolModelSpec, fine: FactorDraws, db_fine: np.ndarray,
                            carry: np.ndarray) -> CoupledPaths:
    """CMT levels coupled by summed (dW, dB) increments."""
    x_f, y_f = cmt_paths(spec, fine.delta, fine.dW, db_fine, carry[0, :2])
    dw_c = fine.dW[0::2] + fine.dW[1::2]
    x_c, y_c = cmt_paths(spec, 2.0 * fine.delta, dw_c, plain_coarse_db(db_fine), carry[1, :2])
    carry[:, :2] = (x_f[-1], y_f[-1]), (x_c[-1], y_c[-1])
    return CoupledPaths(x_f, y_f, x_c, y_c)


def level_sums(spec: VolModelSpec, kind: SchemeKind, fine: FactorDraws, carry: np.ndarray):
    """Add each level's drifts and squared multipliers into its carry's
    log-asset and value rows, a step at a time: numpy's order for an axis-0
    sum over two or more paths, here for any number of paths. Level j of the
    carry reads the j-th halving of the draws ``fine``; the halvings read the
    node table of ``fine`` (OU-backed specs) or carry their own factor."""
    draws = with_coeffs(spec, fine, (kind,))
    for j, level in enumerate(carry):
        if j:
            draws = coarsen_factor_draws(spec, kind, draws, level[1])
        for drift, mult in zip(*drift_and_mult(spec, kind, draws)):
            level[0] += drift
            level[2] += mult**2
        level[1] = draws.y[-1]


def level_variances(delta: float, carry: np.ndarray) -> np.ndarray:
    """Conditional variances delta * 2^l * (sum of squared multipliers) of
    the levels l of a ``level_sums`` carry, finest (step ``delta``) first."""
    return delta * 2.0 ** np.arange(len(carry))[:, None] * carry[:, 2]


def terminal_values(spec: VolModelSpec, delta: float, carry: np.ndarray,
                    g: np.ndarray) -> np.ndarray:
    """Shared-G terminal log-assets x0 + D + sqrt(V)*G of each level of a
    ``level_sums`` carry on a grid of step ``delta``, shape (levels, paths),
    finest first."""
    return spec.x0 + carry[:, 0] + np.sqrt(level_variances(delta, carry)) * g


def terminal_coupling_from_draws(spec: VolModelSpec, kind: SchemeKind, fine: FactorDraws,
                                 g: np.ndarray, carry: np.ndarray) -> np.ndarray:
    """The ``terminal_values`` of the carry, once ``level_sums`` has added
    each level's drifts D and squared multipliers over the draws ``fine``."""
    require_template(kind)
    level_sums(spec, kind, fine, carry)
    return terminal_values(spec, fine.delta, carry, g)


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


def _lookback_payoffs(spec: VolModelSpec, carry: np.ndarray) -> np.ndarray:
    """Discounted lookback payoffs of each level of a carry at T, from its
    log-asset sum and spot minimum, shape (levels, paths), finest first."""
    return np.exp(-spec.r * spec.T) * (np.exp(carry[:, 0] + spec.x0) - carry[:, 2])


def _bridge_low(spec: VolModelSpec, draws: FactorDraws, x: np.ndarray, db: np.ndarray,
                uniforms: np.ndarray, low: np.ndarray):
    """Lower the spot minima ``low`` in place by each step's Brownian-bridge
    minimum between its left spot and an exponential-Euler spot endpoint,
    drawn from the step's uniform; ``draws`` carry their node table."""
    f_vals, psi_vals = draws.coeffs.prev("f"), draws.coeffs.prev("psi")
    left = np.exp(x[:-1])
    right = left * (1.0 + spec.r * draws.delta
                    + f_vals * (spec.rho * draws.dW + _sqrt1m_rho2(spec) * db))
    np.minimum(low, bridge_min(left, right, psi_vals, draws.delta, uniforms).min(axis=0), out=low)


def lookback_payoffs_from_draws(spec: VolModelSpec, kind: SchemeKind, fine: FactorDraws,
                                db_fine: np.ndarray, uniforms: np.ndarray, carry: np.ndarray):
    """Advance the carry of a coupled lookback pair (``coupling_start`` with
    ``extra`` inf) over the draws; ``_lookback_payoffs`` reads its fine and
    coarse discounted payoffs at T.

    Fine level: for each substep, an exponential-Euler spot endpoint and
    a Brownian-bridge minimum drawn from the substep uniform. Coarse
    level: the trajectorially coupled path supplies the nodes, and each
    coarse step spends its two substep uniforms on two bridge minima via
    a mid endpoint built from the reweighted increments; the bridge
    anchor stays frozen at the left coarse node. The carry's values hold
    the fine and coarse spot minima.
    """
    fine = with_coeffs(spec, fine, (kind,))
    pair, coarse, db_tilde, mult_f = _template_coupling(spec, kind, fine, db_fine, carry,
                                                        traj=True)
    db_mid = lookback_db_mid(db_fine[0::2], db_fine[1::2], mult_f[0::2], mult_f[1::2])
    _bridge_low(spec, fine, pair.x_fine, db_fine, uniforms, carry[0, 2])

    sqrt1m = _sqrt1m_rho2(spec)
    f_c, psi_c = coarse.coeffs.prev("f"), coarse.coeffs.prev("psi")
    left = np.exp(pair.x_coarse[:-1])
    base = left * (1.0 + spec.r * coarse.delta + f_c * spec.rho * coarse.dW)
    s_mid = base + left * f_c * sqrt1m * db_mid
    s_end = base + left * f_c * sqrt1m * db_tilde
    m1 = bridge_min(left, s_mid, psi_c, fine.delta, uniforms[0::2], anchor=left)
    m2 = bridge_min(s_mid, s_end, psi_c, fine.delta, uniforms[1::2], anchor=left)
    np.minimum(carry[1, 2], np.minimum(m1, m2).min(axis=0), out=carry[1, 2])


def coupled_lookback_levels(spec: VolModelSpec, kind: SchemeKind, n_coarse: int,
                            rng: RngStream, npaths: int) -> np.ndarray:
    """Draw coupled lookback payoffs at resolutions 2*n_coarse and n_coarse,
    shape (2, paths), fine first."""
    require_template(kind)
    return _lookback_payoffs(spec, advance_blocks(
        spec, (kind,), 2 * n_coarse, rng, coupling_start(spec, kind, npaths, np.inf),
        lambda _, *block: lookback_payoffs_from_draws(spec, kind, *block),
        reads=("dW", "b", "u")))


def lookback_single_level(spec: VolModelSpec, kind: SchemeKind, n_steps: int,
                          rng: RngStream, npaths: int, first: int = 0) -> np.ndarray:
    """Discounted lookback payoffs on a single grid (MLMC base level), for
    the ``npaths`` paths from path block ``first`` on."""
    require_template(kind)

    def advance(_, draws, db, uniforms, carry):
        x = _assemble_x(spec.x0, *drift_and_mult(spec, kind, draws), db, carry[0, 0])
        _bridge_low(spec, draws, x, db, uniforms, carry[0, 2])

    carry = advance_blocks(spec, (kind,), n_steps, rng,
                           coupling_start(spec, kind, npaths, np.inf, levels=1),
                           advance, reads=("dW", "b", "u"), first=first)
    return _lookback_payoffs(spec, carry)[0]
