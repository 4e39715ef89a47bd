"""Path builders for every scheme, with the factor and CMT step kernels.

Every scheme except CMT fits the conditional-Gaussian template

    x_{k+1} = x_k + drift_k + mult_k * dB_{k+1}

where drift_k and mult_k depend only on the factor-side randomness
(Y values, W increments and the time integral iW). ``drift_and_mult``
computes those two arrays for every step of a draw; the couplings, the
terminal-form simulation and the Romano-Touzi conditioning all reuse
them. It reads the model coefficients from the node table
(``models.NodeCoeffs``) that every factor draw carries from the moment it
is drawn (``FactorDraws.coeffs``), which evaluates each coefficient once
per draw for every scheme that reads it. CMT does not fit the template
(its update mixes dB into the factor recursion) and keeps a dedicated
recursion.

Simulation is vectorized across paths: arrays are laid out with shape
(steps, paths). Every normal has its own stream per path block
(``rng.BlockStreams``): the factor normals "dY", "dW" and "iW" (the
Cholesky order of the OU triple (dY, dW, iW); "dW" and "iW" on generic
specs), the B-increments "b" and the bridge uniforms "u". A batch draws
only the factor normals its schemes read (``factor_normals``): weak2
reads the factor nodes alone, so on an OU-backed spec it draws one normal
per step, which ``draw_factor_paths`` mixes in place (``rng.mix``), as it
does every law's normals. Streams are step-major, so estimators draw and
consume a grid a step block at a time (``advance_blocks``), carrying
per-path state from block to block: memory is O(paths), and the bytes are
those of one draw. A batch is one pass over column blocks of whole path
blocks, cut once for a full step block, so a short grid's blocks are no
wider than a long one's. Each column block opens its own path blocks'
streams and carries its paths through every step block: it draws the
block's steps, builds its factor path from its last node and runs the
estimator on it, so no array of a step block spans the batch. The path
builders are consumers too: ``simulate_paths``
writes each step block's node rows into its output, ``simulate_terminal`` (the
one sampler of x_T for every kind) and ``weak2_terminal`` carry per-path
state, so each works in O(paths x B) memory beside its output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import _parallel
from .errors import InvalidParameterError, NumericalError
from .models import NodeCoeffs, VolModelSpec
from .rng import (PATH_BLOCK, BlockStreams, RngStream, joint_chol, mix, ou_transition_moments,
                  ou_triple_chol)


class SchemeKind(str, Enum):
    EULER = "euler"
    WEAKTRAJ1 = "weaktraj1"
    OU_IMPROVED = "ou-improved"
    WEAK2 = "weak2"
    IJK = "ijk"
    CMT = "cmt"


# Fewest steps of a step block: each block pays for its draw dispatch,
# its arrays and the node table on its first node.
MIN_STEPS = 8

# The factor normals in the Cholesky order of the OU triple; a generic
# spec's law is the pair (dW, iW).
_FACTOR = ("dY", "dW", "iW")


class _Scheme(NamedTuple):
    """What a scheme reads and which form it takes."""

    reads: tuple[str, ...]  # factor increments read besides the factor nodes
    both_ends: frozenset = frozenset()  # coefficients read at both ends of a step
    ou_only: bool = False  # needs exact OU factor simulation
    template: bool = True  # fits the conditional-Gaussian template


# Every scheme kind, the one table of its traits. A template scheme reads
# the coefficients not in ``both_ends`` at the left node only. CMT reads
# dW and builds its own factor path.
_SCHEMES = {
    SchemeKind.EULER: _Scheme(("dW",)),
    SchemeKind.WEAKTRAJ1: _Scheme(("iW",), frozenset({"F"})),
    SchemeKind.OU_IMPROVED: _Scheme(("iW",), frozenset({"F"}), ou_only=True),
    SchemeKind.WEAK2: _Scheme((), frozenset({"F", "h", "psi"})),
    SchemeKind.IJK: _Scheme(("dW",), frozenset({"f", "psi"}), ou_only=True),
    SchemeKind.CMT: _Scheme(("dW",), template=False),
}


@dataclass
class GridPath:
    """Scheme state on the uniform grid; arrays are (N+1,) or (N+1, paths)."""

    times: np.ndarray
    x: np.ndarray
    y: np.ndarray
    m: np.ndarray | None = None
    v: np.ndarray | None = None


@dataclass
class FactorDraws:
    """Factor-side randomness for a batch of paths.

    y has shape (N+1, paths); dW and iW have shape (N, paths). An
    increment whose normal was not drawn is a NaN view of that shape with
    zero strides (``undrawn``), so a scheme that reads it yields NaN, which
    the finiteness checks (the radicand, the estimate) raise as a
    NumericalError. ``coeffs`` is the node table of y, made with the draws.
    For OU-backed specs y is the exact solution at the grid nodes and stays
    consistent under coarsening (coarse nodes = fine even nodes), and the
    coarse draws read the fine draws' table.
    """

    delta: float
    y: np.ndarray
    dW: np.ndarray
    iW: np.ndarray
    coeffs: NodeCoeffs


def undrawn(shape) -> np.ndarray:
    """The stand-in for an increment whose normal was not drawn."""
    return np.broadcast_to(np.nan, shape)


def _is_undrawn(values: np.ndarray) -> bool:
    return values.ndim > 0 and not any(values.strides)


def uses_nv(kind: SchemeKind) -> bool:
    """True if the factor recursion of ``kind`` on a generic spec is
    Ninomiya-Victoir (weak2); every other kind's is Milstein."""
    return kind is SchemeKind.WEAK2


def factor_normals(spec: VolModelSpec, kinds, reads=()) -> tuple[str, ...]:
    """The names of the normals drawn per step for the factor draws of the
    schemes ``kinds``, whose consumer also reads the increments in
    ``reads`` (its other names, streams such as "b", are skipped): the
    Cholesky order ("dY", "dW", "iW") of an OU-backed spec, or ("dW",
    "iW") of a generic one, up to the last increment read; the factor
    nodes read the first."""
    order = _FACTOR[spec.ou is None:]
    read = set(reads).union(*(_SCHEMES[kind].reads for kind in kinds))
    return order[:max([1] + [order.index(name) + 1 for name in read if name in order])]


def block_steps(npaths: int, multiple: int = 2) -> int:
    """Steps per block for ``npaths`` paths: about ``_parallel.step_values()``
    / npaths (BLOCK_VALUES summed over all takers, so a share of it inside
    a pool item), at least MIN_STEPS, rounded down to a multiple of
    ``multiple`` (a coarsening factor) and at least ``multiple``."""
    return multiple * max(1, max(MIN_STEPS, _parallel.step_values() // npaths) // multiple)


def is_template(kind: SchemeKind) -> bool:
    """True if ``kind`` fits the conditional-Gaussian template (every kind but CMT)."""
    return _SCHEMES[kind].template


def require_template(kind: SchemeKind):
    """Raise InvalidParameterError unless ``kind`` fits the template (``is_template``)."""
    if not is_template(kind):
        raise InvalidParameterError(f"scheme {kind.name} has no conditional-Gaussian form")


def _require_ou(spec: VolModelSpec, kind: SchemeKind):
    if _SCHEMES[kind].ou_only and spec.ou is None:
        raise InvalidParameterError(f"scheme {kind.value} requires an OU-backed spec")


def _sqrt1m_rho2(spec: VolModelSpec) -> float:
    return math.sqrt(max(0.0, 1.0 - spec.rho**2))


def _check_batch(n_steps: int, npaths: int):
    if n_steps < 1:
        raise InvalidParameterError(f"need at least one step, got {n_steps}")
    if npaths < 1:
        raise InvalidParameterError(f"need at least one path, got {npaths}")


def _check_finite(values, what: str):
    """Raise NumericalError unless every value is finite."""
    if not np.isfinite(values).all():
        raise NumericalError(f"{what} is not finite (NaN or inf)")


def cutoff_radicand(spec: VolModelSpec, y, correction):
    """Variance radicand psi(y) + correction under the cutoff ``spec.cutoff``.

    ``floor`` keeps only the lower cutoff (max with psi_lower); ``band``
    first caps at psi_hat(y), then floors, matching the left-to-right
    reading of the band cutoff.
    """
    coeffs = spec.node_table(spec, y)
    return _cutoff(spec, coeffs.all("psi") + correction, lambda: coeffs.all("psi_hat"))


def _cutoff(spec: VolModelSpec, rad, psi_hat=None):
    """``rad`` under the floor, and first under the band cap ``psi_hat()``
    when one is given and the spec's cutoff is ``band``."""
    if psi_hat is not None and spec.cutoff == "band":
        rad = np.minimum(rad, psi_hat())
    rad = np.maximum(rad, max(spec.psi_lower, 0.0))
    _check_finite(rad, "variance radicand")
    return rad


# ---------------------------------------------------------------------------
# one-step kernels


def milstein_step_y(spec: VolModelSpec, y, delta: float, dW):
    """Milstein update for the factor SDE."""
    if not delta > 0:
        raise InvalidParameterError(f"delta must be positive, got {delta}")
    sig = spec.sigma(y)
    return y + spec.b(y) * delta + sig * dW + 0.5 * sig * spec.sigma1(y) * (np.asarray(dW) ** 2 - delta)


def nv_step_y(spec: VolModelSpec, y, delta: float, dW):
    """Ninomiya-Victoir update: half drift flow, full vol flow, half drift flow."""
    if not delta > 0:
        raise InvalidParameterError(f"delta must be positive, got {delta}")
    if spec.flow_drift is None or spec.flow_vol is None:
        raise InvalidParameterError("spec supplies no closed-form ODE flows for the NV step")
    half = spec.flow_drift(y, delta / 2.0)
    full = spec.flow_vol(half, dW)
    return spec.flow_drift(full, delta / 2.0)


def cmt_step(spec: VolModelSpec, x, y, delta: float, dW, dB):
    """Cruzeiro-Malliavin-Thalmaier update, all coefficients at the left node."""
    if not delta > 0:
        raise InvalidParameterError(f"delta must be positive, got {delta}")
    get = spec.node_table(spec, y).all
    f_val = np.asarray(get("f"), dtype=float)
    if np.any(np.abs(f_val) < 1e-12):
        raise NumericalError("cmt_step: f(y) vanishes, sigma^2 f'/(2f) term is singular")
    dW = np.asarray(dW)
    dB = np.asarray(dB)
    sig, sig1, fp = get("sigma"), get("sigma1"), get("f1")
    sqrt1m = _sqrt1m_rho2(spec)
    x_next = (
        x
        + (spec.r - 0.5 * get("psi")) * delta
        + spec.rho * f_val * dW
        + 0.5 * spec.rho * sig * fp * dW**2
        + sqrt1m * sig * fp * dW * dB
        + sqrt1m * f_val * dB
        - 0.5 * spec.rho * sig * fp * dB**2
    )
    y_next = (
        y
        + (get("b") + 0.5 * (sig**2 * fp / f_val - sig * sig1)) * delta
        + sig * dW
        + 0.5 * sig * sig1 * dW**2
        - sig**2 * fp / (2.0 * f_val) * dB**2
    )
    return x_next, y_next


# ---------------------------------------------------------------------------
# vectorized path machinery


def _recursive_factor_path(spec: VolModelSpec, delta: float, dW: np.ndarray, kind: SchemeKind,
                           start):
    """The factor path of ``kind`` on a generic spec (``uses_nv``), from the
    values ``start``."""
    n_steps = dW.shape[0]
    y = np.empty((n_steps + 1,) + dW.shape[1:])
    y[0] = start
    step = nv_step_y if uses_nv(kind) else milstein_step_y
    for k in range(n_steps):
        y[k + 1] = step(spec, y[k], delta, dW[k])
    return y


def draw_brownian_increments(normals: np.ndarray, delta: float) -> np.ndarray:
    """The B-increments, variance delta, of the drawn standard normals
    ``normals`` (stream "b"), scaled in place."""
    if not delta > 0:
        raise InvalidParameterError(f"delta must be positive, got {delta}")
    normals *= math.sqrt(delta)
    return normals


def draw_factor_paths(spec: VolModelSpec, kinds, n_steps: int, normals: dict,
                      start) -> FactorDraws:
    """The factor draws of a step block of an n_steps grid from its drawn
    normals, each of shape (steps, paths), from the values ``start`` (y0 at
    the grid's first node), with the one node table that the schemes
    ``kinds`` read.

    ``normals`` holds the factor normals of ``factor_normals`` by name (and
    may hold other streams' draws). They are mixed in place (``rng.mix``)
    into the law of the spec: (dY_stoch, dW, iW) on an OU-backed spec,
    whose y follows the exact transition y' = (mean_shift + decay*y) +
    dY_stoch a row at a time; (dW, iW) on a generic one, whose y follows
    the recursion of ``kinds[0]``: Milstein, or NV for the weak scheme.
    Increments whose normals are missing are ``undrawn``.
    """
    g = [normals.get(name) for name in _FACTOR[spec.ou is None:]]
    _check_batch(n_steps, g[0].shape[1])
    _require_ou(spec, kinds[0])
    delta = spec.T / n_steps
    if spec.ou is None:
        dW, iW = mix(joint_chol(delta), g)
        y = _recursive_factor_path(spec, delta, dW, kinds[0], start)
    else:
        dy, dW, iW = mix(ou_triple_chol(spec.ou, delta), g)
        decay, mean_shift, _, _, _ = ou_transition_moments(spec.ou, delta)
        y = np.empty((dy.shape[0] + 1,) + dy.shape[1:])
        y[0] = start
        for k in range(dy.shape[0]):
            y_next = np.multiply(decay, y[k], out=y[k + 1])
            y_next += mean_shift
            y_next += dy[k]
    shape = g[0].shape
    both_ends = frozenset().union(*(_SCHEMES[kind].both_ends for kind in kinds))
    return FactorDraws(delta, y, undrawn(shape) if dW is None else dW,
                       undrawn(shape) if iW is None else iW, spec.node_table(spec, y, both_ends))


def advance_blocks(spec: VolModelSpec, kinds, n_steps: int, rng: RngStream, carry: np.ndarray,
                   advance, reads=("b",), multiple: int = 2, first: int = 0) -> np.ndarray:
    """The per-path ``carry``, advanced in place over an n_steps grid drawn
    from ``rng`` a step block at a time, and returned.

    The batch is the paths of the carry's last axis, from path block
    ``first`` on (``rng.BlockStreams``). Step blocks hold ``block_steps``
    steps (the last one what is left). ``reads`` names what the consumer
    reads besides the factor nodes: factor increments ("dW", "iW") and
    streams, "b" (B-increments) or "u" (bridge uniforms). The batch is one
    pass over the pool, gated on the values of its first step block, whose
    items are column blocks of whole path blocks (``_parallel.column_blocks``)
    cut for a full step block, so no item of a short grid holds more paths
    than an item of a full step block. Each item opens its own path blocks'
    streams and carries its columns through every step block: it draws the
    block's factor normals that ``kinds`` and ``reads`` need and the
    streams, builds its factor draws (``draw_factor_paths``) from its paths'
    last node of the step block before, and runs ``advance(k0, draws,
    *streams, carry)`` with k0 the block's first step in the grid, its
    streams in ``reads`` order, and a view of
    the carry's last axis. Once an item has built its factor draws, it keeps
    only the arrays that ``advance`` reads: on an OU-backed spec, the spent
    dY normals are freed first. The block with k0 + its steps == n_steps is
    the item's last, where ``advance`` may read its paths' values off the
    carry (``pricing.conditional_call_values``).
    """
    npaths = carry.shape[-1]
    _check_batch(n_steps, npaths)
    streams = tuple(name for name in reads if name not in _FACTOR)
    names = factor_normals(spec, kinds, reads) + streams
    size = block_steps(npaths, multiple)

    def item(cols):
        batch = BlockStreams(rng, cols.stop - cols.start, first + cols.start // PATH_BLOCK)
        last = spec.y0  # the paths' factor node at the end of the step block before
        for k0 in range(0, n_steps, size):
            drawn = batch.draw(min(size, n_steps - k0), names)
            draws = draw_factor_paths(spec, kinds, n_steps, drawn, last)
            last = draws.y[-1].copy()
            arrays = [draw_brownian_increments(drawn[name], draws.delta) if name == "b"
                      else drawn[name] for name in streams]
            del drawn  # spent normals go now; draws and arrays hold what is read
            advance(k0, draws, *arrays, carry[..., cols])
            del draws, arrays  # before the next step block is drawn

    _parallel.map_tasks(item, _parallel.column_blocks(npaths, size, PATH_BLOCK),
                        min(size, n_steps) * npaths)
    return carry


def coarsen_factor_draws(spec: VolModelSpec, kind: SchemeKind,
                         fine: FactorDraws, start) -> FactorDraws:
    """Halve the resolution of factor draws consistently with the fine grid.

    Coarse dW sums the two fine increments; the coarse time integral
    uses iW_coarse = iW_1 + iW_2 + delta_fine * dW_1. For OU-backed
    specs the coarse factor values are the fine even nodes (the exact
    solution restricted to the coarse grid), and the coarse node table
    reads the fine one (``even_nodes``); generic specs re-run the factor
    recursion of ``kind`` on the summed increments, from the coarse values
    ``start``, which OU-backed specs do not read, and make a new table for
    ``kind``. Undrawn increments stay undrawn.
    """
    if fine.dW.shape[0] % 2 != 0:
        raise InvalidParameterError("fine draws must have an even number of steps")
    delta_c = 2.0 * fine.delta
    # undrawn increments stay undrawn (where dW is undrawn, so is iW)
    dW_c = fine.dW[0::2] if _is_undrawn(fine.dW) else fine.dW[0::2] + fine.dW[1::2]
    iW_c = (fine.iW[0::2] if _is_undrawn(fine.iW)
            else fine.iW[0::2] + fine.iW[1::2] + fine.delta * fine.dW[0::2])
    if spec.ou is not None:
        return FactorDraws(delta_c, fine.y[::2], dW_c, iW_c, fine.coeffs.even_nodes())
    y_c = _recursive_factor_path(spec, delta_c, dW_c, kind, start)
    return FactorDraws(delta_c, y_c, dW_c, iW_c,
                       spec.node_table(spec, y_c, _SCHEMES[kind].both_ends))


def drift_and_mult(spec: VolModelSpec, kind: SchemeKind, draws: FactorDraws):
    """Per-step drift and B-multiplier arrays for template schemes.

    Conditionally on the factor draws, the log-asset path is
    x_{k+1} = x_k + drift[k] + mult[k]*dB[k]; both arrays have shape
    (N, paths). The coefficients come from the node table of ``draws``.
    """
    require_template(kind)
    _require_ou(spec, kind)
    prev, nxt = draws.coeffs.prev, draws.coeffs.next
    delta = draws.delta
    sqrt1m = _sqrt1m_rho2(spec)
    if kind is SchemeKind.WEAKTRAJ1:
        drift = spec.rho * (nxt("F") - prev("F")) + delta * prev("h")
        correction = prev("sigma") * prev("psi1") * draws.iW / delta
        rad = _cutoff(spec, prev("psi") + correction, lambda: prev("psi_hat"))
        mult = sqrt1m * np.sqrt(rad)
    elif kind is SchemeKind.OU_IMPROVED:
        if spec.h1 is None or spec.h2 is None:
            raise InvalidParameterError("OU_IMPROVED needs closed-form h' and h''")
        ou = spec.ou
        pull = ou.kappa * (ou.theta - prev("y"))
        drift = (
            spec.rho * (nxt("F") - prev("F"))
            + delta * prev("h")
            + ou.nu * prev("h1") * draws.iW
            + (pull * prev("h1") + 0.5 * ou.nu**2 * prev("h2")) * delta**2 / 2.0
        )
        psi_tilde = (
            prev("psi")
            + ou.nu * prev("psi1") * draws.iW / delta
            + (pull * prev("psi1") + 0.5 * ou.nu**2 * prev("psi2")) * delta / 2.0
        )
        mult = sqrt1m * np.sqrt(_cutoff(spec, psi_tilde))
    elif kind is SchemeKind.EULER:
        drift = (spec.r - 0.5 * prev("psi")) * delta + spec.rho * prev("f") * draws.dW
        mult = sqrt1m * prev("f")
        mult = np.broadcast_to(np.asarray(mult), drift.shape)
    elif kind is SchemeKind.IJK:
        nu = spec.ou.nu
        drift = (
            (spec.r - (nxt("psi") + prev("psi")) / 4.0) * delta
            + spec.rho * prev("f") * draws.dW
            + 0.5 * spec.rho * nu * prev("f1") * (draws.dW**2 - delta)
        )
        mult = sqrt1m * 0.5 * (nxt("f") + prev("f"))
    else:  # WEAK2
        drift = (
            spec.rho * (nxt("F") - prev("F"))
            + delta * 0.5 * (prev("h") + nxt("h"))
        )
        mult = sqrt1m * np.sqrt(0.5 * (prev("psi") + nxt("psi")))
    return drift, mult


def cmt_paths(spec: VolModelSpec, delta: float, dW: np.ndarray, dB: np.ndarray, start):
    """CMT recursion of a batch of paths from their nodes ``start`` = (x, y).

    Returns the (x, y) node arrays; raises NumericalError on a node that is not finite.
    """
    n_steps = dW.shape[0]
    x = np.empty((n_steps + 1,) + dW.shape[1:])
    y = np.empty_like(x)
    x[0], y[0] = start
    for k in range(n_steps):
        x[k + 1], y[k + 1] = cmt_step(spec, x[k], y[k], delta, dW[k], dB[k])
    _check_finite(x, "CMT log-asset path")
    _check_finite(y, "CMT factor path")
    return x, y


def _running_sum(nodes: np.ndarray, increments: np.ndarray) -> np.ndarray:
    """``nodes``, one row more than ``increments``, filled in place from its
    first row: row k+1 becomes row k + increments[k].

    The sum runs a row at a time, in cumsum's order: a cumsum over axis 0
    walks each path's column at the row stride, 5-7 times slower at
    10,000 paths."""
    for k in range(increments.shape[0]):
        np.add(nodes[k], increments[k], out=nodes[k + 1, ...])
    return nodes


def _assemble_x(x0: float, drift: np.ndarray, mult: np.ndarray, dB: np.ndarray,
                total: np.ndarray):
    """Log-asset nodes x0 + the running sum of drift + mult*dB; ``total``, the
    sum at the first node, is advanced in place to the last."""
    x = np.empty((drift.shape[0] + 1,) + drift.shape[1:])
    x[0] = total
    _running_sum(x, drift + mult * dB)
    total[...] = x[-1]
    x += x0
    return x


def _weak2_increments(draws: FactorDraws):
    """Per-step trapezoidal increments of the integrals m of h and v of psi
    along the factor path, from the node table of ``draws``."""
    get = draws.coeffs.all
    return [draws.delta * 0.5 * (values[:-1] + values[1:]) for values in (get("h"), get("psi"))]


def simulate_paths(kind: SchemeKind, spec: VolModelSpec, n_steps: int,
                   rng: RngStream, npaths: int) -> GridPath:
    """Simulate a batch of paths on the uniform grid.

    Draws the factor normals of ``kind`` and the B-increments "b" of the
    ``npaths`` paths a step block at a time (``advance_blocks``), and
    writes each block's nodes into the output, so that the memory beside
    the output is that of a step block. CMT runs its own recursion
    (``cmt_paths``); weak2 also returns the running integrals m and v.
    """
    _check_batch(n_steps, npaths)
    weak2 = kind is SchemeKind.WEAK2
    # rows x, y (and m, v); a template scheme's x row holds the running sum
    # of its increments until x0 is added at the end
    nodes = np.zeros((4 if weak2 else 2, n_steps + 1, npaths))
    nodes[1, 0] = spec.y0
    if kind is SchemeKind.CMT:
        nodes[0, 0] = spec.x0

    def advance(k0, draws, db, out):
        block = out[:, k0:k0 + db.shape[0] + 1]
        if kind is SchemeKind.CMT:
            x, y = cmt_paths(spec, draws.delta, draws.dW, db, block[:2, 0])
            block[0, 1:], block[1, 1:] = x[1:], y[1:]
            return
        drift, mult = drift_and_mult(spec, kind, draws)
        _running_sum(block[0], drift + mult * db)
        block[1, 1:] = draws.y[1:]
        if weak2:
            for row, increments in zip(block[2:], _weak2_increments(draws)):
                _running_sum(row, increments)

    advance_blocks(spec, (kind,), n_steps, rng, nodes, advance)
    if kind is not SchemeKind.CMT:
        nodes[0] += spec.x0
    m, v = nodes[2:] if weak2 else (None, None)
    return GridPath(times=np.linspace(0.0, spec.T, n_steps + 1), x=nodes[0], y=nodes[1],
                    m=m, v=v)


def simulate_terminal(kind: SchemeKind, spec: VolModelSpec, n_steps: int, rng: RngStream,
                      npaths: int, first: int = 0) -> np.ndarray:
    """Terminal log-assets of the ``npaths`` paths from path block ``first``
    on: the bytes of the last x row of ``simulate_paths``, from an O(paths)
    carry of (x, y) advanced as ``simulate_paths`` advances its nodes."""
    _check_batch(n_steps, npaths)
    cmt = kind is SchemeKind.CMT
    carry = np.array([[spec.x0 if cmt else 0.0], [spec.y0]]).repeat(npaths, axis=1)

    def advance(_, draws, db, carry):
        if cmt:
            x, y = cmt_paths(spec, draws.delta, draws.dW, db, carry)
            carry[0], carry[1] = x[-1], y[-1]
            return
        drift, mult = drift_and_mult(spec, kind, draws)
        for row in drift + mult * db:
            carry[0] += row

    x = advance_blocks(spec, (kind,), n_steps, rng, carry, advance, first=first)[0]
    return x if cmt else x + spec.x0


def weak2_terminal(spec: VolModelSpec, n_steps: int, rng: RngStream, npaths: int):
    """Terminal draw of the second-order weak scheme.

    Returns (xT, yT, m_bar, v_bar), arrays of length npaths. The factor
    path uses the exact OU transition when available, the NV scheme
    otherwise, a step block at a time (``advance_blocks``); one
    independent normal G (stream "b", one row) closes the conditional
    Gaussian.
    """
    if not -1.0 < spec.rho < 1.0:
        raise InvalidParameterError(f"weak2_terminal requires rho in (-1, 1), got {spec.rho}")

    def advance(_, draws, carry):
        carry[0] = draws.y[-1]
        for total, increments in zip(carry[1:], _weak2_increments(draws)):
            for row in increments:
                total += row

    y_terminal, m_bar, v_bar = advance_blocks(spec, (SchemeKind.WEAK2,), n_steps, rng,
                                              np.zeros((3, npaths)), advance, reads=())
    g = BlockStreams(rng, npaths).draw(1, ("b",))["b"][0]
    x_terminal = (
        spec.x0
        + spec.rho * (spec.F(y_terminal) - spec.F(spec.y0))
        + m_bar
        + np.sqrt((1.0 - spec.rho**2) * v_bar) * g
    )
    return x_terminal, y_terminal, m_bar, v_bar
