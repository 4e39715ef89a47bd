"""Path builders for every scheme, with the factor and CMT step kernels.

Every scheme except CMT fits the conditional-Gaussian template

    x_{k+1} = x_k + drift_k + mult_k * dB_{k+1}

where drift_k and mult_k depend only on the factor-side randomness
(Y values, W increments and the time integral iW). ``drift_and_mult``
computes those two arrays for every step of a draw; the couplings, the
terminal-form simulation and the Romano-Touzi conditioning all reuse
them. It reads the model coefficients from a node table
(``models.NodeCoeffs``), which evaluates each coefficient once per
factor draw; draws that carry a table (``FactorDraws.coeffs``) share it
between schemes and with their coarsened draws. CMT does not fit the
template (its update mixes dB into the factor recursion) and keeps a
dedicated recursion.

Simulation is vectorized across paths: arrays are laid out with shape
(steps, paths). Every normal has its own stream per path block
(``rng.BlockStreams``): the factor normals "dY", "dW" and "iW" (the
Cholesky order of the OU triple (dY, dW, iW); "dW" and "iW" on generic
specs), the B-increments "b" and the bridge uniforms "u". A batch draws
only the factor normals its schemes read (``factor_normals``): weak2
reads the factor nodes alone, so on an OU-backed spec it draws one normal
per step. Streams are step-major, so estimators draw and consume a grid a
step block at a time (``advance_blocks``), carrying per-path state from
block to block: memory is O(paths), and the bytes are those of one draw.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _parallel
from ._parallel import map_blocks
from .errors import InvalidParameterError, NumericalError
from .models import NodeCoeffs, VolModelSpec
from .rng import BlockStreams, RngStream, joint_chol, ou_transition_moments, ou_triple_chol


class SchemeKind(str, Enum):
    EULER = "euler"
    WEAKTRAJ1 = "weaktraj1"
    OU_IMPROVED = "ou-improved"
    WEAK2 = "weak2"
    IJK = "ijk"
    CMT = "cmt"


# Kinds that only make sense with exact OU factor simulation.
_OU_ONLY = {SchemeKind.OU_IMPROVED, SchemeKind.IJK}

# Fewest steps of a step block: each block pays for its draw dispatch,
# its arrays and the node table on its first node.
MIN_STEPS = 8

# Coefficients each template scheme reads at both ends of a step; it
# reads every other coefficient at the left node only.
_BOTH_ENDS = {
    SchemeKind.EULER: frozenset(),
    SchemeKind.WEAKTRAJ1: frozenset({"F"}),
    SchemeKind.OU_IMPROVED: frozenset({"F"}),
    SchemeKind.WEAK2: frozenset({"F", "h", "psi"}),
    SchemeKind.IJK: frozenset({"f", "psi"}),
}


# The factor increments each scheme reads besides the factor nodes (CMT
# reads dW and builds its own factor path).
_READS = {
    SchemeKind.WEAK2: (),
    SchemeKind.EULER: ("dW",),
    SchemeKind.IJK: ("dW",),
    SchemeKind.CMT: ("dW",),
    SchemeKind.WEAKTRAJ1: ("iW",),
    SchemeKind.OU_IMPROVED: ("iW",),
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
    NumericalError. For OU-backed specs y is the exact solution
    at the grid nodes and stays consistent under coarsening (coarse nodes
    = fine even nodes), and the coarse draws read the node table
    ``coeffs`` of the fine draws when those carry one.
    """

    delta: float
    y: np.ndarray
    dW: np.ndarray
    iW: np.ndarray
    coeffs: NodeCoeffs | None = None

    def columns(self, cols: slice) -> "FactorDraws":
        """The draws of the paths selected by ``cols``, as views, without a table."""
        return FactorDraws(self.delta, self.y[..., cols], self.dW[..., cols], self.iW[..., cols])


def undrawn(shape) -> np.ndarray:
    """The stand-in for an increment whose normal was not drawn."""
    return np.broadcast_to(np.nan, shape)


def _is_undrawn(values: np.ndarray) -> bool:
    return values.ndim > 0 and not any(values.strides)


def factor_normals(spec: VolModelSpec, kinds, reads=()) -> tuple[str, ...]:
    """The names of the normals drawn per step for the factor draws of the
    schemes ``kinds``, whose consumer also reads the increments ``reads``:
    the Cholesky order ("dY", "dW", "iW") of an OU-backed spec, or ("dW",
    "iW") of a generic one, up to the last increment read; the factor
    nodes read the first."""
    order = ("dY", "dW", "iW") if spec.ou is not None else ("dW", "iW")
    read = set(reads).union(*(_READS[kind] for kind in kinds))
    return order[:max([1] + [order.index(name) + 1 for name in read])]


def block_steps(npaths: int, multiple: int = 2) -> int:
    """Steps per block for ``npaths`` paths: about BLOCK_VALUES / npaths,
    at least MIN_STEPS, rounded down to a multiple of ``multiple`` (a
    coarsening factor) and at least ``multiple``."""
    return multiple * max(1, max(MIN_STEPS, _parallel.BLOCK_VALUES // npaths) // multiple)


def with_coeffs(spec: VolModelSpec, draws: FactorDraws, kinds) -> FactorDraws:
    """The draws with a node table, built for the template schemes ``kinds``
    unless the draws already carry one."""
    if draws.coeffs is not None:
        return draws
    both_ends = frozenset().union(*(_BOTH_ENDS.get(kind, ()) for kind in kinds))
    return dataclasses.replace(draws, coeffs=spec.node_table(spec, draws.y, both_ends))


def _require_ou(spec: VolModelSpec, kind: SchemeKind):
    if spec.ou is None:
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


def cutoff_radicand(spec: VolModelSpec, y, correction, cutoff: str = "floor"):
    """Variance radicand psi(y) + correction with the configured cutoff.

    ``floor`` keeps only the lower cutoff (max with psi_lower); ``band``
    first caps at psi_hat(y), then floors, matching the left-to-right
    reading of the band cutoff.
    """
    coeffs = spec.node_table(spec, y)
    return _cutoff(spec, coeffs.all("psi") + correction, lambda: coeffs.all("psi_hat"), cutoff)


def _cutoff(spec: VolModelSpec, rad, psi_hat, cutoff: str):
    """``rad`` under the cutoff; ``psi_hat()`` gives the band cap (``band`` only)."""
    if cutoff == "band":
        rad = np.minimum(rad, psi_hat())
    elif cutoff != "floor":
        raise InvalidParameterError(f"unknown cutoff {cutoff!r}; expected 'floor' or 'band'")
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


def _recursive_factor_path(spec: VolModelSpec, delta: float, dW: np.ndarray, use_nv: bool,
                           start):
    """Milstein (or NV) factor path for generic specs, from the values ``start``."""
    n_steps = dW.shape[0]
    y = np.empty((n_steps + 1,) + dW.shape[1:])
    y[0] = start
    for k in range(n_steps):
        if use_nv:
            y[k + 1] = nv_step_y(spec, y[k], delta, dW[k])
        else:
            y[k + 1] = milstein_step_y(spec, y[k], delta, dW[k])
    return y


def draw_brownian_increments(normals: np.ndarray, delta: float) -> np.ndarray:
    """The B-increments, variance delta, of the drawn standard normals
    ``normals`` (stream "b"), scaled in place."""
    if not delta > 0:
        raise InvalidParameterError(f"delta must be positive, got {delta}")
    normals *= math.sqrt(delta)
    return normals


def _ou_factor_draws(spec: VolModelSpec, delta: float, g: dict, start) -> FactorDraws:
    """Exact OU draws from the normals g ("dY" and, if drawn, "dW" and "iW",
    each of shape (N, paths)) and the values ``start``.

    Runs over column blocks of paths, one step at a time within a block,
    so the Cholesky mix of (dY_stoch, dW, iW) and the exact recursion
    y' = mean_shift + decay*y + dY_stoch keep only one-row temporaries;
    dW and iW overwrite their own normals.
    """
    g0 = g["dY"]
    n_steps, npaths = g0.shape
    chol = ou_triple_chol(spec.ou, delta)
    decay, mean_shift, _, _, _ = ou_transition_moments(spec.ou, delta)
    dW, iW = g.get("dW"), g.get("iW")
    y = np.empty((n_steps + 1, npaths))
    y[0] = start
    # two scratch rows allocated here: arrays allocated in worker threads
    # grow per-thread malloc arenas (+3 MB peak RSS over an MLMC run)
    scratch = np.empty((2, npaths))

    def build(cols):
        term, mix = scratch[0, cols], scratch[1, cols]
        for k in range(n_steps):
            z = g0[k, cols]
            if iW is not None:
                # iW = (c20*g0 + c21*g1) + c22*g2, before g1 becomes dW
                np.multiply(chol[2, 0], z, out=mix)
                mix += np.multiply(chol[2, 1], dW[k, cols], out=term)
                iw = iW[k, cols]
                iw *= chol[2, 2]
                iw += mix
            if dW is not None:
                # dW = c10*g0 + c11*g1
                dw = dW[k, cols]
                dw *= chol[1, 1]
                dw += np.multiply(chol[1, 0], z, out=term)
            # y' = (mean_shift + decay*y) + c00*g0
            y_next = np.multiply(decay, y[k, cols], out=y[k + 1, cols])
            y_next += mean_shift
            y_next += np.multiply(chol[0, 0], z, out=term)

    # each numpy call sees one row of a block, so a block needs MIN_BLOCK
    # paths: narrower rows run slower on two threads than on one, as the
    # calls contend for the interpreter lock (on a 2-core Xeon, 256 steps
    # x 10,000 paths took a third longer on two)
    map_blocks(build, npaths)
    shape = (n_steps, npaths)
    return FactorDraws(delta=delta, y=y, dW=undrawn(shape) if dW is None else dW,
                       iW=undrawn(shape) if iW is None else iW)


def draw_factor_paths(spec: VolModelSpec, kind: SchemeKind, n_steps: int, normals: dict,
                      start=None) -> FactorDraws:
    """The factor draws of a step block of an n_steps grid from its drawn
    normals, each of shape (steps, paths), from the values ``start`` (y0 by
    default).

    ``normals`` holds the factor normals of ``factor_normals`` by name (and
    may hold other streams' draws). OU-backed specs mix them into (dY, dW,
    iW), overwriting the dW and iW normals, and build y by the exact
    transition; generic specs map them to (dW, iW) and build y by Milstein
    (NV for the weak scheme). Increments whose normals are missing are
    ``undrawn``.
    """
    g0 = normals["dY" if spec.ou is not None else "dW"]
    _check_batch(n_steps, g0.shape[1])
    if kind in _OU_ONLY:
        _require_ou(spec, kind)
    delta = spec.T / n_steps
    start = spec.y0 if start is None else start
    if spec.ou is not None:
        return _ou_factor_draws(spec, delta, normals, start)
    chol = joint_chol(delta)
    dW = chol[0, 0] * g0
    iW = (chol[1, 0] * g0 + chol[1, 1] * normals["iW"] if "iW" in normals
          else undrawn(dW.shape))
    y = _recursive_factor_path(spec, delta, dW, kind is SchemeKind.WEAK2, start)
    return FactorDraws(delta=delta, y=y, dW=dW, iW=iW)


def advance_blocks(spec: VolModelSpec, kinds, n_steps: int, rng: RngStream, npaths: int,
                   start, advance, streams=("b",), multiple: int = 2, reads=(),
                   first: int = 0) -> np.ndarray:
    """The carry ``start()``, made once the first block is drawn, advanced over
    an n_steps grid drawn from ``rng`` a step block at a time.

    The batch is the ``npaths`` paths from path block ``first`` on
    (``rng.BlockStreams``). Step blocks hold ``block_steps`` steps (the
    last one what is left). Each draws, in one pass over the path-parallel
    pool, the next steps of the factor normals that ``kinds`` and the
    consumer (``reads``) read, and of each stream in ``streams``: "b"
    (B-increments) or "u" (bridge uniforms); the factor draws are those of
    ``kinds[0]``, from the last node of the block before. ``advance(draws,
    *arrays, carry)`` then runs on column blocks of the paths, on views of
    the arrays and of the carry's last axis; the draws carry one node table
    for ``kinds``.
    """
    _check_batch(n_steps, npaths)
    batch = BlockStreams(rng, npaths, first)
    normals = factor_normals(spec, kinds, reads) + tuple(n for n in streams if n == "b")
    uniforms = tuple(n for n in streams if n != "b")
    size = block_steps(npaths, multiple)
    carry = y_last = None
    for k0 in range(0, n_steps, size):
        drawn = batch.draw(min(size, n_steps - k0), normals, uniforms)
        draws = draw_factor_paths(spec, kinds[0], n_steps, drawn, y_last)
        y_last = draws.y[-1].copy()
        arrays = [draw_brownian_increments(drawn[name], draws.delta) if name == "b"
                  else drawn[name] for name in streams]
        if carry is None:
            carry = start()
        map_blocks(lambda cols: advance(with_coeffs(spec, draws.columns(cols), kinds),
                                        *(a[:, cols] for a in arrays), carry[..., cols]),
                   npaths, rows=draws.dW.shape[0])
        del drawn, draws, arrays  # released before the next block is drawn
    return carry


def coarsen_factor_draws(spec: VolModelSpec, kind: SchemeKind,
                         fine: FactorDraws, start=None) -> FactorDraws:
    """Halve the resolution of factor draws consistently with the fine grid.

    Coarse dW sums the two fine increments; the coarse time integral
    uses iW_coarse = iW_1 + iW_2 + delta_fine * dW_1. For OU-backed
    specs the coarse factor values are the fine even nodes (the exact
    solution restricted to the coarse grid), and the coarse node table
    reads the fine one; generic specs re-run their factor recursion on
    the summed increments, from the coarse values ``start`` (y0 by
    default). Undrawn increments stay undrawn.
    """
    if fine.dW.shape[0] % 2 != 0:
        raise InvalidParameterError("fine draws must have an even number of steps")
    delta_c = 2.0 * fine.delta
    # undrawn increments stay undrawn (where dW is undrawn, so is iW)
    dW_c = fine.dW[0::2] if _is_undrawn(fine.dW) else fine.dW[0::2] + fine.dW[1::2]
    iW_c = (fine.iW[0::2] if _is_undrawn(fine.iW)
            else fine.iW[0::2] + fine.iW[1::2] + fine.delta * fine.dW[0::2])
    if spec.ou is not None:
        coeffs = None if fine.coeffs is None else fine.coeffs.even_nodes()
        return FactorDraws(delta=delta_c, y=fine.y[::2], dW=dW_c, iW=iW_c, coeffs=coeffs)
    y_c = _recursive_factor_path(spec, delta_c, dW_c, kind is SchemeKind.WEAK2,
                                 spec.y0 if start is None else start)
    return FactorDraws(delta=delta_c, y=y_c, dW=dW_c, iW=iW_c)


def drift_and_mult(spec: VolModelSpec, kind: SchemeKind, draws: FactorDraws,
                   cutoff: str = "floor"):
    """Per-step drift and B-multiplier arrays for template schemes.

    Conditionally on the factor draws, the log-asset path is
    x_{k+1} = x_k + drift[k] + mult[k]*dB[k]; both arrays have shape
    (N, paths). The coefficients come from the node table of ``draws``,
    built here if they carry none.
    """
    if kind not in _BOTH_ENDS:
        raise InvalidParameterError(f"scheme {kind.value} has no drift/multiplier form")
    draws = with_coeffs(spec, draws, (kind,))
    prev, nxt = draws.coeffs.prev, draws.coeffs.next
    delta = draws.delta
    sqrt1m = _sqrt1m_rho2(spec)
    if kind is SchemeKind.WEAKTRAJ1:
        drift = spec.rho * (nxt("F") - prev("F")) + delta * prev("h")
        correction = prev("sigma") * prev("psi1") * draws.iW / delta
        rad = _cutoff(spec, prev("psi") + correction, lambda: prev("psi_hat"), cutoff)
        mult = sqrt1m * np.sqrt(rad)
    elif kind is SchemeKind.OU_IMPROVED:
        _require_ou(spec, kind)
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
        mult = sqrt1m * np.sqrt(_cutoff(spec, psi_tilde, None, "floor"))
    elif kind is SchemeKind.EULER:
        drift = (spec.r - 0.5 * prev("psi")) * delta + spec.rho * prev("f") * draws.dW
        mult = sqrt1m * prev("f")
        mult = np.broadcast_to(np.asarray(mult), drift.shape)
    elif kind is SchemeKind.IJK:
        _require_ou(spec, kind)
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


def cmt_paths(spec: VolModelSpec, delta: float, dW: np.ndarray, dB: np.ndarray, start=None):
    """CMT recursion over a batch of paths from the nodes ``start`` = (x, y)
    (x0 and y0 by default); returns (x, y) node arrays.

    Raises NumericalError if a node of x or y is not finite.
    """
    n_steps = dW.shape[0]
    x = np.empty((n_steps + 1,) + dW.shape[1:])
    y = np.empty_like(x)
    x[0], y[0] = (spec.x0, spec.y0) if start is None else start
    for k in range(n_steps):
        x[k + 1], y[k + 1] = cmt_step(spec, x[k], y[k], delta, dW[k], dB[k])
    _check_finite(x, "CMT log-asset path")
    _check_finite(y, "CMT factor path")
    return x, y


def _assemble_x(x0: float, drift: np.ndarray, mult: np.ndarray, dB: np.ndarray, total=None):
    """Log-asset nodes x0 + the running sum of drift + mult*dB; ``total``, the
    sum at the first node (zero by default), is advanced in place to the last."""
    increments = drift + mult * dB
    x = np.empty((increments.shape[0] + 1,) + increments.shape[1:])
    if total is None:
        total = np.zeros(increments.shape[1:])
    x[0] = total
    increments[0] += total
    np.cumsum(increments, axis=0, out=x[1:])
    total[...] = x[-1]
    x += x0
    return x


def _weak2_accumulators(spec: VolModelSpec, draws: FactorDraws):
    """Cumulative trapezoidal integrals of h and f^2 along the factor path."""
    coeffs = with_coeffs(spec, draws, (SchemeKind.WEAK2,)).coeffs
    h_vals = coeffs.all("h")
    psi_vals = coeffs.all("psi")
    m_inc = draws.delta * 0.5 * (h_vals[:-1] + h_vals[1:])
    v_inc = draws.delta * 0.5 * (psi_vals[:-1] + psi_vals[1:])
    shape = (m_inc.shape[0] + 1,) + m_inc.shape[1:]
    m = np.zeros(shape)
    v = np.zeros(shape)
    np.cumsum(m_inc, axis=0, out=m[1:])
    np.cumsum(v_inc, axis=0, out=v[1:])
    return m, v


def simulate_paths(kind: SchemeKind, spec: VolModelSpec, n_steps: int,
                   rng: RngStream, npaths: int, cutoff: str = "floor",
                   first: int = 0) -> GridPath:
    """Simulate a batch of paths on the uniform grid.

    Draws the factor normals of ``kind`` and the B-increments "b" of the
    ``npaths`` paths from path block ``first`` on (``rng.BlockStreams``).
    """
    drawn = BlockStreams(rng, npaths, first).draw(
        n_steps, factor_normals(spec, (kind,)) + ("b",))
    draws = draw_factor_paths(spec, kind, n_steps, drawn)
    dB = draw_brownian_increments(drawn["b"], draws.delta)
    times = np.linspace(0.0, spec.T, n_steps + 1)
    if kind is SchemeKind.CMT:
        x, y = cmt_paths(spec, draws.delta, draws.dW, dB)
        return GridPath(times=times, x=x, y=y)
    drift, mult = drift_and_mult(spec, kind, draws, cutoff)
    x = _assemble_x(spec.x0, drift, mult, dB)
    m = v = None
    if kind is SchemeKind.WEAK2:
        m, v = _weak2_accumulators(spec, draws)
    return GridPath(times=times, x=x, y=draws.y, m=m, v=v)


def weak2_terminal(spec: VolModelSpec, n_steps: int, rng: RngStream, npaths: int | None = None):
    """Terminal draw of the second-order weak scheme.

    Returns (xT, yT, m_bar, v_bar); scalars when npaths is None, arrays
    of length npaths otherwise. The factor path uses the exact OU
    transition when available, the NV scheme otherwise; one independent
    normal G (stream "b") closes the conditional Gaussian.
    """
    if not -1.0 < spec.rho < 1.0:
        raise InvalidParameterError(f"weak2_terminal requires rho in (-1, 1), got {spec.rho}")
    squeeze = npaths is None
    batch = BlockStreams(rng, 1 if squeeze else npaths)
    draws = draw_factor_paths(spec, SchemeKind.WEAK2, n_steps,
                              batch.draw(n_steps, factor_normals(spec, (SchemeKind.WEAK2,))))
    m, v = _weak2_accumulators(spec, draws)
    g = batch.draw(1, normals=("b",))["b"][0]
    y_terminal = draws.y[-1]
    m_bar = m[-1]
    v_bar = v[-1]
    x_terminal = (
        spec.x0
        + spec.rho * (spec.F(y_terminal) - spec.F(spec.y0))
        + m_bar
        + np.sqrt((1.0 - spec.rho**2) * v_bar) * g
    )
    if squeeze:
        return float(x_terminal[0]), float(y_terminal[0]), float(m_bar[0]), float(v_bar[0])
    return x_terminal, y_terminal, m_bar, v_bar
