"""Reproducible random streams and the exact joint laws of the schemes.

Streams are counter-based (Philox) and keyed by hashing a (seed, path)
tuple, so any worker can recreate its stream from the seed and a list
of identifiers without coordination. Normals are produced by inversion
of the standard normal CDF, so a fixed draw index always maps to the
same variate.

A batch of paths draws from one stream per path block and per name
(``BlockStreams``): path p of a run reads block p // PATH_BLOCK, so an
item of whole blocks draws what it would draw inside a larger batch,
whatever the item cut and the number of CPUs, and a scheme pays only for
the normals it reads.

Each joint law mixes independent standard normals by the lower Cholesky
factor of its covariance (``mix``). The laws implemented here:

* (dW, iW) where iW = int_{t_k}^{t_{k+1}} (W_s - W_{t_k}) ds, with
  covariance [[delta, delta^2/2], [delta^2/2, delta^3/3]];
* the exact OU transition (Y_{k+1} - e^{-kappa*delta} Y_k, iW) with the
  closed-form (M, Gamma) moments;
* the full triple (dY_stoch, dW, iW) used to keep fine and coarse grids
  of a coupling consistent, where dY_stoch is the stochastic part of the
  exact OU increment.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from scipy.special import ndtri

from ._parallel import map_tasks
from .errors import InvalidParameterError, NumericalError
from .models import OUParams

# Smallest uniform fed to the inverse CDF; Generator.random() lies in
# [0, 1) so only the exact-zero draw needs the clip.
_U_FLOOR = 2.0**-64

# Paths per path block: every stream of a batch serves one block of
# PATH_BLOCK consecutive paths of the run (the last block of a batch may
# be narrower).
PATH_BLOCK = 4096

# The streams drawn as uniforms on (0, 1]; every other one as normals.
UNIFORMS = {"u"}


class _Key(ISeedSequence):
    """A seed sequence that hands Philox its 128-bit key as is.

    ``Philox(key=k)`` first seeds a SeedSequence from OS entropy that the
    key then replaces (about 17 of the 24 us it costs); a Philox built
    from this sequence reads the two little-endian 64-bit words of the
    16 key bytes instead, and so starts in the same state as
    ``Philox(key=int.from_bytes(key, "little"))`` in about 8 us.
    """

    def __init__(self, key: bytes):
        self.words = np.frombuffer(key, dtype="<u8")

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


class RngStream:
    """Counter-based random stream identified by (seed, *path).

    The Philox key is a hash of the seed and the path of identifiers,
    so distinct paths give independent streams and ``child`` streams
    can be handed to workers in any order. Draws are sequential: each
    continues where the stream's previous draw ended.
    """

    def __init__(self, seed: int, *path):
        self.seed = int(seed)
        self.path = tuple(path)
        material = repr((self.seed,) + self.path).encode()
        digest = hashlib.blake2b(material, digest_size=16).digest()
        self._gen = np.random.Generator(np.random.Philox(_Key(digest)))

    def child(self, *ids) -> "RngStream":
        """Derived independent stream with the given extra identifiers."""
        return RngStream(self.seed, *self.path, *ids)

    def uniform(self, size=None):
        """Uniform draws on [0, 1)."""
        return self._gen.random(size)

    def uniform_open(self, size=None, out=None):
        """Uniform draws on (0, 1], valid inputs for log and bridge draws;
        written to ``out`` (an array of shape ``size``) if given."""
        return np.subtract(1.0, self._gen.random(size), out=out)

    def normal(self, size=None, out=None):
        """Standard normals by inversion of the normal CDF; written to ``out``
        (an array of shape ``size``, contiguous or not) if given."""
        if size is None:
            return ndtri(np.maximum(self._gen.random(), _U_FLOOR))
        u = self._gen.random(size)
        np.maximum(u, _U_FLOOR, out=u)
        return ndtri(u, out=u if out is None else out)


class BlockStreams:
    """The streams of a batch of ``npaths`` paths, one per path block and name.

    The batch's paths are the run's paths from ``first * PATH_BLOCK`` on.
    The values named ``name`` of the block b of the run come from the
    stream ``rng.child(name, "block", b)``, step-major: each ``draw`` of
    ``steps`` rows continues every block's stream where its previous draw
    ended. So a batch of whole blocks draws the bytes it would draw as part
    of a larger one, in any number of draws of any row counts.

    A name's streams are created on its first draw. A batch is drawn by one
    thread at a time: ``schemes.advance_blocks`` gives each of its pool
    items a batch of its own, that item's path blocks.
    """

    def __init__(self, rng: RngStream, npaths: int, first: int = 0):
        if npaths < 1:
            raise InvalidParameterError(f"need at least one path, got {npaths}")
        self.rng = rng
        self.npaths = npaths
        self.first = first
        self._streams: dict[str, list[RngStream]] = {}

    def draw(self, steps: int, names) -> dict[str, np.ndarray]:
        """The next ``steps`` rows, shape (steps, npaths), of each name in
        ``names``: uniforms on (0, 1] for the names in UNIFORMS, standard
        normals for every other, a block of a name at a time on the
        path-parallel pool (``map_tasks``)."""
        starts = range(0, self.npaths, PATH_BLOCK)
        out, tasks = {}, []
        for name in names:
            if name not in self._streams:
                self._streams[name] = [self.rng.child(name, "block", self.first + i)
                                       for i in range(len(starts))]
            method = RngStream.uniform_open if name in UNIFORMS else RngStream.normal
            out[name] = np.empty((steps, self.npaths))
            tasks += [(method, stream, out[name][:, p:p + PATH_BLOCK])
                      for stream, p in zip(self._streams[name], starts)]

        def fill(task):
            method, stream, view = task
            method(stream, view.shape, out=view)

        map_tasks(fill, tasks, steps * self.npaths * len(out))
        return out


def mix(chol: np.ndarray, normals: list) -> list:
    """Mix the independent standard normals g_i in ``normals`` (arrays,
    overwritten, or scalars) into the law with lower Cholesky factor
    ``chol``, in place, and return the list. A row not drawn is None, and
    so is every row after it. Row i becomes c_ii*g_i + (c_i0*g_0 + c_i1*g_1
    + ...), summed left to right over the rows above, read unmixed."""
    for i in reversed(range(len(normals))):
        if normals[i] is None:
            continue
        normals[i] *= chol[i, i]
        if i:
            lower = chol[i, 0] * normals[0]
            for j in range(1, i):
                lower += chol[i, j] * normals[j]
            normals[i] += lower
    return normals


def joint_chol(delta: float) -> np.ndarray:
    """Lower Cholesky factor of Cov(dW, iW)."""
    if not delta > 0:
        raise InvalidParameterError(f"delta must be positive, got {delta}")
    root = math.sqrt(delta)
    return np.array([
        [root, 0.0],
        [delta * root / 2.0, delta * root / (2.0 * math.sqrt(3.0))],
    ])


def joint_w_integral(delta: float, rng: RngStream, size=None):
    """Draw (dW, iW), two normals per pair."""
    return tuple(mix(joint_chol(delta), [rng.normal(size), rng.normal(size)]))


def ou_transition_moments(ou: OUParams, delta: float):
    """Closed-form moments of the exact OU transition over one step.

    Returns (decay, mean_shift, g11, g12, g22) where the transition is
    y' = mean_shift + decay*y + stochastic part of variance g11, and
    (g12, g22) complete the covariance with iW. For kappa*delta below
    1e-4 the cancellation-prone g12 term switches to its Taylor
    expansion nu*(delta^2/2 - kappa*delta^3/3 + kappa^2*delta^4/8).
    """
    if not delta > 0:
        raise InvalidParameterError(f"delta must be positive, got {delta}")
    kd = ou.kappa * delta
    decay = math.exp(-kd)
    mean_shift = ou.theta * (1.0 - decay)
    g11 = ou.nu**2 * (-math.expm1(-2.0 * kd)) / (2.0 * ou.kappa)
    if kd < 1e-4:
        g12 = ou.nu * (delta**2 / 2.0 - ou.kappa * delta**3 / 3.0 + ou.kappa**2 * delta**4 / 8.0)
    else:
        g12 = ou.nu / ou.kappa**2 * (1.0 - decay * (1.0 + kd))
    g22 = delta**3 / 3.0
    return decay, mean_shift, g11, g12, g22


def ou_exact_joint(ou: OUParams, y: float, delta: float, rng: RngStream, size=None):
    """Draw (y_next, iW): the exact OU transition jointly with the W time
    integral. The Cholesky factor of Cov(dY_stoch, iW) clips the
    correlation into [-1, 1], for covariances degenerate to rounding."""
    decay, mean_shift, g11, g12, g22 = ou_transition_moments(ou, delta)
    l21 = min(1.0, max(-1.0, g12 / math.sqrt(g11 * g22))) * math.sqrt(g22)
    chol = np.array([[math.sqrt(g11), 0.0], [l21, math.sqrt(max(g22 - l21**2, 0.0))]])
    dy, iw = mix(chol, [rng.normal(size), rng.normal(size)])
    return mean_shift + decay * np.asarray(y) + dy, iw


def ou_triple_cov(ou: OUParams, delta: float) -> np.ndarray:
    """Covariance of (dY_stoch, dW, iW) over one step.

    dY_stoch = nu * int e^{-kappa*(delta-s)} dW_s is the stochastic part
    of the exact OU increment; all three are linear functionals of W on
    the step, hence jointly Gaussian. dY_stoch comes first, so that its
    Cholesky row reads one normal.
    """
    _, _, g11, g12, g22 = ou_transition_moments(ou, delta)
    kd = ou.kappa * delta
    if kd < 1e-4:
        # nu*(1 - e^{-kd})/kappa without cancellation
        c_w_dy = ou.nu * delta * (1.0 - kd / 2.0 + kd**2 / 6.0 - kd**3 / 24.0)
    else:
        c_w_dy = ou.nu * (-math.expm1(-kd)) / ou.kappa
    return np.array([
        [g11, c_w_dy, g12],
        [c_w_dy, delta, delta**2 / 2.0],
        [g12, delta**2 / 2.0, g22],
    ])


def ou_triple_chol(ou: OUParams, delta: float) -> np.ndarray:
    """Lower Cholesky factor of the (dY_stoch, dW, iW) covariance.

    The matrix is near-singular for tiny kappa*delta (dY_stoch tends to
    nu*dW); a diagonal jitter retry keeps the factorization stable.
    """
    cov = ou_triple_cov(ou, delta)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        jitter = 1e-12 * np.diag(np.diag(cov))
        try:
            return np.linalg.cholesky(cov + jitter)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"OU step covariance not positive definite at delta={delta}"
            ) from exc
