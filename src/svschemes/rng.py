"""Reproducible random streams and the exact joint laws of the schemes.

Streams are counter-based (Philox) and keyed by hashing a (seed, path)
tuple, so any worker can recreate its stream from the seed and a list
of identifiers without coordination. Normals are produced by inversion
of the standard normal CDF, so a fixed draw index always maps to the
same variate.

The joint laws implemented here:

* (dW, iW) where iW = int_{t_k}^{t_{k+1}} (W_s - W_{t_k}) ds, with
  covariance [[delta, delta^2/2], [delta^2/2, delta^3/3]];
* the exact OU transition (Y_{k+1} - e^{-kappa*delta} Y_k, iW) with the
  closed-form (M, Gamma) moments;
* the full triple (dW, iW, dY_stoch) used to keep fine and coarse grids
  of a coupling consistent, where dY_stoch is the stochastic part of the
  exact OU increment.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from scipy.special import ndtri

from ._parallel import map_blocks
from .errors import InvalidParameterError, NumericalError
from .models import OUParams

# Smallest uniform fed to the inverse CDF; Generator.random() lies in
# [0, 1) so only the exact-zero draw needs the clip.
_U_FLOOR = 2.0**-64


class RngStream:
    """Counter-based random stream identified by (seed, *path).

    The Philox key is a hash of the seed and the path of identifiers,
    so distinct paths give independent streams and ``child`` streams
    can be handed to workers in any order.

    Array draws are filled over blocks of the flat C-order output on
    the path-parallel pool: each block jumps a copy of the generator
    to its first value (Philox is counter-based), so every value keeps
    its index in the stream for any number of workers, and the stream
    then continues past the last value drawn.
    """

    def __init__(self, seed: int, *path):
        self.seed = int(seed)
        self.path = tuple(path)
        material = repr((self.seed,) + self.path).encode()
        digest = hashlib.blake2b(material, digest_size=16).digest()
        self._key = int.from_bytes(digest, "little")
        self._gen = np.random.Generator(np.random.Philox(key=self._key))

    def child(self, *ids) -> "RngStream":
        """Derived independent stream with the given extra identifiers."""
        return RngStream(self.seed, *self.path, *ids)

    def uniform(self, size=None):
        """Uniform draws on [0, 1)."""
        if size is None:
            return self._gen.random()
        return self._fill(size)

    def uniform_open(self, size=None):
        """Uniform draws on (0, 1], valid inputs for log and bridge draws."""
        if size is None:
            return 1.0 - self._gen.random()
        return self._fill(size, lambda block: np.subtract(1.0, block, out=block))

    def normal(self, size=None):
        """Standard normals by inversion of the normal CDF."""
        if size is None:
            return ndtri(np.maximum(self._gen.random(), _U_FLOOR))

        def invert(block):
            np.maximum(block, _U_FLOOR, out=block)
            ndtri(block, out=block)

        return self._fill(size, invert)

    def _fill(self, size, transform=None) -> np.ndarray:
        """Uniforms of shape ``size``, drawn and then ``transform``-ed in place by blocks.

        A draw that runs as one block uses the stream's own generator;
        otherwise each block draws from a copy jumped to its first value,
        and the stream's generator skips every value drawn afterwards.
        """
        out = np.empty(size)
        flat = out.reshape(-1)
        n = flat.size

        def fill(cols):
            block = flat[cols]
            if cols.stop - cols.start == n:
                self._gen.random(out=block)
            else:
                bits = np.random.Philox(key=self._key)
                bits.state = self._gen.bit_generator.state
                _skip(bits, cols.start)
                np.random.Generator(bits).random(out=block)
            if transform is not None:
                transform(block)

        if len(map_blocks(fill, n)) > 1:
            _skip(self._gen.bit_generator, n)
        return out


def _skip(bits: np.random.Philox, count: int):
    """Advance ``bits`` past ``count`` values, one 64-bit value per uniform.

    Philox makes four values per counter step and buffers them; advance()
    moves the counter and empties the buffer, so the values left in the
    buffer are consumed first and the remainder below four discarded.
    """
    if count <= 0:
        return
    left = min(count, 4 - bits.state["buffer_pos"])
    bits.random_raw(left)
    count -= left
    if count >= 4:
        bits.advance(count // 4)
    bits.random_raw(count % 4)


def joint_chol(delta: float) -> np.ndarray:
    """Lower Cholesky factor of Cov(dW, iW)."""
    if not delta > 0:
        raise InvalidParameterError(f"delta must be positive, got {delta}")
    root = math.sqrt(delta)
    return np.array([
        [root, 0.0],
        [delta * root / 2.0, delta * root / (2.0 * math.sqrt(3.0))],
    ])


def joint_from_normals(delta: float, g1, g2):
    """Map independent standard normals to a (dW, iW) pair."""
    chol = joint_chol(delta)
    return chol[0, 0] * np.asarray(g1), chol[1, 0] * np.asarray(g1) + chol[1, 1] * np.asarray(g2)


def joint_w_integral(delta: float, rng: RngStream, size=None):
    """Draw (dW, iW), two normals per pair."""
    return joint_from_normals(delta, rng.normal(size), rng.normal(size))


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


def ou_joint_chol(ou: OUParams, delta: float) -> np.ndarray:
    """Lower Cholesky factor of Gamma = Cov(dY_stoch, iW).

    Degenerate-to-rounding covariances are regularized by clipping the
    correlation into [-1, 1].
    """
    _, _, g11, g12, g22 = ou_transition_moments(ou, delta)
    l11 = math.sqrt(g11)
    corr = g12 / math.sqrt(g11 * g22)
    corr = min(1.0, max(-1.0, corr))
    l21 = corr * math.sqrt(g22)
    l22 = math.sqrt(max(g22 - l21**2, 0.0))
    return np.array([[l11, 0.0], [l21, l22]])


def ou_joint_from_normals(ou: OUParams, y, delta: float, g1, g2):
    """Map independent standard normals to (y_next, iW)."""
    decay, mean_shift, _, _, _ = ou_transition_moments(ou, delta)
    chol = ou_joint_chol(ou, delta)
    y_next = mean_shift + decay * np.asarray(y) + chol[0, 0] * np.asarray(g1)
    iw = chol[1, 0] * np.asarray(g1) + chol[1, 1] * np.asarray(g2)
    return y_next, iw


def ou_exact_joint(ou: OUParams, y: float, delta: float, rng: RngStream, size=None):
    """Draw (y_next, iW): the exact OU transition jointly with the W time integral."""
    return ou_joint_from_normals(ou, y, delta, rng.normal(size), rng.normal(size))


def ou_triple_cov(ou: OUParams, delta: float) -> np.ndarray:
    """Covariance of (dW, iW, dY_stoch) over one step.

    dY_stoch = nu * int e^{-kappa*(delta-s)} dW_s is the stochastic part
    of the exact OU increment; all three are linear functionals of W on
    the step, hence jointly Gaussian.
    """
    _, _, g11, g12, g22 = ou_transition_moments(ou, delta)
    kd = ou.kappa * delta
    if kd < 1e-4:
        # nu*(1 - e^{-kd})/kappa without cancellation
        c_w_dy = ou.nu * delta * (1.0 - kd / 2.0 + kd**2 / 6.0 - kd**3 / 24.0)
    else:
        c_w_dy = ou.nu * (-math.expm1(-kd)) / ou.kappa
    return np.array([
        [delta, delta**2 / 2.0, c_w_dy],
        [delta**2 / 2.0, g22, g12],
        [c_w_dy, g12, g11],
    ])


def ou_triple_chol(ou: OUParams, delta: float) -> np.ndarray:
    """Lower Cholesky factor of the (dW, iW, dY_stoch) covariance.

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
