"""Stochastic volatility model specifications.

A model is described by the asset dynamics

    dS = r S dt + f(Y) S (rho dW + sqrt(1-rho^2) dB)
    dY = b(Y) dt + sigma(Y) dW

A ``VolModelSpec`` holds the model's own functions, every derivative
supplied analytically (the schemes need them exactly, and every model
of interest is closed-form); F, the primitive of f/sigma anchored at 0,
defaults to cached adaptive quadrature. The schemes read coefficients at
the nodes of a factor draw through a ``NodeCoeffs`` table, which
evaluates each once per draw and is the one place that derives h,
psi = f^2, psi', psi'' and the band cap psi_hat (``_DERIVED``), with

    h(y) = r - f(y)^2/2 - rho*(b*f/sigma + (sigma*f' - f*sigma')/2)(y).
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, InvalidParameterError, NumericalError

# Scalar-or-array function of the factor value.
Fn = Callable[[float | np.ndarray], float | np.ndarray]


@dataclass(frozen=True)
class OUParams:
    """Ornstein-Uhlenbeck factor dY = kappa*(theta - Y) dt + nu dW."""

    kappa: float
    theta: float
    nu: float

    def __post_init__(self):
        if not self.kappa > 0:
            raise InvalidParameterError(f"kappa must be positive, got {self.kappa}")
        if not self.nu > 0:
            raise InvalidParameterError(f"nu must be positive, got {self.nu}")


@dataclass(frozen=True)
class ScottParams:
    """Scott model: f(y) = sigma0*exp(y) with an OU factor."""

    sigma0: float
    kappa: float
    theta: float
    nu: float
    rho: float
    r: float
    s0: float
    y0: float
    T: float

    def __post_init__(self):
        if not self.sigma0 > 0:
            raise InvalidParameterError(f"sigma0 must be positive, got {self.sigma0}")
        # kappa and nu are checked by the OUParams embedding; s0, T and rho by the spec
        OUParams(self.kappa, self.theta, self.nu)

    @property
    def ou(self) -> OUParams:
        return OUParams(self.kappa, self.theta, self.nu)


# Coefficients derived from the model's own functions, each written once.
# An entry reads other entries on the same nodes through ``get``; each
# keeps the operation order of evaluating the functions per call.
_DERIVED = {
    "psi": lambda spec, get: get("f") ** 2,
    "psi1": lambda spec, get: 2.0 * get("f") * get("f1"),
    "psi2": lambda spec, get: 2.0 * (get("f1") ** 2 + get("f") * get("f2")),
    "psi_hat": lambda spec, get: (
        1.5 * get("f") ** 2 if spec.psi_upper is None
        else spec.psi_upper + 0.0 * np.asarray(get("y"), dtype=float)
    ),
    "h": lambda spec, get: (
        spec.r - 0.5 * get("f") ** 2 - spec.rho * (
            get("b") * get("f") / get("sigma")
            + 0.5 * (get("sigma") * get("f1") - get("f") * get("sigma1"))
        )
    ),
}


class NodeCoeffs:
    """Model coefficients at the nodes y (shape (N+1, ...)) of one factor draw.

    Each coefficient is evaluated once, on first use, and kept for the
    table's lifetime. A coefficient named in ``both_ends`` is evaluated
    on all N+1 nodes, and ``prev``, ``next`` and ``all`` are slices of
    it; any other coefficient is evaluated on the left nodes y[:-1]
    only, which is all that ``prev`` needs. Values are elementwise, so
    they are the same bytes as evaluating on the slice. A coefficient
    is a ``_DERIVED`` formula or, failing that, the spec's function.
    """

    def __init__(self, spec: VolModelSpec, y: np.ndarray, both_ends=frozenset()):
        self.spec = spec
        self.y = y
        self.both_ends = frozenset(both_ends)
        self._all: dict[str, np.ndarray] = {}
        self._prev: dict[str, np.ndarray] = {}

    def all(self, name: str) -> np.ndarray:
        """``name`` on every node."""
        if name == "y":
            return self.y
        if name not in self._all:
            self._all[name] = self._eval(name, self.all)
        return self._all[name]

    def prev(self, name: str) -> np.ndarray:
        """``name`` on the left node of every step, y[:-1]."""
        if name in self.both_ends or name in self._all:
            return self.all(name)[:-1]
        if name == "y":
            return self.y[:-1]
        if name not in self._prev:
            self._prev[name] = self._eval(name, self.prev)
        return self._prev[name]

    def next(self, name: str) -> np.ndarray:
        """``name`` on the right node of every step, y[1:]."""
        return self.all(name)[1:]

    def even_nodes(self) -> _EvenNodes:
        """A table with the same reads over y[::2], taking its values from this one."""
        return _EvenNodes(self, 2)

    def _eval(self, name: str, get) -> np.ndarray:
        """``name`` on the nodes ``get("y")``; ``get`` reads other entries there."""
        formula = _DERIVED.get(name)
        if formula is None:
            return getattr(self.spec, name)(get("y"))
        return formula(self.spec, get)


class _EvenNodes:
    """Node table of the coarse grid y[::stride], read from the fine grid's table."""

    def __init__(self, fine: NodeCoeffs, stride: int):
        self.fine = fine
        self.stride = stride

    def all(self, name: str) -> np.ndarray:
        return self.fine.all(name)[::self.stride]

    def prev(self, name: str) -> np.ndarray:
        # the coarse left nodes are every stride-th fine left node
        return self.fine.prev(name)[::self.stride]

    def next(self, name: str) -> np.ndarray:
        return self.all(name)[1:]

    def even_nodes(self) -> _EvenNodes:
        return _EvenNodes(self.fine, 2 * self.stride)


# Scott coefficients from one exp(y) and one expm1(y) per node; the
# spec's f, F, h1 and h2 evaluate these formulas too (scott_model), and
# h is the closed form. The constant sigma = nu and sigma' = 0 are
# zero-stride views, so no step builds or multiplies a constant array.
# Every other derived entry is the generic one.
_SCOTT_FORMULAS = {
    "sigma": lambda p, get: np.broadcast_to(float(p.nu), np.shape(get("y"))),
    "sigma1": lambda p, get: np.broadcast_to(0.0, np.shape(get("y"))),
    "exp": lambda p, get: np.exp(get("y")),
    "F": lambda p, get: p.sigma0 * np.expm1(get("y")) / p.nu,
    "f": lambda p, get: p.sigma0 * get("exp"),
    "f1": lambda p, get: get("f"),  # f1 = f2 = f
    "f2": lambda p, get: get("f"),
    "h": lambda p, get: (
        p.r - 0.5 * p.sigma0**2 * get("exp") ** 2
        - p.rho * p.sigma0 * get("exp") * (p.kappa * (p.theta - get("y")) / p.nu + p.nu / 2)
    ),
    "h1": lambda p, get: (
        -(p.sigma0**2) * get("exp") ** 2
        - p.rho * p.sigma0 * get("exp")
        * (p.kappa * (p.theta - get("y")) / p.nu + p.nu / 2 - p.kappa / p.nu)
    ),
    "h2": lambda p, get: (
        -2.0 * p.sigma0**2 * get("exp") ** 2
        - p.rho * p.sigma0 * get("exp")
        * (p.kappa * (p.theta - get("y")) / p.nu + p.nu / 2 - 2.0 * p.kappa / p.nu)
    ),
}


class _ScottCoeffs(NodeCoeffs):
    """Scott-model node table; coefficients without a Scott formula are generic."""

    def __init__(self, params: ScottParams, spec: VolModelSpec, y: np.ndarray,
                 both_ends=frozenset()):
        super().__init__(spec, y, both_ends)
        self.params = params

    def _eval(self, name: str, get) -> np.ndarray:
        formula = _SCOTT_FORMULAS.get(name)
        if formula is None:
            return super()._eval(name, get)
        return formula(self.params, get)


@dataclass(frozen=True, kw_only=True)
class VolModelSpec:
    """Immutable model specification: the model's own functions.

    All callables accept scalars or numpy arrays. The coefficients derived
    from them (h, psi, psi', psi'', psi_hat) are read through the table
    ``node_table(spec, y, both_ends)``, a ``NodeCoeffs`` unless the model
    supplies its own (Scott); a spec that replaces a function of such a
    model must replace the table too. The keyword-only constructor checks
    s0, T, rho and cutoff and defaults F to the quadrature primitive of f/sigma
    (``QuadPrimitive``, which loads scipy's quadrature and spline modules
    on first use; a spec with F in closed form, as Scott's, never does).
    ``psi_lower`` floors the variance radicand; a finite ``psi_upper``
    replaces the band cap 1.5*f^2. ``cutoff`` applies to the
    weak-trajectorial radicand only: "floor" (the default) floors it,
    "band" caps it at psi_hat first. h1 and h2 (h' and h'') serve the
    ou-improved scheme. ``ou`` is set for an OU factor, which unlocks exact
    factor simulation. ``flow_drift(y, t)`` and ``flow_vol(y, s)`` are the
    ODE flows of V0 = b - sigma*sigma'/2 and V = sigma for the
    Ninomiya-Victoir step of a generic factor; a flow_vol can be built from
    a primitive zeta of 1/sigma as flow_vol(y, s) = zeta^-1(s + zeta(y)).
    """

    r: float
    s0: float
    y0: float
    T: float
    rho: float
    f: Fn
    f1: Fn
    f2: Fn
    b: Fn
    sigma: Fn
    sigma1: Fn
    F: Fn | None = None
    h1: Fn | None = None
    h2: Fn | None = None
    psi_lower: float = 0.0
    psi_upper: float | None = None
    cutoff: str = "floor"
    ou: OUParams | None = None
    node_table: Callable[..., NodeCoeffs] = NodeCoeffs
    flow_drift: Callable[[float | np.ndarray, float], float | np.ndarray] | None = None
    flow_vol: Callable[[float | np.ndarray, float | np.ndarray], float | np.ndarray] | None = None

    def __post_init__(self):
        if not self.s0 > 0:
            raise InvalidParameterError(f"s0 must be positive, got {self.s0}")
        if not self.T > 0:
            raise InvalidParameterError(f"T must be positive, got {self.T}")
        if not -1.0 <= self.rho <= 1.0:
            raise InvalidParameterError(f"rho must lie in [-1, 1], got {self.rho}")
        if self.cutoff not in ("floor", "band"):
            raise InvalidParameterError(f"unknown cutoff {self.cutoff!r}; expected 'floor' or 'band'")
        if self.F is None:
            f, sigma = self.f, self.sigma
            object.__setattr__(self, "F", QuadPrimitive(lambda y: f(y) / sigma(y)))

    @property
    def x0(self) -> float:
        return math.log(self.s0)


class QuadPrimitive:
    """Primitive of an integrand with value 0 at 0, by cached quadrature.

    Keeps a knot grid of cumulative Gauss-Kronrod integrals (abs tol
    1e-12) and the integrand at each knot, with cubic Hermite
    interpolation between knots; the grid is extended on demand, under
    a lock, when evaluated outside the cached range. Each piece of the
    interpolant depends only on its two knots, so extending the grid
    never moves a value already returned: F is the same function
    whatever was evaluated before, in any thread. ``scipy.integrate``
    and ``scipy.interpolate`` load on first use, when the first primitive
    is built, not with this module: a run whose spec has F in closed form
    never loads them.
    """

    def __init__(self, integrand: Fn, step: float = 0.0625):
        self._integrand = integrand
        self._step = step
        self._lo = 0
        self._hi = 0
        self._knots = np.array([0.0])
        self._values = np.array([0.0])
        self._slopes = np.array([float(integrand(0.0))])
        self._spline = None
        self._lock = threading.Lock()
        self._extend(-1.0, 1.0)

    def _extend(self, lo: float, hi: float):
        from scipy.integrate import quad
        from scipy.interpolate import CubicHermiteSpline

        lo_idx = math.floor(lo / self._step) - 1
        hi_idx = math.ceil(hi / self._step) + 1
        changed = False
        while self._lo > lo_idx:
            a = (self._lo - 1) * self._step
            piece, _ = quad(self._integrand, a, self._lo * self._step, epsabs=1e-12)
            self._knots = np.concatenate(([a], self._knots))
            self._values = np.concatenate(([self._values[0] - piece], self._values))
            self._slopes = np.concatenate(([float(self._integrand(a))], self._slopes))
            self._lo -= 1
            changed = True
        while self._hi < hi_idx:
            b = (self._hi + 1) * self._step
            piece, _ = quad(self._integrand, self._hi * self._step, b, epsabs=1e-12)
            self._knots = np.concatenate((self._knots, [b]))
            self._values = np.concatenate((self._values, [self._values[-1] + piece]))
            self._slopes = np.concatenate((self._slopes, [float(self._integrand(b))]))
            self._hi += 1
            changed = True
        if changed or self._spline is None:
            self._spline = CubicHermiteSpline(self._knots, self._values, self._slopes)

    def __call__(self, y):
        arr = np.asarray(y, dtype=float)
        if not np.isfinite(arr).all():
            raise NumericalError("primitive evaluated at a non-finite point (NaN or inf)")
        if arr.size == 0:
            return np.empty(arr.shape)
        with self._lock:
            self._extend(float(arr.min()), float(arr.max()))
            spline = self._spline
        out = spline(arr)
        return float(out) if np.isscalar(y) or arr.ndim == 0 else out


def scott_model(params: ScottParams) -> VolModelSpec:
    """Scott model spec with every function in closed form.

    f, F, h' and h'' are the node-table formulas, evaluated on y.
    """
    kap, th, nu = params.kappa, params.theta, params.nu

    def formula(name: str) -> Fn:
        return lambda y: _ScottCoeffs(params, None, y).all(name)

    f = formula("f")
    return VolModelSpec(
        r=params.r, s0=params.s0, y0=params.y0, T=params.T, rho=params.rho,
        f=f, f1=f, f2=f,
        b=lambda y: kap * (th - y),
        sigma=lambda y: nu + 0.0 * np.asarray(y, dtype=float),
        sigma1=lambda y: 0.0 * np.asarray(y, dtype=float),
        F=formula("F"), h1=formula("h1"), h2=formula("h2"),
        ou=params.ou, node_table=functools.partial(_ScottCoeffs, params),
    )


_SCOTT_KEYS = {"model", "sigma0", "kappa", "theta", "nu", "rho", "r", "s0", "y0", "T"}


def spec_from_config(cfg: dict) -> VolModelSpec:
    """Build a spec from a JSON-style config mapping.

    Only the Scott model is configurable this way; unknown keys are
    rejected so typos fail loudly, and every value must be a finite
    number (JSON reads NaN and Infinity).
    """
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a mapping, got {type(cfg).__name__}")
    model = cfg.get("model")
    if model != "scott":
        raise ConfigError(f"unsupported model {model!r}; expected 'scott'")
    unknown = set(cfg) - _SCOTT_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = _SCOTT_KEYS - set(cfg)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    numeric = {}
    for key in sorted(_SCOTT_KEYS - {"model"}):
        value = cfg[key]
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (number and abs(value) <= sys.float_info.max):  # a float, not NaN or inf
            raise ConfigError(f"config key {key!r} must be a finite number, got {value!r}")
        numeric[key] = float(value)
    try:
        return scott_model(ScottParams(**numeric))
    except InvalidParameterError as exc:
        raise ConfigError(str(exc)) from exc


def benchmark_scott_params() -> ScottParams:
    """The benchmark Scott parameter set used throughout the experiments."""
    return ScottParams(
        sigma0=0.25, kappa=1.0, theta=0.0, nu=7.0 * math.sqrt(2.0) / 20.0,
        rho=-0.2, r=0.05, s0=100.0, y0=0.0, T=1.0,
    )
