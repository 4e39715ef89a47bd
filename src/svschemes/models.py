"""Stochastic volatility model specifications.

A model is described by the asset dynamics

    dS = r S dt + f(Y) S (rho dW + sqrt(1-rho^2) dB)
    dY = b(Y) dt + sigma(Y) dW

together with the derived functions used by the discretization schemes:
the primitive F of f/sigma (anchored at 0), the transformed drift

    h(y) = r - f(y)^2/2 - rho*(b*f/sigma + (sigma*f' - f*sigma')/2)(y)

and psi = f^2 with its lower bound and the capped bound psi_hat.

All derivatives are supplied analytically by the model builder; the
schemes need them exactly and every model of interest is closed-form.
When F has no closed form it is evaluated by cached adaptive quadrature
of f/sigma.

The schemes read these functions at the nodes of a factor draw through
a ``NodeCoeffs`` table, which evaluates each coefficient once per draw.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicHermiteSpline

from .errors import ConfigError, InvalidParameterError

# Scalar-or-array function of the factor value.
Fn = Callable[[float | np.ndarray], float | np.ndarray]


@dataclass(frozen=True)
class OUParams:
    """Ornstein-Uhlenbeck factor dY = kappa*(theta - Y) dt + nu dW."""

    kappa: float
    theta: float
    nu: float
    y0: float

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
        if not self.s0 > 0:
            raise InvalidParameterError(f"s0 must be positive, got {self.s0}")
        if not self.T > 0:
            raise InvalidParameterError(f"T must be positive, got {self.T}")
        if not -1.0 <= self.rho <= 1.0:
            raise InvalidParameterError(f"rho must lie in [-1, 1], got {self.rho}")
        # positivity of kappa/nu checked by the OUParams embedding
        OUParams(self.kappa, self.theta, self.nu, self.y0)

    @property
    def ou(self) -> OUParams:
        return OUParams(self.kappa, self.theta, self.nu, self.y0)


class NodeCoeffs:
    """Model coefficients at the nodes y (shape (N+1, ...)) of one factor draw.

    Each coefficient is evaluated once, on first use, and kept for the
    table's lifetime. A coefficient named in ``both_ends`` is evaluated
    on all N+1 nodes, and ``prev``, ``next`` and ``all`` are slices of
    it; any other coefficient is evaluated on the left nodes y[:-1]
    only, which is all that ``prev`` needs. Values are elementwise, so
    they are the same bytes as the spec's function applied to the slice.
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
        return _EvenNodes(self)

    def _eval(self, name: str, get) -> np.ndarray:
        """``name`` on the nodes ``get("y")``; ``get`` reads other entries there."""
        return getattr(self.spec, name)(get("y"))


class _EvenNodes:
    """Node table of the coarse grid y[::2], read from the fine grid's table."""

    def __init__(self, fine: NodeCoeffs):
        self.fine = fine

    def all(self, name: str) -> np.ndarray:
        return self.fine.all(name)[::2]

    def prev(self, name: str) -> np.ndarray:
        # the coarse left nodes are the even fine left nodes
        return self.fine.prev(name)[::2]

    def next(self, name: str) -> np.ndarray:
        return self.all(name)[1:]


# Scott coefficients from one exp(y) and one expm1(y) per node; the
# spec's f, F, h, h1 and h2 evaluate these formulas too (scott_model).
# psi, psi1, psi2 and psi_hat keep the operation order of the closures
# in make_spec, so values are the same bytes as calling the spec.
_SCOTT_FORMULAS = {
    "exp": lambda p, get: np.exp(get("y")),
    "F": lambda p, get: p.sigma0 * np.expm1(get("y")) / p.nu,
    "f": lambda p, get: p.sigma0 * get("exp"),
    "f1": lambda p, get: get("f"),  # f1 = f2 = f
    "f2": lambda p, get: get("f"),
    "psi": lambda p, get: get("f") ** 2,
    "psi1": lambda p, get: 2.0 * get("f") * get("f"),
    "psi2": lambda p, get: 2.0 * (get("f") ** 2 + get("f") * get("f")),
    "psi_hat": lambda p, get: 1.5 * get("f") ** 2,
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
    """Scott-model node table; coefficients without a formula call the spec."""

    def __init__(self, params: ScottParams, spec: VolModelSpec, y: np.ndarray,
                 both_ends=frozenset()):
        both_ends = frozenset(both_ends)
        if both_ends - {"F"}:
            # every coefficient but F is built on exp and f: evaluate those
            # on all nodes too, rather than once on y[:-1] and again on y
            both_ends |= {"exp", "f"}
        super().__init__(spec, y, both_ends)
        self.params = params

    def _eval(self, name: str, get) -> np.ndarray:
        formula = _SCOTT_FORMULAS.get(name)
        if formula is None:
            return super()._eval(name, get)
        return formula(self.params, get)


@dataclass(frozen=True)
class VolModelSpec:
    """Immutable model specification consumed by the schemes.

    All callables accept scalars or numpy arrays. ``ou`` is set when the
    factor is an OU process, which unlocks exact factor simulation.
    ``node_table(spec, y, both_ends)`` builds the ``NodeCoeffs`` table the
    schemes read the coefficients from; a spec whose functions share work
    (Scott) supplies its own, and one that replaces a function of such a
    spec must replace the table as well.
    ``flow_drift(y, t)`` and ``flow_vol(y, s)`` are the closed-form ODE
    flows of V0 = b - sigma*sigma'/2 and V = sigma used by the
    Ninomiya-Victoir step; they may be None for OU-backed specs (never
    needed) or derived from a zeta-primitive via ``vol_flow_from_zeta``.
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
    F: Fn
    h: Fn
    psi: Fn
    psi1: Fn
    psi2: Fn
    psi_lower: float
    psi_hat: Fn
    h1: Fn | None = None
    h2: Fn | None = None
    ou: OUParams | None = None
    node_table: Callable[..., NodeCoeffs] = NodeCoeffs
    flow_drift: Callable[[float | np.ndarray, float], float | np.ndarray] | None = None
    flow_vol: Callable[[float | np.ndarray, float | np.ndarray], float | np.ndarray] | None = None

    @property
    def x0(self) -> float:
        return math.log(self.s0)


@dataclass
class ValidationReport:
    """Consistency check results; empty failure list means pass."""

    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


class QuadPrimitive:
    """Primitive of an integrand with value 0 at 0, by cached quadrature.

    Keeps a knot grid of cumulative Gauss-Kronrod integrals (abs tol
    1e-10) and the integrand at each knot, with cubic Hermite
    interpolation between knots; the grid is extended on demand, under
    a lock, when evaluated outside the cached range. Each piece of the
    interpolant depends only on its two knots, so extending the grid
    never moves a value already returned: F is the same function
    whatever was evaluated before, in any thread.
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
        with self._lock:
            self._extend(float(arr.min()), float(arr.max()))
            spline = self._spline
        out = spline(arr)
        return float(out) if np.isscalar(y) or arr.ndim == 0 else out


def derive_h(spec: VolModelSpec, y):
    """Transformed drift h built from the raw model coefficients."""
    sig = spec.sigma(y)
    return (
        spec.r
        - 0.5 * spec.f(y) ** 2
        - spec.rho
        * (spec.b(y) * spec.f(y) / sig + 0.5 * (sig * spec.f1(y) - spec.f(y) * spec.sigma1(y)))
    )


def make_spec(
    *,
    r: float,
    s0: float,
    y0: float,
    T: float,
    rho: float,
    f: Fn,
    f1: Fn,
    f2: Fn,
    b: Fn,
    sigma: Fn,
    sigma1: Fn,
    F: Fn | None = None,
    h: Fn | None = None,
    h1: Fn | None = None,
    h2: Fn | None = None,
    psi_lower: float | None = None,
    psi_upper: float | None = None,
    ou: OUParams | None = None,
    node_table: Callable[..., NodeCoeffs] = NodeCoeffs,
    flow_drift=None,
    flow_vol=None,
) -> VolModelSpec:
    """Assemble a VolModelSpec, deriving psi, h, F and psi_hat as needed.

    ``psi_lower`` defaults to 0; ``psi_upper`` finite makes psi_hat that
    constant, otherwise psi_hat(y) = 1.5*f(y)^2.
    """
    if not s0 > 0:
        raise InvalidParameterError(f"s0 must be positive, got {s0}")
    if not T > 0:
        raise InvalidParameterError(f"T must be positive, got {T}")
    if not -1.0 <= rho <= 1.0:
        raise InvalidParameterError(f"rho must lie in [-1, 1], got {rho}")

    def psi(y):
        return f(y) ** 2

    def psi1(y):
        return 2.0 * f(y) * f1(y)

    def psi2(y):
        return 2.0 * (f1(y) ** 2 + f(y) * f2(y))

    if F is None:
        F = QuadPrimitive(lambda y: f(y) / sigma(y))

    if h is None:
        def h(y):
            sig = sigma(y)
            return r - 0.5 * f(y) ** 2 - rho * (
                b(y) * f(y) / sig + 0.5 * (sig * f1(y) - f(y) * sigma1(y))
            )

    if psi_upper is None:
        def psi_hat(y):
            return 1.5 * f(y) ** 2
    else:
        def psi_hat(y):
            return psi_upper + 0.0 * np.asarray(y, dtype=float)

    return VolModelSpec(
        r=r, s0=s0, y0=y0, T=T, rho=rho,
        f=f, f1=f1, f2=f2, b=b, sigma=sigma, sigma1=sigma1,
        F=F, h=h,
        psi=psi, psi1=psi1, psi2=psi2,
        psi_lower=0.0 if psi_lower is None else psi_lower,
        psi_hat=psi_hat,
        h1=h1, h2=h2, ou=ou, node_table=node_table,
        flow_drift=flow_drift, flow_vol=flow_vol,
    )


def vol_flow_from_zeta(zeta: Fn, zeta_inv: Fn):
    """Flow of the ODE eta' = V(eta) from a primitive zeta of 1/V.

    Returns flow_vol(y, s) = zeta_inv(s + zeta(y)); the caller's
    zeta_inv is expected to raise FlowDomainError outside its range.
    """

    def flow_vol(y, s):
        return zeta_inv(s + zeta(y))

    return flow_vol


def scott_model(params: ScottParams) -> VolModelSpec:
    """Scott model spec with every derived function in closed form.

    f, F, h, h' and h'' are the node-table formulas, evaluated on y.
    """
    kap, th, nu = params.kappa, params.theta, params.nu

    def formula(name: str) -> Fn:
        return lambda y: _ScottCoeffs(params, None, y).all(name)

    f = formula("f")
    return make_spec(
        r=params.r, s0=params.s0, y0=params.y0, T=params.T, rho=params.rho,
        f=f, f1=f, f2=f,
        b=lambda y: kap * (th - y),
        sigma=lambda y: nu + 0.0 * np.asarray(y, dtype=float),
        sigma1=lambda y: 0.0 * np.asarray(y, dtype=float),
        F=formula("F"), h=formula("h"), h1=formula("h1"), h2=formula("h2"),
        psi_lower=0.0, psi_upper=None,
        ou=params.ou, node_table=functools.partial(_ScottCoeffs, params),
        flow_drift=lambda y, t: th + (y - th) * np.exp(-kap * t),
        flow_vol=lambda y, s: y + nu * s,
    )


def validate_spec(spec: VolModelSpec, probe_points: Sequence[float]) -> ValidationReport:
    """Spot-check the derived-function identities at the probe points."""
    if len(probe_points) == 0:
        raise InvalidParameterError("probe_points must be nonempty")
    report = ValidationReport()
    if not -1.0 <= spec.rho <= 1.0:
        report.failures.append(f"rho out of range: {spec.rho}")
    eps = 1e-5
    for y in probe_points:
        sig = float(spec.sigma(y))
        if not sig > 0:
            report.failures.append(f"sigma not positive at y={y}: {sig}")
            continue
        target = float(spec.f(y)) / sig
        fd = (float(spec.F(y + eps)) - float(spec.F(y - eps))) / (2 * eps)
        if abs(fd - target) > 1e-5 * (1.0 + abs(target)):
            report.failures.append(f"F inconsistent with f/sigma at y={y}: {fd} vs {target}")
        if abs(float(spec.h(y)) - float(derive_h(spec, y))) > 1e-8 * (1.0 + abs(float(spec.h(y)))):
            report.failures.append(f"h inconsistent with components at y={y}")
        psi_val = float(spec.psi(y))
        if abs(psi_val - float(spec.f(y)) ** 2) > 1e-10 * (1.0 + psi_val):
            report.failures.append(f"psi differs from f^2 at y={y}")
        if spec.psi_lower > psi_val + 1e-12:
            report.failures.append(f"psi_lower exceeds psi at y={y}")
        if float(spec.psi_hat(y)) < psi_val - 1e-12:
            report.failures.append(f"psi_hat below psi at y={y}")
    return report


_SCOTT_KEYS = {"model", "sigma0", "kappa", "theta", "nu", "rho", "r", "s0", "y0", "T"}


def spec_from_config(cfg: dict) -> VolModelSpec:
    """Build a spec from a JSON-style config mapping.

    Only the Scott model is configurable this way; unknown keys are
    rejected so typos fail loudly.
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
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config key {key!r} must be a number, got {value!r}")
        numeric[key] = float(value)
    try:
        params = ScottParams(**numeric)
    except InvalidParameterError as exc:
        raise ConfigError(str(exc)) from exc
    return scott_model(params)


def benchmark_scott_params() -> ScottParams:
    """The benchmark Scott parameter set used throughout the experiments."""
    return ScottParams(
        sigma0=0.25, kappa=1.0, theta=0.0, nu=7.0 * math.sqrt(2.0) / 20.0,
        rho=-0.2, r=0.05, s0=100.0, y0=0.0, T=1.0,
    )
