import dataclasses
import importlib
import inspect
import math
import pkgutil
import sys
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import coeff, const_vol_ou_spec, factor_draws, gbm_factor_spec, scott_spec

import svschemes
from svschemes import schemes
from svschemes.errors import ConfigError, InvalidParameterError, NumericalError
from svschemes.models import (
    NodeCoeffs,
    OUParams,
    QuadPrimitive,
    ScottParams,
    VolModelSpec,
    benchmark_scott_params,
    scott_model,
    spec_from_config,
)
from svschemes.rng import RngStream


class TestParams:
    def test_ou_requires_positive_kappa_nu(self):
        with pytest.raises(InvalidParameterError):
            OUParams(kappa=0.0, theta=0.0, nu=0.5)
        with pytest.raises(InvalidParameterError):
            OUParams(kappa=1.0, theta=0.0, nu=-0.5)

    def test_scott_param_validation(self):
        with pytest.raises(InvalidParameterError):
            ScottParams(sigma0=-0.1, kappa=1, theta=0, nu=0.5, rho=0, r=0, s0=100, y0=0, T=1)
        # rho and T are the spec's checks
        with pytest.raises(InvalidParameterError):
            scott_model(ScottParams(sigma0=0.25, kappa=1, theta=0, nu=0.5, rho=1.5, r=0, s0=100,
                                    y0=0, T=1))
        with pytest.raises(InvalidParameterError):
            scott_model(ScottParams(sigma0=0.25, kappa=1, theta=0, nu=0.5, rho=0, r=0, s0=100,
                                    y0=0, T=0))

    def test_benchmark_values(self):
        p = benchmark_scott_params()
        assert p.nu == pytest.approx(7.0 * math.sqrt(2.0) / 20.0)
        assert p.rho == -0.2
        assert p.ou == OUParams(1.0, 0.0, p.nu)


class TestScottClosedForms:
    def test_h_at_zero(self):
        # r - sigma0^2/2 - rho*sigma0*(kappa*theta/nu + nu/2), all at y=0
        spec = scott_spec()
        assert coeff(spec, "h", 0.0) == pytest.approx(0.031124368670764582, abs=1e-15)

    def test_F_matches_quadrature(self):
        spec = scott_spec()
        for y in (-1.0, -0.3, 0.0, 0.7, 2.0):
            ref, _ = quad(lambda t: spec.f(t) / spec.sigma(t), 0.0, y)
            assert spec.F(y) == pytest.approx(ref, abs=1e-10)

    def test_h_derivatives_match_finite_differences(self):
        spec = scott_spec()
        eps = 1e-6
        for y in (-0.8, 0.0, 0.6):
            h = coeff(spec, "h", np.array([y - eps, y, y + eps]))
            fd1 = (h[2] - h[0]) / (2 * eps)
            fd2 = (h[2] - 2 * h[1] + h[0]) / eps**2
            assert spec.h1(y) == pytest.approx(fd1, rel=1e-8, abs=1e-8)
            assert spec.h2(y) == pytest.approx(fd2, rel=1e-3, abs=1e-3)

    def test_psi_and_derivatives(self):
        spec = scott_spec()
        y = np.array([-0.5, 0.0, 1.2])
        assert np.allclose(coeff(spec, "psi", y), spec.f(y) ** 2)
        assert np.allclose(coeff(spec, "psi1", y), 2.0 * coeff(spec, "psi", y))
        assert np.allclose(coeff(spec, "psi2", y), 4.0 * coeff(spec, "psi", y))

    def test_psi_hat_unbounded_case(self):
        spec = scott_spec()
        assert spec.psi_lower == 0.0
        assert coeff(spec, "psi_hat", 0.3) == pytest.approx(1.5 * coeff(spec, "psi", 0.3))

    def test_x0(self):
        assert scott_spec().x0 == pytest.approx(math.log(100.0))



class TestDerivedSpec:
    def test_generic_h_matches_closed_form(self):
        spec = scott_spec()
        for y in (-1.0, 0.0, 0.5):
            generic = NodeCoeffs(spec, y).all("h")
            assert generic == pytest.approx(coeff(spec, "h", y), rel=1e-12)

    def test_default_h_from_components(self):
        base = scott_spec()
        p = benchmark_scott_params()
        derived = VolModelSpec(
            r=p.r, s0=p.s0, y0=p.y0, T=p.T, rho=p.rho,
            f=base.f, f1=base.f1, f2=base.f2,
            b=base.b,
            sigma=base.sigma, sigma1=base.sigma1,
            ou=p.ou,
        )
        for y in (-0.5, 0.0, 0.9):
            assert coeff(derived, "h", y) == pytest.approx(coeff(base, "h", y), rel=1e-12)

    def test_quad_primitive_F(self):
        spec = scott_spec()
        p = benchmark_scott_params()
        derived = VolModelSpec(
            r=p.r, s0=p.s0, y0=p.y0, T=p.T, rho=p.rho,
            f=spec.f, f1=spec.f1, f2=spec.f2,
            b=spec.b,
            sigma=spec.sigma, sigma1=spec.sigma1,
        )
        for y in (-2.5, -0.3, 0.0, 0.4, 3.0):  # includes points beyond the initial cache
            assert derived.F(y) == pytest.approx(spec.F(y), abs=5e-7)

    def test_psi_upper_constant_cap(self):
        p = benchmark_scott_params()
        base = scott_spec()
        capped = VolModelSpec(
            r=p.r, s0=p.s0, y0=p.y0, T=p.T, rho=p.rho,
            f=base.f, f1=base.f1, f2=base.f2,
            b=base.b,
            sigma=base.sigma, sigma1=base.sigma1,
            psi_upper=2.0,
        )
        assert coeff(capped, "psi_hat", -3.0) == 2.0
        assert coeff(capped, "psi_hat", 5.0) == 2.0

    def test_constructor_rejects_bad_params(self):
        base = scott_spec()
        kwargs = dict(
            r=0.05, s0=100.0, y0=0.0, T=1.0, rho=0.0,
            f=base.f, f1=base.f1, f2=base.f2, b=base.b,
            sigma=base.sigma, sigma1=base.sigma1,
        )
        for bad in ({"s0": -1.0}, {"T": 0.0}, {"rho": -1.5}, {"rho": 1.5}):
            with pytest.raises(InvalidParameterError):
                VolModelSpec(**{**kwargs, **bad})
        with pytest.raises(InvalidParameterError):
            dataclasses.replace(base, rho=1.5)
        with pytest.raises(TypeError):  # keyword-only
            VolModelSpec(*kwargs.values())


class TestQuadPrimitive:
    def test_cosine_primitive(self):
        prim = QuadPrimitive(np.cos)
        for y in (-2.0, -0.5, 0.0, 1.0, 4.0):
            assert prim(y) == pytest.approx(math.sin(y), abs=1e-9)

    def test_array_input(self):
        prim = QuadPrimitive(lambda t: 2.0 * t)
        ys = np.array([-1.5, 0.0, 2.5])
        assert np.allclose(prim(ys), ys**2, atol=1e-9)

    @pytest.mark.parametrize("shape", [(0,), (3, 0)])
    def test_empty_array(self, shape):
        out = QuadPrimitive(np.cos)(np.empty(shape))
        assert out.shape == shape
        assert out.dtype == np.float64

    def test_error_between_knots(self):
        prim = QuadPrimitive(np.cos)
        step = 0.0625
        mids = (np.arange(-14, 14) + 0.5) * step  # knot midpoints in [-0.9, 0.9]
        # cubic Hermite bound h^4 / 384 times the largest fourth derivative
        # of F = sin (at most 1), plus the quadrature tolerance
        assert np.abs(prim(mids) - np.sin(mids)).max() <= step**4 / 384.0 + 1e-9

    @pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf, np.array([0.5, math.nan])])
    def test_non_finite_input_is_a_numerical_error(self, y):
        prim = QuadPrimitive(np.cos)
        with pytest.raises(NumericalError, match="non-finite"):
            prim(y)
        assert prim(0.5) == pytest.approx(math.sin(0.5), abs=1e-9)

    def test_far_extension_moves_no_value(self):
        ys = np.linspace(-0.9, 0.9, 37)
        prim = QuadPrimitive(np.cos)
        before = prim(ys)
        prim(6.0)
        prim(np.array([-5.0, 0.1]))
        assert prim(ys).tobytes() == before.tobytes()
        extended_first = QuadPrimitive(np.cos)
        extended_first(np.array([-5.0, 6.0]))
        assert extended_first(ys).tobytes() == before.tobytes()

    def test_concurrent_extension_same_bits(self):
        # more threads than cores, each extending the grid its own way
        ranges = [np.linspace(-0.5 - i, 0.5 + 0.7 * i, 41) for i in range(8)]
        serial = QuadPrimitive(np.cos)
        want = [serial(ys).tobytes() for ys in ranges]
        shared = QuadPrimitive(np.cos)
        got = [None] * len(ranges)
        errors = []
        start = threading.Barrier(len(ranges))

        def run(i):
            try:
                start.wait(timeout=10)
                got[i] = shared(ranges[i]).tobytes()
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(ranges))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert got == want


@dataclass
class ValidationReport:
    """Consistency check results; empty failure list means pass."""

    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def validate_spec(spec: VolModelSpec, probe_points: Sequence[float]) -> ValidationReport:
    """Spot-check the spec's node table against its functions at the probe points."""
    if len(probe_points) == 0:
        raise InvalidParameterError("probe_points must be nonempty")
    report = ValidationReport()
    eps = 1e-5
    for y in probe_points:
        table = spec.node_table(spec, y)
        sig = float(table.all("sigma"))
        if not sig > 0:
            report.failures.append(f"sigma not positive at y={y}: {sig}")
            continue
        target = float(table.all("f")) / sig
        fd = (float(spec.F(y + eps)) - float(spec.F(y - eps))) / (2 * eps)
        if abs(fd - target) > 1e-5 * (1.0 + abs(target)):
            report.failures.append(f"F inconsistent with f/sigma at y={y}: {fd} vs {target}")
        h = float(table.all("h"))
        if abs(h - float(NodeCoeffs(spec, y).all("h"))) > 1e-8 * (1.0 + abs(h)):
            report.failures.append(f"h inconsistent with components at y={y}")
        psi_val = float(table.all("psi"))
        if spec.psi_lower > psi_val + 1e-12:
            report.failures.append(f"psi_lower exceeds psi at y={y}")
        if float(table.all("psi_hat")) < psi_val - 1e-12:
            report.failures.append(f"psi_hat below psi at y={y}")
    return report


class TestValidateSpec:
    def test_scott_passes(self):
        report = validate_spec(scott_spec(), [-1.5, -0.5, 0.0, 0.5, 1.5])
        assert report.ok
        assert report.failures == []

    def test_detects_inconsistent_F(self):
        base = scott_spec()
        p = benchmark_scott_params()
        broken = VolModelSpec(
            r=p.r, s0=p.s0, y0=p.y0, T=p.T, rho=p.rho,
            f=base.f, f1=base.f1, f2=base.f2,
            b=base.b,
            sigma=base.sigma, sigma1=base.sigma1,
            F=lambda y: 2.0 * base.F(y),
        )
        report = validate_spec(broken, [0.0, 0.5])
        assert not report.ok
        assert any("F inconsistent" in msg for msg in report.failures)

    def test_empty_probes_rejected(self):
        with pytest.raises(InvalidParameterError):
            validate_spec(scott_spec(), [])

    def test_gbm_factor_spec_passes(self):
        report = validate_spec(gbm_factor_spec(), [0.5, 1.0, 2.0])
        assert report.ok


class TestConfig:
    def base_cfg(self):
        return {
            "model": "scott", "sigma0": 0.25, "kappa": 1.0, "theta": 0.0,
            "nu": 0.4949747468305833, "rho": -0.2, "r": 0.05,
            "s0": 100.0, "y0": 0.0, "T": 1.0,
        }

    def test_roundtrip(self):
        spec = spec_from_config(self.base_cfg())
        ref = scott_spec()
        assert coeff(spec, "h", 0.3) == pytest.approx(coeff(ref, "h", 0.3))
        assert spec.ou == ref.ou

    def test_unknown_key_rejected(self):
        cfg = self.base_cfg()
        cfg["sigma"] = 0.3
        with pytest.raises(ConfigError):
            spec_from_config(cfg)

    def test_missing_key_rejected(self):
        cfg = self.base_cfg()
        del cfg["nu"]
        with pytest.raises(ConfigError):
            spec_from_config(cfg)

    def test_bad_types_rejected(self):
        cfg = self.base_cfg()
        cfg["rho"] = "-0.2"
        with pytest.raises(ConfigError):
            spec_from_config(cfg)
        cfg = self.base_cfg()
        cfg["rho"] = True
        with pytest.raises(ConfigError):
            spec_from_config(cfg)

    def test_wrong_model_rejected(self):
        with pytest.raises(ConfigError):
            spec_from_config({"model": "heston"})
        with pytest.raises(ConfigError):
            spec_from_config(["not", "a", "mapping"])

    def test_invalid_values_become_config_errors(self):
        # kappa is checked by ScottParams; rho, T and s0 by the spec
        for key, value in [("kappa", -1.0), ("rho", 1.5), ("T", 0.0), ("s0", 0.0)]:
            cfg = self.base_cfg()
            cfg[key] = value
            with pytest.raises(ConfigError):
                spec_from_config(cfg)


class TestNodeCoeffs:
    """The node table returns the spec's functions, and the derived entries
    written out in ``reference``, bit for bit."""

    DERIVED = ("h", "psi", "psi1", "psi2", "psi_hat")
    OWN = ("F", "f", "f1", "f2", "b", "sigma", "sigma1")
    Y = np.linspace(0.05, 3.0, 7 * 5).reshape(7, 5)  # the gbm factor lives on y > 0

    def specs(self):
        gbm = gbm_factor_spec(rho=-0.3)
        return [("scott", scott_spec(), self.OWN + ("h1", "h2")),
                ("gbm", gbm, self.OWN),
                ("gbm-capped", dataclasses.replace(gbm, psi_upper=2.0), self.OWN)]

    @staticmethod
    def reference(label, spec, name, y):
        f, f1, f2, sig = spec.f(y), spec.f1(y), spec.f2(y), spec.sigma(y)
        if name == "h" and label == "scott":
            p = benchmark_scott_params()
            e = np.exp(y)
            return (p.r - 0.5 * p.sigma0**2 * e**2
                    - p.rho * p.sigma0 * e * (p.kappa * (p.theta - y) / p.nu + p.nu / 2))
        if name == "h":
            return spec.r - 0.5 * f**2 - spec.rho * (
                spec.b(y) * f / sig + 0.5 * (sig * f1 - f * spec.sigma1(y)))
        if name == "psi_hat" and spec.psi_upper is not None:
            return spec.psi_upper + 0.0 * y
        return {"psi": f**2, "psi1": 2.0 * f * f1, "psi2": 2.0 * (f1**2 + f * f2),
                "psi_hat": 1.5 * f**2}[name]

    def expected(self, label, spec, name, y):
        if name in self.DERIVED:
            return self.reference(label, spec, name, y)
        return getattr(spec, name)(y)

    @staticmethod
    def same_bits(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("both", [False, True], ids=["prev-only", "both-ends"])
    def test_rows_match_functions(self, both):
        y = self.Y
        for label, spec, own in self.specs():
            names = own + self.DERIVED
            table = spec.node_table(spec, y, names if both else ())
            for name in names:
                want = self.expected(label, spec, name, y)
                assert self.same_bits(table.prev(name), want[:-1]), (label, name, "prev")
                assert self.same_bits(table.next(name), want[1:]), (label, name, "next")
                assert self.same_bits(table.all(name), want), (label, name, "all")

    def test_even_nodes_match_functions(self):
        # one and two halvings: the even nodes' table nests down the ladder
        y = np.linspace(0.05, 3.0, 9 * 5).reshape(9, 5)
        for label, spec, own in self.specs():
            coarse = spec.node_table(spec, y, ("F",))
            for stride in (2, 4):
                coarse = coarse.even_nodes()
                for name in own + self.DERIVED:
                    want = self.expected(label, spec, name, y[::stride])
                    assert self.same_bits(coarse.prev(name), want[:-1]), (label, stride, name)
                    assert self.same_bits(coarse.next(name), want[1:]), (label, stride, name)

    def test_each_function_called_once(self):
        spec = gbm_factor_spec()
        calls = []

        def counted(name):
            fn = getattr(spec, name)
            return lambda y: calls.append(name) or fn(y)

        spec = dataclasses.replace(spec, F=counted("F"), f=counted("f"))
        table = spec.node_table(spec, self.Y, ("F",))
        for _ in range(2):
            table.prev("F"), table.next("F"), table.all("F"), table.prev("psi")
        assert sorted(calls) == ["F", "f"]

    @pytest.mark.parametrize("kind", sorted(set(schemes.SchemeKind) - {schemes.SchemeKind.CMT}))
    @pytest.mark.parametrize("cutoff", ["floor", "band"])
    def test_generic_spec_calls_each_function_once_per_node(self, kind, cutoff):
        # an OU-backed generic spec, so every template kind applies
        base = const_vol_ou_spec(rho=-0.3)
        calls = []

        def counted(name, fn):
            return lambda y: calls.append((name, np.size(y))) or fn(y)

        fields = ("F", "f", "f1", "f2", "b", "sigma", "sigma1", "h1", "h2")
        spec = VolModelSpec(r=base.r, s0=base.s0, y0=base.y0, T=base.T, rho=base.rho,
                            ou=base.ou, cutoff=cutoff,
                            **{n: counted(n, getattr(base, n)) for n in fields})
        n_steps, npaths = 8, 50
        draws = factor_draws(spec, kind, n_steps, RngStream(1).child("y"), npaths)
        calls.clear()  # the factor path of a generic spec calls b and sigma
        schemes.drift_and_mult(spec, kind, draws)
        names = [name for name, _ in calls]
        assert sorted(names) == sorted(set(names)), calls
        assert all(size <= (n_steps + 1) * npaths for _, size in calls), calls


def test_cutoff_is_a_spec_field_alone():
    # the radicand cutoff is set on the spec, so no function, method or
    # config object of the package takes it as a parameter
    found = []
    for info in pkgutil.iter_modules(svschemes.__path__):
        module = importlib.import_module(f"svschemes.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__ or obj is VolModelSpec:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members += [(f"{name}.{attr}", fn) for attr, fn in vars(obj).items()
                            if inspect.isfunction(fn)]
            for label, fn in members:
                try:
                    params = inspect.signature(fn).parameters
                except (TypeError, ValueError):
                    continue
                if "cutoff" in params:
                    found.append(f"{module.__name__}.{label}")
    assert found == []
