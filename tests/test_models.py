import dataclasses
import math
import sys
import threading

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import gbm_factor_spec

from svschemes.errors import ConfigError, InvalidParameterError
from svschemes.models import (
    OUParams,
    QuadPrimitive,
    ScottParams,
    benchmark_scott_params,
    derive_h,
    make_spec,
    scott_model,
    spec_from_config,
    validate_spec,
    vol_flow_from_zeta,
)


def scott_spec():
    return scott_model(benchmark_scott_params())


def gbm_spec(rho=0.0):
    # b(y) = y/2, sigma(y) = y: V0 vanishes and the vol flow is y*e^s
    return make_spec(
        r=0.05, s0=100.0, y0=1.0, T=1.0, rho=rho,
        f=lambda y: 0.25 + 0.0 * np.asarray(y, dtype=float),
        f1=lambda y: 0.0 * np.asarray(y, dtype=float),
        f2=lambda y: 0.0 * np.asarray(y, dtype=float),
        b=lambda y: 0.5 * np.asarray(y, dtype=float),
        sigma=lambda y: np.asarray(y, dtype=float),
        sigma1=lambda y: 1.0 + 0.0 * np.asarray(y, dtype=float),
        # f/sigma = 0.25/y is singular at 0, so the primitive needs an
        # explicit anchor away from 0; schemes only ever use differences of F
        F=lambda y: 0.25 * np.log(np.asarray(y, dtype=float)),
        flow_drift=lambda y, t: y,
        flow_vol=vol_flow_from_zeta(np.log, np.exp),
    )


class TestParams:
    def test_ou_requires_positive_kappa_nu(self):
        with pytest.raises(InvalidParameterError):
            OUParams(kappa=0.0, theta=0.0, nu=0.5, y0=0.0)
        with pytest.raises(InvalidParameterError):
            OUParams(kappa=1.0, theta=0.0, nu=-0.5, y0=0.0)

    def test_scott_param_validation(self):
        with pytest.raises(InvalidParameterError):
            ScottParams(sigma0=-0.1, kappa=1, theta=0, nu=0.5, rho=0, r=0, s0=100, y0=0, T=1)
        with pytest.raises(InvalidParameterError):
            ScottParams(sigma0=0.25, kappa=1, theta=0, nu=0.5, rho=1.5, r=0, s0=100, y0=0, T=1)
        with pytest.raises(InvalidParameterError):
            ScottParams(sigma0=0.25, kappa=1, theta=0, nu=0.5, rho=0, r=0, s0=100, y0=0, T=0)

    def test_benchmark_values(self):
        p = benchmark_scott_params()
        assert p.nu == pytest.approx(7.0 * math.sqrt(2.0) / 20.0)
        assert p.rho == -0.2
        assert p.ou == OUParams(1.0, 0.0, p.nu, 0.0)


class TestScottClosedForms:
    def test_h_at_zero(self):
        # r - sigma0^2/2 - rho*sigma0*(kappa*theta/nu + nu/2), all at y=0
        spec = scott_spec()
        assert spec.h(0.0) == pytest.approx(0.031124368670764582, abs=1e-15)

    def test_F_matches_quadrature(self):
        spec = scott_spec()
        for y in (-1.0, -0.3, 0.0, 0.7, 2.0):
            ref, _ = quad(lambda t: spec.f(t) / spec.sigma(t), 0.0, y)
            assert spec.F(y) == pytest.approx(ref, abs=1e-10)

    def test_h_derivatives_match_finite_differences(self):
        spec = scott_spec()
        eps = 1e-6
        for y in (-0.8, 0.0, 0.6):
            fd1 = (spec.h(y + eps) - spec.h(y - eps)) / (2 * eps)
            fd2 = (spec.h(y + eps) - 2 * spec.h(y) + spec.h(y - eps)) / eps**2
            assert spec.h1(y) == pytest.approx(fd1, rel=1e-8, abs=1e-8)
            assert spec.h2(y) == pytest.approx(fd2, rel=1e-3, abs=1e-3)

    def test_psi_and_derivatives(self):
        spec = scott_spec()
        y = np.array([-0.5, 0.0, 1.2])
        assert np.allclose(spec.psi(y), spec.f(y) ** 2)
        assert np.allclose(spec.psi1(y), 2.0 * spec.psi(y))
        assert np.allclose(spec.psi2(y), 4.0 * spec.psi(y))

    def test_psi_hat_unbounded_case(self):
        spec = scott_spec()
        assert spec.psi_lower == 0.0
        assert spec.psi_hat(0.3) == pytest.approx(1.5 * spec.psi(0.3))

    def test_x0(self):
        assert scott_spec().x0 == pytest.approx(math.log(100.0))

    def test_flows(self):
        spec = scott_spec()
        ou = spec.ou
        assert spec.flow_drift(1.0, 1.0) == pytest.approx(math.exp(-1.0))
        assert spec.flow_vol(0.2, 0.5) == pytest.approx(0.2 + ou.nu * 0.5)


class TestDerivedSpec:
    def test_derive_h_matches_closed_form(self):
        spec = scott_spec()
        for y in (-1.0, 0.0, 0.5):
            assert derive_h(spec, y) == pytest.approx(spec.h(y), rel=1e-12)

    def test_default_h_from_components(self):
        base = scott_spec()
        p = benchmark_scott_params()
        derived = make_spec(
            r=p.r, s0=p.s0, y0=p.y0, T=p.T, rho=p.rho,
            f=base.f, f1=base.f1, f2=base.f2,
            b=base.b,
            sigma=base.sigma, sigma1=base.sigma1,
            ou=p.ou,
        )
        for y in (-0.5, 0.0, 0.9):
            assert derived.h(y) == pytest.approx(base.h(y), rel=1e-12)

    def test_quad_primitive_F(self):
        spec = scott_spec()
        p = benchmark_scott_params()
        derived = make_spec(
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
        capped = make_spec(
            r=p.r, s0=p.s0, y0=p.y0, T=p.T, rho=p.rho,
            f=base.f, f1=base.f1, f2=base.f2,
            b=base.b,
            sigma=base.sigma, sigma1=base.sigma1,
            psi_upper=2.0,
        )
        assert capped.psi_hat(-3.0) == 2.0
        assert capped.psi_hat(5.0) == 2.0

    def test_make_spec_rejects_bad_params(self):
        base = scott_spec()
        kwargs = dict(
            y0=0.0, T=1.0, rho=0.0,
            f=base.f, f1=base.f1, f2=base.f2, b=base.b,
            sigma=base.sigma, sigma1=base.sigma1,
        )
        with pytest.raises(InvalidParameterError):
            make_spec(r=0.05, s0=-1.0, **kwargs)
        with pytest.raises(InvalidParameterError):
            make_spec(r=0.05, s0=100.0, **{**kwargs, "rho": -1.5})


class TestQuadPrimitive:
    def test_cosine_primitive(self):
        prim = QuadPrimitive(np.cos)
        for y in (-2.0, -0.5, 0.0, 1.0, 4.0):
            assert prim(y) == pytest.approx(math.sin(y), abs=1e-9)

    def test_array_input(self):
        prim = QuadPrimitive(lambda t: 2.0 * t)
        ys = np.array([-1.5, 0.0, 2.5])
        assert np.allclose(prim(ys), ys**2, atol=1e-9)

    def test_error_between_knots(self):
        prim = QuadPrimitive(np.cos)
        step = 0.0625
        mids = (np.arange(-14, 14) + 0.5) * step  # knot midpoints in [-0.9, 0.9]
        # cubic Hermite bound h^4 / 384 times the largest fourth derivative
        # of F = sin (at most 1), plus the quadrature tolerance
        assert np.abs(prim(mids) - np.sin(mids)).max() <= step**4 / 384.0 + 1e-9

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


class TestValidateSpec:
    def test_scott_passes(self):
        report = validate_spec(scott_spec(), [-1.5, -0.5, 0.0, 0.5, 1.5])
        assert report.ok
        assert report.failures == []

    def test_detects_inconsistent_F(self):
        base = scott_spec()
        p = benchmark_scott_params()
        broken = make_spec(
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
        report = validate_spec(gbm_spec(), [0.5, 1.0, 2.0])
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
        assert spec.h(0.3) == pytest.approx(ref.h(0.3))
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
        cfg = self.base_cfg()
        cfg["kappa"] = -1.0
        with pytest.raises(ConfigError):
            spec_from_config(cfg)


class TestNodeCoeffs:
    """The node table returns each model function's values bit for bit."""

    NAMES = ("F", "f", "f1", "f2", "h", "psi", "psi1", "psi2", "psi_hat", "sigma", "sigma1")
    Y = np.linspace(0.05, 3.0, 7 * 5).reshape(7, 5)  # the gbm factor lives on y > 0

    def specs(self):
        return [("scott", scott_spec(), self.NAMES + ("h1", "h2")),
                ("gbm", gbm_factor_spec(rho=-0.3), self.NAMES)]

    @staticmethod
    def same_bits(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("both", [False, True], ids=["prev-only", "both-ends"])
    def test_rows_match_functions(self, both):
        y = self.Y
        for label, spec, names in self.specs():
            table = spec.node_table(spec, y, names if both else ())
            for name in names:
                fn = getattr(spec, name)
                assert self.same_bits(table.prev(name), fn(y[:-1])), (label, name, "prev")
                assert self.same_bits(table.next(name), fn(y[1:])), (label, name, "next")
                assert self.same_bits(table.all(name), fn(y)), (label, name, "all")

    def test_even_nodes_match_functions(self):
        y = self.Y
        for label, spec, names in self.specs():
            coarse = spec.node_table(spec, y, ("F",)).even_nodes()
            for name in names:
                fn = getattr(spec, name)
                assert self.same_bits(coarse.prev(name), fn(y[::2][:-1])), (label, name)
                assert self.same_bits(coarse.next(name), fn(y[::2][1:])), (label, name)

    def test_each_function_called_once(self):
        spec = gbm_factor_spec()
        calls = []

        def counted(name):
            fn = getattr(spec, name)
            return lambda y: calls.append(name) or fn(y)

        spec = dataclasses.replace(spec, F=counted("F"), psi=counted("psi"))
        table = spec.node_table(spec, self.Y, ("F",))
        for _ in range(2):
            table.prev("F"), table.next("F"), table.all("F"), table.prev("psi")
        assert sorted(calls) == ["F", "psi"]
