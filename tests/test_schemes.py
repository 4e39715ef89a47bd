import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from conftest import coeff, const_vol_ou_spec, factor_draws, gbm_factor_spec, scott_spec

from svschemes import _parallel, coupling, mlmc, models, pricing, schemes
from svschemes.errors import InvalidParameterError, NumericalError
from svschemes.models import OUParams, VolModelSpec
from svschemes.rng import BlockStreams, RngStream, ou_transition_moments, ou_triple_chol, ou_triple_cov
from svschemes.schemes import (
    FactorDraws,
    SchemeKind,
    advance_blocks,
    block_steps,
    cmt_step,
    coarsen_factor_draws,
    cutoff_radicand,
    draw_brownian_increments,
    drift_and_mult,
    milstein_step_y,
    nv_step_y,
    simulate_paths,
    simulate_terminal,
    weak2_terminal,
)


def one_step(spec, kind, x, y_prev, y_next, delta, dB, dW=0.0, iW=0.0):
    """x after one template step: drift_and_mult on a one-step, one-path FactorDraws."""
    draws = FactorDraws(delta, np.array([[y_prev], [y_next]], dtype=float),
                        np.array([[dW]], dtype=float), np.array([[iW]], dtype=float))
    drift, mult = drift_and_mult(spec, kind, draws)
    return float(x + drift[0, 0] + mult[0, 0] * dB)


class TestMilsteinStep:
    def test_constant_sigma_reduces_to_euler(self):
        spec = const_vol_ou_spec()
        got = milstein_step_y(spec, 0.3, 0.25, 0.7)
        assert got == pytest.approx(0.3 + spec.b(0.3) * 0.25 + 0.5 * 0.7)

    def test_gbm_arithmetic(self):
        spec = gbm_factor_spec()
        # b(y)=y/2 contributes y*delta/2 on top of the classic cases
        got = milstein_step_y(spec, 1.0, 0.01, 0.1)
        assert got == pytest.approx(1.1 + 0.5 * 0.01)
        got = milstein_step_y(spec, 1.0, 0.01, 0.2)
        assert got == pytest.approx(1.215 + 0.5 * 0.01)

    def test_pure_gbm_goldens(self):
        # b == 0, sigma(y)=y: the two direct-arithmetic cases
        zero_drift = VolModelSpec(
            r=0.05, s0=100.0, y0=1.0, T=1.0, rho=0.0,
            f=lambda y: 0.25 + 0.0 * np.asarray(y, float),
            f1=lambda y: 0.0 * np.asarray(y, float),
            f2=lambda y: 0.0 * np.asarray(y, float),
            b=lambda y: 0.0 * np.asarray(y, float),
            sigma=lambda y: np.asarray(y, float),
            sigma1=lambda y: 1.0 + 0.0 * np.asarray(y, float),
            F=lambda y: 0.25 * np.log(np.asarray(y, float)),
        )
        assert milstein_step_y(zero_drift, 1.0, 0.01, 0.1) == pytest.approx(1.1)
        assert milstein_step_y(zero_drift, 1.0, 0.01, 0.2) == pytest.approx(1.215)

    def test_delta_positive(self):
        with pytest.raises(InvalidParameterError):
            milstein_step_y(scott_spec(), 0.0, 0.0, 0.1)


class TestNvStep:
    def test_ou_composition(self):
        spec = const_vol_ou_spec(nu=0.5)
        got = nv_step_y(spec, 1.0, 1.0, 0.0)
        assert got == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_ou_exactness_identity(self):
        # theta + (y-theta)e^{-kappa delta} + nu dW e^{-kappa delta/2}
        spec = const_vol_ou_spec(kappa=1.3, theta=0.2, nu=0.45)
        ou = spec.ou
        for y, delta, dw in [(0.0, 0.5, 0.3), (-0.7, 0.125, -1.1), (1.5, 1.0, 0.0)]:
            expect = ou.theta + (y - ou.theta) * math.exp(-ou.kappa * delta)
            expect += ou.nu * dw * math.exp(-ou.kappa * delta / 2.0)
            assert nv_step_y(spec, y, delta, dw) == pytest.approx(expect, rel=1e-14)

    def test_gbm_flow(self):
        spec = gbm_factor_spec()
        got = nv_step_y(spec, 2.0, 0.3, 0.4)
        assert got == pytest.approx(2.0 * math.exp(0.4), rel=1e-14)

    def test_missing_flows_rejected(self):
        spec = scott_spec()
        bare = VolModelSpec(
            r=spec.r, s0=spec.s0, y0=spec.y0, T=spec.T, rho=spec.rho,
            f=spec.f, f1=spec.f1, f2=spec.f2, b=spec.b,
            sigma=spec.sigma, sigma1=spec.sigma1,
        )
        with pytest.raises(InvalidParameterError):
            nv_step_y(bare, 0.0, 0.25, 0.1)


class TestCutoffRadicand:
    def test_floor_only(self):
        spec = scott_spec()
        assert cutoff_radicand(spec, 0.0, -1.0) == pytest.approx(0.0)
        assert cutoff_radicand(spec, 0.0, 0.1) == pytest.approx(coeff(spec, "psi", 0.0) + 0.1)

    def test_band_caps_then_floors(self):
        spec = scott_spec()
        hat = float(coeff(spec, "psi_hat", 0.0))
        band = dataclasses.replace(spec, cutoff="band")
        assert cutoff_radicand(band, 0.0, 10.0) == pytest.approx(hat)
        assert cutoff_radicand(band, 0.0, -10.0) == pytest.approx(0.0)

    def test_unknown_cutoff(self):
        # the spec rejects the value when it is built, before anything is drawn
        base = scott_spec()
        with pytest.raises(InvalidParameterError, match="unknown cutoff 'clip'"):
            VolModelSpec(**{**vars(base), "cutoff": "clip"})
        with pytest.raises(InvalidParameterError, match="unknown cutoff 'clip'"):
            dataclasses.replace(base, cutoff="clip")

    @pytest.mark.parametrize("cutoff", ["floor", "band"])
    def test_non_finite_raises(self, cutoff):
        spec = dataclasses.replace(scott_spec(), cutoff=cutoff)
        with pytest.raises(NumericalError):
            cutoff_radicand(spec, np.array([0.0, 0.1]), np.array([0.0, np.nan]))
        with pytest.raises(NumericalError):
            cutoff_radicand(spec, 400.0, -np.inf)


class TestWeakTraj1Step:
    def test_bs_reduction(self):
        spec = const_vol_ou_spec(rho=0.0)
        x = math.log(100.0)
        got = one_step(spec, SchemeKind.WEAKTRAJ1, x, 0.0, 0.3, 0.25, 0.7)
        assert got == pytest.approx(x + 0.25 * (0.05 - 0.25**2 / 2) + 0.25 * 0.7, rel=1e-14)

    def test_scott_composition_golden(self):
        spec = scott_spec()
        x = math.log(100.0)
        got = one_step(spec, SchemeKind.WEAKTRAJ1, x, 0.0, 0.1, 0.25, 0.1)
        expect = (
            x
            + spec.rho * (spec.F(0.1) - spec.F(0.0))
            + 0.25 * coeff(spec, "h", 0.0)
            + math.sqrt(1 - spec.rho**2) * 0.25 * 0.1
        )
        assert got == pytest.approx(expect, rel=1e-14)
        assert got == pytest.approx(4.626822308532914, abs=1e-12)

    def test_floor_active_kills_noise_term(self):
        spec = scott_spec()  # psi_lower = 0
        x = 4.6
        got = one_step(spec, SchemeKind.WEAKTRAJ1, x, 0.0, 0.0, 0.25, 5.0, iW=-10.0)
        assert got == pytest.approx(x + 0.25 * coeff(spec, "h", 0.0))

    def test_band_cutoff_limits_variance(self):
        spec = dataclasses.replace(scott_spec(), cutoff="band")
        x = 4.6
        base = x + 0.25 * coeff(spec, "h", 0.0)
        got = one_step(spec, SchemeKind.WEAKTRAJ1, x, 0.0, 0.0, 0.25, 1.0, iW=10.0)
        cap = math.sqrt(1 - spec.rho**2) * math.sqrt(coeff(spec, "psi_hat", 0.0))
        assert got == pytest.approx(base + cap)


class TestOuImprovedStep:
    def test_difference_from_weaktraj1(self):
        # with iW=0 the two drifts differ by the second-order Taylor terms
        spec = scott_spec()
        ou = spec.ou
        y, delta = 0.2, 0.25
        a = one_step(spec, SchemeKind.OU_IMPROVED, 0.0, y, 0.3, delta, 0.0)
        b = one_step(spec, SchemeKind.WEAKTRAJ1, 0.0, y, 0.3, delta, 0.0)
        pull = ou.kappa * (ou.theta - y)
        expect = (pull * spec.h1(y) + 0.5 * ou.nu**2 * spec.h2(y)) * delta**2 / 2.0
        assert a - b == pytest.approx(expect, rel=1e-12)

    def test_scott_golden(self):
        spec = scott_spec()
        ou = spec.ou
        y, delta, iw, db = 0.0, 0.25, 0.01, 0.05
        pull = ou.kappa * (ou.theta - y)
        h_tilde = (
            delta * coeff(spec, "h", y)
            + ou.nu * spec.h1(y) * iw
            + (pull * spec.h1(y) + 0.5 * ou.nu**2 * spec.h2(y)) * delta**2 / 2.0
        )
        psi_tilde = max(
            coeff(spec, "psi", y)
            + ou.nu * coeff(spec, "psi1", y) * iw / delta
            + (pull * coeff(spec, "psi1", y)
               + 0.5 * ou.nu**2 * coeff(spec, "psi2", y)) * delta / 2.0,
            0.0,
        )
        expect = (
            spec.rho * (spec.F(0.1) - spec.F(y))
            + h_tilde
            + math.sqrt(1 - spec.rho**2) * math.sqrt(psi_tilde) * db
        )
        got = one_step(spec, SchemeKind.OU_IMPROVED, 0.0, y, 0.1, delta, db, iW=iw)
        assert got == pytest.approx(expect, rel=1e-14)

    def test_requires_ou(self):
        with pytest.raises(InvalidParameterError):
            one_step(gbm_factor_spec(), SchemeKind.OU_IMPROVED, 0.0, 1.0, 1.1, 0.25, 0.0)

    def test_non_finite_radicand_raises(self):
        with pytest.raises(NumericalError):
            one_step(scott_spec(), SchemeKind.OU_IMPROVED, 0.0, np.nan, 0.1, 0.25, 0.05,
                     iW=0.01)


class TestEulerStep:
    def test_scott_arithmetic(self):
        spec = scott_spec()
        x = 1.0
        x2 = one_step(spec, SchemeKind.EULER, x, 0.0, 0.0, 0.25, -0.1, dW=0.1)
        expect = x + (0.05 - 0.03125) * 0.25 + 0.25 * (-0.2 * 0.1 + math.sqrt(0.96) * (-0.1))
        assert x2 == pytest.approx(expect, rel=1e-14)

    def test_pure_drift(self):
        spec = scott_spec()
        x2 = one_step(spec, SchemeKind.EULER, 2.0, 0.4, 0.4, 0.5, 0.0)
        assert x2 == pytest.approx(2.0 + (spec.r - 0.5 * coeff(spec, "psi", 0.4)) * 0.5)
        # sigma' = 0: the factor's own (Milstein) step is Euler's
        assert milstein_step_y(spec, 0.4, 0.5, 0.0) == pytest.approx(0.4 + spec.b(0.4) * 0.5)

    def test_explicit_y_next_passthrough(self):
        # the drawn right node is the factor's next value; the Euler
        # log-asset step reads the factor at the left node only
        spec = scott_spec()
        a = one_step(spec, SchemeKind.EULER, 0.0, 0.0, 0.77, 0.5, 0.1, dW=0.3)
        b = one_step(spec, SchemeKind.EULER, 0.0, 0.0, -2.0, 0.5, 0.1, dW=0.3)
        assert a == b


class TestIjkStep:
    def test_constant_f_reduces(self):
        spec = const_vol_ou_spec(rho=-0.3)
        got = one_step(spec, SchemeKind.IJK, 1.0, 0.0, 0.2, 0.25, -0.6, dW=0.4)
        expect = (
            1.0
            + (0.05 - 0.25**2 / 2) * 0.25
            + (-0.3) * 0.25 * 0.4
            + math.sqrt(1 - 0.09) * 0.25 * (-0.6)
        )
        assert got == pytest.approx(expect, rel=1e-14)

    def test_zero_rho_drops_milstein_correction(self):
        spec = const_vol_ou_spec(rho=0.0, nu=0.4)
        got = one_step(spec, SchemeKind.IJK, 0.0, 0.1, 0.2, 0.25, 0.3, dW=0.5)
        expect = (0.05 - 0.25**2 / 2) * 0.25 + 0.25 * 0.3
        assert got == pytest.approx(expect, rel=1e-14)

    def test_requires_ou(self):
        with pytest.raises(InvalidParameterError):
            one_step(gbm_factor_spec(), SchemeKind.IJK, 0.0, 1.0, 1.1, 0.25, 0.1, dW=0.1)


class TestCmtStep:
    def test_constant_coefficients_match_euler(self):
        spec = const_vol_ou_spec(rho=-0.2)
        x2, y2 = cmt_step(spec, 1.0, 0.1, 0.25, 0.3, -0.4)
        ex = one_step(spec, SchemeKind.EULER, 1.0, 0.1, 0.0, 0.25, -0.4, dW=0.3)
        assert x2 == pytest.approx(ex, rel=1e-14)
        # sigma' = f' = 0: the factor update is plain Euler
        assert y2 == pytest.approx(0.1 + spec.b(0.1) * 0.25 + spec.sigma(0.1) * 0.3)

    def test_deterministic_part(self):
        spec = scott_spec()
        y = 0.2
        x2, y2 = cmt_step(spec, 0.0, y, 0.5, 0.0, 0.0)
        assert x2 == pytest.approx((spec.r - 0.5 * coeff(spec, "psi", y)) * 0.5)
        sig = spec.sigma(y)
        drift = spec.b(y) + 0.5 * (sig**2 * spec.f1(y) / spec.f(y) - sig * spec.sigma1(y))
        assert y2 == pytest.approx(y + drift * 0.5)

    def test_scott_step_evaluates_exp_once(self, monkeypatch):
        # f, f' and psi = f^2 all come from one exp(y) per node
        calls = []
        exp = models._SCOTT_FORMULAS["exp"]
        monkeypatch.setitem(models._SCOTT_FORMULAS, "exp",
                            lambda p, get: calls.append(1) or exp(p, get))
        y = np.array([-0.3, 0.0, 0.4])
        cmt_step(scott_spec(), np.zeros(3), y, 0.25, np.full(3, 0.1), np.full(3, -0.2))
        assert len(calls) == 1

    def test_vanishing_f_guard(self):
        with pytest.raises(NumericalError):
            cmt_step(scott_spec(), 0.0, -30.0, 0.25, 0.1, 0.1)


class TestFactorDraws:
    def test_shapes(self):
        spec = scott_spec()
        draws = factor_draws(spec, SchemeKind.WEAKTRAJ1, 8, RngStream(1), 5)
        assert draws.y.shape == (9, 5)
        assert draws.dW.shape == (8, 5)
        assert draws.iW.shape == (8, 5)
        assert draws.delta == pytest.approx(spec.T / 8)

    def test_ou_only_enforcement(self):
        spec = gbm_factor_spec()
        for kind in (SchemeKind.OU_IMPROVED, SchemeKind.IJK):
            with pytest.raises(InvalidParameterError):
                factor_draws(spec, kind, 4, RngStream(0), 2)

    def test_ou_nodes_follow_exact_transition(self):
        spec = scott_spec()
        draws = factor_draws(spec, SchemeKind.EULER, 4, RngStream(3), 1000)
        decay, mean_shift, g11, _, _ = ou_transition_moments(spec.ou, draws.delta)
        resid = draws.y[1:] - mean_shift - decay * draws.y[:-1]
        assert abs(resid.var() - g11) < 5 * g11 / math.sqrt(resid.size)

    @pytest.mark.parametrize("workers", (1, 2, 3))
    def test_ou_draws_equal_whole_array_reference(self, monkeypatch, workers):
        monkeypatch.setattr(_parallel, "MIN_BLOCK", 64)
        monkeypatch.setattr(_parallel, "WORKERS", workers)
        spec = scott_spec(theta=0.3, y0=-0.2)  # a non-zero mean shift
        n_steps, npaths = 6, 301
        draws = factor_draws(spec, SchemeKind.WEAKTRAJ1, n_steps, RngStream(41), npaths)
        # the whole-array mix and recursion, in the same operation order,
        # from the one path block's stream of each normal
        g0, g1, g2 = (RngStream(41).child(name, "block", 0).normal((n_steps, npaths))
                      for name in ("dY", "dW", "iW"))
        chol = ou_triple_chol(spec.ou, draws.delta)
        decay, mean_shift, _, _, _ = ou_transition_moments(spec.ou, draws.delta)
        dy = chol[0, 0] * g0
        dW = chol[1, 0] * g0 + chol[1, 1] * g1
        iW = chol[2, 0] * g0 + chol[2, 1] * g1 + chol[2, 2] * g2
        y = np.empty((n_steps + 1, npaths))
        y[0] = spec.y0
        for k in range(n_steps):
            y[k + 1] = mean_shift + decay * y[k] + dy[k]
        for got, want in ((draws.dW, dW), (draws.iW, iW), (draws.y, y)):
            assert got.tobytes() == want.tobytes()
        # weak2 reads the factor nodes alone: the same y from dY, no dW or iW
        weak2 = factor_draws(spec, SchemeKind.WEAK2, n_steps, RngStream(41), npaths)
        assert weak2.y.tobytes() == y.tobytes()
        for undrawn in (weak2.dW, weak2.iW):
            assert undrawn.shape == (n_steps, npaths) and undrawn.strides == (0, 0)
            assert np.isnan(undrawn).all()

    def test_ou_draws_have_the_triple_covariance(self, monkeypatch):
        # three workers, so the normals of the path blocks are drawn on the pool
        monkeypatch.setattr(_parallel, "WORKERS", 3)
        spec = scott_spec()
        n_steps, npaths = 4, 50_000
        draws = factor_draws(spec, SchemeKind.WEAKTRAJ1, n_steps, RngStream(31), npaths)
        decay, mean_shift, _, _, _ = ou_transition_moments(spec.ou, draws.delta)
        dy = draws.y[1:] - mean_shift - decay * draws.y[:-1]
        # steps are independent draws of one law: pool them
        sample = np.stack([dy, draws.dW, draws.iW]).reshape(3, -1)
        n = sample.shape[1]
        emp = sample @ sample.T / n  # the law has mean zero
        theory = ou_triple_cov(spec.ou, draws.delta)
        for i in range(3):
            for j in range(3):
                # stderr of a zero-mean Gaussian sample covariance entry
                se = math.sqrt((theory[i, i] * theory[j, j] + theory[i, j] ** 2) / n)
                assert abs(emp[i, j] - theory[i, j]) <= 4.0 * se, (i, j, emp[i, j], theory[i, j])
        assert np.all(np.abs(sample.mean(axis=1)) <= 4.0 * np.sqrt(theory.diagonal() / n))

    def test_ou_draw_peak_memory(self):
        # the normals and, while rng.mix runs in place, two temporaries of
        # their shape (a lower sum and a product): about 1.7 times the kept bytes
        spec = scott_spec()
        tracemalloc.start()
        try:
            draws = factor_draws(spec, SchemeKind.WEAKTRAJ1, 256, RngStream(5), 4000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = draws.y.nbytes + draws.dW.nbytes + draws.iW.nbytes
        assert peak <= 2.1 * kept, peak / kept

    def test_undrawn_increment_trips_its_reader(self):
        # weak2 draws dY alone: dW and iW are NaN views of the full shape,
        # so a scheme that reads them fails its finiteness check
        spec = scott_spec()
        draws = factor_draws(spec, SchemeKind.WEAK2, 4, RngStream(2), 5)
        assert np.size(draws.dW) == np.size(draws.iW) == 4 * 5
        drift_and_mult(spec, SchemeKind.WEAK2, draws)
        with pytest.raises(NumericalError):
            drift_and_mult(spec, SchemeKind.WEAKTRAJ1, draws)
        coarse = coarsen_factor_draws(spec, SchemeKind.WEAK2, draws)
        assert coarse.dW.shape == coarse.iW.shape == (2, 5)
        assert coarse.dW.strides == coarse.iW.strides == (0, 0)

    def test_needs_a_path(self):
        for npaths in (0, -5):
            with pytest.raises(InvalidParameterError):
                factor_draws(scott_spec(), SchemeKind.WEAKTRAJ1, 4, RngStream(0), npaths)

    def test_coarsen_identities(self):
        spec = scott_spec()
        fine = factor_draws(spec, SchemeKind.WEAKTRAJ1, 8, RngStream(9), 7)
        coarse = coarsen_factor_draws(spec, SchemeKind.WEAKTRAJ1, fine)
        assert coarse.delta == pytest.approx(2 * fine.delta)
        assert np.allclose(coarse.dW, fine.dW[0::2] + fine.dW[1::2])
        assert np.allclose(coarse.iW, fine.iW[0::2] + fine.iW[1::2] + fine.delta * fine.dW[0::2])
        assert np.array_equal(coarse.y, fine.y[::2])

    def test_coarsen_generic_reruns_recursion(self):
        spec = gbm_factor_spec()
        fine = factor_draws(spec, SchemeKind.WEAKTRAJ1, 8, RngStream(9), 3)
        coarse = coarsen_factor_draws(spec, SchemeKind.WEAKTRAJ1, fine)
        y = np.full(3, spec.y0)
        for k in range(4):
            y = milstein_step_y(spec, y, coarse.delta, coarse.dW[k])
            assert np.allclose(coarse.y[k + 1], y)

    def test_coarsen_needs_even_steps(self):
        spec = scott_spec()
        fine = factor_draws(spec, SchemeKind.EULER, 3, RngStream(0), 2)
        with pytest.raises(InvalidParameterError):
            coarsen_factor_draws(spec, SchemeKind.EULER, fine)

    def test_brownian_increment_variance(self):
        normals = BlockStreams(RngStream(4), 100_000).draw(4, ("b",))["b"]
        db = draw_brownian_increments(normals, 0.25)
        assert db is normals and abs(db.var() - 0.25) < 0.005
        with pytest.raises(InvalidParameterError):
            draw_brownian_increments(normals, 0.0)


class TestStepBlocks:
    def test_block_steps(self):
        assert block_steps(2000) == 64
        assert block_steps(10_000) == 12
        assert block_steps(250_000) == schemes.MIN_STEPS
        assert block_steps(250_000, 16) == 16
        assert block_steps(10_000, 8) == 8

    def test_block_steps_count_every_taker(self, monkeypatch):
        # inside a pool item the other takers hold blocks of their own, so a
        # step block gets BLOCK_VALUES // WORKERS values
        monkeypatch.setattr(_parallel, "WORKERS", 2)
        assert block_steps(10_000) == 12
        inside = _parallel.map_tasks(lambda i: block_steps(10_000), range(2),
                                     2 * _parallel.MIN_BLOCK)
        assert inside == [8, 8]
        assert block_steps(10_000) == 12

    @pytest.mark.parametrize("spec, kind", [(scott_spec(), SchemeKind.WEAKTRAJ1),
                                            (gbm_factor_spec(), SchemeKind.WEAK2),
                                            (gbm_factor_spec(), SchemeKind.EULER)])
    def test_blocks_are_one_draw(self, monkeypatch, spec, kind):
        # 11 steps in blocks of 4: two full blocks and a block of 3
        monkeypatch.setattr(schemes, "block_steps", lambda npaths, multiple=2: 4)
        whole = factor_draws(spec, kind, 11, RngStream(5), 7, reads=("iW",))
        blocks = []
        advance_blocks(spec, (kind,), 11, RngStream(5), np.zeros(7),
                       lambda _, draws, carry: blocks.append(draws), reads=("iW",))
        assert [b.dW.shape[0] for b in blocks] == [4, 4, 3]
        assert all(b.delta == whole.delta for b in blocks)
        for name in ("dW", "iW"):
            joined = np.concatenate([getattr(b, name) for b in blocks])
            assert joined.tobytes() == getattr(whole, name).tobytes()
        joined = np.concatenate([blocks[0].y] + [b.y[1:] for b in blocks[1:]])
        assert joined.tobytes() == whole.y.tobytes()

    def test_blocks_validate_before_drawing(self):
        with pytest.raises(InvalidParameterError, match="at least one path"):
            advance_blocks(scott_spec(), (SchemeKind.EULER,), 4, RngStream(0), np.zeros(0), None)
        with pytest.raises(InvalidParameterError, match="at least one step"):
            advance_blocks(scott_spec(), (SchemeKind.EULER,), 0, RngStream(0), np.zeros(5), None)


def assert_stepwise(spec, kind, draws):
    """Each step k of ``draws`` gives the bytes of drift_and_mult on step k alone."""
    drift, mult = drift_and_mult(spec, kind, draws)
    for k in range(draws.dW.shape[0]):
        step = FactorDraws(draws.delta, draws.y[k:k + 2], draws.dW[k:k + 1], draws.iW[k:k + 1])
        drift_k, mult_k = drift_and_mult(spec, kind, step)
        assert drift_k[0].tobytes() == drift[k].tobytes(), (kind, k)
        assert np.asarray(mult_k[0]).tobytes() == np.asarray(mult[k]).tobytes(), (kind, k)


class TestDriftAndMult:
    def test_matches_scalar_steps(self):
        spec = scott_spec()
        draws = factor_draws(spec, SchemeKind.WEAKTRAJ1, 4, RngStream(11), 6)
        for kind in (SchemeKind.WEAKTRAJ1, SchemeKind.OU_IMPROVED, SchemeKind.IJK,
                     SchemeKind.WEAK2):
            assert_stepwise(spec, kind, draws)

    def test_euler_matches_scalar_step(self):
        spec = scott_spec()
        draws = factor_draws(spec, SchemeKind.EULER, 3, RngStream(13), 4)
        assert_stepwise(spec, SchemeKind.EULER, draws)

    @pytest.mark.parametrize("kind", [SchemeKind.WEAKTRAJ1, SchemeKind.OU_IMPROVED])
    def test_non_finite_radicand_raises(self, kind):
        spec = scott_spec()
        draws = factor_draws(spec, kind, 4, RngStream(15), 5)
        draws.y[2, 3] = np.nan
        with pytest.raises(NumericalError):
            drift_and_mult(spec, kind, draws)

    def test_cmt_rejected(self):
        spec = scott_spec()
        draws = factor_draws(spec, SchemeKind.EULER, 2, RngStream(0), 1)
        with pytest.raises(InvalidParameterError):
            drift_and_mult(spec, SchemeKind.CMT, draws)


# Every entry point that needs the conditional-Gaussian template, called
# with a kind, on draws made beforehand where it takes them.
TEMPLATE_ONLY = {
    "drift_and_mult": lambda spec, fine, kind: schemes.drift_and_mult(spec, kind, fine),
    "terminal_coupling_from_draws": lambda spec, fine, kind: (
        coupling.terminal_coupling_from_draws(spec, kind, fine, np.zeros(2))),
    "coupled_lookback_levels": lambda spec, fine, kind: (
        coupling.coupled_lookback_levels(spec, kind, 2, RngStream(0), 4)),
    "lookback_single_level": lambda spec, fine, kind: (
        coupling.lookback_single_level(spec, kind, 2, RngStream(0), 4)),
    "conditional_call_values": lambda spec, fine, kind: (
        pricing.conditional_call_values(spec, kind, 4, 100.0, RngStream(0), 10)),
    "call_level_sampler": lambda spec, fine, kind: mlmc.call_level_sampler(spec, kind, 100.0),
    "lookback_level_sampler": lambda spec, fine, kind: mlmc.lookback_level_sampler(spec, kind),
}


class TestTemplateOnly:
    def test_kinds(self):
        assert [k for k in SchemeKind if not schemes.is_template(k)] == [SchemeKind.CMT]

    @pytest.mark.parametrize("entry", sorted(TEMPLATE_ONLY))
    def test_cmt_rejected_before_drawing(self, monkeypatch, entry):
        spec = scott_spec()
        fine = factor_draws(spec, SchemeKind.EULER, 4, RngStream(0), 2)

        def no_draw(*args, **kwargs):
            pytest.fail("random values were drawn before CMT was rejected")

        monkeypatch.setattr(RngStream, "normal", no_draw)
        monkeypatch.setattr(RngStream, "uniform_open", no_draw)
        with pytest.raises(InvalidParameterError, match="CMT"):
            TEMPLATE_ONLY[entry](spec, fine, SchemeKind.CMT)


class TestSimulatePath:
    def test_reproducible(self):
        spec = scott_spec()
        a = simulate_paths(SchemeKind.WEAK2, spec, 8, RngStream(5), 3)
        b = simulate_paths(SchemeKind.WEAK2, spec, 8, RngStream(5), 3)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)

    def test_single_path_squeeze(self):
        spec = scott_spec()
        path = simulate_paths(SchemeKind.WEAKTRAJ1, spec, 4, RngStream(6), 1)
        x, y = path.x[:, 0], path.y[:, 0]
        assert x.shape == (5,)
        assert y.shape == (5,)
        assert x[0] == pytest.approx(spec.x0)
        assert np.allclose(path.times, np.linspace(0.0, 1.0, 5))

    def test_weak2_accumulators_populated(self):
        spec = scott_spec()
        path = simulate_paths(SchemeKind.WEAK2, spec, 4, RngStream(7), 2)
        assert path.m is not None and path.v is not None
        assert np.all(path.v[1:] > path.v[:-1])  # psi > 0 so v is increasing
        other = simulate_paths(SchemeKind.EULER, spec, 4, RngStream(7), 2)
        assert other.m is None and other.v is None

    def test_n1_equals_direct_step(self):
        spec = scott_spec()
        rng = RngStream(21)
        path = simulate_paths(SchemeKind.WEAKTRAJ1, spec, 1, rng, 1)
        draws = factor_draws(spec, SchemeKind.WEAKTRAJ1, 1, RngStream(21), 1)
        db = BlockStreams(RngStream(21), 1).draw(1, ("b",))["b"][0, 0]
        y0, y1, iw = draws.y[0, 0], draws.y[1, 0], draws.iW[0, 0]
        # the weaktraj1 step over delta = 1, floor cutoff
        rad = max(coeff(spec, "psi", y0) + spec.sigma(y0) * coeff(spec, "psi1", y0) * iw / 1.0, 0.0)
        expect = (
            spec.x0
            + spec.rho * (spec.F(y1) - spec.F(y0))
            + 1.0 * coeff(spec, "h", y0)
            + math.sqrt(1 - spec.rho**2) * math.sqrt(rad) * db
        )
        assert path.x[1, 0] == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize("kind", [
        SchemeKind.EULER, SchemeKind.WEAKTRAJ1, SchemeKind.OU_IMPROVED,
        SchemeKind.WEAK2, SchemeKind.IJK, SchemeKind.CMT,
    ])
    def test_bs_reduction_terminal_law(self, kind):
        # constant f, rho=0: the terminal log-asset is exactly Gaussian
        spec = const_vol_ou_spec(rho=0.0)
        path = simulate_paths(kind, spec, 4, RngStream(100), 100_000)
        mean = spec.x0 + (spec.r - 0.5 * 0.25**2) * spec.T
        sd = 0.25 * math.sqrt(spec.T)
        z = (path.x[-1] - mean) / sd
        assert stats.kstest(z, "norm").pvalue > 0.01, kind


class TestSimulateTerminal:
    SPECS = {"scott": scott_spec, "gbm": lambda: gbm_factor_spec(rho=-0.3)}

    @pytest.mark.parametrize("spec_name, kind", [("scott", kind) for kind in SchemeKind] + [
        ("gbm", kind) for kind in (
            SchemeKind.EULER, SchemeKind.WEAKTRAJ1, SchemeKind.WEAK2, SchemeKind.CMT)])
    @pytest.mark.parametrize("n_steps, npaths", [(1, 3), (37, 5000)])
    def test_last_node_of_simulate_paths(self, spec_name, kind, n_steps, npaths):
        # 37 steps over 5,000 paths are two step blocks, the last one partial
        spec = self.SPECS[spec_name]()
        x = simulate_terminal(kind, spec, n_steps, RngStream(9), npaths)
        path = simulate_paths(kind, spec, n_steps, RngStream(9), npaths)
        assert x.tobytes() == path.x[-1].tobytes()


class TestWeak2Terminal:
    def test_rho_domain(self):
        spec = const_vol_ou_spec(rho=1.0)
        with pytest.raises(InvalidParameterError):
            weak2_terminal(spec, 4, RngStream(0), npaths=1)

    def test_constant_f_vbar_exact(self):
        spec = const_vol_ou_spec(rho=-0.2)
        for n in (1, 2, 8):
            _, _, _, v_bar = weak2_terminal(spec, n, RngStream(3), npaths=1)
            assert v_bar[0] == pytest.approx(0.25**2 * spec.T, rel=1e-14)

    def test_affine_in_closing_normal(self):
        spec = scott_spec()
        seed_rng = RngStream(17)
        x, y_t, m_bar, v_bar = (a[0] for a in weak2_terminal(spec, 4, seed_rng, npaths=1))
        g = BlockStreams(RngStream(17), 1).draw(1, ("b",))["b"][0, 0]
        expect = (
            spec.x0 + spec.rho * (spec.F(y_t) - spec.F(spec.y0)) + m_bar
            + math.sqrt((1 - spec.rho**2) * v_bar) * g
        )
        assert x == pytest.approx(expect, rel=1e-12)

    def test_batch_shapes(self):
        spec = scott_spec()
        x, y, m, v = weak2_terminal(spec, 4, RngStream(5), npaths=30)
        assert x.shape == y.shape == m.shape == v.shape == (30,)

    def test_bs_reduction_distribution(self):
        spec = const_vol_ou_spec(rho=0.0)
        x, _, _, _ = weak2_terminal(spec, 2, RngStream(31), npaths=100_000)
        mean = spec.x0 + (spec.r - 0.5 * 0.25**2) * spec.T
        sd = 0.25 * math.sqrt(spec.T)
        assert stats.kstest((x - mean) / sd, "norm").pvalue > 0.01

    def test_matches_template_distribution(self):
        # the terminal form and the path form share m/v accumulators
        spec = scott_spec()
        a = simulate_terminal(SchemeKind.WEAK2, spec, 8, RngStream(40), 50_000)
        b, _, _, _ = weak2_terminal(spec, 8, RngStream(41), npaths=50_000)
        se = math.sqrt(a.var() / a.size + b.var() / b.size)
        assert abs(a.mean() - b.mean()) < 4 * se


class TestTerminalLawEquality:
    def test_first_four_moments_match(self):
        # fine WeakTraj1 vs much finer Euler: same limiting law
        spec = scott_spec()
        a = simulate_terminal(SchemeKind.WEAKTRAJ1, spec, 64, RngStream(50), 50_000)
        b = simulate_terminal(SchemeKind.EULER, spec, 256, RngStream(51), 50_000)
        for p in (1, 2, 3, 4):
            ma, mb = (a**p).mean(), (b**p).mean()
            se = math.sqrt((a**p).var() / a.size + (b**p).var() / b.size)
            assert abs(ma - mb) < 3.5 * se, p
