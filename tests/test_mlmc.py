import math

import numpy as np
import pytest

from conftest import const_vol_ou_spec, scott_spec

from svschemes.errors import BudgetExceededError, InvalidParameterError
from svschemes.mlmc import (
    BATCH_PATHS,
    LevelStats,
    MlmcConfig,
    call_level_sampler,
    lookback_level_sampler,
    mlmc_estimate,
)
from svschemes.pricing import bs_call, romano_touzi_call
from svschemes.rng import RngStream
from svschemes.schemes import SchemeKind


def level_stats(sampler, config, rng, levels):
    """Mean and variance of the corrections at each level, from the
    streams of ``mlmc_estimate``'s batches of the initial samples."""
    out = []
    for level in levels:
        stats = LevelStats(level=level)
        for batch, start in enumerate(range(0, config.initial_samples, BATCH_PATHS)):
            size = min(BATCH_PATHS, config.initial_samples - start)
            stats.add(sampler(level, rng.child("level", level, "batch", batch), size))
        out.append(stats)
    return out


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            MlmcConfig(epsilon=0.0, max_level=5)
        for epsilon in (math.inf, math.nan):
            with pytest.raises(InvalidParameterError):
                MlmcConfig(epsilon=epsilon, max_level=5)
        with pytest.raises(InvalidParameterError):
            MlmcConfig(epsilon=0.1, max_level=0)
        with pytest.raises(InvalidParameterError):
            MlmcConfig(epsilon=0.1, max_level=5, base_steps=0)
        with pytest.raises(InvalidParameterError):
            MlmcConfig(epsilon=0.1, max_level=5, initial_samples=1)

    def test_cost_schedule(self):
        cfg = MlmcConfig(epsilon=0.1, max_level=5, base_steps=2)
        assert cfg.cost_per_sample(0) == 2.0
        assert cfg.cost_per_sample(1) == 6.0
        assert cfg.cost_per_sample(3) == 24.0


class TestLevelStats:
    def test_running_moments(self):
        s = LevelStats(level=0)
        s.add(np.array([1.0, 2.0, 3.0]))
        s.add(np.array([4.0]))
        assert s.n == 4
        assert s.mean == pytest.approx(2.5)
        assert s.variance == pytest.approx(np.var([1, 2, 3, 4], ddof=1))

    def test_variance_without_cancellation(self):
        # a large mean and a small spread: a sum of squares less the squared
        # sum over n loses every digit of the variance here
        x = 1e8 + 1e-3 * RngStream(3).normal(20_000)
        s = LevelStats(level=0)
        s.add(x)
        assert s.mean == pytest.approx(x.mean(), rel=1e-15)
        assert s.variance == pytest.approx(np.var(x, ddof=1), rel=1e-9)

    def test_whole_blocks_merge_the_same_bytes_however_split(self):
        x = RngStream(4).normal(10_000)
        whole = LevelStats()
        whole.add(x)
        for cut in (4096, 8192):
            split = LevelStats()
            split.add(x[:cut])
            split.add(x[cut:])
            assert (split.n, split.mean, split.m2) == (whole.n, whole.mean, whole.m2)

    def test_variance_needs_two(self):
        s = LevelStats(level=0)
        s.add(np.array([1.0]))
        with pytest.raises(InvalidParameterError):
            _ = s.variance


class TestDriver:
    def test_zero_correction_terminates_immediately(self):
        # constant level-0 value and zero corrections: stops at two levels
        def sampler(level, rng, n):
            if level == 0:
                return np.full(n, 5.0) + 1e-9 * rng.normal(n)
            return np.zeros(n)

        cfg = MlmcConfig(epsilon=0.05, max_level=4, initial_samples=100)
        res = mlmc_estimate(sampler, cfg, RngStream(1))
        assert len(res.levels) == 2
        assert res.value == pytest.approx(5.0, abs=1e-6)

    def test_budget_exceeded(self):
        # corrections that never decay: the bias test cannot pass
        def sampler(level, rng, n):
            return np.full(n, 1.0) + 0.01 * rng.normal(n)

        cfg = MlmcConfig(epsilon=0.01, max_level=2, initial_samples=100)
        with pytest.raises(BudgetExceededError):
            mlmc_estimate(sampler, cfg, RngStream(2))

    def test_finer_levels_start_from_their_allocation(self):
        # level-l corrections 2^-l (1 + Z): alpha = 1, beta = 2, so the run
        # goes to level 8 and the allocation wants fewer samples on the
        # fine levels than the probe levels 0-2 are given
        def sampler(level, rng, n):
            z = rng.normal(n)
            return 1.0 + z if level == 0 else 2.0**-level * (1.0 + z)

        cfg = MlmcConfig(epsilon=0.01, max_level=10, initial_samples=1000)
        res = mlmc_estimate(sampler, cfg, RngStream(15))
        assert [s.level for s in res.levels] == list(range(len(res.levels)))
        assert len(res.levels) >= 7
        assert all(s.n >= cfg.initial_samples for s in res.levels[:3])
        assert res.levels[-1].n < cfg.initial_samples
        # the allocation is redone until met: the statistical error is eps/sqrt(2)
        assert res.stderr < 1.05 * cfg.epsilon / math.sqrt(2.0)
        assert abs(res.value - 2.0) < 3 * res.stderr + res.bias_bound

    def test_reproducible(self):
        spec = scott_spec()
        sampler = call_level_sampler(spec, SchemeKind.WEAKTRAJ1, 100.0)
        cfg = MlmcConfig(epsilon=0.1, max_level=6, initial_samples=500)
        a = mlmc_estimate(sampler, cfg, RngStream(3))
        b = mlmc_estimate(sampler, cfg, RngStream(3))
        assert a.value == b.value
        assert a.total_cost == b.total_cost

    def test_cost_grows_as_epsilon_shrinks(self):
        spec = scott_spec()
        sampler = call_level_sampler(spec, SchemeKind.WEAKTRAJ1, 100.0)
        costs = []
        for eps in (0.2, 0.05):
            cfg = MlmcConfig(epsilon=eps, max_level=8, initial_samples=1000)
            costs.append(mlmc_estimate(sampler, cfg, RngStream(4)).total_cost)
        assert costs[1] > costs[0]

    def test_stderr_consistent_with_epsilon(self):
        spec = scott_spec()
        sampler = call_level_sampler(spec, SchemeKind.WEAKTRAJ1, 100.0)
        cfg = MlmcConfig(epsilon=0.05, max_level=8, initial_samples=1000)
        res = mlmc_estimate(sampler, cfg, RngStream(5))
        # statistical error targets eps/sqrt(2)
        assert res.stderr < cfg.epsilon
        assert res.bias_bound < cfg.epsilon / math.sqrt(2.0)


class TestCallSampler:
    def test_cmt_rejected(self):
        with pytest.raises(InvalidParameterError):
            call_level_sampler(scott_spec(), SchemeKind.CMT, 100.0)

    def test_constant_vol_levels_vanish(self):
        spec = const_vol_ou_spec(rho=0.0)
        sampler = call_level_sampler(spec, SchemeKind.WEAK2, 100.0)
        level0 = sampler(0, RngStream(6), 50)
        assert np.allclose(level0, bs_call(100.0, 0.0625, 0.05, 1.0, 100.0), rtol=1e-12)
        diff = sampler(2, RngStream(7), 50)
        assert np.allclose(diff, 0.0, atol=1e-10)

    def test_level_means_telescope(self):
        # summed level means approximate the fine-grid conditional price
        spec = scott_spec()
        sampler = call_level_sampler(spec, SchemeKind.WEAKTRAJ1, 100.0)
        cfg = MlmcConfig(epsilon=0.1, max_level=6, initial_samples=40_000)
        stats = level_stats(sampler, cfg, RngStream(8), [0, 1, 2, 3])
        telescoped = sum(s.mean for s in stats)
        direct = romano_touzi_call(spec, SchemeKind.WEAKTRAJ1, 16, 100.0, RngStream(9), 200_000)
        se = math.sqrt(sum(s.variance / s.n for s in stats) + direct.stderr**2)
        assert abs(telescoped - direct.value) < 4 * se

    def test_level_variances_decay(self):
        spec = scott_spec()
        sampler = call_level_sampler(spec, SchemeKind.WEAKTRAJ1, 100.0)
        cfg = MlmcConfig(epsilon=0.1, max_level=8, initial_samples=20_000)
        stats = level_stats(sampler, cfg, RngStream(10), [1, 3, 5])
        assert stats[0].variance > stats[1].variance > stats[2].variance
        # terminal coupling of the first-order weak scheme: V_l = O(2^-2l)
        slope = (math.log2(stats[2].variance) - math.log2(stats[0].variance)) / 4.0
        assert slope < -1.3

    def test_estimate_matches_benchmark(self):
        spec = scott_spec()
        sampler = call_level_sampler(spec, SchemeKind.WEAKTRAJ1, 100.0)
        cfg = MlmcConfig(epsilon=0.05, max_level=8, initial_samples=2000)
        res = mlmc_estimate(sampler, cfg, RngStream(11))
        assert abs(res.value - 12.82603) < 3 * cfg.epsilon


class TestLookbackSampler:
    def test_cmt_rejected(self):
        with pytest.raises(InvalidParameterError):
            lookback_level_sampler(scott_spec(), SchemeKind.CMT)

    def test_level_zero_is_single_grid(self):
        spec = scott_spec()
        sampler = lookback_level_sampler(spec, SchemeKind.WEAKTRAJ1)
        vals = sampler(0, RngStream(12), 2000)
        assert vals.shape == (2000,)
        assert 10.0 < vals.mean() < 40.0

    def test_level_variances_decay(self):
        spec = scott_spec()
        sampler = lookback_level_sampler(spec, SchemeKind.WEAKTRAJ1)
        cfg = MlmcConfig(epsilon=0.1, max_level=8, initial_samples=20_000)
        stats = level_stats(sampler, cfg, RngStream(13), [1, 3, 5])
        assert stats[0].variance > stats[1].variance > stats[2].variance

    def test_estimate_runs(self):
        spec = scott_spec()
        sampler = lookback_level_sampler(spec, SchemeKind.WEAKTRAJ1)
        cfg = MlmcConfig(epsilon=0.2, max_level=10, initial_samples=2000)
        res = mlmc_estimate(sampler, cfg, RngStream(14))
        assert 15.0 < res.value < 30.0
        assert res.total_cost > 0
