import math

import numpy as np
import pytest

from conftest import const_vol_ou_spec, factor_draws, scott_spec

from svschemes import models
from svschemes.coupling import coupling_start, level_sums
from svschemes.errors import InvalidParameterError
from svschemes.mlmc import call_level_sampler
from svschemes.coupling import lookback_single_level
from svschemes.pricing import (
    PriceEstimate,
    _mc_estimate,
    bs_call,
    call_payoff,
    chunked_estimate,
    conditional_call_values,
    discounted_call_payoff,
    plain_call,
    romano_touzi_call,
)
from svschemes.rng import RngStream
from svschemes.schemes import SchemeKind


class TestBsCall:
    def test_golden_benchmark_inputs(self):
        # s=100, sigma^2*T=0.0625 (sigma=25%), r=5%, T=1, K=100
        assert bs_call(100.0, 0.0625, 0.05, 1.0, 100.0) == pytest.approx(
            12.335998930368717, abs=1e-12)

    def test_zero_variance_is_intrinsic_forward(self):
        assert bs_call(100.0, 0.0, 0.05, 1.0, 90.0) == pytest.approx(
            100.0 - 90.0 * math.exp(-0.05))
        assert bs_call(80.0, 0.0, 0.05, 1.0, 100.0) == 0.0

    def test_zero_strike_returns_spot(self):
        assert bs_call(123.0, 0.3, 0.05, 1.0, 0.0) == pytest.approx(123.0)

    def test_zero_spot(self):
        assert bs_call(0.0, 0.04, 0.05, 1.0, 100.0) == 0.0

    def test_monotone_in_variance(self):
        prices = [bs_call(100.0, v, 0.05, 1.0, 100.0) for v in (0.01, 0.04, 0.09, 0.25)]
        assert all(a < b for a, b in zip(prices, prices[1:]))

    def test_arbitrage_bounds(self):
        for v in (0.001, 0.04, 0.5):
            for k in (50.0, 100.0, 150.0):
                p = bs_call(100.0, v, 0.05, 1.0, k)
                assert max(100.0 - k * math.exp(-0.05), 0.0) <= p <= 100.0

    def test_convex_in_strike(self):
        p = [bs_call(100.0, 0.0625, 0.05, 1.0, k) for k in (90.0, 100.0, 110.0)]
        assert p[0] + p[2] >= 2 * p[1]

    def test_vectorized(self):
        s = np.array([90.0, 100.0, 110.0])
        got = bs_call(s, 0.0625, 0.05, 1.0, 100.0)
        assert got.shape == (3,)
        assert np.all(np.diff(got) > 0)

    def test_input_validation(self):
        with pytest.raises(InvalidParameterError):
            bs_call(100.0, 0.04, 0.05, 1.0, -1.0)
        with pytest.raises(InvalidParameterError):
            bs_call(100.0, -0.04, 0.05, 1.0, 100.0)
        with pytest.raises(InvalidParameterError):
            bs_call(-100.0, 0.04, 0.05, 1.0, 100.0)


class TestPayoffs:
    def test_call_payoff(self):
        assert call_payoff(110.0, 100.0) == 10.0
        assert call_payoff(90.0, 100.0) == 0.0

    def test_discounted_example(self):
        spec = scott_spec()
        got = discounted_call_payoff(spec, math.log(110.0), 100.0)
        assert got == pytest.approx(math.exp(-0.05) * 10.0)


class TestPriceEstimate:
    def test_ci_and_halfwidth(self):
        est = PriceEstimate(value=10.0, stderr=0.5, npaths=100)
        lo, hi = est.ci()
        assert lo == pytest.approx(10.0 - 0.98)
        assert hi == pytest.approx(10.0 + 0.98)
        lo99, hi99 = est.ci(2.576)
        assert hi99 - lo99 > hi - lo


class TestMcEstimate:
    def test_constant_samples(self):
        est = _mc_estimate(np.array([1.0, 1.0, 1.0]))
        assert est.value == 1.0 and est.stderr == 0.0 and est.ci() == (1.0, 1.0)

    def test_two_point_example(self):
        est = _mc_estimate(np.array([0.0, 2.0]))
        assert est.value == 1.0
        assert est.stderr == pytest.approx(1.0)  # std(ddof=1)=sqrt(2), /sqrt(2)
        lo, hi = est.ci()
        assert lo == pytest.approx(1.0 - 1.96)
        assert hi == pytest.approx(1.0 + 1.96)

    def test_needs_two(self):
        with pytest.raises(InvalidParameterError):
            _mc_estimate(np.array([1.0]))


class TestConditionalValues:
    def test_constant_vol_zero_conditional_variance(self):
        # rho=0 and constant f: conditioning removes all randomness and
        # every path returns the same closed-form price
        spec = const_vol_ou_spec(rho=0.0)
        vals = conditional_call_values(spec, SchemeKind.WEAK2, 4, 100.0, RngStream(1), 200)
        expect = bs_call(100.0, 0.25**2, 0.05, 1.0, 100.0)
        assert np.allclose(vals, expect, rtol=1e-12)
        assert vals.std() == pytest.approx(0.0, abs=1e-10)

    def test_cmt_rejected(self):
        with pytest.raises(InvalidParameterError):
            conditional_call_values(scott_spec(), SchemeKind.CMT, 4, 100.0, RngStream(0), 10)

    def test_values_nonnegative(self):
        vals = conditional_call_values(scott_spec(), SchemeKind.WEAKTRAJ1, 8, 100.0,
                                       RngStream(2), 5000)
        assert np.all(vals >= 0.0)

    @pytest.mark.parametrize("kind", [SchemeKind.WEAK2, SchemeKind.WEAKTRAJ1])
    def test_path_alone_equals_path_in_batch(self, kind):
        # a chunk or parallel block may hold a single path: its sums, on
        # the grid and its halving, must be the bytes it has among other
        # paths (numpy sums one column of eight or more steps pairwise,
        # but several columns row by row)
        spec = scott_spec()
        draws = factor_draws(spec, kind, 8, RngStream(42, "y"), 64)
        batch = coupling_start(spec, kind, 64)
        level_sums(spec, kind, draws, "floor", batch)
        for j in range(64):
            alone = coupling_start(spec, kind, 1)
            level_sums(spec, kind, draws.columns(slice(j, j + 1)), "floor", alone)
            assert alone.tobytes() == batch[..., j:j + 1].tobytes(), j


    def test_halvings_read_the_fine_table(self, monkeypatch):
        # level 3 of the call sampler: 16 fine steps, so 17 nodes a path;
        # the coarse grid's coefficients are the fine even nodes' values
        evals = {}
        scott_eval = models._ScottCoeffs._eval

        def counted(table, name, get):
            out = scott_eval(table, name, get)
            evals[name] = evals.get(name, 0) + np.size(out)
            return out

        monkeypatch.setattr(models._ScottCoeffs, "_eval", counted)
        call_level_sampler(scott_spec(), SchemeKind.WEAKTRAJ1, 100.0)(3, RngStream(0), 1000)
        assert evals["F"] == 17 * 1000
        assert {"exp", "f", "h", "psi", "psi1"} <= set(evals)
        assert all(n <= 17 * 1000 for n in evals.values()), evals


class TestRomanoTouzi:
    def test_constant_vol_exact(self):
        spec = const_vol_ou_spec(rho=0.0)
        est = romano_touzi_call(spec, SchemeKind.WEAK2, 4, 100.0, RngStream(3), 1000)
        assert est.value == pytest.approx(bs_call(100.0, 0.0625, 0.05, 1.0, 100.0), rel=1e-12)
        assert est.stderr == pytest.approx(0.0, abs=1e-12)

    def test_variance_reduction_vs_plain(self):
        spec = scott_spec()
        n = 100_000
        rt = romano_touzi_call(spec, SchemeKind.WEAK2, 16, 100.0, RngStream(4), n)
        mc = plain_call(spec, SchemeKind.WEAK2, 16, 100.0, RngStream(5), n)
        assert rt.stderr < 0.5 * mc.stderr
        # both target the same discretized price
        se = math.sqrt(rt.stderr**2 + mc.stderr**2)
        assert abs(rt.value - mc.value) < 4 * se

    def test_chunking_invariance(self):
        spec = scott_spec()
        a = romano_touzi_call(spec, SchemeKind.WEAKTRAJ1, 4, 100.0, RngStream(6), 900,
                              chunk_paths=300)
        b = romano_touzi_call(spec, SchemeKind.WEAKTRAJ1, 4, 100.0, RngStream(6), 900,
                              chunk_paths=300)
        assert a.value == b.value
        assert a.npaths == 900

    def test_cmt_falls_back_to_plain(self):
        spec = scott_spec()
        est = romano_touzi_call(spec, SchemeKind.CMT, 8, 100.0, RngStream(7), 50_000)
        ref = plain_call(spec, SchemeKind.CMT, 8, 100.0, RngStream(7), 50_000)
        assert est.value == pytest.approx(ref.value)
        assert est.stderr == pytest.approx(ref.stderr)

    def test_needs_two_paths(self):
        with pytest.raises(InvalidParameterError):
            romano_touzi_call(scott_spec(), SchemeKind.WEAK2, 4, 100.0, RngStream(0), 1)

    def test_benchmark_price_in_range(self):
        spec = scott_spec()
        est = romano_touzi_call(spec, SchemeKind.WEAK2, 8, 100.0, RngStream(8), 100_000)
        assert abs(est.value - 12.82603) < 0.05
        assert est.stderr < 0.05


class TestChunkSizeInvariance:
    """A chunk is a union of whole path blocks, so the chunk size sets memory
    only: different chunk sizes give the same bytes."""

    CHUNKS = (4096, 8192, 250_000)

    @pytest.mark.parametrize("kind", [SchemeKind.WEAK2, SchemeKind.WEAKTRAJ1, SchemeKind.CMT])
    def test_romano_touzi_call(self, kind):
        # 10,000 paths: chunks of 4096 + 4096 + 1808, 8192 + 1808, or one
        results = {(est.value, est.stderr) for est in (
            romano_touzi_call(scott_spec(), kind, 4, 100.0, RngStream(5), 10_000,
                              chunk_paths=chunk) for chunk in self.CHUNKS)}
        assert len(results) == 1

    def test_plain_call(self):
        results = {(est.value, est.stderr) for est in (
            plain_call(scott_spec(), SchemeKind.EULER, 4, 100.0, RngStream(6), 9000,
                       chunk_paths=chunk) for chunk in self.CHUNKS)}
        assert len(results) == 1

    def test_chunk_rounds_up_to_whole_blocks(self):
        # 5,000 paths a chunk means two blocks: the same bytes as 8192
        def values(chunk):
            est = romano_touzi_call(scott_spec(), SchemeKind.WEAK2, 4, 100.0, RngStream(7),
                                    9000, chunk_paths=chunk)
            return est.value, est.stderr

        assert values(5000) == values(8192) == values(1)

    def test_lookback_price_is_chunked(self):
        spec = scott_spec()

        def price(chunk):
            est = chunked_estimate(lambda first, size: lookback_single_level(
                spec, SchemeKind.WEAKTRAJ1, 4, RngStream(8), size, "floor", first), 9000, chunk)
            return est.value, est.stderr

        assert price(4096) == price(250_000)

    def test_needs_a_path(self):
        with pytest.raises(InvalidParameterError, match="at least one path"):
            chunked_estimate(lambda first, size: np.zeros(size), 0)
        with pytest.raises(InvalidParameterError, match="two samples"):
            chunked_estimate(lambda first, size: np.zeros(size), 1)
