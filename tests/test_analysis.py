import math

import pytest

from conftest import across_layouts, scott_spec

from svschemes import analysis
from svschemes.analysis import (
    BENCHMARK_CALL_PRICE,
    ExperimentConfig,
    ExperimentRow,
    loglog_slope,
    rows_slope,
    run_mlmc_cost,
    run_strong_conv,
    run_terminal_conv,
    run_traj_conv,
    run_weak_call,
    weak_error_refinement,
    write_rows_csv,
)
from svschemes.errors import InvalidParameterError
from svschemes.rng import RngStream
from svschemes.schemes import SchemeKind


class TestLoglogSlope:
    def test_exact_power_law(self):
        ns = [2, 4, 8, 16]
        vals = [3.0 * n**-2.0 for n in ns]
        res = loglog_slope(ns, vals)
        assert res.slope == pytest.approx(-2.0, abs=1e-12)
        assert res.intercept == pytest.approx(math.log(3.0), abs=1e-12)
        assert res.r_squared == pytest.approx(1.0)

    def test_constant_series(self):
        res = loglog_slope([2, 4, 8], [5.0, 5.0, 5.0])
        assert res.slope == pytest.approx(0.0, abs=1e-12)
        assert res.r_squared == pytest.approx(1.0)

    def test_domain_errors(self):
        with pytest.raises(InvalidParameterError):
            loglog_slope([2], [1.0])
        with pytest.raises(InvalidParameterError):
            loglog_slope([2, 4], [1.0, -1.0])
        with pytest.raises(InvalidParameterError):
            loglog_slope([2, 4, 8], [1.0, 2.0])


class TestExperimentConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.n_ladder == (2, 4, 8, 16, 32, 64, 128, 256)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(n_ladder=(2,))
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(n_ladder=(2, 3))
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(n_ladder=(4, 2))
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(npaths=1)


def small_config(**kw):
    defaults = dict(n_ladder=(2, 4, 8), npaths=2000)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestConvExperiments:
    def test_strong_rows_shape(self):
        spec = scott_spec()
        rows = run_strong_conv(spec, small_config(), RngStream(42))
        # 6 schemes x 2 metrics x 3 ladder points
        assert len(rows) == 36
        assert all(r.experiment == "strong-conv" for r in rows)
        assert all(r.value > 0 and r.stderr >= 0 for r in rows)

    def test_traj_excludes_cmt(self):
        spec = scott_spec()
        rows = run_traj_conv(spec, small_config(), RngStream(42))
        assert not any(r.scheme == "cmt" for r in rows)
        assert len(rows) == 30

    def test_terminal_includes_cmt(self):
        spec = scott_spec()
        rows = run_terminal_conv(spec, small_config(), RngStream(42))
        assert any(r.scheme == "cmt" for r in rows)

    def test_errors_decrease_along_ladder(self):
        spec = scott_spec()
        rows = run_strong_conv(spec, small_config(), RngStream(42))
        vals = [r.value for r in rows
                if r.scheme == "weaktraj1" and r.metric == "log_sq_err"]
        assert vals[0] > vals[-1]

    def test_chunking_invariance(self):
        spec = scott_spec()
        a = run_strong_conv(spec, small_config(), RngStream(7))
        b = run_strong_conv(spec, small_config(), RngStream(7))
        assert [(r.value, r.stderr) for r in a] == [(r.value, r.stderr) for r in b]

    @pytest.mark.parametrize("run", [run_strong_conv, run_traj_conv, run_terminal_conv])
    def test_chunk_size_invariance(self, monkeypatch, run):
        # 9,000 paths a cell: one item, or items of 4096 + 4096 + 808
        def rows():
            config = ExperimentConfig(n_ladder=(2, 4), npaths=9000)
            return tuple((r.value, r.stderr) for r in run(scott_spec(), config, RngStream(7)))

        assert len(across_layouts(monkeypatch, rows)) == 1

    def test_rows_slope_selector(self):
        rows = [
            ExperimentRow("e", "s", 2, "m", 4.0, 0.0),
            ExperimentRow("e", "s", 4, "m", 1.0, 0.0),
            ExperimentRow("e", "other", 4, "m", 9.0, 0.0),
        ]
        res = rows_slope(rows, "e", "s", "m")
        assert res.slope == pytest.approx(-2.0)
        with pytest.raises(InvalidParameterError):
            rows_slope(rows, "e", "missing", "m")


class TestWeakCall:
    def test_rows_and_reference(self):
        spec = scott_spec()
        cfg = ExperimentConfig(n_ladder=(2, 4), npaths=5000, kinds=(SchemeKind.WEAK2,))
        rows = run_weak_call(spec, cfg, RngStream(1), 100.0,
                             reference=BENCHMARK_CALL_PRICE)
        metrics = [r.metric for r in rows]
        assert metrics.count("call_price") == 2
        assert metrics.count("abs_error") == 2
        prices = [r.value for r in rows if r.metric == "call_price"]
        assert all(10.0 < p < 16.0 for p in prices)

    def test_refinement_ladder_validation(self):
        spec = scott_spec()
        with pytest.raises(InvalidParameterError):
            weak_error_refinement(spec, SchemeKind.WEAK2, (5,), 12, 100.0, RngStream(0), 100)
        with pytest.raises(InvalidParameterError):
            weak_error_refinement(spec, SchemeKind.WEAK2, (8,), 8, 100.0, RngStream(0), 100)
        with pytest.raises(InvalidParameterError):
            weak_error_refinement(spec, SchemeKind.CMT, (2,), 8, 100.0, RngStream(0), 100)

    def test_refinement_ladder_entries_are_halvings(self, monkeypatch):
        # 8 divides 24 but is no halving of it: rejected before any draw
        def drawn(*args, **kwargs):
            raise AssertionError("drew before validating the ladder")

        monkeypatch.setattr(analysis, "conditional_call_values", drawn)
        for ladder, fine_steps in (((8,), 24), ((3, 8), 24), ((0,), 24), ((0,), 0)):
            with pytest.raises(InvalidParameterError, match="halved"):
                weak_error_refinement(scott_spec(), SchemeKind.WEAK2, ladder, fine_steps, 100.0,
                                      RngStream(0), 100)

    def test_refinement_needs_two_paths(self):
        with pytest.raises(InvalidParameterError):
            weak_error_refinement(scott_spec(), SchemeKind.WEAK2, (2,), 4, 100.0,
                                  RngStream(0), 1)

    def test_refinement_chunk_size_invariance(self, monkeypatch):
        # 9,000 paths: one item, two, or items of 4096 + 4096 + 808
        def rows():
            return tuple((r.value, r.stderr) for r in weak_error_refinement(
                scott_spec(), SchemeKind.WEAK2, (2, 4), 8, 100.0, RngStream(3), 9000))

        assert len(across_layouts(monkeypatch, rows)) == 1

    def test_refinement_rows(self):
        spec = scott_spec()
        rows = weak_error_refinement(spec, SchemeKind.WEAK2, (2, 4), 16, 100.0,
                                     RngStream(2), 20_000)
        assert [r.n_steps for r in rows] == [2, 4]
        assert all(r.metric == "weak_error" and r.value >= 0 for r in rows)


class TestMlmcCost:
    def test_rows(self):
        spec = scott_spec()
        rows = run_mlmc_cost(spec, SchemeKind.WEAKTRAJ1, "call", (0.1, 0.05),
                             RngStream(3), initial_samples=2000,
                             reference=BENCHMARK_CALL_PRICE)
        metrics = [r.metric for r in rows]
        for m in ("price", "total_cost", "wall_clock", "epsilon", "abs_error"):
            assert metrics.count(m) == 2, m
        costs = [r.value for r in rows if r.metric == "total_cost"]
        assert costs[1] > costs[0]

    def test_unknown_payoff(self):
        with pytest.raises(InvalidParameterError):
            run_mlmc_cost(scott_spec(), SchemeKind.WEAKTRAJ1, "asian", (0.1,), RngStream(0))


class TestCsv:
    def test_schema_and_reproducible_bytes(self, tmp_path):
        spec = scott_spec()
        cfg = ExperimentConfig(n_ladder=(2, 4), npaths=500,
                               kinds=(SchemeKind.WEAKTRAJ1, SchemeKind.EULER))
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_rows_csv(run_strong_conv(spec, cfg, RngStream(9)), str(p1))
        write_rows_csv(run_strong_conv(spec, cfg, RngStream(9)), str(p2))
        text = p1.read_text()
        assert text.splitlines()[0] == "experiment,scheme,N,metric,value,stderr"
        assert text == p2.read_text()
        # every data line has six comma-separated fields
        for line in text.splitlines()[1:]:
            assert len(line.split(",")) == 6
