"""Path-parallel blocks: results are the same bytes for any worker count."""

import threading
import time

import numpy as np
import pytest

from conftest import gbm_factor_spec, scott_spec

from svschemes import _parallel, schemes
from svschemes.analysis import ExperimentConfig, run_strong_conv, run_terminal_conv, run_traj_conv
from svschemes.mlmc import call_level_sampler
from svschemes.pricing import romano_touzi_call
from svschemes.rng import RngStream
from svschemes.schemes import SchemeKind

# Small enough that the small inputs below are split into several blocks.
SMALL_BLOCK = 64


def two_step_blocks(monkeypatch):
    """Step blocks of two steps (or the coarsening factor), cut into blocks of 200 values."""
    monkeypatch.setattr(schemes, "block_steps", lambda npaths, multiple=2: multiple)
    monkeypatch.setattr(_parallel, "BLOCK_VALUES", 200)


def across_workers(monkeypatch, compute, min_block=SMALL_BLOCK):
    """compute() with 1, 2 and 3 workers; three on two cores gives uneven blocks."""
    monkeypatch.setattr(_parallel, "MIN_BLOCK", min_block)
    results = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(_parallel, "WORKERS", workers)
        results.append(compute())
    return results


def assert_same_bytes(results):
    first = np.asarray(results[0])
    for other in results[1:]:
        other = np.asarray(other)
        assert other.dtype == first.dtype and other.shape == first.shape
        assert other.tobytes() == first.tobytes()


class TestMapBlocks:
    def test_uneven_contiguous_blocks_in_order(self, monkeypatch):
        monkeypatch.setattr(_parallel, "MIN_BLOCK", SMALL_BLOCK)
        monkeypatch.setattr(_parallel, "WORKERS", 3)
        blocks = _parallel.map_blocks(lambda cols: (cols.start, cols.stop), 200)
        assert blocks == [(0, 66), (66, 133), (133, 200)]

    def test_inline_below_two_minimum_blocks(self, monkeypatch):
        monkeypatch.setattr(_parallel, "WORKERS", 2)
        here = threading.current_thread().name
        n = 2 * _parallel.MIN_BLOCK - 1
        assert _parallel.map_blocks(lambda cols: threading.current_thread().name, n) == [here]
        assert len(_parallel.map_blocks(lambda cols: cols, n + 1)) == 2

    def test_two_dimensional_work_counts_values(self, monkeypatch):
        monkeypatch.setattr(_parallel, "WORKERS", 2)
        here = threading.current_thread().name
        rows = 8
        n = 2 * _parallel.MIN_BLOCK // rows  # paths of two minimum blocks of values
        assert _parallel.map_blocks(lambda cols: threading.current_thread().name, n - 1,
                                    rows=rows) == [here]
        blocks = _parallel.map_blocks(lambda cols: (cols, threading.current_thread().name),
                                      n, rows=rows)
        assert [cols for cols, _ in blocks] == [slice(0, n // 2), slice(n // 2, n)]
        assert all(name.startswith("svschemes") for _, name in blocks)

    def test_blocks_may_hold_one_path(self, monkeypatch):
        # per-path sums add one step at a time, so a one-path block gives
        # the bytes of the same path in a wider one
        monkeypatch.setattr(_parallel, "WORKERS", 3)
        blocks = _parallel.map_blocks(lambda cols: cols, 5, rows=_parallel.MIN_BLOCK)
        assert blocks == [slice(0, 1), slice(1, 3), slice(3, 5)]

    def test_wide_work_cut_into_cache_sized_blocks(self, monkeypatch):
        monkeypatch.setattr(_parallel, "WORKERS", 1)
        here = threading.current_thread().name
        rows = _parallel.BLOCK_VALUES // 4  # ten paths hold 2.5 blocks of values
        blocks = _parallel.map_blocks(lambda cols: (cols, threading.current_thread().name),
                                      10, rows=rows)
        assert [cols for cols, _ in blocks] == [slice(0, 3), slice(3, 6), slice(6, 10)]
        assert all(name == here for _, name in blocks)

    def test_nested_call_runs_inline(self, monkeypatch):
        monkeypatch.setattr(_parallel, "MIN_BLOCK", SMALL_BLOCK)
        monkeypatch.setattr(_parallel, "WORKERS", 2)
        # a pool of its own, so a deadlock here cannot stall later tests
        monkeypatch.setattr(_parallel, "_pool", None)

        def outer(cols):
            inner = _parallel.map_blocks(lambda c: (c.start, c.stop), 1000)
            return inner, threading.current_thread().name

        results = []
        caller = threading.Thread(target=lambda: results.extend(_parallel.map_blocks(outer, 1000)),
                                  daemon=True)
        caller.start()
        caller.join(timeout=30)
        assert not caller.is_alive(), "nested map_blocks deadlocked"
        assert len(results) == 2
        for inner, name in results:
            assert inner == [(0, 1000)]
            assert name.startswith("svschemes")

    def test_exception_reaches_caller_after_every_block(self, monkeypatch):
        monkeypatch.setattr(_parallel, "MIN_BLOCK", SMALL_BLOCK)
        monkeypatch.setattr(_parallel, "WORKERS", 3)
        finished = []

        def work(cols):
            if cols.start == 0:
                finished.append(cols.start)
                raise ValueError("first block")
            time.sleep(0.05)
            finished.append(cols.start)
            if cols.stop == 200:
                raise RuntimeError("last block")
            return cols.start

        with pytest.raises(ValueError, match="first block"):
            _parallel.map_blocks(work, 200)
        assert sorted(finished) == [0, 66, 133]


class TestMapTasks:
    def test_results_in_order_from_caller_and_pool(self, monkeypatch):
        monkeypatch.setattr(_parallel, "WORKERS", 2)

        def work(i):
            time.sleep(0.02)
            return i, threading.current_thread().name

        got = _parallel.map_tasks(work, range(6), 2 * _parallel.MIN_BLOCK)
        assert [i for i, _ in got] == list(range(6))
        names = {name for _, name in got}
        assert threading.current_thread().name in names
        assert any(name.startswith("svschemes") for name in names)

    def test_inline_below_two_minimum_blocks(self, monkeypatch):
        monkeypatch.setattr(_parallel, "WORKERS", 2)
        here = threading.current_thread().name
        got = _parallel.map_tasks(lambda i: threading.current_thread().name, range(5),
                                  2 * _parallel.MIN_BLOCK - 1)
        assert got == [here] * 5

    def test_idle_worker_takes_the_next_item(self, monkeypatch):
        # one long item and four short ones: the short ones all run on the
        # other worker while the long one does
        monkeypatch.setattr(_parallel, "WORKERS", 2)
        monkeypatch.setattr(_parallel, "_pool", None)
        done = []

        def work(i):
            time.sleep(0.3 if i == 0 else 0.01)
            done.append(i)

        _parallel.map_tasks(work, range(5), 2 * _parallel.MIN_BLOCK)
        assert done == [1, 2, 3, 4, 0]

    def test_exception_reaches_caller_after_every_item(self, monkeypatch):
        monkeypatch.setattr(_parallel, "WORKERS", 3)
        done = []

        def work(i):
            if i == 2:
                raise ValueError("item 2")
            time.sleep(0.01)
            done.append(i)

        with pytest.raises(ValueError, match="item 2"):
            _parallel.map_tasks(work, range(8), 2 * _parallel.MIN_BLOCK)
        assert sorted(done) == [0, 1, 3, 4, 5, 6, 7]


class TestWorkerCountInvariance:
    def test_normal_array_path(self, monkeypatch):
        results = across_workers(monkeypatch, lambda: RngStream(11, "n").normal((5, 3, 301)))
        assert_same_bytes(results)
        assert np.all(np.isfinite(results[0]))

    def test_normal_array_path_at_default_block(self, monkeypatch):
        n = 3 * _parallel.MIN_BLOCK + 7
        results = across_workers(monkeypatch, lambda: RngStream(12).normal(n),
                                 min_block=_parallel.MIN_BLOCK)
        assert_same_bytes(results)

    def test_normal_scalar_path(self, monkeypatch):
        results = across_workers(monkeypatch, lambda: RngStream(13).normal())
        assert_same_bytes(results)
        assert np.ndim(results[0]) == 0

    @pytest.mark.parametrize("kind", [SchemeKind.WEAK2, SchemeKind.WEAKTRAJ1, SchemeKind.CMT])
    def test_romano_touzi_call(self, monkeypatch, kind):
        spec = scott_spec()
        results = across_workers(monkeypatch, lambda: romano_touzi_call(
            spec, kind, 4, 100.0, RngStream(14), 700, chunk_paths=300))
        assert_same_bytes([(r.value, r.stderr) for r in results])

    @pytest.mark.parametrize("run", [run_strong_conv, run_traj_conv, run_terminal_conv])
    def test_conv_experiments(self, monkeypatch, run):
        config = ExperimentConfig(n_ladder=(2, 4), npaths=500, chunk_paths=300)
        spec = scott_spec()
        whole = run(spec, config, RngStream(15))
        two_step_blocks(monkeypatch)
        results = across_workers(monkeypatch, lambda: run(spec, config, RngStream(15)))
        assert results == [whole] * 3
        assert any(r.scheme == "cmt" for r in whole) == (run is not run_traj_conv)

    def test_conv_experiment_generic_spec(self, monkeypatch):
        config = ExperimentConfig(n_ladder=(2, 4), npaths=400, chunk_paths=400,
                                  kinds=(SchemeKind.WEAKTRAJ1, SchemeKind.WEAK2, SchemeKind.EULER))
        spec = gbm_factor_spec(rho=-0.3)
        whole = run_strong_conv(spec, config, RngStream(16))
        two_step_blocks(monkeypatch)
        results = across_workers(monkeypatch, lambda: run_strong_conv(spec, config, RngStream(16)))
        assert results == [whole] * 3

    def test_small_blocks_split_every_cell(self, monkeypatch):
        # the convergence tests above: cells of 200 to 400 paths, 4 or 8
        # fine steps, so each cell runs in two or more step blocks, and
        # each step block in two or more blocks of paths
        two_step_blocks(monkeypatch)
        assert schemes.block_steps(300) == 2
        assert len(_parallel.map_blocks(lambda cols: cols, 200, rows=2)) == 2

    @pytest.mark.parametrize("level", [0, 2])
    def test_mlmc_call_sampler(self, monkeypatch, level):
        sampler = call_level_sampler(scott_spec(), SchemeKind.WEAKTRAJ1, 100.0)
        results = across_workers(monkeypatch, lambda: sampler(level, RngStream(17), 500))
        assert_same_bytes(results)
