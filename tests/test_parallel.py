"""Path-parallel blocks: results are the same bytes for any worker count."""

import sys
import threading
import time

import numpy as np
import pytest

from conftest import across_layouts, factor_draws, gbm_factor_spec, scott_spec

from svschemes import _parallel, analysis, schemes
from svschemes.analysis import (DEFAULT_KINDS, ExperimentConfig, run_strong_conv,
                                run_terminal_conv, run_traj_conv)
from svschemes.coupling import coupled_lookback_levels, lookback_single_level
from svschemes.mlmc import call_level_sampler, lookback_level_sampler
from svschemes.pricing import conditional_call_values, romano_touzi_call
from svschemes.rng import PATH_BLOCK, RngStream
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


def cell_threads(monkeypatch) -> dict:
    """Per WORKERS value, the names of the threads that the cells of the
    convergence experiments run from now on ran on."""
    threads, cell_errors = {}, analysis._cell_errors

    def traced(*args, **kwargs):
        threads.setdefault(_parallel.WORKERS, set()).add(threading.current_thread().name)
        time.sleep(0.02)  # small cells: long enough for another taker to take the next
        return cell_errors(*args, **kwargs)

    monkeypatch.setattr(analysis, "_cell_errors", traced)
    return threads


# Three path blocks, the last one narrow.
WIDE = 2 * PATH_BLOCK + 300


def wide_lookback_levels():
    return coupled_lookback_levels(scott_spec(), SchemeKind.WEAKTRAJ1, 4, RngStream(20), WIDE)


def wide_strong_cell():
    errors = analysis._cell_errors(scott_spec(), [list(DEFAULT_KINDS)], "strong",
                                   RngStream(21), 8, WIDE)
    return np.stack([np.stack(pair) for pair in errors.values()])


# Estimators over WIDE paths, as one array each.
WIDE_ESTIMATORS = {
    "conditional-call": lambda: conditional_call_values(
        scott_spec(), SchemeKind.WEAKTRAJ1, 8, 100.0, RngStream(19), WIDE, depth=2),
    "lookback-levels": wide_lookback_levels,
    # a 2-step grid: its items are cut for a full step block all the same
    "lookback-single-short": lambda: lookback_single_level(
        scott_spec(), SchemeKind.WEAKTRAJ1, 2, RngStream(22), WIDE),
    "strong-conv-cell": wide_strong_cell,
}


def map_blocks(fn, n, rows=1):
    """Results of ``fn(cols)`` for the column blocks of n paths of ``rows``
    values each, run as the items of one ``map_tasks`` call."""
    return _parallel.map_tasks(fn, _parallel.column_blocks(n, rows), rows * n)


def assert_same_bytes(results):
    first = np.asarray(results[0])
    for other in results[1:]:
        other = np.asarray(other)
        assert other.dtype == first.dtype and other.shape == first.shape
        assert other.tobytes() == first.tobytes()


class TestMapBlocks:
    """Column blocks of a batch, taken by the pool as the items of ``map_tasks``."""

    def test_uneven_contiguous_blocks_in_order(self, monkeypatch):
        monkeypatch.setattr(_parallel, "MIN_BLOCK", SMALL_BLOCK)
        monkeypatch.setattr(_parallel, "WORKERS", 3)
        blocks = map_blocks(lambda cols: (cols.start, cols.stop), 200)
        assert blocks == [(0, 66), (66, 133), (133, 200)]

    def test_inline_below_two_minimum_blocks(self, monkeypatch):
        monkeypatch.setattr(_parallel, "WORKERS", 2)
        here = threading.current_thread().name
        n = 2 * _parallel.MIN_BLOCK - 1
        assert map_blocks(lambda cols: threading.current_thread().name, n) == [here]
        assert len(map_blocks(lambda cols: cols, n + 1)) == 2

    def test_two_dimensional_work_counts_values(self, monkeypatch):
        monkeypatch.setattr(_parallel, "WORKERS", 2)
        here = threading.current_thread().name
        rows = 8
        n = 2 * _parallel.MIN_BLOCK // rows  # paths of two minimum blocks of values
        assert map_blocks(lambda cols: threading.current_thread().name, n - 1,
                          rows=rows) == [here]

        def work(cols):
            time.sleep(0.1)  # long enough for the pool thread to take the other block
            return cols, threading.current_thread().name

        blocks = map_blocks(work, n, rows=rows)
        assert [cols for cols, _ in blocks] == [slice(0, n // 2), slice(n // 2, n)]
        assert len({name for _, name in blocks}) == 2

    def test_blocks_may_hold_one_path(self, monkeypatch):
        # per-path sums add one step at a time, so a one-path block gives
        # the bytes of the same path in a wider one; a path of MIN_BLOCK
        # values is all that a share of BLOCK_VALUES // 3 holds
        monkeypatch.setattr(_parallel, "WORKERS", 3)
        blocks = map_blocks(lambda cols: cols, 5, rows=_parallel.MIN_BLOCK)
        assert blocks == [slice(i, i + 1) for i in range(5)]

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_blocks_in_flight_share_the_budget(self, monkeypatch, workers):
        # on the pool, a column block of whole path blocks holds at most
        # BLOCK_VALUES // WORKERS values, unless it is one path block
        monkeypatch.setattr(_parallel, "WORKERS", workers)
        share = _parallel.BLOCK_VALUES // workers
        for rows in (1, 2, 8, 14, 26, 64):
            for n in (PATH_BLOCK - 1, 3 * PATH_BLOCK, WIDE, 100_000, 10**6):
                blocks = _parallel.column_blocks(n, rows, PATH_BLOCK)
                assert blocks[0].start == 0 and blocks[-1].stop == n
                assert [b.start for b in blocks[1:]] == [b.stop for b in blocks[:-1]]
                for b in blocks:
                    assert b.start % PATH_BLOCK == 0
                    assert (b.stop - b.start) * rows <= share or b.stop - b.start <= PATH_BLOCK

    def test_wide_work_cut_into_cache_sized_blocks(self, monkeypatch):
        monkeypatch.setattr(_parallel, "WORKERS", 1)
        here = threading.current_thread().name
        rows = _parallel.BLOCK_VALUES // 4  # ten paths hold 2.5 blocks of values
        blocks = map_blocks(lambda cols: (cols, threading.current_thread().name),
                            10, rows=rows)
        assert [cols for cols, _ in blocks] == [slice(0, 3), slice(3, 6), slice(6, 10)]
        assert all(name == here for _, name in blocks)

    def test_nested_call_runs_inline(self, monkeypatch):
        monkeypatch.setattr(_parallel, "MIN_BLOCK", SMALL_BLOCK)
        monkeypatch.setattr(_parallel, "WORKERS", 2)
        # a pool of its own, so a deadlock here cannot stall later tests
        monkeypatch.setattr(_parallel, "_pool", None)

        def outer(cols):
            inner = map_blocks(
                lambda c: (c.start, c.stop, threading.current_thread().name), 1000)
            return inner, threading.current_thread().name

        results = []
        caller = threading.Thread(target=lambda: results.extend(map_blocks(outer, 1000)),
                                  daemon=True)
        caller.start()
        caller.join(timeout=30)
        assert not caller.is_alive(), "nested map_blocks deadlocked"
        assert len(results) == 2
        for inner, name in results:
            assert inner == [(0, 1000, name)]  # one block, on the outer block's thread

    def test_exception_reaches_caller_after_running_blocks(self, monkeypatch):
        # every block taken before the failure has finished when it is raised
        monkeypatch.setattr(_parallel, "MIN_BLOCK", SMALL_BLOCK)
        monkeypatch.setattr(_parallel, "WORKERS", 3)
        started, finished = [], []

        def work(cols):
            started.append(cols.start)
            if cols.start == 0:
                finished.append(cols.start)
                raise ValueError("first block")
            time.sleep(0.05)
            finished.append(cols.start)
            if cols.stop == 200:
                raise RuntimeError("last block")
            return cols.start

        with pytest.raises(ValueError, match="first block"):
            map_blocks(work, 200)
        assert 0 in finished and sorted(finished) == sorted(started)


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

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_no_item_taken_after_a_failure(self, monkeypatch, workers):
        # the items in flight on the other takers finish; no taker takes
        # another, and the exception is the same for any worker count
        monkeypatch.setattr(_parallel, "WORKERS", workers)
        started, done = [], []

        def work(i):
            started.append(i)
            if i == 2:
                raise ValueError("item 2")
            time.sleep(0.05)
            done.append(i)

        with pytest.raises(ValueError, match="item 2"):
            _parallel.map_tasks(work, range(10), 2 * _parallel.MIN_BLOCK)
        assert {0, 1} <= set(done)
        assert len([i for i in started if i > 2]) <= workers - 1
        assert sorted(done) == sorted(i for i in started if i != 2)

    def test_interrupt_in_the_caller_stops_the_pool(self, monkeypatch):
        monkeypatch.setattr(_parallel, "WORKERS", 2)
        here = threading.current_thread().name
        started = []

        def work(i):
            started.append(i)
            if threading.current_thread().name == here:
                raise KeyboardInterrupt
            time.sleep(0.05)

        with pytest.raises(KeyboardInterrupt):
            _parallel.map_tasks(work, range(10), 2 * _parallel.MIN_BLOCK)
        assert len(started) <= 2  # the caller's item and the one the pool thread was running

    def test_every_item_taken_once_under_stress(self, monkeypatch):
        # more takers than cores, switching threads as often as possible
        monkeypatch.setattr(_parallel, "WORKERS", 3)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = _parallel.map_tasks(lambda i: runs.append(i) or i * i, range(2000),
                                      2 * _parallel.MIN_BLOCK)
        finally:
            sys.setswitchinterval(interval)
        assert got == [i * i for i in range(2000)]
        assert sorted(runs) == list(range(2000))

    def test_lowest_exception_when_every_item_raises(self, monkeypatch):
        monkeypatch.setattr(_parallel, "WORKERS", 3)

        def work(i):
            time.sleep(0.001 * (5 - i))  # later items fail sooner
            raise ValueError(f"item {i}")

        for _ in range(20):
            with pytest.raises(ValueError, match="item 0"):
                _parallel.map_tasks(work, range(6), 2 * _parallel.MIN_BLOCK)


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
            spec, kind, 4, 100.0, RngStream(14), 700))
        assert_same_bytes([(r.value, r.stderr) for r in results])

    @pytest.mark.parametrize("run", [run_strong_conv, run_traj_conv, run_terminal_conv])
    def test_conv_experiments(self, monkeypatch, run):
        config = ExperimentConfig(n_ladder=(2, 4), npaths=500)
        spec = scott_spec()
        whole = run(spec, config, RngStream(15))
        two_step_blocks(monkeypatch)
        threads = cell_threads(monkeypatch)
        results = across_workers(monkeypatch, lambda: run(spec, config, RngStream(15)))
        assert results == [whole] * 3
        assert any(r.scheme == "cmt" for r in whole) == (run is not run_traj_conv)
        assert len(threads[1]) == 1 and len(threads[2]) >= 2 and len(threads[3]) >= 2

    def test_conv_experiment_generic_spec(self, monkeypatch):
        config = ExperimentConfig(n_ladder=(2, 4), npaths=400,
                                  kinds=(SchemeKind.WEAKTRAJ1, SchemeKind.WEAK2, SchemeKind.EULER))
        spec = gbm_factor_spec(rho=-0.3)
        whole = run_strong_conv(spec, config, RngStream(16))
        two_step_blocks(monkeypatch)
        threads = cell_threads(monkeypatch)
        results = across_workers(monkeypatch, lambda: run_strong_conv(spec, config, RngStream(16)))
        assert results == [whole] * 3
        assert len(threads[1]) == 1 and len(threads[2]) >= 2 and len(threads[3]) >= 2

    @pytest.mark.parametrize("spec, kind", [
        (scott_spec(theta=0.3), SchemeKind.WEAKTRAJ1),  # theta = 0 hides the mean shift
        (gbm_factor_spec(rho=-0.3), SchemeKind.WEAK2),  # the NV recursion
    ])
    def test_step_blocks_give_the_whole_draw(self, monkeypatch, spec, kind):
        # 11 steps of three path blocks, the last one narrow: step blocks
        # of two steps (the last of one), each built in three column
        # blocks, written at the step offset each block is given
        n_steps, npaths = 11, 2 * PATH_BLOCK + 300
        whole = factor_draws(spec, kind, n_steps, RngStream(18), npaths, reads=("iW",))

        def advance(k0, draws, carry):
            size = draws.dW.shape[0]
            carry[0, k0:k0 + size + 1] = draws.y
            carry[1, k0:k0 + size] = draws.dW
            carry[2, k0:k0 + size] = draws.iW

        def joined():
            return schemes.advance_blocks(
                spec, (kind,), n_steps, RngStream(18), np.zeros((3, n_steps + 1, npaths)),
                advance, reads=("iW",))

        two_step_blocks(monkeypatch)
        for carry in across_workers(monkeypatch, joined):
            assert carry[0].tobytes() == whole.y.tobytes()
            assert carry[1, :-1].tobytes() == whole.dW.tobytes()
            assert carry[2, :-1].tobytes() == whole.iW.tobytes()

    def test_a_batch_is_one_pool_pass(self, monkeypatch):
        # three two-step blocks over three path blocks: one pass over the
        # pool, whose items open their own streams and carry their paths
        # through every step block
        two_step_blocks(monkeypatch)
        monkeypatch.setattr(_parallel, "MIN_BLOCK", SMALL_BLOCK)
        monkeypatch.setattr(_parallel, "WORKERS", 2)
        passes, executor = [], _parallel._executor
        monkeypatch.setattr(_parallel, "_executor", lambda: passes.append(1) or executor())
        openers, child = set(), RngStream.child
        monkeypatch.setattr(RngStream, "child", lambda rng, *ids: openers.add(
            threading.current_thread().name) or child(rng, *ids))
        steps = []

        def advance(k0, draws, db, carry):
            steps.append((k0, carry.shape[-1]))
            time.sleep(0.05)  # long enough for the pool thread to take an item

        schemes.advance_blocks(scott_spec(), (SchemeKind.EULER,), 6, RngStream(23),
                               np.zeros(WIDE), advance)
        assert len(passes) == 1 and len(openers) == 2
        widths = [PATH_BLOCK, PATH_BLOCK, WIDE - 2 * PATH_BLOCK]
        assert sorted(steps) == sorted((k0, w) for k0 in (0, 2, 4) for w in widths)

    def test_a_call_batch_is_one_pool_pass(self, monkeypatch):
        # a depth-1 batch of conditional call values over three path
        # blocks: each item prices its paths in its last step block, so
        # pricing takes no pass of its own
        monkeypatch.setattr(_parallel, "MIN_BLOCK", SMALL_BLOCK)
        monkeypatch.setattr(_parallel, "WORKERS", 2)
        passes, executor = [], _parallel._executor
        monkeypatch.setattr(_parallel, "_executor", lambda: passes.append(1) or executor())
        values = conditional_call_values(scott_spec(), SchemeKind.WEAKTRAJ1, 8, 100.0,
                                         RngStream(25), WIDE, depth=1)
        assert len(passes) == 1 and values.shape == (2, WIDE)

    def test_small_blocks_split_every_cell(self, monkeypatch):
        # the convergence tests above: cells of 200 to 400 paths, 4 or 8
        # fine steps, so each cell runs in two or more step blocks of one
        # path block each (test_path_block_items splits a step block's
        # paths), and two steps of 200 paths are cut in two column blocks
        # inline and in four, of 100 values each, for two workers
        two_step_blocks(monkeypatch)
        assert schemes.block_steps(300) == 2
        monkeypatch.setattr(_parallel, "WORKERS", 1)
        assert _parallel.column_blocks(200, 2) == [slice(0, 100), slice(100, 200)]
        monkeypatch.setattr(_parallel, "WORKERS", 2)
        assert _parallel.column_blocks(200, 2) == [slice(a, a + 50) for a in range(0, 200, 50)]

    @pytest.mark.parametrize("name", list(WIDE_ESTIMATORS))
    def test_path_block_items(self, monkeypatch, name):
        # three path blocks, the last one narrow: at 200 values every item
        # of a step block holds one path block and draws its own streams
        compute = WIDE_ESTIMATORS[name]
        whole = compute()
        monkeypatch.setattr(_parallel, "BLOCK_VALUES", 200)
        assert _parallel.column_blocks(WIDE, 8, PATH_BLOCK) == [
            slice(0, PATH_BLOCK), slice(PATH_BLOCK, 2 * PATH_BLOCK), slice(2 * PATH_BLOCK, WIDE)]
        assert_same_bytes([whole] + across_workers(monkeypatch, compute))

    # Level 1 is 4 fine steps, shorter than one step block; level 3 is 16:
    # two step blocks at both BLOCK_VALUES of across_layouts. Both over
    # three path blocks, the last one narrow.
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_mlmc_call_sampler(self, monkeypatch, level):
        sampler = call_level_sampler(scott_spec(), SchemeKind.WEAKTRAJ1, 100.0)
        assert len(across_layouts(monkeypatch, lambda: sampler(
            level, RngStream(17), WIDE).tobytes())) == 1

    @pytest.mark.parametrize("level", [0, 2, 3])
    def test_mlmc_lookback_sampler(self, monkeypatch, level):
        sampler = lookback_level_sampler(scott_spec(), SchemeKind.WEAKTRAJ1)
        assert len(across_layouts(monkeypatch, lambda: sampler(
            level, RngStream(24), WIDE).tobytes())) == 1
