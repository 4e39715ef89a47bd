"""Memory is bounded by design: a batch's peak does not grow with its steps,
and a step block holds no array of the whole batch's width."""

import tracemalloc

import pytest

from conftest import scott_spec

import numpy as np

from svschemes import _parallel, schemes
from svschemes.analysis import (DEFAULT_KINDS, ExperimentConfig, _cell_errors, run_strong_conv,
                                weak_error_refinement)
from svschemes.coupling import coupled_lookback_levels, lookback_single_level
from svschemes.pricing import (chunked_estimate, conditional_call_values, plain_call,
                                romano_touzi_call)
from svschemes.rng import PATH_BLOCK, RngStream
from svschemes.schemes import SchemeKind

PATHS = 2000

RUNS = {
    "lookback-levels": lambda n: coupled_lookback_levels(
        scott_spec(), SchemeKind.WEAKTRAJ1, n // 2, RngStream(1), PATHS),
    "lookback-single": lambda n: lookback_single_level(
        scott_spec(), SchemeKind.WEAKTRAJ1, n, RngStream(2), PATHS),
    "conditional-call": lambda n: conditional_call_values(
        scott_spec(), SchemeKind.WEAK2, n, 100.0, RngStream(3), PATHS),
    "strong-conv-cell": lambda n: _cell_errors(
        scott_spec(), [list(DEFAULT_KINDS)], "strong", RngStream(4), n, PATHS),
    "terminal": lambda n: schemes.simulate_terminal(
        SchemeKind.WEAKTRAJ1, scott_spec(), n, RngStream(7), PATHS),
    "plain-call": lambda n: plain_call(
        scott_spec(), SchemeKind.WEAK2, n, 100.0, RngStream(8), PATHS),
}


def peak_bytes(run, n_steps: int) -> int:
    tracemalloc.start()
    try:
        run(n_steps)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", list(RUNS))
def test_peak_does_not_grow_with_steps(monkeypatch, name):
    # one worker: concurrent blocks overlap their temporaries by chance
    monkeypatch.setattr(_parallel, "WORKERS", 1)
    run = RUNS[name]
    run(64)  # warm caches (the Scott spec, the thread pool) outside the measurement
    short, long = peak_bytes(run, 64), peak_bytes(run, 512)
    assert long <= 1.1 * short, f"peak {long} B at 512 steps, {short} B at 64"


def price_peaks(monkeypatch, price) -> tuple[int, int]:
    """Peaks of ``price(npaths)`` at 8 and 32 path blocks, on one worker:
    each item's values are reduced to their moments and dropped, so no
    item's values outlive the next."""
    monkeypatch.setattr(_parallel, "WORKERS", 1)

    def run(blocks):
        price(blocks * PATH_BLOCK)

    run(1)  # warm caches and the pool outside the measurement
    return peak_bytes(run, 8), peak_bytes(run, 32)


PRICES = {
    "weak2-call": lambda npaths: romano_touzi_call(
        scott_spec(), SchemeKind.WEAK2, 8, 100.0, RngStream(9), npaths),
    "lookback": lambda npaths: chunked_estimate(
        lambda first, size: lookback_single_level(scott_spec(), SchemeKind.WEAKTRAJ1, 16,
                                                  RngStream(10), size, first), npaths),
    "strong-conv": lambda npaths: run_strong_conv(
        scott_spec(), ExperimentConfig(n_ladder=(2, 4), npaths=npaths), RngStream(11)),
    "weak-refine": lambda npaths: weak_error_refinement(
        scott_spec(), SchemeKind.WEAK2, (2, 4), 8, 100.0, RngStream(12), npaths),
}


@pytest.mark.parametrize("name", list(PRICES))
def test_price_peak_does_not_grow_with_paths(monkeypatch, name):
    short, long = price_peaks(monkeypatch, PRICES[name])
    assert long <= 1.1 * short, f"peak {long} B at 32 path blocks, {short} B at 8"


def test_cells_in_flight_share_the_step_budget(monkeypatch):
    # two ladder cells run at once on two workers, each on step blocks of
    # half the values: together about one cell's peak at one worker
    config = ExperimentConfig(n_ladder=(2, 4, 8, 16, 32, 64), npaths=PATHS)

    def run(_):
        run_strong_conv(scott_spec(), config, RngStream(4))

    peaks = {}
    for workers in (1, 2):
        monkeypatch.setattr(_parallel, "WORKERS", workers)
        run(None)  # warm caches and the pool outside the measurement
        peaks[workers] = peak_bytes(run, None)
    assert peaks[2] <= 1.5 * peaks[1], f"peak {peaks[2]} B on two workers, {peaks[1]} B on one"


def advance_peak(blocks: int, n_steps: int) -> int:
    """Peak of a weaktraj1 lookback's reads over ``blocks`` path blocks."""
    def advance(_, draws, db, u, carry):
        carry += draws.dW[-1] + db[-1] + u[-1]

    carry = np.zeros(blocks * PATH_BLOCK)
    return peak_bytes(lambda n: schemes.advance_blocks(
        scott_spec(), (SchemeKind.WEAKTRAJ1,), n, RngStream(5), carry, advance,
        reads=("dW", "b", "u")), n_steps)


def test_step_block_peak_per_path(monkeypatch):
    # one worker; 64 steps are eight-step blocks at both widths: each
    # column block draws and computes its own paths, so an added path costs
    # its factor's last node and its carry, not its columns of a step block
    monkeypatch.setattr(_parallel, "WORKERS", 1)
    advance_peak(1, 64)  # warm caches outside the measurement
    per_path = (advance_peak(64, 64) - advance_peak(16, 64)) / (48 * PATH_BLOCK)
    assert per_path <= 16, f"peak grows by {per_path:.0f} B per path"


def test_short_grid_items_are_full_block_wide(monkeypatch):
    # one worker, 16 path blocks: a batch's column blocks are cut for a
    # full step block, so a 2-step grid's items hold no more paths than an
    # 8-step grid's, and its peak is about a third of theirs
    monkeypatch.setattr(_parallel, "WORKERS", 1)
    advance_peak(1, 8)  # warm caches outside the measurement
    short, full = advance_peak(16, 2), advance_peak(16, 8)
    assert short <= 0.5 * full, f"peak {short} B at 2 steps, {full} B at 8"


@pytest.mark.parametrize("kind", [SchemeKind.WEAKTRAJ1, SchemeKind.EULER, SchemeKind.WEAK2,
                                  SchemeKind.CMT])
@pytest.mark.parametrize("n_steps, npaths", [(512, 8192), (4096, 1024)])
def test_whole_paths_cost_their_output(monkeypatch, kind, n_steps, npaths):
    # one worker; the paths are written a step block at a time into the
    # output, so the peak is the output and one step block's work
    monkeypatch.setattr(_parallel, "WORKERS", 1)
    spec = scott_spec()
    schemes.simulate_paths(kind, spec, 8, RngStream(6), 100)  # warm caches
    tracemalloc.start()
    try:
        path = schemes.simulate_paths(kind, spec, n_steps, RngStream(6), npaths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = sum(a.nbytes for a in (path.times, path.x, path.y, path.m, path.v) if a is not None)
    assert peak <= 1.5 * output, f"peak {peak} B for an output of {output} B"
