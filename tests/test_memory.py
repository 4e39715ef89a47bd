"""Memory is bounded by design: a batch's peak does not grow with its steps."""

import tracemalloc

import pytest

from conftest import scott_spec

from svschemes import _parallel
from svschemes.analysis import DEFAULT_KINDS, _cell_errors
from svschemes.coupling import coupled_lookback_levels, lookback_single_level
from svschemes.pricing import conditional_call_values
from svschemes.rng import RngStream
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
        scott_spec(), [list(DEFAULT_KINDS)], "strong", RngStream(4), n, PATHS, "floor"),
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
