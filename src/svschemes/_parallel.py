"""Path-parallel execution over contiguous blocks of the paths axis.

Once its randomness is drawn, each path of a batch is computed
independently of the others, so work on arrays whose last axis runs
over paths can be split into column blocks and run on a thread pool:
numpy and scipy's special functions release the interpreter lock
inside their loops. Random draws are split the same way over the flat
output: each block jumps a copy of the counter-based stream to its
first value (``rng.RngStream``), so every value keeps its index in the
stream. Callers join block results in block order before any
reduction across paths, so every output is the same bytes for any
number of workers.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

# CPUs this process may run on; one worker thread each.
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# Fewest values (rows x paths) per block: below this the hand-off to a
# worker costs more than it saves. On a 2-core Xeon, two workers first
# beat one at about 64k values, alike for the normal inversion, the
# conditional call values and the coupled errors.
MIN_BLOCK = 32768

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_in_worker = threading.local()


def _mark_worker():
    _in_worker.flag = True


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(WORKERS, "svschemes", initializer=_mark_worker)
        return _pool


def map_blocks(fn, n: int, rows: int = 1) -> list:
    """Results of ``fn(cols)`` for contiguous slices ``cols`` covering range(n).

    ``n`` counts paths (columns) and ``rows`` the values per path, so the
    work holds ``rows * n`` values. The results come in block order. Runs
    inline, on one block, with a single CPU, below two minimum blocks of
    values, or when called from inside a block (so nested calls cannot
    deadlock the pool). Every block runs to completion; the first
    exception in block order is re-raised.
    """
    # at least two paths a block: numpy sums a single column pairwise,
    # but several columns row by row, as in one block
    count = min(WORKERS, n // 2, rows * n // MIN_BLOCK)
    if count < 2 or getattr(_in_worker, "flag", False):
        return [fn(slice(0, n))]
    edges = [n * i // count for i in range(count + 1)]
    pool = _executor()
    futures = [pool.submit(fn, slice(a, b)) for a, b in zip(edges, edges[1:])]
    wait(futures)
    return [f.result() for f in futures]
