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
# Most values per block of work over several rows, so that its arrays and
# temporaries stay cache-sized; it also sizes schemes.block_steps.
BLOCK_VALUES = 2**17

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

    ``n`` counts paths (columns) and ``rows`` the values per path. Work of
    several rows is cut into blocks of at most BLOCK_VALUES values (work of
    one row, such as a draw filled in place, streams through memory), and
    into one block per worker when each then holds MIN_BLOCK values or
    more. The results come in block order. Blocks run on the pool, or in
    turn with a single CPU or from inside a block (so nested calls cannot
    deadlock the pool); on the pool every block runs to completion and
    the first exception in block order is re-raised.
    """
    parallel = WORKERS > 1 and not getattr(_in_worker, "flag", False)
    count = -(-rows * n // BLOCK_VALUES) if rows > 1 else 1
    if parallel:
        count = max(count, min(WORKERS, rows * n // MIN_BLOCK))
    count = max(1, min(n, count))
    edges = [n * i // count for i in range(count + 1)]
    blocks = [slice(a, b) for a, b in zip(edges, edges[1:])]
    if count < 2 or not parallel:
        return [fn(cols) for cols in blocks]
    pool = _executor()
    futures = [pool.submit(fn, cols) for cols in blocks]
    wait(futures)
    return [f.result() for f in futures]
