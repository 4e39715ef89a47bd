"""Path-parallel execution over contiguous blocks of the paths axis.

Once its randomness is drawn, each path of a batch is computed
independently of the others, so work on arrays whose last axis runs
over paths can be split into column blocks and run on a thread pool:
numpy and scipy's special functions release the interpreter lock
inside their loops. Random draws are shared out one stream at a time
(``map_tasks``): each path block of a batch has its own counter-based
stream (``rng.BlockStreams``), so a value does not depend on which
worker draws it. Callers join block results in block order before any
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


def _parallel_here() -> bool:
    """True where work may go to the pool: several CPUs, outside a block."""
    return WORKERS > 1 and not getattr(_in_worker, "flag", False)


def map_tasks(fn, items, values: int) -> list:
    """Results of ``fn(item)`` for each of ``items``, in order.

    ``values`` counts the values of all the items together. Once they fill
    a MIN_BLOCK per worker for two workers, the caller and one pool task
    per other worker take the items in turn, each the next one not yet
    taken, so items of uneven sizes still balance at the cost of one
    hand-off per worker; otherwise (or from inside a block) the items run
    in turn in the caller. A taker stops at its first exception, which is
    re-raised once every taker has stopped (the caller's first).
    """
    items = list(items)
    if not (_parallel_here() and values >= 2 * MIN_BLOCK and len(items) > 1):
        return [fn(item) for item in items]
    results = [None] * len(items)
    taken = iter(range(len(items)))
    lock = threading.Lock()

    def take():
        while True:
            with lock:
                i = next(taken, None)
            if i is None:
                return
            results[i] = fn(items[i])

    # the caller takes items too, from the start, beside WORKERS - 1 tasks
    pool = _executor()
    futures = [pool.submit(take) for _ in range(min(WORKERS, len(items)) - 1)]
    try:
        take()
    finally:
        wait(futures)
    for f in futures:
        f.result()
    return results


def map_blocks(fn, n: int, rows: int = 1) -> list:
    """Results of ``fn(cols)`` for contiguous slices ``cols`` covering range(n).

    ``n`` counts paths (columns) and ``rows`` the values per path. Work of
    several rows is cut into blocks of at most BLOCK_VALUES values (work of
    one row, such as the Black-Scholes values, streams through memory), and
    into one block per worker when each then holds MIN_BLOCK values or
    more. The results come in block order. Blocks run on the pool, or in
    turn with a single CPU or from inside a block (so nested calls cannot
    deadlock the pool); on the pool every block runs to completion and
    the first exception in block order is re-raised.
    """
    parallel = _parallel_here()
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
