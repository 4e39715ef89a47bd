"""Path-parallel execution over contiguous blocks of the paths axis.

Once its randomness is drawn, each path of a batch is computed
independently of the others, so work on arrays whose last axis runs
over paths can be split into column blocks and run on a thread pool:
numpy and scipy's special functions release the interpreter lock
inside their loops. Callers draw all randomness before the split and
join block results in block order before any reduction across paths,
so every output is the same bytes for any number of workers.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

# CPUs this process may run on; one worker thread each.
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# Fewest paths per block: below this the hand-off costs more than it saves.
MIN_BLOCK = 4096

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


def map_blocks(fn, n: int) -> list:
    """Results of ``fn(cols)`` for contiguous slices ``cols`` covering range(n).

    The results come in block order. Runs inline, on one block, with a
    single CPU, below two minimum blocks, or when called from inside a
    block (so nested calls cannot deadlock the pool). Every block runs to
    completion; the first exception in block order is re-raised.
    """
    count = min(WORKERS, n // MIN_BLOCK)
    if count < 2 or getattr(_in_worker, "flag", False):
        return [fn(slice(0, n))]
    edges = [n * i // count for i in range(count + 1)]
    pool = _executor()
    futures = [pool.submit(fn, slice(a, b)) for a, b in zip(edges, edges[1:])]
    wait(futures)
    return [f.result() for f in futures]
