"""Path-parallel execution over contiguous blocks of the paths axis.

Once its randomness is drawn, each path of a batch is computed
independently of the others, so work on arrays whose last axis runs
over paths can be split into column blocks (``column_blocks``) and run on
a thread pool: numpy and scipy's special functions release the
interpreter lock inside their loops. Each path block of a batch has its
own counter-based stream (``rng.BlockStreams``), so a value does not
depend on which worker draws it: a column block of whole path blocks
opens and draws its own streams, and a one-row draw of a whole batch is
shared out one stream at a time. Whole tasks, such as the cells of a
convergence ladder or the items of a price, are shared out the same way,
and all of these run in one taker loop (``map_tasks``), the caller beside
the pool. Work nested in an item runs inline, and the values of a step
block are a budget summed over all takers (``step_values``). Callers join
results in item order before any reduction across paths, so every output
is the same bytes for any number of workers.
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
# temporaries stay cache-sized; summed over all takers, it also sizes
# schemes.block_steps (``step_values``).
BLOCK_VALUES = 2**17

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_in_block = threading.local()

def _executor() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(WORKERS, "svschemes",
                                       initializer=lambda: setattr(_in_block, "flag", True))
        return _pool


def _parallel_here() -> bool:
    """True where work may go to the pool: several CPUs, outside a block."""
    return WORKERS > 1 and not getattr(_in_block, "flag", False)


def step_values() -> int:
    """Values a step block may hold here: BLOCK_VALUES is shared by all
    takers, so inside an item each gets BLOCK_VALUES // WORKERS."""
    return BLOCK_VALUES // WORKERS if getattr(_in_block, "flag", False) else BLOCK_VALUES


def map_tasks(fn, items, values: int) -> list:
    """Results of ``fn(item)`` for each of ``items``, in order.

    ``values`` counts the values of all the items. From two MIN_BLOCKs of
    them, outside a block, the caller and WORKERS - 1 pool threads take
    the items in turn, each the next one not yet taken, so items of uneven
    sizes balance (put the largest first); otherwise the caller runs them
    in turn. A taker is inside a block while it runs an item, so nested
    calls run inline. Once a taker stops at an exception, or the caller at
    an interrupt, no taker takes another item; once every taker has
    stopped, the exception of the lowest item is re-raised (every lower
    item was taken before it, and ran to its end).
    """
    items = list(items)
    if not (_parallel_here() and values >= 2 * MIN_BLOCK and len(items) > 1):
        return [fn(item) for item in items]
    results = [None] * len(items)
    errors = {}
    taken = iter(range(len(items)))
    lock = threading.Lock()
    stopped = False

    def take():
        nonlocal stopped
        while True:
            with lock:
                i = None if stopped else next(taken, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except Exception as exc:
                errors[i] = exc
                stopped = True
                return

    pool = _executor()
    futures = [pool.submit(take) for _ in range(min(WORKERS, len(items)) - 1)]
    _in_block.flag = True
    try:
        take()
    finally:
        stopped = True  # the caller is done: take nothing more, also on an interrupt
        _in_block.flag = False
        wait(futures)
    for f in futures:
        f.result()
    if errors:
        raise errors[min(errors)]
    return results


def column_blocks(n: int, rows: int = 1, unit: int = 1) -> list[slice]:
    """Contiguous slices covering range(n), cut at multiples of ``unit``.

    ``n`` counts paths (columns) and ``rows`` the values per path. Work of
    several rows is cut into blocks of at most BLOCK_VALUES values (work of
    one row, such as the Black-Scholes values, streams through memory), and
    into one block per worker when each then holds MIN_BLOCK values or
    more; never into more blocks than there are units of ``unit`` columns
    (the last one may be narrower), which the blocks share out evenly.
    ``schemes.advance_blocks`` cuts a batch once, with ``rows`` the steps
    of a full step block, and each block carries its columns through every
    step block, so a grid of fewer steps gets narrower blocks, never wider
    ones.
    """
    count = -(-rows * n // BLOCK_VALUES) if rows > 1 else 1
    if _parallel_here():
        count = max(count, min(WORKERS, rows * n // MIN_BLOCK))
    units = -(-n // unit)
    count = max(1, min(units, count))
    edges = [min(n, unit * (units * i // count)) for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def map_blocks(fn, n: int, rows: int = 1) -> list:
    """Results of ``fn(cols)`` for the slices ``cols`` of ``column_blocks(n,
    rows)``, run as the items of ``map_tasks``, in block order."""
    return map_tasks(fn, column_blocks(n, rows), rows * n)
