"""Path-parallel execution over contiguous blocks of the paths axis.

Once its randomness is drawn, each path of a batch is computed
independently of the others, so work on arrays whose last axis runs
over paths can be split into column blocks (``column_blocks``) and run on
a thread pool: numpy and scipy's special functions release the
interpreter lock inside their loops. Each path block of a batch has its
own counter-based stream (``rng.BlockStreams``), so a value does not
depend on which worker draws it: a column block of whole path blocks
opens and draws its own streams and carries its paths through every step
block to their values, and a one-row draw of a whole batch is shared out
one stream at a time. Whole tasks, such as the cells of a convergence
ladder or the items of a price, are shared out the same way, and all of
these run in one taker loop (``map_tasks``), the caller beside the pool.
Work nested in an item runs inline. BLOCK_VALUES is one budget summed
over all takers: the column blocks bound for the pool hold a share of it
each (``column_blocks``), as do the step blocks inside an item
(``step_values``), so the work in flight holds one budget, not one per
taker. A step block's floor can hold more than a share: it has at least
``schemes.MIN_STEPS`` steps, a multiple of its coarsening factor, and one
path block. So two ladder cells of 10,000 paths hold one 8 x 10,000 step
block each, and a weak-error refinement over a 32-step ladder draws 32
steps of a path block (131,072 values) per taker. Callers join results in
item order before any reduction across paths, so every output is the
same bytes for any number of workers.
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
# temporaries stay cache-sized. It is summed over all takers: a share of
# it sizes the column blocks bound for the pool (``column_blocks``) and
# the step blocks inside an item (``step_values``), unless a step block's
# floor (MIN_STEPS, the coarsening factor, one path block) is larger.
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
    takers, so inside an item each gets BLOCK_VALUES // WORKERS, the most
    a column block bound for the pool holds (``column_blocks``); outside
    one it gets them all."""
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


def column_blocks(n: int, rows: int, unit: int = 1) -> list[slice]:
    """Contiguous slices covering range(n), cut at multiples of ``unit``.

    ``n`` counts paths (columns) and ``rows`` the values per path. The
    blocks share out the units of ``unit`` columns (the last one may be
    narrower) evenly, each holding at most a budget of values, or one unit
    where a unit holds more: BLOCK_VALUES // WORKERS where they may run on
    the pool, so the blocks in flight hold one BLOCK_VALUES between them
    (the share ``step_values`` gives a step block inside an item), and
    BLOCK_VALUES where they run inline. On the pool there is also one block
    per worker when each then holds MIN_BLOCK values or more.
    ``schemes.advance_blocks`` and ``pricing.path_moments`` cut a batch
    once, with ``rows`` the steps of a full step block, and each block
    carries its columns through every step block, so a grid of fewer steps
    gets narrower blocks, never wider ones.
    """
    pool = _parallel_here()
    budget = BLOCK_VALUES // WORKERS if pool else BLOCK_VALUES
    units = -(-n // unit)
    count = -(-units // max(1, budget // (rows * unit)))
    if pool:
        count = max(count, min(WORKERS, rows * n // MIN_BLOCK))
    count = max(1, min(units, count))
    edges = [min(n, unit * (units * i // count)) for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]
