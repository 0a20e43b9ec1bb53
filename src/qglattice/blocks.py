"""Large grids evaluated in fixed-size blocks over one thread pool.

The scan's momentum probes and the torus grid are split into blocks of
about BLOCK_POINTS points.  Each block's numpy temporaries stay small and
are freed before the next, so memory is O(block) rather than O(grid), and
numpy releases the GIL inside each block's ufuncs.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

#: Points per block.
BLOCK_POINTS = 65536


def thread_count() -> int:
    """Worker threads: QG_THREADS if set, else one per core."""
    env = os.environ.get("QG_THREADS", "").strip() or str(os.cpu_count() or 1)
    if not env.isdecimal() or int(env) < 1:
        raise ValueError(f"QG_THREADS must be a positive integer, got {env!r}")
    return int(env)


def map_blocks(fn, n, width=1):
    """[fn(lo, hi) for each block [lo, hi) of range(n)], in order.

    A block holds BLOCK_POINTS // width items (at least one), so items of
    width points each make blocks of about BLOCK_POINTS points.  The blocks
    run on the thread pool, or inline when there is one block or one thread.
    """
    step = max(1, BLOCK_POINTS // width)
    blocks = [(lo, min(lo + step, n)) for lo in range(0, n, step)]
    threads = min(thread_count(), len(blocks))
    if threads <= 1:
        return [fn(lo, hi) for lo, hi in blocks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda block: fn(*block), blocks))
