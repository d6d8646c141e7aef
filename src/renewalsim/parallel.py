"""The replication map: one Monte Carlo collector over many chunks.

Replication ``r`` of every collector draws only from the stream key
``(seed, r, stream_id)``, so a run may be split into chunks of
replications and the chunks run anywhere, in any order.  The chunks have
a fixed size, so the worker count changes wall time, never results, and
never the warnings a run raises.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List

CHUNK_REPS = 1024


def raise_again(caught: List[warnings.WarningMessage]) -> None:
    """Raise recorded warnings again, in order; under the "default"
    action each distinct warning is shown once."""
    registry: dict = {}
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno,
                               registry=registry)


def _run_chunk(fn: Callable, count: int, offset: int):
    """One chunk, with the warnings it raised (any process)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        part = fn(reps=count, rep_offset=offset)
    return part, caught


def map_replications(fn: Callable, reps: int, workers: int = 1) -> List:
    """Call ``fn(reps=count, rep_offset=offset)`` on consecutive chunks of
    CHUNK_REPS replications and return the parts in offset order.

    With ``workers > 1`` and more than one chunk, the chunks run in a
    process pool, so ``fn`` and its bound arguments must pickle.  The
    warnings of each chunk are raised again here, in chunk order.
    """
    offsets = range(0, reps, CHUNK_REPS)
    counts = [min(CHUNK_REPS, reps - off) for off in offsets]
    if workers <= 1 or len(counts) <= 1:
        done = [_run_chunk(fn, c, o) for c, o in zip(counts, offsets)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_chunk, [fn] * len(counts), counts,
                                 offsets))
    raise_again([w for _, caught in done for w in caught])
    return [part for part, _ in done]
