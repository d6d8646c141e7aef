"""The replication map: one Monte Carlo collector over many chunks.

Replication ``r`` of every collector draws only from the stream key
``(seed, r, stream_id)``, so a run may be split into chunks of
replications and the chunks run anywhere, in any order.  The chunks have
a fixed size, so the worker count changes wall time, never results, and
never the warnings a run raises.

Only ``shared_pool`` sets the worker count.  A process pool, and the
``multiprocessing`` import under it, is started only when a map inside a
block of more than one worker has more than one chunk; every such map in
the block uses the same pool, so a run pays for one.
"""

from __future__ import annotations

import dataclasses
import warnings
from contextlib import contextmanager
from typing import Callable, Iterator, List

import numpy as np

from .errors import ConfigurationError

CHUNK_REPS = 1024

_workers = 0   # pool size of the open shared_pool block, 0 outside one
_pool = None   # that block's pool, once started


def raise_again(caught: List[warnings.WarningMessage]) -> None:
    """Raise recorded warnings again, in order; under the "default"
    action each distinct warning is shown once."""
    registry: dict = {}
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno,
                               registry=registry)


def join_chunks(parts: List):
    """The rows of consecutive chunks as one result: arrays joined along
    their first axis, or one dataclass whose array fields hold all the
    rows and whose other fields are the first part's."""
    first = parts[0]
    if isinstance(first, np.ndarray):
        return np.concatenate(parts)
    return dataclasses.replace(first, **{
        f.name: np.concatenate([getattr(p, f.name) for p in parts])
        for f in dataclasses.fields(first)
        if isinstance(getattr(first, f.name), np.ndarray)})


def _run_chunk(fn: Callable, count: int, offset: int):
    """One chunk, with the warnings it raised (any process)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        part = fn(reps=count, rep_offset=offset)
    return part, caught


@contextmanager
def shared_pool(workers: int) -> Iterator[None]:
    """Within the block, map_replications runs chunks in a pool of
    ``workers`` processes, started at the first map with more than one
    chunk and shut down when the block exits.  A nested block uses the
    outer block's worker count and pool."""
    global _workers, _pool
    if _workers:
        yield
        return
    _workers = workers
    try:
        yield
    finally:
        pool, _workers, _pool = _pool, 0, None
        if pool is not None:
            pool.shutdown()


def map_replications(fn: Callable, reps: int):
    """Call ``fn(reps=count, rep_offset=offset)`` on consecutive chunks of
    CHUNK_REPS replications and return their rows joined in offset order
    (``join_chunks``).

    Inside a ``shared_pool`` block of more than one worker, a map of more
    than one chunk runs them in the block's pool, so ``fn`` and its bound
    arguments must pickle; otherwise the chunks run in this process.  The
    warnings of each chunk are raised again here, in chunk order.
    """
    global _pool
    if reps < 1:
        raise ConfigurationError(f"reps must be >= 1, got {reps}",
                                 "map_replications.reps")
    offsets = range(0, reps, CHUNK_REPS)
    counts = [min(CHUNK_REPS, reps - off) for off in offsets]
    if _workers <= 1 or len(counts) <= 1:
        done = [_run_chunk(fn, c, o) for c, o in zip(counts, offsets)]
    else:
        if _pool is None:
            from concurrent.futures import ProcessPoolExecutor
            _pool = ProcessPoolExecutor(max_workers=_workers)
        done = list(_pool.map(_run_chunk, [fn] * len(counts), counts,
                              offsets))
    raise_again([w for _, caught in done for w in caught])
    return join_chunks([part for part, _ in done])
