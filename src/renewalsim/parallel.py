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
from functools import partial
from typing import Callable, Iterable, Iterator, List

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


def _arrays(part) -> dict:
    """A chunk's arrays by key: None for a bare array, the field name for
    a dataclass's array fields, (i, key) for the i-th part of a tuple."""
    if isinstance(part, np.ndarray):
        return {None: part}
    if isinstance(part, tuple):
        return {(i, key): a for i, p in enumerate(part)
                for key, a in _arrays(p).items()}
    return {f.name: getattr(part, f.name) for f in dataclasses.fields(part)
            if isinstance(getattr(part, f.name), np.ndarray)}


def _filled(first, tables: dict):
    """``first`` with the arrays ``_arrays`` finds replaced by ``tables``."""
    if isinstance(first, np.ndarray):
        return tables[None]
    if isinstance(first, tuple):
        return tuple(_filled(p, {key[1]: a for key, a in tables.items()
                                 if key[0] == i})
                     for i, p in enumerate(first))
    return dataclasses.replace(first, **tables)


def join_chunks(parts: Iterable, reps: int):
    """The rows of consecutive chunks, ``reps`` in all, as one result: an
    array joined along the first axis, a dataclass whose array fields hold
    all the rows and whose other fields are the first part's, or a tuple
    of these.  Each part is copied into tables made at the first one as it
    comes, so the parts are never held all at once."""
    first, tables, lo = None, {}, 0
    for part in parts:
        arrays = _arrays(part)
        if first is None:
            first = part
            tables = {key: np.empty((reps,) + a.shape[1:], a.dtype)
                      for key, a in arrays.items()}
        for key, a in arrays.items():
            tables[key][lo:lo + len(a)] = a
        lo += len(a)
    return _filled(first, tables)


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
    (``join_chunks``, each chunk as soon as it is back).

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
        done = map(partial(_run_chunk, fn), counts, offsets)
    else:
        if _pool is None:
            from concurrent.futures import ProcessPoolExecutor
            _pool = ProcessPoolExecutor(max_workers=_workers)
        done = _pool.map(_run_chunk, [fn] * len(counts), counts, offsets)
    caught: List[warnings.WarningMessage] = []

    def parts():
        for part, chunk_caught in done:
            caught.extend(chunk_caught)
            yield part

    joined = join_chunks(parts(), reps)
    raise_again(caught)
    return joined
