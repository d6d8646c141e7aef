import concurrent.futures
import warnings
from functools import partial

import numpy as np
import pytest

from renewalsim import (IncrementLaw, PerturbedWalkModel, RngStream,
                        calibrate_lrt_boundary, collect_passage,
                        estimate_rho_nu, summarize_levels)
from renewalsim.errors import ConfigurationError
from renewalsim.parallel import CHUNK_REPS, map_replications, shared_pool


def _indices(reps, rep_offset):
    warnings.warn(f"chunk at {rep_offset}", RuntimeWarning)
    return np.arange(rep_offset, rep_offset + reps)


def test_map_replications_chunks_and_warnings():
    reps = 2 * CHUNK_REPS + 452
    for workers in (1, 2):
        with warnings.catch_warnings(record=True) as caught, \
                shared_pool(workers):
            warnings.simplefilter("always")
            joined = map_replications(_indices, reps)
        assert np.array_equal(joined, np.arange(reps))
        # each chunk's warning reaches the caller, in chunk order
        assert [str(w.message) for w in caught] == [
            "chunk at 0", f"chunk at {CHUNK_REPS}",
            f"chunk at {2 * CHUNK_REPS}"]


def test_map_replications_joins_passage_samples():
    model = PerturbedWalkModel(increment_law=IncrementLaw.exponential(1.0))
    reps = 2 * CHUNK_REPS + 37
    whole = collect_passage(model, 5.0, reps, RngStream(9))
    joined = map_replications(
        partial(collect_passage, model, 5.0, stream=RngStream(9)), reps)
    assert joined.a == 5.0
    for field in ("t", "R", "xi", "zeta", "crossed"):
        assert np.array_equal(getattr(whole, field), getattr(joined, field))


def test_map_replications_starts_no_pool_without_workers(monkeypatch):
    started = []

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    reps = 2 * CHUNK_REPS + 452
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        outside = map_replications(_indices, reps)
        with shared_pool(1):
            inside = map_replications(_indices, reps)
    assert started == []
    assert np.array_equal(outside, np.arange(reps))
    assert np.array_equal(inside, np.arange(reps))


def test_zero_reps_is_a_configuration_error():
    model = PerturbedWalkModel(increment_law=IncrementLaw.exponential(1.0))
    stream = RngStream(3)
    for call in (lambda: map_replications(_indices, 0),
                 lambda: summarize_levels(model, [5.0], 0, stream),
                 lambda: estimate_rho_nu(model, None, 0, stream),
                 lambda: calibrate_lrt_boundary(1.0, 50, 0, stream)):
        with pytest.raises(ConfigurationError, match="reps must be >= 1"):
            call()
