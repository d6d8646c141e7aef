import warnings

import numpy as np

from renewalsim.parallel import CHUNK_REPS, map_replications


def _indices(reps, rep_offset):
    warnings.warn(f"chunk at {rep_offset}", RuntimeWarning)
    return np.arange(rep_offset, rep_offset + reps)


def test_map_replications_chunks_and_warnings():
    reps = 2 * CHUNK_REPS + 452
    for workers in (1, 2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            parts = map_replications(_indices, reps, workers)
        assert [len(p) for p in parts] == [CHUNK_REPS, CHUNK_REPS, 452]
        assert np.array_equal(np.concatenate(parts), np.arange(reps))
        # each chunk's warning reaches the caller, in chunk order
        assert [str(w.message) for w in caught] == [
            "chunk at 0", f"chunk at {CHUNK_REPS}",
            f"chunk at {2 * CHUNK_REPS}"]
