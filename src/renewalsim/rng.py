"""Counter-based random number streams.

Every stochastic routine in this package draws from an :class:`RngStream`,
a value object naming one logical stream by the triple
``(seed, replication_index, stream_id)``.  The triple is mapped to a
Philox4x64 counter-based generator, so the stream content is a pure
function of the triple: replication ``r`` produces identical numbers no
matter which worker runs it, in what order, or how many workers exist.
The batched kernels re-key one generator per replication
(:class:`ReplicationGenerators`) instead of building one; both go through
``_philox_words``, so the two give the same streams.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
# numpy loads numpy.random on first attribute access; importing it here
# puts that cost in the package import instead of the first draw
import numpy.random

_U64 = np.uint64
_MASK64 = (1 << 64) - 1


def _philox_words(seed: int, replication_index: int, stream_id: int) -> tuple:
    """Philox (key, counter) of a triple: ((seed, r), (0, 0, 0, stream_id))."""
    return ((int(seed) & _MASK64, int(replication_index) & _MASK64),
            (0, 0, 0, int(stream_id) & _MASK64))


@dataclass(frozen=True)
class RngStream:
    """Name of one reproducible random stream.

    Attributes:
        seed: 64-bit experiment seed.
        replication_index: index of the Monte Carlo replication.
        stream_id: sub-stream within a replication (path draws,
            backward draws, ... are kept on distinct ids so adding a
            consumer never shifts another consumer's numbers).
    """

    seed: int
    replication_index: int = 0
    stream_id: int = 0

    def __post_init__(self):
        if not 0 <= int(self.seed) <= _MASK64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.replication_index < 0 or self.stream_id < 0:
            raise ValueError("replication_index and stream_id must be >= 0")

    def generator(self) -> np.random.Generator:
        """Build the generator for this triple (pure, no global state)."""
        key, counter = _philox_words(self.seed, self.replication_index,
                                     self.stream_id)
        return np.random.Generator(np.random.Philox(
            key=np.array(key, dtype=_U64), counter=np.array(counter, dtype=_U64)))

    def with_replication(self, index: int) -> "RngStream":
        return replace(self, replication_index=index)

    def with_stream(self, stream_id: int) -> "RngStream":
        return replace(self, stream_id=stream_id)


class ReplicationGenerators:
    """One generator re-keyed in place: ``generator(r)`` is the generator
    of ``stream.with_replication(r)`` at its first draw (the same object
    each call; the re-keying also resets the counter and output buffer)."""

    def __init__(self, stream: RngStream):
        self._stream = stream
        self._bitgen = np.random.Philox(key=np.zeros(2, dtype=_U64))
        self._gen = np.random.Generator(self._bitgen)
        self._state = {"bit_generator": "Philox", "buffer": (0, 0, 0, 0),
                       "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def generator(self, replication_index: int) -> np.random.Generator:
        key, counter = _philox_words(self._stream.seed, replication_index,
                                     self._stream.stream_id)
        self._state["state"] = {"counter": counter, "key": key}
        self._bitgen.state = self._state
        return self._gen
