"""Counter-based random streams for reproducible growth.

Every variate is a pure function of (seed, lane, step, counter): the
stream for step t is keyed by the seed and t, and the coin for candidate
vertex u is read at counter u rather than in draw order. Two generators
that agree on the candidate sets therefore consume byte-identical
randomness no matter how they discover candidates, and a divergence stays
local to the (step, vertex) pair that caused it.

The stream function is the keyed BLAKE2b PRF from hashlib (RFC 7693),
which is stable across platforms and Python versions. `words` hashes many
little-endian 64-bit words w in one loop; each w gives the exact float
(w >> 11) * 2^-53, which `uniforms` returns. The coin at (t, u) is heads
at p when that float is < p. `generate` tests the word instead: w >> 11 <
coin_cut(p) = ceil(p * 2^53) (`coin_heads` for uint64 arrays) equals the
float test for every p in [0, 1] without computing a float, and keeps the
cut within a uint64 even at p = 1 (where cut << 11 would be 2^64).
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np

from .errors import ParameterError

LANE_POSITION = 0
LANE_COIN = 1

_TO_UNIT = 2.0 ** -53
_PACK = struct.Struct("<QQQ").pack
_CHUNK = 1024   # words hashed per join; 4096 left about 1 MB more resident in a sweep at n = 2000


def coin_cut(p: float) -> int:
    """ceil(p * 2^53): the coin word w is heads at p iff w >> 11 < coin_cut(p)."""
    return math.ceil(p * 2.0 ** 53)


def coin_heads(words: np.ndarray, cut: int) -> np.ndarray:
    """Per uint64 coin word, whether it is heads at `cut` (see `coin_cut`)."""
    return (words >> 11) < cut


class CounterStream:
    """Random access into the uniform streams derived from one seed."""

    def __init__(self, seed: int):
        if not 0 <= seed < 2 ** 64:
            raise ParameterError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = seed
        # Keyed BLAKE2b state before any message byte; copying it skips
        # re-keying on every word and yields the same digests.
        self._keyed = hashlib.blake2b(key=struct.pack("<Q", seed), digest_size=8)

    def words(self, lane: int, steps, counters) -> np.ndarray:
        """The 64-bit word at (lane, steps[i], counters[i]) for every i, as uint64.

        `steps` and `counters` are equal-length sequences of ints.
        """
        copy = self._keyed.copy
        chunks = []
        # digests are joined a chunk at a time: one 8-byte bytes object costs 48
        for lo in range(0, len(steps), _CHUNK):
            digests = []
            for t, counter in zip(steps[lo : lo + _CHUNK], counters[lo : lo + _CHUNK]):
                state = copy()
                state.update(_PACK(lane, t, counter))
                digests.append(state.digest())
            chunks.append(b"".join(digests))
        return np.frombuffer(b"".join(chunks), "<u8")

    def uniforms(self, lane: int, steps, counters) -> np.ndarray:
        """The uniform in [0, 1) at (lane, steps[i], counters[i]) for every i."""
        return (self.words(lane, steps, counters) >> 11) * _TO_UNIT

    def position(self, t: int, m: int) -> np.ndarray:
        """The m position coordinates consumed at step t."""
        return self.uniforms(LANE_POSITION, [t] * m, range(m))

    def coin_uniforms(self, t: int, vertex_ids) -> np.ndarray:
        """Link coins for step t, one per candidate, indexed by birth index."""
        ids = np.asarray(vertex_ids).tolist()
        return self.uniforms(LANE_COIN, [t] * len(ids), ids)
