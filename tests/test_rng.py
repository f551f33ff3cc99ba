import hashlib
import struct

import numpy as np
import pytest

from spagraph.errors import ParameterError
from spagraph.rng import LANE_COIN, LANE_POSITION, CounterStream


def test_deterministic_across_instances():
    a = CounterStream(12345)
    b = CounterStream(12345)
    assert a.uniform(LANE_COIN, 7, 3) == b.uniform(LANE_COIN, 7, 3)
    assert np.array_equal(a.position(9, 3), b.position(9, 3))


def test_streams_differ_by_key_parts():
    s = CounterStream(1)
    base = s.uniform(LANE_COIN, 5, 2)
    assert s.uniform(LANE_COIN, 5, 3) != base
    assert s.uniform(LANE_COIN, 6, 2) != base
    assert s.uniform(LANE_POSITION, 5, 2) != base
    assert CounterStream(2).uniform(LANE_COIN, 5, 2) != base


def test_uniform_range_and_spread():
    s = CounterStream(99)
    values = np.array([s.uniform(LANE_COIN, t, u) for t in range(50) for u in range(50)])
    assert np.all((values >= 0.0) & (values < 1.0))
    assert abs(values.mean() - 0.5) < 0.02
    assert abs(np.var(values) - 1 / 12) < 0.005


def test_coin_uniforms_indexed_by_vertex():
    s = CounterStream(4)
    ids = [3, 17, 42]
    coins = s.coin_uniforms(9, ids)
    assert coins.tolist() == [s.uniform(LANE_COIN, 9, u) for u in ids]
    # a subset of candidates reads the same coins (random access, not draw order)
    assert s.coin_uniforms(9, [17]).tolist() == [coins[1]]


def test_position_consumes_m_counters():
    s = CounterStream(4)
    pos = s.position(3, 4)
    assert pos.shape == (4,)
    assert pos.tolist() == [s.uniform(LANE_POSITION, 3, j) for j in range(4)]


def test_seed_domain():
    CounterStream(0)
    CounterStream(2 ** 64 - 1)
    with pytest.raises(ParameterError):
        CounterStream(-1)
    with pytest.raises(ParameterError):
        CounterStream(2 ** 64)


def _keyed_blake2b_word(seed, lane, t, counter):
    """The stream function written out from its definition, as an oracle."""
    digest = hashlib.blake2b(
        struct.pack("<QQQ", lane, t, counter), key=struct.pack("<Q", seed), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


def test_words_match_keyed_blake2b_on_random_counters():
    rng = np.random.default_rng(2024)
    for seed in (0, 7, 2 ** 64 - 1):
        s = CounterStream(seed)
        for lane, t, counter in rng.integers(0, 2 ** 63, size=(200, 3)).tolist():
            lane %= 2
            assert s._word(lane, t, counter) == _keyed_blake2b_word(seed, lane, t, counter)


def test_scalar_coin_equals_word_and_coin_uniforms():
    rng = np.random.default_rng(99)
    s = CounterStream(31337)
    for t, u in rng.integers(1, 2 ** 40, size=(500, 2)).tolist():
        want = (_keyed_blake2b_word(31337, LANE_COIN, t, u) >> 11) * 2.0 ** -53
        assert s.coin(t, u) == want == (s._word(LANE_COIN, t, u) >> 11) * 2.0 ** -53
        assert s.coin(t, u) == s.coin_uniforms(t, [u])[0]
