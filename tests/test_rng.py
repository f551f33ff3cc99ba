import hashlib
import struct

import numpy as np
import pytest

from spagraph.errors import ParameterError
from spagraph.rng import LANE_COIN, LANE_POSITION, CounterStream, coin_cut, coin_heads


def one(stream, lane, t, counter):
    """The single uniform at (lane, t, counter), through the batch draw."""
    return float(stream.uniforms(lane, [t], [counter])[0])


def test_deterministic_across_instances():
    a = CounterStream(12345)
    b = CounterStream(12345)
    assert one(a, LANE_COIN, 7, 3) == one(b, LANE_COIN, 7, 3)
    assert np.array_equal(a.position(9, 3), b.position(9, 3))


def test_streams_differ_by_key_parts():
    s = CounterStream(1)
    base = one(s, LANE_COIN, 5, 2)
    assert one(s, LANE_COIN, 5, 3) != base
    assert one(s, LANE_COIN, 6, 2) != base
    assert one(s, LANE_POSITION, 5, 2) != base
    assert one(CounterStream(2), LANE_COIN, 5, 2) != base


def test_uniform_range_and_spread():
    s = CounterStream(99)
    steps, counters = np.divmod(np.arange(2500), 50)
    values = s.uniforms(LANE_COIN, steps.tolist(), counters.tolist())
    assert np.all((values >= 0.0) & (values < 1.0))
    assert abs(values.mean() - 0.5) < 0.02
    assert abs(np.var(values) - 1 / 12) < 0.005


def test_coin_uniforms_indexed_by_vertex():
    s = CounterStream(4)
    ids = [3, 17, 42]
    coins = s.coin_uniforms(9, ids)
    assert coins.tolist() == [one(s, LANE_COIN, 9, u) for u in ids]
    # a subset of candidates reads the same coins (random access, not draw order)
    assert s.coin_uniforms(9, [17]).tolist() == [coins[1]]


def test_position_consumes_m_counters():
    s = CounterStream(4)
    pos = s.position(3, 4)
    assert pos.shape == (4,)
    assert pos.tolist() == [one(s, LANE_POSITION, 3, j) for j in range(4)]


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


def test_scalar_coin_equals_word_and_coin_uniforms():
    rng = np.random.default_rng(99)
    s = CounterStream(31337)
    pairs = rng.integers(1, 2 ** 40, size=(500, 2)).tolist()
    words = [_keyed_blake2b_word(31337, LANE_COIN, t, u) for t, u in pairs]
    want = [(w >> 11) * 2.0 ** -53 for w in words]
    steps, ids = zip(*pairs)
    assert s.uniforms(LANE_COIN, steps, ids).tolist() == want
    for (t, u), coin in zip(pairs, want):
        assert s.coin_uniforms(t, [u])[0] == coin
    for p in (0.0, 0.3, 0.7, 1.0):
        got = coin_heads(np.array(words, dtype=np.uint64), coin_cut(p))
        assert got.tolist() == [coin < p for coin in want]


def test_batch_draws_match_keyed_blake2b_on_random_64_bit_counters(monkeypatch):
    rng = np.random.default_rng(7)
    # small chunks put many chunk boundaries inside each batch
    for seed, chunk in ((0, 1024), (7, 7), (2 ** 64 - 1, 1)):
        monkeypatch.setattr("spagraph.rng._CHUNK", chunk)
        s = CounterStream(seed)
        draws = rng.integers(0, 2 ** 64, size=(200, 2), dtype=np.uint64)
        pairs = [(int(t), int(u)) for t, u in draws]
        steps, ids = zip(*pairs)
        for lane in (LANE_POSITION, LANE_COIN):
            words = [_keyed_blake2b_word(seed, lane, t, u) for t, u in pairs]
            got = s.words(lane, steps, ids)
            assert got.dtype == np.uint64 and got.tolist() == words
            want = [(w >> 11) * 2.0 ** -53 for w in words]
            assert s.uniforms(lane, steps, ids).tolist() == want
        coins = s.uniforms(LANE_COIN, steps, ids)
        heads = coin_heads(s.words(LANE_COIN, steps, ids), coin_cut(0.5))
        assert heads.tolist() == (coins < 0.5).tolist()


def test_heads_flips_exactly_at_the_coin_value():
    for t, u in [(1, 1), (2, 1), (9, 4), (2 ** 63, 2 ** 64 - 1)]:
        word = _keyed_blake2b_word(11, LANE_COIN, t, u)
        coin = (word >> 11) * 2.0 ** -53
        words = np.array([word], dtype=np.uint64)
        assert not coin_heads(words, coin_cut(coin))[0]
        assert coin_heads(words, coin_cut(np.nextafter(coin, 2)))[0]
        assert not coin_heads(words, coin_cut(0.0))[0]
        assert coin_heads(words, coin_cut(1.0))[0]


def test_empty_batch_draws():
    s = CounterStream(3)
    words = s.words(LANE_COIN, [], [])
    assert words.shape == (0,) and words.dtype == np.uint64
    assert s.uniforms(LANE_COIN, [], []).shape == (0,)
    assert s.coin_uniforms(5, np.empty(0, dtype=np.int64)).shape == (0,)
