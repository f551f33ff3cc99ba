import array
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spagraph import generator
from spagraph.errors import ParameterError, UsageError
from spagraph.generator import (
    GrownGraph,
    ModelParams,
    _DRAW,
    _CoinTable,
    _StaticGrid,
    _draw_positions,
    _gather,
    generate,
    generate_many,
    generate_naive,
    sphere_volume,
)
from spagraph.geometry import Norm, needed_volume
from spagraph.graph_io import serialize_graph
from spagraph.rng import CounterStream, coin_cut
from spagraph.spatial_index import SphereIndex
from spagraph.verify import vertex_walk

DEFAULTS = dict(p=0.7, a1=1.0, a2=30 / 7, dimension=2, norm=Norm.LINF)


def make(n, seed=0, **overrides):
    return ModelParams(n=n, seed=seed, **{**DEFAULTS, **overrides})


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_batched_positions_equal_per_step_draws_across_the_batch_boundary(dimension):
    n = _DRAW // dimension + 3
    stream = CounterStream(17)
    positions = _draw_positions(make(n, seed=17, dimension=dimension), stream)
    assert positions.shape == (n + 1, dimension)
    assert np.isnan(positions[0]).all()
    want = np.array([stream.position(t, dimension) for t in range(1, n + 1)])
    assert np.array_equal(positions[1:], want)


def test_param_domain():
    with pytest.raises(ParameterError):
        make(10, p=-0.1)
    with pytest.raises(ParameterError):
        make(10, p=1.1)
    with pytest.raises(ParameterError, match="p\\*a1"):
        make(10, p=0.5, a1=2.0)
    with pytest.raises(ParameterError):
        make(10, a1=0.0)
    with pytest.raises(ParameterError):
        make(10, a2=0.0)
    with pytest.raises(ParameterError):
        make(0)
    with pytest.raises(ParameterError):
        make(10, seed=-1)
    # p * a1 is nan for a1 = inf and p = 0, which no comparison catches
    for a1, a2, p in [(math.nan, 1.0, 0.7), (1.0, math.nan, 0.7), (1.0, math.inf, 0.7),
                      (math.inf, 1.0, 0.0)]:
        with pytest.raises(ParameterError, match="a1 and a2 must be finite"):
            make(10, p=p, a1=a1, a2=a2)
    make(10, p=1.0, a1=0.99)  # open boundary p*a1 < 1


def test_sphere_volume_formula():
    params = make(100, a1=1.0, a2=1.0)
    assert sphere_volume(4, 10, params) == 0.5
    assert sphere_volume(100, 50, params) == 1.0  # clamp
    assert sphere_volume(0, 1000, params) == 0.001


def test_single_vertex_graph():
    g = generate(make(1))
    assert g.n == 1 and g.num_edges == 0
    assert g.positions.shape == (2, 2)


def test_p_zero_never_links():
    for builder in (generate, generate_naive):
        g = builder(make(300, p=0.0))
        assert g.num_edges == 0


def test_p_one_links_with_certainty():
    # a2 >= 1 makes the first sphere cover the whole torus at t = 1
    g = generate(make(2, p=1.0, a1=0.5, a2=2.0))
    assert g.edge_sources().tolist() == [2] and g.out_targets.tolist() == [1]


def test_indexed_equals_naive_bit_for_bit():
    for seed in (0, 1, 2):
        params = make(1000, seed=seed)
        fast = generate(params)
        slow = generate_naive(params)
        assert np.array_equal(fast.positions[1:], slow.positions[1:])
        assert np.array_equal(fast.out_ptr, slow.out_ptr)
        assert np.array_equal(fast.out_targets, slow.out_targets)


def test_l2_norm_equivalence_too():
    params = make(800, seed=5, norm=Norm.L2, dimension=3)
    assert np.array_equal(generate(params).out_targets, generate_naive(params).out_targets)


def test_determinism_byte_identical():
    params = make(400, seed=9)
    assert serialize_graph(generate(params)) == serialize_graph(generate(params))


def test_seed_changes_positions():
    a = generate(make(50, seed=1))
    b = generate(make(50, seed=2))
    assert not np.array_equal(a.positions[1:], b.positions[1:])


def test_edge_direction_invariant():
    g = generate(make(1500, seed=3))
    srcs = np.repeat(np.arange(1, g.n + 1), g.out_degree[1:])
    assert np.all(g.out_targets < srcs)


def test_degree_accounting():
    g = generate(make(1500, seed=4))
    assert g.in_degree.sum() == g.num_edges
    assert g.out_degree.sum() == g.num_edges
    assert g.in_degree[0] == 0 and g.out_degree[0] == 0


def test_out_degree_frozen_prefix_replay():
    # replaying a shorter run reproduces the long run's prefix exactly,
    # so out-edges of early vertices never change after their birth step
    long = generate(make(1200, seed=8))
    short = generate(make(700, seed=8))
    assert np.array_equal(short.out_ptr, long.out_ptr[:702])
    assert np.array_equal(short.out_targets, long.out_targets[: long.out_ptr[701]])
    assert np.array_equal(short.positions[1:701], long.positions[1:701])


def test_in_neighbors_sorted_and_trajectory():
    g = generate(make(1000, seed=6))
    hub = int(np.argmax(g.in_degree))
    arrivals = g.in_neighbors(hub)
    assert np.all(np.diff(arrivals) > 0)
    assert np.all(arrivals > hub)
    times, degrees = g.trajectory(hub)
    assert degrees[-1] == g.in_degree[hub]
    mid = int(times[len(times) // 2])
    assert g.in_degree_at(hub, mid) == len(times) // 2 + 1
    assert g.in_degree_at(hub, g.n) == g.in_degree[hub]


@st.composite
def sparse_edge_lists(draw):
    """(n, edges) in generation order, on up to 40 vertices; vertex n never has in-edges."""
    n = draw(st.integers(1, 40))
    pairs = [(s, u) for s in range(2, n + 1) for u in range(1, s)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [pair for pair, k in zip(pairs, keep) if k]


@settings(max_examples=80, deadline=None)
@given(case=sparse_edge_lists())
def test_in_csr_equals_stable_argsort(case):
    n, edges = case
    g = GrownGraph.from_edges(make(n), edges)
    order = np.argsort(g.out_targets, kind="stable")
    counts = np.bincount(g.out_targets, minlength=n + 1)
    assert np.array_equal(g.in_sources, g.edge_sources()[order])
    assert np.array_equal(g.in_ptr, np.concatenate(([0], np.cumsum(counts))))
    assert np.array_equal(g.in_degree, counts)
    assert g.in_sources.dtype == g.in_ptr.dtype == np.int64
    assert g.in_degree[n] == 0


def test_naive_guard():
    with pytest.raises(UsageError):
        generate_naive(make(10_001))


def test_from_edges_round_trip_and_validation():
    params = make(5)
    g = GrownGraph.from_edges(params, [(2, 1), (4, 1), (4, 3), (5, 2)])
    assert g.num_edges == 4
    assert g.out_neighbors(4).tolist() == [1, 3]
    assert g.in_neighbors(1).tolist() == [2, 4]
    with pytest.raises(UsageError):
        GrownGraph.from_edges(params, [(2, 2)])
    with pytest.raises(UsageError):
        GrownGraph.from_edges(params, [(1, 2)])
    with pytest.raises(UsageError):
        GrownGraph.from_edges(params, [(4, 3), (2, 1)])


def test_mean_out_degree_desk_scale():
    # asymptotic mean out-degree is p*a2/(1-p*a1) = 10; generous band at n=2e4
    g = generate(make(20_000, seed=11))
    assert g.num_edges / g.n == pytest.approx(10.0, rel=0.15)


# -- the vertex-centric path against the step-centric oracle -----------------

ORACLE_GRID = [
    make(1),
    make(2, p=1.0, a1=0.5, a2=2.0),
    make(300, p=0.0),
    make(400, seed=1, p=1.0, a1=0.9, a2=1.0),
    make(900, seed=2),
    make(700, seed=3, norm=Norm.L2),
    make(600, seed=4, p=0.1, a1=1.0, a2=90.0, dimension=1),
    make(600, seed=5, p=0.1, a1=2.0, a2=9.0, dimension=1, norm=Norm.L2),
    make(500, seed=6, dimension=3),
    make(500, seed=7, p=1.0, a1=0.5, a2=2.0, dimension=3, norm=Norm.L2),
    make(400, seed=8, p=0.3, a1=1.5, a2=40.0, norm=Norm.L2),
    make(200, seed=9, p=0.5, a1=1.0, a2=0.5, dimension=7),
    # the largest dimensions that still use the grid (3^6 cells = _MAX_CELLS)
    make(500, seed=10, dimension=4, norm=Norm.L2),
    make(500, seed=11, dimension=6),
]


def assert_same_graph(fast, slow):
    assert np.array_equal(fast.positions[1:], slow.positions[1:])
    assert np.array_equal(fast.out_ptr, slow.out_ptr)
    assert np.array_equal(fast.out_targets, slow.out_targets)


@pytest.mark.parametrize(
    "params", ORACLE_GRID, ids=lambda p: f"n{p.n}-p{p.p}-m{p.dimension}-{p.norm.value}"
)
def test_vertex_centric_equals_naive(params):
    assert_same_graph(generate(params), generate_naive(params))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 300),
    p=st.floats(0.0, 1.0),
    a1_fraction=st.floats(0.01, 0.99),
    a2=st.floats(0.01, 60.0),
    dimension=st.integers(1, 3),
    norm=st.sampled_from(list(Norm)),
    seed=st.integers(0, 2 ** 64 - 1),
)
def test_vertex_centric_equals_naive_property(n, p, a1_fraction, a2, dimension, norm, seed):
    # p * a1 < 1, as ModelParams requires
    a1 = a1_fraction * min(10.0, 1.0 / p) if p > 0 else 10.0 * a1_fraction
    params = ModelParams(n=n, p=p, a1=a1, a2=a2, dimension=dimension, norm=norm, seed=seed)
    assert_same_graph(generate(params), generate_naive(params))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 200),
    dimension=st.integers(1, 4),
    norm=st.sampled_from(list(Norm)),
    a2=st.floats(0.01, 10.0),
    snap=st.integers(0, 4),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_static_grid_runs_hold_every_covered_step_at_every_level(
    n, dimension, norm, a2, snap, seed
):
    rng = np.random.default_rng(seed)
    positions = np.full((n + 1, dimension), np.nan)
    positions[1:] = rng.random((n, dimension))
    if snap:
        # coordinates on cell boundaries of the coarser levels
        positions[1:] = np.floor(positions[1:] * 2 ** snap) / 2 ** snap
    grid = _StaticGrid(positions, make(n, a2=a2, dimension=dimension, norm=norm))
    centers = positions[rng.integers(1, n + 1, size=3)]
    # random volumes, or balls whose surface passes exactly through a position
    volumes = np.where(
        rng.random(3) < 0.5,
        10.0 ** rng.uniform(-4, 0, size=3),
        needed_volume(centers, positions[rng.integers(1, n + 1, size=3)], norm),
    )
    s = rng.integers(1, n + 1, size=3)
    e = rng.integers(s, n + 1)
    radii = grid.radii(volumes)
    for level in range(len(grid._keys)):
        row, lo, hi = grid.runs(level, centers, radii, s, e)
        for i in range(3):
            got = [grid.steps(level, np.arange(a, b)) for a, b in zip(lo[row == i], hi[row == i])]
            got = np.concatenate([np.empty(0, dtype=np.int64), *got])
            assert np.unique(got).size == got.size
            assert ((got >= s[i]) & (got <= e[i])).all()
            window = np.arange(s[i], e[i] + 1)
            covered = window[needed_volume(positions[window], centers[i], norm) <= volumes[i]]
            assert np.isin(covered, got).all(), f"level {level} misses steps"


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 300),
    dimension=st.integers(1, 3),
    norm=st.sampled_from(list(Norm)),
    a2=st.floats(0.01, 10.0),
    rows=st.integers(1, 40),
    seed=st.integers(0, 2 ** 32 - 1),
)
# Each of these has a covered step near its sphere's surface, in a cell that a
# box 5% narrower than `radii` misses, so such a box fails here on every run.
@example(n=300, dimension=1, norm=Norm.L2, a2=10.0, rows=40, seed=17)
@example(n=300, dimension=2, norm=Norm.LINF, a2=2.0, rows=40, seed=16)
@example(n=300, dimension=3, norm=Norm.LINF, a2=0.5, rows=40, seed=6)
def test_gather_takes_a_maximal_prefix_of_complete_rows(n, dimension, norm, a2, rows, seed):
    cap = 64
    rng = np.random.default_rng(seed)
    params = make(n, seed=seed, a2=a2, dimension=dimension, norm=norm)
    positions = _draw_positions(params, CounterStream(seed))
    grid = _StaticGrid(positions, params)
    u = np.sort(rng.choice(np.arange(1, n), size=min(rows, n - 1), replace=False))
    s = rng.integers(u + 1, n + 1)
    e = np.minimum(2 * s, n)
    bound = rng.integers(0, 20, size=u.size)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generator, "MAX_PAIRS", cap)
        take, owners, steps = _gather(grid, u, s, e, bound, params)
    assert 1 <= take <= u.size
    assert owners.size == steps.size and ((owners >= 0) & (owners < take)).all()
    assert owners.size <= cap or take == 1
    sizes = np.zeros(u.size, dtype=np.int64)
    for i in range(u.size):
        # every row's steps, whether or not the cap lets the row in
        rest = _gather(grid, u[i:i + 1], s[i:i + 1], e[i:i + 1], bound[i:i + 1], params)[2]
        sizes[i] = rest.size
        if i >= take:
            continue
        got = steps[owners == i]
        assert np.array_equal(np.sort(got), np.sort(rest))
        assert np.unique(got).size == got.size
        assert ((got >= s[i]) & (got <= e[i])).all()
        window = np.arange(s[i], e[i] + 1)
        q = needed_volume(positions[[u[i]]], positions[window], norm)
        covered = window[q <= sphere_volume(bound[i], float(s[i] - 1), params)]
        assert np.isin(covered, got).all()
    # maximal: one more row would pass the cap
    assert take == u.size or sizes[: take + 1].sum() > cap


def test_index_factory_runs_the_step_centric_walk():
    inserted = []

    class RecordingIndex(SphereIndex):
        def insert(self, vertex_id, position, weight):
            inserted.append(vertex_id)
            super().insert(vertex_id, position, weight)

    params = make(800, seed=12)
    assert_same_graph(generate(params, index_factory=RecordingIndex), generate(params))
    assert inserted == list(range(1, 801))


def test_step_centric_weights_are_the_model_weights():
    # 0.3 has no exact binary form, so a weight evaluated any other way
    # (k * 3 / 10 + a2, or in float32) differs from a1 * k + a2 somewhere
    weights = {}

    class RecordingIndex(SphereIndex):
        def update_weight(self, vertex_id, weight):
            weights.setdefault(vertex_id, []).append(weight)
            super().update_weight(vertex_id, weight)

    a1, a2 = 0.3, 30 / 7
    graph = generate(make(800, seed=14, a1=a1, a2=a2), index_factory=RecordingIndex)
    assert sorted(weights) == np.flatnonzero(graph.in_degree).tolist()
    for v, seen in weights.items():
        assert seen == [a1 * k + a2 for k in range(1, graph.in_degree[v] + 1)], v


def test_a_step_on_the_sphere_boundary_is_covered(monkeypatch):
    # 1-D L-inf: x_2 and x_3 lie 0.25 from x_1, so Q = 0.5, exactly vertex 1's
    # volume at degree 0 and t = 2, (0.5 * 0 + 0.5) / 1, and at degree 1 and
    # t = 3, (0.5 * 1 + 0.5) / 2; the spheres are closed, so both steps link
    positions = np.array([[np.nan], [0.0], [0.25], [0.75]])
    monkeypatch.setattr(generator, "_draw_positions", lambda params, stream: positions.copy())
    params = make(3, p=1.0, a1=0.5, a2=0.5, dimension=1)
    for graph in (generate(params), generate_naive(params)):
        assert graph.edge_sources().tolist() == [2, 3]
        assert graph.out_targets.tolist() == [1, 1]
    assert vertex_walk(params, positions, 1).tolist() == [2, 3]
    assert vertex_walk(params, positions, 2).tolist() == []


@pytest.mark.parametrize("short", [1, 2, 3, 63, 64, 65, 511, 512, 513, 1000])
def test_shorter_run_is_exact_prefix(short):
    # windows end at 2s clipped to n; the clip must not change earlier steps
    long = generate(make(1537, seed=13))
    part = generate(make(short, seed=13))
    assert np.array_equal(part.positions[1:], long.positions[1 : short + 1])
    assert np.array_equal(part.out_ptr, long.out_ptr[: short + 2])
    assert np.array_equal(part.out_targets, long.out_targets[: long.out_ptr[short + 1]])


# -- one walk for many models -------------------------------------------------

_P = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
_A2 = st.sampled_from([0.5, 30 / 7, 90.0]) | st.floats(0.01, 100.0)   # repeats are likely


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 1100),
    dimension=st.integers(1, 3),
    norm=st.sampled_from(list(Norm)),
    seed=st.integers(0, 2 ** 64 - 1),
    points=st.lists(st.tuples(_P, st.floats(0.05, 0.95), _A2), min_size=1, max_size=4),
)
# p = 0 and p = 1, an unsorted p-list, and a repeated a2, over two vertex blocks
@example(n=1100, dimension=2, norm=Norm.LINF, seed=0,
         points=[(0.5, 0.9, 1.0), (1.0, 0.9, 4.0), (0.0, 0.9, 4.0), (0.1, 0.9, 90.0)])
@example(n=700, dimension=1, norm=Norm.L2, seed=5, points=[(0.9, 1.0, 10 / 9), (0.1, 1.0, 90.0)])
def test_generate_many_serializes_like_separate_runs(n, dimension, norm, seed, points):
    models = [make(n, seed=seed, p=p, a1=a1, a2=a2, dimension=dimension, norm=norm)
              for p, a1, a2 in points]
    got = [serialize_graph(graph) for graph in generate_many(models)]
    assert got == [serialize_graph(generate(model)) for model in models]


def test_generate_many_rejects_an_empty_or_mixed_list():
    with pytest.raises(UsageError):
        generate_many([])
    base = make(50, seed=3)
    for other in (make(51, seed=3), make(50, seed=3, dimension=3),
                  make(50, seed=3, norm=Norm.L2), make(50, seed=4)):
        with pytest.raises(UsageError, match="must share"):
            generate_many([base, other])


def test_generate_many_hashes_fewer_words(monkeypatch):
    hashed = [0]
    coin_words = CounterStream.coin_words

    def counted(stream):
        word = coin_words(stream)

        def count(t, u):
            hashed[0] += 1
            return word(t, u)

        return count

    monkeypatch.setattr(CounterStream, "coin_words", counted)
    models = [make(500, seed=9, p=p, a2=10 * (1 - p) / p) for p in (0.1, 0.5, 0.9)]
    separate = [generate(model) for model in models]
    separate_words, hashed[0] = hashed[0], 0
    shared = list(generate_many(models))
    assert 0 < hashed[0] < separate_words
    for a, b in zip(shared, separate):
        assert_same_graph(a, b)


def test_coin_table_matches_heads_at_every_cut():
    # p = 1 makes ceil(p * 2^53) << 11 = 2^64, past a uint64; the table shifts the word instead
    stream = CounterStream(21)
    word, n1 = stream.coin_words(), 1001
    pairs = [(t, u) for t in range(2, 60) for u in range(1, t)]
    keys = array.array("q", [t * n1 + u for t, u in pairs])
    words = array.array("Q", [word(t, u) for t, u in pairs])
    table = _CoinTable()
    table.add(keys[::2], words[::2])
    table.add(keys[1::2], words[1::2])
    coins = [(w >> 11) * 2.0 ** -53 for w in words]
    for p in (0.0, 1.0, 0.5, coins[0], np.nextafter(coins[0], 2), max(coins), min(coins)):
        heads = stream.heads(p)
        got = table.known(np.array(keys[::-1] + array.array("q", [n1 * 60 + 1])), coin_cut(p))
        assert got == [int(heads(t, u)) for t, u in pairs[::-1]] + [-1]
