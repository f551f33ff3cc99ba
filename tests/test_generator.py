import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_same_graph
from spagraph import generator
from spagraph.clustering import VARIANTS, SplitPolicy, compute_report
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
from spagraph.rng import LANE_COIN, CounterStream, coin_cut, coin_heads
from spagraph.spatial_index import SphereIndex
from spagraph.verify import vertex_walk
from test_rng import _keyed_blake2b_word

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
    # the dimension's unit ball must have a finite volume
    for dimension, norm in [(342, Norm.L2), (1024, Norm.LINF), (10 ** 9, Norm.LINF)]:
        with pytest.raises(ParameterError, match="too large"):
            make(10, dimension=dimension, norm=norm)
    make(10, dimension=341, norm=Norm.L2), make(10, dimension=1023, norm=Norm.LINF)


def test_integer_params_take_numpy_ints_and_reject_other_types():
    params = make(np.int64(60), seed=np.uint64(2 ** 64 - 1), dimension=np.int32(3))
    assert [type(v) for v in (params.n, params.dimension, params.seed)] == [int, int, int]
    assert params == make(60, seed=2 ** 64 - 1, dimension=3)
    assert_same_graph(generate(make(np.int64(60), seed=np.int64(3))), generate(make(60, seed=3)))
    for name, value in [("n", 100.0), ("dimension", 2.0), ("seed", 1.5), ("n", "100"),
                        ("seed", None)]:
        with pytest.raises(ParameterError, match=f"{name} must be an integer"):
            ModelParams(**{**DEFAULTS, "n": 100, name: value})


@pytest.mark.parametrize("value", ["0.5", None, 0.5j, [0.5]])
@pytest.mark.parametrize("name", ["p", "a1", "a2"])
def test_real_params_reject_values_that_are_not_real_numbers(name, value):
    with pytest.raises(ParameterError, match=f"{name} must be a real number"):
        ModelParams(**{**DEFAULTS, "n": 100, name: value})
    real = np.float64(0.5)   # stored as the Python float it equals
    assert type(getattr(ModelParams(**{**DEFAULTS, "n": 100, name: real}), name)) is float


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
        assert_same_graph(generate(params), generate_naive(params))


def test_l2_norm_equivalence_too():
    params = make(800, seed=5, norm=Norm.L2, dimension=3)
    assert_same_graph(generate(params), generate_naive(params))


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


def test_in_neighbors_sorted_and_trajectory():
    g = generate(make(1000, seed=6))
    hub = int(np.argmax(g.in_degree))
    arrivals = g.in_neighbors(hub)
    assert np.all(np.diff(arrivals) > 0)
    assert np.all(arrivals > hub)
    times, degrees = g.trajectory(hub)
    assert degrees[-1] == g.in_degree[hub]
    mid = int(times[len(times) // 2])
    assert g.prefix(mid).in_degree[hub] == len(times) // 2 + 1
    assert g.prefix(mid - 1).in_degree[hub] == len(times) // 2
    assert g.prefix(g.n).in_degree[hub] == g.in_degree[hub]


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


def test_from_edges_takes_no_edge_or_vertex_sized_temporary():
    # a strided (E, 2) array, as parsing gives: a whole-column bincount would copy its
    # sources and count into an n-sized array, 7.6 MB each here, where blocks take 0.5 MB
    n = 10 ** 6
    rows = np.empty((n - 1, 3), dtype=np.int64)
    rows[:, 0] = np.arange(2, n + 1)
    rows[:, 1] = rows[:, 0] - 1
    edges = rows[:, :2]
    assert not edges.flags.c_contiguous
    positions = np.full((n + 1, 2), 0.5)
    tracemalloc.start()
    try:
        graph = GrownGraph.from_edges(make(n), edges, positions)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.out_degree[1:].tolist() == [0] + [1] * (n - 1)
    assert np.array_equal(graph.out_targets, rows[:, 1])
    kept = graph.out_ptr.nbytes + graph.out_targets.nbytes
    assert peak <= kept + 4 * 8 * generator._FILL


def scanned_bad_edge(n, edges):
    """`_fill(n, edges).bad` from one pass over the edges as Python pairs."""
    previous = None
    for i, (s, u) in enumerate(edges):
        if not 1 <= u < s <= n:
            return i, f"edge ({s}, {u}) violates birth ordering"
        if previous is not None and (s, u) <= previous:
            return i, f"edge ({s}, {u}) out of generation order"
        previous = (s, u)
    return None


@settings(max_examples=80, deadline=None)
@given(case=sparse_edge_lists(), data=st.data())
def test_first_bad_edge_equals_a_scan_at_every_block_size(case, data):
    n, edges = case
    for _ in range(data.draw(st.integers(0, 2)) if edges else 0):
        i = data.draw(st.integers(0, len(edges) - 1))
        edges[i] = data.draw(st.tuples(st.integers(0, n + 1), st.integers(0, n + 1)))
    want = scanned_bad_edge(n, edges)
    array = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    for fill in (1, 2, 3, generator._FILL):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(generator, "_FILL", fill)
            assert generator._fill(n, array).bad == want


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
    # L2 from m = 8 on, where numpy's coordinate sum would depend on memory layout
    make(300, seed=20, dimension=8, norm=Norm.L2),
    make(300, seed=21, p=0.3, a1=1.5, a2=40.0, dimension=9, norm=Norm.L2),
    # the largest dimensions that still use the grid (3^6 cells = _MAX_CELLS)
    make(500, seed=10, dimension=4, norm=Norm.L2),
    make(500, seed=11, dimension=6),
    # the level cap, where one more level would pass the grid's table
    *(make(300, seed=12 + m, p=1.0, a1=0.5, a2=1e-300, dimension=m) for m in range(2, 7)),
    # a last time bucket of two steps, 2^k and 2^k + 1
    make(1025, seed=18),
    make(2049, seed=19, p=0.3, a1=1.5, a2=40.0, dimension=3, norm=Norm.L2),
]


@pytest.mark.parametrize(
    "params", ORACLE_GRID, ids=lambda p: f"n{p.n}-p{p.p}-m{p.dimension}-{p.norm.value}"
)
def test_vertex_centric_equals_naive(params):
    assert_same_graph(generate(params), generate_naive(params))


@st.composite
def models(draw):
    """Any admissible model with n <= 300, m <= 3 and a2 <= 60."""
    p = draw(st.floats(0.0, 1.0))
    # p * a1 < 1, as ModelParams requires
    a1 = draw(st.floats(0.01, 0.99)) * (min(10.0, 1.0 / p) if p > 0 else 10.0)
    return ModelParams(n=draw(st.integers(1, 300)), p=p, a1=a1, a2=draw(st.floats(0.01, 60.0)),
                       dimension=draw(st.integers(1, 3)), norm=draw(st.sampled_from(list(Norm))),
                       seed=draw(st.integers(0, 2 ** 64 - 1)))


@settings(max_examples=40, deadline=None)
@given(params=models())
def test_vertex_centric_equals_naive_property(params):
    assert_same_graph(generate(params), generate_naive(params))


def test_time_buckets_and_window_ends():
    t = np.arange(1, 2 ** 16 + 1)
    bucket = generator._bucket(t)
    assert (np.diff(bucket) >= 0).all()
    # _bucket_start(b) is the first step in bucket b or after it
    b = np.arange(bucket[-1] + 1)
    assert np.array_equal(generator._bucket_start(b), t[np.searchsorted(bucket, b)])
    # a bucket from 2^j on holds at most 2^j / _SPLIT steps
    sizes = np.bincount(bucket)
    octave = np.floor(np.log2(t[np.searchsorted(bucket, b)]))
    assert (sizes[b] <= np.maximum(2 ** octave // generator._SPLIT, 1)).all()
    # a window ends at a bucket end, within [s, 2s], or at n
    s = t[: 2 ** 15]
    e = generator._window_end(s, 2 ** 16)
    assert ((s <= e) & (e <= 2 * s)).all()
    assert (generator._bucket(e + 1) > generator._bucket(e)).all()
    assert np.array_equal(generator._window_end(s, 1000), np.minimum(e, 1000))


def grid_cells(positions, level, dimension):
    """Row-major cell number of each position at a level of `_StaticGrid`."""
    side = 1 << level
    cells = np.minimum((positions * side).astype(np.int64), side - 1)
    return np.ravel_multi_index(tuple(cells.T), (side,) * dimension)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 200),
    dimension=st.integers(1, 4),
    norm=st.sampled_from(list(Norm)),
    a2=st.floats(0.01, 10.0),
    snap=st.integers(0, 4),
    seed=st.integers(0, 2 ** 32 - 1),
)
# a2 = 1e-300 merges no bucket and takes the level count to its cap: one more
# level would pass the table's _TABLE * (n + 1) offsets
@example(n=2, dimension=2, norm=Norm.LINF, a2=1e-300, snap=0, seed=0)
@example(n=300, dimension=3, norm=Norm.L2, a2=1e-300, snap=0, seed=1)
@example(n=5000, dimension=4, norm=Norm.L2, a2=1e-300, snap=2, seed=2)
@example(n=300, dimension=5, norm=Norm.LINF, a2=1e-300, snap=0, seed=3)
@example(n=2, dimension=6, norm=Norm.L2, a2=1e-300, snap=0, seed=4)
# prefix buckets at the finer levels, and windows across several buckets
@example(n=4000, dimension=2, norm=Norm.LINF, a2=30 / 7, snap=0, seed=5)
def test_static_grid_runs_hold_every_covered_step_at_every_level(
    n, dimension, norm, a2, snap, seed
):
    rng = np.random.default_rng(seed)
    positions = np.full((n + 1, dimension), np.nan)
    positions[1:] = rng.random((n, dimension))
    if snap:
        # coordinates on cell boundaries of the coarser levels
        positions[1:] = np.floor(positions[1:] * 2 ** snap) / 2 ** snap
    params = make(n, a2=a2, dimension=dimension, norm=norm)
    grid = _StaticGrid(positions, params)
    levels, buckets = grid._width.size, int(generator._bucket(n)) + 1
    cap = generator._TABLE * (n + 1)
    # each level's int32 row holds steps 1..n by (cell, step), and the O(n) int32
    # table starts each (cell, bucket) slot, the prefix bucket's included
    assert grid._steps.dtype == grid._offsets.dtype == np.int32
    assert grid._offsets.size - 1 <= max(cap, buckets)
    assert grid._offsets[-1] == levels * n
    for level, row in enumerate(grid._steps.reshape(levels, n)):
        cells = grid_cells(positions[row], level, dimension)
        assert np.array_equal(np.sort(row), np.arange(1, n + 1))
        assert (np.diff(cells * (n + 1) + row) > 0).all()
        width = grid._width[level]
        slots = cells * width + np.maximum(generator._bucket(row) - grid._shift[level], 0)
        table = grid._offsets[grid._base[level] : grid._base[level] + (width << dimension * level)]
        assert np.array_equal(table - level * n, np.searchsorted(slots, np.arange(table.size)))
    # level l merges into its prefix bucket the buckets where even the smallest
    # sphere, at the bucket's last query time, picks a level coarser than l
    t = np.arange(1, n + 1)
    last = np.clip(np.searchsorted(generator._bucket(t), np.arange(buckets), side="right") - 1,
                   1, max(n - 1, 1))
    finest = np.maximum(np.floor(-np.log2(grid.radii(sphere_volume(0, last * 1.0, params)))), 0)
    for level in range(levels):
        assert grid._shift[level] == max(np.count_nonzero(finest < level) - 1, 0)
        assert grid._width[level] == buckets - grid._shift[level]
    if a2 == 1e-300:
        assert (grid._width == buckets).all()

        def size(count):
            return buckets * sum(1 << (dimension * level) for level in range(count))

        assert (levels == 1 or size(levels) <= cap) and size(levels + 1) > cap
    k = 6
    centers = positions[rng.integers(1, n + 1, size=k)]
    # random volumes, or balls whose surface passes exactly through a position,
    # and last the smallest ball a walk queries, which sets the finest level
    volumes = np.where(
        rng.random(k) < 0.5,
        10.0 ** rng.uniform(-4, 0, size=k),
        needed_volume(centers, positions[rng.integers(1, n + 1, size=k)], norm),
    )
    volumes[-1] = sphere_volume(0, max(n - 1, 1), params)
    s = rng.integers(1, n + 1, size=k)
    e = rng.integers(s, n + 1)
    # a window from the last step of one octave into the next, across a bucket end,
    # and one from step 1, which lies in the prefix bucket of every level that merges
    b = rng.integers(0, n.bit_length())
    s[-3], e[-3] = max((1 << b) - 1, 1), min((2 << b) + 1, n)
    s[-2], e[-2] = 1, rng.integers(1, n + 1)
    radii = grid.radii(volumes)
    # Above a row's own level its box meets up to (2 r 2^l + 2)^m cells; each
    # row is forced through the levels where that stays within 2^16.
    spans = np.minimum(2.0 ** np.arange(levels), 2 * radii[:, None] * 2.0 ** np.arange(levels) + 2)
    allowed = spans ** dimension <= 2 ** 16
    allowed[:, 0] = True

    def gathered(runs, window, i):
        """Row i's steps as its ranges hold them, and as `steps` trims them to [s, e]."""
        row, lo, hi = runs
        held = [grid._steps[a:b] for a, b in zip(lo[row == i], hi[row == i])]
        owners, steps = grid.steps(row, lo, hi, *window)
        return np.concatenate([np.empty(0, dtype=np.int32), *held]), steps[owners == i]

    by_level = {}
    for level in range(levels):
        rows = np.flatnonzero(allowed[:, level])
        runs = grid.runs(np.full(rows.size, level), centers[rows], radii[rows], s[rows], e[rows])
        for j, i in enumerate(rows):
            held, got = gathered(runs, (s[rows], e[rows]), j)
            by_level[level, i] = got
            assert np.unique(held).size == held.size
            # ranges end with e's bucket, or with the prefix bucket, buckets 0..shift,
            # and the trim drops only steps outside [s, e]
            last = max(generator._bucket(e[i]), grid._shift[level])
            assert (generator._bucket(held) <= last).all()
            assert np.array_equal(got, held[(held >= s[i]) & (held <= e[i])])
            window = np.arange(s[i], e[i] + 1)
            covered = window[needed_volume(positions[window], centers[i], norm) <= volumes[i]]
            assert np.isin(covered, got).all(), f"level {level} misses steps"
    # one call whose rows sit at different levels gathers what each row's level alone does
    mixed = rng.integers(0, allowed.sum(axis=1))
    runs = grid.runs(mixed, centers, radii, s, e)
    for i in range(k):
        assert np.array_equal(gathered(runs, (s, e), i)[1], by_level[mixed[i], i])


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
    # windows to 2s, most across a bucket boundary, or ending at a bucket end as the walk's
    e = np.where(rng.random(u.size) < 0.5, np.minimum(2 * s, n), generator._window_end(s, n))
    bound = rng.integers(0, 20, size=u.size)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generator, "MAX_PAIRS", cap)
        take, owners, steps = _gather(grid, u, s, e, bound, params)
    # the grid entries each row reads, before the trim to [s, e]: the cap counts these
    radii = grid.radii(sphere_volume(bound, (s - 1).astype(float), params))
    row, lo, hi = grid.runs(grid.levels(radii), positions[u], radii, s, e)
    entries = np.bincount(row, hi - lo, minlength=u.size)
    assert 1 <= take <= u.size
    assert owners.size == steps.size and ((owners >= 0) & (owners < take)).all()
    assert owners.size <= cap or take == 1
    assert entries[:take].sum() <= cap or take == 1
    for i in range(take):
        got = steps[owners == i]
        rest = _gather(grid, u[i:i + 1], s[i:i + 1], e[i:i + 1], bound[i:i + 1], params)[2]
        assert np.array_equal(np.sort(got), np.sort(rest))
        assert np.unique(got).size == got.size
        assert ((got >= s[i]) & (got <= e[i])).all()
        window = np.arange(s[i], e[i] + 1)
        q = needed_volume(positions[[u[i]]], positions[window], norm)
        covered = window[q <= sphere_volume(bound[i], float(s[i] - 1), params)]
        assert np.isin(covered, got).all()
    # maximal: one more row would pass the cap
    assert take == u.size or entries[: take + 1].sum() > cap


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


@pytest.fixture(scope="module")
def long_run():
    return generate(make(1537, seed=13))


@pytest.mark.parametrize("short", [1, 2, 3, 63, 64, 65, 511, 512, 513, 700, 1000])
def test_shorter_run_is_exact_prefix(long_run, short):
    # windows end where a time bucket ends, clipped to n; the clip must not change
    # earlier steps, so out-edges never change after their birth step
    assert_same_graph(long_run.prefix(short), generate(make(short, seed=13)))


@settings(max_examples=40, deadline=None)
@given(params=models(), data=st.data())
def test_prefix_equals_the_shorter_run(params, data):
    t = data.draw(st.integers(1, params.n), label="t")
    view, regrown = generate(params).prefix(t), generate(replace(params, n=t))
    assert_same_graph(view, regrown)
    for policy in (SplitPolicy(mode="half"), SplitPolicy(mode="log")):
        got, want = compute_report(view, policy), compute_report(regrown, policy)
        assert got.triangle_numerators_sum == want.triangle_numerators_sum
        assert got.wedge_count == want.wedge_count
        for variant in VARIANTS:
            pairs = zip(vars(got.variant(variant)).values(), vars(want.variant(variant)).values())
            assert all(np.array_equal(a, b) for a, b in pairs), variant


def test_prefix_time_domain(long_run):
    assert_same_graph(long_run.prefix(long_run.n), long_run)
    for bad in (0, -1, long_run.n + 1):
        with pytest.raises(UsageError, match="prefix time"):
            long_run.prefix(bad)
    with pytest.raises(TypeError):
        long_run.prefix(2.0)


def test_prefix_of_a_graph_without_positions():
    edges = [(2, 1), (3, 1), (3, 2), (5, 4)]
    graph = GrownGraph.from_edges(make(5), edges)
    view = graph.prefix(3)
    assert np.array_equal(view.positions[1:], generate(make(3)).positions[1:])
    assert_same_graph(view, GrownGraph.from_edges(make(3), edges[:3]))
    assert view.in_neighbors(1).tolist() == [2, 3] and view.in_degree.tolist() == [0, 2, 1, 0]


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
    for graph, model in zip(generate_many(models), models):
        want = generate(model)
        assert_same_graph(graph, want)
        assert serialize_graph(graph) == serialize_graph(want)


def test_generate_many_rejects_an_empty_or_mixed_list():
    with pytest.raises(UsageError):
        generate_many([])
    base = make(50, seed=3)
    for other in (make(51, seed=3), make(50, seed=3, dimension=3),
                  make(50, seed=3, norm=Norm.L2), make(50, seed=4)):
        with pytest.raises(UsageError, match="must share"):
            generate_many([base, other])


def hashed_coin_pairs(monkeypatch, run):
    """Every coin-lane (t, u) digest computed by `CounterStream.words` while `run()` runs."""
    pairs = []
    words = CounterStream.words

    def counted_words(stream, lane, steps, counters):
        steps, counters = [int(t) for t in steps], [int(u) for u in counters]
        if lane == LANE_COIN:
            pairs.extend(zip(steps, counters))
        return words(stream, lane, steps, counters)

    with monkeypatch.context() as patch:
        patch.setattr(CounterStream, "words", counted_words)
        run()
    return pairs


@pytest.mark.parametrize("params", [
    make(600, seed=1, p=0.0),
    make(600, seed=2, p=1.0, a1=0.9, a2=1.0),
    make(600, seed=3, p=0.1, a2=90.0, dimension=1),
    make(600, seed=4, norm=Norm.L2),
    make(600, seed=5, p=0.3, a1=1.5, a2=40.0, dimension=3),
    make(600, seed=6, p=0.9, a1=1.1, a2=1.0),   # hubs: many passes and restarts per round
], ids=lambda p: f"p{p.p}-a2{p.a2:.3g}-m{p.dimension}-{p.norm.value}")
def test_generate_hashes_exactly_the_naive_coin_words_once(monkeypatch, params):
    # resolving a round at once moves a word's hash to an earlier call, never adds or repeats one
    fast = hashed_coin_pairs(monkeypatch, lambda: generate(params))
    slow = hashed_coin_pairs(monkeypatch, lambda: generate_naive(params))
    assert len(set(fast)) == len(fast)
    assert sorted(fast) == sorted(slow)


def scan_round(owners, q, tm1, start, limit, heads, read, a1, a2):
    """The per-pair scan `generator._resolve` replaces, in Python ints and floats: its oracle.

    Each row walks its pairs in order from degree start[row], reads the coin
    (read(j) when heads[j] < 0) of each pair its sphere covers, and stops
    once its degree passes limit[row]. Returns (edge, restart) as `_resolve` does.
    """
    edge = np.zeros(len(q), dtype=bool)
    restart = np.zeros(len(q), dtype=bool)
    owners, q, tm1, known = owners.tolist(), q.tolist(), tm1.tolist(), heads.tolist()
    for row, (degree, bound) in enumerate(zip(start.tolist(), limit.tolist())):
        weight = a1 * degree + a2
        for j in [j for j, owner in enumerate(owners) if owner == row]:
            if q[j] <= weight / tm1[j] and (known[j] if known[j] >= 0 else read(j)):
                degree += 1
                weight = a1 * degree + a2
                edge[j] = True
                if degree > bound:
                    restart[j] = True
                    break
    return edge, restart


@st.composite
def walk_rounds(draw):
    """One round's kept pairs: some rows empty, some starting at their bound,
    volumes on and near the sphere at the degrees the round passes through."""
    rows = draw(st.integers(0, 6))
    start = draw(st.lists(st.integers(0, 30), min_size=rows, max_size=rows))
    limit = [k + draw(st.integers(0, 6)) for k in start]
    a1, a2 = draw(st.floats(0.05, 3.0)), draw(st.floats(0.01, 50.0))
    p = draw(_P)
    owners, q, tm1, known, coins = [], [], [], [], []
    for row in range(rows):
        size = draw(st.integers(0, 25))
        for t in sorted(draw(st.lists(st.integers(2, 10_000), min_size=size, max_size=size,
                                      unique=True))):
            degree = draw(st.integers(0, limit[row] + 3))
            scale = draw(st.sampled_from([1.0, 0.5]) | st.floats(0.8, 1.2))
            coin = draw(st.floats(0.0, 1.0, exclude_max=True)) < p
            owners.append(row)
            tm1.append(float(t - 1))
            q.append(scale * (a1 * degree + a2) / (t - 1))
            known.append(int(coin) if draw(st.booleans()) else -1)
            coins.append(coin)
    return (np.array(owners, dtype=np.int64), np.array(q), np.array(tm1),
            np.array(start, dtype=np.int64), np.array(limit, dtype=np.int64),
            np.array(known, dtype=np.int8), np.array(coins, dtype=bool), a1, a2)


@settings(max_examples=300, deadline=None)
@given(case=walk_rounds())
def test_resolve_equals_the_per_pair_scan(case):
    owners, q, tm1, start, limit, known, coins, a1, a2 = case
    fast_reads, slow_reads = [], []

    def reader(log):
        def read(index):
            log.extend(np.atleast_1d(index).tolist())
            return coins[index]
        return read

    edge, restart = generator._resolve(owners, q, tm1, start, limit, known.copy(),
                                       reader(fast_reads), a1, a2)
    want_edge, want_restart = scan_round(owners, q, tm1, start, limit, known,
                                         reader(slow_reads), a1, a2)
    # equal edges give equal degrees, and equal restart pairs equal restart steps
    assert edge.tolist() == want_edge.tolist()
    assert restart.tolist() == want_restart.tolist()
    # every coin the scan reads is read once; any other read lies past its row's restart,
    # covered at the degree the row's next round starts at, which reads it then
    assert len(set(fast_reads)) == len(fast_reads)
    stop = dict(zip(owners[want_restart].tolist(), np.flatnonzero(want_restart).tolist()))
    past = [j for j in fast_reads if j > stop.get(int(owners[j]), j)]
    assert sorted(set(fast_reads) - set(past)) == sorted(slow_reads)
    next_start = limit.take(owners) + 1
    assert all(q[j] <= (a1 * next_start[j] + a2) / tm1[j] for j in past)


def test_generate_many_hashes_each_shared_word_once(monkeypatch):
    # the benchmark's nine-p sweep at one seed; the generator docstring quotes the count
    models = [make(2000, p=p, a1=1.0, a2=10.0 * (1.0 - p) / p)
              for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)]
    pairs = hashed_coin_pairs(monkeypatch, lambda: list(generate_many(models)))
    assert len(pairs) == len(set(pairs)) == 195_068


def test_coin_table_matches_heads_at_every_cut():
    # p = 1 makes ceil(p * 2^53) << 11 = 2^64, past a uint64; the table shifts the word instead
    stream = CounterStream(21)
    n1 = 1001
    t, u = np.array([(t, u) for t in range(2, 60) for u in range(1, t)]).T
    keys = u * n1 + t
    words = stream.words(LANE_COIN, t.tolist(), u.tolist())
    table = _CoinTable()
    table.add(keys[::2], words[::2])
    table.add(keys[1::2], words[1::2])
    coins = stream.uniforms(LANE_COIN, t.tolist(), u.tolist())
    assert words.tolist() == [_keyed_blake2b_word(21, LANE_COIN, a, b) for a, b in zip(t, u)]
    query = np.append(keys[::-1], 60 * n1 + 1)
    for p in (0.0, 1.0, 0.5, coins[0], np.nextafter(coins[0], 2), coins.max(), coins.min()):
        got = table.known(query, coin_cut(p))
        assert got.tolist() == (coins[::-1] < p).astype(int).tolist() + [-1]
    assert _CoinTable().known(query, coin_cut(0.5)).tolist() == [-1] * query.size


def test_uint64_coin_heads_equal_scalar_heads_at_the_edges():
    stream = CounterStream(23)
    t, u = [5, 9, 2 ** 40, 2 ** 63], [1, 4, 17, 2 ** 64 - 1]
    words = stream.words(LANE_COIN, t, u)
    for i, w in enumerate(words.tolist()):
        assert w == _keyed_blake2b_word(23, LANE_COIN, t[i], u[i])
        coin = (w >> 11) * 2.0 ** -53
        # cut 0 (p = 0), cut 2^53 (p = 1), and one ulp either side of the word's value
        for p in (0.0, 1.0, np.nextafter(coin, 0), coin, np.nextafter(coin, 2)):
            assert coin_heads(words, coin_cut(p))[i] == (coin < p), (i, p)
    assert coin_cut(1.0) == 2 ** 53 and coin_heads(words, 2 ** 53).all()
    assert not coin_heads(words, 0).any()
