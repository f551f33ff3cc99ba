import functools
import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spagraph import verify
from spagraph.clustering import VARIANTS, SplitPolicy, split_times
from spagraph.errors import ParameterError, UsageError
from spagraph.generator import GrownGraph, ModelParams, generate, generate_naive
from spagraph.geometry import Norm
from spagraph.spatial_index import SphereIndex
from spagraph.verify import (
    brute_force_clustering,
    first_divergent_step,
    verify_equivalence,
    vertex_walk,
)

PARAMS = dict(p=0.7, a1=1.0, a2=30 / 7)


class DroppedUpdateIndex(SphereIndex):
    """Stops applying weight updates after a fixed number of calls."""

    BREAK_AFTER = 40

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._updates_seen = 0

    def update_weight(self, vertex_id, weight):
        self._updates_seen += 1
        if self._updates_seen > self.BREAK_AFTER:
            return
        super().update_weight(vertex_id, weight)


def test_verify_passes_default_params():
    params = ModelParams(n=600, seed=0, **PARAMS)
    report = verify_equivalence(params, seeds=[0, 1])
    assert report.passed
    assert "ok" in report.summary()


def test_verify_passes_trivially_with_p_zero():
    params = ModelParams(n=400, seed=0, **{**PARAMS, "p": 0.0})
    assert verify_equivalence(params, seeds=[3]).passed


def test_verify_guard():
    params = ModelParams(n=6000, seed=0, **PARAMS)
    with pytest.raises(UsageError):
        verify_equivalence(params, seeds=[0])


@pytest.mark.parametrize("seeds", [[], iter([])])
def test_verify_rejects_an_empty_seed_list(seeds):
    with pytest.raises(UsageError, match="no seeds"):
        verify_equivalence(ModelParams(n=100, seed=0, **PARAMS), seeds)


@pytest.mark.parametrize("seed", [1.5, "1", None])
def test_verify_rejects_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(ParameterError, match="seed must be an integer"):
        verify_equivalence(ModelParams(n=100, seed=0, **PARAMS), [0, seed])


def test_verify_reports_the_int_seed_it_ran():
    report = verify_equivalence(ModelParams(n=100, seed=0, **PARAMS), [np.int64(3), True])
    assert report.passed
    assert [(type(r.seed), r.seed) for r in report.results] == [(int, 3), (int, 1)]


def test_corrupted_index_fails_and_names_step():
    params = ModelParams(n=600, seed=0, **PARAMS)
    report = verify_equivalence(
        params, seeds=[0], generator=functools.partial(generate, index_factory=DroppedUpdateIndex)
    )
    assert not report.passed
    result = report.results[0]
    assert result.first_divergent_step is not None
    assert result.first_divergent_step > 1
    assert "MISMATCH" in report.summary()


def _first_step_past_edge_40(graph):
    """The first step whose out-edges start at or after edge 40 and that has any."""
    return next(t for t in range(1, graph.n + 1)
                if graph.out_ptr[t] >= 40 and graph.out_degree[t] > 0)


def drop_an_edge(params):
    """The default vertex-centric run, less the first out-edge of the first step past edge 40."""
    graph = generate(params)
    edges = np.column_stack((graph.edge_sources(), graph.out_targets))
    edges = np.delete(edges, graph.out_ptr[_first_step_past_edge_40(graph)], axis=0)
    return GrownGraph.from_edges(params, edges, graph.positions)


def test_dropped_edge_on_default_path_fails_and_names_step():
    params = ModelParams(n=600, seed=0, **PARAMS)
    report = verify_equivalence(params, seeds=[0], generator=drop_an_edge)
    assert not report.passed
    step = _first_step_past_edge_40(generate(params))
    assert report.results[0].first_divergent_step == step > 1
    assert f"MISMATCH at step {step}: out-edges differ" in report.summary()


def test_default_generator_is_looked_up_at_call_time(monkeypatch):
    monkeypatch.setattr(verify, "generate", drop_an_edge)
    report = verify_equivalence(ModelParams(n=300, seed=0, **PARAMS), seeds=[0])
    assert not report.passed


UNDEFINED = 236   # total degree below 2 in the n = 300, seed 0 graph: no undirected coefficient


@pytest.mark.parametrize("variant, added, message", [
    pytest.param("old", False, "old clustering differs at vertex {}", id="c_old"),
    pytest.param("undirected", False, "undirected clustering differs at vertex {}",
                 id="c_undirected"),
    pytest.param("undirected", True,
                 "undirected clustering reported at vertex {}, where it is undefined",
                 id="undirected_where_undefined"),
])
def test_wrong_clustering_fails_and_names_vertex(monkeypatch, variant, added, message):
    real = verify.compute_report
    broken = {}

    def perturbed(graph, policy):
        report = real(graph, policy)
        record = report.variant(variant)
        if added:   # a coefficient at a vertex where the variant is undefined
            v = UNDEFINED
            assert graph.in_degree[v] + graph.out_degree[v] < 2
            i = int(np.searchsorted(record.ids, v))
            record = replace(
                record, ids=np.insert(record.ids, i, v),
                degree=np.insert(record.degree, i, 2),
                in_degree=np.insert(record.in_degree, i, graph.in_degree[v]),
                values=np.insert(record.values, i, 0.0),
            )
        else:   # a wrong coefficient at a vertex where it is defined
            i = record.values.size // 2
            v = int(record.ids[i])
            values = record.values.copy()
            values[i] += 1e-12
            record = replace(record, values=values)
        broken["vertex"] = v
        return replace(report, **{variant: record})

    monkeypatch.setattr(verify, "compute_report", perturbed)
    report = verify_equivalence(ModelParams(n=300, seed=0, **PARAMS), seeds=[0])
    assert not report.passed
    assert report.results[0].detail == message.format(broken["vertex"])


def test_first_divergent_step_names_the_step():
    params = ModelParams(n=6, seed=0, **PARAMS)
    positions = np.random.default_rng(0).random((7, 2))
    edges = [(2, 1), (3, 1), (3, 2), (4, 2), (5, 1), (6, 5)]
    changed = [(2, 1), (3, 1), (3, 2), (4, 3), (5, 1), (6, 5)]
    graph = GrownGraph.from_edges(params, edges, positions)
    assert first_divergent_step(graph, GrownGraph.from_edges(params, edges, positions)) is None
    assert first_divergent_step(graph, GrownGraph.from_edges(params, changed, positions)) == (
        4, "out-edges differ: [2] vs [3]"
    )
    moved = positions.copy()
    moved[5, 1] = 0.5
    assert first_divergent_step(graph, GrownGraph.from_edges(params, edges, moved)) == (
        5, "positions differ"
    )


def test_first_divergent_step_without_positions():
    params = ModelParams(n=3, seed=0, **PARAMS)
    graph = GrownGraph.from_edges(params, [(2, 1), (3, 1)])
    changed = GrownGraph.from_edges(params, [(2, 1), (3, 2)])
    assert first_divergent_step(graph, GrownGraph.from_edges(params, [(2, 1), (3, 1)])) is None
    assert first_divergent_step(graph, changed) == (3, "out-edges differ: [1] vs [2]")
    # without positions a graph gets the seed's, which differ from these at step 1
    placed = GrownGraph.from_edges(params, [(2, 1), (3, 1)], np.full((4, 2), 0.5))
    assert first_divergent_step(graph, placed) == (1, "positions differ")
    assert first_divergent_step(placed, graph) == (1, "positions differ")
    seeded = GrownGraph.from_edges(params, [(2, 1), (3, 1)], generate(params).positions)
    assert first_divergent_step(graph, seeded) is None


@pytest.mark.parametrize("fast_n, reference_n", [(300, 200), (200, 300)])
def test_runs_of_different_n_diverge_after_the_shorter(fast_n, reference_n):
    params = ModelParams(n=reference_n, seed=0, **PARAMS)
    detail = f"run under test has n = {fast_n}, reference n = {reference_n}"
    fast = generate(replace(params, n=fast_n))
    assert first_divergent_step(fast, generate(params)) == (201, detail)
    report = verify_equivalence(params, seeds=[0],
                                generator=lambda seeded: generate(replace(seeded, n=fast_n)))
    assert report.summary() == f"seed 0: MISMATCH at step 201: {detail}"


@pytest.mark.parametrize("params", [
    ModelParams(n=1000, seed=3, **PARAMS),
    ModelParams(n=700, seed=4, dimension=3, norm=Norm.L2, **PARAMS),
    # about 100 spheres cover each step, and nine in ten of their coins are tails
    ModelParams(n=600, seed=5, p=0.1, a1=1.0, a2=90.0, dimension=1),
    # every covered step links, so degrees pass the bound again and again
    ModelParams(n=400, seed=6, p=1.0, a1=0.9, a2=1.0, norm=Norm.L2),
], ids=["m2-linf", "m3-l2", "m1-low-p", "p1"])
def test_vertex_walk_equals_naive_in_neighbors_of_every_vertex(params):
    graph = generate_naive(params)
    for v in range(1, params.n + 1):
        assert np.array_equal(vertex_walk(params, graph.positions, v), graph.in_neighbors(v)), v


@st.composite
def birth_ordered_edges(draw):
    """(n, edges) on up to 25 vertices; vertex 2 always has an in- and an out-neighbour."""
    n = draw(st.integers(3, 25))
    pairs = [(s, u) for s in range(2, n + 1) for u in range(1, s)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [pair for pair, k in zip(pairs, keep) if k or pair in ((2, 1), (3, 2))]


def dict_of_sets_clustering(n, edges, t_hat):
    """{variant: {v: c}} counted pair by pair over Python sets."""
    out = {v: set() for v in range(1, n + 1)}
    into = {v: set() for v in range(1, n + 1)}
    for source, target in edges:
        out[source].add(target)
        into[target].add(source)
    result = {variant: {} for variant in VARIANTS}
    for v in range(1, n + 1):
        d = len(into[v])
        if d >= 2:
            # each edge y -> z between two in-neighbours; it is old when z arrived by t_hat[v]
            linked = [(y, z) for y in into[v] for z in into[v] if z in out[y]]
            old = sum(1 for _, z in linked if z <= t_hat[v])
            result["directed"][v] = len(linked) / math.comb(d, 2)
            result["old"][v] = old / math.comb(d, 2)
            result["new"][v] = (len(linked) - old) / math.comb(d, 2)
        around = into[v] | out[v]
        if len(around) >= 2:
            pairs = itertools.combinations(around, 2)
            count = sum(1 for y, z in pairs if z in out[y] or y in out[z])
            result["undirected"][v] = count / math.comb(len(around), 2)
    return result


@settings(max_examples=60, deadline=None)
@given(case=birth_ordered_edges(), mode=st.sampled_from(["half", "log"]))
def test_brute_force_clustering_equals_a_count_over_sets(case, mode):
    n, edges = case
    graph = GrownGraph.from_edges(ModelParams(n=n, seed=0, **PARAMS), edges)
    assert graph.in_degree[2] > 0 and graph.out_degree[2] > 0
    t_hat = split_times(graph, SplitPolicy(mode))
    assert brute_force_clustering(graph, t_hat) == dict_of_sets_clustering(n, edges, t_hat)


def test_brute_force_clustering_holds_less_than_half_a_dense_matrix():
    # a dense bool adjacency matrix alone takes (n + 1)^2 bytes, 4 MB here
    n = 2000
    graph = generate(ModelParams(n=n, seed=0, **PARAMS))
    t_hat = split_times(graph, SplitPolicy("half"))   # builds the in-lists the oracle reads
    tracemalloc.start()
    try:
        oracle = brute_force_clustering(graph, t_hat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(oracle["directed"]) > n // 2
    assert peak <= (n + 1) ** 2 // 2


@pytest.mark.parametrize("size", [0, 100, 300, 302])
def test_brute_force_clustering_rejects_split_times_of_the_wrong_shape(size):
    graph = generate(ModelParams(n=300, seed=0, **PARAMS))
    t_hat = np.resize(split_times(graph, SplitPolicy("half")), size)
    with pytest.raises(UsageError, match=rf"t_hat must have shape \(301,\), got \({size},\)"):
        brute_force_clustering(graph, t_hat)
    with pytest.raises(UsageError):
        brute_force_clustering(graph, t_hat.reshape(1, -1))
