import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spagraph import clustering as cl
from spagraph.errors import ParameterError, UsageError
from spagraph.generator import GrownGraph, ModelParams, generate
from spagraph.verify import brute_force_clustering

PARAMS = dict(p=0.7, a1=1.0, a2=30 / 7)


def graph_from(n, edges):
    return GrownGraph.from_edges(ModelParams(n=n, **PARAMS), edges)


def report_coefficients(graph, policy=cl.SplitPolicy()):
    """{variant: {v: c}} from compute_report, over the vertices where each is defined."""
    report = cl.compute_report(graph, policy)
    return {
        variant: dict(zip(report.variant(variant).ids.tolist(), report.variant(variant).values))
        for variant in cl.VARIANTS
    }


def coefficients(graph, v, policy=cl.SplitPolicy()):
    """{variant: c} at v from compute_report, None where undefined; checked against the oracle."""
    got = report_coefficients(graph, policy)
    assert got == brute_force_clustering(graph, cl.split_times(graph, policy))
    return {variant: values.get(v) for variant, values in got.items()}


@pytest.fixture(scope="module")
def grown():
    return generate(ModelParams(n=2000, seed=17, **PARAMS))


def test_single_pair_with_edge():
    # v=1 has in-neighbors {2, 3} and 3 -> 2 exists
    g = graph_from(3, [(2, 1), (3, 1), (3, 2)])
    assert coefficients(g, 1)["directed"] == 1.0


def test_single_pair_without_edge():
    g = graph_from(3, [(2, 1), (3, 1)])
    assert coefficients(g, 1)["directed"] == 0.0


def test_four_in_neighbors_three_edges():
    # hub 1 with in-neighbors {2,3,4,5}; 3 edges among them -> 3 / C(4,2)
    edges = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 4), (6, 5), (7, 6)]
    g = graph_from(7, edges)
    assert coefficients(g, 1)["directed"] == 0.5


def test_low_degree_undefined():
    g = graph_from(3, [(2, 1)])
    assert coefficients(g, 1)["directed"] is None
    assert coefficients(g, 3)["undirected"] is None


def test_undirected_triangle_and_star():
    g = graph_from(3, [(2, 1), (3, 1), (3, 2)])
    for v in (1, 2, 3):
        assert coefficients(g, v)["undirected"] == 1.0
    star = graph_from(4, [(2, 1), (3, 1), (4, 1)])
    assert coefficients(star, 1)["undirected"] == 0.0


def test_zero_out_degree_vertices_equal_views(grown):
    got = report_coefficients(grown)
    directed, undirected = got["directed"], got["undirected"]
    checked = 0
    for v in directed:
        if grown.out_degree[v] == 0:
            assert undirected[v] >= directed[v]
            assert undirected[v] == directed[v]
            checked += 1
    assert checked > 0


def test_old_new_handcrafted_split():
    # hub 1 gains 6 in-neighbors {2..7}; with a half-final split the old set
    # is its first 4 neighbors (degree exceeds 3 at the 4th arrival).
    # One edge among the later neighbors (7 -> 6) is the only "new" pair.
    edges = [
        (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1),
        (7, 6),
        (8, 2), (9, 8),
    ]
    g = graph_from(9, edges)
    policy = cl.SplitPolicy(mode="half")
    assert cl.split_times(g, policy)[1] == 5  # threshold 3, 4th neighbor is vertex 5
    c = coefficients(g, 1, policy)
    assert c["new"] == 1 / math.comb(6, 2)
    assert c["old"] == 0.0
    assert c["directed"] == c["old"] + c["new"]


def test_split_threshold_never_reached_makes_everything_old():
    edges = [(2, 1), (3, 1), (3, 2)]
    g = graph_from(3, edges)
    policy = cl.SplitPolicy(mode="log", omega=100.0)  # unreachable threshold
    assert cl.split_times(g, policy)[1] == g.n
    c = coefficients(g, 1, policy)
    assert c["new"] == 0.0
    assert c["old"] == c["directed"]


@pytest.mark.parametrize("omega", [-1.0, 0.0, math.nan, math.inf])
def test_split_policy_rejects_bad_omega(omega):
    with pytest.raises(ParameterError, match="omega"):
        cl.SplitPolicy(mode="log", omega=omega)


def test_half_final_threshold_arithmetic():
    # final degree 8: old set is the first 5 neighbors
    edges = [(u, 1) for u in range(2, 10)]
    g = graph_from(9, edges)
    assert cl.split_times(g, cl.SplitPolicy(mode="half"))[1] == 6  # 5th neighbor


def test_decomposition_identity_both_modes(grown):
    for policy in (cl.SplitPolicy(mode="log"), cl.SplitPolicy(mode="half")):
        report = cl.compute_report(grown, policy)
        gap = np.abs(report.directed.values - (report.old.values + report.new.values))
        assert gap.max() <= 1e-12


def test_every_coefficient_in_unit_interval(grown):
    report = cl.compute_report(grown, cl.SplitPolicy(mode="half"))
    for variant in cl.VARIANTS:
        values = report.variant(variant).values
        assert values.min() >= 0.0
        assert values.max() <= 1.0
    assert 0.0 <= report.global_clustering <= 1.0


def test_vectorized_matches_brute_force(grown):
    policy = cl.SplitPolicy(mode="half")
    oracle = brute_force_clustering(grown, cl.split_times(grown, policy))
    assert report_coefficients(grown, policy) == oracle
    assert len(oracle["directed"]) > 100


@st.composite
def dense_graphs(draw):
    """Birth-ordered graphs on up to 30 vertices holding about half of all pairs."""
    n = draw(st.integers(1, 30))
    pairs = [(s, u) for s in range(2, n + 1) for u in range(1, s)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return graph_from(n, [pair for pair, k in zip(pairs, keep) if k])


@settings(max_examples=60, deadline=None)
@given(graph=dense_graphs(), mode=st.sampled_from(["log", "half"]))
def test_report_matches_brute_force_on_dense_graphs(graph, mode):
    policy = cl.SplitPolicy(mode)
    oracle = brute_force_clustering(graph, cl.split_times(graph, policy))
    assert report_coefficients(graph, policy) == oracle


def _counts_at_budget(graph, t_hat, budget):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cl, "_CHUNK", budget)
        chunks = list(cl._wedge_chunks(graph))
        wedges = np.cumsum(np.concatenate(([0], graph.out_degree[graph.out_targets])))
        for lo, hi in chunks:   # within budget in edges and wedges, or one edge alone
            assert (hi - lo <= budget and wedges[hi] - wedges[lo] <= budget) or hi == lo + 1
        bounds = [0] + [hi for _, hi in chunks]
        assert [lo for lo, _ in chunks] == bounds[:-1] and bounds[-1] == graph.num_edges
        return cl._triangle_counts(graph, t_hat), report_coefficients(graph)


def assert_budget_free(graph, budgets=(1, 2, 3, 64)):
    """The triangle pass gives the same numerators at every wedge budget."""
    t_hat = cl.split_times(graph, cl.SplitPolicy())
    want = cl._triangle_counts(graph, t_hat)
    oracle = brute_force_clustering(graph, t_hat)
    for budget in budgets:
        counts, coefficients = _counts_at_budget(graph, t_hat, budget)
        assert all(np.array_equal(a, b) for a, b in zip(counts, want))
        assert coefficients == oracle


@settings(max_examples=30, deadline=None)
@given(graph=dense_graphs())
def test_triangle_counts_do_not_depend_on_wedge_budget(graph):
    assert_budget_free(graph)


def test_triangle_counts_budget_free_on_grown_graph(grown):
    assert_budget_free(grown)


@pytest.mark.parametrize("n, edges", [
    (5, []),                                               # no edges at all
    (1, []),                                               # one vertex
    # edge 7->6 heads five wedges, more than budgets 1, 2 and 3
    (7, [(2, 1), (6, 1), (6, 2), (6, 3), (6, 4), (6, 5), (7, 1), (7, 3), (7, 6)]),
    # a star into vertex 1: no edge heads a wedge, so only the edge cap cuts chunks
    (70, [(v, 1) for v in range(2, 71)]),
])
def test_triangle_counts_budget_free_edge_cases(n, edges):
    assert_budget_free(graph_from(n, edges))


def test_compute_report_memory_stays_within_edge_budget():
    """compute_report's traced peak stays under 6 int64 arrays of E entries plus 4 MiB.

    The rule is fixed before measuring: besides the graph it may hold
    the sorted edge keys and a few other E-sized arrays, plus temporaries
    bounded by the wedge budget and the n-sized outputs. Listing every
    wedge at once (about eight per edge at this size, held in several
    int64 arrays) breaks it.
    """
    graph = generate(ModelParams(n=20_000, seed=0, **PARAMS))
    budget = 6 * 8 * graph.num_edges + (4 << 20)
    tracemalloc.start()
    try:
        cl.compute_report(graph, cl.SplitPolicy())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < budget, f"peak {peak / 2**20:.1f} MiB over {budget / 2**20:.1f} MiB"


def test_adding_neighbor_edge_increases_coefficient():
    sparse = graph_from(4, [(2, 1), (3, 1), (4, 1), (4, 3)])
    denser = graph_from(4, [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3)])
    assert coefficients(denser, 1)["directed"] > coefficients(sparse, 1)["directed"]


def test_exact_curve_binning():
    edges = [(2, 1), (3, 1), (3, 2), (4, 1), (5, 4), (6, 4), (7, 4), (8, 7)]
    g = graph_from(8, edges)
    curve = cl.curve_from_report(cl.compute_report(g), "directed")
    assert curve[3] == (2, (coefficients(g, 1)["directed"] + coefficients(g, 4)["directed"]) / 2)
    assert 2 not in curve  # no vertex of in-degree exactly 2


def test_curves_match_independent_recomputation(grown):
    report = cl.compute_report(grown)
    curve = cl.curve_from_report(report, "directed")
    values = {}
    for d, c in zip(report.directed.degree, report.directed.values):
        values.setdefault(int(d), []).append(c)
    for d, (count, mean) in curve.items():
        assert count == len(values[d])
        assert mean == pytest.approx(np.mean(values[d]), rel=1e-12)


def test_banded_curve_equals_exact_when_band_is_single_degree(grown):
    report = cl.compute_report(grown)
    exact = cl.curve_from_report(report, "directed")
    banded = cl.banded_curve_from_report(report, "directed", delta=0.1)
    # at d = 2 the band [1.8, 2.2] contains only degree 2
    assert banded[2.0] == exact[2]


def test_banded_curve_brute_force(grown):
    delta = 0.1
    report = cl.compute_report(grown)
    banded = cl.banded_curve_from_report(report, "directed", delta)
    for d, (count, mean) in list(banded.items())[::7]:
        in_degree = report.directed.in_degree
        members = (in_degree >= (1 - delta) * d) & (in_degree <= (1 + delta) * d)
        assert count == members.sum()
        assert mean == pytest.approx(report.directed.values[members].mean(), rel=1e-12)


def test_banded_curve_delta_domain(grown):
    report = cl.compute_report(grown)
    for bad in (0.0, 0.5, -0.1):
        with pytest.raises(ParameterError):
            cl.banded_curve_from_report(report, "directed", bad)


def test_scatter_export(grown):
    """The scatter's (degree, c) pairs are a record's `degree` and `values`, row for row."""
    record = cl.compute_report(grown).directed
    assert record.ids.shape == record.degree.shape == record.values.shape
    # vertices of in-degree 2 whose neighbors are joined appear as (2, 1.0)
    assert ((record.degree == 2) & (record.values == 1.0)).any()


def test_records_bin_and_band_by_their_variants_degree(grown):
    report = cl.compute_report(grown)
    total = grown.in_degree + grown.out_degree
    for variant in cl.VARIANTS:
        record = report.variant(variant)
        binning = total if variant == "undirected" else grown.in_degree
        assert np.array_equal(record.ids, np.flatnonzero(binning[1:] >= 2) + 1)
        assert np.array_equal(record.degree, binning[record.ids])
        assert np.array_equal(record.in_degree, grown.in_degree[record.ids])


def test_unknown_variant_is_a_usage_error(grown):
    report = cl.compute_report(grown)
    with pytest.raises(UsageError, match="unknown variant 'triangles'"):
        report.variant("triangles")
    with pytest.raises(UsageError, match="unknown variant"):
        cl.curve_from_report(report, "triangles")


def test_global_clustering_small_cases():
    triangle = graph_from(3, [(2, 1), (3, 1), (3, 2)])
    assert cl.compute_report(triangle).global_clustering == 1.0
    path = graph_from(3, [(2, 1), (3, 2)])
    assert cl.compute_report(path).global_clustering == 0.0
    lonely = graph_from(2, [])
    assert cl.compute_report(lonely).global_clustering == 0.0


def test_global_clustering_brute_force(grown):
    edge_set = set(zip(grown.edge_sources().tolist(), grown.out_targets.tolist()))
    adjacency = [set() for _ in range(grown.n + 1)]
    for s, t in edge_set:
        adjacency[s].add(t)
        adjacency[t].add(s)
    triangles = wedges = 0
    for v in range(1, grown.n + 1):
        neighbors = sorted(adjacency[v])
        wedges += math.comb(len(neighbors), 2)
        for i, a in enumerate(neighbors):
            for b in neighbors[i + 1 :]:
                if (a, b) in edge_set or (b, a) in edge_set:
                    triangles += 1
    # each triangle is seen once per corner, so this already counts 3T
    got = cl.compute_report(grown).global_clustering
    assert got == pytest.approx(triangles / wedges, rel=1e-12)
