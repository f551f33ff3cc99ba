import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spagraph import clustering as cl
from spagraph.errors import ParameterError
from spagraph.generator import GrownGraph, ModelParams, generate
from spagraph.verify import brute_force_clustering

PARAMS = dict(p=0.7, a1=1.0, a2=30 / 7)


def graph_from(n, edges):
    return GrownGraph.from_edges(ModelParams(n=n, **PARAMS), edges)


def report_coefficients(graph, policy=cl.SplitPolicy()):
    """{v: (c_directed, c_old, c_new, c_undirected)} from compute_report, None where undefined."""
    report = cl.compute_report(graph, policy)
    directed = {
        v: (c, o, w)
        for v, c, o, w in zip(report.ids_directed.tolist(), report.c_directed,
                              report.c_old, report.c_new)
    }
    undirected = dict(zip(report.ids_undirected.tolist(), report.c_undirected))
    return {
        v: (*directed.get(v, (None, None, None)), undirected.get(v))
        for v in range(1, graph.n + 1)
    }


def coefficients(graph, v, policy=cl.SplitPolicy()):
    """v's coefficients from compute_report, checked against the oracle first."""
    got = report_coefficients(graph, policy)
    assert got == brute_force_clustering(graph, cl.split_times(graph, policy))
    return got[v]


@pytest.fixture(scope="module")
def grown():
    return generate(ModelParams(n=2000, seed=17, **PARAMS))


def test_single_pair_with_edge():
    # v=1 has in-neighbors {2, 3} and 3 -> 2 exists
    g = graph_from(3, [(2, 1), (3, 1), (3, 2)])
    assert coefficients(g, 1)[0] == 1.0


def test_single_pair_without_edge():
    g = graph_from(3, [(2, 1), (3, 1)])
    assert coefficients(g, 1)[0] == 0.0


def test_four_in_neighbors_three_edges():
    # hub 1 with in-neighbors {2,3,4,5}; 3 edges among them -> 3 / C(4,2)
    edges = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 4), (6, 5), (7, 6)]
    g = graph_from(7, edges)
    assert coefficients(g, 1)[0] == 0.5


def test_low_degree_undefined():
    g = graph_from(3, [(2, 1)])
    assert coefficients(g, 1)[0] is None
    assert coefficients(g, 3)[3] is None


def test_undirected_triangle_and_star():
    g = graph_from(3, [(2, 1), (3, 1), (3, 2)])
    for v in (1, 2, 3):
        assert coefficients(g, v)[3] == 1.0
    star = graph_from(4, [(2, 1), (3, 1), (4, 1)])
    assert coefficients(star, 1)[3] == 0.0


def test_zero_out_degree_vertices_equal_views(grown):
    report = cl.compute_report(grown)
    directed = dict(zip(report.ids_directed.tolist(), report.c_directed))
    undirected = dict(zip(report.ids_undirected.tolist(), report.c_undirected))
    checked = 0
    for v in report.ids_directed.tolist():
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
    c_directed, c_old, c_new, _ = coefficients(g, 1, policy)
    assert c_new == 1 / math.comb(6, 2)
    assert c_old == 0.0
    assert c_directed == c_old + c_new


def test_split_threshold_never_reached_makes_everything_old():
    edges = [(2, 1), (3, 1), (3, 2)]
    g = graph_from(3, edges)
    policy = cl.SplitPolicy(mode="log", omega=100.0)  # unreachable threshold
    assert cl.split_times(g, policy)[1] == g.n
    c_directed, c_old, c_new, _ = coefficients(g, 1, policy)
    assert c_new == 0.0
    assert c_old == c_directed


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
        gap = np.abs(report.c_directed - (report.c_old + report.c_new))
        assert gap.max() <= 1e-12


def test_every_coefficient_in_unit_interval(grown):
    report = cl.compute_report(grown, cl.SplitPolicy(mode="half"))
    for values in (report.c_directed, report.c_old, report.c_new, report.c_undirected):
        assert values.min() >= 0.0
        assert values.max() <= 1.0
    assert 0.0 <= report.global_clustering <= 1.0


def test_vectorized_matches_brute_force(grown):
    policy = cl.SplitPolicy(mode="half")
    oracle = brute_force_clustering(grown, cl.split_times(grown, policy))
    assert report_coefficients(grown, policy) == oracle
    assert sum(c[0] is not None for c in oracle.values()) > 100


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
        bounds = cl._wedge_chunks(graph)
        wedges = np.cumsum(np.concatenate(([0], graph.out_degree[graph.out_targets])))
        for lo, hi in zip(bounds, bounds[1:]):   # within budget, or one edge alone
            assert wedges[hi] - wedges[lo] <= budget or hi == lo + 1
        assert bounds[0] == 0 and bounds[-1] == graph.num_edges
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
    assert coefficients(denser, 1)[0] > coefficients(sparse, 1)[0]


def test_exact_curve_binning():
    edges = [(2, 1), (3, 1), (3, 2), (4, 1), (5, 4), (6, 4), (7, 4), (8, 7)]
    g = graph_from(8, edges)
    curve = cl.curve_from_report(cl.compute_report(g), "directed")
    assert curve[3] == (2, (coefficients(g, 1)[0] + coefficients(g, 4)[0]) / 2)
    assert 2 not in curve  # no vertex of in-degree exactly 2


def test_curves_match_independent_recomputation(grown):
    report = cl.compute_report(grown)
    curve = cl.curve_from_report(report, "directed")
    values = {}
    for v, d, c in zip(report.ids_directed, report.in_degrees, report.c_directed):
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
        members = (report.in_degrees >= (1 - delta) * d) & (
            report.in_degrees <= (1 + delta) * d
        )
        assert count == members.sum()
        assert mean == pytest.approx(report.c_directed[members].mean(), rel=1e-12)


def test_banded_curve_delta_domain(grown):
    report = cl.compute_report(grown)
    for bad in (0.0, 0.5, -0.1):
        with pytest.raises(ParameterError):
            cl.banded_curve_from_report(report, "directed", bad)


def test_scatter_export(grown):
    report = cl.compute_report(grown)
    scatter = cl.scatter_from_report(report, "directed")
    assert scatter.shape == (report.ids_directed.size, 2)
    degree_two_perfect = scatter[(scatter[:, 0] == 2) & (scatter[:, 1] == 1.0)]
    # vertices of in-degree 2 whose neighbors are joined appear as (2, 1.0)
    assert degree_two_perfect.size > 0


def test_global_clustering_small_cases():
    triangle = graph_from(3, [(2, 1), (3, 1), (3, 2)])
    assert cl.compute_report(triangle).global_clustering == 1.0
    path = graph_from(3, [(2, 1), (3, 2)])
    assert cl.compute_report(path).global_clustering == 0.0
    lonely = graph_from(2, [])
    assert cl.compute_report(lonely).global_clustering == 0.0


def test_global_clustering_brute_force(grown):
    edge_set = set(grown.iter_edges())
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
