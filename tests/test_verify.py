import functools
from dataclasses import replace

import numpy as np
import pytest

from spagraph import verify
from spagraph.errors import UsageError
from spagraph.generator import GrownGraph, ModelParams, generate
from spagraph.spatial_index import SphereIndex
from spagraph.verify import first_divergent_step, verify_equivalence

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


@pytest.mark.parametrize("field", ["c_old", "c_undirected"])
def test_wrong_clustering_fails_and_names_vertex(monkeypatch, field):
    real = verify.compute_report
    broken = {}

    def perturbed(graph, policy):
        report = real(graph, policy)
        values = getattr(report, field).copy()
        i = values.size // 2
        values[i] += 1e-12
        ids = report.ids_undirected if field == "c_undirected" else report.ids_directed
        broken["vertex"] = int(ids[i])
        return replace(report, **{field: values})

    monkeypatch.setattr(verify, "compute_report", perturbed)
    report = verify_equivalence(ModelParams(n=300, seed=0, **PARAMS), seeds=[0])
    kind = "undirected" if field == "c_undirected" else "directed"
    assert not report.passed
    assert report.results[0].detail == (
        f"{kind} clustering differs at vertex {broken['vertex']}"
    )


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
    placed = GrownGraph.from_edges(params, [(2, 1), (3, 1)], np.full((4, 2), 0.5))
    assert first_divergent_step(graph, placed) == (1, "positions missing in one run")
    assert first_divergent_step(placed, graph) == (1, "positions missing in one run")
