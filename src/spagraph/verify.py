"""Equivalence harness: fast generator against the linear-scan reference.

Runs the generator under test (`generate` unless the caller passes
another) and `generate_naive` from the same seed and demands
bit-identical positions, edges, and degrees; then recomputes every
clustering coefficient with the one exhaustive pair-enumeration oracle,
`brute_force_clustering`, and compares it exactly with the vectorized
`compute_report`. Any generation mismatch is reported with the first
divergent growth step.

The naive generator costs O(n^2) time and the oracle's dense adjacency
matrix (n + 1)^2 bytes, so `VERIFY_GUARD` caps n at 5000 (25 MB).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .clustering import SplitPolicy, compute_report, split_times
from .errors import UsageError
from .generator import GrownGraph, ModelParams, generate, generate_naive

VERIFY_GUARD = 5000


@dataclass(frozen=True)
class SeedVerification:
    seed: int
    ok: bool
    first_divergent_step: int | None = None
    detail: str = ""


@dataclass(frozen=True)
class VerifyReport:
    results: tuple[SeedVerification, ...]

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.results)

    def summary(self) -> str:
        lines = []
        for r in self.results:
            if r.ok:
                lines.append(f"seed {r.seed}: ok")
            else:
                where = f" at step {r.first_divergent_step}" if r.first_divergent_step else ""
                lines.append(f"seed {r.seed}: MISMATCH{where}: {r.detail}")
        return "\n".join(lines)


def first_divergent_step(fast: GrownGraph, reference: GrownGraph) -> tuple[int, str] | None:
    """Earliest growth step at which the two runs differ, if any.

    Equal runs are recognised by three whole-array comparisons; only runs
    that differ are walked step by step to name the first step. Runs that
    both lack positions (from `from_edges` or a file without them) are
    compared by their edges alone; if only one lacks them, step 1 differs.
    """
    if (fast.positions is None) != (reference.positions is None):
        return 1, "positions missing in one run"
    placed = fast.positions is not None
    if ((not placed or np.array_equal(fast.positions[1:], reference.positions[1:]))
            and np.array_equal(fast.out_ptr, reference.out_ptr)
            and np.array_equal(fast.out_targets, reference.out_targets)):
        return None
    for t in range(1, reference.n + 1):
        if placed and not np.array_equal(fast.positions[t], reference.positions[t]):
            return t, "positions differ"
        if not np.array_equal(fast.out_neighbors(t), reference.out_neighbors(t)):
            return t, (
                f"out-edges differ: {fast.out_neighbors(t).tolist()} vs "
                f"{reference.out_neighbors(t).tolist()}"
            )
    return None


def brute_force_clustering(graph: GrownGraph, t_hat: np.ndarray) -> dict:
    """Exhaustive pair enumeration; the oracle `compute_report` is held to.

    `t_hat` holds the id-indexed split times (see `split_times`). Returns
    {v: (c_directed, c_old, c_new, c_undirected)} for every vertex, with
    None where a coefficient is undefined.

    Every pair of v's in-neighbours (and, for the undirected coefficient,
    of its in- and out-neighbours) is looked up in a dense bool adjacency
    matrix, so the oracle shares nothing with `compute_report`'s triangle
    listing. The matrix takes (n + 1)^2 bytes: 4 MB at n = 2000 and 25 MB
    at VERIFY_GUARD.
    """
    adj = np.zeros((graph.n + 1, graph.n + 1), dtype=bool)
    adj[graph.edge_sources(), graph.out_targets] = True
    result = {}
    for v in range(1, graph.n + 1):
        incoming = graph.in_neighbors(v)
        c_directed = c_old = c_new = None
        if incoming.size >= 2:
            pairs = math.comb(incoming.size, 2)
            hits = adj[np.ix_(incoming, incoming)]   # hits[i, j]: edge incoming[i] -> incoming[j]
            total = int(np.count_nonzero(hits))
            old = int(np.count_nonzero(hits[:, incoming <= t_hat[v]]))
            c_directed, c_old, c_new = total / pairs, old / pairs, (total - old) / pairs
        neighborhood = np.union1d(incoming, graph.out_neighbors(v))
        c_undirected = None
        if neighborhood.size >= 2:
            hits = adj[np.ix_(neighborhood, neighborhood)]
            count = int(np.count_nonzero(np.triu(hits | hits.T, 1)))
            c_undirected = count / math.comb(neighborhood.size, 2)
        result[v] = (c_directed, c_old, c_new, c_undirected)
    return result


def _clustering_mismatch(graph: GrownGraph) -> str | None:
    policy = SplitPolicy(mode="half")
    report = compute_report(graph, policy)
    oracle = brute_force_clustering(graph, split_times(graph, policy))
    directed = {int(v): (c, o, w) for v, c, o, w in zip(
        report.ids_directed, report.c_directed, report.c_old, report.c_new)}
    undirected = {int(v): c for v, c in zip(report.ids_undirected, report.c_undirected)}
    for v, (c_directed, c_old, c_new, c_undirected) in oracle.items():
        if c_directed is not None:
            if directed.get(v) != (c_directed, c_old, c_new):
                return f"directed clustering differs at vertex {v}"
        elif v in directed:
            return f"vertex {v} reported despite in-degree < 2"
        if c_undirected is not None and undirected.get(v) != c_undirected:
            return f"undirected clustering differs at vertex {v}"
    return None


def verify_equivalence(params: ModelParams, seeds, generator=None) -> VerifyReport:
    """Run every seed through `generator` and the naive generator and compare exactly.

    `generator(params)` is the run under test. None means this module's
    `generate`, looked up at call time, so a harness that swaps that
    attribute is what gets verified.
    """
    if params.n > VERIFY_GUARD:
        raise UsageError(f"n={params.n} exceeds the verification guard {VERIFY_GUARD}")
    run = generate if generator is None else generator
    results = []
    for seed in seeds:
        seeded = replace(params, seed=int(seed))
        fast = run(seeded)
        reference = generate_naive(seeded)
        divergence = first_divergent_step(fast, reference)
        if divergence is not None:
            step, detail = divergence
            results.append(SeedVerification(seed, False, step, detail))
            continue
        if not np.array_equal(fast.in_degree, reference.in_degree):
            problem = "in-degrees differ"
        else:
            problem = _clustering_mismatch(fast)
        results.append(SeedVerification(seed, problem is None, None, problem or ""))
    return VerifyReport(results=tuple(results))
