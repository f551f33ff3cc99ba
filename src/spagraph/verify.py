"""Equivalence harness: fast generator against the linear-scan reference.

Runs the generator under test (`generate` unless the caller passes
another) and `generate_naive` from the same seed and demands
bit-identical positions and edges, which fix every degree; then
recomputes every clustering coefficient with the one exhaustive
pair-enumeration oracle, `brute_force_clustering`, and compares it
exactly with the vectorized `compute_report`. Any generation mismatch
is reported with the first divergent growth step.

The naive generator costs O(n^2) time and the oracle's dense adjacency
matrix (n + 1)^2 bytes, so `VERIFY_GUARD` caps n at 5000 (25 MB). At
n = 2000 one seed takes about 0.16 s in a warm process on a 2-vCPU Xeon VM:
0.08 s in the naive generator, 0.04 s in the vertex-centric one and
0.03 s in the oracle. Beyond the guard, `vertex_walk` derives one
vertex's in-neighbours exactly from the positions and the coin stream,
at any n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .clustering import VARIANTS, SplitPolicy, compute_report, split_times
from .errors import UsageError
from .generator import GrownGraph, ModelParams, generate, generate_naive, sphere_volume
from .geometry import needed_volume
from .rng import CounterStream

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
    Runs of different n are compared over their common steps; if those
    agree, the first step only one of them took differs.
    """
    if (fast.positions is None) != (reference.positions is None):
        return 1, "positions missing in one run"
    placed = fast.positions is not None
    if ((not placed or np.array_equal(fast.positions[1:], reference.positions[1:]))
            and np.array_equal(fast.out_ptr, reference.out_ptr)
            and np.array_equal(fast.out_targets, reference.out_targets)):
        return None
    common = min(fast.n, reference.n)
    for t in range(1, common + 1):
        if placed and not np.array_equal(fast.positions[t], reference.positions[t]):
            return t, "positions differ"
        if not np.array_equal(fast.out_neighbors(t), reference.out_neighbors(t)):
            return t, (
                f"out-edges differ: {fast.out_neighbors(t).tolist()} vs "
                f"{reference.out_neighbors(t).tolist()}"
            )
    if fast.n != reference.n:
        return common + 1, f"run under test has n = {fast.n}, reference n = {reference.n}"
    return None


def vertex_walk(params: ModelParams, positions: np.ndarray, v: int) -> np.ndarray:
    """In-neighbours of vertex v, ascending, from the model's definition alone.

    Step t > v links to v when v's sphere at time t - 1, at v's in-degree
    so far, holds x_t and the coin at (t, v) is heads. Steps are scanned
    in windows [s, 2s]: the numpy pass keeps the steps covered at a degree
    bound 2k + 16 that no degree tested in the window exceeds, and the
    scan restarts after a step that takes the degree past it, so a vertex
    of final in-degree d costs O(n log d). Shares only `needed_volume`,
    `sphere_volume` and `CounterStream` with `generate`, so it checks the
    grid walk at any n.
    """
    n = params.n
    heads = CounterStream(params.seed).heads(params.p)
    arrivals: list[int] = []
    s = v + 1
    while s <= n:
        bound = 2 * len(arrivals) + 16
        steps = np.arange(s, min(2 * s, n) + 1)
        # needed_volume is symmetric bit for bit, so v may sit on either side
        q = needed_volume(positions[steps], positions[v], params.norm)
        tm1 = (steps - 1).astype(float)
        near = q <= sphere_volume(bound, tm1, params)
        s = int(steps[-1]) + 1
        for t, q_t, t_1 in zip(steps[near].tolist(), q[near].tolist(), tm1[near].tolist()):
            if q_t <= sphere_volume(len(arrivals), t_1, params) and heads(t, v):
                arrivals.append(t)
                if len(arrivals) > bound:
                    s = t + 1
                    break
    return np.array(arrivals, dtype=np.int64)


def brute_force_clustering(graph: GrownGraph, t_hat: np.ndarray) -> dict:
    """Exhaustive pair enumeration; the oracle `compute_report` is held to.

    `t_hat` holds the id-indexed split times (see `split_times`). Returns
    {variant: {v: c}} over the vertices where each variant is defined.

    Every pair of v's in-neighbours (and, for the undirected coefficient,
    of its in- and out-neighbours) is looked up in a dense bool adjacency
    matrix, one block per vertex, so the oracle shares nothing with
    `compute_report`'s triangle listing. The matrix takes (n + 1)^2 bytes:
    4 MB at n = 2000 and 25 MB at VERIFY_GUARD. At n = 2000 the whole
    pass takes about 0.03 s.
    """
    adj = np.zeros((graph.n + 1, graph.n + 1), dtype=bool)
    adj[graph.edge_sources(), graph.out_targets] = True
    result = {variant: {} for variant in VARIANTS}
    in_ptr, out_ptr = graph.in_ptr.tolist(), graph.out_ptr.tolist()
    for v in range(1, graph.n + 1):
        incoming = graph.in_sources[in_ptr[v] : in_ptr[v + 1]]
        if incoming.size >= 2:
            pairs = math.comb(incoming.size, 2)
            hits = adj[incoming][:, incoming]   # hits[i, j]: edge incoming[i] -> incoming[j]
            total = int(np.count_nonzero(hits))
            old = int(np.count_nonzero(hits[:, incoming <= t_hat[v]]))
            result["directed"][v] = total / pairs
            result["old"][v] = old / pairs
            result["new"][v] = (total - old) / pairs
        # out-neighbours are older than v and in-neighbours younger: the lists are disjoint
        neighborhood = np.concatenate((graph.out_targets[out_ptr[v] : out_ptr[v + 1]], incoming))
        if neighborhood.size >= 2:
            hits = adj[neighborhood][:, neighborhood]
            count = int(np.count_nonzero(hits | hits.T)) // 2   # no self-loops: each pair twice
            result["undirected"][v] = count / math.comb(neighborhood.size, 2)
    return result


def _clustering_mismatch(graph: GrownGraph) -> str | None:
    """The first variant and vertex where `compute_report` and the oracle disagree."""
    policy = SplitPolicy(mode="half")
    report = compute_report(graph, policy)
    oracle = brute_force_clustering(graph, split_times(graph, policy))
    for variant in VARIANTS:
        record = report.variant(variant)
        got, want = dict(zip(record.ids.tolist(), record.values.tolist())), oracle[variant]
        if got != want:
            v = min(v for v in got.keys() | want.keys() if got.get(v) != want.get(v))
            if v not in want:
                return f"{variant} clustering reported at vertex {v}, where it is undefined"
            return f"{variant} clustering differs at vertex {v}"
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
        problem = _clustering_mismatch(fast)
        results.append(SeedVerification(seed, problem is None, None, problem or ""))
    return VerifyReport(results=tuple(results))
