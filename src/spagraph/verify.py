"""Equivalence harness: fast generator against the linear-scan reference.

Runs the generator under test (`generate` unless the caller passes
another) and `generate_naive` from the same seed, demands bit-identical
positions and edges (which fix every degree) or names the first divergent
growth step, then compares every clustering coefficient of `compute_report`
exactly with the exhaustive pair-counting oracle `brute_force_clustering`.

`VERIFY_GUARD` caps n at 5000 by time, not memory: one seed at the guard
takes 0.4-0.5 s in a warm process on a 2-vCPU Xeon VM, most of it in the
O(n^2) naive generator, and the oracle peaks at 5.4 MB. At n = 2000 a seed
takes 0.13-0.17 s: 0.07-0.08 s naive, 0.04-0.05 s vertex-centric and
0.02 s in the oracle. Beyond the guard, `vertex_walk` derives one vertex's
in-neighbours exactly from the positions and the coin stream, at any n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .clustering import VARIANTS, SplitPolicy, compute_report, split_times
from .errors import UsageError
from .generator import (
    GrownGraph, ModelParams, check_vertex, generate, generate_naive, sphere_volume,
)
from .geometry import needed_volume
from .rng import LANE_COIN, CounterStream

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
    that differ are walked step by step to name the first step. Runs of
    different n are compared over their common steps; if those agree, the
    first step only one of them took differs.
    """
    if (np.array_equal(fast.positions[1:], reference.positions[1:])
            and np.array_equal(fast.out_ptr, reference.out_ptr)
            and np.array_equal(fast.out_targets, reference.out_targets)):
        return None
    common = min(fast.n, reference.n)
    for t in range(1, common + 1):
        if not np.array_equal(fast.positions[t], reference.positions[t]):
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
    so far, holds x_t and the coin at (t, v) is heads: its uniform is < p.
    Steps are scanned in windows [s, 2s]: the numpy pass keeps the steps
    covered at a degree bound 2k + 16 that no degree tested in the window
    exceeds, draws their coins in one call, and the scan restarts after a
    step that takes the degree past the bound, so a vertex of final
    in-degree d costs O(n log d). Shares only `needed_volume`,
    `sphere_volume` and the `CounterStream` words with `generate`, not its
    integer coin test, so it checks the grid walk at any n.
    """
    n = params.n
    check_vertex(n, v)
    stream = CounterStream(params.seed)
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
        ts = steps[near].tolist()
        heads = stream.uniforms(LANE_COIN, ts, [v] * len(ts)) < params.p
        for t, q_t, t_1, head in zip(ts, q[near].tolist(), tm1[near].tolist(), heads.tolist()):
            if q_t <= sphere_volume(len(arrivals), t_1, params) and head:
                arrivals.append(t)
                if len(arrivals) > bound:
                    s = t + 1
                    break
    return np.array(arrivals, dtype=np.int64)


def _bitset(members) -> int:
    """The int with bit m set for each m in `members`."""
    bits = 0
    for m in members:
        bits |= 1 << m
    return bits


def brute_force_clustering(graph: GrownGraph, t_hat: np.ndarray) -> dict:
    """Exhaustive pair counting; the oracle `compute_report` is held to.

    `t_hat` holds the id-indexed split times (see `split_times`), shape
    (n + 1,) or UsageError. Returns {variant: {v: c}} over the vertices
    where each variant is defined. Over Python-int bitsets out(v), in(v)
    (each built from v's own slice of `out_targets` or `in_sources`) and
    N(v) = out(v) | in(v), v's linked in-neighbour pairs number
    sum_{y in in(v)} popcount(out(y) & in(v)), the old ones the same with the
    bits above t_hat[v] masked off, and its linked neighbour pairs
    sum_{a in N(v)} popcount(out(a) & N(v)): edges run young to old, so each
    is counted once. Nothing is shared with `compute_report`'s triangle
    listing. The bitsets take about 3n^2/16 bytes, 4.7 MB at VERIFY_GUARD.
    """
    if np.shape(t_hat) != (graph.n + 1,):
        raise UsageError(f"t_hat must have shape ({graph.n + 1},), got {np.shape(t_hat)}")
    out_ptr, in_ptr = graph.out_ptr.tolist(), graph.in_ptr.tolist()
    # views, so no edge-sized list of Python ints is made: a slice yields ints as read
    targets, sources = memoryview(graph.out_targets), memoryview(graph.in_sources)
    out = [_bitset(targets[out_ptr[v] : out_ptr[v + 1]]) for v in range(graph.n + 1)]
    into = [_bitset(sources[in_ptr[v] : in_ptr[v + 1]]) for v in range(graph.n + 1)]
    result = {variant: {} for variant in VARIANTS}
    for v, split in enumerate(np.asarray(t_hat).tolist()[1:], start=1):
        incoming = sources[in_ptr[v] : in_ptr[v + 1]].tolist()
        if len(incoming) >= 2:
            pairs = math.comb(len(incoming), 2)
            arrived = into[v] & ((2 << math.floor(split)) - 1)   # the bits z <= t_hat[v]
            total = old = 0
            for y in incoming:
                total += (out[y] & into[v]).bit_count()
                old += (out[y] & arrived).bit_count()
            result["directed"][v] = total / pairs
            result["old"][v] = old / pairs
            result["new"][v] = (total - old) / pairs
        # out-neighbours are older than v and in-neighbours younger: the lists are disjoint
        neighborhood = targets[out_ptr[v] : out_ptr[v + 1]].tolist() + incoming
        if len(neighborhood) >= 2:
            around = out[v] | into[v]
            count = 0
            for a in neighborhood:
                count += (out[a] & around).bit_count()
            result["undirected"][v] = count / math.comb(len(neighborhood), 2)
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
    # ModelParams rejects a seed that is not an integer before any run starts
    models = [replace(params, seed=seed) for seed in seeds]
    if not models:
        raise UsageError("no seeds to verify")
    run = generate if generator is None else generator
    results = []
    for seeded in models:
        fast = run(seeded)
        reference = generate_naive(seeded)
        divergence = first_divergent_step(fast, reference)
        if divergence is not None:
            step, detail = divergence
            results.append(SeedVerification(seeded.seed, False, step, detail))
            continue
        problem = _clustering_mismatch(fast)
        results.append(SeedVerification(seeded.seed, problem is None, None, problem or ""))
    return VerifyReport(results=tuple(results))
