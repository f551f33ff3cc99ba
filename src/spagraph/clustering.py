"""Local clustering coefficients and their old/new decomposition.

The directed coefficient of v counts directed edges among v's in-neighbors
over C(deg^-, 2); the undirected variant treats all edges as undirected.
Edges among in-neighbors split exactly into "old" (target joined v's
neighborhood before v's degree crossed a threshold) and "new" (the rest),
giving c = c_old + c_new per vertex.

Vertices below degree 2 have an undefined coefficient and are excluded
from every average. Every edge points from the younger vertex to the
older, so each triangle x < y < z is the edges z->y, z->x and y->x, and
all three numerators come from one vectorized enumeration of triangles:
for every edge z->y and every x in out(y), one lookup in the sorted edge
keys asks whether z->x exists (the "forward" listing of Schank and
Wagner, 2005). A triangle is one edge among x's in-neighbors (old when
y joined before x's split time) and one neighborhood edge of each of x,
y and z in the undirected view. The pass walks the edges in chunks of
at most `_CHUNK` edges and `_CHUNK` wedges and builds only the keys each
chunk looks up, so its temporaries do not grow with the graph.
`compute_report` builds every coefficient from that pass; its exact
oracle is the exhaustive pair enumeration `verify.brute_force_clustering`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UsageError
from .generator import GrownGraph

VARIANTS = ("directed", "undirected", "old", "new")

_CHUNK = 1 << 16   # at most this many edges and wedges per triangle-pass chunk


def default_omega(n: int) -> float:
    """Slowly growing threshold scale used wherever one is required."""
    return math.log(math.log(n)) if n > 15 else 1.0


def check_omega(omega: float | None) -> None:
    """Reject an explicit omega that is not a finite positive number."""
    if omega is not None and not (math.isfinite(omega) and omega > 0):
        raise ParameterError(f"omega must be finite and > 0, got {omega}")


@dataclass(frozen=True)
class SplitPolicy:
    """How to pick the time that separates old from new neighbors.

    mode "log": first step where deg^-(v, t) exceeds omega * log(n)
    (omega defaults to log log n). mode "half": first step where it
    exceeds deg^-(v, n) / 2. In both modes the split time is n when the
    threshold is never crossed, making every neighbor old.
    """

    mode: str = "log"
    omega: float | None = None

    def __post_init__(self):
        if self.mode not in ("log", "half"):
            raise ParameterError(f"split mode must be 'log' or 'half', got {self.mode!r}")
        check_omega(self.omega)

    def thresholds(self, graph: GrownGraph) -> np.ndarray:
        """Per-vertex degree threshold (id-indexed, slot 0 unused)."""
        n = graph.n
        if self.mode == "log":
            omega = self.omega if self.omega is not None else default_omega(n)
            value = omega * math.log(n)
            return np.full(n + 1, value)
        return graph.in_degree / 2.0


def split_times(graph: GrownGraph, policy: SplitPolicy) -> np.ndarray:
    """T_hat per vertex: first step its in-degree exceeds the threshold.

    Degree j is reached exactly at the j-th in-neighbor's birth step, so
    the split time is the birth of neighbor floor(threshold)+1, or n when
    the final degree never exceeds the threshold.
    """
    n = graph.n
    thresholds = policy.thresholds(graph)
    needed = np.floor(thresholds).astype(np.int64) + 1
    out = np.full(n + 1, n, dtype=np.int64)
    reached = graph.in_degree >= needed
    idx = graph.in_ptr[:-1][reached] + needed[reached] - 1
    out[reached] = graph.in_sources[idx]
    return out


def _member_of(keys, query_keys):
    """Whether each query key occurs in the sorted array `keys`."""
    pos = np.minimum(np.searchsorted(keys, query_keys), keys.size - 1)
    return keys[pos] == query_keys


def _wedge_chunks(graph: GrownGraph):
    """Yield edge bounds (lo, hi) cutting the edge list into chunks.

    Edge z->y heads the out_degree[y] wedges z->y->x. Wedges are summed
    over windows of _CHUNK edges, and a chunk ends where its wedge count
    would pass _CHUNK or at the window's end, so it holds at most _CHUNK
    edges and _CHUNK wedges, or one edge alone.
    """
    for start in range(0, graph.num_edges, _CHUNK):
        wedges = np.cumsum(graph.out_degree[graph.out_targets[start : start + _CHUNK]])
        lo = 0
        while lo < wedges.size:
            before = int(wedges[lo - 1]) if lo else 0
            hi = max(lo + 1, int(np.searchsorted(wedges, before + _CHUNK, side="right")))
            yield start + lo, start + hi
            lo = hi


def _triangle_counts(
    graph: GrownGraph, t_hat: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-vertex (directed, old, undirected) numerators from one triangle pass.

    Each triangle x < y < z is found once, from edge z->y and x in out(y),
    by one lookup of z->x in the sorted edge keys (see the module
    docstring). A chunk of edges only looks up edges of its own sources,
    so it builds just those keys, and every temporary stays within about
    _CHUNK edges or wedges. Arrays are id-indexed with slot 0 unused.
    """
    n = graph.n
    nk = np.int64(n + 1)
    targets, out_ptr = graph.out_targets, graph.out_ptr
    directed = np.zeros(n + 1, dtype=np.int64)
    old = np.zeros(n + 1, dtype=np.int64)
    undirected = np.zeros(n + 1, dtype=np.int64)
    for lo, hi in _wedge_chunks(graph):
        # keys z * (n + 1) + y of every edge whose source z is in the chunk
        first, last = np.searchsorted(out_ptr, [lo, hi - 1], side="right") - 1
        base = out_ptr[first]
        keys = np.repeat(np.arange(first, last + 1) * nk, graph.out_degree[first : last + 1])
        keys += targets[base : out_ptr[last + 1]]
        y = targets[lo:hi]
        lengths = graph.out_degree[y]
        ends = np.cumsum(lengths)
        owner = np.repeat(np.arange(y.size), lengths)   # edge z->y of each x
        x = targets[np.arange(ends[-1]) + (out_ptr[y + 1] - ends)[owner]]
        query = (keys[lo - base : hi - base] - y)[owner]
        query += x   # z * (n + 1) + x
        hit = _member_of(keys, query)
        x, y, z = x[hit], y[owner[hit]], query[hit] // nk
        np.add.at(directed, x, 1)
        np.add.at(old, x[y <= t_hat[x]], 1)
        np.add.at(undirected, y, 1)
        np.add.at(undirected, z, 1)
    return directed, old, undirected + directed


def _pair_denominator(degree: np.ndarray) -> np.ndarray:
    return degree * (degree - 1) // 2


@dataclass
class ClusteringReport:
    """Per-vertex coefficients for every eligible vertex, plus triangle and wedge totals."""

    ids_directed: np.ndarray       # vertices with deg^- >= 2
    in_degrees: np.ndarray
    c_directed: np.ndarray
    c_old: np.ndarray
    c_new: np.ndarray
    ids_undirected: np.ndarray     # vertices with total degree >= 2
    degrees_undirected: np.ndarray
    in_degrees_undirected: np.ndarray
    c_undirected: np.ndarray
    triangle_numerators_sum: int
    wedge_count: int

    @property
    def global_clustering(self) -> float:
        if self.wedge_count == 0:
            return 0.0
        return self.triangle_numerators_sum / self.wedge_count


def compute_report(
    graph: GrownGraph, policy: SplitPolicy = SplitPolicy()
) -> ClusteringReport:
    """All per-vertex coefficients in one vectorized pass over the graph."""
    t_hat = split_times(graph, policy)
    directed_num, old_num, undirected_num = _triangle_counts(graph, t_hat)

    in_deg = graph.in_degree
    tot_deg = in_deg + graph.out_degree

    dir_mask = in_deg >= 2
    dir_mask[0] = False
    ids_d = np.nonzero(dir_mask)[0]
    pairs_d = _pair_denominator(in_deg[ids_d]).astype(float)
    c_directed = directed_num[ids_d] / pairs_d
    c_old = old_num[ids_d] / pairs_d
    c_new = (directed_num[ids_d] - old_num[ids_d]) / pairs_d

    und_mask = tot_deg >= 2
    und_mask[0] = False
    ids_u = np.nonzero(und_mask)[0]
    pairs_u = _pair_denominator(tot_deg[ids_u]).astype(float)
    c_undirected = undirected_num[ids_u] / pairs_u

    wedges = int(_pair_denominator(tot_deg[1:]).sum())
    return ClusteringReport(
        ids_directed=ids_d,
        in_degrees=in_deg[ids_d],
        c_directed=c_directed,
        c_old=c_old,
        c_new=c_new,
        ids_undirected=ids_u,
        degrees_undirected=tot_deg[ids_u],
        in_degrees_undirected=in_deg[ids_u],
        c_undirected=c_undirected,
        triangle_numerators_sum=int(undirected_num.sum()),
        wedge_count=wedges,
    )


def _variant_values(report: ClusteringReport, variant: str):
    """(ids, degree used for exact binning, values) for one variant."""
    if variant == "directed":
        return report.ids_directed, report.in_degrees, report.c_directed
    if variant == "old":
        return report.ids_directed, report.in_degrees, report.c_old
    if variant == "new":
        return report.ids_directed, report.in_degrees, report.c_new
    if variant == "undirected":
        return report.ids_undirected, report.degrees_undirected, report.c_undirected
    raise UsageError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def curve_from_report(report: ClusteringReport, variant: str) -> dict[int, tuple[int, float]]:
    """Exact-degree curve: degree -> (vertex count, mean coefficient)."""
    _, degrees, values = _variant_values(report, variant)
    if degrees.size == 0:
        return {}
    counts = np.bincount(degrees)
    sums = np.bincount(degrees, weights=values)
    present = np.nonzero(counts)[0]
    return {int(d): (int(counts[d]), float(sums[d] / counts[d])) for d in present}


def band_grid(max_degree: int, ratio: float = 1.1, start: float = 2.0) -> np.ndarray:
    """Geometric grid of band centers covering [start, max_degree]."""
    if max_degree < start:
        return np.empty(0)
    count = int(math.floor(math.log(max_degree / start) / math.log(ratio))) + 1
    return start * ratio ** np.arange(count)


def banded_curve_from_report(
    report: ClusteringReport, variant: str, delta: float = 0.1
) -> dict[float, tuple[int, float]]:
    """Smoothed curve: band center d -> (|X_d|, mean over X_d).

    X_d is the set of eligible vertices whose in-degree lies within
    [(1-delta) d, (1+delta) d]; the same in-degree banding applies to
    every variant, undirected included. Centers run over a geometric
    grid; empty bands are omitted rather than reported as zero.
    """
    if not 0.0 < delta < 0.5:
        raise ParameterError(f"delta must be in (0, 1/2), got {delta}")
    ids, _, values = _variant_values(report, variant)
    if ids.size == 0:
        return {}
    in_degrees = (
        report.in_degrees_undirected if variant == "undirected" else report.in_degrees
    )
    order = np.argsort(in_degrees, kind="stable")
    sorted_deg = in_degrees[order]
    prefix = np.concatenate(([0.0], np.cumsum(values[order])))
    curve: dict[float, tuple[int, float]] = {}
    for d in band_grid(int(sorted_deg[-1])):
        lo = np.searchsorted(sorted_deg, (1.0 - delta) * d, side="left")
        hi = np.searchsorted(sorted_deg, (1.0 + delta) * d, side="right")
        if hi > lo:
            curve[float(d)] = (int(hi - lo), float((prefix[hi] - prefix[lo]) / (hi - lo)))
    return curve


def scatter_from_report(report: ClusteringReport, variant: str) -> np.ndarray:
    """(degree, coefficient) per eligible vertex, as a (k, 2) float array."""
    _, degrees, values = _variant_values(report, variant)
    return np.column_stack((degrees.astype(float), values))
