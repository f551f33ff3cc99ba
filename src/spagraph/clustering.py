"""Local clustering coefficients and their old/new decomposition.

The directed coefficient of v counts directed edges among v's in-neighbors
over C(deg^-, 2); the undirected variant treats all edges as undirected.
Edges among in-neighbors split exactly into "old" (target joined v's
neighborhood before v's degree crossed a threshold) and "new" (the rest),
giving c = c_old + c_new per vertex.

Vertices below degree 2 have an undefined coefficient and are excluded
from every average. Every edge points from the younger vertex to the
older, so each triangle x < y < z is the edges z->y, z->x and y->x.
`_triangles` is the one triangle listing: for every edge z->y and every
x in out(y), one lookup in the sorted edge keys asks whether z->x exists
(the "forward" listing of Schank and Wagner, 2005), and each triangle
comes out once, as a row of the (x, y, z) arrays it yields. Before the
lookups, a 64-bit signature of out(z), with bit t & 63 set for each of
its targets t, drops every wedge whose bit x & 63 is clear: such an x
is not in out(z), so the listing stays exact while skipping about half
of the lookups on the acceptance model. It walks the edges in chunks of
at most `_CHUNK` edges and `_CHUNK` wedges and builds only the keys and
signatures each chunk reads, so its temporaries do not grow with the
graph. It sums nothing and knows no split times: `compute_report` does
all the counting. A triangle is one edge among x's in-neighbors (old
when y joined before x's split time) and one neighborhood edge of each
of x, y and z in the undirected view. The exact oracle for the
counts is the exhaustive pair enumeration `verify.brute_force_clustering`.

A curve C(d), exact by degree, banded by in-degree or pooled over graphs,
is one `Curve(d, count, mean)` record of arrays that the CSV writers and
the fits in `stats` read as they are.
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


def _triangles(graph: GrownGraph):
    """Yield one (x, y, z) tuple of int64 arrays per chunk of `_wedge_chunks`.

    Across all chunks every triangle x < y < z appears exactly once,
    found from edge z->y and x in out(y) by one lookup of z->x in the
    sorted edge keys (see the module docstring). A wedge whose bit
    x & 63 is clear in z's out-list signature cannot close, so it is
    dropped before the lookup. A chunk of edges only looks up edges of
    its own sources, so it builds just those keys and signatures, and
    every temporary stays within about _CHUNK edges or wedges and is
    freed before the chunk's triangles are yielded.
    """
    for lo, hi in _wedge_chunks(graph):
        yield _chunk_triangles(graph, lo, hi)


def _chunk_triangles(graph: GrownGraph, lo: int, hi: int):
    """(x, y, z) of the triangles closed by edges lo..hi-1, as `_triangles` lists them."""
    nk = np.int64(graph.n + 1)
    targets, out_ptr = graph.out_targets, graph.out_ptr
    # the edges of every source first..last of the chunk, from edge base
    first, last = np.searchsorted(out_ptr, [lo, hi - 1], side="right") - 1
    base = out_ptr[first]
    degree = graph.out_degree[first : last + 1]
    source = np.repeat(np.arange(first, last + 1), degree)
    linked = targets[base : out_ptr[last + 1]]
    # keys z * (n + 1) + y ascending, then a sentinel above every query
    keys = np.empty(source.size + 1, dtype=np.int64)
    np.multiply(source, nk, out=keys[:-1])
    keys[:-1] += linked
    keys[-1] = np.iinfo(np.int64).max
    # z's signature sets bit t & 63 for every t in out(z); reduceat
    # needs nonempty segments, so a source without out-edges keeps 0
    bit = np.uint64(1) << (linked & 63).view(np.uint64)
    busy = degree > 0
    signature = np.zeros(degree.size, dtype=np.uint64)
    signature[busy] = np.bitwise_or.reduceat(bit, out_ptr[first : last + 1][busy] - base)
    y, z = targets[lo:hi], source[lo - base : hi - base]
    lengths = graph.out_degree[y]
    ends = np.cumsum(lengths)
    owner = np.repeat(np.arange(y.size), lengths)   # edge z->y of each x
    x = targets[np.arange(ends[-1]) + (out_ptr[y + 1] - ends)[owner]]
    # wedge z->y->x can close only where z's signature has bit x & 63
    closable = (x & 63).view(np.uint64)
    np.left_shift(np.uint64(1), closable, out=closable)
    closable &= signature[z - first][owner]
    kept = np.flatnonzero(closable != 0)
    x, owner = x[kept], owner[kept]
    query = z[owner] * nk + x
    hit = np.flatnonzero(keys[np.searchsorted(keys, query)] == query)
    owner = owner[hit]
    return x[hit], y[owner], z[owner]


def _pair_denominator(degree: np.ndarray) -> np.ndarray:
    return degree * (degree - 1) // 2


@dataclass(frozen=True)
class Coefficients:
    """One variant's coefficient at every vertex where it is defined, by ascending id.

    `degree` is the degree exact curves bin by (in-degree, or total
    degree for the undirected variant); `in_degree` is the degree banded
    curves use for every variant.
    """

    ids: np.ndarray
    degree: np.ndarray
    in_degree: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class ClusteringReport:
    """One `Coefficients` record per variant, plus triangle and wedge totals."""

    directed: Coefficients     # vertices with deg^- >= 2
    undirected: Coefficients   # vertices with total degree >= 2
    old: Coefficients
    new: Coefficients
    triangle_numerators_sum: int
    wedge_count: int

    def variant(self, name: str) -> Coefficients:
        if name not in VARIANTS:
            raise UsageError(f"unknown variant {name!r}; expected one of {VARIANTS}")
        return getattr(self, name)

    @property
    def global_clustering(self) -> float:
        if self.wedge_count == 0:
            return 0.0
        return self.triangle_numerators_sum / self.wedge_count


def compute_report(
    graph: GrownGraph, policy: SplitPolicy = SplitPolicy()
) -> ClusteringReport:
    """All per-vertex coefficients, counted from one listing of the triangles."""
    t_hat = split_times(graph, policy)
    directed_num, old_num, undirected_num = (
        np.zeros(graph.n + 1, dtype=np.int64) for _ in range(3)
    )
    for x, y, z in _triangles(graph):
        np.add.at(directed_num, x, 1)
        np.add.at(old_num, x[y <= t_hat[x]], 1)
        np.add.at(undirected_num, y, 1)
        np.add.at(undirected_num, z, 1)
    undirected_num += directed_num
    in_deg = graph.in_degree
    tot_deg = in_deg + graph.out_degree

    def records(degree, *numerators):
        """A record per numerator array, over the vertices of `degree` >= 2."""
        ids = np.flatnonzero(degree[1:] >= 2) + 1
        binned, banded = degree[ids], in_deg[ids]
        pairs = _pair_denominator(binned).astype(float)
        return [Coefficients(ids, binned, banded, num[ids] / pairs) for num in numerators]

    directed, old, new = records(in_deg, directed_num, old_num, directed_num - old_num)
    (undirected,) = records(tot_deg, undirected_num)
    return ClusteringReport(
        directed=directed,
        undirected=undirected,
        old=old,
        new=new,
        triangle_numerators_sum=int(undirected_num.sum()),
        wedge_count=int(_pair_denominator(tot_deg[1:]).sum()),
    )


@dataclass(frozen=True)
class Curve:
    """Vertex count and mean coefficient at each d, ascending; int64 d, or float64 band centers."""

    d: np.ndarray
    count: np.ndarray
    mean: np.ndarray


def curve_from_report(report: ClusteringReport, variant: str) -> Curve:
    """Exact-degree curve over the degrees with at least one vertex."""
    record = report.variant(variant)
    counts = np.bincount(record.degree)
    sums = np.bincount(record.degree, weights=record.values)
    d = np.flatnonzero(counts)
    return Curve(d, counts[d], sums[d] / counts[d])


def pool_curves(curves: list[Curve]) -> Curve:
    """Curves merged per d: total count and count-weighted mean, summed in list order."""
    count = np.concatenate([c.count for c in curves])
    d, inverse = np.unique(np.concatenate([c.d for c in curves]), return_inverse=True)
    total = np.bincount(inverse, weights=count).astype(np.int64)
    sums = np.bincount(inverse, weights=count * np.concatenate([c.mean for c in curves]))
    return Curve(d, total, sums / total)


_BAND_RATIO = 1.1   # ratio of consecutive band centers
_BAND_START = 2.0   # first band center, the least degree with a coefficient


def band_grid(max_degree: int) -> np.ndarray:
    """Geometric grid of band centers covering [2, max_degree]."""
    if max_degree < _BAND_START:
        return np.empty(0)
    count = int(math.floor(math.log(max_degree / _BAND_START) / math.log(_BAND_RATIO))) + 1
    return _BAND_START * _BAND_RATIO ** np.arange(count)


def banded_curve_from_report(
    report: ClusteringReport, variant: str, delta: float = 0.1
) -> Curve:
    """Smoothed curve: at each band center d, |X_d| and the mean over X_d.

    X_d is the set of eligible vertices whose in-degree lies within
    [(1-delta) d, (1+delta) d]; the same in-degree banding applies to
    every variant, undirected included. Centers run over a geometric
    grid; empty bands are omitted rather than reported as zero.
    """
    if not 0.0 < delta < 0.5:
        raise ParameterError(f"delta must be in (0, 1/2), got {delta}")
    record = report.variant(variant)
    order = np.argsort(record.in_degree, kind="stable")
    sorted_deg = record.in_degree[order]
    prefix = np.concatenate(([0.0], np.cumsum(record.values[order])))
    centers = band_grid(int(sorted_deg.max(initial=0)))
    lo = np.searchsorted(sorted_deg, (1.0 - delta) * centers, side="left")
    hi = np.searchsorted(sorted_deg, (1.0 + delta) * centers, side="right")
    kept = hi > lo
    lo, hi = lo[kept], hi[kept]
    return Curve(centers[kept], hi - lo, (prefix[hi] - prefix[lo]) / (hi - lo))
