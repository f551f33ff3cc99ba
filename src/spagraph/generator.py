"""Growth of spatial preferential attachment graphs on the unit torus.

Each step places one vertex uniformly at random, then flips an independent
link coin for every existing vertex whose sphere of influence contains the
newcomer. Sphere volumes are min((a1 * in_degree + a2) / t, 1), so they
grow with in-degree and shrink with time.

Positions do not depend on the graph, and a sphere depends only on its own
vertex's in-degree, so once all positions are drawn each vertex's in-edges
form an independent process. `generate_many` exploits this: it draws every
position first, buckets them once per cell side into int32 rows ordered
by cell and step, beside a table of where each cell's time buckets (each
half a doubling of t) start, and walks each vertex forward through
windows that end where a bucket ends, so a cell's steps in a window are
one range read from the table. It tests the model's membership expression on each step
it gathers and reads the coin of (step, vertex) only when the vertex
covers the step.
Each round resolves every vertex's in-order scan at once, in a few numpy
passes that each hash the newly covered steps' coin words in one batch; a
word read past a vertex's restart is kept for its next round, so every
coin word the walk reads is hashed once (n = 10^5 in 2.6-3.7 s and
n = 10^6 in 32-36 s on one core of a 2-vCPU Xeon virtual machine). Positions and
coin words depend only on the seed, so models that differ only in p, a1
and a2 share the positions, the grid and, block by block, every coin
word already hashed (a nine-p sweep at n = 2000 hashes 195,068 words
instead of 521,630). `generate` is its one-model case.
`generate_naive` is the step-centric O(n^2) oracle: step t asks a
linear-scan `SphereIndex` which prior spheres, at their volumes for time
t - 1, cover the newcomer.
Passing `index_factory` to `generate` runs the same step-centric walk
over an index of the caller's choosing (`SphereIndex` or a subclass),
which keeps a seam for injecting a broken or instrumented index. All
paths read the same counter-based streams and compare the same
membership expression, so for equal parameters and seed they produce
bit-identical graphs; any disagreement is a bug. Each returns a `GrownGraph`
that stores out-edges and positions and builds its other views on first read.
"""

from __future__ import annotations

import array
import itertools
import math
import numbers
import operator
from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ParameterError, UsageError
from .geometry import Norm, needed_volume, unit_ball_volume
from .rng import LANE_COIN, LANE_POSITION, CounterStream, coin_cut, coin_heads
from .spatial_index import SphereIndex

NAIVE_GUARD = 10_000
_FILL = 1 << 16   # edges per block when filling the in-neighbor sort keys or checking order
_DRAW = 1 << 12   # position words per batch draw; 2^14 left 3 MB more resident at n = 10^6


@dataclass(frozen=True)
class ModelParams:
    """All growth parameters plus the seed that pins the run."""

    n: int
    p: float
    a1: float
    a2: float
    dimension: int = 2
    norm: Norm = Norm.LINF
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "dimension", "seed"):   # stored as Python ints, numpy ints included
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ParameterError(f"{name} must be an integer, got {value!r}") from None
        for name in ("p", "a1", "a2"):   # stored as Python floats, Fractions and numpy reals included
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise ParameterError(f"{name} must be a real number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.n < 1:
            raise ParameterError(f"n must be >= 1, got {self.n}")
        if not 0.0 <= self.p <= 1.0:
            raise ParameterError(f"p must be in [0, 1], got {self.p}")
        if not (math.isfinite(self.a1) and math.isfinite(self.a2)):
            raise ParameterError(f"a1 and a2 must be finite, got {self.a1} and {self.a2}")
        if self.a1 <= 0:
            raise ParameterError(f"a1 must be > 0, got {self.a1}")
        if self.p * self.a1 >= 1.0:
            raise ParameterError(f"p*a1 must be < 1, got {self.p * self.a1}")
        if self.a2 <= 0:
            raise ParameterError(f"a2 must be > 0, got {self.a2}")
        if not isinstance(self.norm, Norm):
            raise ParameterError(f"norm must be a Norm, got {self.norm!r}")
        unit_ball_volume(self.dimension, self.norm)   # dimension >= 1, and the volume a float
        if not 0 <= self.seed < 2 ** 64:
            raise ParameterError(f"seed must be a 64-bit unsigned int, got {self.seed}")


def check_vertex(n: int, v: int) -> None:
    """Reject a vertex id outside 1..n."""
    if not 1 <= v <= n:
        raise UsageError(f"vertex must be in [1, {n}], got {v}")


def sphere_volume(in_degree, t, params: ModelParams):
    """Volume of a degree-`in_degree` vertex's sphere at time t, capped at 1.

    Scalars or arrays; arrays broadcast against each other.
    """
    return np.minimum((params.a1 * in_degree + params.a2) / t, 1.0)


@dataclass
class GrownGraph:
    """A finished run: positions and birth-ordered edges; degree views on first read.

    Vertices are identified by their birth step, 1..n. Every edge points
    from its (younger) source to an older target, and a vertex's out-edges
    are fixed at its birth step. Because of that, the in-neighbors of v
    arrive exactly at their own birth steps, so the full in-degree
    trajectory of any vertex is recoverable from its sorted in-neighbor
    list; nothing extra needs recording during growth. Only the four fields
    are stored; the degree views (by vertex id, slot 0 unused) and the
    in-neighbor lists are each built on first read and kept. The lists come
    from sorting one key per edge in place, in the array that becomes
    `in_sources`, so building them needs no other edge-sized array.
    """

    params: ModelParams
    out_ptr: np.ndarray
    out_targets: np.ndarray
    positions: np.ndarray

    @cached_property
    def out_degree(self) -> np.ndarray:
        return np.diff(self.out_ptr)

    @cached_property
    def in_degree(self) -> np.ndarray:
        return np.bincount(self.out_targets, minlength=self.n + 1)

    @cached_property
    def in_ptr(self) -> np.ndarray:
        in_ptr = np.zeros(self.n + 2, dtype=np.int64)
        np.cumsum(self.in_degree, out=in_ptr[1:])
        return in_ptr

    @cached_property
    def in_sources(self) -> np.ndarray:
        nk = np.int64(self.n + 1)
        # The keys target * (n + 1) + source are unique, so sorting them
        # lists every vertex's in-neighbors ascending by birth.
        keys = self.edge_sources()
        for lo in range(0, keys.size, _FILL):
            keys[lo : lo + _FILL] += self.out_targets[lo : lo + _FILL] * nk
        keys.sort()
        return np.remainder(keys, nk, out=keys)

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def num_edges(self) -> int:
        return int(self.out_targets.size)

    def out_neighbors(self, v: int) -> np.ndarray:
        check_vertex(self.n, v)
        return self.out_targets[self.out_ptr[v] : self.out_ptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """Sources of v's in-edges, ascending by birth (= arrival order)."""
        check_vertex(self.n, v)
        return self.in_sources[self.in_ptr[v] : self.in_ptr[v + 1]]

    def prefix(self, t: int) -> "GrownGraph":
        """The graph after step t: vertices 1..t and the edges among them.

        Out-edges are fixed at birth, so the edges by step t are the first
        out_ptr[t + 1] in generation order, and this equals the same run
        grown to n = t, array for array. It shares this graph's arrays.
        """
        t = operator.index(t)
        if not 1 <= t <= self.n:
            raise UsageError(f"prefix time must be in [1, {self.n}], got {t}")
        return GrownGraph(params=replace(self.params, n=t), out_ptr=self.out_ptr[: t + 2],
                          out_targets=self.out_targets[: self.out_ptr[t + 1]],
                          positions=self.positions[: t + 1])

    def trajectory(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """(arrival steps, in-degree values) for every degree change of v."""
        arrivals = self.in_neighbors(v)
        return arrivals, np.arange(1, arrivals.size + 1, dtype=np.int64)

    def edge_sources(self) -> np.ndarray:
        """Source of every edge, aligned with `out_targets` (generation order)."""
        return np.repeat(np.arange(1, self.n + 1, dtype=np.int64), self.out_degree[1:])

    @classmethod
    def from_edges(cls, params: ModelParams, edges, positions=None) -> "GrownGraph":
        """Build a graph from an explicit edge list (tests, file parsing).

        `edges` is a sequence of (source, target) pairs or an (E, 2) integer
        array, in generation order: grouped by ascending source, targets
        ascending within each source, each target smaller than its source.
        Without `positions`, the graph gets the seed's, the ones `generate` draws.
        """
        n = params.n
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        bad = first_bad_edge(n, edges)
        if bad is not None:
            raise UsageError(bad[1])
        # out_ptr[s + 1] counts source s's edges, then their running sum; the
        # sources ascend, so each block's counts fill one slice, and no
        # temporary is E-sized (a strided edges[:, 0] would be copied whole)
        out_ptr = np.zeros(n + 2, dtype=np.int64)
        for lo in range(0, len(edges), _FILL):
            sources = edges[lo : lo + _FILL, 0]
            out_ptr[sources[0] + 1 : sources[-1] + 2] += np.bincount(sources - sources[0])
        np.cumsum(out_ptr, out=out_ptr)
        if positions is None:
            positions = _draw_positions(params, CounterStream(params.seed))
        positions = np.asarray(positions, dtype=float)
        if positions.shape != (n + 1, params.dimension):
            raise UsageError(
                f"positions must have shape {(n + 1, params.dimension)}, got {positions.shape}"
            )
        return cls(params=params, out_ptr=out_ptr,
                   out_targets=np.ascontiguousarray(edges[:, 1]), positions=positions)


def first_bad_edge(n: int, edges: np.ndarray) -> tuple[int, str] | None:
    """(index, message) of the first of `edges` that breaks birth or generation order.

    An edge (s, u) needs 1 <= u < s <= n, and its key s*(n+1) + u must
    exceed the previous edge's; None when every edge passes. The edges
    are checked in blocks of `_FILL`, so no temporary is E-sized.
    """
    nk = np.int64(n + 1)
    for lo in range(0, len(edges), _FILL):
        start = max(lo - 1, 0)   # the edge before the block passed, so it re-checks clean
        s, u = edges[start : lo + _FILL, 0], edges[start : lo + _FILL, 1]
        unborn = (s < 1) | (s > n) | (u < 1) | (u >= s)
        keys = s * nk + u
        unordered = np.zeros(s.size, dtype=bool)
        unordered[1:] = keys[1:] <= keys[:-1]
        bad = np.flatnonzero(unborn | unordered)
        if bad.size:
            i = int(bad[0])
            reason = "violates birth ordering" if unborn[i] else "out of generation order"
            return start + i, f"edge ({s[i]}, {u[i]}) {reason}"
    return None


def generate(params: ModelParams, index_factory=None) -> GrownGraph:
    """Run the growth process to n vertices.

    Output is a pure function of (params, seed): every position is read
    from the position lane before growth starts, and one coin per covering
    vertex is read from the coin lane at counter = candidate birth index.

    By default this is `generate_many([params])`: the vertex-centric walk
    over a static grid. Passing `index_factory` (same signature as
    SphereIndex) runs the step-centric walk over that index instead, so
    equivalence harnesses can inject a deliberately broken or instrumented
    index.
    """
    if index_factory is None:
        return next(generate_many([params]))
    return _grow(params, index_factory(params.dimension, params.norm, params.n))


def generate_many(models) -> Iterator[GrownGraph]:
    """The graphs of models that share n, dimension, norm and seed, in order.

    Equal to `[generate(m) for m in models]`, byte for byte, but the models
    share one draw of the positions, one grid and, within each vertex
    block, every coin word one of them has read: a later model hashes only
    the (step, vertex) words no earlier one read. Models are walked by
    descending a2, as larger spheres read more words. The walk holds one
    edge-key buffer per model (8 bytes an edge); the returned iterator
    builds each graph only when asked for it, and the graphs share one
    positions array.
    """
    models = list(models)
    if not models:
        raise UsageError("generate_many needs at least one model")
    shared = operator.attrgetter("n", "dimension", "norm", "seed")
    for model in models:
        if shared(model) != shared(models[0]):
            raise UsageError(
                f"models must share n, dimension, norm and seed: {models[0]} and {model}")
    n = models[0].n
    stream = CounterStream(models[0].seed)
    positions = _draw_positions(models[0], stream)
    # levels fine enough for the smallest spheres of every model
    grid = _StaticGrid(positions, min(models, key=lambda m: m.a2))
    walk_order = sorted(range(len(models)), key=lambda i: -models[i].a2)
    # One buffer per model grown in place holds the keys t * (n + 1) + u of
    # every edge: no per-block arrays to free, and no second copy to join them.
    edges = [array.array("q") for _ in models]
    for first in range(1, n, BLOCK):
        stop = min(first + BLOCK, n)
        table = _CoinTable() if len(models) > 1 else None
        for i in walk_order:
            block = _advance_block(first, stop, grid, stream, table, models[i])
            edges[i].frombytes(block.tobytes())
    # each buffer is popped as its graph is built, so once the caller lets go
    # of a graph nothing here keeps its keys alive
    return (_from_keys(params, positions, edges.pop(0)) for params in models)


def _from_keys(params: ModelParams, positions: np.ndarray, buffer: array.array) -> GrownGraph:
    """The graph whose edges are the keys t * (n + 1) + u in `buffer`, in any order."""
    n = params.n
    keys = np.frombuffer(buffer, dtype=np.int64)
    keys.sort()
    # out_ptr[v + 1] counts the edges whose source is at most v
    out_ptr = np.zeros(n + 2, dtype=np.int64)
    out_ptr[1:] = np.searchsorted(keys, np.arange(1, n + 2) * (n + 1))
    targets = np.remainder(keys, n + 1, out=keys)
    return GrownGraph(params=params, out_ptr=out_ptr, out_targets=targets, positions=positions)


def generate_naive(params: ModelParams, force: bool = False) -> GrownGraph:
    """Reference generator: the step-centric walk over a linear-scan SphereIndex.

    Semantically identical to `generate` (same streams, same membership
    predicate) but a different algorithm; each step scans all prior
    vertices, so it costs O(n^2), hence the size guard.
    """
    if params.n > NAIVE_GUARD and not force:
        raise UsageError(
            f"n={params.n} exceeds the naive-generator guard {NAIVE_GUARD}; "
            "pass force=True if you really mean it"
        )
    return _grow(params, SphereIndex(params.dimension, params.norm, params.n))


def _draw_positions(params: ModelParams, stream: CounterStream) -> np.ndarray:
    """Every vertex's position, id-indexed; slot 0 stays NaN."""
    n, m = params.n, params.dimension
    positions = np.full((n + 1, m), np.nan)
    flat = positions.reshape(-1)   # a view: word w is coordinate w % m of vertex w // m
    for lo in range(m, flat.size, _DRAW):
        w = np.arange(lo, min(lo + _DRAW, flat.size))
        flat[w] = stream.uniforms(LANE_POSITION, (w // m).tolist(), (w % m).tolist())
    return positions


def _grow(params: ModelParams, index) -> GrownGraph:
    """Step-centric growth: step t asks `index` which spheres cover x_t."""
    n, p = params.n, params.p
    stream = CounterStream(params.seed)
    positions = _draw_positions(params, stream)
    # Python ints and floats: a1 * k + a2 is the same IEEE product and sum
    # that numpy's float64 gives, at a fraction of its per-edge cost
    a1, a2 = params.a1, params.a2
    in_degree = [0] * (n + 1)
    update_weight = index.update_weight
    out_ptr = np.zeros(n + 2, dtype=np.int64)
    targets: list[int] = []

    for t in range(1, n + 1):
        x = positions[t]
        if t > 1:
            candidates = index.covering_spheres(x, t - 1)
            if candidates.size:
                coins = stream.coin_uniforms(t, candidates)
                for u in candidates[coins < p].tolist():
                    k = in_degree[u] + 1
                    in_degree[u] = k
                    update_weight(u, a1 * k + a2)
                    targets.append(u)
        out_ptr[t + 1] = len(targets)
        index.insert(t, x, a2)

    return GrownGraph(
        params=params,
        out_ptr=out_ptr,
        out_targets=np.array(targets, dtype=np.int64),
        positions=positions,
    )


# -- vertex-centric growth ---------------------------------------------------
#
# Given all positions, vertex u's in-edges depend only on u's own degree:
# u covers x_t at degree k iff Q <= min((a1*k + a2) / (t-1), 1) with
# Q = needed_volume(x_u, x_t). Each u therefore walks forward through
# windows [s, e] that end where a time bucket ends, at most at 2s: it
# gathers from a static grid every step whose position lies within the
# radius for a degree bound K >= k, keeps those covered at degree K, and
# scans them in t order, testing Q against u's sphere at its current degree
# and reading the coin at (t, u) only for a step it covers. Once the degree
# passes K the window restarts just after that step. A round gathers for a
# block of vertices, each at the level its radius picks, reading where each
# cell's steps lie from the grid's offsets table, and `_resolve` does all
# the block's scans at once, as a fixed point.
# Rows of (k, m) arrays are read with take(axis=0), not a[idx]: with m this
# small, 2-D fancy indexing costs 10x more (157 gathers of 10.5k rows: 0.036
# s against 0.003 s on a 2.1 GHz Xeon VM), as do .all(axis=-1) and int64 @.

BLOCK = 512            # vertices advanced in lockstep
MAX_PAIRS = 32_768     # grid entries read per round, unless one vertex needs more
_MAX_CELLS = 3 ** 6    # cells per query; beyond this every query scans its whole window
_SPLIT = 2             # time buckets per doubling of t: a window reads under s / 2 steps before s
_TABLE = 16            # offsets per vertex the grid's table may hold; finer levels are dropped


def _bucket(t):
    """The time bucket of each step t >= 1, as int64.

    Bucket _SPLIT * j + i holds the steps t in [2^j (1 + i / _SPLIT),
    2^j (1 + (i + 1) / _SPLIT)), so a bucket from 2^j on holds at most
    2^j / _SPLIT steps; some buckets below t = _SPLIT hold none.
    """
    mantissa, exponent = np.frexp(t)   # t = mantissa * 2^exponent, mantissa in [1/2, 1)
    return ((exponent - 1).astype(np.int64) * _SPLIT
            + (mantissa * (2 * _SPLIT)).astype(np.int64) - _SPLIT)


def _bucket_start(b: np.ndarray) -> np.ndarray:
    """The first step of each bucket b, or of an empty one the first step after it."""
    octave, part = np.divmod(b, _SPLIT)
    return np.left_shift(1, octave) + (np.left_shift(part, octave) + _SPLIT - 1) // _SPLIT


def _window_end(s: np.ndarray, n: int) -> np.ndarray:
    """The last step of the window from step s: the last bucket end at or before 2s, or n.

    The window ends 0.6 s to s steps after s, so a walk takes about as many
    rounds as with windows [s, 2s]; one that follows a whole window starts
    where a bucket starts, and reads no step before its s.
    """
    return np.minimum(_bucket_start(_bucket(2 * s + 1)) - 1, n)


class _StaticGrid:
    """All positions, bucketed once per cell side 2^-l, and a table of where each bucket starts.

    Level l cuts the torus into 2^(m*l) cells and holds every step in one
    int32 row of n, ordered by cell and then by step, which is to say by
    (cell, time bucket, step) (see `_bucket`). An int32 offsets table,
    indexed by (level, cell, bucket), holds where each cell's bucket starts
    in the rows, so the steps of a cell in a window [s, e] lie in one range
    of its row, from the start of s's bucket to the end of e's, read from the
    table without a search. The range can also hold steps of those buckets
    outside [s, e], which `steps` drops. A bucket whose queries, even at the
    smallest sphere of the grid's model, all pick a level coarser than l is
    merged at level l with every bucket before it into one prefix bucket:
    the finest levels, whose cells are many, keep few buckets each, and the
    table stays O(n). A query reads the ranges of every cell that meets the
    box of half-width r around its center; the level only trades cells per
    query against steps gathered, so any level gives the same (complete)
    answer.
    """

    def __init__(self, positions: np.ndarray, params: ModelParams):
        n, m = params.n, params.dimension
        self.positions = positions
        self._unit = unit_ball_volume(m, params.norm)
        self._m = m
        buckets = int(_bucket(n)) + 1
        # The finest level any query starting in bucket b picks, that of a fresh
        # vertex's sphere at the bucket's last query time, one step before its end.
        last = np.clip(_bucket_start(np.arange(1, buckets + 1)) - 2, 1, max(n - 1, 1))
        radii = self.radii(sphere_volume(0, last.astype(float), params))
        finest = np.maximum(np.floor(-np.log2(radii)), 0)
        # Level l merges the buckets finest[b] < l into its prefix bucket. No level is
        # finer than the last bucket's, and levels stop before the table passes
        # _TABLE * (n + 1) offsets.
        widths, size = [], 0
        for level in range(1 + int(finest[-1]) if 3 ** m <= _MAX_CELLS else 1):
            width = buckets - max(int(np.count_nonzero(finest < level)) - 1, 0)
            if level and size + (width << (m * level)) > _TABLE * (n + 1):
                break
            widths.append(width)
            size += width << (m * level)
        levels = len(widths)
        self._width = np.array(widths, dtype=np.int64)   # table slots per cell, at each level
        self._shift = buckets - self._width   # bucket b is slot max(b - shift, 0) of its cell
        slots = self._width << (m * np.arange(levels))   # table slots at each level
        self._base = np.cumsum(slots) - slots   # each level's first slot
        dtype = np.int32 if levels * n < 2 ** 31 else np.int64
        steps = np.arange(1, n + 1)
        bucket = _bucket(steps)
        self._steps = np.empty((levels, n), dtype=dtype)
        self._offsets = np.empty(size + 1, dtype=dtype)   # ends with the end of the last row
        self._offsets[-1] = levels * n
        for level, row in enumerate(self._steps):
            side = 1 << level
            cells = self._flat(np.minimum((positions[1:] * side).astype(np.int64), side - 1), side)
            slots = np.maximum(bucket - self._shift[level], 0)
            slots += cells * self._width[level]
            counts = np.bincount(slots, minlength=self._width[level] << (m * level))
            del slots
            table = self._offsets[self._base[level] : self._base[level] + counts.size]
            np.cumsum(counts, out=table)
            table -= counts
            del counts
            table += level * n
            cells *= n + 1   # keys: one sort orders the row by cell, then step
            cells += steps
            cells.sort()
            np.remainder(cells, n + 1, out=row, casting="unsafe")
        self._steps = self._steps.reshape(-1)

    def radii(self, volumes: np.ndarray) -> np.ndarray:
        """Half-widths of boxes holding every point of each ball.

        The margin absorbs rounding in the radius and in the box corners.
        """
        return (volumes / self._unit) ** (1.0 / self._m) * (1.0 + 1e-9) + 1e-12

    def levels(self, radii: np.ndarray) -> np.ndarray:
        """Finest level whose cell side is at least each radius: 3^m cells or fewer."""
        levels = np.floor(-np.log2(radii))
        return np.clip(levels, 0, self._width.size - 1).astype(np.int64)

    def runs(self, levels, centers, radii, s, e):
        """Index ranges [lo, hi) of the steps near each center, in the buckets of s to e.

        Row i is queried at level levels[i]. Returns (row, lo, hi), one entry
        per non-empty cell range, ascending by row, where row indexes
        `centers`. A range holds every step of [s[i], e[i]] in its cell, and
        can hold other steps of the same buckets.
        """
        side = np.left_shift(1, levels)   # cells a side at each row's level
        first = np.floor((centers - radii[:, None]) * side[:, None]).astype(np.int64)
        last = np.floor((centers + radii[:, None]) * side[:, None]).astype(np.int64)
        counts = np.minimum(last - first + 1, side[:, None])
        offsets = np.array(
            list(itertools.product(range(int(counts.max())), repeat=self._m)),
            dtype=np.int64,
        )
        inside = offsets[:, 0] < counts[:, None, 0]
        for j in range(1, self._m):
            inside &= offsets[:, j] < counts[:, None, j]
        row, cell = np.nonzero(inside)
        # each row's cell 0 slots of bucket(s) and of the bucket after e's
        shift, width = self._shift.take(levels), self._width.take(levels)
        base = self._base.take(levels)
        start = base + np.maximum(_bucket(s) - shift, 0)
        stop = base + np.maximum(_bucket(e) - shift, 0) + 1
        side = side.take(row)
        cells = (first.take(row, axis=0) + offsets.take(cell, axis=0)) % side[:, None]
        slot = self._flat(cells, side) * width.take(row)
        lo = self._offsets.take(start.take(row) + slot)
        hi = self._offsets.take(stop.take(row) + slot)
        nonempty = hi > lo
        return row[nonempty], lo[nonempty], hi[nonempty]

    def steps(self, row, lo, hi, s, e):
        """(owners, steps): the steps of the ranges [lo, hi) that lie in [s, e] of their row.

        Owners are ascending, as the ranges are by row; steps are int64.
        """
        sizes = hi - lo
        ends = np.cumsum(sizes)
        index = np.arange(ends[-1] if ends.size else 0) + np.repeat(lo - ends + sizes, sizes)
        owners, steps = np.repeat(row, sizes), self._steps.take(index)
        s, e = s.astype(steps.dtype), e.astype(steps.dtype)
        inside = np.flatnonzero((steps >= s.take(owners)) & (steps <= e.take(owners)))
        return owners.take(inside), steps.take(inside).astype(np.int64)

    def _flat(self, cells: np.ndarray, side) -> np.ndarray:
        """Row-major cell number of each row of (k, m) cell coordinates, `side` cells a side."""
        flat = cells[:, 0]
        for j in range(1, self._m):
            flat = flat * side + cells[:, j]
        return flat


class _CoinTable:
    """Coin words hashed in one vertex block, sorted by key u * (n + 1) + t."""

    def __init__(self):
        self.keys = np.empty(0, dtype=np.int64)
        self.words = np.empty(0, dtype=np.uint64)

    def known(self, keys: np.ndarray, cut: int) -> np.ndarray:
        """Per key, its coin at `cut` (see `coin_cut`) as int8: 1 heads, 0 tails, -1 not held."""
        heads = np.full(keys.size, -1, dtype=np.int8)
        if self.keys.size:
            at = np.minimum(np.searchsorted(self.keys, keys), self.keys.size - 1)
            held = np.flatnonzero(self.keys.take(at) == keys)
            heads[held] = coin_heads(self.words.take(at.take(held)), cut)
        return heads

    def add(self, keys: np.ndarray, words: np.ndarray) -> None:
        """Hold more (key, word) pairs, int64 keys and uint64 words; no key may be held already."""
        order = np.argsort(keys)
        keys, words = keys.take(order), words.take(order)
        if self.keys.size:
            at = np.searchsorted(self.keys, keys)
            keys, words = np.insert(self.keys, at, keys), np.insert(self.words, at, words)
        self.keys, self.words = keys, words


def _advance_block(first: int, stop: int, grid: _StaticGrid, stream: CounterStream,
                   table: _CoinTable | None, params: ModelParams) -> np.ndarray:
    """In-edges of vertices first..stop-1, as an int64 array of keys t * (n + 1) + u.

    Each round resolves all its kept pairs at once (`_resolve`), hashing in
    one batch per pass the coin words it reads. A word read past a vertex's
    restart is covered at the degree the vertex's next round starts at, so
    that round reads it too, from a carry table. With a `table`, words it
    holds are not hashed again, and every word hashed is added to it.
    """
    n, n1 = params.n, params.n + 1
    u = np.arange(first, stop, dtype=np.int64)
    k = np.zeros(u.size, dtype=np.int64)
    s = u + 1
    cut = coin_cut(params.p)
    carry = _CoinTable()
    # the words hashed, for `table`: 8 bytes a key and a word
    hashed_keys, hashed_words = array.array("q"), array.array("Q")
    edges = []
    while u.size:
        # headroom that grows with the degree keeps restarts per vertex logarithmic
        bound = k + np.maximum(4, k // 2)
        e = _window_end(s, n)
        take, owners, steps = _gather(grid, u, s, e, bound, params)
        positions = grid.positions
        q = needed_volume(positions.take(u.take(owners), axis=0), positions.take(steps, axis=0),
                          params.norm)
        tm1 = (steps - 1).astype(float)
        # the pairs covered at the bound in (owner, step) order, compressed and sorted in one index
        keep = np.flatnonzero(q <= sphere_volume(bound.take(owners), tm1, params))
        order = keep.take(np.argsort(owners.take(keep) * n1 + steps.take(keep)))
        owners, steps = owners.take(order), steps.take(order)
        q, tm1 = q.take(order), tm1.take(order)
        keys = u.take(owners) * n1 + steps   # ascending, as the pairs are in (owner, step) order
        heads = carry.known(keys, cut)
        if table is not None:
            # the two tables hold disjoint keys, so the larger code is the held coin
            np.maximum(heads, table.known(keys, cut), out=heads)
        read, words = [], []

        def coins(index):
            read.append(index)
            words.append(stream.words(LANE_COIN, steps.take(index).tolist(),
                                      u.take(owners.take(index)).tolist()))
            return coin_heads(words[-1], cut)

        edge, restart = _resolve(owners, q, tm1, k[:take], bound[:take], heads, coins,
                                 params.a1, params.a2)
        edges.append(steps[edge] * n1 + u.take(owners[edge]))
        k[:take] += np.bincount(owners[edge], minlength=take)
        s[:take] = e[:take] + 1
        s[owners[restart]] = steps[restart] + 1
        read, words = np.concatenate(read), np.concatenate(words)
        # the words past a vertex's restart, which its next round reads
        later = steps.take(read) >= s.take(owners.take(read))
        carry.add(keys.take(read)[later], words[later])
        if table is not None:
            hashed_keys.frombytes(keys.take(read).tobytes())
            hashed_words.frombytes(words.tobytes())
        # free this round's per-pair data before the next round gathers its own
        del keep, order, owners, steps, q, tm1, keys, heads, edge, restart, read, words, later
        alive = s <= n
        u, k, s = u[alive], k[alive], s[alive]
    if table is not None:
        table.add(np.frombuffer(hashed_keys, dtype=np.int64),
                  np.frombuffer(hashed_words, dtype=np.uint64))
    return np.concatenate(edges)


def _resolve(owners, q, tm1, start, limit, heads, read, a1: float, a2: float):
    """Every row's in-order scan of one round's kept pairs, done at once.

    Pairs are in (row, step) order: pair j of row owners[j] needs volume
    q[j] at time tm1[j]. Row i scans from degree start[i], reads the coin of
    each pair its sphere covers (heads[j] is 1, 0, or -1 when unread, and
    read(index) gives unread coins as bools), and stops once its degree
    passes limit[i]. Returns (edge, restart): the pairs it links, and the
    pair after which each stopped row restarts. Coverage rises with the
    degree, which depends only on earlier pairs, so passes that grow the
    covered set from below reach the scan's result. A coin read past a
    restart is covered at a degree <= limit, so the row's next round, at
    limit + 1, reads it too. The float64 operations are the scan's, and as
    kept pairs have q <= 1, the sphere's cap at volume 1 changes no test.
    """
    first = np.searchsorted(owners, owners)   # each pair's row's first pair
    start, limit = start.take(owners), limit.take(owners)
    covered = q <= (a1 * start + a2) / tm1
    while True:
        unread = np.flatnonzero(covered & (heads < 0))
        heads[unread] = read(unread)
        gain = covered & (heads > 0)
        before = np.cumsum(gain) - gain
        degree = start + before - before.take(first)   # degree before each pair
        live = degree <= limit   # pairs the scan reaches
        grown = live & ~covered & (q <= (a1 * degree + a2) / tm1)
        if not grown.any():
            edge = live & gain
            return edge, edge & (degree == limit)
        covered |= grown


def _gather(grid: _StaticGrid, u, s, e, bound, params: ModelParams):
    """Candidate (vertex row, step) pairs for a prefix of the vertices u.

    Returns (take, owners, steps): for every row i < take, each step in
    [s[i], e[i]] whose position lies in the box around u[i] that holds
    u[i]'s sphere at degree bound[i] and time s[i] - 1, its largest in
    the window. Rows are taken while the grid entries they read stay
    within MAX_PAIRS.
    """
    volumes = sphere_volume(bound, (s - 1).astype(float), params)
    radii = grid.radii(volumes)
    centers = grid.positions.take(u, axis=0)
    row, lo, hi = grid.runs(grid.levels(radii), centers, radii, s, e)
    entries = np.bincount(row, hi - lo, minlength=u.size)
    take = max(1, int(np.searchsorted(np.cumsum(entries), MAX_PAIRS, side="right")))
    keep = row < take
    return (take, *grid.steps(row[keep], lo[keep], hi[keep], s, e))
