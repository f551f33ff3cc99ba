"""Growth of spatial preferential attachment graphs on the unit torus.

Each step places one vertex uniformly at random, then flips an independent
link coin for every existing vertex whose sphere of influence contains the
newcomer. Sphere volumes are min((a1 * in_degree + a2) / t, 1), so they
grow with in-degree and shrink with time.

Positions do not depend on the graph, and a sphere depends only on its own
vertex's in-degree, so once all positions are drawn each vertex's in-edges
form an independent process. `generate_many` exploits this: it draws every
position first, buckets them once into one key array sorted by cell side,
cell and step, and walks each vertex forward through doubling windows,
testing the model's membership expression on each step it gathers and
reading the coin of (step, vertex) only when the vertex covers the step.
Each round resolves every vertex's in-order scan at once, in a few numpy
passes that each hash the newly covered steps' coin words in one batch; a
word read past a vertex's restart is kept for its next round, so every
coin word the walk reads is hashed once (n = 10^5 in 2.4-3.7 s and
n = 10^6 in 33-35 s on one core of a 2-vCPU Xeon virtual machine). Positions and
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
        out_ptr = np.zeros(n + 2, dtype=np.int64)
        np.cumsum(np.bincount(edges[:, 0], minlength=n + 1), out=out_ptr[1:])
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
# windows t in [s, 2s]: it gathers from a static grid every step whose
# position lies within the radius for a degree bound K >= k, keeps those
# covered at degree K, and scans them in t order, testing Q against u's
# sphere at its current degree and reading the coin at (t, u) only for a
# step it covers. Once the degree passes K the window restarts just after
# that step. A round gathers for a block of vertices, each at the level its
# radius picks, with one search of the grid's single key array, and
# `_resolve` does all the block's scans at once, as a fixed point.
# Rows of (k, m) arrays are read with take(axis=0), not a[idx]: with m this
# small, 2-D fancy indexing costs 10x more (157 gathers of 10.5k rows: 0.036
# s against 0.003 s on a 2.1 GHz Xeon VM), as do .all(axis=-1) and int64 @.

BLOCK = 512            # vertices advanced in lockstep
MAX_PAIRS = 32_768     # (vertex, step) pairs gathered per round, unless one vertex needs more
_MAX_CELLS = 3 ** 6    # cells per query; beyond this every query scans its whole window


class _StaticGrid:
    """All positions, bucketed once per cell side 2^-l into one ascending key array.

    Cells are numbered across levels: level l's 2^(m*l) cells follow those
    of every coarser level, from first_cell[l], and step t in cell c of
    level l has the key (first_cell[l] + c) * (n + 1) + t. So the steps in
    [s, e] whose position lies in one cell form a contiguous run, and one
    search finds the runs of every query, each at its own level. A query
    reads the runs of every cell that meets the box of half-width r around
    its center; the level only trades cells per query against steps
    gathered, so any level gives the same (complete) answer.
    """

    def __init__(self, positions: np.ndarray, params: ModelParams):
        n, m = params.n, params.dimension
        self.positions = positions
        self.n1 = n + 1
        self._unit = unit_ball_volume(m, params.norm)
        self._m = m
        levels = 1
        if 3 ** m <= _MAX_CELLS:
            # No query is finer than a fresh vertex's sphere at step n, and every
            # key, below 2^(m * levels) * (n + 1), must fit in an int64.
            smallest = self.radii(np.array([sphere_volume(0, max(n - 1, 1), params)]))
            finest = int(np.floor(-np.log2(smallest[0])))
            levels = 1 + min(max(finest, 0), (62 - self.n1.bit_length()) // m)
        sizes = np.left_shift(1, m * np.arange(levels, dtype=np.int64))
        self._first_cell = np.cumsum(sizes) - sizes
        # one (levels, n) allocation: each row sorted and above the row before
        keys = np.empty((levels, n), dtype=np.int64)
        for level, row in enumerate(keys):
            side = 1 << level
            cells = np.minimum((positions[1:] * side).astype(np.int64), side - 1)
            np.add((self._first_cell[level] + self._flat(cells, side)) * self.n1,
                   np.arange(1, self.n1), out=row)
            row.sort()
        self._keys = keys.reshape(-1)

    def radii(self, volumes: np.ndarray) -> np.ndarray:
        """Half-widths of boxes holding every point of each ball.

        The margin absorbs rounding in the radius and in the box corners.
        """
        return (volumes / self._unit) ** (1.0 / self._m) * (1.0 + 1e-9) + 1e-12

    def levels(self, radii: np.ndarray) -> np.ndarray:
        """Finest level whose cell side is at least each radius: 3^m cells or fewer."""
        levels = np.floor(-np.log2(radii))
        return np.clip(levels, 0, self._first_cell.size - 1).astype(np.int64)

    def runs(self, levels, centers, radii, s, e):
        """Key index runs [lo, hi) of the steps in [s, e] near each center.

        Row i is queried at level levels[i]. Returns (row, lo, hi), one entry
        per non-empty cell run, ascending by row, where row indexes `centers`.
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
        side = side.take(row)
        cells = (first.take(row, axis=0) + offsets.take(cell, axis=0)) % side[:, None]
        base = (self._first_cell.take(levels.take(row)) + self._flat(cells, side)) * self.n1
        lo = np.searchsorted(self._keys, base + s.take(row))
        hi = np.searchsorted(self._keys, base + e.take(row), side="right")
        nonempty = hi > lo
        return row[nonempty], lo[nonempty], hi[nonempty]

    def steps(self, index: np.ndarray) -> np.ndarray:
        return self._keys.take(index) % self.n1

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
        e = np.minimum(2 * s, n)
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
    the window. Rows are taken while the pairs stay within MAX_PAIRS.
    """
    volumes = sphere_volume(bound, (s - 1).astype(float), params)
    radii = grid.radii(volumes)
    centers = grid.positions.take(u, axis=0)
    row, lo, hi = grid.runs(grid.levels(radii), centers, radii, s, e)
    pairs = np.bincount(row, hi - lo, minlength=u.size)
    take = max(1, int(np.searchsorted(np.cumsum(pairs), MAX_PAIRS, side="right")))
    keep = row < take
    row, lo, sizes = row[keep], lo[keep], hi[keep] - lo[keep]
    ends = np.cumsum(sizes)
    index = np.arange(ends[-1] if ends.size else 0) + np.repeat(lo - ends + sizes, sizes)
    return take, np.repeat(row, sizes), grid.steps(index)
