"""Growth of spatial preferential attachment graphs on the unit torus.

Each step places one vertex uniformly at random, then flips an independent
link coin for every existing vertex whose sphere of influence contains the
newcomer. Sphere volumes are min((a1 * in_degree + a2) / t, 1), so they
grow with in-degree and shrink with time.

Positions do not depend on the graph, and a sphere depends only on its own
vertex's in-degree, so once all positions are drawn each vertex's in-edges
form an independent process. `generate_many` exploits this: it draws every
position first, buckets them once into a static cell-sorted grid per cell
size, and walks each vertex forward in time through doubling windows,
testing the model's membership expression on each step it gathers and
reading the coin of (step, vertex) only when the vertex covers the step
(n = 10^5 in 4.0-4.4 s and n = 10^6 in 47 s on one core of a 2-vCPU Xeon
virtual machine). Positions and coin words depend only on the seed, so
models that differ only in p, a1 and a2 share the positions, the grid and,
block by block, every coin word already read (a nine-p sweep at n = 2000
hashes 195,068 words instead of 521,630). `generate` is its one-model case.
`generate_naive` is the step-centric O(n^2) oracle: step t asks a
linear-scan `SphereIndex` which prior spheres, at their volumes for time
t - 1, cover the newcomer.
Passing `index_factory` to `generate` runs the same step-centric walk
over an index of the caller's choosing (`SphereIndex` or a subclass),
which keeps a seam for injecting a broken or instrumented index. All
paths read the same counter-based streams and compare the same
membership expression, so for equal parameters and seed they produce
bit-identical graphs; any disagreement is a bug.
"""

from __future__ import annotations

import array
import itertools
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, UsageError
from .geometry import Norm, needed_volume, unit_ball_volume
from .rng import LANE_POSITION, CounterStream, coin_cut
from .spatial_index import SphereIndex

NAIVE_GUARD = 10_000
_FILL = 1 << 16   # edges per block when filling the in-neighbor sort keys
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
        if self.dimension < 1:
            raise ParameterError(f"dimension must be >= 1, got {self.dimension}")
        if not isinstance(self.norm, Norm):
            raise ParameterError(f"norm must be a Norm, got {self.norm!r}")
        if not 0 <= self.seed < 2 ** 64:
            raise ParameterError(f"seed must be a 64-bit unsigned int, got {self.seed}")


def sphere_volume(in_degree, t, params: ModelParams):
    """Volume of a degree-`in_degree` vertex's sphere at time t, capped at 1.

    Scalars or arrays; arrays broadcast against each other.
    """
    return np.minimum((params.a1 * in_degree + params.a2) / t, 1.0)


@dataclass
class GrownGraph:
    """A finished run: positions, birth-ordered edges, and degree views.

    Vertices are identified by their birth step, 1..n. Every edge points
    from its (younger) source to an older target, and a vertex's out-edges
    are fixed at its birth step. Because of that, the in-neighbors of v
    arrive exactly at their own birth steps, so the full in-degree
    trajectory of any vertex is recoverable from its sorted in-neighbor
    list; nothing extra needs recording during growth. The in-neighbor
    lists come from sorting one key per edge in place, in the array that
    becomes `in_sources`, so building them needs no other edge-sized array.
    """

    params: ModelParams
    out_ptr: np.ndarray
    out_targets: np.ndarray
    positions: np.ndarray | None = None
    in_ptr: np.ndarray = field(init=False)
    in_sources: np.ndarray = field(init=False)
    in_degree: np.ndarray = field(init=False)   # indexed by vertex id, slot 0 unused
    out_degree: np.ndarray = field(init=False)

    def __post_init__(self):
        n = self.params.n
        nk = np.int64(n + 1)
        self.out_degree = np.diff(self.out_ptr)
        self.in_degree = np.bincount(self.out_targets, minlength=n + 1)
        self.in_ptr = np.zeros(n + 2, dtype=np.int64)
        np.cumsum(self.in_degree, out=self.in_ptr[1:])
        # The keys target * (n + 1) + source are unique, so sorting them
        # lists every vertex's in-neighbors ascending by birth.
        keys = self.edge_sources()
        for lo in range(0, keys.size, _FILL):
            keys[lo : lo + _FILL] += self.out_targets[lo : lo + _FILL] * nk
        keys.sort()
        self.in_sources = np.remainder(keys, nk, out=keys)

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def num_edges(self) -> int:
        return int(self.out_targets.size)

    def out_neighbors(self, v: int) -> np.ndarray:
        return self.out_targets[self.out_ptr[v] : self.out_ptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """Sources of v's in-edges, ascending by birth (= arrival order)."""
        return self.in_sources[self.in_ptr[v] : self.in_ptr[v + 1]]

    def in_degree_at(self, v: int, t: int) -> int:
        """deg^-(v, t): in-edges that existed by the end of step t."""
        return int(np.searchsorted(self.in_neighbors(v), t, side="right"))

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
        """
        n = params.n
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        bad = first_bad_edge(n, edges)
        if bad is not None:
            raise UsageError(bad[1])
        out_ptr = np.zeros(n + 2, dtype=np.int64)
        np.cumsum(np.bincount(edges[:, 0], minlength=n + 1), out=out_ptr[1:])
        if positions is not None:
            positions = np.asarray(positions, dtype=float)
            if positions.shape != (n + 1, params.dimension):
                raise UsageError(
                    f"positions must have shape {(n + 1, params.dimension)}, "
                    f"got {positions.shape}"
                )
        return cls(params=params, out_ptr=out_ptr,
                   out_targets=np.ascontiguousarray(edges[:, 1]), positions=positions)


def first_bad_edge(n: int, edges: np.ndarray) -> tuple[int, str] | None:
    """(index, message) of the first of `edges` that breaks birth or generation order.

    An edge (s, u) needs 1 <= u < s <= n, and its key s*(n+1) + u must
    exceed the previous edge's; None when every edge passes.
    """
    s, u = edges[:, 0], edges[:, 1]
    unborn = (s < 1) | (s > n) | (u < 1) | (u >= s)
    keys = s * np.int64(n + 1) + u
    unordered = np.zeros(s.size, dtype=bool)
    unordered[1:] = keys[1:] <= keys[:-1]
    bad = np.flatnonzero(unborn | unordered)
    if bad.size == 0:
        return None
    i = int(bad[0])
    reason = "violates birth ordering" if unborn[i] else "out of generation order"
    return i, f"edge ({s[i]}, {u[i]}) {reason}"


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
    word = stream.coin_words()
    walk_order = sorted(range(len(models)), key=lambda i: -models[i].a2)
    # One buffer per model grown in place holds the keys t * (n + 1) + u of
    # every edge: no per-block arrays to free, and no second copy to join them.
    edges = [array.array("q") for _ in models]
    for first in range(1, n, BLOCK):
        stop = min(first + BLOCK, n)
        table = _CoinTable() if len(models) > 1 else None
        for i in walk_order:
            edges[i].extend(_advance_block(first, stop, grid, word, table, models[i]))
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
    a1, a2 = float(params.a1), float(params.a2)
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
# that step.
# Rows of (k, m) arrays are read with take(axis=0), not a[idx]: with m this
# small, 2-D fancy indexing costs 10x more (157 gathers of 10.5k rows: 0.036
# s against 0.003 s on a 2.1 GHz Xeon VM), as do .all(axis=-1) and int64 @.

BLOCK = 512            # vertices advanced in lockstep
MAX_PAIRS = 32_768     # (vertex, step) pairs gathered per round, unless one vertex needs more
_MAX_CELLS = 3 ** 6    # cells per query; beyond this every query scans its whole window


class _StaticGrid:
    """All positions, bucketed once per cell side 2^-l into cell-sorted keys.

    Level l holds the sorted keys cell * (n + 1) + t, so the steps in
    [s, e] whose position lies in one cell form a contiguous run. A query
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
            # No query is finer than a fresh vertex's sphere at step n, and
            # cell * (n + 1) + t must fit in an int64.
            smallest = self.radii(np.array([sphere_volume(0, max(n - 1, 1), params)]))
            finest = int(np.floor(-np.log2(smallest[0])))
            levels = 1 + min(max(finest, 0), (62 - self.n1.bit_length()) // m)
        self._keys = [self._bucket(level) for level in range(levels)]

    def radii(self, volumes: np.ndarray) -> np.ndarray:
        """Half-widths of boxes holding every point of each ball.

        The margin absorbs rounding in the radius and in the box corners.
        """
        return (volumes / self._unit) ** (1.0 / self._m) * (1.0 + 1e-9) + 1e-12

    def levels(self, radii: np.ndarray) -> np.ndarray:
        """Finest level whose cell side is at least each radius: 3^m cells or fewer."""
        levels = np.floor(-np.log2(radii))
        return np.clip(levels, 0, len(self._keys) - 1).astype(np.int64)

    def runs(self, level: int, centers, radii, s, e):
        """Key index runs [lo, hi) of the steps in [s, e] near each center.

        Returns (row, lo, hi), one entry per non-empty cell run, where row
        indexes `centers`.
        """
        keys = self._keys[level]
        ncells = 1 << level
        first = np.floor((centers - radii[:, None]) * ncells).astype(np.int64)
        last = np.floor((centers + radii[:, None]) * ncells).astype(np.int64)
        counts = np.minimum(last - first + 1, ncells)
        offsets = np.array(
            list(itertools.product(range(int(counts.max())), repeat=self._m)),
            dtype=np.int64,
        )
        inside = offsets[:, 0] < counts[:, None, 0]
        for j in range(1, self._m):
            inside &= offsets[:, j] < counts[:, None, j]
        row, cell = np.nonzero(inside)
        cells = (first.take(row, axis=0) + offsets.take(cell, axis=0)) % ncells
        base = self._flat(cells, ncells) * self.n1
        lo = np.searchsorted(keys, base + s.take(row))
        hi = np.searchsorted(keys, base + e.take(row), side="right")
        nonempty = hi > lo
        return row[nonempty], lo[nonempty], hi[nonempty]

    def steps(self, level: int, index: np.ndarray) -> np.ndarray:
        return self._keys[level].take(index) % self.n1

    def _flat(self, cells: np.ndarray, ncells: int) -> np.ndarray:
        """Row-major cell number of each row of (k, m) cell coordinates."""
        flat = cells[:, 0]
        for j in range(1, self._m):
            flat = flat * ncells + cells[:, j]
        return flat

    def _bucket(self, level: int) -> np.ndarray:
        ncells = 1 << level
        cells = np.minimum((self.positions[1:] * ncells).astype(np.int64), ncells - 1)
        keys = self._flat(cells, ncells) * self.n1 + np.arange(1, self.n1)
        keys.sort()
        return keys


class _CoinTable:
    """The coin words read so far in one vertex block, sorted by key t * (n + 1) + u."""

    def __init__(self):
        self.keys = np.empty(0, dtype=np.int64)
        self.words = np.empty(0, dtype=np.uint64)

    def known(self, keys: np.ndarray, cut: int) -> list[int]:
        """Per key, its coin at `cut` (see `coin_cut`): 1 heads, 0 tails, -1 word not held."""
        if not self.keys.size:
            return [-1] * keys.size
        at = np.minimum(np.searchsorted(self.keys, keys), self.keys.size - 1)
        # w >> 11 < cut, not w < cut << 11: at p = 1 the latter cut is 2^64
        heads = (self.words.take(at) >> 11) < cut
        return np.where(self.keys.take(at) == keys, heads, -1).tolist()

    def add(self, keys: array.array, words: array.array) -> None:
        """Hold more (key, word) pairs, from 'q' and 'Q' arrays; no key may be held already."""
        order = np.argsort(np.frombuffer(keys, dtype=np.int64))
        keys = np.frombuffer(keys, dtype=np.int64).take(order)
        words = np.frombuffer(words, dtype=np.uint64).take(order)
        del order
        if self.keys.size:
            at = np.searchsorted(self.keys, keys)
            keys, words = np.insert(self.keys, at, keys), np.insert(self.words, at, words)
        self.keys, self.words = keys, words


def _advance_block(first: int, stop: int, grid: _StaticGrid, word, table: _CoinTable | None,
                   params: ModelParams) -> list[int]:
    """In-edges of vertices first..stop-1, as a list of keys t * (n + 1) + u.

    `word` reads the coin word at (t, u). With a `table`, words it holds
    are not read again, and every word read is added to it.
    """
    n, n1 = params.n, params.n + 1
    u = np.arange(first, stop, dtype=np.int64)
    k = np.zeros(u.size, dtype=np.int64)
    s = u + 1
    cut = coin_cut(params.p)
    a1, a2 = float(params.a1), float(params.a2)
    edges: list[int] = []
    if table is not None:
        # 8 bytes a key and a word; lists of ints would take 80
        read_keys, read_words, read = array.array("q"), array.array("Q"), word

        def word(t: int, vertex: int) -> int:
            w = read(t, vertex)
            read_keys.append(t * n1 + vertex)
            read_words.append(w)
            return w

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
        ptr = np.searchsorted(owners, np.arange(take + 1)).tolist()
        if table is None:
            known = [-1] * steps.size
        else:
            known = table.known(steps * n1 + u.take(owners), cut)
        steps, tm1, q = steps.tolist(), tm1.take(order).tolist(), q.take(order).tolist()
        walked = zip(u[:take].tolist(), k[:take].tolist(), bound[:take].tolist(),
                     e[:take].tolist(), ptr, ptr[1:])
        new_k, new_s = [], []
        # Every kept pair has q <= sphere_volume(bound) <= 1, so sphere_volume's cap
        # at 1 changes no decision below, and Python's float * + / are the IEEE
        # operations numpy's float64 performs: the test below is the model's, bit
        # for bit.
        for vertex, degree, limit, end, lo, hi in walked:
            nxt = end + 1
            weight = a1 * degree + a2
            for j in range(lo, hi):
                if q[j] <= weight / tm1[j]:
                    t = steps[j]
                    heads = known[j]
                    if heads < 0:
                        heads = word(t, vertex) >> 11 < cut
                    if heads:
                        degree += 1
                        weight = a1 * degree + a2
                        edges.append(t * n1 + vertex)
                        if degree > limit:
                            nxt = t + 1
                            break
            new_k.append(degree)
            new_s.append(nxt)
        k[:take] = new_k
        s[:take] = new_s
        alive = s <= n
        u, k, s = u[alive], k[alive], s[alive]
    if table is not None:
        table.add(read_keys, read_words)
    return edges


def _gather(grid: _StaticGrid, u, s, e, bound, params: ModelParams):
    """Candidate (vertex row, step) pairs for a prefix of the vertices u.

    Returns (take, owners, steps): for every row i < take, each step in
    [s[i], e[i]] whose position lies in the box around u[i] that holds
    u[i]'s sphere at degree bound[i] and time s[i] - 1, its largest in
    the window. Rows are taken while the pairs stay within MAX_PAIRS.
    """
    volumes = sphere_volume(bound, (s - 1).astype(float), params)
    radii = grid.radii(volumes)
    levels = grid.levels(radii)
    runs = []
    for level in np.flatnonzero(np.bincount(levels)).tolist():
        rows = np.flatnonzero(levels == level)
        centers = grid.positions.take(u.take(rows), axis=0)
        row, lo, hi = grid.runs(level, centers, radii.take(rows), s.take(rows), e.take(rows))
        runs.append((level, rows.take(row), lo, hi))
    pairs = np.zeros(u.size)
    for _, row, lo, hi in runs:
        pairs += np.bincount(row, hi - lo, minlength=u.size)
    take = max(1, int(np.searchsorted(np.cumsum(pairs), MAX_PAIRS, side="right")))
    owners, steps = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for level, row, lo, hi in runs:
        keep = row < take
        sizes = hi[keep] - lo[keep]
        ends = np.cumsum(sizes)
        index = np.arange(ends[-1] if ends.size else 0) + np.repeat(lo[keep] - ends + sizes, sizes)
        owners.append(np.repeat(row[keep], sizes))
        steps.append(grid.steps(level, index))
    return take, np.concatenate(owners), np.concatenate(steps)
