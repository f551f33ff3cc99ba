"""Leveled grid index over spheres of influence on the torus.

Answers "which existing vertices' spheres contain the point x" in far less
than O(t) time while radii grow with in-degree and shrink as time passes.
`generate` walks steps over this index only when it is passed as
`index_factory`, the seam through which harnesses inject a broken or
instrumented index; its default vertex-centric walk needs no dynamic index.

Layout: one uniform grid per radius class, level l having cell side 2^-l.
A vertex sits in exactly one cell (the cell containing its center) at the
level matching its current radius; a query then scans the 3^m neighborhood
of the query point's cell at every occupied level, which is guaranteed to
cover any ball whose radius is at most the level's cell side.

Time decay is lazy. Each entry stores its sphere's volume numerator w, so
its exact current volume is min(w / t, 1) for any later clock t; radii only
shrink between weight updates, hence a stale (coarser) bucketing can only
over-approximate the candidate set, never miss a vertex. Exactness is
restored by the final membership test. Entries migrate to their proper
level when their weight changes and during a full sweep every time the
clock doubles, which keeps buckets tight at O(1) amortized cost per step.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import UsageError
from .geometry import Norm, ball_contains, unit_ball_volume

# Guards against a radius rounding down across a power-of-two class
# boundary; a one-level-coarser bucket is always safe, the converse is not.
_LEVEL_SAFETY = 1.0 + 1e-12


class SphereIndex:
    """Dynamic "which spheres cover x" queries for the growth process."""

    def __init__(self, m: int, norm: Norm, capacity: int):
        if capacity < 1:
            raise UsageError(f"capacity must be >= 1, got {capacity}")
        self.m = m
        self.norm = norm
        self.capacity = capacity
        self.max_level = int(np.ceil(np.log2(max(capacity, 2)) / m)) + 2
        self.clock = 1
        self._unit = unit_ball_volume(m, norm)
        self._positions = np.full((capacity + 1, m), np.nan)
        self._weights = np.zeros(capacity + 1)
        self._levels_of = np.full(capacity + 1, -1, dtype=np.int16)
        self._buckets: list[dict[int, list[int]]] = [
            {} for _ in range(self.max_level + 1)
        ]
        self._level_counts = [0] * (self.max_level + 1)
        self._offsets = list(itertools.product((-1, 0, 1), repeat=m))
        self._last_sweep = 1

    def __len__(self) -> int:
        return sum(self._level_counts)

    def __contains__(self, vertex_id: int) -> bool:
        return 0 < vertex_id <= self.capacity and self._levels_of[vertex_id] >= 0

    # -- maintenance ------------------------------------------------------

    def insert(self, vertex_id: int, position, weight: float) -> None:
        """Add a vertex whose sphere has volume min(weight / clock, 1)."""
        if vertex_id in self:
            raise UsageError(f"vertex {vertex_id} already present")
        if not 0 < vertex_id <= self.capacity:
            raise UsageError(f"vertex id {vertex_id} outside capacity {self.capacity}")
        self._positions[vertex_id] = position
        self._weights[vertex_id] = weight
        self._place(vertex_id, self._level_for(weight))

    def update_weight(self, vertex_id: int, weight: float) -> None:
        """Change a sphere's volume numerator (its radius follows)."""
        if vertex_id not in self:
            raise UsageError(f"vertex {vertex_id} not present")
        self._weights[vertex_id] = weight
        level = self._level_for(weight)
        if level != self._levels_of[vertex_id]:
            self._remove(vertex_id)
            self._place(vertex_id, level)

    def advance_time(self, t: int) -> None:
        """Move the clock forward; all sphere volumes decay to w/t lazily."""
        if t < self.clock:
            raise UsageError(f"clock may not go backwards: {t} < {self.clock}")
        self.clock = t
        if t >= 2 * self._last_sweep:
            self._sweep()
            self._last_sweep = t

    # -- queries ----------------------------------------------------------

    def covering_spheres(self, x, t: int | None = None) -> np.ndarray:
        """Ids of all vertices whose sphere contains x, ascending by birth.

        If t is given the clock is advanced to it first, so radii reflect
        exactly the volumes min(w / t, 1). Membership is the closed-ball
        predicate shared with the linear-scan generators.
        """
        if t is not None:
            self.advance_time(t)
        gathered: list[int] = []
        for level, count in enumerate(self._level_counts):
            if count == 0:
                continue
            cells = self._buckets[level]
            ncells = 1 << level
            if ncells <= 2:
                for bucket in cells.values():
                    gathered.extend(bucket)
                continue
            base = self._cell_coords(x, ncells)
            for off in self._offsets:
                key = 0
                for b, o in zip(base, off):
                    key = key * ncells + (b + o) % ncells
                bucket = cells.get(key)
                if bucket:
                    gathered.extend(bucket)
        if not gathered:
            return np.empty(0, dtype=np.int64)
        ids = np.array(gathered, dtype=np.int64)
        volumes = np.minimum(self._weights[ids] / float(self.clock), 1.0)
        mask = ball_contains(self._positions[ids], volumes, x, self.norm)
        found = ids[mask]
        found.sort()
        return found

    def current_volume(self, vertex_id: int) -> float:
        if vertex_id not in self:
            raise UsageError(f"vertex {vertex_id} not present")
        return float(min(self._weights[vertex_id] / float(self.clock), 1.0))

    # -- internals --------------------------------------------------------

    def _level_for(self, weight: float) -> int:
        volume = min(weight / float(self.clock), 1.0)
        radius = (volume / self._unit) ** (1.0 / self.m) * _LEVEL_SAFETY
        level = int(np.floor(-np.log2(radius)))
        return min(max(level, 0), self.max_level)

    def _cell_coords(self, position, ncells: int) -> tuple[int, ...]:
        return tuple(
            min(int(c * ncells), ncells - 1) for c in np.asarray(position, dtype=float)
        )

    def _cell_key(self, position, level: int) -> int:
        ncells = 1 << level
        key = 0
        for c in self._cell_coords(position, ncells):
            key = key * ncells + c
        return key

    def _place(self, vertex_id: int, level: int) -> None:
        key = self._cell_key(self._positions[vertex_id], level)
        self._buckets[level].setdefault(key, []).append(vertex_id)
        self._levels_of[vertex_id] = level
        self._level_counts[level] += 1

    def _remove(self, vertex_id: int) -> None:
        level = int(self._levels_of[vertex_id])
        key = self._cell_key(self._positions[vertex_id], level)
        bucket = self._buckets[level][key]
        bucket.remove(vertex_id)
        if not bucket:
            del self._buckets[level][key]
        self._level_counts[level] -= 1
        self._levels_of[vertex_id] = -1

    def _sweep(self) -> None:
        present = np.nonzero(self._levels_of >= 0)[0]
        if present.size == 0:
            return
        volumes = np.minimum(self._weights[present] / float(self.clock), 1.0)
        radii = (volumes / self._unit) ** (1.0 / self.m) * _LEVEL_SAFETY
        levels = np.clip(
            np.floor(-np.log2(radii)).astype(np.int64), 0, self.max_level
        )
        stale = levels != self._levels_of[present]
        for vertex_id, level in zip(present[stale].tolist(), levels[stale].tolist()):
            self._remove(vertex_id)
            self._place(vertex_id, level)
