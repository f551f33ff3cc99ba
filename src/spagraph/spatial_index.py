"""Linear-scan index over spheres of influence on the torus.

Answers "which inserted vertices' spheres contain the point x" by testing
every inserted vertex, O(t) per query. `generate_naive` walks steps over
this index, and `generate` does so too when it is passed `index_factory`,
the seam through which harnesses inject a broken or instrumented index
(a subclass of `SphereIndex`); its default vertex-centric walk needs no
dynamic index.

Each entry stores its sphere's volume numerator w, so its current volume
is min(w / t, 1) for the clock t; time decay costs nothing until a query.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError
from .geometry import Norm, ball_contains


class SphereIndex:
    """Dynamic "which spheres cover x" queries for the growth process."""

    def __init__(self, m: int, norm: Norm, capacity: int):
        if capacity < 1:
            raise UsageError(f"capacity must be >= 1, got {capacity}")
        self.m = m
        self.norm = norm
        self.capacity = capacity
        self.clock = 1
        # slots never inserted keep NaN centers, which no ball contains
        self._positions = np.full((capacity + 1, m), np.nan)
        self._weights = np.zeros(capacity + 1)
        self._present = np.zeros(capacity + 1, dtype=bool)
        self._end = 1   # one past the largest inserted id

    def __contains__(self, vertex_id: int) -> bool:
        return 0 < vertex_id <= self.capacity and bool(self._present[vertex_id])

    def insert(self, vertex_id: int, position, weight: float) -> None:
        """Add a vertex whose sphere has volume min(weight / clock, 1)."""
        if vertex_id in self:
            raise UsageError(f"vertex {vertex_id} already present")
        if not 0 < vertex_id <= self.capacity:
            raise UsageError(f"vertex id {vertex_id} outside capacity {self.capacity}")
        self._positions[vertex_id] = position
        self._weights[vertex_id] = weight
        self._present[vertex_id] = True
        self._end = max(self._end, vertex_id + 1)

    def update_weight(self, vertex_id: int, weight: float) -> None:
        """Change a sphere's volume numerator (its radius follows)."""
        if vertex_id not in self:
            raise UsageError(f"vertex {vertex_id} not present")
        self._weights[vertex_id] = weight

    def advance_time(self, t: int) -> None:
        """Move the clock forward; all sphere volumes decay to w/t."""
        if t < self.clock:
            raise UsageError(f"clock may not go backwards: {t} < {self.clock}")
        self.clock = t

    def covering_spheres(self, x, t: int | None = None) -> np.ndarray:
        """Ids of all vertices whose sphere contains x, ascending by birth.

        If t is given the clock is advanced to it first, so radii reflect
        exactly the volumes min(w / t, 1). Membership is the closed-ball
        predicate shared with the vertex-centric generator.
        """
        if t is not None:
            self.advance_time(t)
        end = self._end
        volumes = np.minimum(self._weights[1:end] / float(self.clock), 1.0)
        return np.flatnonzero(ball_contains(self._positions[1:end], volumes, x, self.norm)) + 1

    def current_volume(self, vertex_id: int) -> float:
        if vertex_id not in self:
            raise UsageError(f"vertex {vertex_id} not present")
        return float(min(self._weights[vertex_id] / float(self.clock), 1.0))
