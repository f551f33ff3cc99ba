"""Linear-scan index over spheres of influence on the torus.

Each entry stores its sphere's volume numerator w; `covering_spheres(x, t)`
tests every inserted vertex at volume min(w / t, 1), O(t) per query.
`generate_naive` walks steps over this index, and `generate` does so too
when passed `index_factory`, the seam through which harnesses inject a
broken or instrumented subclass. Centres are stored column-major, so the
numpy loops of a query run along the t entries, not along the m axes.
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
        self.norm = norm
        self.capacity = capacity
        # slots never inserted keep NaN centers, which no ball contains
        self._positions = np.full((m, capacity + 1), np.nan).T
        self._weights = np.zeros(capacity + 1)
        self._present = bytearray(capacity + 1)
        self._end = 1   # one past the largest inserted id

    def __contains__(self, vertex_id: int) -> bool:
        return 0 < vertex_id <= self.capacity and self._present[vertex_id] == 1

    def insert(self, vertex_id: int, position, weight: float) -> None:
        """Add a vertex whose sphere has volume min(weight / t, 1) at time t."""
        if vertex_id in self:
            raise UsageError(f"vertex {vertex_id} already present")
        if not 0 < vertex_id <= self.capacity:
            raise UsageError(f"vertex id {vertex_id} outside capacity {self.capacity}")
        self._positions[vertex_id] = position
        self._weights[vertex_id] = weight
        self._present[vertex_id] = 1
        self._end = max(self._end, vertex_id + 1)

    def update_weight(self, vertex_id: int, weight: float) -> None:
        """Change a sphere's volume numerator (its radius follows)."""
        if vertex_id not in self:
            raise UsageError(f"vertex {vertex_id} not present")
        self._weights[vertex_id] = weight

    def covering_spheres(self, x, t: int) -> np.ndarray:
        """Ids of all vertices whose sphere of volume min(w / t, 1) contains x, ascending.

        Membership is the closed-ball predicate shared with the
        vertex-centric generator.
        """
        end = self._end
        volumes = np.minimum(self._weights[1:end] / float(t), 1.0)
        return ball_contains(self._positions[1:end], volumes, x, self.norm).nonzero()[0] + 1
