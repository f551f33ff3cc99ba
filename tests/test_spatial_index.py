import numpy as np
import pytest

from spagraph.errors import UsageError
from spagraph.geometry import Norm, ball_contains
from spagraph.spatial_index import SphereIndex


class NaiveMirror:
    """O(t)-scan reference with the same closed-ball membership predicate."""

    def __init__(self, m, norm):
        self.m = m
        self.norm = norm
        self.clock = 1
        self.entries = {}

    def insert(self, vertex_id, position, weight):
        self.entries[vertex_id] = (np.array(position, dtype=float), weight)

    def update_weight(self, vertex_id, weight):
        pos, _ = self.entries[vertex_id]
        self.entries[vertex_id] = (pos, weight)

    def advance_time(self, t):
        self.clock = t

    def covering_spheres(self, x, t=None):
        if t is not None:
            self.clock = t
        if not self.entries:
            return np.empty(0, dtype=np.int64)
        ids = np.array(sorted(self.entries), dtype=np.int64)
        centers = np.array([self.entries[int(v)][0] for v in ids])
        weights = np.array([self.entries[int(v)][1] for v in ids])
        volumes = np.minimum(weights / float(self.clock), 1.0)
        return ids[ball_contains(centers, volumes, x, self.norm)]


def weight_for_volume(volume, t):
    return volume * t


def test_insert_then_query_at_center():
    index = SphereIndex(2, Norm.LINF, 10)
    index.insert(1, [0.3, 0.3], weight_for_volume(0.01, 1))
    assert index.covering_spheres([0.3, 0.3], 1).tolist() == [1]


def test_point_outside_radius_excluded():
    index = SphereIndex(2, Norm.LINF, 10)
    index.insert(1, [0.3, 0.3], weight_for_volume(0.01, 1))  # radius 0.05
    assert index.covering_spheres([0.4, 0.3], 1).size == 0


def test_empty_index_empty_answer():
    index = SphereIndex(2, Norm.L2, 10)
    assert index.covering_spheres([0.5, 0.5], 3).size == 0


def test_duplicate_insert_rejected():
    index = SphereIndex(2, Norm.LINF, 10)
    index.insert(1, [0.1, 0.1], 0.5)
    with pytest.raises(UsageError):
        index.insert(1, [0.2, 0.2], 0.5)


def test_unknown_update_rejected():
    index = SphereIndex(2, Norm.LINF, 10)
    with pytest.raises(UsageError):
        index.update_weight(5, 1.0)


def test_boundary_inclusion_closed_ball():
    # volume 0.25 -> Linf radius exactly 0.25; the boundary point is inside
    index = SphereIndex(2, Norm.LINF, 10)
    index.insert(1, [0.5, 0.5], weight_for_volume(0.25, 1))
    assert index.covering_spheres([0.75, 0.5], 1).tolist() == [1]


def test_same_class_update_does_not_rebucket():
    index = SphereIndex(2, Norm.LINF, 10)
    index.insert(1, [0.2, 0.2], weight_for_volume(0.01, 1))
    index.update_weight(1, weight_for_volume(0.012, 1))
    assert index.covering_spheres([0.2, 0.2], 1).tolist() == [1]


def test_radius_shrink_across_class_boundary():
    index = SphereIndex(2, Norm.LINF, 100)
    index.insert(1, [0.5, 0.5], weight_for_volume(0.16, 1))  # radius 0.2
    assert index.covering_spheres([0.69, 0.5], 1).tolist() == [1]
    index.update_weight(1, weight_for_volume(0.01, 1))       # radius 0.05
    assert index.covering_spheres([0.69, 0.5], 1).size == 0
    assert index.covering_spheres([0.54, 0.5], 1).tolist() == [1]


def test_lazy_decay_volume_formula():
    # degree-0 vertex with a1=1, a2=1: volume 1/t
    index = SphereIndex(2, Norm.LINF, 100)
    index.insert(1, [0.5, 0.5], 1.0)
    index.advance_time(10)
    assert index.current_volume(1) == pytest.approx(0.1)
    index.advance_time(20)
    assert index.current_volume(1) == pytest.approx(0.05)


def test_clamped_volume_stays_clamped_until_time_catches_up():
    index = SphereIndex(2, Norm.LINF, 100)
    index.insert(1, [0.9, 0.9], 40.0)  # volume min(40/t, 1)
    for t in (2, 10, 40):
        index.advance_time(t)
        assert index.current_volume(1) == 1.0
        assert index.covering_spheres([0.4, 0.4], t).tolist() == [1]
    index.advance_time(80)
    assert index.current_volume(1) == 0.5


@pytest.mark.parametrize("norm", list(Norm))
def test_random_inserts_match_linear_scan(norm):
    rng = np.random.default_rng(7)
    index = SphereIndex(2, norm, 1000)
    mirror = NaiveMirror(2, norm)
    for v in range(1, 1001):
        pos = rng.random(2)
        weight = rng.random() * 3
        index.insert(v, pos, weight)
        mirror.insert(v, pos, weight)
    for t in (1, 3, 10):
        for _ in range(330):
            x = rng.random(2)
            assert (
                index.covering_spheres(x, t).tolist()
                == mirror.covering_spheres(x, t).tolist()
            )


@pytest.mark.parametrize("norm,m", [(Norm.LINF, 2), (Norm.L2, 2), (Norm.LINF, 3), (Norm.L2, 1)])
def test_randomized_interleaving_oracle_equivalence(norm, m):
    rng = np.random.default_rng(hash((norm.value, m)) % 2 ** 32)
    capacity = 5000
    index = SphereIndex(m, norm, capacity)
    mirror = NaiveMirror(m, norm)
    next_id = 1
    t = 1
    for _ in range(8000):
        action = rng.random()
        if action < 0.45 and next_id <= capacity:
            pos = rng.random(m)
            weight = rng.random() * rng.choice([0.1, 1.0, 10.0])
            index.insert(next_id, pos, weight)
            mirror.insert(next_id, pos, weight)
            next_id += 1
        elif action < 0.75 and next_id > 1:
            v = int(rng.integers(1, next_id))
            weight = rng.random() * rng.choice([0.1, 1.0, 10.0])
            index.update_weight(v, weight)
            mirror.update_weight(v, weight)
        elif action < 0.85:
            t += int(rng.integers(1, 5))
            index.advance_time(t)
            mirror.advance_time(t)
        else:
            x = rng.random(m)
            assert (
                index.covering_spheres(x, t).tolist()
                == mirror.covering_spheres(x, t).tolist()
            )
    for _ in range(50):
        x = rng.random(m)
        assert (
            index.covering_spheres(x, t).tolist()
            == mirror.covering_spheres(x, t).tolist()
        )


def test_results_sorted_by_birth_index():
    index = SphereIndex(2, Norm.LINF, 50)
    for v in (5, 2, 9, 1):
        index.insert(v, [0.5, 0.5], 10.0)
    assert index.covering_spheres([0.5, 0.5], 1).tolist() == [1, 2, 5, 9]
