import pytest

from spagraph.errors import UsageError
from spagraph.geometry import Norm
from spagraph.spatial_index import SphereIndex


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


@pytest.mark.parametrize("vertex_id", [0, -1, 11])
def test_ids_outside_capacity_rejected(vertex_id):
    index = SphereIndex(2, Norm.LINF, 10)
    index.insert(10, [0.5, 0.5], 1.0)   # the last slot, where id -1 would land if it wrapped
    assert 10 in index
    assert vertex_id not in index
    with pytest.raises(UsageError):
        index.insert(vertex_id, [0.5, 0.5], 1.0)
    with pytest.raises(UsageError):
        index.update_weight(vertex_id, 2.0)
    assert index.covering_spheres([0.5, 0.5], 1).tolist() == [10]


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
    # degree-0 vertex with a1=1, a2=1: volume 1/t, so the Linf radius is sqrt(1/t) / 2
    index = SphereIndex(2, Norm.LINF, 100)
    index.insert(1, [0.5, 0.5], 1.0)
    assert index.covering_spheres([0.65, 0.5], 10).tolist() == [1]   # radius 0.158
    assert index.covering_spheres([0.65, 0.5], 20).size == 0         # radius 0.112
    assert index.covering_spheres([0.61, 0.5], 20).tolist() == [1]
    # a query at an earlier t sees the larger sphere again
    assert index.covering_spheres([0.65, 0.5], 10).tolist() == [1]


def test_clamped_volume_stays_clamped_until_time_catches_up():
    # L2 shows the cap at volume 1: the point opposite the center needs volume pi/2
    index = SphereIndex(2, Norm.L2, 100)
    index.insert(1, [0.9, 0.9], 40.0)  # volume min(40/t, 1)
    far, near = [0.4, 0.4], [0.4, 0.9]   # needed volumes pi/2 and pi/4
    for t in (2, 10, 40):
        assert index.covering_spheres(far, t).size == 0
        assert index.covering_spheres(near, t).tolist() == [1]
    assert index.covering_spheres(near, 80).size == 0   # volume 0.5
    assert index.covering_spheres([0.6, 0.9], 80).tolist() == [1]   # needs 0.09 pi


@pytest.mark.parametrize("norm", list(Norm))
def test_sphere_covers_across_the_torus_seam(norm):
    index = SphereIndex(2, norm, 10)
    index.insert(1, [0.98, 0.99], 1.0)
    # 0.04 and 0.02 apart across the seam; a straight line is 0.96 and 0.98
    x = [0.02, 0.01]
    assert index.covering_spheres(x, 100).tolist() == [1]   # volume 0.01
    assert index.covering_spheres(x, 400).size == 0         # volume 0.0025


def test_results_sorted_by_birth_index():
    index = SphereIndex(2, Norm.LINF, 50)
    for v in (5, 2, 9, 1):
        index.insert(v, [0.5, 0.5], 10.0)
    assert index.covering_spheres([0.5, 0.5], 1).tolist() == [1, 2, 5, 9]
