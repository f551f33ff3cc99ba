"""Torus geometry, tested on `needed_volume`, the expression every membership
decision compares, and on the grid's volume-to-radius step `_StaticGrid.radii`."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spagraph.errors import ParameterError, UsageError
from spagraph.generator import ModelParams, _StaticGrid, generate
from spagraph.geometry import (
    Norm,
    ball_contains,
    needed_volume,
    torus_diffs,
    unit_ball_volume,
)
from spagraph.stats import ball_census

RNG = np.random.default_rng(20240817)


def chain(x, k):
    """x ** k as the left-to-right product x * x * ... * x, and 1.0 for k = 0."""
    out = 1.0 if k == 0 else x
    for _ in range(k - 1):
        out = out * x
    return out


def volume_of(d, norm):
    """Nominal volume of the smallest ball about 0 holding each row of d.

    The float expression `needed_volume` documents, applied to separation
    vectors the caller picks: b ** m for L-inf and s ** (m // 2) for L2,
    each as a fixed chain of multiplications.
    """
    m = d.shape[-1]
    if norm is Norm.LINF:
        return chain(2.0 * d.max(axis=-1), m)
    s = (d * d).sum(axis=-1)
    powered = chain(s, m // 2) * np.sqrt(s) if m % 2 else chain(s, m // 2)
    return unit_ball_volume(m, Norm.L2) * powered


def python_volume(center, x, norm):
    """`needed_volume` for one pair of points, in Python floats and `math` only."""
    m = len(x)
    d = [min(abs(c - v), 1.0 - abs(c - v)) for c, v in zip(center, x)]
    if norm is Norm.LINF:
        return chain(2.0 * max(d), m)
    s = 0.0
    for dj in d:
        s += dj * dj
    powered = chain(s, m // 2) * math.sqrt(s) if m % 2 else chain(s, m // 2)
    return unit_ball_volume(m, Norm.L2) * powered


def brute_force_volume(x, y, norm):
    """Per row, the minimum of volume_of(|x - y + u|) over all 3^m integer shift vectors u."""
    x, y = np.atleast_2d(x).astype(float), np.atleast_2d(y).astype(float)
    best = np.full(x.shape[0], np.inf)
    for shift in itertools.product((-1.0, 0.0, 1.0), repeat=x.shape[-1]):
        best = np.minimum(best, volume_of(np.abs(x - y + np.array(shift)), norm))
    return best


def distance(x, y, norm):
    """The torus distance, as the radius of the ball of volume needed_volume(x, y)."""
    m = np.shape(x)[-1]
    return (needed_volume(x, y, norm) / unit_ball_volume(m, norm)) ** (1.0 / m)


def grid_for(m, norm):
    """A grid whose `radii` turns volumes of an m-dimensional `norm` ball into box half-widths."""
    params = ModelParams(n=1, p=0.7, a1=1.0, a2=1.0, dimension=m, norm=norm)
    return _StaticGrid(np.full((2, m), 0.5), params)


def test_unit_ball_volume():
    for m in (1, 2, 3):
        assert unit_ball_volume(m, Norm.LINF) == 2.0 ** m
    assert unit_ball_volume(1, Norm.L2) == pytest.approx(2.0, rel=1e-15)
    assert unit_ball_volume(2, Norm.L2) == pytest.approx(math.pi, rel=1e-15)
    assert unit_ball_volume(3, Norm.L2) == pytest.approx(4 / 3 * math.pi, rel=1e-15)


def test_distance_identity():
    for m in (1, 2, 3):
        x = RNG.random((1000, m))
        for norm in Norm:
            assert np.all(needed_volume(x, x, norm) == 0.0)


def test_distance_wraparound_m1():
    # 0.1 and 0.9 are 0.2 apart across the seam, so the ball has length 0.4
    for norm in Norm:
        got = needed_volume([[0.1]], [0.9], norm)
        assert got == pytest.approx(0.4, abs=1e-15)
        assert got == needed_volume([[0.9]], [0.1], norm) == brute_force_volume(0.1, 0.9, norm)


def test_distance_one_wrapped_coordinate():
    got = needed_volume([[0.95, 0.50]], [0.05, 0.50], Norm.LINF)
    assert got == pytest.approx(0.2 ** 2, abs=1e-15)


def test_distance_l2_diagonal():
    got = needed_volume([[0.0, 0.0]], [0.5, 0.5], Norm.L2)
    assert got == math.pi * 0.5
    assert got == brute_force_volume([0.0, 0.0], [0.5, 0.5], Norm.L2)


def test_distance_dimension_mismatch():
    with pytest.raises(UsageError):
        needed_volume([0.1], [0.1, 0.2], Norm.L2)
    with pytest.raises(UsageError):
        ball_contains(np.zeros((3, 2)), 0.5, np.zeros(3), Norm.LINF)


@pytest.mark.parametrize("norm", list(Norm))
def test_metric_axioms_sampled(norm):
    for m in (1, 2, 3):
        x, y, z = RNG.random((3, 100_000, m))
        q = needed_volume(x, y, norm)
        # bitwise symmetric, so a caller may put either point first
        assert np.array_equal(q, needed_volume(y, x, norm))
        assert np.array_equal(needed_volume(x, y[0], norm), needed_volume(y[0], x, norm))
        assert np.all(distance(x, z, norm) <= distance(x, y, norm) + distance(y, z, norm) + 1e-12)
        # zero only for equal points
        assert np.all(q[np.any(x != y, axis=1)] > 0)


@pytest.mark.parametrize("norm", list(Norm))
def test_distance_upper_bound(norm):
    # no wrapped separation exceeds 1/2
    for m in (1, 2, 3, 4):
        pts = RNG.random((20_000, 2, m))
        d = distance(pts[:, 0], pts[:, 1], norm)
        bound = 0.5 if norm is Norm.LINF else 0.5 * np.sqrt(m)
        assert np.all(d <= bound * (1 + 1e-12))


@pytest.mark.parametrize("norm", list(Norm))
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_distance_equals_brute_force_shifts(norm, m):
    pts = RNG.random((300, 2, m))
    # separations of exactly 0 and 1/2, where two shifts tie
    pts[:10, 1] = pts[:10, 0]
    pts[10:20, 1] = (pts[10:20, 0] + 0.5) % 1.0
    got = needed_volume(pts[:, 0], pts[:, 1], norm)
    assert np.array_equal(got, brute_force_volume(pts[:, 0], pts[:, 1], norm))


unit_floats = st.floats(0.0, 1.0, exclude_max=True)


@settings(max_examples=200, deadline=None)
@given(norm=st.sampled_from(list(Norm)), points=st.integers(1, 6).flatmap(
    lambda m: st.lists(st.lists(unit_floats, min_size=m, max_size=m), min_size=2, max_size=40)))
def test_needed_volume_equals_python_float_oracle(norm, points):
    # bit for bit, for array and single-point calls alike
    x, centers = points[0], points[1:]
    got = needed_volume(np.array(centers), np.array(x), norm).tolist()
    single = [float(needed_volume(np.array(c), np.array(x), norm)) for c in centers]
    want = [python_volume(c, x, norm) for c in centers]
    assert [v.hex() for v in got] == [v.hex() for v in single] == [v.hex() for v in want]


@pytest.mark.parametrize("norm", list(Norm))
@pytest.mark.parametrize("m", [1, 2, 3])
def test_needed_volume_is_monotone_in_each_wrapped_separation(norm, m):
    x = RNG.random(m)
    for j in range(m):
        # move y along coordinate j only; the other separations stay bit for bit
        y = np.tile(RNG.random(m), (2000, 1))
        y[:, j] = RNG.random(2000)
        # no separation, the largest one, and one across the seam
        y[:3, j] = x[j], (x[j] + 0.5) % 1.0, (x[j] + 0.75) % 1.0
        sep = torus_diffs(x, y)[:, j]
        q = needed_volume(x, y, norm)
        order = np.argsort(sep, kind="stable")
        assert np.all(np.diff(q[order]) >= 0)
        # equal separations give equal volumes
        assert np.all(np.diff(q[order])[np.diff(sep[order]) == 0] == 0)


def test_volume_to_radius_full_square():
    # the whole torus is the 2-D L-inf ball of radius 1/2
    assert grid_for(2, Norm.LINF).radii(np.array([1.0]))[0] == pytest.approx(0.5, rel=1e-8)
    assert needed_volume([[0.0, 0.0]], [0.5, 0.5], Norm.LINF) == 1.0


def test_volume_to_radius_interval():
    for norm in Norm:
        assert grid_for(1, norm).radii(np.array([0.25]))[0] == pytest.approx(0.125, rel=1e-8)


def test_volume_to_radius_disk():
    v = np.pi / 4 * 0.25
    assert grid_for(2, Norm.L2).radii(np.array([v]))[0] == pytest.approx(0.25, rel=1e-8)
    assert needed_volume([[0.5, 0.5]], [0.75, 0.5], Norm.L2) == pytest.approx(v, rel=1e-13)


def test_radius_to_volume_edges():
    assert needed_volume([[0.3, 0.3, 0.3]], [0.3, 0.3, 0.3], Norm.L2) == 0.0
    assert needed_volume([[0.25, 0.25]], [0.75, 0.75], Norm.LINF) == 1.0
    disk = needed_volume([[0.2, 0.2]], [0.3, 0.2], Norm.L2)
    assert disk == pytest.approx(np.pi * 0.01, rel=1e-13)


def test_volume_domain_errors():
    for norm in Norm:
        with pytest.raises(ParameterError):
            unit_ball_volume(0, norm)
    # the one caller that takes a ball volume from outside is ball_census
    graph = generate(ModelParams(n=10, p=0.7, a1=1.0, a2=1.0))
    for bad in (0.0, -0.5, 1.0001):
        with pytest.raises(ParameterError, match="ball volume"):
            ball_census(graph, [0.5, 0.5], bad)


@pytest.mark.parametrize("norm", list(Norm))
@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_volume_radius_roundtrip(norm, m):
    # volume -> box half-width -> volume: a point on the box's face along one
    # axis lies on or just outside the ball, so the box holds the ball
    volumes = 10.0 ** RNG.uniform(-6, 0, size=2000)
    radii = grid_for(m, norm).radii(volumes)
    volumes, radii = volumes[radii < 0.5], radii[radii < 0.5]
    centers = RNG.random((volumes.size, m))
    face = centers.copy()
    face[:, 0] = (face[:, 0] + radii) % 1.0
    q = needed_volume(centers, face, norm)
    assert np.all(q >= volumes)
    assert q == pytest.approx(volumes, rel=1e-5)


@pytest.mark.parametrize("norm", list(Norm))
def test_ball_contains_matches_radius_form(norm):
    centers = RNG.random((5000, 2))
    x = RNG.random(2)
    volumes = RNG.random(5000) * 0.9 + 1e-6
    got = ball_contains(centers, volumes, x, norm)
    assert np.array_equal(got, needed_volume(centers, x, norm) <= volumes)
    d = torus_diffs(centers, x)
    radius_of_x = d.max(axis=1) if norm is Norm.LINF else np.sqrt((d * d).sum(axis=1))
    radii = (volumes / unit_ball_volume(2, norm)) ** 0.5
    want = radius_of_x <= radii
    assert (got == want).mean() > 0.9999  # boundary-ulp disagreements only
    assert got[want & (radius_of_x <= 0.99 * radii)].all()


def test_ball_contains_closed_boundary():
    # Linf ball of volume 0.25 in m=2 has radius exactly 0.25; the boundary
    # point is included (closed ball), exactly representable here.
    assert ball_contains(np.array([0.5, 0.5]), 0.25, np.array([0.75, 0.5]), Norm.LINF)
    assert not ball_contains(
        np.array([0.5, 0.5]), 0.25, np.array([0.7500000001, 0.5]), Norm.LINF
    )
