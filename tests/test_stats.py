import math

import numpy as np
import pytest

from spagraph import stats
from spagraph.clustering import Curve
from spagraph.errors import ParameterError, UsageError
from spagraph.generator import GrownGraph, ModelParams, generate
from spagraph.verify import vertex_walk

PARAMS = dict(p=0.7, a1=1.0, a2=30 / 7)


def make(n, seed=0, **overrides):
    return ModelParams(n=n, seed=seed, **{**PARAMS, **overrides})


@pytest.fixture(scope="module")
def grown():
    return generate(make(2000, seed=23))


def test_theory_constants_values():
    tc = stats.theory_constants(make(10), i_max=10)
    assert tc.gamma == pytest.approx(1 + 1 / 0.7, rel=1e-15)
    assert tc.mean_out == pytest.approx(10.0, rel=1e-12)
    assert tc.c[0] == pytest.approx(0.25, rel=1e-12)
    assert tc.c[1] == pytest.approx(0.75 / 4.7, rel=1e-12)


def test_theory_constants_recurrence_vs_product():
    # the product form is computed here, independently of the module's
    # recurrence; the last two points are the acceptance model and the
    # sweep's p = 0.9 point, with a2 = 10 (1 - p) / p as `spa-model sweep`
    # computes it
    i_max = 200_000
    i = np.arange(i_max + 1)
    for p, a1, a2 in [(0.3, 2.0, 5.0), (0.9, 0.5, 1.0), (0.7, 1.0, 30 / 7),
                      (0.9, 1.0, 10.0 * (1.0 - 0.9) / 0.9)]:
        tc = stats.theory_constants(make(10, p=p, a1=a1, a2=a2), i_max=i_max)
        terms = p * (i[:-1] * a1 + a2) / (1 + p * a2 + i[:-1] * p * a1)
        expected = np.concatenate(([1.0], np.cumprod(terms))) / (1 + p * a2 + i * p * a1)
        # rounding grows by about one unit in the last place per factor
        assert np.all(np.abs(tc.c - expected) <= 4 * i * 2.0 ** -52 * expected)
        assert np.all(tc.c > 0)
        assert tc.c.sum() <= 1.0 + 1e-12


def test_theory_constants_degenerate_p_zero():
    tc = stats.theory_constants(make(10, p=0.0), i_max=5)
    assert tc.gamma == math.inf
    assert tc.mean_out == 0.0
    assert tc.c[0] == 1.0
    assert np.all(tc.c[1:] == 0.0)


def test_negative_i_max_is_a_parameter_error(grown):
    with pytest.raises(ParameterError, match="i_max must be >= 0"):
        stats.theory_constants(make(10), i_max=-1)
    with pytest.raises(ParameterError, match="i_max must be >= 0"):
        stats.ball_census(grown, [0.5, 0.5], 0.1, i_max=-1)
    assert stats.theory_constants(make(10), i_max=0).c.size == 1
    assert stats.ball_census(grown, [0.5, 0.5], 0.1, i_max=0).size == 1


def test_tail_approaches_power_law():
    # c_i * i^gamma settles: consecutive ratios stay in a 5% band and the
    # step size shrinks monotonically across i in [50, 200]
    tc = stats.theory_constants(make(10), i_max=200)
    i = np.arange(50, 201)
    scaled = tc.c[50:201] * i ** tc.gamma
    ratios = scaled[1:] / scaled[:-1]
    assert np.all(np.diff(scaled) > 0) or np.all(np.diff(scaled) < 0)
    assert np.all(np.abs(ratios - 1) < 0.05)
    assert abs(ratios[-1] - 1) < abs(ratios[0] - 1)


def test_census_first_step():
    g = generate(make(1))
    census = stats.degree_census(g)
    assert census.counts.tolist() == [1]


def test_census_p_zero_all_isolated():
    g = generate(make(50, p=0.0))
    for t in (1, 10, 50):
        census = stats.degree_census(g.prefix(t))
        assert census.counts[0] == t


def test_census_fraction_rejects_a_negative_degree():
    census = stats.DegreeCensus(counts=np.array([5, 3, 2]))
    assert [census.fraction(i) for i in range(4)] == [0.5, 0.3, 0.2, 0.0]
    for i in (-1, -4):
        with pytest.raises(UsageError, match="in-degree must be >= 0"):
            census.fraction(i)


def test_census_conservation(grown):
    census = stats.degree_census(grown)
    assert census.total == grown.n
    degrees = np.arange(census.counts.size)
    assert (degrees * census.counts).sum() == grown.num_edges


def test_census_at_earlier_time_matches_prefix_run():
    long = generate(make(1000, seed=29))
    short = generate(make(400, seed=29))
    early = stats.degree_census(long.prefix(400))
    final = stats.degree_census(short)
    assert early.counts.tolist() == final.counts.tolist()
    for v in (1, 2, 3):
        # the view's balls hold only the vertices born by step 400
        ball = stats.ball_census(long.prefix(400), short.positions[v], 0.1, i_max=20)
        assert ball.tolist() == stats.ball_census(short, short.positions[v], 0.1, i_max=20).tolist()


def test_ball_census_whole_torus_equals_global(grown):
    census = stats.degree_census(grown)
    i_max = census.counts.size - 1
    ball = stats.ball_census(grown, [0.5] * 2, 1.0, i_max=i_max)
    assert ball.tolist() == census.counts.tolist()


def test_ball_census_empty_ball(grown):
    counts = stats.ball_census(grown, [0.5, 0.5], 1e-12, i_max=5)
    assert counts.sum() == 0


def test_ball_census_partition(grown):
    # the 4 quadrant cells of volume 1/4 partition the torus exactly (Linf)
    total = np.zeros(11, dtype=np.int64)
    for cx in (0.25, 0.75):
        for cy in (0.25, 0.75):
            total += stats.ball_census(grown, [cx, cy], 0.25, i_max=10)
    assert total.tolist() == stats.ball_census(grown, [0.5, 0.5], 1.0, i_max=10).tolist()


def test_ball_census_rejects_a_center_off_the_torus(grown):
    for bad in ([1.5, 1.5], [-0.5, 0.5], [1.0, 0.5], [np.nan, 0.5], [np.inf, 0.5], [0.5],
                [0.5, 0.5, 0.5]):
        with pytest.raises(UsageError, match="ball center"):
            stats.ball_census(grown, bad, 0.04)
    assert stats.ball_census(grown, [0.0, 0.5], 0.04).sum() > 0


def test_ball_centers_grid():
    centers = stats.ball_centers_grid(2)
    assert centers.shape == (9, 2)
    assert centers.min() == pytest.approx(1 / 6)
    assert centers.max() == pytest.approx(5 / 6)
    assert stats.ball_centers_grid(3).shape == (27, 3)


def synthetic_powerlaw_census(gamma, n, d_min, seed):
    rng = np.random.default_rng(seed)
    xm = d_min - 0.5
    x = xm * (1.0 - rng.random(n)) ** (-1.0 / (gamma - 1.0))
    degrees = np.floor(x + 0.5).astype(np.int64)
    return stats.DegreeCensus(counts=np.bincount(degrees))


def test_powerlaw_mle_recovers_synthetic_exponent():
    census = synthetic_powerlaw_census(2.5, 100_000, 10, seed=41)
    fit = stats.powerlaw_exponent(census, d_min=10)
    assert fit.estimate == pytest.approx(2.5, abs=0.05)
    assert fit.stderr < 0.01
    assert fit.n_tail == census.total


def test_powerlaw_mle_depends_only_on_degree_multiset():
    census = synthetic_powerlaw_census(2.3, 50_000, 5, seed=13)
    # trailing zero counts name no vertex, so they leave the multiset as it is
    padded = stats.DegreeCensus(counts=np.pad(census.counts, (0, 7)))
    a = stats.powerlaw_exponent(census, d_min=5)
    b = stats.powerlaw_exponent(padded, d_min=5)
    assert a == b


def test_powerlaw_mle_guards():
    tiny = stats.DegreeCensus(counts=np.array([0] * 10 + [50]))
    with pytest.raises(UsageError, match="100"):
        stats.powerlaw_exponent(tiny, d_min=10)
    degenerate = stats.DegreeCensus(counts=np.array([0] * 10 + [500]))
    with pytest.raises(UsageError, match="degenerate"):
        stats.powerlaw_exponent(degenerate, d_min=10)
    with pytest.raises(ParameterError):
        stats.powerlaw_exponent(degenerate, d_min=0)


def test_top_vertices_break_ties_by_ascending_id():
    # in-degrees 4, 2, 0, 1, 1, 1, 0 for vertices 1..7
    edges = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 4), (6, 5), (7, 6)]
    hand = GrownGraph.from_edges(make(7), edges)
    for top in range(9):
        assert stats.top_vertices(hand, top).tolist() == [1, 2, 4, 5, 6, 3, 7][:top]
    graph = generate(make(400, seed=3))
    ranked = sorted(range(1, 401), key=lambda v: (-graph.in_degree[v], v))
    for top in (1, 5, 20, 399, 400):
        assert stats.top_vertices(graph, top).tolist() == ranked[:top]
    for top in (-1, -3, -400):   # a slice would give the n - |top| highest
        with pytest.raises(ParameterError, match="top must be >= 0"):
            stats.top_vertices(graph, top)


def test_ratio_extremes_exact_law():
    n, k, exponent = 10_000, 400.0, 0.7
    times = np.linspace(1200, n, 57)
    values = k * (times / n) ** exponent
    lo, hi = stats.ratio_extremes(times, values, k, n, exponent)
    assert lo == pytest.approx(1.0, rel=1e-12)
    assert hi == pytest.approx(1.0, rel=1e-12)


def test_trajectory_check_vacuous_below_threshold(grown):
    leaf = int(np.nonzero(grown.in_degree[1:] == 0)[0][0] + 1)
    check = stats.trajectory_check(grown, leaf, omega=2.0)
    assert check.vacuous
    assert math.isnan(check.ratio_min)


@pytest.mark.parametrize("omega", [-1.0, 0.0, math.nan, math.inf])
def test_trajectory_check_rejects_bad_omega(grown, omega):
    hub = int(np.argmax(grown.in_degree))
    with pytest.raises(ParameterError, match="omega"):
        stats.trajectory_check(grown, hub, omega)


@pytest.fixture(scope="module")
def small():
    return generate(make(300, a2=2.0))


@pytest.mark.parametrize("v", [-300, -1, 0, 301])
def test_vertex_outside_1_to_n_is_a_usage_error(small, v):
    for call in (stats.trajectory_check, GrownGraph.trajectory, GrownGraph.in_neighbors,
                 GrownGraph.out_neighbors, lambda g, v: vertex_walk(g.params, g.positions, v)):
        with pytest.raises(UsageError, match=r"vertex must be in \[1, 300\]"):
            call(small, v)
    for end in (1, 300):   # the ends of the range are vertices
        assert stats.trajectory_check(small, end).final_degree == small.in_degree[end]
        assert np.array_equal(vertex_walk(small.params, small.positions, end),
                              small.trajectory(end)[0])


def test_trajectory_check_extremes_match_full_scan(grown):
    hub = int(np.argmax(grown.in_degree))
    omega = 2.0
    check = stats.trajectory_check(grown, hub, omega)
    assert not check.vacuous
    n = grown.n
    exponent = grown.params.p * grown.params.a1
    k = check.final_degree
    t_lo = math.ceil(check.onset_time)
    arrivals = grown.in_neighbors(hub)
    ratios = []
    for t in range(t_lo, n + 1):
        degree = int(np.searchsorted(arrivals, t, side="right"))
        ratios.append(degree / (k * (t / n) ** exponent))
    assert check.ratio_min == pytest.approx(min(ratios), rel=1e-12)
    assert check.ratio_max == pytest.approx(max(ratios), rel=1e-12)


def inverse_law(d, scale, count=100):
    """A curve with mean scale/d and `count` vertices at each d."""
    return Curve(d, np.broadcast_to(count, d.shape).astype(np.int64), scale / d)


def test_curve_slope_exact_inverse_law():
    slope, intercept, r2 = stats.curve_slope(inverse_law(np.arange(2, 40), 10.0))
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert intercept == pytest.approx(math.log(10.0), abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_curve_slope_constant_curve():
    d = np.arange(2, 40)
    slope, _, _ = stats.curve_slope(Curve(d, np.full(d.size, 100), np.full(d.size, 0.25)))
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_curve_slope_filters_and_errors():
    d = np.arange(2, 12)
    curve = inverse_law(d, 1.0, count=np.where(d % 2, 5, 50))
    slope, _, r2 = stats.curve_slope(curve, min_count=10)
    assert slope == pytest.approx(-1.0, abs=1e-12)
    # banded float centers; a zero mean has no logarithm and is left out
    centers = inverse_law(2.0 * 1.1 ** np.arange(12), 3.0)
    means = np.where(np.arange(12) % 3, centers.mean, 0.0)
    slope, intercept, _ = stats.curve_slope(Curve(centers.d, centers.count, means))
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert intercept == pytest.approx(math.log(3.0), abs=1e-12)
    with pytest.raises(UsageError, match="5 usable bins"):
        stats.curve_slope(Curve(np.array([2, 3]), np.array([100, 100]), np.array([0.5, 0.4])))
    with pytest.raises(UsageError):
        stats.curve_slope(curve, d_lo=100.0)


def test_fixed_slope_fit_exact():
    intercept, r2 = stats.fixed_slope_fit(inverse_law(np.arange(3, 30), 7.0), slope=-1.0)
    assert intercept == pytest.approx(math.log(7.0), abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
