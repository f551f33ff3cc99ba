"""The paper's claims as named checks, one function per acceptance criterion (c02-c08).

Each computes its statistic, the statistic's value under the theory (`target`) and
its thresholds in one place. Graphs or reports come as a non-empty list, and graphs
must differ only in seed, or it raises `UsageError`. On such input a claim never
raises: a statistic that cannot be computed fails the claim, and `detail` says why.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import clustering as cl
from . import stats
from .errors import UsageError


@dataclass(frozen=True)
class Claim:
    name: str
    statistic: object   # a float or a tuple of floats; None when it cannot be computed
    target: object      # the statistic's value under the theory
    passed: bool
    detail: str


def _nonempty(items):
    if not items:
        raise UsageError("a claim needs at least one graph or report")
    return items


def _params(graphs):
    first = _nonempty(graphs)[0].params
    for graph in graphs:
        if replace(graph.params, seed=first.seed) != first:
            raise UsageError(f"graphs must differ only in seed: {first} and {graph.params}")
    return first


def _pooled_census(graphs) -> stats.DegreeCensus:
    return stats.DegreeCensus(counts=np.bincount(np.concatenate([g.in_degree[1:] for g in graphs])))


def mean_out_degree(graphs) -> Claim:
    """c02: fails unless the pooled edges per vertex are within 10% of p a2 / (1 - p a1)."""
    target = stats.theory_constants(_params(graphs), i_max=0).mean_out
    pooled = float(np.mean([g.num_edges / g.n for g in graphs]))
    return Claim("mean-out-degree", pooled, target, abs(pooled - target) / target < 0.10,
                 f"pooled {pooled:.3f}, target {target:g} +/- 10%")


def degree_fractions(graphs) -> Claim:
    """c03: fails if the pooled fraction of in-degree 0 is 10% or more off c_0, or that
    of some i <= 10 with c_i n >= 1000 is 15% or more off c_i (statistic: the worst)."""
    params = _params(graphs)
    c = stats.theory_constants(params, i_max=10).c
    census = _pooled_census(graphs)
    checked = [i for i in range(11) if i == 0 or c[i] * params.n >= 1000]
    deviation = {i: float(abs(census.fraction(i) - c[i]) / c[i]) for i in checked}
    worst = max(deviation.values())
    passed = deviation[0] < 0.10 and all(deviation[i] < 0.15 for i in checked[1:])
    return Claim("degree-fractions", worst, 0.0, passed, f"worst relative deviation "
                 f"{worst:.2%} at degree {max(deviation, key=deviation.get)}")


def in_degree_exponent(graphs) -> Claim:
    """c04: fails unless the pooled tail MLE from d_min = 10 is within 0.25 of 1 + 1/(p a1)."""
    gamma = stats.theory_constants(_params(graphs), i_max=0).gamma
    try:
        fit = stats.powerlaw_exponent(_pooled_census(graphs), d_min=10)
    except UsageError as exc:
        return Claim("in-degree-exponent", None, gamma, False, str(exc))
    return Claim("in-degree-exponent", fit.estimate, gamma, abs(fit.estimate - gamma) < 0.25,
                 f"MLE {fit.estimate:.4f} vs {gamma:.4f}, stderr {fit.stderr:.4f}")


def clustering_decay(reports) -> Claim:
    """c05: fails unless, over pooled bands of >= 30 vertices, the directed and undirected
    slopes are within 0.2 of -1 and slope -1 fits c_new with r^2 >= 0.9 (`half` reports)."""
    reports, target = _nonempty(reports), (-1.0, -1.0, 1.0)
    curve = {v: cl.pool_curves([cl.banded_curve_from_report(r, v, delta=0.1) for r in reports])
             for v in ("directed", "undirected", "new")}
    try:
        slope_d = stats.curve_slope(curve["directed"], min_count=30)[0]
        slope_u = stats.curve_slope(curve["undirected"], min_count=30)[0]
        r2_new = stats.fixed_slope_fit(curve["new"], slope=-1.0, min_count=30)[1]
    except UsageError as exc:
        return Claim("clustering-decay", None, target, False, str(exc))
    passed = abs(slope_d + 1.0) <= 0.2 and abs(slope_u + 1.0) <= 0.2 and r2_new >= 0.9
    return Claim("clustering-decay", (slope_d, slope_u, r2_new), target, passed,
                 f"directed {slope_d:.3f}, undirected {slope_u:.3f}, c_new 1/d r2 {r2_new:.3f}")


def decomposition_identity(reports) -> Claim:
    """c06: c = c_old + c_new to 1e-12. It cannot fail: `compute_report`'s new numerator is
    the directed one minus the old. `verify.brute_force_clustering` counts old on its own."""
    worst = max(float(np.abs(r.directed.values - (r.old.values + r.new.values)).max())
                for r in _nonempty(reports))
    return Claim("old-new-decomposition", worst, 0.0, worst <= 1e-12,
                 f"worst |c - (c_old + c_new)| = {worst:.2e}")


def trajectory_concentration(graphs) -> Claim:
    """c07: fails if a trajectory ratio deg(v, t) / (k (t/n)^(p a1)) of a top-20 vertex
    leaves [0.8, 1.25] in its window, or if such a vertex ends below omega log n."""
    omega = cl.default_omega(_params(graphs).n)
    lo, hi = np.inf, -np.inf
    for graph in graphs:
        for v in stats.top_vertices(graph, 20).tolist():
            check = stats.trajectory_check(graph, v, omega)
            if check.vacuous:
                return Claim("trajectory-concentration", None, (1.0, 1.0), False,
                             f"vertex {v} below omega log n")
            lo, hi = min(lo, check.ratio_min), max(hi, check.ratio_max)
    return Claim("trajectory-concentration", (lo, hi), (1.0, 1.0), lo >= 0.8 and hi <= 1.25,
                 f"ratio range [{lo:.3f}, {hi:.3f}] over top-20 x {len(graphs)} runs")


def ball_census(graph) -> Claim:
    """c08: fails if, for some i <= 2, the mean over the 3^m grid balls of volume 0.05
    of count_i / (volume n) is 15% or more off c_i (statistic: the worst deviation)."""
    c = stats.theory_constants(graph.params, i_max=3).c
    counts = [stats.ball_census(graph, center, 0.05, i_max=3)
              for center in stats.ball_centers_grid(graph.params.dimension)]
    mean = [float(np.mean([k[i] / (0.05 * graph.n) for k in counts])) for i in range(3)]
    deviation = [float(abs(mean[i] - c[i]) / c[i]) for i in range(3)]
    worst = max(deviation)
    return Claim("ball-census", worst, 0.0, worst < 0.15,
                 f"worst relative deviation {worst:.2%} at degree {deviation.index(worst)}")
