"""Quantitative checks of the model's degree theory on grown graphs.

Covers the closed-form constants (power-law exponent, mean out-degree,
limiting degree fractions c_i), global and in-ball degree censuses, a
tail MLE for the in-degree exponent, degree-trajectory concentration
against k (t/n)^(p a1), and log-log slope fitting for clustering curves.
Every function reads the graph it is given at its final time; pass
`graph.prefix(t)` to measure the same run at an earlier time t.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .clustering import Curve, check_omega, default_omega
from .errors import ParameterError, UsageError
from .generator import GrownGraph, ModelParams
from .geometry import ball_contains

__all__ = [
    "TheoryConstants", "DegreeCensus", "ExponentFit", "TrajectoryCheck",
    "theory_constants", "degree_census", "ball_census", "ball_centers_grid",
    "powerlaw_exponent", "top_vertices", "trajectory_check", "ratio_extremes", "curve_slope",
    "fixed_slope_fit", "default_omega",
]


@dataclass(frozen=True)
class TheoryConstants:
    """Limits the finite-n measurements are compared against."""

    gamma: float            # in-degree power-law exponent 1 + 1/(p a1)
    mean_out: float         # asymptotic mean out-degree p a2 / (1 - p a1)
    c: np.ndarray           # c[i] = limiting fraction of vertices of in-degree i


def theory_constants(params: ModelParams, i_max: int = 50) -> TheoryConstants:
    """Closed-form constants, with c_i from its recurrence in i."""
    if i_max < 0:
        raise ParameterError(f"i_max must be >= 0, got {i_max}")
    p, a1, a2 = params.p, params.a1, params.a2
    gamma = 1.0 + 1.0 / (p * a1) if p > 0 else math.inf
    mean_out = p * a2 / (1.0 - p * a1)
    c = np.empty(i_max + 1)
    c[0] = 1.0 / (1.0 + p * a2)
    for i in range(1, i_max + 1):
        c[i] = c[i - 1] * p * (a1 * (i - 1) + a2) / (1.0 + p * (a1 * i + a2))
    return TheoryConstants(gamma=gamma, mean_out=mean_out, c=c)


@dataclass(frozen=True)
class DegreeCensus:
    """Vertex counts by in-degree at a fixed time."""

    counts: np.ndarray      # counts[i] = number of vertices of in-degree i

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def fraction(self, i: int) -> float:
        if i < 0:
            raise UsageError(f"in-degree must be >= 0, got {i}")
        if i >= self.counts.size:
            return 0.0
        return float(self.counts[i] / self.total)


def degree_census(graph: GrownGraph) -> DegreeCensus:
    """Count vertices by in-degree; `graph.prefix(t)` gives the census at time t."""
    return DegreeCensus(counts=np.bincount(graph.in_degree[1:]))


def ball_centers_grid(m: int) -> np.ndarray:
    """Deterministic ball centers: the regular 3^m grid on the torus."""
    axis = np.array([1, 3, 5]) / 6
    return np.array(list(itertools.product(axis, repeat=m)))


def ball_census(graph: GrownGraph, center, volume: float, i_max: int = 10) -> np.ndarray:
    """Vertices inside the closed ball, counted by in-degree.

    Returns counts[i] for i in 0..i_max; to be compared against c_i * volume * n.
    `center` must be a point of the torus [0, 1)^m.
    """
    if not 0.0 < volume <= 1.0:
        raise ParameterError(f"ball volume must be in (0, 1], got {volume}")
    if i_max < 0:
        raise ParameterError(f"i_max must be >= 0, got {i_max}")
    center = np.asarray(center, dtype=float)
    # torus_diffs wraps only separations of points in [0, 1), and NaN fails both tests
    if center.shape != (graph.params.dimension,) or not ((center >= 0) & (center < 1)).all():
        raise UsageError(f"ball center must be a point of [0, 1)^{graph.params.dimension}, "
                         f"got {center.tolist()}")
    inside = ball_contains(graph.positions[1:], volume, center, graph.params.norm)
    return np.bincount(graph.in_degree[1:][inside], minlength=i_max + 1)[: i_max + 1]


@dataclass(frozen=True)
class ExponentFit:
    estimate: float
    stderr: float
    n_tail: int
    ls_slope: float         # diagnostic log-log slope of the binned counts


def powerlaw_exponent(census: DegreeCensus, d_min: int) -> ExponentFit:
    """Tail MLE for the in-degree exponent (continuous approximation).

    gamma_hat = 1 + N / sum(log(d_i / (d_min - 1/2))) over the N vertices
    with degree >= d_min; stderr = (gamma_hat - 1) / sqrt(N). A least
    squares log-log slope over the binned counts is attached for
    diagnostics only (it is biased and not used in any acceptance check).
    """
    if d_min < 1:
        raise ParameterError(f"d_min must be >= 1, got {d_min}")
    counts = census.counts
    degrees = np.arange(counts.size)
    tail = (degrees >= d_min) & (counts > 0)
    n_tail = int(counts[tail].sum())
    if n_tail < 100:
        raise UsageError(
            f"need at least 100 vertices with degree >= {d_min}, have {n_tail}"
        )
    if np.count_nonzero(tail) < 2:
        raise UsageError("degenerate tail: all vertices share one degree")
    shift = d_min - 0.5
    log_sum = float((counts[tail] * np.log(degrees[tail] / shift)).sum())
    estimate = 1.0 + n_tail / log_sum
    stderr = (estimate - 1.0) / math.sqrt(n_tail)
    x = np.log(degrees[tail])
    y = np.log(counts[tail])
    ls_slope = float(np.polyfit(x, y, 1)[0])
    return ExponentFit(estimate=estimate, stderr=stderr, n_tail=n_tail, ls_slope=ls_slope)


def top_vertices(graph: GrownGraph, top: int) -> np.ndarray:
    """The `top` vertices of highest in-degree, highest first and ties by ascending id."""
    if top < 0:
        raise ParameterError(f"top must be >= 0, got {top}")
    return np.argsort(-graph.in_degree[1:], kind="stable")[:top] + 1


@dataclass(frozen=True)
class TrajectoryCheck:
    """Extremes of deg^-(v, t) / (k (t/n)^(p a1)) over the settled window."""

    vertex: int
    final_degree: int
    onset_time: float       # T_v = n (omega log n / k)^(1 / (p a1)), clamped
    ratio_min: float
    ratio_max: float
    vacuous: bool           # final degree 0 or below omega log n: nothing to check


def ratio_extremes(times, values, k: float, n: int, exponent: float, t_min: float = 1.0):
    """(min, max) of values / (k (t/n)^exponent) over samples in [t_min, n]."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = (times >= t_min) & (times <= n)
    if not mask.any():
        raise UsageError("no samples fall inside the checked window")
    reference = k * (times[mask] / n) ** exponent
    ratios = values[mask] / reference
    return float(ratios.min()), float(ratios.max())


def trajectory_check(graph: GrownGraph, vertex: int, omega: float | None = None) -> TrajectoryCheck:
    """Concentration check for one vertex's in-degree trajectory.

    The degree is a step function jumping at in-neighbor births while the
    reference k (t/n)^(p a1) grows, so the ratio's extremes over integer
    times are attained at arrival steps and just before the next arrival;
    both families of points are sampled, along with the window edges.
    """
    params = graph.params
    n = params.n
    check_omega(omega)
    omega = default_omega(n) if omega is None else omega
    arrivals = graph.in_neighbors(vertex)
    k = arrivals.size
    threshold = omega * math.log(n)
    # k = 0 is vacuous even when the threshold is 0 (n = 1): the onset divides by k
    if k == 0 or k < threshold or params.p * params.a1 == 0:
        return TrajectoryCheck(vertex, k, math.nan, math.nan, math.nan, vacuous=True)
    exponent = params.p * params.a1
    onset = n * (threshold / k) ** (1.0 / exponent)
    onset = min(max(onset, 1.0), float(n))
    t_lo = math.ceil(onset)
    # sorted, each once: a plain np.unique would import numpy.ma on first use
    times = np.sort(np.concatenate((arrivals, arrivals - 1, [t_lo, n])).astype(np.int64))
    times = times[(times >= t_lo) & (times <= n) & (np.diff(times, prepend=-1) != 0)]
    degrees = np.searchsorted(arrivals, times, side="right")
    lo, hi = ratio_extremes(times, degrees, k, n, exponent, t_min=t_lo)
    return TrajectoryCheck(vertex, k, onset, lo, hi, vacuous=False)


def curve_slope(
    curve: Curve, d_lo: float = 0.0, min_count: int = 1
) -> tuple[float, float, float]:
    """Least-squares fit of log(mean) against log(d) over usable bins.

    Bins need d >= d_lo, at least min_count vertices, and a positive mean
    (zero means cannot appear on a log-log plot). Returns (slope,
    intercept, r_squared); requires at least 5 usable bins.
    """
    x, y = _usable_bins(curve, d_lo, min_count)
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept), _r_squared(y, slope * x + intercept)


def fixed_slope_fit(
    curve: Curve, slope: float, d_lo: float = 0.0, min_count: int = 1
) -> tuple[float, float]:
    """Best intercept and r-squared for a fixed log-log slope."""
    x, y = _usable_bins(curve, d_lo, min_count)
    intercept = float(np.mean(y - slope * x))
    return intercept, _r_squared(y, slope * x + intercept)


def _usable_bins(curve, d_lo, min_count):
    usable = (curve.d >= d_lo) & (curve.count >= min_count) & (curve.mean > 0)
    have = np.count_nonzero(usable)
    if have < 5:
        raise UsageError(f"need at least 5 usable bins with d >= {d_lo}, have {have}")
    return np.log(curve.d[usable]), np.log(curve.mean[usable])


def _r_squared(y, fitted) -> float:
    ss_res = float(((y - fitted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return 1.0 if ss_res < 1e-20 else 0.0
    return 1.0 - ss_res / ss_tot
