"""Torus geometry: wrapped separations and the ball volume that holds a point.

All positions live on the unit hypercube [0,1)^m with periodic boundaries.
A ball is measured in either the L2 or the L-infinity norm of the
per-coordinate wrapped separations, and is named by its nominal volume.
"""

from __future__ import annotations

import enum
import math
import operator
from functools import reduce

import numpy as np

from .errors import ParameterError, UsageError


class Norm(enum.Enum):
    """Which norm the torus metric (and hence ball shapes) is built from."""

    L2 = "l2"
    LINF = "linf"

    @classmethod
    def parse(cls, text: str) -> "Norm":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ParameterError(f"unknown norm {text!r}; expected 'l2' or 'linf'") from None


def unit_ball_volume(m: int, norm: Norm) -> float:
    """Volume of the radius-1 ball in R^m (no wraparound).

    ParameterError unless it is a finite positive float, which holds for
    1 <= m <= 341 in L2 and 1 <= m <= 1023 in L-infinity.
    """
    if m < 1:
        raise ParameterError(f"dimension must be >= 1, got {m}")
    try:
        volume = 2.0 ** m if norm is Norm.LINF else math.pi ** (m / 2) / math.gamma(m / 2 + 1)
    except OverflowError:
        volume = math.inf
    if not 0.0 < volume < math.inf:
        raise ParameterError(f"dimension {m} is too large for {norm.value}: "
                             f"the unit ball's volume is not a finite positive float")
    return volume


def torus_diffs(x, y) -> np.ndarray:
    """Per-coordinate wrapped separations min(|dx|, 1-|dx|); broadcasts."""
    d = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
    return np.minimum(d, 1.0 - d)


def _column_max(d: np.ndarray):
    """`d.max(axis=-1)` as a running np.maximum over the m columns.

    Max is exact, so the values are bit-identical; numpy's reduction pays
    a per-row overhead over a short last axis that this avoids (about 2 us
    against 60 us for a (1000, 2) array on a Xeon virtual machine).
    """
    out = np.maximum(d[..., 0], d[..., -1])
    for j in range(1, d.shape[-1] - 1):
        out = np.maximum(out, d[..., j])
    return out


def needed_volume(centers, x, norm: Norm) -> np.ndarray:
    """Smallest nominal ball volume at each center whose closed ball holds x.

    `centers` is (k, m) (or (m,)); `x` is (m,) or, for pairwise use, the
    same shape as `centers`. The result is symmetric in its two points bit
    for bit. Every membership decision in the package compares this one
    expression against a volume: `SphereIndex` (through `ball_contains`),
    the generator's vertex-centric walk, `verify.vertex_walk` and
    `stats.ball_census`. Powers are left-to-right chains of `*`, correctly
    rounded in every numpy kernel as numpy's `**` is not, and the L2 sum
    runs in one order, so every CPU, input shape and layout gets the same bits.
    """
    centers = np.asarray(centers, dtype=float)
    x = np.asarray(x, dtype=float)
    if centers.shape[-1] != x.shape[-1]:
        raise UsageError(f"dimension mismatch: {centers.shape[-1]} vs {x.shape[-1]}")
    m = x.shape[-1]
    d = torus_diffs(centers, x)
    if norm is Norm.LINF:
        return reduce(operator.mul, [2.0 * _column_max(d)] * m)
    # one reduction along a contiguous last axis: summing in another order, as
    # numpy does over a column-major d from m = 8 on, can change the last bit
    s = np.ascontiguousarray(d * d).sum(axis=-1)
    powered = reduce(operator.mul, [s] * (m // 2) + [np.sqrt(s)] * (m % 2))
    return unit_ball_volume(m, Norm.L2) * powered


def ball_contains(centers, volumes, x, norm: Norm) -> np.ndarray:
    """Closed-ball membership test: is x inside the ball at each center?

    `volumes` is the nominal ball volume per center (scalar broadcasts);
    the test is `needed_volume(centers, x, norm) <= volumes`.
    """
    return needed_volume(centers, x, norm) <= volumes
