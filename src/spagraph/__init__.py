"""Spatial preferential attachment graphs: generation and theory checks.

geometry       wrapped separations and the membership test `needed_volume`
spatial_index  linear-scan sphere-of-influence coverage queries (naive oracle)
rng            counter-based uniform streams (reproducibility contract)
generator      the growth process: vertex-centric walk and naive reference
clustering     vectorized clustering coefficients, old/new split, curves
stats          degree censuses, power-law fit, trajectory concentration
graph_io       graph files, manifests, CSV reports
verify         exact equivalence harness between a generator (`generate`
               by default) and the naive one, and the brute-force
               clustering oracle
cli            the spa-model command line tool; reads a `generate --config`
               file as generate's own flags
"""

from ._version import __version__
from .errors import (
    ParameterError,
    ParseError,
    SpaError,
    UsageError,
    VerificationError,
)
from .geometry import Norm
from .generator import (
    GrownGraph, ModelParams, generate, generate_many, generate_naive, sphere_volume,
)
from .spatial_index import SphereIndex
from .clustering import ClusteringReport, Coefficients, SplitPolicy, compute_report
from .stats import (
    DegreeCensus,
    ExponentFit,
    TheoryConstants,
    TrajectoryCheck,
    ball_census,
    ball_centers_grid,
    curve_slope,
    degree_census,
    fixed_slope_fit,
    powerlaw_exponent,
    theory_constants,
    trajectory_check,
)
from .verify import VerifyReport, verify_equivalence

__all__ = [
    "__version__",
    "SpaError", "ParameterError", "UsageError", "ParseError", "VerificationError",
    "Norm",
    "ModelParams", "GrownGraph", "generate", "generate_many", "generate_naive", "sphere_volume",
    "SphereIndex",
    "SplitPolicy", "ClusteringReport", "Coefficients", "compute_report",
    "TheoryConstants", "DegreeCensus", "ExponentFit", "TrajectoryCheck",
    "theory_constants", "degree_census", "ball_census", "ball_centers_grid",
    "powerlaw_exponent", "trajectory_check", "curve_slope", "fixed_slope_fit",
    "VerifyReport", "verify_equivalence",
]
