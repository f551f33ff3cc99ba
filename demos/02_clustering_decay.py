"""Average local clustering falls off like 1/d for large degree.

Computes the degree-binned clustering curves (exact bins and the smoothed
band average over in-degrees within +/-10% of d) and fits the log-log
slope of the tail. At this small demo size the curve is still bending
toward its asymptote, so expect a slope between -0.5 and -0.8; push n
toward 10^6 to watch it approach -1.
"""

import numpy as np

from spagraph import ModelParams, SplitPolicy, compute_report, curve_slope, generate
from spagraph.clustering import banded_curve_from_report, curve_from_report

params = ModelParams(n=30_000, p=0.7, a1=1.0, a2=30 / 7, seed=7)
graph = generate(params)
report = compute_report(graph, SplitPolicy(mode="half"))

exact = curve_from_report(report, "directed")
banded = banded_curve_from_report(report, "directed", delta=0.1)

print("band center d | vertices in band | mean c^-(v) | mean * d")
for d, count, mean in list(zip(banded.d, banded.count, banded.mean))[::4]:
    if count >= 30:
        print(f"{d:13.1f} | {count:16d} | {mean:11.5f} | {mean * d:8.3f}")

slope, intercept, r2 = curve_slope(banded, d_lo=10, min_count=30)
print(f"\nlog-log slope of the banded directed curve (d >= 10): "
      f"{slope:.3f} (r^2 = {r2:.3f})")
print(f"implied constant c in C(d) ~ c/d at the tail: "
      f"{np.exp(intercept):.2f}")

undirected = banded_curve_from_report(report, "undirected", delta=0.1)
slope_u, _, r2_u = curve_slope(undirected, d_lo=10, min_count=30)
print(f"undirected view: slope {slope_u:.3f} (r^2 = {r2_u:.3f})")
