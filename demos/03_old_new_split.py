"""Split each clustering coefficient into its "old" and "new" parts.

Neighbors that joined before a vertex's in-degree crossed half its final
value are old; the rest are new. Edges into old neighbors are erratic
(they depend on the chaotic early phase), while edges among new neighbors
follow a clean c/d law. The per-vertex identity c = c_old + c_new is exact.
"""

import numpy as np

from spagraph import ModelParams, SplitPolicy, compute_report, fixed_slope_fit, generate
from spagraph.clustering import banded_curve_from_report

params = ModelParams(n=30_000, p=0.7, a1=1.0, a2=30 / 7, seed=11)
graph = generate(params)
report = compute_report(graph, SplitPolicy(mode="half"))

gap = np.abs(report.directed.values - (report.old.values + report.new.values)).max()
print(f"exact decomposition: max |c - (c_old + c_new)| = {gap:.2e}")

old_curve = banded_curve_from_report(report, "old", delta=0.1)
new_curve = banded_curve_from_report(report, "new", delta=0.1)

print("\nband center d |   mean c_old |   mean c_new | c_new * d")
# old and new coefficients are defined at the same vertices, so their bands line up
rows = zip(new_curve.d, new_curve.count, old_curve.mean, new_curve.mean)
for d, count, mean_old, mean_new in list(rows)[::5]:
    if count >= 30:
        print(f"{d:13.1f} | {mean_old:12.5f} | {mean_new:12.5f} | {mean_new * d:9.3f}")

intercept, r2 = fixed_slope_fit(new_curve, slope=-1.0, d_lo=15, min_count=30)
print(f"\nc_new vs c/d fit over d >= 15: c = {np.exp(intercept):.3f}, r^2 = {r2:.3f}")
print("(the old part carries most of the noise; the new part is the clean 1/d)")
