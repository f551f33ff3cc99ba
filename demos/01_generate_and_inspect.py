"""Grow a graph on the unit torus and look at what came out.

Every run is a pure function of (parameters, seed): rerunning this script
produces byte-identical results, and the fast vertex-centric generator is
bit-for-bit equal to the quadratic reference scan.
"""

import numpy as np

from spagraph import ModelParams, generate, generate_naive

params = ModelParams(n=5000, p=0.7, a1=1.0, a2=30 / 7, seed=2024)
graph = generate(params)

print(f"grew {graph.n} vertices, {graph.num_edges} edges")
print(f"mean out-degree: {graph.num_edges / graph.n:.3f} "
      f"(limit p*a2/(1 - p*a1) = {params.p * params.a2 / (1 - params.p * params.a1):.1f})")
print(f"max in-degree:   {graph.in_degree.max()}")

# the oldest vertices accumulate the largest spheres of influence
top = np.argsort(graph.in_degree)[-5:][::-1]
print("\nhighest in-degree vertices (id = birth step):")
for v in top:
    print(f"  vertex {v:5d}  in-degree {graph.in_degree[v]:4d}  "
          f"position {np.round(graph.positions[v], 3)}")

# edges always point from the younger vertex to the older one
v, u = int(graph.edge_sources()[0]), int(graph.out_targets[0])
print(f"\nfirst edge: {v} -> {u} (source born later than target)")

# the naive O(n^2) generator replays the identical randomness
reference = generate_naive(params)
print("vertex-centric == naive, bit for bit:",
      np.array_equal(graph.out_targets, reference.out_targets)
      and np.array_equal(graph.positions[1:], reference.positions[1:]))
