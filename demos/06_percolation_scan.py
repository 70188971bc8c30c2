"""Finite-size crossing scans with coupled thinning.

Each replicate draws one Poisson configuration at the top activity and thins
it down to the smaller activities with shared uniforms, so the crossing
indicator is monotone in z replicate by replicate, with no coupling noise in
the curve ordering.  The curves steepen with the window size; their common
crossing point estimates the percolation threshold.
"""
import numpy as np

from wrlab import (
    HomogeneousLebesgue,
    VoronoiEdges,
    estimate_critical_intensity,
    estimate_crossing_probability,
    threshold_from_rows,
)

a = 0.5
z_grid = [0.9, 1.1, 1.25, 1.4, 1.55, 1.75, 2.0]

print("crossing probability, homogeneous environment:")
print(f"{'z':>6s}" + "".join(f"  L={int(L):3d}" for L in (12, 24)))
curves = {}
for L in (12.0, 24.0):
    rows = estimate_crossing_probability(HomogeneousLebesgue(1.0), z_grid, a, L, 150, seed=5)
    curves[L] = rows
for i, z in enumerate(z_grid):
    line = f"{z:6.2f}"
    for L in (12.0, 24.0):
        line += f"  {curves[L][i].crossing.value:5.2f}"
    print(line)

for L in (12.0, 24.0):
    print(f"threshold estimate at L={int(L)}: {threshold_from_rows(curves[L]):.3f}")
print("(the known infinite-volume threshold for this radius is about 1.44)")

est = estimate_critical_intensity(HomogeneousLebesgue(1.0), a, L=16.0, target_prob=0.5, seed=9, replicates=100)
print(f"\nmedian crossing activity over replicates: z_c ~ {est.value:.3f} +- {est.stderr:.3f}")

est_v = estimate_critical_intensity(VoronoiEdges(1.0), a, L=16.0, target_prob=0.5, seed=10, replicates=80)
print(f"same over a Voronoi edge environment: z_c ~ {est_v.value:.3f} +- {est_v.stderr:.3f}")
print("(per unit length of edge; the tessellation carries 2 length per unit area)")
