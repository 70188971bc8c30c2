"""The six environment models: realization, mass, sampling, decorrelation.

An environment is the (possibly random) measure that drives every Poisson
draw.  Each realization is a frozen draw, valid on its guard window, and all
randomness flows through explicit seeds.
"""
import numpy as np

from wrlab import (
    DensityField,
    HomogeneousLebesgue,
    ManhattanGrid,
    RandomSetIndicator,
    ShotNoise,
    VoronoiEdges,
    Window,
    covariance_decay_probe,
    realize_environment,
    sample_poisson,
    total_mass,
)

window = Window.cube(6.0, 2)

models = {
    "lebesgue": HomogeneousLebesgue(1.0),
    "density-field": DensityField(
        density=lambda pts: 2.0 * (pts[:, 0] < 3.0), sup_bound=2.0
    ),
    "shot-noise": ShotNoise(pp_intensity=0.6, kernel_radius=0.5, kernel_amplitude=2.0),
    "random-set": RandomSetIndicator(
        lambda_inside=2.0, lambda_outside=0.1, germ_intensity=0.5, grain_radius=0.6
    ),
    "voronoi": VoronoiEdges(seed_intensity=1.0),
    "manhattan": ManhattanGrid(line_intensity=0.7),
}

print(f"{'model':14s} {'mass on 6x6':>12s} {'points at z=1':>14s}")
for name, model in models.items():
    env = realize_environment(model, window, seed=2026)
    mass = total_mass(env, window)
    conf = sample_poisson(env, window, z=1.0, seed=7)
    print(f"{name:14s} {mass:12.2f} {len(conf):14d}")

# the edge measure of a Voronoi tessellation carries 2 sqrt(rho) length per area
env = realize_environment(VoronoiEdges(1.0), window, seed=3)
per_area = env.segments.lengths.sum() / window.volume
print(f"\nvoronoi edge length per unit area: {per_area:.2f} (mean 2.0)")

# shot-noise box masses decorrelate beyond twice the kernel radius plus box side
rows = covariance_decay_probe(
    ShotNoise(1.0, 0.4, 1.0), box_size=1.0, separations=[0.3, 1.0, 2.5], replicates=400, seed=11
)
print("\nshot-noise mass covariance by separation:")
for row in rows:
    print(
        f"  s={row['separation']:.1f}: {row['covariance']:+.4f} "
        f"+- {row['stderr']:.4f}"
    )
