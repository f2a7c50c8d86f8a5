"""Synthesize a survey-scale field, persist it, and watch the posterior
variance collapse as observations accumulate.

Run from anywhere once the package is installed:

    python3 demos/01_field_and_posterior.py
"""

from pathlib import Path

import numpy as np

from transectplan import (
    Hyperparams,
    Location,
    TransectGrid,
    cross_cov,
    posterior_cov,
    read_field,
    sample_prior_field,
    sha256_of,
    write_field,
)

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

# a temperature-like parameterization: long correlation along the track,
# shorter across it, noise two orders below the signal
h = Hyperparams(ell1=40.45, ell2=16.0, signal_var=0.1542, noise_var=0.0036)
grid = TransectGrid(n_rows=5, n_cols=30, omega1=5.0, omega2=5.0)

print("== covariance decay ==")
origin = Location(0, 0)
for d in (1, 2, 4, 8):
    along = cross_cov([origin], [Location(d, 0)], h, grid.widths)[0, 0]
    across = cross_cov([origin], [Location(0, min(d, 4))], h, grid.widths)[0, 0]
    print(
        f"distance {d:2d} cells: along-track {along:.4f}"
        f"   across-track ({min(d, 4)} cells) {across:.4f}"
    )

print("\n== one exact field draw ==")
z = sample_prior_field(grid, h, seed=0, mean=12.0)
print(f"shape {z.shape}, min {z.min():.3f}, max {z.max():.3f}, mean {z.mean():.3f}")

measured = TransectGrid(5, 30, 5.0, 5.0, measurements=z)
field_path = OUT / "temperature_demo.csv"
write_field(field_path, measured, h, mean=12.0, seed=0)
bundle = read_field(field_path)
assert np.array_equal(bundle.grid.measurements, z), "round trip must be bit-exact"
print(f"wrote {field_path.name} (sha256 {sha256_of(field_path)[:16]}...)")
print(f"sidecar restored ell1={bundle.h.ell1}, seed={bundle.seed}")

print("\n== posterior variance at (row 2, col 6) as columns fill in ==")
target = Location(6, 2)
observed = []
print(f"prior variance            {posterior_cov([target], [], h, grid.widths)[0, 0]:.5f}")
for col in range(5):
    observed.extend(Location(col, r) for r in range(5))
    var = posterior_cov([target], observed, h, grid.widths)[0, 0]
    print(f"columns 0..{col} observed     {var:.5f}")
