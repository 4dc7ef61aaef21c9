"""Watch the adaptive candidate grid concentrate around the optimum.

Each refinement round reweights the previous grid by the probability of
beating the incumbent, resamples, and densifies back to full size with
Metropolis-Hastings moves.  A space-filling LHS grid is printed alongside
for contrast; it never concentrates.
"""

import numpy as np

from trajcal.dataspace import Dataset, latin_hypercube
from trajcal.emulator import SeedKernelGP
from trajcal.grid import AdaptiveGrid, LHSGrid

NSEEDS = 4
OPT = 0.55


def near_opt(grid):
    return float(np.mean(np.abs(grid.X[:, 0] - OPT) < 0.1))


def main():
    rng = np.random.default_rng(12)

    X = latin_hypercube(40, 1, rng)
    seeds = 1 + np.arange(40, dtype=np.int64) % NSEEDS
    y = (X[:, 0] - OPT) ** 2 + 0.01 * seeds
    ds = Dataset(X, seeds, y)

    # a fat nugget keeps the emulator unsure, so concentration is gradual
    ang = np.array([0.3, 1.0, 1.9, 2.6])
    em = SeedKernelGP(ndim=1, nseeds=NSEEDS, fixed={
        "lengthscales": [0.25], "variance": 1.0, "nugget": 1.5,
        "B": np.column_stack([np.cos(ang), np.sin(ang)]), "v": [0.05] * NSEEDS,
    })
    em.fit(ds.X, ds.seeds, ds.y_std, rng=rng)  # a fixed kernel draws nothing

    adaptive = AdaptiveGrid(ngrid=200)
    lhs = LHSGrid(ngrid=200)

    print(f"fraction of candidates within 0.1 of the optimum ({OPT})")
    print("round   adaptive   lhs")
    g_ad = None
    for round_ in range(1, 9):
        g_ad = adaptive.sample(emulator=em, dataset=ds, nseeds=NSEEDS, rng=rng, previous=g_ad)
        g_lhs = lhs.sample(emulator=em, dataset=ds, nseeds=NSEEDS, rng=rng, previous=None)
        print(f"  {round_}      {near_opt(g_ad):.3f}      {near_opt(g_lhs):.3f}")

    # both grids always come back at full size with in-range seeds
    print(f"\nlast adaptive grid: {len(g_ad)} points, "
          f"seeds {g_ad.seeds.min()}..{g_ad.seeds.max()}, "
          f"x range [{g_ad.X.min():.3f}, {g_ad.X.max():.3f}]")


if __name__ == "__main__":
    main()
