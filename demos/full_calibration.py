"""End-to-end calibration of the SIR simulator against a hidden truth.

Builds the target trajectory from a (beta, seed) pair the search never
sees, then runs the full loop: seed-product emulator, adaptive grid,
Thompson batches.  A scaled-down simulator keeps this under a minute;
the command-line equivalent is shown at the end.
"""

import numpy as np

from trajcal.dataspace import Bounds, rescale, sse
from trajcal.emulator import SeedKernelGP
from trajcal.expansion import ExpansionConfig
from trajcal.grid import AdaptiveGrid
from trajcal.simulator import SirConfig, sir_run
from trajcal.workflow import WorkflowConfig, run

BOUNDS = Bounds(lower=np.array([0.02]), upper=np.array([0.12]))
TRUTH_BETA = 0.07
SIM = dict(n_agents=400, horizon=40)


def main():
    target = sir_run(SirConfig(beta=TRUTH_BETA, seed_id=0, **SIM))
    target = target.infected_counts.astype(float)

    def objective(point):
        beta = float(rescale(point.x, BOUNDS)[0])
        traj = sir_run(SirConfig(beta=beta, seed_id=point.r, **SIM))
        return sse(traj.infected_counts.astype(float), target)

    k0 = 8
    em = SeedKernelGP(ndim=1, nseeds=k0, nstarts=1, maxfev=100)
    cfg = WorkflowConfig(
        budget=90,
        initial_design=12,
        expansion=ExpansionConfig(nseeds=k0, nsims_expand=10**9),
        nTS_samp=20,
        master_seed=2,
    )
    ds, trace = run(objective, cfg, em, AdaptiveGrid(ngrid=80))

    ok = [e for e in trace.evaluations if not e.failed]
    best = min(ok, key=lambda e: e.y_raw)
    npts = len(target)
    print(f"truth: beta = {TRUTH_BETA}, seed 0 (never searched)")
    print(f"completed {len(ds)} simulations")
    print(f"best match: beta = {float(rescale(best.x, BOUNDS)[0]):.4f}, "
          f"seed {best.seed}, rmse {np.sqrt(best.y_raw / npts):.2f}")

    # running best rmse, sampled every 10 evaluations
    running = np.minimum.accumulate([np.sqrt(e.y_raw / npts) for e in ok])
    print("\nbest rmse after n simulations:")
    for i in range(9, len(running), 10):
        print(f"  {i + 1:3d}: {running[i]:7.2f}")

    print("\nsame thing from the shell:")
    print("  trajcal calibrate config.json   # see README for the config")


if __name__ == "__main__":
    main()
