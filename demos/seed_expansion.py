"""Grow the seed space on a simulation-count schedule during a run.

The workflow starts with a handful of seeds and adds a new one whenever
the completed-simulation counter crosses the configured interval.  Each
expansion warm-starts the emulator's seed covariance and immediately
queues a few samples at the new seed so it gets data right away.
"""

from trajcal.emulator import SeedKernelGP
from trajcal.expansion import ExpansionConfig
from trajcal.grid import LHSGrid
from trajcal.simulator import toy_objective
from trajcal.workflow import WorkflowConfig, run


def main():
    k0 = 3
    em = SeedKernelGP(ndim=1, nseeds=k0, nstarts=1, maxfev=80)
    cfg = WorkflowConfig(
        budget=80,
        initial_design=20,
        expansion=ExpansionConfig(nseeds=k0, nsims_expand=15, nexpansion=4),
        nTS_samp=10,
        master_seed=5,
    )
    ds, trace = run(toy_objective, cfg, em, LHSGrid(ngrid=60))

    print(f"completed {len(ds)} simulations "
          f"over {len(trace.iterations)} iterations")
    print(f"seed space grew {k0} -> {em.nseeds}\n")

    done = int((ds.iteration == 0).sum())  # the initial design's rows
    events = dict(trace.expansion_events)
    print("iter  completed-before  batch  expansion")
    for it in trace.iterations:
        mark = f"added seed {events[it.iteration]}" if it.iteration in events else ""
        print(f"  {it.iteration:2d}        {done:3d}          {it.evaluated:2d}    {mark}")
        done += it.evaluated

    first_use = {}
    for e in trace.evaluations:
        first_use.setdefault(e.seed, e.iteration)
    print("\nfirst iteration each seed was evaluated:")
    for seed in sorted(first_use):
        print(f"  seed {seed}: iteration {first_use[seed]}")


if __name__ == "__main__":
    main()
