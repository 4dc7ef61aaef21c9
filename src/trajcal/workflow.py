"""The adaptive calibration loop: refit, refine, Thompson-select, expand.

Each iteration refits the emulator on the standardized data, refreshes
the candidate grid, picks a batch as the unique argmins of Thompson draws,
optionally grows the seed space, and evaluates the batch against the
simulator until the evaluation budget is spent.  The dataset holds what
the run produced and restandardizes itself on every append; the trace
records how it got there.  Their lengths, ``len(dataset)`` completed runs
and ``len(trace.expansion_events)`` added seeds, are the run's only counts.

A run starts with a space-filling initial design: a Latin hypercube of
``initial_design`` points from the "init" stream, with seed ids cycling
``1 + i % nseeds``.  Every random decision draws from a stream derived as
``default_rng(SeedSequence([master_seed, component_id, iteration]))``, so a
run is a pure function of its arguments, ``master_seed`` among them.
``evaluate`` owns the evaluation records: it decides when a simulator call
failed and records every call, for the initial design and the loop alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import numpy.random  # numpy loads it lazily: load it with the package, not at a run's first draw

from .dataspace import Dataset, DesignPoint, _check_int, latin_hypercube
from .errors import NumericalError, ProgressError
from .expansion import (
    ExpansionConfig,
    can_expand,
    check_for_expansion,
    expand,
    reseed_incumbents,
    sample_from_expansion,
)

__all__ = [
    "WorkflowConfig",
    "EvalRecord",
    "IterationRecord",
    "RunTrace",
    "component_stream",
    "thompson_select",
    "evaluate",
    "run",
]

#: Component ids for the counter-based stream split.
COMPONENTS = {
    "init": 0,
    "fit": 1,
    "grid": 2,
    "thompson": 3,
    "expansion": 4,
    "expansion-sample": 5,
}

STREAM_DERIVATION = (
    "default_rng(SeedSequence([master_seed, component_id, iteration])); "
    "component ids: " + ", ".join(f"{name}={cid}" for name, cid in COMPONENTS.items())
)


def component_stream(master_seed: int, component: str, iteration: int = 0) -> np.random.Generator:
    """Independent generator for one named component at one iteration."""
    return np.random.default_rng(
        np.random.SeedSequence([int(master_seed), COMPONENTS[component], int(iteration)])
    )


@dataclass(frozen=True)
class WorkflowConfig:
    """Run-level settings: budget (successful evaluations, the initial
    design's included), initial design size (2 to ``budget``: the emulator
    needs two training points), Thompson draws, seeding, and seed-space
    growth (``expansion``, where new-seed points go included)."""

    budget: int
    initial_design: int
    expansion: ExpansionConfig
    nTS_samp: int = 30
    master_seed: int = 0

    def __post_init__(self):
        _check_int("initial_design", self.initial_design, 2)
        _check_int("budget", self.budget, 2)
        if self.budget < self.initial_design:
            raise ValueError("budget must be >= initial_design")
        _check_int("nTS_samp", self.nTS_samp, 1)
        _check_int("master_seed", self.master_seed, 0)


@dataclass
class EvalRecord:
    """One simulator evaluation; iteration 0 marks the initial design."""

    iteration: int
    x: tuple
    seed: int
    y_raw: float | None
    failed: bool = False
    error: str | None = None


@dataclass
class IterationRecord:
    """What one acquisition iteration did, enough to replay decisions."""

    iteration: int
    grid_digest: str
    tau: float
    argmin_indices: list
    batch: list
    expansion: tuple | None
    evaluated: int
    failed: int


@dataclass
class RunTrace:
    """How a run went: each evaluation in order, plus per-iteration events."""

    evaluations: list = field(default_factory=list)
    iterations: list = field(default_factory=list)

    @property
    def expansion_events(self) -> list:
        """``(iteration, new seed)`` of each expansion, from the iteration records."""
        return [rec.expansion for rec in self.iterations if rec.expansion is not None]


def thompson_select(emulator, grid, nTS_samp: int, rng: np.random.Generator):
    """Batch acquisition: unique argmins of joint posterior draws.

    Draws ``nTS_samp`` joint samples over the grid, takes each draw's
    argmin (ties to the lowest index), and returns the distinct winners in
    first-occurrence order together with the full per-draw argmin list.
    """
    if nTS_samp < 1:
        raise ValueError("nTS_samp must be >= 1")
    draws = emulator.sample(grid.X, grid.seeds, size=nTS_samp, rng=rng)
    argmins = [int(a) for a in np.argmin(draws, axis=1)]
    points = [DesignPoint(x=grid.X[i], r=int(grid.seeds[i])) for i in dict.fromkeys(argmins)]
    return points, argmins


def evaluate(simulator, points, iteration: int, records: list):
    """Run the simulator on ``points`` in order and record every call.

    The one owner of evaluation records: appends one ``EvalRecord`` per
    point to ``records``.  A call fails when the simulator raises or returns
    NaN or an infinity; its record carries the error text and no value.

    Returns
    -------
    (X, seeds, y_raw) : ndarrays
        Coordinates, seed ids and values of the calls that succeeded.
    """
    xs, seeds, ys = [], [], []
    for p in points:
        try:
            y = float(simulator(p))
        except Exception as exc:
            y, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None if math.isfinite(y) else f"non-finite objective: {y}"
        failed = error is not None
        records.append(EvalRecord(iteration=iteration, x=tuple(float(v) for v in p.x),
                                  seed=p.r, y_raw=None if failed else y, failed=failed,
                                  error=error))
        if not failed:
            xs.append(p.x)
            seeds.append(p.r)
            ys.append(y)
    return np.array(xs), np.array(seeds), np.array(ys)


def run(simulator, config: WorkflowConfig, emulator,
        grid_strategy) -> tuple[Dataset, RunTrace]:
    """Evaluate the initial design, then run the calibration loop until the
    budget is exhausted.

    Parameters
    ----------
    simulator : callable
        Maps a DesignPoint to a raw scalar discrepancy.  An exception it
        raises, or a NaN or infinite value, marks that point failed; failed
        points are logged, excluded from the dataset, and do not consume
        budget.
    config : WorkflowConfig
    emulator : SeedKernelGP
        Unfitted, with ``nseeds`` None or ``config.expansion.nseeds``.
        Refit each iteration on all data, with the fit stream as its
        ``rng``, so refits are reproducible.  Its ``ndim`` is the
        dimension of the initial design.
    grid_strategy : FixedGrid, LHSGrid or AdaptiveGrid
        Called once per iteration with the emulator, the dataset, the
        current seed count, the grid stream and the previous iteration's
        grid (None at the first); it holds only its settings, so one
        strategy may serve several runs.

    Returns
    -------
    (Dataset, RunTrace)
        The dataset holds the results: every successful evaluation, in
        order, under the transform fitted to all of them.  The trace
        records every evaluation, failed ones included, and each
        iteration's decisions.

    Raises
    ------
    ValueError
        Before any evaluation, for an emulator that was fitted already, whose
        seed count is not the config's, or whose seed space has a ``fixed=``
        kernel while the policy may add a seed (``expansion.can_expand``).
    ProgressError
        If fewer than 2 initial evaluations succeed, or every evaluation in
        some iteration fails.
    NumericalError
        From the emulator.  Either exception carries the partial results as
        ``exc.dataset`` (None when the initial design failed) and
        ``exc.trace``.
    """
    k0 = config.expansion.nseeds
    if emulator.nseeds not in (None, k0):
        raise ValueError(f"emulator.nseeds ({emulator.nseeds}) must be None or "
                         f"expansion.nseeds ({k0})")
    if emulator.fit_report is not None:
        raise ValueError("the emulator was fitted already; a run starts from an unfitted one")
    if (emulator.seeded and emulator._fixed is not None
            and can_expand(config.expansion, config.budget)):
        raise ValueError("cannot expand a fixed-parameter emulator, and the policy may add a seed")
    X0 = latin_hypercube(config.initial_design, emulator.ndim,
                         component_stream(config.master_seed, "init", 0))
    trace = RunTrace()
    X, seeds, y = evaluate(simulator, [DesignPoint(x=x, r=1 + i % k0) for i, x in enumerate(X0)],
                           0, trace.evaluations)
    dataset = grid = None
    iteration = 0
    try:
        if y.size < 2:  # the emulator needs two training points
            raise ProgressError(f"{y.size} of {config.initial_design} initial evaluations "
                                "succeeded; need at least 2")
        dataset = Dataset(X, seeds, y)
        while len(dataset) < config.budget:
            iteration += 1
            emulator.fit(dataset.X, dataset.seeds, dataset.y_std,
                         rng=component_stream(config.master_seed, "fit", iteration))
            tau = dataset.incumbent()
            expansions = len(trace.expansion_events)
            grid = grid_strategy.sample(
                emulator=emulator,
                dataset=dataset,
                nseeds=config.expansion.nseeds + expansions,
                rng=component_stream(config.master_seed, "grid", iteration),
                previous=grid,
            )
            batch, argmins = thompson_select(
                emulator, grid, config.nTS_samp,
                component_stream(config.master_seed, "thompson", iteration),
            )
            expansion_event = None
            if check_for_expansion(
                config.expansion, len(dataset), expansions,
                component_stream(config.master_seed, "expansion", iteration),
            ):
                new_seed = expand(config.expansion, expansions)
                emulator.expand_seed_space(new_seed)
                if config.expansion.sample_mode == "exploit":
                    extra = reseed_incumbents(dataset, config.expansion.nexpansion, new_seed)
                else:
                    extra = sample_from_expansion(
                        grid, config.expansion.nexpansion, new_seed,
                        component_stream(config.master_seed, "expansion-sample", iteration),
                    )
                batch = batch + extra
                expansion_event = (iteration, new_seed)
            batch = batch[: config.budget - len(dataset)]

            ok_x, ok_seeds, ok_y = evaluate(simulator, batch, iteration, trace.evaluations)
            trace.iterations.append(
                IterationRecord(
                    iteration=iteration,
                    grid_digest=grid.digest(),
                    tau=float(tau),
                    argmin_indices=argmins,
                    batch=[(tuple(float(v) for v in p.x), p.r) for p in batch],
                    expansion=expansion_event,
                    evaluated=len(ok_y),
                    failed=len(batch) - len(ok_y),
                )
            )
            if not ok_y.size:
                raise ProgressError(
                    f"every simulator evaluation failed at iteration {iteration}"
                )
            dataset.append(ok_x, ok_seeds, ok_y, iteration)
    except (NumericalError, ProgressError) as exc:
        exc.dataset, exc.trace = dataset, trace
        raise
    return dataset, trace
