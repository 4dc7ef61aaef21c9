"""The adaptive calibration loop: refit, refine, Thompson-select, expand.

Each iteration restandardizes the data, refits the emulator, refreshes the
candidate grid, picks a batch as the unique argmins of Thompson draws,
optionally grows the seed space, and evaluates the batch against the
simulator until the evaluation budget is spent.

Every random decision draws from a stream derived as
``default_rng(SeedSequence([master_seed, component_id, iteration]))``, so a
run is a pure function of (initial data, simulator, master_seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataspace import Dataset, DesignPoint, ObjectiveTransform
from .errors import NumericalError, ProgressError
from .expansion import (
    ExpansionConfig,
    ExpansionState,
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
    "run",
    "best_observed",
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


def component_stream(master_seed: int, component: str | int, iteration: int = 0) -> np.random.Generator:
    """Independent generator for one component at one iteration."""
    cid = COMPONENTS[component] if isinstance(component, str) else int(component)
    return np.random.default_rng(
        np.random.SeedSequence([int(master_seed), cid, int(iteration)])
    )


@dataclass(frozen=True)
class WorkflowConfig:
    """Loop-level settings: budget, Thompson draws, seeding, expansion."""

    budget: int
    expansion: ExpansionConfig
    nTS_samp: int = 30
    master_seed: int = 0
    expansion_mode: str = "explore"

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.nTS_samp < 1:
            raise ValueError("nTS_samp must be >= 1")
        if self.expansion_mode not in ("explore", "exploit"):
            raise ValueError("expansion_mode must be 'explore' or 'exploit'")


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
    """Complete run record: evaluations in order plus per-iteration events."""

    master_seed: int
    budget: int
    initial_size: int
    stream_derivation: str = STREAM_DERIVATION
    evaluations: list = field(default_factory=list)
    iterations: list = field(default_factory=list)
    expansion_events: list = field(default_factory=list)
    final_transform: tuple | None = None
    completed: int = 0


def thompson_select(emulator, grid, nTS_samp: int, rng: np.random.Generator):
    """Batch acquisition: unique argmins of joint posterior draws.

    Draws ``nTS_samp`` joint samples over the grid, takes each draw's
    argmin (ties to the lowest index), and returns the distinct winners in
    first-occurrence order together with the full per-draw argmin list.
    """
    if nTS_samp < 1:
        raise ValueError("nTS_samp must be >= 1")
    if len(grid) == 0:
        raise ValueError("grid must be nonempty")
    draws = emulator.sample(grid.joint(), size=nTS_samp, rng=rng)
    argmins = np.argmin(draws, axis=1)
    order: list[int] = []
    seen = set()
    for a in argmins:
        i = int(a)
        if i not in seen:
            seen.add(i)
            order.append(i)
    points = [DesignPoint(x=grid.X[i], r=int(grid.seeds[i])) for i in order]
    return points, [int(a) for a in argmins]


def run(initial: Dataset, simulator, config: WorkflowConfig, emulator,
        grid_strategy) -> RunTrace:
    """Run the calibration loop until the budget is exhausted.

    Parameters
    ----------
    initial : Dataset
        Evaluated initial design; counts toward the budget.
    simulator : callable
        Maps a DesignPoint to a raw scalar discrepancy.  An exception it
        raises, or a NaN or infinite value, marks that point failed; failed
        points are logged, excluded from the dataset, and do not consume
        budget.
    config : WorkflowConfig
    emulator : SeedKernelGP
        Refit each iteration on all data; its ``rng`` is reseeded from the
        fit stream so refits are reproducible.
    grid_strategy : FixedGrid, LHSGrid or AdaptiveGrid

    Returns
    -------
    RunTrace

    Raises
    ------
    ProgressError
        If every evaluation in some iteration fails.  The partial trace is
        attached to the exception as ``exc.trace`` (NumericalError from the
        emulator gets the same treatment).
    """
    if len(initial) == 0:
        raise ValueError("initial dataset must be nonempty")
    if config.budget < len(initial):
        raise ValueError("budget must be >= the initial design size")
    dataset = initial
    trace = RunTrace(
        master_seed=config.master_seed,
        budget=config.budget,
        initial_size=len(initial),
    )
    for i in range(len(initial)):
        trace.evaluations.append(
            EvalRecord(
                iteration=0,
                x=tuple(float(v) for v in dataset.X[i]),
                seed=int(dataset.seeds[i]),
                y_raw=float(dataset.y_raw[i]),
            )
        )
    state = ExpansionState.start(config.expansion, completed=len(initial))
    completed = len(initial)
    iteration = 0
    try:
        while completed < config.budget:
            iteration += 1
            dataset.refresh_transform()
            emulator.rng = component_stream(config.master_seed, "fit", iteration)
            emulator.fit(dataset.joint(), dataset.y_std)
            tau = dataset.incumbent()
            grid = grid_strategy.sample(
                emulator=emulator,
                dataset=dataset,
                nseeds=state.current_k,
                rng=component_stream(config.master_seed, "grid", iteration),
            )
            batch, argmins = thompson_select(
                emulator, grid, config.nTS_samp,
                component_stream(config.master_seed, "thompson", iteration),
            )
            expansion_event = None
            if check_for_expansion(
                state, config.expansion,
                component_stream(config.master_seed, "expansion", iteration),
                emulator=emulator, dataset=dataset,
            ):
                new_seed = expand(state, config.expansion, iteration)
                emulator.expand_seed_space(new_seed)
                if config.expansion_mode == "exploit":
                    extra = reseed_incumbents(dataset, config.expansion.nexpansion, new_seed)
                else:
                    extra = sample_from_expansion(
                        grid, config.expansion.nexpansion, new_seed,
                        component_stream(config.master_seed, "expansion-sample", iteration),
                    )
                batch = batch + extra
                expansion_event = (iteration, new_seed)
            batch = batch[: config.budget - completed]

            ok_x, ok_seeds, ok_y, nfailed = [], [], [], 0
            for p in batch:
                try:
                    y = float(simulator(p))
                    error = None if math.isfinite(y) else f"non-finite objective: {y}"
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                if error is not None:
                    nfailed += 1
                    trace.evaluations.append(
                        EvalRecord(
                            iteration=iteration,
                            x=tuple(float(v) for v in p.x),
                            seed=p.r,
                            y_raw=None,
                            failed=True,
                            error=error,
                        )
                    )
                    continue
                ok_x.append(p.x)
                ok_seeds.append(p.r)
                ok_y.append(y)
                trace.evaluations.append(
                    EvalRecord(
                        iteration=iteration,
                        x=tuple(float(v) for v in p.x),
                        seed=p.r,
                        y_raw=y,
                    )
                )
            trace.iterations.append(
                IterationRecord(
                    iteration=iteration,
                    grid_digest=grid.digest(),
                    tau=float(tau),
                    argmin_indices=argmins,
                    batch=[(tuple(float(v) for v in p.x), p.r) for p in batch],
                    expansion=expansion_event,
                    evaluated=len(ok_y),
                    failed=nfailed,
                )
            )
            if not ok_y:
                raise ProgressError(
                    f"every simulator evaluation failed at iteration {iteration}"
                )
            dataset.append(np.array(ok_x), np.array(ok_seeds), np.array(ok_y), iteration)
            completed += len(ok_y)
            state.sims_since_expansion += len(ok_y)
    except (NumericalError, ProgressError) as exc:
        _seal(trace, state, dataset, completed)
        exc.trace = trace
        raise
    _seal(trace, state, dataset, completed)
    return trace


def _seal(trace: RunTrace, state: ExpansionState, dataset: Dataset, completed: int) -> None:
    trace.expansion_events = list(state.expansion_events)
    trace.completed = completed
    t = dataset.transform
    trace.final_transform = (t.epsilon, t.mean, t.std)


def best_observed(trace: RunTrace) -> np.ndarray:
    """Running minimum of transformed objectives in evaluation order.

    Transforms every successful evaluation's raw value under the trace's
    final transform state; the log-standardize map is monotone, so the
    minimizing indices agree with a raw-value running minimum.
    """
    if trace.final_transform is None:
        raise ValueError("trace carries no final transform state")
    eps, mean, std = trace.final_transform
    t = ObjectiveTransform(epsilon=eps, mean=mean, std=std)
    raw = np.array([e.y_raw for e in trace.evaluations if not e.failed])
    if raw.size == 0:
        raise ValueError("trace holds no successful evaluations")
    return np.minimum.accumulate(t.apply(raw))
