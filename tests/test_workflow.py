"""Calibration loop: stream split, Thompson batches, budget, fault isolation."""

import dataclasses

import numpy as np
import pytest

from trajcal.dataspace import DesignPoint, fit_transform, latin_hypercube
from trajcal.emulator import SeedKernelGP
from trajcal.errors import ProgressError
from trajcal.expansion import ExpansionConfig
from trajcal.grid import AdaptiveGrid, CandidateGrid, FixedGrid, LHSGrid
from trajcal.simulator import SirConfig, toy_objective
from trajcal.workflow import (
    COMPONENTS,
    STREAM_DERIVATION,
    WorkflowConfig,
    component_stream,
    run,
    thompson_select,
)


# ------------------------------------------------------------------ streams


def test_component_stream_matches_documented_derivation():
    got = component_stream(11, "thompson", 7).random(4)
    want = np.random.default_rng(np.random.SeedSequence([11, 3, 7])).random(4)
    assert np.array_equal(got, want)


def test_component_stream_repeatable():
    a = component_stream(0, "fit", 2).random(8)
    b = component_stream(0, "fit", 2).random(8)
    assert np.array_equal(a, b)


def test_component_streams_distinct_across_components_and_iterations():
    draws = {
        (name, it): tuple(component_stream(0, name, it).random(2))
        for name in COMPONENTS
        for it in (0, 1, 2)
    }
    assert len(set(draws.values())) == len(draws)


# ------------------------------------------------------------------- config


def test_workflow_config_validation():
    exp = ExpansionConfig(nseeds=3)
    WorkflowConfig(budget=10, initial_design=2, expansion=exp)
    with pytest.raises(ValueError):
        WorkflowConfig(budget=0, initial_design=2, expansion=exp)
    with pytest.raises(ValueError):
        WorkflowConfig(budget=10, initial_design=2, expansion=exp, nTS_samp=0)
    with pytest.raises(ValueError, match="master_seed must be >= 0, got -1"):
        WorkflowConfig(budget=10, initial_design=2, expansion=exp, master_seed=-1)


#: The other settings each class needs to be built.
_BASE = {
    WorkflowConfig: dict(budget=10, initial_design=2, expansion=ExpansionConfig(nseeds=3)),
    ExpansionConfig: dict(nseeds=3),
    SeedKernelGP: dict(ndim=1, nseeds=3),
    LHSGrid: dict(ngrid=5),
    AdaptiveGrid: dict(ngrid=5),
    FixedGrid: dict(ngrid=5, rng=np.random.default_rng(0)),
    SirConfig: dict(beta=0.1, seed_id=0),
}
#: Every integer setting of those classes, with a valid value.
_COUNTS = [
    (WorkflowConfig, "budget", 10), (WorkflowConfig, "initial_design", 3),
    (WorkflowConfig, "nTS_samp", 4), (WorkflowConfig, "master_seed", 0),
    (ExpansionConfig, "nseeds", 1), (ExpansionConfig, "nexpansion", 0),
    (ExpansionConfig, "nsims_expand", 5),
    (SeedKernelGP, "ndim", 2), (SeedKernelGP, "nseeds", 3), (SeedKernelGP, "rank", 2),
    (SeedKernelGP, "nstarts", 2), (SeedKernelGP, "maxfev", 10),
    (LHSGrid, "ngrid", 5), (AdaptiveGrid, "ngrid", 5), (FixedGrid, "ngrid", 5),
    (SirConfig, "seed_id", 1), (SirConfig, "crn_stream_id", 2), (SirConfig, "n_agents", 300),
    (SirConfig, "horizon", 30), (SirConfig, "infectious_period", 3),
]


@pytest.mark.parametrize("cls,field,valid", _COUNTS,
                         ids=[f"{cls.__name__}.{field}" for cls, field, _ in _COUNTS])
def test_integer_settings_reject_non_integers_when_built(cls, field, valid):
    """A fractional, integral-float, bool or string count fails at
    construction, naming the setting, not part-way through a run; a NumPy
    integer is accepted and kept."""
    for bad in (valid + 0.5, float(valid), True, str(valid)):
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {bad!r}"):
            cls(**{**_BASE[cls], field: bad})
    built = cls(**{**_BASE[cls], field: np.int64(valid)})
    assert getattr(built, field) == valid


# --------------------------------------------------------- thompson_select


class CannedSampler:
    """Emulator stand-in whose posterior draws are given verbatim."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=float)

    def sample(self, X, seeds, size, rng):
        assert X.shape[0] == seeds.shape[0] == self.draws.shape[1]
        assert size == self.draws.shape[0]
        return self.draws


def _grid3():
    return CandidateGrid(np.array([[0.1], [0.5], [0.9]]), np.array([1, 2, 3]))


def test_thompson_unique_argmins_first_occurrence_order():
    em = CannedSampler([[3.0, 1.0, 2.0], [0.0, 5.0, 9.0], [4.0, 2.0, 1.0]])
    points, argmins = thompson_select(em, _grid3(), 3, component_stream(0, "thompson"))
    assert argmins == [1, 0, 2]
    assert [(float(p.x[0]), p.r) for p in points] == [(0.5, 2), (0.1, 1), (0.9, 3)]


def test_thompson_ties_go_to_lowest_index():
    em = CannedSampler([[1.0, 1.0, 1.0]])
    points, argmins = thompson_select(em, _grid3(), 1, component_stream(0, "thompson"))
    assert argmins == [0]
    assert len(points) == 1 and points[0].r == 1


def test_thompson_degenerate_posterior_collapses_to_one_point():
    # identical draws -> every argmin agrees -> batch of exactly one
    em = CannedSampler(np.tile([[2.0, 0.5, 1.0]], (20, 1)))
    points, argmins = thompson_select(em, _grid3(), 20, component_stream(0, "thompson"))
    assert len(points) == 1
    assert set(argmins) == {1}


def test_thompson_batch_never_exceeds_draw_count():
    rng = np.random.default_rng(3)
    em = CannedSampler(rng.normal(size=(5, 40)))
    grid = CandidateGrid(rng.random((40, 2)), 1 + np.arange(40) % 4)
    points, argmins = thompson_select(em, grid, 5, component_stream(0, "thompson"))
    assert 1 <= len(points) <= 5
    assert len(argmins) == 5


def test_thompson_rejects_bad_inputs():
    em = CannedSampler([[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError):
        thompson_select(em, _grid3(), 0, component_stream(0, "thompson"))


def test_thompson_real_emulator_prefers_low_mean_region():
    # trained on a V shape; nearly all draws should argmin near the trough
    X = np.linspace(0, 1, 9)[:, None]
    y = np.abs(X[:, 0] - 0.5)
    em = SeedKernelGP(
        ndim=1, fixed={"lengthscales": [0.3], "variance": 1.0, "nugget": 1e-8}
    )
    em.fit(X, np.ones(9, dtype=int), y, rng=np.random.default_rng())
    grid = CandidateGrid(np.linspace(0, 1, 21)[:, None], np.ones(21, dtype=int))
    points, argmins = thompson_select(em, grid, 50, component_stream(0, "thompson"))
    assert np.mean(np.abs(grid.X[argmins, 0] - 0.5) < 0.2) > 0.9


# ------------------------------------------------------------ run plumbing


def _fixed_emulator(nugget=1e-6):
    # fixed hyperparameters: refits are a Cholesky, keeping loop tests fast
    return SeedKernelGP(
        ndim=1, fixed={"lengthscales": [0.3], "variance": 1.0, "nugget": nugget}
    )


def _config(budget, n0=6, k0=3, master_seed=0, nsims_expand=10_000, nexpansion=3,
            nTS_samp=8, sample_mode="explore"):
    return WorkflowConfig(
        budget=budget,
        initial_design=n0,
        expansion=ExpansionConfig(nseeds=k0, nsims_expand=nsims_expand,
                                  nexpansion=nexpansion, sample_mode=sample_mode),
        nTS_samp=nTS_samp,
        master_seed=master_seed,
    )


def _loop(budget, simulator=toy_objective, emulator=None, strategy=None, **kw):
    if emulator is None:
        emulator = _fixed_emulator()
    if strategy is None:
        strategy = LHSGrid(ngrid=30)
    return run(simulator, _config(budget, **kw), emulator, strategy)


def _failing_after(n):
    """The toy objective, raising on every call after its first ``n``."""
    calls = []

    def failing(point):
        calls.append(point)
        if len(calls) > n:
            raise RuntimeError("boom")
        return toy_objective(point)

    return failing


def test_run_rejects_budget_below_initial_design():
    with pytest.raises(ValueError, match="budget must be >= initial_design"):
        _config(budget=5, n0=6)


def test_run_rejects_empty_initial():
    # the emulator needs two training points, so the design needs two points
    for n0 in (0, 1):
        with pytest.raises(ValueError, match="initial_design must be >= 2"):
            _config(budget=5, n0=n0)


def _counted(calls):
    """The toy objective, appending each point it is called on to ``calls``."""
    def objective(point):
        calls.append(point)
        return toy_objective(point)

    return objective


def test_run_rejects_a_mismatched_or_fitted_emulator_before_any_evaluation():
    calls = []
    with pytest.raises(ValueError,
                       match=r"emulator.nseeds \(2\) must be None or expansion.nseeds \(3\)"):
        _loop(budget=12, simulator=_counted(calls), emulator=SeedKernelGP(ndim=1, nseeds=2))
    # a fitted emulator would carry its warm start into the run
    emulator = _fixed_emulator()
    _loop(budget=8, emulator=emulator)
    with pytest.raises(ValueError, match="the emulator was fitted already"):
        _loop(budget=8, simulator=_counted(calls), emulator=emulator)
    assert calls == []


@pytest.mark.parametrize("policy", [{"nsims_expand": 6}, {"nsims_expand": 11},
                                    {"policy": "by-prob", "p": 0.25}])
def test_run_refuses_a_fixed_seeded_emulator_that_may_expand_before_any_evaluation(policy):
    """A fixed kernel cannot follow the seed space as it grows: a policy that may
    add a seed is refused before the first simulator call, not mid-run."""
    def emulator():
        return SeedKernelGP(ndim=1, nseeds=2, fixed={
            "lengthscales": [0.3], "variance": 1.0, "B": [[1.0], [1.0]], "v": [0.1, 0.1],
            "nugget": 1e-4})

    def config(**expansion):
        return WorkflowConfig(budget=12, initial_design=4, nTS_samp=3, expansion=ExpansionConfig(
            nseeds=2, nexpansion=1, **expansion))

    calls = []
    with pytest.raises(ValueError, match="cannot expand a fixed-parameter emulator"):
        run(_counted(calls), config(**policy), emulator(), LHSGrid(20))
    assert calls == []
    # a policy that never adds a seed in the budget runs to the end
    for never in ({"nsims_expand": 12}, {"policy": "by-prob", "p": 0.0}):
        dataset, trace = run(_counted(calls), config(**never), emulator(), LHSGrid(20))
        assert len(dataset) == 12 and trace.expansion_events == []


def test_fixed_grid_takes_the_dimension_from_the_data():
    emulator = SeedKernelGP(ndim=2, fixed={"lengthscales": [0.3, 0.3], "variance": 1.0,
                                           "nugget": 1e-6})
    dataset, trace = _loop(budget=12, emulator=emulator,
                           strategy=FixedGrid(10, np.random.default_rng(0)))
    assert dataset.X.shape == (12, 2)
    assert len(trace.iterations) >= 1
    assert all(len(e.x) == 2 for e in trace.evaluations)
    # the grid is drawn once and kept for the whole run
    assert len({it.grid_digest for it in trace.iterations}) == 1


@pytest.mark.parametrize("build", [lambda: LHSGrid(20), lambda: AdaptiveGrid(20),
                                   lambda: FixedGrid(20, np.random.default_rng(5))],
                         ids=["lhs", "adaptive", "fixed"])
def test_a_reused_grid_strategy_gives_the_run_a_fresh_one_gives(build):
    def one_run(strategy):
        # each run grows the seed space, so a grid kept from the run before
        # would not match the next run's fresh emulator
        emulator = SeedKernelGP(ndim=1, nseeds=2, nstarts=1, maxfev=60)
        dataset, trace = _loop(budget=16, emulator=emulator, strategy=strategy, k0=2,
                               master_seed=7, nsims_expand=8)
        assert trace.expansion_events
        return (dataset.X.tobytes(), dataset.seeds.tobytes(), dataset.y_raw.tobytes(),
                [it.grid_digest for it in trace.iterations])

    strategy = build()
    first = one_run(strategy)
    assert one_run(strategy) == first == one_run(build())


def test_initial_design_is_the_documented_draw():
    dataset, trace = _loop(budget=7, n0=7, k0=3, master_seed=4)
    X0 = latin_hypercube(7, 1, component_stream(4, "init", 0))
    assert np.array_equal(dataset.X, X0)
    assert dataset.seeds.tolist() == [1, 2, 3, 1, 2, 3, 1]
    assert dataset.iteration.tolist() == [0] * 7
    assert dataset.y_raw.tolist() == [toy_objective(DesignPoint(x, r))
                                      for x, r in zip(X0, dataset.seeds)]
    assert [(e.x, e.seed) for e in trace.evaluations] == [
        (tuple(x), r) for x, r in zip(X0.tolist(), dataset.seeds.tolist())]


@pytest.mark.parametrize("successes", [0, 1])
def test_too_few_initial_successes_raise_with_the_trace_and_no_dataset(successes):
    with pytest.raises(ProgressError) as err:
        _loop(budget=12, simulator=_failing_after(successes))
    assert str(err.value) == f"{successes} of 6 initial evaluations succeeded; need at least 2"
    assert err.value.dataset is None
    trace = err.value.trace
    assert sum(not e.failed for e in trace.evaluations) == successes
    assert trace.iterations == []
    assert [e.failed for e in trace.evaluations] == [i >= successes for i in range(6)]
    assert all(e.error == "RuntimeError: boom" for e in trace.evaluations if e.failed)


def test_budget_equal_to_initial_design_runs_zero_iterations():
    initial, trace = _loop(budget=6, n0=6)
    assert trace.iterations == []
    assert len(initial) == 6
    assert len(trace.evaluations) == 6
    assert all(e.iteration == 0 and not e.failed for e in trace.evaluations)
    assert initial.transform is not None
    assert np.minimum.accumulate(initial.y_std).shape == (6,)


def test_budget_is_hit_exactly():
    # 17 is not 6 plus a multiple of anything; the last batch must be trimmed
    initial, trace = _loop(budget=17)
    ok = [e for e in trace.evaluations if not e.failed]
    assert len(ok) == 17
    assert len(initial) == 17  # run() appends into the caller's dataset
    assert sum(it.evaluated for it in trace.iterations) == 11
    assert [it.iteration for it in trace.iterations] == list(
        range(1, len(trace.iterations) + 1)
    )
    for it in trace.iterations:
        assert it.evaluated + it.failed == len(it.batch)
        assert it.evaluated >= 1


def test_eval_records_carry_valid_seeds_and_unit_coordinates():
    _, trace = _loop(budget=20, k0=3)
    for e in trace.evaluations:
        assert not e.failed
        assert 1 <= e.seed <= 3
        assert 0.0 <= e.x[0] <= 1.0
        assert e.y_raw is not None


def test_trace_metadata_names_the_stream_derivation():
    """The trace keeps only what the run did: the run's inputs stay with the
    config, and the initial size is the dataset's count of iteration-0 rows."""
    dataset, trace = _loop(budget=8)
    assert [f.name for f in dataclasses.fields(trace)] == ["evaluations", "iterations"]
    assert np.count_nonzero(dataset.iteration == 0) == 6
    assert "master_seed" in STREAM_DERIVATION
    for name in COMPONENTS:
        assert name in STREAM_DERIVATION


def test_identical_master_seed_reproduces_the_trace_bitwise():
    d1, t1 = _loop(budget=18, master_seed=42)
    d2, t2 = _loop(budget=18, master_seed=42)
    key = lambda t: [(e.iteration, e.x, e.seed, e.y_raw, e.failed) for e in t.evaluations]
    assert key(t1) == key(t2)
    assert [it.grid_digest for it in t1.iterations] == [it.grid_digest for it in t2.iterations]
    assert [it.argmin_indices for it in t1.iterations] == [it.argmin_indices for it in t2.iterations]
    assert d1.transform == d2.transform


def test_different_master_seeds_diverge():
    _, t1 = _loop(budget=18, master_seed=1)
    _, t2 = _loop(budget=18, master_seed=2)
    key = lambda t: [(e.x, e.seed) for e in t.evaluations]
    assert key(t1) != key(t2)


def test_dataset_is_restandardized_after_the_run():
    initial, trace = _loop(budget=20)
    assert abs(float(np.mean(initial.y_std))) < 1e-9
    assert abs(float(np.std(initial.y_std)) - 1.0) < 1e-9
    assert initial.transform == fit_transform(initial.y_raw)[0]


# ---------------------------------------------------------- fault isolation


def test_single_simulator_failure_is_logged_and_does_not_consume_budget():
    calls = {"n": 0}

    def flaky(point):
        calls["n"] += 1
        if calls["n"] == 6 + 2:  # the second call after the initial design
            raise RuntimeError("solver diverged")
        return toy_objective(point)

    # a large fixed nugget keeps Thompson batches multi-point, so the one
    # failure shares its iteration with successes
    initial, trace = _loop(budget=16, simulator=flaky, emulator=_fixed_emulator(0.3))
    failed = [e for e in trace.evaluations if e.failed]
    ok = [e for e in trace.evaluations if not e.failed]
    assert len(failed) == 1
    assert failed[0].y_raw is None
    assert failed[0].error == "RuntimeError: solver diverged"
    assert failed[0].iteration >= 1
    assert len(ok) == 16
    assert len(initial) == 16  # the failed point never enters the dataset
    assert sum(it.failed for it in trace.iterations) == 1


def test_non_finite_objective_is_a_failed_evaluation():
    calls = []

    def nan_on_seed_two(point):  # after the initial design of 6
        calls.append(point)
        return float("nan") if point.r == 2 and len(calls) > 6 else toy_objective(point)

    initial, trace = _loop(budget=16, simulator=nan_on_seed_two, emulator=_fixed_emulator(0.3))
    failed = [e for e in trace.evaluations if e.failed]
    assert failed
    assert all(e.seed == 2 and e.y_raw is None for e in failed)
    assert all(e.error == "non-finite objective: nan" for e in failed)
    assert sum(it.failed for it in trace.iterations) == len(failed)
    assert len(initial) == 16
    assert np.all(np.isfinite(initial.y_raw))
    assert all(np.isfinite(v) for v in dataclasses.astuple(initial.transform))
    # the dataset holds the successes alone, in trace order
    assert [e.y_raw for e in trace.evaluations if not e.failed] == initial.y_raw.tolist()


def test_total_failure_raises_progress_error_with_partial_trace():
    # every call after the initial design fails
    with pytest.raises(ProgressError) as err:
        _loop(budget=12, simulator=_failing_after(6), nTS_samp=30)
    initial, trace = err.value.dataset, err.value.trace
    assert len(initial) == 6
    assert initial.transform is not None
    assert len(trace.iterations) == 1
    assert trace.iterations[0].evaluated == 0
    assert trace.iterations[0].failed == len(trace.iterations[0].batch)
    assert all(e.failed for e in trace.evaluations if e.iteration >= 1)


# -------------------------------------------------------- expansion wiring


def _expansion_run(mode):
    emulator = SeedKernelGP(ndim=1, nseeds=2, nstarts=1, maxfev=60)
    dataset, trace = _loop(budget=30, emulator=emulator, k0=2, master_seed=7,
                           nsims_expand=8, sample_mode=mode)
    return dataset, trace, emulator


def test_expansion_grows_seed_space_and_samples_the_new_seed():
    initial, trace, emulator = _expansion_run("explore")
    assert trace.expansion_events, "expected at least one expansion"
    ks = [k for _, k in trace.expansion_events]
    assert ks == list(range(3, 3 + len(ks)))  # contiguous growth from k0=2
    assert emulator.nseeds == 2 + len(ks)
    # events recorded in the iteration records too, at matching iterations
    recorded = [(it.iteration, it.expansion[1])
                for it in trace.iterations if it.expansion is not None]
    assert recorded == trace.expansion_events
    # some acquisition actually ran on the first new seed
    assert any(e.seed == 3 for e in trace.evaluations if not e.failed)


def test_no_seed_used_before_its_expansion():
    _, trace, _ = _expansion_run("explore")
    first_seen = {k: it for it, k in trace.expansion_events}
    for e in trace.evaluations:
        if e.failed:
            continue
        if e.seed <= 2:
            continue
        assert e.iteration >= first_seen[e.seed]


def test_expansion_counter_carries_between_events():
    # triggers stay aligned to absolute completed counts: with the counter
    # seeded at n0=6 and an interval of 8, the j-th expansion happens at the
    # first iteration after completed crosses 8j
    dataset, trace, _ = _expansion_run("explore")
    assert len(trace.expansion_events) >= 2
    completed_before = {}
    done = np.count_nonzero(dataset.iteration == 0)
    by_iter = {}
    for it in trace.iterations:
        completed_before[it.iteration] = done
        done += it.evaluated
        by_iter[it.iteration] = it
    for j, (it_idx, _) in enumerate(trace.expansion_events, start=1):
        assert completed_before[it_idx] >= 8 * j
        # and it fired at the FIRST opportunity: the previous iteration,
        # if any, began below the threshold
        if it_idx > 1:
            assert completed_before[it_idx - 1] < 8 * j


def test_exploit_mode_reseeds_previously_evaluated_coordinates():
    initial, trace, _ = _expansion_run("exploit")
    assert trace.expansion_events
    evaluated_before = {}
    seen = [tuple(e.x) for e in trace.evaluations if e.iteration == 0]
    cursor = 0
    for it in trace.iterations:
        evaluated_before[it.iteration] = set(seen)
        seen.extend(
            tuple(e.x) for e in trace.evaluations
            if e.iteration == it.iteration and not e.failed
        )
    first_seen = {k: it for it, k in trace.expansion_events}
    for e in trace.evaluations:
        if e.failed or e.seed <= 2:
            continue
        if first_seen.get(e.seed) == e.iteration:
            assert tuple(e.x) in evaluated_before[e.iteration]


# ------------------------------------------------------- the run's results


def test_dataset_holds_the_traced_successes_in_order():
    # the bundle's design rows and best-observed curve read the dataset
    initial, trace = _loop(budget=20)
    ok = [e for e in trace.evaluations if not e.failed]
    assert [(e.iteration, e.seed, e.y_raw) for e in ok] == list(
        zip(initial.iteration.tolist(), initial.seeds.tolist(), initial.y_raw.tolist()))
    assert np.array_equal(initial.y_std, initial.transform.apply(initial.y_raw))
    got = np.minimum.accumulate(initial.y_std)
    assert np.all(np.diff(got) <= 0.0)
    # monotone transform: the minimizing index agrees with the raw argmin
    assert int(np.argmin(got)) == int(np.argmin(np.minimum.accumulate(initial.y_raw)))
