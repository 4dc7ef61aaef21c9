"""Calibration loop: stream split, Thompson batches, budget, fault isolation."""

import numpy as np
import pytest

from trajcal.dataspace import Dataset, DesignPoint, ObjectiveTransform, latin_hypercube
from trajcal.emulator import SeedKernelGP
from trajcal.errors import ProgressError
from trajcal.expansion import ExpansionConfig
from trajcal.grid import CandidateGrid, FixedGrid, GridConfig, LHSGrid
from trajcal.simulator import toy_objective
from trajcal.workflow import (
    COMPONENTS,
    EvalRecord,
    RunTrace,
    WorkflowConfig,
    best_observed,
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


def test_component_stream_accepts_numeric_id():
    a = component_stream(5, "grid", 1).random(3)
    b = component_stream(5, COMPONENTS["grid"], 1).random(3)
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
    WorkflowConfig(budget=10, expansion=exp)
    with pytest.raises(ValueError):
        WorkflowConfig(budget=0, expansion=exp)
    with pytest.raises(ValueError):
        WorkflowConfig(budget=10, expansion=exp, nTS_samp=0)
    with pytest.raises(ValueError):
        WorkflowConfig(budget=10, expansion=exp, expansion_mode="greedy")


# --------------------------------------------------------- thompson_select


class CannedSampler:
    """Emulator stand-in whose posterior draws are given verbatim."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=float)

    def sample(self, joint, size, rng):
        assert joint.shape[0] == self.draws.shape[1]
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
    X = np.column_stack([np.linspace(0, 1, 9), np.ones(9)])
    y = np.abs(X[:, 0] - 0.5)
    em = SeedKernelGP(
        ndim=1, fixed={"lengthscales": [0.3], "variance": 1.0, "nugget": 1e-8}
    )
    em.fit(X, y)
    grid = CandidateGrid(np.linspace(0, 1, 21)[:, None], np.ones(21, dtype=int))
    points, argmins = thompson_select(em, grid, 50, component_stream(0, "thompson"))
    assert np.mean(np.abs(grid.X[argmins, 0] - 0.5) < 0.2) > 0.9


# ------------------------------------------------------------ run plumbing


def _initial(n0, k0, master_seed=0, objective=toy_objective):
    rng = component_stream(master_seed, "init", 0)
    X = latin_hypercube(n0, 1, rng)
    seeds = 1 + np.arange(n0) % k0
    y = [objective(DesignPoint(x=X[i], r=int(seeds[i]))) for i in range(n0)]
    return Dataset(X, seeds, np.array(y))


def _fixed_emulator():
    # fixed hyperparameters: refits are a Cholesky, keeping loop tests fast
    return SeedKernelGP(
        ndim=1, fixed={"lengthscales": [0.3], "variance": 1.0, "nugget": 1e-6}
    )


def _loop(budget, n0=6, k0=3, master_seed=0, simulator=toy_objective,
          nsims_expand=10_000, **kw):
    initial = _initial(n0, k0, master_seed)
    config = WorkflowConfig(
        budget=budget,
        expansion=ExpansionConfig(nseeds=k0, nsims_expand=nsims_expand,
                                  nexpansion=kw.pop("nexpansion", 3)),
        nTS_samp=kw.pop("nTS_samp", 8),
        master_seed=master_seed,
        **kw,
    )
    strategy = LHSGrid(GridConfig(ndim=1, nseeds=k0, ngrid=30))
    return initial, run(initial, simulator, config, _fixed_emulator(), strategy)


def test_run_rejects_budget_below_initial_design():
    initial = _initial(6, 3)
    config = WorkflowConfig(budget=5, expansion=ExpansionConfig(nseeds=3))
    with pytest.raises(ValueError):
        run(initial, toy_objective, config, _fixed_emulator(),
            LHSGrid(GridConfig(ndim=1, nseeds=3)))


def test_run_rejects_empty_initial():
    class Empty:
        def __len__(self):
            return 0

    config = WorkflowConfig(budget=5, expansion=ExpansionConfig(nseeds=3))
    with pytest.raises(ValueError):
        run(Empty(), toy_objective, config, _fixed_emulator(),
            LHSGrid(GridConfig(ndim=1, nseeds=3)))


def test_budget_equal_to_initial_design_runs_zero_iterations():
    initial, trace = _loop(budget=6, n0=6)
    assert trace.iterations == []
    assert trace.completed == 6
    assert len(trace.evaluations) == 6
    assert all(e.iteration == 0 and not e.failed for e in trace.evaluations)
    assert trace.final_transform is not None
    assert best_observed(trace).shape == (6,)


def test_budget_is_hit_exactly():
    # 17 is not 6 plus a multiple of anything; the last batch must be trimmed
    initial, trace = _loop(budget=17)
    ok = [e for e in trace.evaluations if not e.failed]
    assert trace.completed == 17
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
    _, trace = _loop(budget=8)
    assert trace.master_seed == 0
    assert trace.budget == 8
    assert trace.initial_size == 6
    assert "master_seed" in trace.stream_derivation
    for name in COMPONENTS:
        assert name in trace.stream_derivation


def test_identical_master_seed_reproduces_the_trace_bitwise():
    _, t1 = _loop(budget=18, master_seed=42)
    _, t2 = _loop(budget=18, master_seed=42)
    key = lambda t: [(e.iteration, e.x, e.seed, e.y_raw, e.failed) for e in t.evaluations]
    assert key(t1) == key(t2)
    assert [it.grid_digest for it in t1.iterations] == [it.grid_digest for it in t2.iterations]
    assert [it.argmin_indices for it in t1.iterations] == [it.argmin_indices for it in t2.iterations]
    assert t1.final_transform == t2.final_transform


def test_different_master_seeds_diverge():
    _, t1 = _loop(budget=18, master_seed=1)
    _, t2 = _loop(budget=18, master_seed=2)
    key = lambda t: [(e.x, e.seed) for e in t.evaluations]
    assert key(t1) != key(t2)


def test_dataset_is_restandardized_after_the_run():
    initial, trace = _loop(budget=20)
    assert abs(float(np.mean(initial.y_std))) < 1e-9
    assert abs(float(np.std(initial.y_std)) - 1.0) < 1e-9
    eps, mean, std = trace.final_transform
    assert (mean, std) == (initial.transform.mean, initial.transform.std)


# ---------------------------------------------------------- fault isolation


def test_single_simulator_failure_is_logged_and_does_not_consume_budget():
    calls = {"n": 0}

    def flaky(point):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("solver diverged")
        return toy_objective(point)

    # a large fixed nugget keeps Thompson batches multi-point, so the one
    # failure shares its iteration with successes
    initial = _initial(6, 3)
    config = WorkflowConfig(
        budget=16,
        expansion=ExpansionConfig(nseeds=3),
        nTS_samp=8,
    )
    emulator = SeedKernelGP(
        ndim=1, fixed={"lengthscales": [0.3], "variance": 1.0, "nugget": 0.3}
    )
    trace = run(initial, flaky, config, emulator,
                LHSGrid(GridConfig(ndim=1, nseeds=3, ngrid=30)))
    failed = [e for e in trace.evaluations if e.failed]
    ok = [e for e in trace.evaluations if not e.failed]
    assert len(failed) == 1
    assert failed[0].y_raw is None
    assert failed[0].error == "RuntimeError: solver diverged"
    assert failed[0].iteration >= 1
    assert trace.completed == 16
    assert len(ok) == 16
    assert len(initial) == 16  # the failed point never enters the dataset
    assert sum(it.failed for it in trace.iterations) == 1


def test_non_finite_objective_is_a_failed_evaluation():
    def nan_on_seed_two(point):
        return float("nan") if point.r == 2 else toy_objective(point)

    initial = _initial(6, 3)
    config = WorkflowConfig(budget=16, expansion=ExpansionConfig(nseeds=3), nTS_samp=8)
    emulator = SeedKernelGP(
        ndim=1, fixed={"lengthscales": [0.3], "variance": 1.0, "nugget": 0.3}
    )
    trace = run(initial, nan_on_seed_two, config, emulator,
                LHSGrid(GridConfig(ndim=1, nseeds=3, ngrid=30)))
    failed = [e for e in trace.evaluations if e.failed]
    assert failed
    assert all(e.seed == 2 and e.y_raw is None for e in failed)
    assert all(e.error == "non-finite objective: nan" for e in failed)
    assert sum(it.failed for it in trace.iterations) == len(failed)
    assert trace.completed == 16
    assert len(initial) == 16
    assert np.all(np.isfinite(initial.y_raw))
    assert all(np.isfinite(v) for v in trace.final_transform)


def test_total_failure_raises_progress_error_with_partial_trace():
    def broken(point):
        raise RuntimeError("boom")

    initial = _initial(6, 3)
    config = WorkflowConfig(budget=12, expansion=ExpansionConfig(nseeds=3))
    with pytest.raises(ProgressError) as err:
        run(initial, broken, config, _fixed_emulator(),
            LHSGrid(GridConfig(ndim=1, nseeds=3, ngrid=30)))
    trace = err.value.trace
    assert trace.completed == 6
    assert trace.final_transform is not None
    assert len(trace.iterations) == 1
    assert trace.iterations[0].evaluated == 0
    assert trace.iterations[0].failed == len(trace.iterations[0].batch)
    assert all(e.failed for e in trace.evaluations if e.iteration >= 1)


# -------------------------------------------------------- expansion wiring


def _expansion_run(mode):
    master_seed = 7
    n0, k0 = 6, 2
    initial = _initial(n0, k0, master_seed)
    config = WorkflowConfig(
        budget=30,
        expansion=ExpansionConfig(nseeds=k0, nsims_expand=8, nexpansion=3),
        nTS_samp=8,
        master_seed=master_seed,
        expansion_mode=mode,
    )
    emulator = SeedKernelGP(ndim=1, nseeds=k0, nstarts=1, maxfev=60)
    strategy = LHSGrid(GridConfig(ndim=1, nseeds=k0, ngrid=30))
    return initial, run(initial, toy_objective, config, emulator, strategy), emulator


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
    _, trace, _ = _expansion_run("explore")
    assert len(trace.expansion_events) >= 2
    completed_before = {}
    done = trace.initial_size
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


# ------------------------------------------------------------ best_observed


def test_best_observed_is_a_running_minimum_of_transformed_values():
    trace = RunTrace(master_seed=0, budget=4, initial_size=3)
    for i, y in enumerate([3.0, 1.0, 2.0]):
        trace.evaluations.append(EvalRecord(iteration=0, x=(0.1,), seed=1, y_raw=y))
    trace.evaluations.insert(
        1, EvalRecord(iteration=0, x=(0.2,), seed=1, y_raw=None, failed=True, error="x")
    )
    trace.final_transform = (1e-12, 0.5, 2.0)
    got = best_observed(trace)
    z = (np.log(np.array([3.0, 1.0, 2.0]) + 1e-12) - 0.5) / 2.0
    assert np.allclose(got, np.minimum.accumulate(z), atol=1e-12)


def test_best_observed_single_value():
    trace = RunTrace(master_seed=0, budget=1, initial_size=1)
    trace.evaluations.append(EvalRecord(iteration=0, x=(0.1,), seed=1, y_raw=4.0))
    trace.final_transform = (1e-12, 0.0, 1.0)
    got = best_observed(trace)
    assert got.shape == (1,)
    assert got[0] == pytest.approx(np.log(4.0 + 1e-12))


def test_best_observed_requires_transform_and_successes():
    trace = RunTrace(master_seed=0, budget=1, initial_size=1)
    trace.evaluations.append(EvalRecord(iteration=0, x=(0.1,), seed=1, y_raw=4.0))
    with pytest.raises(ValueError):
        best_observed(trace)
    trace.final_transform = (1e-12, 0.0, 1.0)
    trace.evaluations = [
        EvalRecord(iteration=0, x=(0.1,), seed=1, y_raw=None, failed=True, error="x")
    ]
    with pytest.raises(ValueError):
        best_observed(trace)


def test_best_observed_matches_replay_from_a_real_trace():
    _, trace = _loop(budget=20)
    got = best_observed(trace)
    eps, mean, std = trace.final_transform
    t = ObjectiveTransform(epsilon=eps, mean=mean, std=std)
    raw = np.array([e.y_raw for e in trace.evaluations if not e.failed])
    assert np.array_equal(got, np.minimum.accumulate(t.apply(raw)))
    assert np.all(np.diff(got) <= 0.0)
    # monotone transform: the minimizing index agrees with the raw argmin
    assert int(np.argmin(got)) == int(np.argmin(np.minimum.accumulate(raw)))
