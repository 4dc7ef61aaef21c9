"""Seed-space growth policies and expansion sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajcal.dataspace import Dataset
from trajcal.emulator import SeedKernelGP
from trajcal.expansion import (
    ExpansionConfig,
    check_for_expansion,
    expand,
    reseed_incumbents,
    sample_from_expansion,
)
from trajcal.grid import CandidateGrid, LHSGrid
from trajcal.simulator import toy_objective
from trajcal.workflow import WorkflowConfig, run


def test_config_validation():
    ExpansionConfig(nseeds=5)
    with pytest.raises(ValueError):
        ExpansionConfig(nseeds=0)
    with pytest.raises(ValueError):
        ExpansionConfig(nseeds=5, nexpansion=-1)
    with pytest.raises(ValueError):
        ExpansionConfig(nseeds=5, policy="sometimes")
    with pytest.raises(ValueError):
        ExpansionConfig(nseeds=5, policy="by-prob")  # p missing
    with pytest.raises(ValueError):
        ExpansionConfig(nseeds=5, policy="by-prob", p=1.5)
    with pytest.raises(ValueError):
        ExpansionConfig(nseeds=5, policy="by-sims", nsims_expand=0)
    # what the config file rejects, under either policy
    with pytest.raises(ValueError, match="p must lie in"):
        ExpansionConfig(nseeds=1, p=5.0)
    with pytest.raises(ValueError, match="p must lie in"):
        ExpansionConfig(nseeds=1, policy="by-prob", p=-0.1)
    with pytest.raises(ValueError, match="nsims_expand must be >= 1"):
        ExpansionConfig(nseeds=1, policy="by-prob", p=0.5, nsims_expand=0)
    with pytest.raises(ValueError, match="sample_mode must be one of"):
        ExpansionConfig(nseeds=5, sample_mode="greedy")


def test_by_sims_threshold():
    cfg = ExpansionConfig(nseeds=5, policy="by-sims", nsims_expand=50)
    rng = np.random.default_rng(0)
    assert check_for_expansion(cfg, 50, 0, rng)
    assert not check_for_expansion(cfg, 49, 0, rng)


def test_by_prob_degenerate():
    rng = np.random.default_rng(1)
    never = ExpansionConfig(nseeds=5, policy="by-prob", p=0.0)
    always = ExpansionConfig(nseeds=5, policy="by-prob", p=1.0)
    # the completed count does not matter to by-prob
    assert not any(check_for_expansion(never, 10**6, 0, rng) for _ in range(100))
    assert all(check_for_expansion(always, 0, 0, rng) for _ in range(100))


def test_expand_contiguous_ids():
    cfg = ExpansionConfig(nseeds=5, nsims_expand=50)
    assert expand(cfg, 0) == 6
    assert expand(cfg, 1) == 7

    big = ExpansionConfig(nseeds=35, nsims_expand=50)
    assert expand(big, 0) == 36

    # a run's trace lists every (iteration, new seed id) event once, in order
    cfg = ExpansionConfig(nseeds=5, nsims_expand=4, nexpansion=2)
    emulator = SeedKernelGP(ndim=1, fixed={"lengthscales": [0.3], "variance": 1.0})
    _, trace = run(toy_objective,
                   WorkflowConfig(budget=20, initial_design=4, expansion=cfg, nTS_samp=4),
                   emulator, LHSGrid(ngrid=20))
    assert len(trace.expansion_events) >= 2
    assert [k for _, k in trace.expansion_events] == list(range(6, 6 + len(trace.expansion_events)))
    with pytest.raises(AttributeError):  # read from the iteration records, not set
        trace.expansion_events = []


def test_expand_carries_counter_overshoot():
    # overshoot past the interval is kept, so triggers stay aligned to
    # absolute completed counts: 53 completed fire the first expansion and
    # leave 3 toward the second, which fires at 100, not at 103
    cfg = ExpansionConfig(nseeds=3, policy="by-sims", nsims_expand=50)
    rng = np.random.default_rng(2)
    assert check_for_expansion(cfg, 53, 0, rng)
    assert not check_for_expansion(cfg, 99, 1, rng)
    assert check_for_expansion(cfg, 100, 1, rng)
    # a backlog carries over: at 120 completed with one expansion made, the
    # second is due and the third is not
    assert check_for_expansion(cfg, 120, 1, rng)
    assert not check_for_expansion(cfg, 120, 2, rng)


def test_start_seeds_counter_with_completed():
    # the initial design counts toward the first trigger
    cfg = ExpansionConfig(nseeds=4, nsims_expand=50)
    assert check_for_expansion(cfg, 50, 0, np.random.default_rng(3))
    assert expand(cfg, 0) == 5


def _reference_fires(n0, nsims_expand, batches):
    """The by-sims rule as a counter kept beside the run: it starts at the
    initial successes, adds each batch's successes and subtracts
    ``nsims_expand`` at each expansion.  Returns the iterations that fire."""
    counter, fired = n0, []
    for iteration, successes in enumerate(batches, start=1):
        if counter >= nsims_expand:
            counter = max(0, counter - nsims_expand)
            fired.append(iteration)
        counter += successes
    return fired


@settings(max_examples=300, deadline=None)
@given(n0=st.integers(2, 39), nsims_expand=st.integers(1, 11), nseeds=st.integers(1, 4),
       batches=st.lists(st.integers(1, 8), min_size=1, max_size=30))
def test_by_sims_fires_where_the_counter_fired(n0, nsims_expand, nseeds, batches):
    """The closed form on the dataset's length and the expansions so far
    fires on exactly the iterations where a running counter fired, and the
    ids it names count up from ``nseeds + 1``."""
    cfg = ExpansionConfig(nseeds=nseeds, nsims_expand=nsims_expand)
    rng = np.random.default_rng(0)
    completed, new_seeds, fired = n0, [], []
    for iteration, successes in enumerate(batches, start=1):
        if check_for_expansion(cfg, completed, len(new_seeds), rng):
            new_seeds.append(expand(cfg, len(new_seeds)))
            fired.append(iteration)
        completed += successes
    assert fired == _reference_fires(n0, nsims_expand, batches)
    assert new_seeds == list(range(nseeds + 1, nseeds + 1 + len(fired)))


def _grid(m=20):
    rng = np.random.default_rng(4)
    return CandidateGrid(rng.uniform(0, 1, size=(m, 1)),
                         1 + np.arange(m, dtype=np.int64) % 3)


def test_sample_from_expansion_stamps_new_seed():
    grid = _grid()
    pts = sample_from_expansion(grid, 10, new_seed=4, rng=np.random.default_rng(5))
    assert len(pts) == 10
    assert all(p.r == 4 for p in pts)
    grid_rows = {tuple(row) for row in grid.X}
    assert all(tuple(p.x) in grid_rows for p in pts)


def test_sample_from_expansion_without_replacement():
    grid = _grid(m=12)
    pts = sample_from_expansion(grid, 12, new_seed=4, rng=np.random.default_rng(6))
    assert len({tuple(p.x) for p in pts}) == 12


def test_sample_from_expansion_takes_each_point_once_when_oversized():
    # a batch never re-runs an (x, new seed) pair: the 3-point grid gives 3
    grid = _grid(m=3)
    pts = sample_from_expansion(grid, 7, new_seed=4, rng=np.random.default_rng(7))
    assert sorted(tuple(p.x) for p in pts) == sorted(tuple(row) for row in grid.X)
    assert all(p.r == 4 for p in pts)


def test_sample_from_expansion_edge_cases():
    grid = _grid()
    assert sample_from_expansion(grid, 0, 4, np.random.default_rng(8)) == []
    with pytest.raises(ValueError):
        sample_from_expansion(grid, -1, 4, np.random.default_rng(8))


def test_reseed_incumbents_picks_best_distinct():
    X = np.array([[0.1], [0.5], [0.1], [0.9]])
    ds = Dataset(X, np.array([1, 1, 2, 2]), np.array([5.0, 1.0, 3.0, 50.0]))
    pts = reseed_incumbents(ds, 2, new_seed=3)
    assert all(p.r == 3 for p in pts)
    # best transformed value is at x=0.5, then x=0.1 (its duplicate skipped)
    assert pts[0].x[0] == pytest.approx(0.5)
    assert pts[1].x[0] == pytest.approx(0.1)
    assert len(reseed_incumbents(ds, 10, new_seed=3)) == 3  # only 3 distinct x
    assert reseed_incumbents(ds, 0, new_seed=3) == []
    with pytest.raises(ValueError, match="nexpansion must be >= 0"):
        reseed_incumbents(ds, -1, new_seed=3)
