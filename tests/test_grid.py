"""Candidate-grid strategies: fixed, per-iteration LHS, and adaptive MH."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr as scipy_ndtr

from trajcal import grid
from trajcal.dataspace import Dataset, reflect
from trajcal.emulator import SeedKernelGP
from trajcal.errors import ProgressError
from trajcal.grid import (
    AdaptiveGrid,
    CandidateGrid,
    FixedGrid,
    LHSGrid,
    likelihood_values,
    mh_densify,
    resample_indices,
)

# standard-normal CDF values frozen from the erfc identity
PHI_MINUS_1 = 0.15865525393145707
PHI_5 = 0.9999997133484281


class StubEmulator:
    """predict_mean_var stub with a caller-chosen posterior, the same under
    every seed, returned in the seeds' shape: one id or a row of ids per point."""

    def __init__(self, mean_fn, var_fn=lambda X: np.ones(X.shape[0])):
        self.mean_fn = mean_fn
        self.var_fn = var_fn

    def predict_mean_var(self, X, seeds):
        seeds = np.asarray(seeds)
        X = np.repeat(X, seeds.size // X.shape[0], axis=0)  # one row per (point, id)
        return self.mean_fn(X).reshape(seeds.shape), self.var_fn(X).reshape(seeds.shape)


def test_config_validation():
    rng = np.random.default_rng(0)
    LHSGrid(1)
    AdaptiveGrid(1)
    FixedGrid(1, rng)
    for build in (LHSGrid, AdaptiveGrid, lambda ngrid: FixedGrid(ngrid, rng)):
        with pytest.raises(ValueError, match="ngrid must be >= 1"):
            build(0)
    # NaN passes a bare ``step <= 0`` check
    for step in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="step must be positive and finite"):
            AdaptiveGrid(10, proposal_step=step)


def test_candidate_grid_validates_domain():
    CandidateGrid(np.array([[0.5]]), np.array([1]))
    with pytest.raises(ValueError):
        CandidateGrid(np.array([[1.5]]), np.array([1]))
    with pytest.raises(ValueError):
        CandidateGrid(np.array([[0.5]]), np.array([0]))
    with pytest.raises(ValueError, match="grid coordinates must lie in"):
        CandidateGrid(np.array([[np.nan]]), np.array([1]))
    with pytest.raises(ValueError):
        CandidateGrid(np.empty((0, 1)), np.empty(0, dtype=int))


def test_candidate_grid_freezes_its_own_copies_not_the_callers_arrays():
    X, seeds = np.array([[0.2], [0.7]]), np.array([1, 2], dtype=np.int64)
    g = CandidateGrid(X, seeds)
    X[0, 0], seeds[0] = 0.9, 3  # the caller's arrays stay writable
    assert g.X.tolist() == [[0.2], [0.7]] and g.seeds.tolist() == [1, 2]
    with pytest.raises(ValueError, match="read-only"):
        g.X[0, 0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        g.seeds[0] = 2


def test_candidate_grid_rejects_fractional_seed_ids():
    with pytest.raises(ValueError, match="grid seed ids must be integers >= 1, got 2.5"):
        CandidateGrid(np.array([[0.5], [0.6]]), np.array([1.0, 2.5]))
    assert CandidateGrid(np.array([[0.5]]), np.array([2.0])).seeds.tolist() == [2]
    with pytest.raises(ValueError, match="grid seed ids must be integers >= 1, got True"):
        CandidateGrid(np.array([[0.5]]), np.array([True]))


def test_candidate_grid_rejects_seed_ids_of_another_length():
    with pytest.raises(ValueError, match="X and seeds must have the same length"):
        CandidateGrid(np.array([[0.5], [0.6]]), np.array([1]))


def test_ndtr_is_scipys():
    """The cephes port gives scipy's bits on 2.4M points over wide scales, on
    each side of every branch edge (|a| = 1, sqrt(2) and 8 sqrt(2), and the
    underflow near 37.7 and 38.5), at +-0, +-inf and NaN, and in any shape."""
    rng = np.random.default_rng(7)
    a = np.concatenate([rng.normal(0.0, scale, 300_000)
                        for scale in (0.3, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 1e3)])
    edges = np.array([1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), 37.7, 38.5, 1e160, 1e300])
    edges = np.concatenate([edges, np.linspace(36.0, 40.0, 4001)])
    edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    chunks = np.split(a, 24)  # 100k points at a time bound the temporaries
    for x in chunks + [np.concatenate([edges, -edges, special]), a[:600].reshape(20, 30)]:
        got, want = grid.ndtr(x), scipy_ndtr(x)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_likelihood_at_incumbent_is_half():
    vals = likelihood_values(np.zeros(1), np.ones(1), tau=0.0)
    assert vals[0] == pytest.approx(0.5, abs=1e-15)


def test_likelihood_five_sigma_below():
    vals = likelihood_values(np.full(1, -5.0), np.ones(1), tau=0.0)
    assert vals[0] == pytest.approx(PHI_5, abs=1e-12)


def test_likelihood_one_sigma_above():
    vals = likelihood_values(np.ones(1), np.ones(1), tau=0.0)
    assert vals[0] == pytest.approx(PHI_MINUS_1, abs=1e-12)


def test_likelihood_floors():
    # zero posterior sd hits the 1e-8 floor instead of dividing by zero
    vals = likelihood_values(np.ones(1), np.zeros(1), tau=0.0)
    assert vals[0] >= 1e-300
    vals2 = likelihood_values(np.full(1, 60.0), np.ones(1), tau=0.0)
    assert vals2[0] == 1e-300


def test_resample_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        resample_indices(np.array([]), 3, rng)
    with pytest.raises(ValueError):
        resample_indices(np.array([1.0, -0.5]), 3, rng)
    with pytest.raises(ValueError):
        resample_indices(np.array([0.0, 0.0]), 3, rng)
    with pytest.raises(ValueError):
        resample_indices(np.array([np.inf, 1.0]), 3, rng)


def test_resample_degenerate_weights():
    rng = np.random.default_rng(1)
    idx = resample_indices(np.array([0.0, 1.0, 0.0]), 50, rng)
    assert np.all(idx == 1)


def test_resample_multiplicities_match_weights():
    # lighter version of the acceptance check
    rng = np.random.default_rng(2)
    idx = resample_indices(np.array([0.2, 0.3, 0.5]), 20_000, rng)
    freqs = np.bincount(idx, minlength=3) / idx.size
    assert np.abs(freqs - np.array([0.2, 0.3, 0.5])).max() < 0.02


def test_reflect_unit_folds_into_box():
    z = np.array([-0.3, 0.4, 1.2, 2.6])
    out = reflect(z, 1.0)
    assert out is z  # in place
    assert out == pytest.approx([0.3, 0.4, 0.8, 0.6])
    assert np.array_equal(reflect(np.array([0.25]), 1.0), np.array([0.25]))


@settings(max_examples=200, deadline=None)
@given(z=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=20),
       extent=st.sampled_from([1.0, 0.5, 26.0, 37.3, 50.0]) | st.floats(1e-3, 1e3))
def test_reflect_equals_the_where_expression(z, extent):
    """In-place reflection has the bits of the whole-array expression the
    grid and the simulator each used, at the unit extent and others."""
    z = np.array(z)
    m = np.mod(z, 2.0 * extent)
    want = np.where(m > extent, 2.0 * extent - m, m)
    got = reflect(z.copy(), extent)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert ((0.0 <= got) & (got <= extent)).all()


def test_mh_densify_uniform_likelihood_accepts_first():
    k = 3
    entries = [(np.array([0.5]), 1, 1.0)]
    trials = []
    out = mh_densify(entries, lambda x: np.ones(k), nseeds=k, target=6,
                     step=0.05, rng=np.random.default_rng(3),
                     max_attempts=10_000, record=trials.append)
    assert len(out) == 6
    # alpha is 1 everywhere, so every first-seed trial is accepted
    firsts = [t for t in trials if t["seed_can"] == 1]
    assert all(t["accepted"] for t in firsts)


def test_mh_densify_alpha_formula_in_record():
    k = 2

    def lik(X):
        return np.where(X[:, :1] < 0.5, [0.2, 0.6], [0.4, 0.1])

    trials = []
    entries = [(np.array([0.3]), 1, 0.2), (np.array([0.7]), 2, 0.1)]
    mh_densify(entries, lik, nseeds=k, target=8, step=0.2,
               rng=np.random.default_rng(4), max_attempts=100_000,
               record=trials.append)
    for t in trials:
        assert t["alpha"] == pytest.approx(min(1.0, t["l_can"] / t["l_cur"]))
        assert t["accepted"] == (t["u"] < t["alpha"])


def test_mh_densify_no_duplicate_pairs():
    out = mh_densify([(np.array([0.5]), 1, 1.0)], lambda x: np.ones(2),
                     nseeds=2, target=40, step=0.05,
                     rng=np.random.default_rng(5), max_attempts=100_000)
    keys = {(x.tobytes(), r) for x, r, _ in out}
    assert len(keys) == len(out) == 40


def test_mh_densify_degenerate_surface_raises():
    # zero candidate likelihood everywhere: nothing is ever accepted
    entries = [(np.array([0.5]), 1, 1.0)]
    with pytest.raises(ProgressError):
        mh_densify(entries, lambda x: np.zeros(1), nseeds=1, target=2,
                   step=0.05, rng=np.random.default_rng(6), max_attempts=200)


def test_mh_densify_gives_up_after_exactly_max_attempts_rows():
    rows = []

    def lik(X):
        rows.append(X.shape[0])
        return np.zeros((X.shape[0], 3))

    entries = [(np.array([0.5]), 1, 1.0)]
    with pytest.raises(ProgressError):
        mh_densify(entries, lik, nseeds=3, target=50, step=0.05,
                   rng=np.random.default_rng(6), max_attempts=130)
    # rounds of 49 (the target) until the last, which the attempts left cap
    assert rows == [49, 49, 32]


def _traced_walk(nseeds=3, target=300):
    """A walk whose rounds accept some candidates and not others, with
    what each round saw: the set's size and pairs when it began, and the
    block it scored."""
    entries = [(np.array([0.5, 0.5]), 1, 0.5)]
    rounds, trials = [], []
    added = []

    def lik(X):
        rounds.append({"size": len(entries) + len(added), "X": X.copy(),
                       "keys": {(x.tobytes(), r) for x, r, _ in entries}
                       | {(t["x_can"].tobytes(), t["seed_can"]) for t in added},
                       "L": np.outer(X[:, 0] ** 2, np.arange(1, nseeds + 1) / nseeds)})
        return rounds[-1]["L"]

    def record(trial):
        trials.append(dict(trial, round=len(rounds) - 1))
        if trial["added"]:
            added.append(trial)

    out = mh_densify(entries, lik, nseeds=nseeds, target=target, step=0.2,
                     rng=np.random.default_rng(14), max_attempts=100_000, record=record)
    assert len(out) == target and len(rounds) > 2
    return rounds, trials


def test_mh_densify_rounds_never_overshoot_the_target():
    target = 300
    rounds, _ = _traced_walk(nseeds=3, target=target)
    for r in rounds:
        assert r["X"].shape[0] <= min(target - r["size"], 256 // 3)
    assert rounds[0]["X"].shape[0] == 256 // 3


def test_mh_densify_parents_existed_when_their_round_began():
    rounds, trials = _traced_walk()
    # the set grows within a round, so later candidates could see new entries
    assert max(Counter(t["round"] for t in trials if t["added"]).values()) > 1
    for t in trials:
        assert (t["x_cur"].tobytes(), t["seed_cur"]) in rounds[t["round"]]["keys"]


def test_mh_densify_records_each_trial_once_in_candidate_order():
    nseeds = 3
    rounds, trials = _traced_walk(nseeds=nseeds)
    added = {(s["round"], s["x_can"].tobytes(), s["seed_can"]) for s in trials if s["added"]}
    want = []
    for t, r in enumerate(rounds):
        for i, x in enumerate(r["X"]):
            for j in range(nseeds):
                want.append((t, x.tobytes(), j + 1, r["L"][i, j]))
                if (t, x.tobytes(), j + 1) in added:
                    break
    assert [(s["round"], s["x_can"].tobytes(), s["seed_can"], s["l_can"])
            for s in trials] == want


def _dataset(ndim=1):
    return Dataset(np.full((2, ndim), 0.5), np.array([1, 2]), np.array([2.0, 5.0]))


def test_fixed_grid_returns_same_object_every_call():
    strat = FixedGrid(3, np.random.default_rng(7))
    ds = _dataset()
    g1 = strat.sample(emulator=None, dataset=ds, nseeds=2, rng=np.random.default_rng(1),
                      previous=None)
    # later calls of a run return the previous grid, whatever the seed count
    g2 = strat.sample(emulator=None, dataset=ds, nseeds=3, rng=np.random.default_rng(2),
                      previous=g1)
    assert g1 is g2
    # a second run draws the same grid: the strategy never consumes its stream
    g3 = strat.sample(emulator=None, dataset=ds, nseeds=2, rng=np.random.default_rng(3),
                      previous=None)
    assert g3.digest() == g1.digest()


def test_fixed_grid_first_draw_is_stratified():
    strat = FixedGrid(100, np.random.default_rng(7))
    grid = strat.sample(emulator=None, dataset=_dataset(), nseeds=4,
                        rng=np.random.default_rng(8), previous=None)
    bins = np.floor(np.sort(grid.X[:, 0]) * 100).astype(int)
    assert np.minimum(bins, 99).tolist() == list(range(100))
    assert np.array_equal(grid.seeds, 1 + np.arange(100) % 4)
    # the draw is the LHSGrid draw from the strategy's own stream, in the
    # dataset's dimension
    want = LHSGrid(100).sample(emulator=None, dataset=_dataset(), nseeds=4,
                               rng=np.random.default_rng(7), previous=None)
    assert grid.digest() == want.digest()
    wide = strat.sample(emulator=None, dataset=_dataset(3), nseeds=4,
                        rng=np.random.default_rng(8), previous=None)
    assert wide.X.shape == (100, 3)


def test_lhs_grid_fresh_each_call_with_cycled_seeds():
    strat = LHSGrid(10)
    rng = np.random.default_rng(8)
    # the grid takes its dimension from the dataset
    ds = Dataset(np.array([[0.2, 0.3], [0.9, 0.1]]), np.array([1, 2]), np.array([2.0, 5.0]))
    g1 = strat.sample(emulator=None, dataset=ds, nseeds=5, rng=rng, previous=None)
    g2 = strat.sample(emulator=None, dataset=ds, nseeds=5, rng=rng, previous=g1)
    assert g1.X.shape == g2.X.shape == (10, 2)
    assert not np.array_equal(g1.X, g2.X)
    assert np.bincount(g1.seeds, minlength=6)[1:].tolist() == [2, 2, 2, 2, 2]


def _fitted_stub_setup(ngrid=30):
    em = StubEmulator(mean_fn=lambda X: (X[:, 0] - 0.4) ** 2 * 4.0)
    ds = Dataset(np.array([[0.2], [0.9]]), np.array([1, 2]), np.array([2.0, 5.0]))
    return ngrid, em, ds


def test_adaptive_grid_exact_size_and_domain():
    ngrid, em, ds = _fitted_stub_setup()
    strat = AdaptiveGrid(ngrid)
    grid = None
    for _ in range(3):
        grid = strat.sample(emulator=em, dataset=ds, nseeds=3,
                            rng=np.random.default_rng(9), previous=grid)
        assert len(grid) == 30
        assert grid.X.min() >= 0.0 and grid.X.max() <= 1.0
        assert grid.seeds.min() >= 1 and grid.seeds.max() <= 3


def test_adaptive_grid_distinct_pairs():
    ngrid, em, ds = _fitted_stub_setup()
    grid = AdaptiveGrid(ngrid).sample(emulator=em, dataset=ds, nseeds=3,
                                      rng=np.random.default_rng(10), previous=None)
    keys = {(x.tobytes(), int(r)) for x, r in zip(grid.X, grid.seeds)}
    assert len(keys) == len(grid)


def test_adaptive_grid_reuse_switch():
    ngrid, em, ds = _fitted_stub_setup()

    def digest(strat, previous):
        return strat.sample(emulator=em, dataset=ds, nseeds=3,
                            rng=np.random.default_rng(12), previous=previous).digest()

    g1 = AdaptiveGrid(ngrid).sample(emulator=em, dataset=ds, nseeds=3,
                                    rng=np.random.default_rng(11), previous=None)
    reusing = AdaptiveGrid(ngrid, reuse_previous=True)
    fresh = AdaptiveGrid(ngrid, reuse_previous=False)
    # with reuse on the call refines the previous grid; with it off the call
    # starts from a fresh LHS, as a run's first call does
    assert digest(reusing, g1) != digest(reusing, None)
    assert digest(fresh, g1) == digest(fresh, None) == digest(reusing, None)


def test_adaptive_grid_concentrates_near_minimum():
    """Low predicted mean near x=0.4 should attract candidates there."""
    ngrid, em, ds = _fitted_stub_setup(ngrid=60)
    strat = AdaptiveGrid(ngrid)
    rng = np.random.default_rng(13)
    grid = None
    for _ in range(6):
        grid = strat.sample(emulator=em, dataset=ds, nseeds=3, rng=rng, previous=grid)
    near = np.abs(grid.X[:, 0] - 0.4) < 0.2
    assert near.mean() > 0.5


def test_grid_digest_tracks_content():
    g1 = CandidateGrid(np.array([[0.1]]), np.array([1]))
    g2 = CandidateGrid(np.array([[0.1]]), np.array([1]))
    g3 = CandidateGrid(np.array([[0.2]]), np.array([1]))
    assert g1.digest() == g2.digest()
    assert g1.digest() != g3.digest()


@settings(max_examples=120, deadline=None)
@given(family=st.sampled_from(["matern52", "rbf"]),
       rank=st.sampled_from([None, 1, 2, 3]),
       per_seed_v=st.booleans(),
       fixed_kernel=st.booleans(),
       nseeds=st.integers(min_value=3, max_value=6),
       ndim=st.integers(min_value=1, max_value=3),
       n=st.integers(min_value=2, max_value=40),
       data_seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_seedwise_likelihood_equals_tiled_likelihood_values(
        family, rank, per_seed_v, fixed_kernel, nseeds, ndim, n, data_seed):
    """A row of seed ids per point gives, bitwise, the means, variances and
    likelihoods of each point repeated once per id, for blocks of 1-5 points
    under ids 1..k (the MH walk's rows), rows with repeated ids in any order,
    and a single column; for a fitted kernel and for a fixed one with its
    nugget pinned at 1e-6.  Without a seed space the ids change nothing."""
    rng = np.random.default_rng(data_seed)
    fixed = None
    if fixed_kernel:
        fixed = {"lengthscales": rng.uniform(0.05, 1.0, ndim),
                 "variance": float(rng.uniform(0.5, 2.0)), "nugget": 1e-6}
        if rank is not None:
            fixed.update(B=rng.normal(size=(nseeds, rank)), v=rng.uniform(0.0, 0.5, nseeds))
    em = SeedKernelGP(ndim=ndim, nseeds=None if rank is None else nseeds, rank=rank,
                      family=family, per_seed_v=per_seed_v, nstarts=1, maxfev=20,
                      fixed=fixed)
    X, seeds = rng.random((n, ndim)), rng.integers(1, nseeds + 1, size=n)
    em.fit(X, seeds, rng.normal(size=n), rng=np.random.default_rng(data_seed))
    for m in range(1, 6):
        X, k, tau = rng.random((m, ndim)), int(rng.integers(1, nseeds + 1)), rng.normal()
        for rows in (np.broadcast_to(np.arange(1, k + 1), (m, k)),
                     rng.integers(1, nseeds + 1, size=(m, nseeds + 2)),
                     rng.integers(1, nseeds + 1, size=(m, 1))):
            j = rows.shape[1]
            mean, var = em.predict_mean_var(X, rows)
            assert mean.shape == var.shape == (m, j)
            mean_t, var_t = em.predict_mean_var(np.repeat(X, j, axis=0), rows.ravel())
            assert np.array_equal(likelihood_values(mean, var, tau).ravel(),
                                  likelihood_values(mean_t, var_t, tau))
            assert mean.tobytes() == mean_t.tobytes() and var.tobytes() == var_t.tobytes()


def test_predict_mean_var_checks_the_seed_range():
    em = SeedKernelGP(ndim=1, nseeds=3, fixed={"lengthscales": [0.5], "variance": 1.0,
                                               "B": np.eye(3), "v": np.zeros(3)})
    em.fit(np.array([[0.2], [0.7]]), np.array([1, 3]), np.array([0.1, -0.2]), rng=np.random.default_rng())
    for seeds in ([4], [0], [[1, 2, 3, 4]], [[0, 1]], [[1.0, 2.0]]):
        with pytest.raises(ValueError, match=r"integer seed id in 1\.\.3"):
            em.predict_mean_var(np.array([0.5]), np.array(seeds))
    assert em.predict_mean_var(np.array([0.5]), np.array([[3, 1, 3]]))[0].shape == (1, 3)


def test_predict_mean_var_checks_the_input_shapes():
    em = SeedKernelGP(ndim=2, nseeds=2, fixed={"lengthscales": [0.5, 0.5], "variance": 1.0,
                                               "B": np.eye(2), "v": np.zeros(2)})
    em.fit(np.array([[0.2, 0.3], [0.7, 0.6]]), np.array([1, 2]), np.array([0.1, -0.2]),
           rng=np.random.default_rng())
    rows = np.broadcast_to(np.arange(1, 3), (4, 2))
    with pytest.raises(ValueError, match="expected 2 coordinate columns, got 1"):
        em.predict_mean_var(np.array([0.5]), np.array([[1, 2]]))
    with pytest.raises(ValueError, match="expected 2 coordinate columns, got 3"):
        em.predict_mean_var(np.full((4, 3), 0.5), rows)
    # a row count other than the points', and ids in three dimensions
    for seeds in (rows[:3], np.ones(5, dtype=int), np.ones((4, 2, 1), dtype=int)):
        with pytest.raises(ValueError, match="one row of seed ids, per point"):
            em.predict_mean_var(np.full((4, 2), 0.5), seeds)
    assert em.predict_mean_var(np.full((4, 2), 0.5), rows)[0].shape == (4, 2)
    assert em.predict_mean_var(np.full((4, 2), 0.5), rows[:, 0])[1].shape == (4,)
