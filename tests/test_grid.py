"""Candidate-grid strategies: fixed, per-iteration LHS, and adaptive MH."""

import numpy as np
import pytest

from trajcal.dataspace import Dataset
from trajcal.errors import ProgressError
from trajcal.grid import (
    AdaptiveGrid,
    CandidateGrid,
    FixedGrid,
    GridConfig,
    LHSGrid,
    ProposalParams,
    _reflect_unit,
    likelihood_values,
    mh_densify,
    resample_indices,
)

# standard-normal CDF values frozen from the erfc identity
PHI_MINUS_1 = 0.15865525393145707
PHI_5 = 0.9999997133484281


class StubEmulator:
    """predict_mean_var stub with a caller-chosen posterior."""

    def __init__(self, mean_fn, var_fn=lambda X: np.ones(X.shape[0])):
        self.mean_fn = mean_fn
        self.var_fn = var_fn

    def predict_mean_var(self, joint):
        return self.mean_fn(joint), self.var_fn(joint)


def test_config_validation():
    GridConfig(ndim=1, nseeds=1, ngrid=1)
    with pytest.raises(ValueError):
        GridConfig(ndim=0, nseeds=1)
    with pytest.raises(ValueError):
        GridConfig(ndim=1, nseeds=1, ngrid=0)
    with pytest.raises(ValueError):
        ProposalParams(step=0.0)


def test_candidate_grid_validates_domain():
    CandidateGrid(np.array([[0.5]]), np.array([1]))
    with pytest.raises(ValueError):
        CandidateGrid(np.array([[1.5]]), np.array([1]))
    with pytest.raises(ValueError):
        CandidateGrid(np.array([[0.5]]), np.array([0]))
    with pytest.raises(ValueError):
        CandidateGrid(np.empty((0, 1)), np.empty(0, dtype=int))


def test_likelihood_at_incumbent_is_half():
    em = StubEmulator(mean_fn=lambda X: np.zeros(X.shape[0]))
    vals = likelihood_values(np.array([[0.5]]), np.array([1]), em, tau=0.0)
    assert vals[0] == pytest.approx(0.5, abs=1e-15)


def test_likelihood_five_sigma_below():
    em = StubEmulator(mean_fn=lambda X: np.full(X.shape[0], -5.0))
    vals = likelihood_values(np.array([[0.5]]), np.array([1]), em, tau=0.0)
    assert vals[0] == pytest.approx(PHI_5, abs=1e-12)


def test_likelihood_one_sigma_above():
    em = StubEmulator(mean_fn=lambda X: np.ones(X.shape[0]))
    vals = likelihood_values(np.array([[0.5]]), np.array([1]), em, tau=0.0)
    assert vals[0] == pytest.approx(PHI_MINUS_1, abs=1e-12)


def test_likelihood_floors():
    # zero posterior sd hits the 1e-8 floor instead of dividing by zero
    em = StubEmulator(mean_fn=lambda X: np.ones(X.shape[0]),
                      var_fn=lambda X: np.zeros(X.shape[0]))
    vals = likelihood_values(np.array([[0.5]]), np.array([1]), em, tau=0.0)
    assert vals[0] >= 1e-300
    em2 = StubEmulator(mean_fn=lambda X: np.full(X.shape[0], 60.0))
    vals2 = likelihood_values(np.array([[0.5]]), np.array([1]), em2, tau=0.0)
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
    out = _reflect_unit(z)
    assert out == pytest.approx([0.3, 0.4, 0.8, 0.6])
    assert np.array_equal(_reflect_unit(np.array([0.25])), np.array([0.25]))


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

    def lik(x):
        return np.array([0.2, 0.6]) if x[0] < 0.5 else np.array([0.4, 0.1])

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


def test_fixed_grid_returns_same_object_every_call():
    grid = CandidateGrid(np.array([[0.1], [0.5], [0.9]]), np.array([1, 2, 1]))
    strat = FixedGrid(grid)
    g1 = strat.sample()
    g2 = strat.sample()
    assert g1 is g2
    assert np.array_equal(g1.X, grid.X)
    assert np.array_equal(g1.seeds, grid.seeds)


def test_fixed_grid_from_lhs_stratified():
    cfg = GridConfig(ndim=1, nseeds=4, ngrid=100)
    strat = FixedGrid.from_lhs(cfg, np.random.default_rng(7))
    grid = strat.sample()
    bins = np.floor(np.sort(grid.X[:, 0]) * 100).astype(int)
    assert np.minimum(bins, 99).tolist() == list(range(100))
    assert np.array_equal(grid.seeds, 1 + np.arange(100) % 4)


def test_lhs_grid_fresh_each_call_with_cycled_seeds():
    cfg = GridConfig(ndim=2, nseeds=5, ngrid=10)
    strat = LHSGrid(cfg)
    rng = np.random.default_rng(8)
    g1 = strat.sample(rng=rng)
    g2 = strat.sample(rng=rng)
    assert not np.array_equal(g1.X, g2.X)
    assert np.bincount(g1.seeds, minlength=6)[1:].tolist() == [2, 2, 2, 2, 2]


def _fitted_stub_setup(ngrid=30, nseeds=3):
    cfg = GridConfig(ndim=1, nseeds=nseeds, ngrid=ngrid)
    em = StubEmulator(mean_fn=lambda J: (J[:, 0] - 0.4) ** 2 * 4.0)
    ds = Dataset(np.array([[0.2], [0.9]]), np.array([1, 2]), np.array([2.0, 5.0]))
    return cfg, em, ds


def test_adaptive_grid_exact_size_and_domain():
    cfg, em, ds = _fitted_stub_setup()
    strat = AdaptiveGrid(cfg)
    for _ in range(3):
        grid = strat.sample(emulator=em, dataset=ds, nseeds=3,
                            rng=np.random.default_rng(9))
        assert len(grid) == 30
        assert grid.X.min() >= 0.0 and grid.X.max() <= 1.0
        assert grid.seeds.min() >= 1 and grid.seeds.max() <= 3


def test_adaptive_grid_distinct_pairs():
    cfg, em, ds = _fitted_stub_setup()
    grid = AdaptiveGrid(cfg).sample(emulator=em, dataset=ds, nseeds=3,
                                    rng=np.random.default_rng(10))
    keys = {(x.tobytes(), int(r)) for x, r in zip(grid.X, grid.seeds)}
    assert len(keys) == len(grid)


def test_adaptive_grid_reuse_switch():
    cfg, em, ds = _fitted_stub_setup()
    reusing = AdaptiveGrid(cfg, reuse_previous=True)
    g1 = reusing.sample(emulator=em, dataset=ds, nseeds=3,
                        rng=np.random.default_rng(11))
    assert reusing._previous is g1
    fresh = AdaptiveGrid(cfg, reuse_previous=False)
    fresh.sample(emulator=em, dataset=ds, nseeds=3, rng=np.random.default_rng(11))
    # with reuse off the second call must not start from the stored grid
    g2 = fresh.sample(emulator=em, dataset=ds, nseeds=3,
                      rng=np.random.default_rng(12))
    assert len(g2) == 30


def test_adaptive_grid_concentrates_near_minimum():
    """Low predicted mean near x=0.4 should attract candidates there."""
    cfg, em, ds = _fitted_stub_setup(ngrid=60)
    strat = AdaptiveGrid(cfg)
    rng = np.random.default_rng(13)
    grid = None
    for _ in range(6):
        grid = strat.sample(emulator=em, dataset=ds, nseeds=3, rng=rng)
    near = np.abs(grid.X[:, 0] - 0.4) < 0.2
    assert near.mean() > 0.5


def test_grid_digest_tracks_content():
    g1 = CandidateGrid(np.array([[0.1]]), np.array([1]))
    g2 = CandidateGrid(np.array([[0.1]]), np.array([1]))
    g3 = CandidateGrid(np.array([[0.2]]), np.array([1]))
    assert g1.digest() == g2.digest()
    assert g1.digest() != g3.digest()
