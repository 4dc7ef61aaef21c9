"""The GP emulator: fitting, prediction, sampling, seed growth, seedless mode."""

import math

import numpy as np
import pytest

from trajcal.emulator import SeedKernelGP, draw_mvn
from trajcal.errors import NotFittedError


def _smooth_1d(n, rng, noise=0.0):
    X = rng.uniform(0.0, 1.0, size=(n, 1))
    Y = np.sin(6.0 * X[:, 0]) * 0.8
    if noise:
        Y = Y + noise * rng.normal(size=n)
    return X, Y


def test_fit_rejects_single_point():
    em = SeedKernelGP(ndim=1)
    with pytest.raises(ValueError):
        em.fit(np.array([[0.5]]), np.array([1.0]))


def test_predict_before_fit_raises():
    em = SeedKernelGP(ndim=1)
    with pytest.raises(NotFittedError):
        em.predict_mean_var(np.array([[0.5]]))
    with pytest.raises(NotFittedError):
        em._posterior(np.array([[0.5]]))
    with pytest.raises(NotFittedError):
        em.sample(np.array([[0.5]]))


def test_fit_deterministic_given_stream():
    rng = np.random.default_rng(0)
    X, Y = _smooth_1d(12, rng, noise=0.1)
    a = SeedKernelGP(ndim=1, rng=np.random.default_rng(42))
    b = SeedKernelGP(ndim=1, rng=np.random.default_rng(42))
    a.fit(X, Y)
    b.fit(X, Y)
    assert np.array_equal(a._packed, b._packed)
    assert a.lml == b.lml


def test_fixed_params_lml_matches_hand_solve():
    """n=2 with a pinned kernel: LML equals the closed form via an explicit
    2x2 inverse, no Cholesky involved."""
    g = 0.1
    em = SeedKernelGP(
        ndim=1, fixed={"lengthscales": [0.5], "variance": 1.0, "nugget": g}
    )
    X = np.array([[0.2], [0.7]])
    Y = np.array([0.3, -0.4])
    em.fit(X, Y)

    s5 = math.sqrt(5.0)
    k12 = (1.0 + s5 + 5.0 / 3.0) * math.exp(-s5)  # scaled distance is exactly 1
    a, b = 1.0 + g, k12
    det = a * a - b * b
    inv = np.array([[a, -b], [-b, a]]) / det
    quad = float(Y @ inv @ Y)
    expected = -0.5 * quad - 0.5 * math.log(det) - math.log(2.0 * math.pi)
    assert em.lml == pytest.approx(expected, abs=1e-10)


def test_interpolation_at_training_points():
    rng = np.random.default_rng(1)
    X, Y = _smooth_1d(8, rng)
    em = SeedKernelGP(ndim=1, rng=np.random.default_rng(2))
    em.fit(X, Y)
    mean, var = em.predict_mean_var(X)
    assert np.abs(mean - Y).max() < 1e-5
    assert var.max() <= 1e-6


def test_single_informative_point_prediction():
    """With orthogonal seed rows the second training point is invisible to
    seed 1, so the prediction reduces to the hand-solved 1x1 system."""
    g = 0.01
    fixed = {
        "lengthscales": [0.5],
        "variance": 2.0,
        "B": np.eye(2),
        "v": [0.0, 0.0],
        "nugget": g,
    }
    em = SeedKernelGP(ndim=1, nseeds=2, fixed=fixed)
    X = np.array([[0.3, 1.0], [0.8, 2.0]])
    Y = np.array([1.5, -0.7])
    em.fit(X, Y)
    xstar = np.array([[0.45, 1.0]])
    mean, _ = em.predict_mean_var(xstar)

    s5 = math.sqrt(5.0)
    s = abs(0.45 - 0.3) / 0.5
    kxs = 2.0 * (1.0 + s5 * s + 5.0 * s * s / 3.0) * math.exp(-s5 * s)
    k11 = 2.0
    assert mean[0] == pytest.approx(kxs / (k11 + g) * 1.5, abs=1e-10)


def test_far_prediction_reverts_to_prior():
    fixed = {"lengthscales": [0.05], "variance": 1.0, "nugget": 1e-8}
    em = SeedKernelGP(ndim=1, fixed=fixed)
    X = np.array([[0.0], [0.02], [0.05]])
    Y = np.array([0.5, 0.4, 0.6])
    em.fit(X, Y)
    mean, var = em.predict_mean_var(np.array([[1.0]]))  # 19 lengthscales away
    assert abs(mean[0]) <= 1e-3
    assert abs(var[0] - 1.0) <= 1e-3


def test_posterior_summary_shape_and_symmetry():
    rng = np.random.default_rng(3)
    X, Y = _smooth_1d(10, rng, noise=0.05)
    em = SeedKernelGP(ndim=1, rng=np.random.default_rng(4))
    em.fit(X, Y)
    grid = np.linspace(0, 1, 7)[:, None]
    mean, cov = em._posterior(grid)
    assert mean.shape == (7,)
    assert cov.shape == (7, 7)
    assert np.abs(cov - cov.T).max() <= 1e-12
    assert cov.diagonal().min() >= -1e-10
    # the pointwise path agrees with the joint one
    mean_pw, var_pw = em.predict_mean_var(grid)
    assert np.array_equal(mean_pw, mean)
    assert np.abs(var_pw - cov.diagonal()).max() <= 1e-12


def test_posterior_variance_below_prior():
    rng = np.random.default_rng(5)
    X, Y = _smooth_1d(15, rng, noise=0.1)
    em = SeedKernelGP(ndim=1, rng=np.random.default_rng(6))
    em.fit(X, Y)
    grid = np.linspace(0, 1, 50)[:, None]
    _, var = em.predict_mean_var(grid)
    assert var.max() <= em.kernel.continuous.variance + 1e-10


def test_mean_linearity_in_targets():
    fixed = {"lengthscales": [0.4], "variance": 1.0, "nugget": 0.05}
    X = np.random.default_rng(7).uniform(0, 1, size=(9, 1))
    rng = np.random.default_rng(8)
    Y1 = rng.normal(size=9)
    Y2 = rng.normal(size=9)
    grid = np.linspace(0, 1, 11)[:, None]

    def mean_for(y):
        em = SeedKernelGP(ndim=1, fixed=fixed)
        em.fit(X, y)
        return em.predict_mean_var(grid)[0]

    a, b = 0.7, -1.3
    combo = mean_for(a * Y1 + b * Y2)
    assert np.abs(combo - (a * mean_for(Y1) + b * mean_for(Y2))).max() <= 1e-10


def test_baseline_ignores_seed_column():
    rng = np.random.default_rng(9)
    X, Y = _smooth_1d(10, rng, noise=0.05)
    seeds = rng.integers(1, 5, size=10).astype(float)
    joint = np.column_stack([X, seeds])
    shuffled = np.column_stack([X, np.roll(seeds, 3)])
    a = SeedKernelGP(ndim=1, rng=np.random.default_rng(10))
    b = SeedKernelGP(ndim=1, rng=np.random.default_rng(10))
    a.fit(joint, Y)
    b.fit(shuffled, Y)
    grid = np.linspace(0, 1, 9)[:, None]
    assert np.array_equal(a.predict_mean_var(grid)[0], b.predict_mean_var(grid)[0])


def test_seed_gp_relabeling_invariance():
    """Permuting seed ids together with B's rows and v leaves predictions
    unchanged."""
    rng = np.random.default_rng(11)
    B = rng.normal(size=(3, 2))
    v = rng.uniform(0.0, 0.5, size=3)
    perm = np.array([2, 0, 1])  # new id of old seed i+1 is perm[i]+1

    def build(Bm, vm):
        return SeedKernelGP(
            ndim=1, nseeds=3,
            fixed={"lengthscales": [0.5], "variance": 1.0, "B": Bm, "v": vm,
                   "nugget": 0.01},
        )

    X = rng.uniform(0, 1, size=(12, 1))
    seeds = rng.integers(1, 4, size=12)
    Y = rng.normal(size=12)

    em1 = build(B, v)
    em1.fit(np.column_stack([X, seeds]), Y)

    inv = np.argsort(perm)
    em2 = build(B[inv], v[inv])
    em2.fit(np.column_stack([X, perm[seeds - 1] + 1]), Y)

    grid = np.column_stack([np.linspace(0, 1, 6), np.full(6, 2.0)])
    grid_perm = grid.copy()
    grid_perm[:, 1] = perm[1] + 1
    mean1, _ = em1.predict_mean_var(grid)
    mean2, _ = em2.predict_mean_var(grid_perm)
    assert np.abs(mean1 - mean2).max() <= 1e-10


def test_lml_gradient_small_at_interior_optimum():
    # noisy targets keep the optimum away from the nugget floor, where the
    # marginal likelihood is well conditioned enough for finite differences
    rng = np.random.default_rng(0)
    X, Y = _smooth_1d(25, rng, noise=0.3)
    em = SeedKernelGP(ndim=1, rng=np.random.default_rng(5))
    em.fit(X, Y)
    lo, hi = em._pack_bounds()
    x = em._packed
    h = 1e-5
    for i in range(x.shape[0]):
        if x[i] <= lo[i] + 1e-9 or x[i] >= hi[i] - 1e-9:
            continue
        p1, p2 = x.copy(), x.copy()
        p1[i] += h
        p2[i] -= h
        grad = (em._neg_lml(p1) - em._neg_lml(p2)) / (2 * h)
        assert abs(grad) <= 1e-3


def test_sample_deterministic_given_rng():
    rng = np.random.default_rng(12)
    X, Y = _smooth_1d(8, rng, noise=0.05)
    em = SeedKernelGP(ndim=1, rng=np.random.default_rng(13))
    em.fit(X, Y)
    grid = np.linspace(0, 1, 5)[:, None]
    d1 = em.sample(grid, size=3, rng=np.random.default_rng(99))
    d2 = em.sample(grid, size=3, rng=np.random.default_rng(99))
    assert np.array_equal(d1, d2)
    assert d1.shape == (3, 5)


def test_sample_degenerate_covariance_collapses():
    # many repeats of one observation: posterior variance ~ nugget / count
    em = SeedKernelGP(
        ndim=1, fixed={"lengthscales": [0.5], "variance": 1.0, "nugget": 1e-8}
    )
    X = np.full((60, 1), 0.3)
    Y = np.full(60, 0.7)
    em.fit(X, Y)
    mu, _ = em.predict_mean_var(np.array([[0.3]]))
    draws = em.sample(np.array([[0.3]]), size=50, rng=np.random.default_rng(14))
    assert np.abs(draws - mu).max() <= 1e-4


def test_draw_mvn_zero_covariance():
    mean = np.array([1.0, -2.0])
    draws = draw_mvn(mean, np.zeros((2, 2)), 5, np.random.default_rng(0))
    assert np.abs(draws - mean).max() <= 1e-4


def test_sample_moments_match_posterior():
    rng = np.random.default_rng(15)
    X, Y = _smooth_1d(10, rng, noise=0.1)
    em = SeedKernelGP(ndim=1, rng=np.random.default_rng(16))
    em.fit(X, Y)
    grid = np.linspace(0.1, 0.9, 4)[:, None]
    mean, cov = em._posterior(grid)
    draws = em.sample(grid, size=20_000, rng=np.random.default_rng(17))
    se = np.sqrt(cov.diagonal() / draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - mean) <= 4.5 * se)


def test_seed_gp_validates_seed_column():
    em = SeedKernelGP(ndim=1, nseeds=3)
    X = np.array([[0.1, 1.0], [0.5, 5.0]])  # seed 5 out of range
    with pytest.raises(ValueError):
        em.fit(X, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        em.fit(np.array([[0.1, 1.5], [0.5, 2.0]]), np.array([0.0, 1.0]))


def test_seed_gp_fits_and_predicts_across_seeds():
    rng = np.random.default_rng(18)
    n = 24
    X = rng.uniform(0, 1, size=(n, 1))
    seeds = 1 + (np.arange(n) % 3)
    Y = np.sin(5 * X[:, 0]) + 0.05 * seeds
    em = SeedKernelGP(ndim=1, nseeds=3, rng=np.random.default_rng(19))
    em.fit(np.column_stack([X, seeds]), Y)
    grid = np.column_stack([np.linspace(0, 1, 8), np.ones(8)])
    mean, var = em.predict_mean_var(grid)
    assert mean.shape == (8,)
    assert np.all(var >= -1e-10)


def test_seed_gp_rank_one_and_per_seed_v():
    rng = np.random.default_rng(20)
    n = 18
    X = rng.uniform(0, 1, size=(n, 1))
    seeds = 1 + (np.arange(n) % 3)
    Y = rng.normal(size=n)
    for kwargs in ({"rank": 1}, {"per_seed_v": True}, {"rank": 3}):
        em = SeedKernelGP(ndim=1, nseeds=3, rng=np.random.default_rng(21), **kwargs)
        em.fit(np.column_stack([X, seeds]), Y)
        mean, _ = em.predict_mean_var(np.array([[0.5, 2.0]]))
        assert np.isfinite(mean[0])


def test_expand_seed_space_grows_then_requires_refit():
    rng = np.random.default_rng(22)
    n = 15
    X = rng.uniform(0, 1, size=(n, 1))
    seeds = 1 + (np.arange(n) % 3)
    Y = rng.normal(size=n)
    em = SeedKernelGP(ndim=1, nseeds=3, rng=np.random.default_rng(23))
    em.fit(np.column_stack([X, seeds]), Y)
    em.expand_seed_space(4)
    assert em.nseeds == 4
    with pytest.raises(NotFittedError):
        em.predict_mean_var(np.array([[0.5, 4.0]]))
    joint = np.vstack([np.column_stack([X, seeds]), [[0.5, 4.0]]])
    em.fit(joint, np.append(Y, 0.1))
    mean, _ = em.predict_mean_var(np.array([[0.5, 4.0]]))
    assert np.isfinite(mean[0])


def test_seedless_gp_packs_no_seed_parameters():
    """Without a seed space the packed vector is [log ls, log var, log nugget],
    any seed column is dropped unchecked, and expansion changes nothing."""
    rng = np.random.default_rng(32)
    X, Y = _smooth_1d(10, rng, noise=0.05)
    em = SeedKernelGP(ndim=1, rng=np.random.default_rng(33))
    lo, _ = em._pack_bounds()
    assert lo.shape == (3,)
    em.fit(np.column_stack([X, np.full(10, 99.0)]), Y)
    assert em.kernel.seed is None
    em.expand_seed_space(5)
    assert em.nseeds is None
    mean, _ = em.predict_mean_var(X)
    assert np.all(np.isfinite(mean))
    with pytest.raises(ValueError):
        em.predict_mean_var(np.zeros((2, 3)))


def test_expand_seed_space_rejects_shrink_and_fixed():
    em = SeedKernelGP(ndim=1, nseeds=3)
    with pytest.raises(ValueError):
        em.expand_seed_space(2)
    fixed = SeedKernelGP(
        ndim=1, nseeds=2,
        fixed={"lengthscales": [0.5], "variance": 1.0, "B": np.eye(2),
               "v": [0.0, 0.0]},
    )
    with pytest.raises(ValueError):
        fixed.expand_seed_space(3)


def test_fit_report_tracks_starts():
    rng = np.random.default_rng(30)
    X, Y = _smooth_1d(10, rng, noise=0.1)
    em = SeedKernelGP(ndim=1, rng=np.random.default_rng(31), nstarts=3)
    em.fit(X, Y)
    report = em.fit_report
    assert len(report["start_neg_lml"]) >= 3
    assert report["neg_lml"] <= min(report["start_neg_lml"]) + 1e-9
