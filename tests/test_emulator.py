"""The GP emulator: fitting, prediction, sampling, seed growth, seedless mode."""

import glob
import itertools
import math
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrs
from scipy.optimize import minimize as scipy_minimize

from trajcal import emulator, kernels
from trajcal.emulator import NUGGET_BOUNDS, SeedKernelGP, _chol_lml
from trajcal.errors import NotFittedError, NumericalError


def _smooth_1d(n, rng, noise=0.0):
    X = rng.uniform(0.0, 1.0, size=(n, 1))
    Y = np.sin(6.0 * X[:, 0]) * 0.8
    if noise:
        Y = Y + noise * rng.normal(size=n)
    return X, Y


def test_fit_rejects_single_point():
    em = SeedKernelGP(ndim=1)
    with pytest.raises(ValueError):
        em.fit(np.array([[0.5]]), None, np.array([1.0]), rng=np.random.default_rng())


def test_fit_rejects_x_and_y_of_different_lengths():
    em = SeedKernelGP(ndim=1, nseeds=2)
    with pytest.raises(ValueError, match="X and Y must have the same number of rows"):
        em.fit(np.array([[0.1], [0.5], [0.9]]), np.array([1, 2, 1]), np.array([1.0, 2.0]),
               rng=np.random.default_rng())


def test_predict_before_fit_raises():
    em = SeedKernelGP(ndim=1)
    with pytest.raises(NotFittedError):
        em.predict_mean_var(np.array([[0.5]]), None)
    with pytest.raises(NotFittedError):
        em._posterior(np.array([[0.5]]), None)
    with pytest.raises(NotFittedError):
        em.sample(np.array([[0.5]]), None, rng=np.random.default_rng())


@pytest.mark.parametrize("nseeds", [None, 2])
def test_non_finite_inputs_are_rejected(nseeds):
    """A NaN or an infinity in the data would fit with a NaN likelihood (the
    factorization checks only the diagonal), so the inputs are checked first."""
    X, Y = np.array([[0.1], [0.5], [0.9]]), np.array([0.3, -0.2, 0.4])
    seeds = np.array([1, 2, 1])
    for bad in (np.nan, np.inf, -np.inf):
        em = SeedKernelGP(ndim=1, nseeds=nseeds, nstarts=1, maxfev=20)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="objective values Y must be finite"):
            em.fit(X, seeds, np.where([False, True, False], bad, Y), rng=rng)
        with pytest.raises(ValueError, match="coordinates X must be finite"):
            em.fit(np.where([[False], [False], [True]], bad, X), seeds, Y, rng=rng)
        em.fit(X, seeds, Y, rng=rng)
        with pytest.raises(ValueError, match="coordinates X must be finite"):
            em.predict_mean_var(np.array([[0.2], [bad]]), np.array([1, 2]))
        with pytest.raises(ValueError, match="coordinates X must be finite"):
            em.sample(np.array([[bad]]), np.array([1]), rng=rng)


def test_fit_and_sample_take_one_seed_id_per_point():
    em, rng = SeedKernelGP(ndim=1, nseeds=2, nstarts=1, maxfev=20), np.random.default_rng(0)
    X, Y = np.array([[0.1], [0.5], [0.9]]), np.array([0.3, -0.2, 0.4])
    with pytest.raises(ValueError, match="one seed id per training point"):
        em.fit(X, np.ones((3, 1), dtype=int), Y, rng=rng)
    em.fit(X, np.array([1, 2, 1]), Y, rng=rng)
    with pytest.raises(ValueError, match="one seed id per point"):
        em.sample(X, np.ones((3, 2), dtype=int), rng=rng)


def test_fit_deterministic_given_stream():
    rng = np.random.default_rng(0)
    X, Y = _smooth_1d(12, rng, noise=0.1)
    a = SeedKernelGP(ndim=1)
    b = SeedKernelGP(ndim=1)
    a.fit(X, None, Y, rng=np.random.default_rng(42))
    b.fit(X, None, Y, rng=np.random.default_rng(42))
    assert np.array_equal(a._warm, b._warm)
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
    em.fit(X, None, Y, rng=np.random.default_rng())

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
    em = SeedKernelGP(ndim=1)
    em.fit(X, None, Y, rng=np.random.default_rng(2))
    mean, var = em.predict_mean_var(X, None)
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
    X = np.array([[0.3], [0.8]])
    Y = np.array([1.5, -0.7])
    em.fit(X, [1, 2], Y, rng=np.random.default_rng())
    mean, _ = em.predict_mean_var(np.array([[0.45]]), [1])

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
    em.fit(X, None, Y, rng=np.random.default_rng())
    mean, var = em.predict_mean_var(np.array([[1.0]]), None)  # 19 lengthscales away
    assert abs(mean[0]) <= 1e-3
    assert abs(var[0] - 1.0) <= 1e-3


def _symmetric(cov):
    """The whole covariance from ``_posterior``'s layout: the lower triangle
    of a Fortran-ordered array; what lies above it is not read."""
    assert cov.flags.f_contiguous
    return np.tril(cov) + np.tril(cov, -1).T


def test_posterior_summary_shape_and_symmetry():
    rng = np.random.default_rng(3)
    X, Y = _smooth_1d(10, rng, noise=0.05)
    em = SeedKernelGP(ndim=1)
    em.fit(X, None, Y, rng=np.random.default_rng(4))
    grid = np.linspace(0, 1, 7)[:, None]
    mean, cov = em._posterior(grid, None)
    assert mean.shape == (7,)
    assert cov.shape == (7, 7)
    _symmetric(cov)  # the lower triangle
    assert cov.diagonal().min() >= -1e-10
    # the pointwise path agrees with the joint one
    mean_pw, var_pw = em.predict_mean_var(grid, None)
    assert np.array_equal(mean_pw, mean)
    assert np.abs(var_pw - cov.diagonal()).max() <= 1e-12


@settings(max_examples=80, deadline=None)
@given(family=st.sampled_from(["matern52", "rbf"]), rank=st.sampled_from([None, 1, 2, 3]),
       nseeds=st.integers(1, 5), per_seed_v=st.booleans(), npoints=st.integers(1, 12),
       repeats=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_posterior_covariance_is_exactly_symmetric(family, rank, nseeds, per_seed_v,
                                                   npoints, repeats, seed):
    """The reference ``Kss - V.T @ V`` is symmetric bit for bit, so the lower
    triangle ``_posterior`` returns, built from the upper one's entries, is
    the whole matrix, with no averaging; repeated candidates, and candidates
    that repeat training points, included."""
    rng = np.random.default_rng(seed)
    k = max(nseeds, rank or 1)
    em = SeedKernelGP(ndim=2, nseeds=None if rank is None else k, rank=rank, family=family,
                      per_seed_v=per_seed_v and rank is not None, nstarts=1, maxfev=30)
    X, seeds = rng.uniform(size=(10, 2)), rng.integers(1, k + 1, size=10)
    em.fit(X, seeds, rng.normal(size=10), rng=rng)
    new, new_seeds = rng.uniform(size=(npoints, 2)), rng.integers(1, k + 1, size=npoints)
    again = rng.integers(npoints, size=repeats)
    new = np.vstack([new, new[again], X[:repeats]])
    new_seeds = np.concatenate([new_seeds, new_seeds[again], seeds[:repeats]])
    _, cov = em._posterior(new, new_seeds)
    kern = (em.lengthscales, em.variance, em.seed_matrix, family)
    V = em._solve_lower(kernels.cross_cov(X, seeds, new, new_seeds, *kern))
    reference = kernels.cross_cov(new, new_seeds, new, new_seeds, *kern) - V.T @ V
    assert np.array_equal(reference, reference.T)
    assert np.array_equal(_symmetric(cov), reference)


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(["matern52", "rbf"]), rank=st.sampled_from([None, 1, 2, 3]),
       d=st.integers(1, 3), k=st.integers(1, 8), per_seed_v=st.booleans(),
       m=st.integers(1, 80), repeats=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
def test_posterior_is_the_reference_joint_posterior(family, rank, d, k, per_seed_v, m,
                                                    repeats, seed):
    """``_posterior`` builds its blocks from the per-fit tables with the bits
    of the reference: mean ``K*^T alpha`` and covariance ``K** - V^T V`` with
    ``V = L^-1 K*`` (GPML eq. 2.24), each K from ``kernels.cross_cov``; the
    baseline (rank None), repeated candidates and candidates equal to
    training points included."""
    rng = np.random.default_rng(seed)
    k = max(k, rank or 1)
    em = SeedKernelGP(ndim=d, nseeds=None if rank is None else k, rank=rank, family=family,
                      per_seed_v=per_seed_v and rank is not None, nstarts=1, maxfev=20)
    X, seeds = rng.uniform(size=(12, d)), rng.integers(1, k + 1, size=12)
    em.fit(X, seeds, rng.normal(size=12), rng=rng)
    new, r = rng.uniform(size=(m, d)), rng.integers(1, k + 1, size=m)
    again = rng.integers(m, size=repeats)
    new = np.vstack([new, new[again], X[:repeats]])
    r = np.concatenate([r, r[again], seeds[:repeats]])
    kern = (em.lengthscales, em.variance, em.seed_matrix, family)
    Ks = kernels.cross_cov(X, seeds, new, r, *kern)
    V = em._solve_lower(Ks)
    Kss = kernels.cross_cov(new, r, new, r, *kern)
    Kss -= V.T @ V
    mean, cov = em._posterior(new, r)
    assert np.array_equal(mean, Ks.T @ em._alpha)
    assert np.array_equal(_symmetric(cov), Kss)


def test_posterior_variance_below_prior():
    rng = np.random.default_rng(5)
    X, Y = _smooth_1d(15, rng, noise=0.1)
    em = SeedKernelGP(ndim=1)
    em.fit(X, None, Y, rng=np.random.default_rng(6))
    grid = np.linspace(0, 1, 50)[:, None]
    _, var = em.predict_mean_var(grid, None)
    assert var.max() <= em.variance + 1e-10


def test_mean_linearity_in_targets():
    fixed = {"lengthscales": [0.4], "variance": 1.0, "nugget": 0.05}
    X = np.random.default_rng(7).uniform(0, 1, size=(9, 1))
    rng = np.random.default_rng(8)
    Y1 = rng.normal(size=9)
    Y2 = rng.normal(size=9)
    grid = np.linspace(0, 1, 11)[:, None]

    def mean_for(y):
        em = SeedKernelGP(ndim=1, fixed=fixed)
        em.fit(X, None, y, rng=np.random.default_rng())
        return em.predict_mean_var(grid, None)[0]

    a, b = 0.7, -1.3
    combo = mean_for(a * Y1 + b * Y2)
    assert np.abs(combo - (a * mean_for(Y1) + b * mean_for(Y2))).max() <= 1e-10


def test_baseline_ignores_seed_column():
    """Without a seed space the seed ids, or None, change nothing."""
    rng = np.random.default_rng(9)
    X, Y = _smooth_1d(10, rng, noise=0.05)
    seeds = rng.integers(1, 5, size=10)
    grid = np.linspace(0, 1, 9)[:, None]
    means = []
    for fit_seeds, grid_seeds in ((seeds, np.ones(9, dtype=int)), (np.roll(seeds, 3), None),
                                  (None, None)):
        em = SeedKernelGP(ndim=1)
        em.fit(X, fit_seeds, Y, rng=np.random.default_rng(10))
        means.append(em.predict_mean_var(grid, grid_seeds)[0])
    assert np.array_equal(means[0], means[1]) and np.array_equal(means[0], means[2])


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
    em1.fit(X, seeds, Y, rng=np.random.default_rng())

    inv = np.argsort(perm)
    em2 = build(B[inv], v[inv])
    em2.fit(X, perm[seeds - 1] + 1, Y, rng=np.random.default_rng())

    grid = np.linspace(0, 1, 6)[:, None]
    mean1, _ = em1.predict_mean_var(grid, np.full(6, 2))
    mean2, _ = em2.predict_mean_var(grid, np.full(6, perm[1] + 1))
    assert np.abs(mean1 - mean2).max() <= 1e-10


def test_lml_gradient_small_at_interior_optimum():
    # noisy targets keep the optimum away from the nugget floor, where the
    # marginal likelihood is well conditioned enough for finite differences
    rng = np.random.default_rng(0)
    X, Y = _smooth_1d(25, rng, noise=0.3)
    em = SeedKernelGP(ndim=1)
    em.fit(X, None, Y, rng=np.random.default_rng(5))
    lo, hi = em._pack_bounds()
    x = em._warm
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
    em = SeedKernelGP(ndim=1)
    em.fit(X, None, Y, rng=np.random.default_rng(13))
    grid = np.linspace(0, 1, 5)[:, None]
    d1 = em.sample(grid, None, size=3, rng=np.random.default_rng(99))
    d2 = em.sample(grid, None, size=3, rng=np.random.default_rng(99))
    assert np.array_equal(d1, d2)
    assert d1.shape == (3, 5)


@pytest.mark.parametrize("size", [True, 2.0, "3", 0])
def test_sample_size_must_be_a_positive_integer(size):
    em, rng = SeedKernelGP(ndim=1, nstarts=1, maxfev=20), np.random.default_rng(0)
    em.fit(np.array([[0.1], [0.5], [0.9]]), None, np.array([0.3, -0.2, 0.4]), rng=rng)
    with pytest.raises(ValueError, match="size must be"):
        em.sample(np.array([[0.3]]), None, size=size, rng=rng)
    assert em.sample(np.array([[0.3]]), None, size=np.int64(2), rng=rng).shape == (2, 1)


def test_sample_degenerate_covariance_collapses():
    # many repeats of one observation: posterior variance ~ nugget / count
    em = SeedKernelGP(
        ndim=1, fixed={"lengthscales": [0.5], "variance": 1.0, "nugget": 1e-8}
    )
    X = np.full((60, 1), 0.3)
    Y = np.full(60, 0.7)
    em.fit(X, None, Y, rng=np.random.default_rng())
    mu, _ = em.predict_mean_var(np.array([[0.3]]), None)
    draws = em.sample(np.array([[0.3]]), None, size=50, rng=np.random.default_rng(14))
    assert np.abs(draws - mu).max() <= 1e-4


def test_sample_moments_match_posterior():
    rng = np.random.default_rng(15)
    X, Y = _smooth_1d(10, rng, noise=0.1)
    em = SeedKernelGP(ndim=1)
    em.fit(X, None, Y, rng=np.random.default_rng(16))
    grid = np.linspace(0.1, 0.9, 4)[:, None]
    mean, cov = em._posterior(grid, None)
    draws = em.sample(grid, None, size=20_000, rng=np.random.default_rng(17))
    se = np.sqrt(cov.diagonal() / draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - mean) <= 4.5 * se)


def test_seed_gp_validates_seed_column():
    em = SeedKernelGP(ndim=1, nseeds=3)
    X, Y = np.array([[0.1], [0.5]]), np.array([0.0, 1.0])
    for seeds in ([1, 5], [0, 1], [1.5, 2.0], [1], [1, 2, 3]):  # range, 1.5, length
        with pytest.raises(ValueError, match="seed id"):
            em.fit(X, np.array(seeds), Y, rng=np.random.default_rng())
    with pytest.raises(ValueError, match="coordinate columns"):
        em.fit(np.array([[0.1, 1.0], [0.5, 2.0]]), np.array([1, 2]), Y, rng=np.random.default_rng())
    em.fit(X, np.array([1, 3]), Y, rng=np.random.default_rng())
    with pytest.raises(ValueError, match="seed id"):
        em.predict_mean_var(X, None)


def test_seed_ids_reject_a_boolean_in_a_list():
    """True is not seed 1, as in a ``Dataset``: fitting, predicting and
    sampling each refuse a list that holds it."""
    em, rng = SeedKernelGP(ndim=1, nseeds=2, nstarts=1, maxfev=20), np.random.default_rng(0)
    X, Y = np.array([[0.1], [0.3], [0.5], [0.6], [0.8], [0.9]]), np.linspace(-1.0, 1.0, 6)
    with pytest.raises(ValueError, match="seed ids must be integers >= 1, got True"):
        em.fit(X, [1, True, 2, 1, 2, 1], Y, rng=rng)
    em.fit(X, [1, 1, 2, 1, 2, 1], Y, rng=rng)
    for call in (lambda: em.predict_mean_var(X[:2], [2, True]),
                 lambda: em.predict_mean_var(X[:1], [[np.True_, 2]]),
                 lambda: em.sample(X[:2], [2, True], rng=rng)):
        with pytest.raises(ValueError, match="seed ids must be integers >= 1, got True"):
            call()


def test_seed_gp_fits_and_predicts_across_seeds():
    rng = np.random.default_rng(18)
    n = 24
    X = rng.uniform(0, 1, size=(n, 1))
    seeds = 1 + (np.arange(n) % 3)
    Y = np.sin(5 * X[:, 0]) + 0.05 * seeds
    em = SeedKernelGP(ndim=1, nseeds=3)
    em.fit(X, seeds, Y, rng=np.random.default_rng(19))
    mean, var = em.predict_mean_var(np.linspace(0, 1, 8)[:, None], np.ones(8, dtype=int))
    assert mean.shape == (8,)
    assert np.all(var >= -1e-10)


def test_seed_gp_rank_one_and_per_seed_v():
    rng = np.random.default_rng(20)
    n = 18
    X = rng.uniform(0, 1, size=(n, 1))
    seeds = 1 + (np.arange(n) % 3)
    Y = rng.normal(size=n)
    for kwargs in ({"rank": 1}, {"per_seed_v": True}, {"rank": 3}):
        em = SeedKernelGP(ndim=1, nseeds=3, **kwargs)
        em.fit(X, seeds, Y, rng=np.random.default_rng(21))
        mean, _ = em.predict_mean_var(np.array([[0.5]]), [2])
        assert np.isfinite(mean[0])


@settings(max_examples=60, deadline=None)
@given(rank=st.integers(1, 4), nseeds=st.integers(4, 6), data=st.data())
def test_decoded_rows_are_unit_vectors_in_a_half_sphere(rank, nseeds, data):
    """Every point of the box decodes to unit ``B`` rows with a nonnegative
    last entry, at every rank."""
    em = SeedKernelGP(ndim=1, nseeds=nseeds, rank=rank)
    lo, hi = em._pack_bounds()
    p = np.array([data.draw(st.floats(a, b)) for a, b in zip(lo, hi)])
    B = em._decode(p)[2]
    assert B.shape == (nseeds, rank)
    assert np.all(np.abs(np.linalg.norm(B, axis=1) - 1.0) <= 1e-15)
    assert np.all(B[:, -1] >= 0.0)


def test_rank_two_decodes_each_angle_to_its_cosine_and_sine():
    em = SeedKernelGP(ndim=2, nseeds=9)
    lo, hi = em._pack_bounds()
    p = lo + np.random.default_rng(50).uniform(size=lo.shape) * (hi - lo)
    angles = p[em._blocks[2]]
    assert np.array_equal(em._decode(p)[2], np.column_stack([np.cos(angles), np.sin(angles)]))


def test_rank_three_expansion_starts_new_seeds_at_the_mean_direction():
    rng = np.random.default_rng(51)
    em = SeedKernelGP(ndim=2, nseeds=3, rank=3, nstarts=1, maxfev=60)
    em.fit(*_seeded_data(rng, 20, [1, 2, 3]), rng=np.random.default_rng(52))
    old = em._decode(em._warm)[2]
    em.expand_seed_space(5)
    B = em._decode(em._warm)[2]
    mean = old.mean(axis=0)
    assert np.array_equal(B[:3], old)
    np.testing.assert_allclose(B[3:], np.tile(mean / np.linalg.norm(mean), (2, 1)),
                               rtol=0.0, atol=1e-12)


def test_rank_one_is_a_factor_shared_by_every_seed():
    """Rank 1 packs no ``B`` entries, before and after the seed space
    grows, and its seed matrix is ``1 1^T + diag(v)``."""
    rng = np.random.default_rng(53)
    em = SeedKernelGP(ndim=2, nseeds=3, rank=1, per_seed_v=True, nstarts=1, maxfev=60)
    b_block = em._blocks[2]
    assert b_block.start == b_block.stop == 3
    assert em._pack_bounds()[0].shape == (2 + 1 + 3 + 1,)
    em.fit(*_seeded_data(rng, 20, [1, 2, 3]), rng=np.random.default_rng(54))
    v = em._decode(em._warm)[3]
    assert np.array_equal(em.seed_matrix, np.ones((3, 3)) + np.diag(v))
    em.expand_seed_space(4)
    assert em._warm.shape == (2 + 1 + 4 + 1,)


def test_default_rank_follows_the_seed_space_and_a_given_rank_stays():
    """A run that starts at one seed gains a rank-2 factor, one angle per
    seed, once the seed space grows; the warm start's rank-1 rows become
    angle 0, so it decodes to the same seed matrix.  A given rank of 1
    keeps no angle block."""
    rng = np.random.default_rng(55)
    data = _seeded_data(rng, 12, [1])
    em = SeedKernelGP(ndim=2, nseeds=1, nstarts=1, maxfev=60)
    given = SeedKernelGP(ndim=2, nseeds=1, rank=1, nstarts=1, maxfev=60)
    streams = {em: np.random.default_rng(56), given: np.random.default_rng(56)}
    for gp in (em, given):
        gp.fit(*data, rng=streams[gp])
    assert em.rank == given.rank == 1
    v = em._decode(em._warm)[3][0]
    em.expand_seed_space(3)
    assert em.rank == 2
    b_block = em._blocks[2]
    assert b_block.stop - b_block.start == 3
    assert np.array_equal(em._warm[b_block], np.zeros(3))
    assert np.array_equal(em._hyper(em._warm)[2], np.ones((3, 3)) + v * np.eye(3))
    given.expand_seed_space(3)
    assert given.rank == 1 and given._blocks[2].start == given._blocks[2].stop
    for gp in (em, given):
        gp.fit(np.vstack([data[0], [[0.5, 0.5], [0.2, 0.8]]]), np.append(data[1], [2, 3]),
               np.append(data[2], [0.1, -0.3]), rng=streams[gp])
        assert gp.seed_matrix.shape == (3, 3)
    assert em._blocks == SeedKernelGP(ndim=2, nseeds=3)._blocks


def test_expand_seed_space_grows_then_requires_refit():
    rng = np.random.default_rng(22)
    n = 15
    X = rng.uniform(0, 1, size=(n, 1))
    seeds = 1 + (np.arange(n) % 3)
    Y = rng.normal(size=n)
    em, fit_rng = SeedKernelGP(ndim=1, nseeds=3), np.random.default_rng(23)
    em.fit(X, seeds, Y, rng=fit_rng)
    em.expand_seed_space(4)
    assert em.nseeds == 4
    with pytest.raises(NotFittedError):
        em.predict_mean_var(np.array([[0.5]]), [4])
    em.fit(np.vstack([X, [[0.5]]]), np.append(seeds, 4), np.append(Y, 0.1), rng=fit_rng)
    mean, _ = em.predict_mean_var(np.array([[0.5]]), [4])
    assert np.isfinite(mean[0])


@pytest.mark.parametrize("rank", [None, 1, 3])
@pytest.mark.parametrize("per_seed_v", [False, True])
def test_expansion_keeps_the_warm_start_in_the_packed_layout(rank, per_seed_v):
    """``fit`` starts from ``_warm`` as it stands, so each expansion, by one seed
    or several, with or without a fit since the last, remaps it to the new
    layout; the default rank starts from one seed and grows to 2."""
    nseeds = rank or 1
    em = SeedKernelGP(ndim=2, nseeds=nseeds, rank=rank, per_seed_v=per_seed_v,
                      nstarts=1, maxfev=20)
    rng = np.random.default_rng(24)
    for grow, refit in ((0, True), (1, True), (2, False), (1, True), (3, True)):
        em.expand_seed_space(em.nseeds + grow)
        assert em._warm is None or em._warm.shape == em._pack_bounds()[0].shape
        if refit:
            X, seeds, Y = _seeded_data(rng, 12, range(1, em.nseeds + 1))
            em.fit(X, seeds, Y, rng=rng)
            assert em._warm.shape == em._pack_bounds()[0].shape
    assert em.nseeds == nseeds + 7 and em.rank == (rank or 2)


def test_expansion_puts_a_new_seed_on_the_last_axis_when_the_rows_cancel():
    """Warm rows at angles 0 and pi are (1, 0) and (-1, sin pi): their mean,
    (0, sin(pi) / 2) with sin(pi) about 1.2e-16 in floats, points along the
    last axis, so the new seed's row lies there, at angle pi/2."""
    rng = np.random.default_rng(25)
    em = SeedKernelGP(ndim=2, nseeds=2, rank=2, nstarts=1, maxfev=20)
    em.fit(*_seeded_data(rng, 10, [1, 2]), rng=rng)
    old_block = em._blocks[2]
    em._warm[old_block] = [0.0, math.pi]
    others = np.delete(em._warm, old_block)
    em.expand_seed_space(3)
    new_block = em._blocks[2]
    assert em._warm[new_block].tolist() == [0.0, math.pi, math.pi / 2]
    assert np.array_equal(np.delete(em._warm, new_block), others)


def test_seedless_gp_packs_no_seed_parameters():
    """Without a seed space the packed vector is [log ls, log var, log nugget],
    seed ids go unchecked, and expansion changes nothing."""
    rng = np.random.default_rng(32)
    X, Y = _smooth_1d(10, rng, noise=0.05)
    em = SeedKernelGP(ndim=1)
    lo, _ = em._pack_bounds()
    assert lo.shape == (3,)
    em.fit(X, np.full(10, 99), Y, rng=np.random.default_rng(33))
    assert em.seed_matrix is None
    em.expand_seed_space(5)
    assert em.nseeds is None
    mean, _ = em.predict_mean_var(X, None)
    assert np.all(np.isfinite(mean))
    with pytest.raises(ValueError):
        em.predict_mean_var(np.zeros((2, 2)), None)


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


def test_expand_seed_space_rejects_a_size_that_is_not_an_integer():
    """3.5 used to grow the seed space to 3, and True to 1."""
    for nseeds in (2, None):
        em = SeedKernelGP(ndim=1, nseeds=nseeds)
        for bad in (3.5, 3.0, True, "3"):
            with pytest.raises(ValueError, match="new_nseeds must be an integer"):
                em.expand_seed_space(bad)
        assert em.nseeds == nseeds


def test_fixed_lengthscales_must_match_the_dimension():
    with pytest.raises(ValueError, match="one entry per dimension"):
        SeedKernelGP(ndim=2, fixed={"lengthscales": [0.5], "variance": 1.0})


@pytest.mark.parametrize("nseeds,fixed,key", [
    (None, {"lengthscales": [0.3], "variance": 1.0, "nuget": 0.3}, "nuget"),
    (None, {"lengthscales": [0.3]}, "variance"),
    (None, {"variance": 1.0}, "lengthscales"),
    # B and v belong to the seed factor, which the baseline does not have
    (None, {"lengthscales": [0.3], "variance": 1.0, "B": [[1.0]], "v": [0.0]}, "B"),
    (2, {"lengthscales": [0.3], "variance": 1.0, "v": [0.0, 0.0]}, "B"),
    (2, {"lengthscales": [0.3], "variance": 1.0, "B": [[1.0], [1.0]]}, "v"),
    (2, {"lengthscales": [0.3], "variance": 1.0, "B": [[1.0], [1.0]], "v": [0.0, 0.0],
         "rank": 1}, "rank"),
], ids=["misspelt", "no-variance", "no-lengthscales", "baseline-B", "no-B", "no-v", "extra"])
def test_fixed_kernel_rejects_unknown_and_missing_keys(nseeds, fixed, key):
    with pytest.raises(ValueError, match=f"fixed key '{key}' is|unknown fixed key '{key}'"):
        SeedKernelGP(ndim=1, nseeds=nseeds, fixed=fixed)


@pytest.mark.parametrize("setting", [{"rank": 1}, {"rank": 2}, {"per_seed_v": True}])
def test_baseline_takes_no_seed_settings(setting):
    """Without a seed space, the seed factor's settings would do nothing."""
    with pytest.raises(ValueError, match="need a seed space"):
        SeedKernelGP(ndim=1, **setting)
    assert SeedKernelGP(ndim=1, rank=None, per_seed_v=False).rank is None


_GOOD_FIXED = {"lengthscales": [0.5], "variance": 1.0, "B": np.eye(2), "v": [0.1, 0.1]}


@pytest.mark.parametrize("field, fixed, extra", [
    ("lengthscales", {"lengthscales": [math.nan]}, None),
    ("lengthscales", {"lengthscales": [math.inf]}, None),
    ("variance", {"variance": math.inf}, None),
    ("variance", {"variance": math.nan}, None),
    ("B", {"B": [[1.0, math.nan], [0.0, 1.0]]}, None),
    ("v", {"v": [0.1, math.inf]}, None),
    ("v", {"v": [math.nan, 0.1]}, None),
    ("nugget", {"nugget": math.nan}, None),
    ("nugget", {"nugget": math.inf}, None),
    ("nugget", {"nugget": -1.0}, None),
    ("nugget", {"nugget": 0.5 * NUGGET_BOUNDS[0]}, None),
    ("nstarts", None, {"nstarts": 0}),
    ("maxfev", None, {"maxfev": 0}),
    ("family", None, {"family": "cubic"}),
    ("rank", None, {"rank": 3}),
    ("B", {"B": [[1.0, 0.0]]}, None),
])
def test_constructor_rejects_bad_kernel_settings(field, fixed, extra):
    """Non-finite or out-of-range kernel and optimizer settings are refused
    up front, naming the field, rather than reaching the fit."""
    kwargs = dict(extra or {})
    if fixed is not None:
        kwargs["fixed"] = {**_GOOD_FIXED, **fixed}
    with pytest.raises(ValueError, match=rf"\b{field}\b"):
        SeedKernelGP(ndim=1, nseeds=2, **kwargs)


@pytest.mark.parametrize("nseeds", [None, 3])
def test_solve_lower_is_solve_triangular(nseeds):
    """The direct LAPACK call gives the bits of the scipy wrapper it replaces."""
    rng = np.random.default_rng(34)
    em = SeedKernelGP(ndim=2, nseeds=nseeds, nstarts=1, maxfev=20)
    em.fit(*_seeded_data(rng, 30, [1, 2, 3]), rng=np.random.default_rng(35))
    for m in (1, 3, 50):
        B = rng.normal(size=(30, m))
        assert np.array_equal(em._solve_lower(B), solve_triangular(em._L, B, lower=True))


def test_fit_report_tracks_starts():
    rng = np.random.default_rng(30)
    X, Y = _smooth_1d(10, rng, noise=0.1)
    em = SeedKernelGP(ndim=1, nstarts=3)
    em.fit(X, None, Y, rng=np.random.default_rng(31))
    report = em.fit_report
    assert len(report["start_neg_lml"]) >= 3
    assert report["neg_lml"] <= min(report["start_neg_lml"]) + 1e-9
    assert len(report["start_nfev"]) == len(report["start_status"]) == len(report["start_neg_lml"])


def test_fit_report_shows_starts_stopped_at_maxfev():
    rng = np.random.default_rng(32)
    X, r, Y = _seeded_data(rng, 25, [1, 2, 3])
    em, fit_rng = SeedKernelGP(ndim=2, nseeds=3, nstarts=3, maxfev=30), np.random.default_rng(33)
    em.fit(X, r, Y, rng=fit_rng)
    em.fit(X, r, Y, rng=fit_rng)  # the previous optimum is a fourth start
    report = em.fit_report
    assert report["start_nfev"] == [30] * 4
    assert report["start_status"] == [1] * 4  # scipy: maximum evaluations reached


def _reference_seed_matrix(B, v):
    Bn = kernels.normalize_rows(B)  # every row, angle rows too
    return Bn @ Bn.T + np.diag(v)


def _reference_neg_lml(em, p, fixed=None):
    """Negative LML of packed ``p``, or of the ``fixed`` kernel settings,
    through the public kernel functions, with the checks a fixed kernel
    gets: the path the emulator's per-fit fast path must match bit for bit."""
    if fixed is None:
        ls, variance, B, v, nugget = em._decode(p)
    else:
        ls, variance, B, v, nugget = (
            fixed.get(key) for key in ("lengthscales", "variance", "B", "v", "nugget"))
    try:
        if variance <= 0.0 or np.any(ls <= 0.0):
            raise ValueError("lengthscales and variance must be positive")
        S = None if B is None else _reference_seed_matrix(B, v)
        K = kernels.cross_cov(*em._train, *em._train, ls, variance, S, em.family)
        L = np.linalg.cholesky(K + nugget * np.eye(K.shape[0]))
    except ValueError:  # also LinAlgError
        return np.inf
    return -_chol_lml(L, em._Y)[0]


def _seeded_data(rng, n, seeds):
    X, r = rng.uniform(0, 1, size=(n, 2)), rng.choice(seeds, size=n)
    return X, r, np.sin(4.0 * X[:, 0]) * X[:, 1] + 0.1 * rng.normal(size=n)


def _random_fixed(rng, ndim, nseeds, rank, nugget):
    """``fixed=`` settings at random values: lengthscales short enough that
    a 150-point Gram matrix plus the nugget needs no jitter."""
    fixed = {"lengthscales": rng.uniform(0.05, 0.3, ndim),
             "variance": float(rng.uniform(0.5, 2.0)), "nugget": nugget}
    if nseeds is not None:
        fixed.update(B=rng.normal(size=(nseeds, rank)), v=rng.uniform(0.0, 0.5, nseeds))
    return fixed


def _assert_fast_path_exact(em, rng, npoints=15, fixed=None):
    lo, hi = em._pack_bounds()
    for _ in range(npoints):
        p = lo + rng.uniform(size=lo.shape) * (hi - lo)
        assert em._neg_lml(p) == _reference_neg_lml(em, p, fixed)
    assert em._neg_lml(em._warm) == -em.lml  # the fitted factor needed no jitter


def _factor_paths(monkeypatch):
    """Yield twice: first with the likelihood factored in place and solved by
    numpy's bundled ``dpotrf`` and ``dpotrs`` (where numpy bundles them), then
    as on a build without them: ``np.linalg.cholesky`` and scipy's wrappers."""
    yield
    with monkeypatch.context() as m:
        m.setattr(kernels, "_lapack", lambda name: None)
        yield


@pytest.mark.parametrize("family", ["matern52", "rbf"])
@pytest.mark.parametrize("rank", [None, 1, 2, 3])
@pytest.mark.parametrize("per_seed_v", [False, True])
@pytest.mark.parametrize("nugget", ["free", "fixed"])
def test_neg_lml_fast_path_equals_reference(family, rank, per_seed_v, nugget, monkeypatch):
    """A free nugget is estimated; a fixed kernel pins it at 1e-6."""
    nseeds = None if rank is None else 3
    for _ in _factor_paths(monkeypatch):
        rng, fit_rng = np.random.default_rng(40), np.random.default_rng(41)
        common = dict(ndim=2, nseeds=nseeds, rank=rank, family=family,
                      per_seed_v=per_seed_v and rank is not None, nstarts=1, maxfev=20)
        em, fixed = SeedKernelGP(**common), None
        for n in (2, 7, 40, 150):
            if nugget == "fixed":
                fixed = _random_fixed(rng, 2, nseeds, rank, 1e-6)
                em = SeedKernelGP(**common, fixed=fixed)
            em.fit(*_seeded_data(rng, n, [1, 2, 3]), rng=fit_rng)
            _assert_fast_path_exact(em, rng, fixed=fixed)


def _skip_without_numpy_openblas():
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    if not glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        pytest.skip("numpy bundles no 64-bit-integer OpenBLAS here")


def test_numpy_bundles_the_dpotrf_the_likelihood_calls():
    """Where numpy's wheel bundles OpenBLAS, the in-place path is the one in
    use, and the solves come from the same library."""
    _skip_without_numpy_openblas()
    assert all(kernels._lapack(name) is not None for name in ("dpotrf", "dpotrs", "dtrtrs"))


def test_dpotrs_from_numpy_openblas_is_scipys():
    """numpy's bundled ``dpotrs`` gives the bits of scipy's wrapper around
    its own OpenBLAS, for C- and Fortran-ordered factors and one or many
    right-hand sides."""
    _skip_without_numpy_openblas()
    rng = np.random.default_rng(48)
    for n, nrhs in ((2, None), (7, 1), (40, None), (83, 5), (150, 300), (199, None)):
        A = rng.normal(size=(n, n))
        L = np.linalg.cholesky(A @ A.T + n * np.eye(n))
        Y = rng.normal(size=n if nrhs is None else (n, nrhs))
        for factor in (L, np.asfortranarray(L)):
            assert np.array_equal(kernels._lapack_solve("dpotrs", (b"L",), factor, Y, lower=True),
                                  dpotrs(factor, Y, lower=True)[0])


def _neg_lml_objective(ndim, nseeds, rank, per_seed_v, n, seed, family="matern52"):
    """A real likelihood and its box: ``_neg_lml`` of an emulator fitted to
    random data, with its optimum."""
    rng = np.random.default_rng(seed)
    em = SeedKernelGP(ndim=ndim, nseeds=nseeds, rank=rank, per_seed_v=per_seed_v,
                      family=family, nstarts=1, maxfev=30)
    X, r = rng.uniform(size=(n, ndim)), rng.integers(1, (nseeds or 1) + 1, n)
    em.fit(X, r if nseeds else None, np.sin(5.0 * X[:, 0]) + 0.1 * rng.normal(size=n),
           rng=np.random.default_rng(seed))
    lo, hi = em._pack_bounds()
    return em._neg_lml, lo, hi, em._warm


def _scipy_nelder_mead(fun, x0, lo, hi, maxfev, callback=None):
    return scipy_minimize(fun, x0, method="Nelder-Mead", bounds=list(zip(lo, hi)),
                          callback=callback, options={"maxfev": maxfev, "xatol": 1e-4,
                                                      "fatol": 1e-6, "adaptive": True})


def _shrink_caps(fun, x0, lo, hi):
    """``maxfev`` values that stop scipy inside a shrink step, found from a
    400-evaluation run: an iteration that spends ``N + 2`` evaluations
    (reflection, contraction and N vertices) shrinks the simplex."""
    N = x0.shape[0]
    calls, ends = [0], [N + 1]

    def counted(x):
        calls[0] += 1
        return fun(x)

    _scipy_nelder_mead(counted, x0, lo, hi, 400, callback=lambda xk: ends.append(calls[0]))
    return [a + 2 + (N + 1) // 2 for a, b in zip(ends, ends[1:]) if b - a == N + 2]


def test_minimize_is_scipys_nelder_mead():
    """The port returns scipy's ``x``, ``fun``, ``nfev`` and ``status`` on real
    likelihoods with 1 to 17 parameters (1 and 2 by holding the others at the
    optimum), with the cap inside the initial simplex, inside a shrink and
    anywhere up to 400 evaluations, from starts on and near the upper bound
    and with a zero coordinate, and where the likelihood is inf: with the
    variance held at 1e12, far outside its box, long lengthscales make the
    covariance singular."""
    rng = np.random.default_rng(49)
    objectives = [_neg_lml_objective(1, None, None, False, 12, 50),
                  _neg_lml_objective(2, 3, 1, False, 20, 51),
                  _neg_lml_objective(2, 3, 2, True, 25, 52),
                  _neg_lml_objective(1, 5, 2, False, 18, 53, family="rbf"),
                  _neg_lml_objective(2, 4, 3, True, 30, 54),
                  _neg_lml_objective(1, 7, 2, True, 14, 55)]
    assert {3, 17} <= {lo.shape[0] for _, lo, _, _ in objectives}
    cases = []
    for fun, lo, hi, warm in objectives:
        for k in (1, 2):  # the first k parameters free, the others at the optimum
            cases.append((lambda x, fun=fun, rest=warm[k:]: fun(np.concatenate([x, rest])),
                          lo[:k], hi[:k], warm[:k]))
        cases.append((fun, lo, hi, warm))
    fun, lo, hi, warm = _neg_lml_objective(2, None, None, False, 30, 56, family="rbf")
    cases.append((lambda x, fun=fun: fun(np.array([x[0], x[1], math.log(1e12), x[2]])),
                  lo[[0, 1, 3]], hi[[0, 1, 3]], warm[[0, 1, 3]]))
    shrinks = infinite = 0
    for fun, lo, hi, warm in cases:
        values = []

        def recorded(x, fun=fun):
            values.append(fun(x))
            return values[-1]

        N = lo.shape[0]
        zero = np.clip(warm, lo, hi)
        zero[np.flatnonzero((lo < 0.0) & (hi > 0.0))[:1]] = 0.0
        starts = [lo + rng.uniform(size=N) * (hi - lo), hi.copy(), hi - 1e-3 * (hi - lo), zero]
        in_shrink = _shrink_caps(fun, starts[0], lo, hi)[:2]
        shrinks += len(in_shrink)
        for i, x0 in enumerate(starts):
            caps = [1, N // 2 + 1, int(rng.integers(1, 401))] + (in_shrink + [400]) * (i == 0)
            for maxfev in caps:
                want = _scipy_nelder_mead(recorded, x0, lo, hi, maxfev)
                got = emulator.minimize(fun, x0.copy(), lo, hi, maxfev)
                assert np.array_equal(got.x, want.x) and got.fun == want.fun
                assert (got.nfev, got.status) == (want.nfev, want.status)
        infinite += np.isinf(values).any()
    assert shrinks and infinite  # both kinds of case were met


def test_a_fitted_emulator_pickles_with_its_workspace():
    """The per-fit workspace holds no pointers, so a copy evaluates and
    predicts on its own buffers."""
    rng = np.random.default_rng(46)
    em = SeedKernelGP(ndim=2, nseeds=3, nstarts=1, maxfev=20)
    em.fit(*_seeded_data(rng, 20, [1, 2, 3]), rng=np.random.default_rng(47))
    twin = pickle.loads(pickle.dumps(em))
    lo, hi = em._pack_bounds()
    p = lo + rng.uniform(size=lo.shape) * (hi - lo)
    assert twin._neg_lml(p) == em._neg_lml(p)
    X, r = rng.uniform(size=(5, 2)), np.array([1, 2, 3, 1, 2])
    assert all(np.array_equal(a, b) for a, b in
               zip(twin.predict_mean_var(X, r), em.predict_mean_var(X, r)))


def test_neg_lml_fast_path_is_inf_where_the_reference_raises(monkeypatch):
    for _ in _factor_paths(monkeypatch):
        _check_inf_where_the_reference_raises()


def _check_inf_where_the_reference_raises():
    rng = np.random.default_rng(42)
    em = SeedKernelGP(ndim=2, nseeds=3, rank=1, nstarts=1, maxfev=20)
    em.fit(*_seeded_data(rng, 30, [1, 2, 3]), rng=np.random.default_rng(43))
    # lengthscales that underflow to zero, far outside the box
    p = em._warm.copy()
    p[0] = -1000.0
    assert _reference_neg_lml(em, p) == em._neg_lml(p) == np.inf

    # a near-singular RBF Gram matrix whose variance, far outside the box,
    # swamps the nugget: Cholesky fails
    em = SeedKernelGP(ndim=2, family="rbf", nstarts=1, maxfev=20)
    em.fit(*_seeded_data(rng, 30, [1]), rng=np.random.default_rng(43))
    p = np.array([math.log(2.0), math.log(2.0), math.log(1e12), math.log(1e-8)])
    K = kernels.cross_cov(*em._train, *em._train, *em._hyper(p)[:3], "rbf")
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(K + 1e-8 * np.eye(K.shape[0]))
    assert em._neg_lml(p) == _reference_neg_lml(em, p) == np.inf


@pytest.mark.parametrize("rank", [1, 2])
def test_neg_lml_per_fit_state_follows_the_data(rank):
    """The seed-pair and diagonal indices are rebuilt by every fit: after the
    seed space grows, and after a fit on fewer rows than the last one."""
    rng = np.random.default_rng(44)
    em, fit_rng = SeedKernelGP(ndim=2, nseeds=3, rank=rank, per_seed_v=True, nstarts=1,
                               maxfev=20), np.random.default_rng(45)
    em.fit(*_seeded_data(rng, 20, [1, 2, 3]), rng=fit_rng)
    _assert_fast_path_exact(em, rng)
    em.expand_seed_space(5)
    em.fit(*_seeded_data(rng, 24, [1, 4, 5]), rng=fit_rng)
    _assert_fast_path_exact(em, rng)
    em.fit(*_seeded_data(rng, 9, [2, 4, 5]), rng=fit_rng)
    _assert_fast_path_exact(em, rng)


def _reference_draw(em, X, r, size, rng):
    """``sample``'s reference: the whole ``K**`` block from ``kernels.cross_cov``
    minus ``V^T V``, ``np.linalg.cholesky`` on the documented jitter ladder (the
    matrix, then ``a + j I`` from a floor of 1e-12 times the largest diagonal
    entry, at least 1e-12, growing tenfold ``MAX_ESCALATIONS - 1`` times) and
    ``mean + z L^T``.  Returns the draws and the escalations, or raises
    ``NumericalError`` with the last jitter tried."""
    kern = (em.lengthscales, em.variance, em.seed_matrix, em.family)
    Ks = kernels.cross_cov(*em._train, X, r, *kern)
    V = em._solve_lower(Ks)
    cov = kernels.cross_cov(X, r, X, r, *kern) - V.T @ V
    floor, jitter = 1e-12 * max(1.0, cov.diagonal().max()), 0.0
    for escalations in range(kernels.MAX_ESCALATIONS + 1):
        tried = jitter
        try:
            L = np.linalg.cholesky(cov + jitter * np.eye(X.shape[0]) if jitter else cov)
            break
        except np.linalg.LinAlgError:
            jitter = jitter * 10.0 if jitter else floor
    else:
        raise NumericalError("ladder exhausted", jitter=tried)
    z = rng.standard_normal((size, X.shape[0]))
    return Ks.T @ em._alpha + z @ L.T, escalations


def _assert_draws_are_the_reference(em, X, r, sizes=(1, 8)):
    for size in sizes:
        got = em.sample(X, r, size, rng=np.random.default_rng(size))
        want, _ = _reference_draw(em, X, r, size, np.random.default_rng(size))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("family", ["matern52", "rbf"])
@pytest.mark.parametrize("rank", [None, 1, 2, 3])
@pytest.mark.parametrize("per_seed_v", [False, True])
def test_sample_is_the_reference_draw(family, rank, per_seed_v, monkeypatch):
    """``sample`` builds and factors only the lower triangle of the joint
    covariance, in blocks of rows, with the bits of the reference draw: M = 1,
    M at and around the largest one-block M (``isqrt(BLOCK_CELLS)`` rows of
    M entries), M = 500, and small M cut into many blocks; repeated
    candidates and candidates at training points included."""
    rows = math.isqrt(kernels.BLOCK_CELLS)
    assert kernels.BLOCK_CELLS // rows >= rows > kernels.BLOCK_CELLS // (rows + 1)
    for _ in _factor_paths(monkeypatch):
        rng = np.random.default_rng(60)
        k = 4
        em = SeedKernelGP(ndim=2, nseeds=None if rank is None else k, rank=rank, family=family,
                          per_seed_v=per_seed_v and rank is not None, nstarts=1, maxfev=30)
        X, r, Y = _seeded_data(rng, 20, range(1, k + 1))
        em.fit(X, r, Y, rng=np.random.default_rng(61))
        for m in (1, rows - 1, rows, rows + 1, 500):
            new, new_r = rng.uniform(size=(m, 2)), rng.integers(1, k + 1, m)
            if m > 10:
                new[:5], new_r[:5] = new[-5:], new_r[-5:]
                new[5:8], new_r[5:8] = X[:3], r[:3]
            _assert_draws_are_the_reference(em, new, new_r)
        with monkeypatch.context() as m:
            m.setattr(kernels, "BLOCK_CELLS", 24)  # 1 to 24 rows per block
            for m in (2, 5, 7, 13, 30):
                _assert_draws_are_the_reference(em, rng.uniform(size=(m, 2)),
                                                rng.integers(1, k + 1, m))


def test_sample_follows_the_reference_up_the_jitter_ladder(monkeypatch):
    """Training points repeated as candidates make the posterior covariance
    singular, with rounding errors that grow with the kernel variance: over
    range of lengthscales, variances and repeat counts the draws meet every
    rung of the jitter ladder, each more than ten times here, and its end, and
    match the reference draw, or its ``NumericalError`` and final jitter, at each."""
    X = np.array([[0.1], [0.2], [0.35], [0.5], [0.8]])
    for _ in _factor_paths(monkeypatch):
        rungs = set()
        for ls, log_variance in itertools.product((0.3, 0.2), np.arange(5.0, 8.51, 0.125)):
            fixed = {"lengthscales": [ls], "variance": 10.0 ** log_variance, "nugget": 1e-8}
            em = SeedKernelGP(ndim=1, fixed=fixed)
            em.fit(X, None, np.sin(5.0 * X[:, 0]), rng=np.random.default_rng())
            for repeats in range(1, 7):
                new = np.repeat(X, repeats, axis=0)
                try:
                    want, escalations = _reference_draw(em, new, None, 2, np.random.default_rng(0))
                except NumericalError as err:
                    with pytest.raises(NumericalError) as got:
                        em.sample(new, None, 2, rng=np.random.default_rng(0))
                    assert got.value.jitter == err.jitter
                    rungs.add("exhausted")
                    continue
                got = em.sample(new, None, 2, rng=np.random.default_rng(0))
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
                rungs.add(escalations)
        assert rungs == set(range(kernels.MAX_ESCALATIONS + 1)) | {"exhausted"}


def test_sample_reads_nothing_above_the_covariance_triangle(monkeypatch):
    """``_posterior`` leaves what lies above its triangle as it falls: with NaN
    written there the draws keep every bit, on both factor paths, seeded or
    not, with and without jitter (training points repeated as candidates)."""
    posterior, factor, jitters = SeedKernelGP._posterior, emulator.safe_cholesky, []

    def poisoned(self, X, seeds):
        mean, cov = posterior(self, X, seeds)
        cov[np.triu_indices(cov.shape[0], 1)] = np.nan
        return mean, cov

    def recording(a):
        L, jitter = factor(a)
        jitters.append(jitter)
        return L, jitter

    monkeypatch.setattr(emulator, "safe_cholesky", recording)
    X = np.array([[0.1], [0.2], [0.35], [0.5], [0.8]])
    for _ in _factor_paths(monkeypatch):
        rng = np.random.default_rng(63)
        for nseeds, variance in ((None, 1.0), (None, 1e6), (3, None)):
            if nseeds is None:
                em = SeedKernelGP(ndim=1, fixed={"lengthscales": [0.3], "variance": variance})
                seeds, new_seeds = None, None
            else:
                em = SeedKernelGP(ndim=1, nseeds=nseeds, nstarts=1, maxfev=30)
                seeds, new_seeds = rng.integers(1, nseeds + 1, 5), rng.integers(1, nseeds + 1, 50)
            em.fit(X, seeds, np.sin(5.0 * X[:, 0]), rng=rng)
            new = np.vstack([rng.uniform(size=(40, 1)), X, X])
            want = em.sample(new, new_seeds, 3, rng=np.random.default_rng(0))
            with monkeypatch.context() as m:
                m.setattr(SeedKernelGP, "_posterior", poisoned)
                got = em.sample(new, new_seeds, 3, rng=np.random.default_rng(0))
            assert np.isfinite(got).all()
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert 0.0 in jitters and max(jitters) > 0.0


def test_fit_report_start_values_are_the_start_likelihoods(monkeypatch):
    """Each start's ``start_neg_lml`` is the likelihood of that start, read off
    the optimizer's first evaluation: the same as evaluating it again."""
    starts = []

    def recording(fun, x0, lo, hi, maxfev):
        starts.append(x0.copy())
        return minimize(fun, x0, lo, hi, maxfev)

    minimize = emulator.minimize
    monkeypatch.setattr(emulator, "minimize", recording)
    rng = np.random.default_rng(62)
    for nseeds, rank, maxfev in ((None, None, 1), (3, 2, 25), (3, 3, 60)):
        em = SeedKernelGP(ndim=2, nseeds=nseeds, rank=rank, nstarts=3, maxfev=maxfev)
        fit_rng = np.random.default_rng(63)
        for n in (12, 20):  # the second fit adds the first one's optimum as a start
            starts.clear()
            em.fit(*_seeded_data(rng, n, [1, 2, 3]), rng=fit_rng)
            assert len(starts) == 3 + (n == 20)
            assert em.fit_report["start_neg_lml"] == [float(em._neg_lml(x0)) for x0 in starts]
