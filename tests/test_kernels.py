"""Covariance functions over the joint (continuous, seed) space."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajcal.errors import NumericalError
from trajcal.kernels import (
    ContinuousKernelParams,
    JointKernel,
    SeedKernelParams,
    continuous_cov,
    cross_cov,
    normalize_rows,
    safe_cholesky,
    seed_cov,
)

# (1 + sqrt(5) + 5/3) * exp(-sqrt(5)), evaluated in double precision
MATERN_AT_S1 = 0.5239941088318203


def _params(ls, var=1.0):
    return ContinuousKernelParams(lengthscales=np.atleast_1d(np.asarray(ls, float)),
                                  variance=var)


def _matern(x1, x2, p):
    """Matérn-5/2 covariance of two single points via the matrix path."""
    return float(continuous_cov(np.atleast_2d(x1), np.atleast_2d(x2), p)[0, 0])


def _joint_oracle(x1, r1, x2, r2, kern):
    """Closed-form product covariance of two points, one scalar at a time:
    variance * (1 + sqrt5 s + 5 s^2 / 3) exp(-sqrt5 s) times
    <b_r1, b_r2> / (|b_r1| |b_r2|) + [r1 == r2] v_r1."""
    ls = kern.continuous.lengthscales
    s = math.sqrt(sum(((a - b) / l) ** 2 for a, b, l in zip(x1, x2, ls)))
    cont = kern.continuous.variance * (
        1.0 + math.sqrt(5.0) * s + 5.0 * s * s / 3.0) * math.exp(-math.sqrt(5.0) * s)
    b1, b2 = kern.seed.B[r1 - 1], kern.seed.B[r2 - 1]
    seed = float(b1 @ b2) / (math.sqrt(float(b1 @ b1)) * math.sqrt(float(b2 @ b2)))
    if r1 == r2:
        seed += float(kern.seed.v[r1 - 1])
    return cont * seed


def test_params_positivity_enforced():
    # the [1e-2, 2] x [1e-4, 1e2] boxes bound the optimizer, not the type;
    # the type itself rejects nonpositive values and negative v
    with pytest.raises(ValueError):
        _params([0.0])
    with pytest.raises(ValueError):
        _params([0.5], var=-1.0)
    with pytest.raises(ValueError):
        SeedKernelParams(B=np.eye(2), v=np.array([-0.1, 0.0]))


def test_matern52_zero_distance_is_variance():
    p = _params([0.3, 0.7], var=1.7)
    x = np.array([0.2, 0.9])
    assert _matern(x, x, p) == pytest.approx(1.7, abs=1e-15)


def test_matern52_scaling_identity():
    # doubling coordinates and lengthscales together changes nothing
    p1 = _params([0.25], var=1.0)
    p2 = _params([0.5], var=1.0)
    a = _matern(np.array([0.1]), np.array([0.4]), p1)
    b = _matern(np.array([0.2]), np.array([0.8]), p2)
    assert a == pytest.approx(b, abs=1e-15)


def test_matern52_unit_scaled_distance():
    p = _params([0.5], var=1.0)
    val = _matern(np.array([0.0]), np.array([0.5]), p)  # s = 1
    assert val == pytest.approx(MATERN_AT_S1, abs=1e-12)


def test_matern52_dimension_mismatch():
    p = _params([0.5])
    with pytest.raises(ValueError):
        continuous_cov(np.array([[0.1, 0.2]]), np.array([[0.3]]), p)
    # equal point dimensions that differ from the lengthscales must not broadcast
    with pytest.raises(ValueError):
        continuous_cov(np.array([[0.1, 0.2]]), np.array([[0.3, 0.4]]), p)
    with pytest.raises(ValueError):
        continuous_cov(np.array([[0.1, 0.2]]), np.array([[0.3, 0.4]]), p, family="rbf")


def test_matern52_monotone_in_distance():
    p = _params([1.0], var=1.0)
    s = np.linspace(0.0, 1.0, 400)
    vals = continuous_cov(np.zeros((1, 1)), s[:, None], p)[0]
    assert np.all(np.diff(vals) <= 1e-15)


def test_rbf_closed_form():
    p = _params([0.5], var=2.0)
    x1, x2 = np.array([[0.1]]), np.array([[0.6]])
    s2 = ((0.1 - 0.6) / 0.5) ** 2
    assert continuous_cov(x1, x2, p, family="rbf")[0, 0] == pytest.approx(
        2.0 * math.exp(-0.5 * s2), abs=1e-14
    )


def test_normalize_rows_unit_norm():
    B = np.array([[3.0, 4.0], [1.0, 0.0], [-2.0, 2.0]])
    N = normalize_rows(B)
    assert np.allclose(np.linalg.norm(N, axis=1), 1.0, atol=1e-14)


def test_normalize_rows_idempotent_bitwise():
    rng = np.random.default_rng(7)
    B = rng.normal(size=(5, 2))
    once = normalize_rows(B)
    twice = normalize_rows(once)
    assert np.array_equal(once, twice)


def test_seed_cov_diagonal_and_rank_one():
    B = np.ones((3, 1))
    p = SeedKernelParams(B=B, v=np.array([0.5, 0.0, 0.25]))
    assert seed_cov([1], [1], p)[0, 0] == pytest.approx(1.5, abs=1e-14)
    assert seed_cov([3], [3], p)[0, 0] == pytest.approx(1.25, abs=1e-14)
    # identical rows, v=0: perfectly correlated seeds
    q = SeedKernelParams(B=B, v=np.zeros(3))
    ids = np.arange(1, 4)
    assert np.abs(seed_cov(ids, ids, q) - 1.0).max() <= 1e-14


def test_seed_cov_range_check():
    p = SeedKernelParams(B=np.eye(2), v=np.zeros(2))
    with pytest.raises(ValueError):
        seed_cov([0], [1], p)
    with pytest.raises(ValueError):
        seed_cov([1], [3], p)


def test_seed_cov_psd_random_matrix():
    rng = np.random.default_rng(11)
    p = SeedKernelParams(B=rng.normal(size=(6, 2)), v=rng.uniform(0.0, 2.0, size=6))
    ids = np.arange(1, 7)
    K = seed_cov(ids, ids, p)
    assert np.allclose(K, K.T, atol=1e-15)
    assert np.linalg.eigvalsh(K).min() >= -1e-10


def test_cross_cov_diagonal_product():
    kern = JointKernel(
        continuous=_params([0.5], var=2.0),
        seed=SeedKernelParams(B=np.ones((2, 1)), v=np.array([0.3, 0.0])),
    )
    x = np.array([[0.4]])
    assert cross_cov(x, [1], x, [1], kern)[0, 0] == pytest.approx(2.0 * 1.3, abs=1e-14)


def test_cross_cov_orthogonal_seeds_vanish():
    # identity B rows with v=0: different seeds are uncorrelated at any x
    kern = JointKernel(
        continuous=_params([0.5]),
        seed=SeedKernelParams(B=np.eye(3), v=np.zeros(3)),
    )
    x = np.array([[0.2]])
    assert cross_cov(x, [1], x, [3], kern)[0, 0] == 0.0


def test_cross_cov_same_x_cross_seed():
    rng = np.random.default_rng(5)
    seed = SeedKernelParams(B=rng.normal(size=(4, 2)), v=rng.uniform(0, 1, 4))
    kern = JointKernel(continuous=_params([0.5], var=1.3), seed=seed)
    x = np.array([[0.4]])
    row2 = seed.B[1] / np.linalg.norm(seed.B[1])
    row4 = seed.B[3] / np.linalg.norm(seed.B[3])
    assert cross_cov(x, [2], x, [4], kern)[0, 0] == pytest.approx(
        1.3 * float(row2 @ row4), abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_cross_cov_symmetric(seed):
    rng = np.random.default_rng(seed)
    kern = JointKernel(
        continuous=_params(rng.uniform(0.1, 1.9, size=2), var=rng.uniform(0.1, 5.0)),
        seed=SeedKernelParams(B=rng.normal(size=(3, 2)), v=rng.uniform(0, 1, 3)),
    )
    x1, r1 = rng.uniform(0, 1, (1, 2)), [int(rng.integers(1, 4))]
    x2, r2 = rng.uniform(0, 1, (1, 2)), [int(rng.integers(1, 4))]
    assert cross_cov(x1, r1, x2, r2, kern)[0, 0] == cross_cov(x2, r2, x1, r1, kern)[0, 0]


def test_cross_cov_without_seed_kernel_is_continuous():
    p = _params([0.3, 0.6], var=1.4)
    rng = np.random.default_rng(3)
    X1, X2 = rng.uniform(0, 1, (4, 2)), rng.uniform(0, 1, (5, 2))
    kern = JointKernel(continuous=p, seed=None, family="rbf")
    assert np.array_equal(cross_cov(X1, None, X2, None, kern),
                          continuous_cov(X1, X2, p, family="rbf"))


def test_gram_single_point():
    kern = JointKernel(
        continuous=_params([0.5], var=2.0),
        seed=SeedKernelParams(B=np.ones((1, 1)), v=np.array([0.5])),
    )
    x, r = np.array([[0.3]]), np.array([1])
    G = cross_cov(x, r, x, r, kern)
    assert G.shape == (1, 1)
    assert G[0, 0] == pytest.approx(2.0 * 1.5, abs=1e-14)
    assert G[0, 0] == pytest.approx(_joint_oracle(x[0], 1, x[0], 1, kern), abs=1e-14)


def test_gram_duplicate_point_needs_jitter():
    kern = JointKernel(
        continuous=_params([0.5]),
        seed=SeedKernelParams(B=np.ones((1, 1)), v=np.zeros(1)),
    )
    X, r = np.array([[0.3], [0.3]]), np.array([1, 1])
    G = cross_cov(X, r, X, r, kern)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(G)
    np.linalg.cholesky(G + 1e-8 * np.eye(2))


def test_gram_matches_elementwise_oracle():
    """Every Gram entry equals a closed-form scalar recomputation."""
    rng = np.random.default_rng(13)
    kern = JointKernel(
        continuous=_params(rng.uniform(0.1, 1.5, size=2), var=0.8),
        seed=SeedKernelParams(B=rng.normal(size=(4, 2)), v=rng.uniform(0, 1, 4)),
    )
    pts = [(rng.uniform(0, 1, 2), int(rng.integers(1, 5))) for _ in range(20)]
    X = np.array([x for x, _ in pts])
    r = np.array([r for _, r in pts])
    G = cross_cov(X, r, X, r, kern)
    for a in range(20):
        for b in range(20):
            expected = _joint_oracle(X[a], int(r[a]), X[b], int(r[b]), kern)
            assert G[a, b] == pytest.approx(expected, abs=1e-14)


def test_gram_psd_within_tolerance():
    rng = np.random.default_rng(17)
    for _ in range(25):
        kern = JointKernel(
            continuous=_params(rng.uniform(0.05, 1.9, size=1), var=rng.uniform(0.2, 3)),
            seed=SeedKernelParams(B=rng.normal(size=(3, 2)), v=rng.uniform(0, 0.5, 3)),
        )
        pts = [(rng.uniform(0, 1, 1), int(rng.integers(1, 4))) for _ in range(12)]
        X = np.array([x for x, _ in pts])
        r = np.array([r for _, r in pts])
        G = cross_cov(X, r, X, r, kern)
        assert np.linalg.eigvalsh(G).min() >= -1e-8 * G.diagonal().max()


def test_safe_cholesky_escalates_then_fails():
    # a matrix with a negative eigenvalue cannot be rescued by tiny jitter
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NumericalError) as err:
        safe_cholesky(bad, jitter=1e-10, max_escalations=2)
    assert err.value.jitter > 1e-10


def test_safe_cholesky_recovers_semidefinite():
    a = np.ones((3, 3))  # rank one, singular
    L, j = safe_cholesky(a, jitter=1e-10)
    assert np.allclose(L @ L.T, a + j * np.eye(3), atol=1e-6)
