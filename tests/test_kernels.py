"""Covariance functions over the joint (continuous, seed) space."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from trajcal import kernels
from trajcal.emulator import SeedKernelGP
from trajcal.errors import NumericalError
from trajcal.kernels import cross_cov, normalize_rows, safe_cholesky, seed_matrix

# (1 + sqrt(5) + 5/3) * exp(-sqrt(5)), evaluated in double precision
MATERN_AT_S1 = 0.5239941088318203


def _ls(ls):
    return np.atleast_1d(np.asarray(ls, float))


def _matern(x1, x2, ls, var=1.0):
    """Matérn-5/2 covariance of two single points via the matrix path."""
    return float(cross_cov(np.atleast_2d(x1), None, np.atleast_2d(x2), None, _ls(ls), var)[0, 0])


def _seed(B, v):
    """Seed matrix of a raw factor: rows normalized, then ``B B^T + diag(v)``."""
    return seed_matrix(normalize_rows(B), np.asarray(v, float))


def _joint_oracle(x1, r1, x2, r2, ls, var, B, v):
    """Closed-form product covariance of two points, one scalar at a time:
    variance * (1 + sqrt5 s + 5 s^2 / 3) exp(-sqrt5 s) times
    <b_r1, b_r2> / (|b_r1| |b_r2|) + [r1 == r2] v_r1."""
    s = math.sqrt(sum(((a - b) / l) ** 2 for a, b, l in zip(x1, x2, ls)))
    cont = var * (
        1.0 + math.sqrt(5.0) * s + 5.0 * s * s / 3.0) * math.exp(-math.sqrt(5.0) * s)
    b1, b2 = B[r1 - 1], B[r2 - 1]
    seed = float(b1 @ b2) / (math.sqrt(float(b1 @ b1)) * math.sqrt(float(b2 @ b2)))
    if r1 == r2:
        seed += float(v[r1 - 1])
    return cont * seed


def test_params_positivity_enforced():
    # the [1e-2, 2] x [1e-4, 1e2] boxes bound the optimizer, not the kernel;
    # a fixed kernel itself must have positive lengthscales and variance
    # and nonnegative v, checked once when the emulator is built
    with pytest.raises(ValueError):
        SeedKernelGP(ndim=1, fixed={"lengthscales": [0.0], "variance": 1.0})
    with pytest.raises(ValueError):
        SeedKernelGP(ndim=1, fixed={"lengthscales": [0.5], "variance": -1.0})
    with pytest.raises(ValueError):
        SeedKernelGP(ndim=1, nseeds=2, fixed={"lengthscales": [0.5], "variance": 1.0,
                                              "B": np.eye(2), "v": [-0.1, 0.0]})


def test_matern52_zero_distance_is_variance():
    x = np.array([0.2, 0.9])
    assert _matern(x, x, [0.3, 0.7], var=1.7) == pytest.approx(1.7, abs=1e-15)


def test_matern52_scaling_identity():
    # doubling coordinates and lengthscales together changes nothing
    a = _matern(np.array([0.1]), np.array([0.4]), [0.25])
    b = _matern(np.array([0.2]), np.array([0.8]), [0.5])
    assert a == pytest.approx(b, abs=1e-15)


def test_matern52_unit_scaled_distance():
    val = _matern(np.array([0.0]), np.array([0.5]), [0.5])  # s = 1
    assert val == pytest.approx(MATERN_AT_S1, abs=1e-12)


def test_matern52_dimension_mismatch():
    ls = _ls([0.5])
    with pytest.raises(ValueError):
        cross_cov(np.array([[0.1, 0.2]]), None, np.array([[0.3]]), None, ls, 1.0)
    # equal point dimensions that differ from the lengthscales must not broadcast
    with pytest.raises(ValueError):
        cross_cov(np.array([[0.1, 0.2]]), None, np.array([[0.3, 0.4]]), None, ls, 1.0)
    with pytest.raises(ValueError):
        cross_cov(np.array([[0.1, 0.2]]), None, np.array([[0.3, 0.4]]), None, ls, 1.0,
                  family="rbf")


def test_matern52_monotone_in_distance():
    s = np.linspace(0.0, 1.0, 400)
    vals = cross_cov(np.zeros((1, 1)), None, s[:, None], None, _ls([1.0]), 1.0)[0]
    assert np.all(np.diff(vals) <= 1e-15)


def test_rbf_closed_form():
    x1, x2 = np.array([[0.1]]), np.array([[0.6]])
    s2 = ((0.1 - 0.6) / 0.5) ** 2
    assert cross_cov(x1, None, x2, None, _ls([0.5]), 2.0, family="rbf")[0, 0] == pytest.approx(
        2.0 * math.exp(-0.5 * s2), abs=1e-14
    )


@pytest.mark.parametrize("family", ["matern52", "rbf"])
def test_kernel_functions_equal_the_textbook_expression(family):
    """Each family overwrites and returns its squared-distance argument,
    with the bits of the expression written out in numpy."""
    rng = np.random.default_rng(8)
    s2 = rng.uniform(0.0, 30.0, size=(37, 5))
    s2[0, :2] = 0.0
    variance = 1.7
    if family == "matern52":
        s = np.sqrt(s2)
        expected = variance * (1.0 + np.sqrt(5.0) * s + (5.0 / 3.0) * s2) * np.exp(-np.sqrt(5.0) * s)
    else:
        expected = variance * np.exp(-0.5 * s2)
    work = s2.copy()
    got = kernels.FROM_SQ_DISTS[family](work, variance)
    assert got is work
    assert np.array_equal(got, expected)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 20), m=st.integers(1, 20), d=st.integers(1, 12),
       exponents=st.lists(st.integers(-12, 12), min_size=2, max_size=2),
       seed=st.integers(0, 2**32 - 1))
def test_sq_dists_is_cdist(n, m, d, exponents, seed):
    """Squared distances carry cdist's bits, for the matrix form and for row
    pairs, at every dimension up to 12 and over wide magnitudes."""
    rng = np.random.default_rng(seed)
    lo, hi = sorted(exponents)
    X1 = rng.normal(size=(n, d)) * 10.0 ** rng.integers(lo, hi, size=(n, d), endpoint=True)
    X2 = rng.normal(size=(m, d)) * 10.0 ** rng.integers(lo, hi, size=(m, d), endpoint=True)
    want = cdist(X1, X2, "sqeuclidean")
    assert np.array_equal(kernels.sq_dists(X1, X2), want)
    i, j = rng.integers(0, n, 30), rng.integers(0, m, 30)
    assert np.array_equal(kernels.sq_dists(X1, X2, (i, j)), want[i, j])


def test_sq_dists_in_row_blocks_is_cdist():
    """A matrix larger than one block is computed in row blocks, with the
    same bits; 500 x 500 is the Thompson draw's candidate covariance."""
    rng = np.random.default_rng(8)
    for n, m, d in ((500, 500, 2), (301, 2000, 3), (kernels.BLOCK_CELLS + 5, 1, 1)):
        X1, X2 = rng.uniform(size=(n, d)), rng.uniform(size=(m, d))
        assert np.array_equal(kernels.sq_dists(X1, X2), cdist(X1, X2, "sqeuclidean"))


def test_normalize_rows_unit_norm():
    B = np.array([[3.0, 4.0], [1.0, 0.0], [-2.0, 2.0]])
    N = normalize_rows(B)
    assert np.allclose(np.linalg.norm(N, axis=1), 1.0, atol=1e-14)


def test_normalize_rows_rejects_a_zero_row():
    with pytest.raises(ValueError, match="cannot normalize a zero row"):
        normalize_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_normalize_rows_idempotent_bitwise():
    rng = np.random.default_rng(7)
    B = rng.normal(size=(5, 2))
    once = normalize_rows(B)
    twice = normalize_rows(once)
    assert np.array_equal(once, twice)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=math.pi), min_size=1, max_size=40))
def test_normalize_rows_leaves_angle_rows_bitwise(thetas):
    """Rows (cos t, sin t) with t in [0, pi] are left as they are, which is
    why the emulator's rank-2 fast path may skip normalizing them."""
    t = np.array(thetas)
    B = np.column_stack([np.cos(t), np.sin(t)])
    assert normalize_rows(B).tobytes() == B.tobytes()


def test_seed_cov_diagonal_and_rank_one():
    B = np.ones((3, 1))
    S = _seed(B, [0.5, 0.0, 0.25])
    assert S[0, 0] == pytest.approx(1.5, abs=1e-14)
    assert S[2, 2] == pytest.approx(1.25, abs=1e-14)
    # identical rows, v=0: perfectly correlated seeds
    assert np.abs(_seed(B, np.zeros(3)) - 1.0).max() <= 1e-14


def test_seed_cov_range_check():
    S = _seed(np.eye(2), np.zeros(2))
    x = np.array([[0.5]])
    with pytest.raises(ValueError):
        cross_cov(x, [0], x, [1], _ls([0.5]), 1.0, S)
    with pytest.raises(ValueError):
        cross_cov(x, [1], x, [3], _ls([0.5]), 1.0, S)


def test_seed_cov_psd_random_matrix():
    rng = np.random.default_rng(11)
    K = _seed(rng.normal(size=(6, 2)), rng.uniform(0.0, 2.0, size=6))
    assert np.allclose(K, K.T, atol=1e-15)
    assert np.linalg.eigvalsh(K).min() >= -1e-10


def test_cross_cov_rejects_an_unknown_family():
    x = np.array([[0.5]])
    with pytest.raises(ValueError, match="unknown kernel family 'cubic'"):
        cross_cov(x, None, x, None, _ls([0.5]), 1.0, family="cubic")


def test_bundled_openblas_yields_nothing_for_a_package_that_is_not_installed():
    assert list(kernels.bundled_openblas("no_such_package_here", "dpotrf_")) == []


def test_cross_cov_diagonal_product():
    S = _seed(np.ones((2, 1)), [0.3, 0.0])
    x = np.array([[0.4]])
    assert cross_cov(x, [1], x, [1], _ls([0.5]), 2.0, S)[0, 0] == pytest.approx(
        2.0 * 1.3, abs=1e-14)


def test_cross_cov_orthogonal_seeds_vanish():
    # identity B rows with v=0: different seeds are uncorrelated at any x
    S = _seed(np.eye(3), np.zeros(3))
    x = np.array([[0.2]])
    assert cross_cov(x, [1], x, [3], _ls([0.5]), 1.0, S)[0, 0] == 0.0


def test_cross_cov_same_x_cross_seed():
    rng = np.random.default_rng(5)
    B = rng.normal(size=(4, 2))
    S = _seed(B, rng.uniform(0, 1, 4))
    x = np.array([[0.4]])
    row2 = B[1] / np.linalg.norm(B[1])
    row4 = B[3] / np.linalg.norm(B[3])
    assert cross_cov(x, [2], x, [4], _ls([0.5]), 1.3, S)[0, 0] == pytest.approx(
        1.3 * float(row2 @ row4), abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_cross_cov_symmetric(seed):
    rng = np.random.default_rng(seed)
    kern = (rng.uniform(0.1, 1.9, size=2), rng.uniform(0.1, 5.0),
            _seed(rng.normal(size=(3, 2)), rng.uniform(0, 1, 3)))
    x1, r1 = rng.uniform(0, 1, (1, 2)), [int(rng.integers(1, 4))]
    x2, r2 = rng.uniform(0, 1, (1, 2)), [int(rng.integers(1, 4))]
    assert cross_cov(x1, r1, x2, r2, *kern)[0, 0] == cross_cov(x2, r2, x1, r1, *kern)[0, 0]


def test_cross_cov_without_seed_matrix_ignores_the_seed_ids():
    """With ``S`` None the seed ids are not read: any ids, out of range too,
    or None, give the same continuous kernel matrix."""
    ls = _ls([0.3, 0.6])
    rng = np.random.default_rng(3)
    X1, X2 = rng.uniform(0, 1, (4, 2)), rng.uniform(0, 1, (5, 2))
    want = cross_cov(X1, None, X2, None, ls, 1.4, None, family="rbf")
    for r1, r2 in (([1, 2, 3, 4], [5, 5, 5, 5, 5]), ([0, -1, 9, 2], None),
                   (None, rng.integers(1, 4, size=5)), (np.ones(4, int), [1.5] * 5)):
        assert np.array_equal(cross_cov(X1, r1, X2, r2, ls, 1.4, None, family="rbf"), want)


def test_gram_single_point():
    B, v = np.ones((1, 1)), np.array([0.5])
    x, r = np.array([[0.3]]), np.array([1])
    G = cross_cov(x, r, x, r, _ls([0.5]), 2.0, _seed(B, v))
    assert G.shape == (1, 1)
    assert G[0, 0] == pytest.approx(2.0 * 1.5, abs=1e-14)
    assert G[0, 0] == pytest.approx(_joint_oracle(x[0], 1, x[0], 1, [0.5], 2.0, B, v),
                                    abs=1e-14)


def test_gram_duplicate_point_needs_jitter():
    X, r = np.array([[0.3], [0.3]]), np.array([1, 1])
    G = cross_cov(X, r, X, r, _ls([0.5]), 1.0, _seed(np.ones((1, 1)), np.zeros(1)))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(G)
    np.linalg.cholesky(G + 1e-8 * np.eye(2))


def test_gram_matches_elementwise_oracle():
    """Every Gram entry equals a closed-form scalar recomputation."""
    rng = np.random.default_rng(13)
    ls, B, v = rng.uniform(0.1, 1.5, size=2), rng.normal(size=(4, 2)), rng.uniform(0, 1, 4)
    pts = [(rng.uniform(0, 1, 2), int(rng.integers(1, 5))) for _ in range(20)]
    X = np.array([x for x, _ in pts])
    r = np.array([r for _, r in pts])
    G = cross_cov(X, r, X, r, ls, 0.8, _seed(B, v))
    for a in range(20):
        for b in range(20):
            expected = _joint_oracle(X[a], int(r[a]), X[b], int(r[b]), ls, 0.8, B, v)
            assert G[a, b] == pytest.approx(expected, abs=1e-14)


def test_gram_psd_within_tolerance():
    rng = np.random.default_rng(17)
    for _ in range(25):
        kern = (rng.uniform(0.05, 1.9, size=1), rng.uniform(0.2, 3),
                _seed(rng.normal(size=(3, 2)), rng.uniform(0, 0.5, 3)))
        pts = [(rng.uniform(0, 1, 1), int(rng.integers(1, 4))) for _ in range(12)]
        X = np.array([x for x, _ in pts])
        r = np.array([r for _, r in pts])
        G = cross_cov(X, r, X, r, *kern)
        assert np.linalg.eigvalsh(G).min() >= -1e-8 * G.diagonal().max()


def test_safe_cholesky_escalates_then_fails():
    # a matrix with a negative eigenvalue cannot be rescued by tiny jitter
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NumericalError) as err:
        safe_cholesky(bad)
    # the floor 1e-12, then MAX_ESCALATIONS - 1 tenfold escalations
    assert err.value.jitter == pytest.approx(1e-12 * 10.0 ** (kernels.MAX_ESCALATIONS - 1))


def test_safe_cholesky_rejects_a_matrix_that_is_not_square():
    """LAPACK would read n x n entries of the array."""
    for a in (np.ones((3, 2)), np.ones(3), np.ones((2, 2, 2))):
        with pytest.raises(ValueError, match="square"):
            safe_cholesky(a)


def test_safe_cholesky_zero_covariance():
    """The zero matrix takes the jitter floor, so draws through its factor
    collapse onto the mean."""
    mean = np.array([1.0, -2.0])
    L, j = safe_cholesky(np.zeros((2, 2)))
    assert j > 0.0
    draws = mean + np.random.default_rng(0).standard_normal((5, 2)) @ L.T
    assert np.abs(draws - mean).max() <= 1e-4


def test_safe_cholesky_recovers_semidefinite():
    a = np.ones((3, 3))  # rank one, singular
    L, j = safe_cholesky(a)
    assert j > 0.0
    assert np.allclose(L @ L.T, a + j * np.eye(3), atol=1e-6)


def test_safe_cholesky_retries_with_the_bits_of_added_jitter():
    """Each retry factors the matrix ``a + j * I`` would give, bit for bit,
    negative zeros included (``a + j * I`` turns -0.0 into +0.0)."""
    q, _ = np.linalg.qr(np.random.default_rng(4).normal(size=(4, 4)))
    block = q @ np.diag([3.0, 1.0, 0.5, -5e-11]) @ q.T
    block = (block + block.T) / 2
    a = np.full((7, 7), -0.0)
    a[:4, :4] = block
    a[4:, 4:] = np.eye(3)
    before = a.copy()
    L, j = safe_cholesky(a)
    floor = 1e-12 * np.max(np.diag(a))
    for want in [0.0] + [floor * 10.0**e for e in range(5)]:
        try:
            expected = np.linalg.cholesky(a + want * np.eye(7) if want else a)
            break
        except np.linalg.LinAlgError:
            pass
    assert j == want and j >= 10.0 * floor  # at least two escalations
    assert np.array_equal(L.view(np.int64), expected.view(np.int64))
    assert np.array_equal(a.view(np.int64), before.view(np.int64))  # a untouched
