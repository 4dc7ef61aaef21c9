"""Search-space primitives: LHS designs, rescaling, discrepancies, transforms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajcal.dataspace import (
    Bounds,
    Dataset,
    DesignPoint,
    fit_transform,
    latin_hypercube,
    rescale,
    rmse,
    sse,
    unrescale,
)


def test_design_point_validates_domain():
    DesignPoint(x=np.array([0.0, 1.0]), r=1)
    with pytest.raises(ValueError):
        DesignPoint(x=np.array([1.2]), r=1)
    with pytest.raises(ValueError):
        DesignPoint(x=np.array([0.5]), r=0)


def test_bounds_ordering_enforced():
    Bounds(lower=np.array([0.0]), upper=np.array([1.0]))
    with pytest.raises(ValueError):
        Bounds(lower=np.array([1.0]), upper=np.array([1.0]))


def test_latin_hypercube_single_point():
    pts = latin_hypercube(1, 1, np.random.default_rng(0))
    assert pts.shape == (1, 1)
    assert 0.0 <= pts[0, 0] <= 1.0


def test_latin_hypercube_quartiles():
    # n=4, d=1: exactly one point per quartile
    pts = latin_hypercube(4, 1, np.random.default_rng(1))[:, 0]
    bins = np.floor(np.sort(pts) * 4).astype(int)
    assert bins.tolist() == [0, 1, 2, 3]


def test_latin_hypercube_hundred_bins():
    pts = latin_hypercube(100, 1, np.random.default_rng(2))[:, 0]
    bins = np.floor(np.sort(pts) * 100).astype(int)
    assert bins.tolist() == list(range(100))


def test_latin_hypercube_rejects_empty():
    with pytest.raises(ValueError):
        latin_hypercube(0, 1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        latin_hypercube(1, 0, np.random.default_rng(0))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=256),
    d=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_latin_hypercube_stratified_every_dimension(n, d, seed):
    """Each dimension puts exactly one point in each of the n strata."""
    pts = latin_hypercube(n, d, np.random.default_rng(seed))
    assert pts.shape == (n, d)
    for j in range(d):
        bins = np.floor(pts[:, j] * n).astype(int)
        bins = np.minimum(bins, n - 1)
        assert sorted(bins.tolist()) == list(range(n))


def test_rescale_endpoints():
    bounds = Bounds(lower=np.array([2.0, -1.0]), upper=np.array([4.0, 1.0]))
    assert np.allclose(rescale(np.zeros(2), bounds), bounds.lower)
    assert np.allclose(rescale(np.ones(2), bounds), bounds.upper)


def test_rescale_midpoint_value():
    # [0.05, 0.5] at u=0.5 lands on 0.275
    bounds = Bounds(lower=np.array([0.05]), upper=np.array([0.5]))
    assert rescale(np.array([0.5]), bounds)[0] == pytest.approx(0.275, abs=1e-15)


def test_rescale_rejects_outside_unit_cube():
    bounds = Bounds(lower=np.array([0.0]), upper=np.array([1.0]))
    with pytest.raises(ValueError):
        rescale(np.array([1.5]), bounds)


@settings(max_examples=60, deadline=None)
@given(
    u=st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=1, max_size=6),
    width=st.floats(min_value=0.1, max_value=100.0),
    offset=st.floats(min_value=-50.0, max_value=50.0),
)
def test_rescale_roundtrip(u, width, offset):
    d = len(u)
    bounds = Bounds(lower=np.full(d, offset), upper=np.full(d, offset + width))
    u = np.array(u)
    back = unrescale(rescale(u, bounds), bounds)
    assert np.all(np.abs(back - u) <= 1e-12 * np.maximum(np.abs(u), 1.0))


def test_sse_identity_and_hand_values():
    y = np.array([1.0, 2.0, 3.0])
    assert sse(y, y) == 0.0
    assert sse(np.array([1.0, 2.0]), np.array([0.0, 0.0])) == pytest.approx(5.0)


def test_sse_constant_offset():
    n, c = 7, 1.5
    y = np.arange(n, dtype=float)
    assert sse(y + c, y) == pytest.approx(n * c**2)


def test_sse_length_mismatch():
    with pytest.raises(ValueError):
        sse(np.array([1.0]), np.array([1.0, 2.0]))


def test_rmse_values():
    y = np.array([1.0, 2.0])
    assert rmse(y, y) == 0.0
    assert rmse(y + 2.0, y) == pytest.approx(2.0)
    assert rmse(np.array([3.0, 4.0]), np.array([0.0, 0.0])) == pytest.approx(
        3.5355339059327378, abs=1e-14
    )


def test_sse_nonnegative_and_zero_iff_equal():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.normal(size=5)
        b = rng.normal(size=5)
        assert sse(a, b) >= 0.0
        assert (sse(a, b) == 0.0) == bool(np.array_equal(a, b))


def test_fit_transform_degenerate_variance():
    tf, y_std = fit_transform(np.full(4, 3.7))
    assert tf.std == 1.0
    assert np.all(y_std == 0.0)


def test_fit_transform_hand_example():
    # logs of {e, e^3} are {1, 3}: mean 2, population std 1
    tf, y_std = fit_transform(np.array([math.e, math.e**3]))
    assert y_std == pytest.approx([-1.0, 1.0], abs=1e-12)
    assert tf.mean == pytest.approx(2.0, abs=1e-12)


def test_fit_transform_floors_zero():
    eps = 1e-12
    tf, _ = fit_transform(np.array([0.0, 1.0]), epsilon=eps)
    logs = np.log(np.maximum(np.array([0.0, 1.0]), eps))
    assert tf.mean == pytest.approx(logs.mean())


def test_fit_transform_rejects_empty():
    with pytest.raises(ValueError):
        fit_transform(np.array([]))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=1e-6, max_value=1e6),
        min_size=2,
        max_size=40,
    )
)
def test_fit_transform_standardizes(y_raw):
    y = np.array(y_raw)
    _, y_std = fit_transform(y)
    logs = np.log(np.maximum(y, 1e-12))
    if logs.std() > 1e-12:
        assert abs(y_std.mean()) <= 1e-10
        assert abs(y_std.std() - 1.0) <= 1e-10


def test_dataset_append_and_transform_refresh():
    X = np.array([[0.1], [0.9]])
    ds = Dataset(X, np.array([1, 2]), np.array([1.0, 4.0]))
    assert len(ds) == 2
    assert ds.iteration.tolist() == [0, 0]
    before = ds.y_std.copy()
    ds.append(np.array([[0.5]]), np.array([1]), np.array([9.0]), iteration=1)
    assert len(ds) == 3
    assert ds.iteration.tolist() == [0, 0, 1]
    # restandardization is global, so earlier entries move too
    assert not np.allclose(ds.y_std[:2], before)
    assert abs(ds.y_std.mean()) <= 1e-10


def test_dataset_incumbent_is_min_transformed():
    ds = Dataset(np.array([[0.1], [0.5], [0.9]]), np.array([1, 1, 2]),
                 np.array([3.0, 0.5, 7.0]))
    assert ds.incumbent() == pytest.approx(ds.y_std.min())


def test_dataset_joint_carries_seed_column():
    ds = Dataset(np.array([[0.25]]), np.array([4]), np.array([1.0]))
    joint = ds.joint()
    assert joint.shape == (1, 2)
    assert joint[0, 1] == 4.0


def test_dataset_rejects_non_finite_objectives():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            Dataset(np.array([[0.1], [0.5]]), np.array([1, 2]), np.array([1.0, bad]))
        ds = Dataset(np.array([[0.1]]), np.array([1]), np.array([1.0]))
        with pytest.raises(ValueError):
            ds.append(np.array([[0.5]]), np.array([2]), np.array([bad]), iteration=1)
        assert len(ds) == 1
        assert np.isfinite(ds.transform.mean) and np.isfinite(ds.transform.std)


def test_dataset_length_mismatch_rejected():
    with pytest.raises(ValueError):
        Dataset(np.array([[0.1]]), np.array([1, 2]), np.array([1.0]))
