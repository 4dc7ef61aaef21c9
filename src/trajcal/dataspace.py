"""Joint search space, experimental design, and objective transforms.

The search space couples continuous coordinates on the unit hypercube
``[0, 1]^d`` with a positive integer seed identifier.  Everything downstream
(kernels, emulators, grids, the workflow) operates on this normalized
representation; callers rescale to native units and map seed ids to
simulator-native seeds themselves.  This module owns the design-array
checks (equal lengths, coordinates in ``[0, 1]``, seed ids ``>= 1``, finite
values); design points, datasets and candidate grids all run them.  It also
owns ``_check_int``, the check of every integer setting.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DesignPoint",
    "Bounds",
    "ObjectiveTransform",
    "Dataset",
    "latin_hypercube",
    "rescale",
    "reflect",
    "sse",
    "fit_transform",
]

#: Floor applied to raw objective values before the log transform.
DEFAULT_EPSILON = 1e-12

#: Sample standard deviations below this are treated as degenerate.
STD_FLOOR = 1e-12


@dataclass(frozen=True)
class DesignPoint:
    """A joint search-space element: unit-cube coordinates plus a seed id.

    Parameters
    ----------
    x : ndarray, shape (d,)
        Continuous coordinates, each in ``[0, 1]``.
    r : int
        Seed identifier, ``>= 1``.  Whether ``r`` fits the current
        seed-space size is checked by the component that owns that size.
    """

    x: np.ndarray
    r: int

    def __post_init__(self):
        x = np.array(self.x, dtype=float, ndmin=1)  # its own copy
        if x.ndim != 1:
            raise ValueError("x must be one-dimensional")
        _check_design(x[None, :], [self.r])
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "r", int(self.r))


@dataclass(frozen=True)
class Bounds:
    """Native-unit box bounds for the continuous coordinates."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower and upper must be 1-d arrays of equal length")
        if not np.all(np.isfinite(lower) & np.isfinite(upper) & (lower < upper)):
            raise ValueError("require finite lower[i] < upper[i] for all i")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)


def latin_hypercube(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Latin hypercube sample of ``n`` points in ``[0, 1]^d``.

    Each dimension is stratified: exactly one point falls in each of the
    ``n`` equal-width bins ``[i/n, (i+1)/n)``.

    Parameters
    ----------
    n : int
        Number of points, ``>= 1``.
    d : int
        Dimension, ``>= 1``.
    rng : numpy.random.Generator
        Source of randomness for strata permutations and in-bin offsets.

    Returns
    -------
    ndarray, shape (n, d)
    """
    if n < 1 or d < 1:
        raise ValueError(f"n and d must be >= 1, got n={n}, d={d}")
    out = np.empty((n, d))
    for j in range(d):
        perm = rng.permutation(n)
        out[:, j] = (perm + rng.random(n)) / n
    return out


def _check_int(name: str, value, minimum: int) -> None:
    """The one check of an integer setting: an int or a NumPy integer, not a
    bool, of at least ``minimum``; the message names the setting."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _check_no_bools(seeds, label: str = "") -> None:
    """Reject a boolean seed id, which asarray or a cast would make seed 1: a bool
    array's, or one in a list, a tuple or an object array; other arrays pass unscanned."""
    if isinstance(seeds, np.ndarray) and seeds.dtype != object:
        bools = seeds.ravel() if seeds.dtype == bool else ()
    else:
        bools = [s for s in np.asarray(seeds, dtype=object).ravel()
                 if isinstance(s, (bool, np.bool_))]
    if len(bools):
        raise ValueError(f"{label}seed ids must be integers >= 1, got {bools[0]}")


def _check_design(X, seeds, y_raw=None, label: str = ""):
    """Design arrays as new float ``(n, d)``, int64 ``(n,)`` and float ``(n,)``
    arrays, so a record that stores them owns them.

    The one owner of the design checks: equal lengths, coordinates in
    ``[0, 1]``, integer seed ids ``>= 1`` (integral floats pass, booleans
    do not) and, when ``y_raw`` is given, finite values.  ``label``
    prefixes the messages of the range checks.
    """
    X = np.array(X, dtype=float, ndmin=2)
    _check_no_bools(seeds, label)
    given = np.asarray(seeds).ravel()
    with np.errstate(invalid="ignore"):  # NaN and infinities cast to garbage, caught below
        seeds = given.astype(np.int64)
    if y_raw is None:
        if X.shape[0] != seeds.shape[0]:
            raise ValueError("X and seeds must have the same length")
    else:
        y_raw = np.array(y_raw, dtype=float).ravel()
        if not (X.shape[0] == seeds.shape[0] == y_raw.shape[0]):
            raise ValueError("X, seeds, and y_raw must have equal lengths")
    outside = np.flatnonzero(~np.all((X >= 0.0) & (X <= 1.0), axis=1))  # NaN is outside
    if outside.size:
        raise ValueError(f"{label}coordinates must lie in [0, 1], got {X[outside[0]]}")
    bad = np.flatnonzero((seeds != given) | (seeds < 1))
    if bad.size:
        raise ValueError(f"{label}seed ids must be integers >= 1, got {given[bad[0]]}")
    if y_raw is not None and not np.all(np.isfinite(y_raw)):
        raise ValueError("y_raw must be finite")
    return X, seeds, y_raw


def _check_unit(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if not np.all((u >= 0.0) & (u <= 1.0)):  # NaN is outside
        raise ValueError("point lies outside the unit hypercube")
    return u


def rescale(u: np.ndarray, bounds: Bounds) -> np.ndarray:
    """Map unit-hypercube coordinates to native units.

    ``out[i] = lower[i] + u[i] * (upper[i] - lower[i])``.  Accepts a single
    point of shape ``(d,)`` or a batch of shape ``(n, d)``.
    """
    u = _check_unit(u)
    return bounds.lower + u * (bounds.upper - bounds.lower)


def reflect(z: np.ndarray, extent: float) -> np.ndarray:
    """Fold coordinates into ``[0, extent]`` by reflection at both walls,
    in place; returns ``z``."""
    np.mod(z, 2.0 * extent, out=z)
    return np.subtract(2.0 * extent, z, out=z, where=z > extent)


def sse(y_sim: np.ndarray, y_obs: np.ndarray) -> float:
    """Sum of squared errors between two equal-length series."""
    y_sim = np.asarray(y_sim, dtype=float)
    y_obs = np.asarray(y_obs, dtype=float)
    if y_sim.shape != y_obs.shape or y_sim.ndim != 1 or y_sim.size < 1:
        raise ValueError(
            f"series must be nonempty 1-d arrays of equal length, "
            f"got {y_sim.shape} and {y_obs.shape}"
        )
    diff = y_sim - y_obs
    return float(diff @ diff)


@dataclass(frozen=True)
class ObjectiveTransform:
    """Log-then-standardize transform state for raw discrepancies.

    ``apply`` floors raw values at ``epsilon``, takes logs, and standardizes
    with the stored mean and (population) standard deviation.
    """

    epsilon: float
    mean: float
    std: float

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.std <= 0.0:
            raise ValueError("std must be positive")

    def apply(self, y_raw: np.ndarray) -> np.ndarray:
        y_raw = np.asarray(y_raw, dtype=float)
        logs = np.log(np.maximum(y_raw, self.epsilon))
        return (logs - self.mean) / self.std


def fit_transform(y_raw: np.ndarray) -> tuple[ObjectiveTransform, np.ndarray]:
    """Fit the log-standardize transform to raw objective values.

    Logs are taken after flooring at ``DEFAULT_EPSILON``; the mean and
    population standard deviation of the logs define the standardization.  A
    degenerate sample (std below ``1e-12``) standardizes with std 1 so the
    transform stays total.

    Returns
    -------
    (ObjectiveTransform, ndarray)
        The fitted transform state and the transformed values.
    """
    y_raw = np.asarray(y_raw, dtype=float)
    if y_raw.ndim != 1 or y_raw.size == 0:
        raise ValueError("y_raw must be a nonempty 1-d array")
    logs = np.log(np.maximum(y_raw, DEFAULT_EPSILON))
    mean = float(np.mean(logs))
    std = float(np.std(logs))  # population (1/n) std, deterministic
    if std < STD_FLOOR:
        std = 1.0
    transform = ObjectiveTransform(epsilon=DEFAULT_EPSILON, mean=mean, std=std)
    return transform, transform.apply(y_raw)


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Dataset:
    """Append-only collection of evaluated design points.

    A frozen record of read-only arrays: the continuous coordinates, seed
    ids, raw discrepancies, their transformed values, and the acquisition
    iteration of every evaluation, 0 for the points it is built with and
    the ``append`` argument after, each array its own copy.  Only
    :meth:`append` changes it: it replaces every field and refits the
    transform, so ``y_std`` always standardizes all raw values.

    Parameters
    ----------
    X : ndarray, shape (n, d)
        Continuous coordinates in the unit hypercube.
    seeds : ndarray, shape (n,)
        Integer seed ids, ``>= 1``.
    y_raw : ndarray, shape (n,)
        Raw scalar discrepancies (e.g. sum of squared errors); must be
        finite.
    """

    X: np.ndarray
    seeds: np.ndarray
    y_raw: np.ndarray
    iteration: np.ndarray
    transform: ObjectiveTransform
    y_std: np.ndarray

    def __init__(self, X, seeds, y_raw):
        X, seeds, y_raw = _check_design(X, seeds, y_raw)
        self._store(*fit_transform(y_raw), y_raw, X, seeds, np.zeros(X.shape[0], np.int64))

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def ndim(self) -> int:
        return self.X.shape[1]

    def append(self, X, seeds, y_raw, iteration: int) -> None:
        """Append a batch of evaluated points acquired at ``iteration``."""
        X, seeds, y_raw = _check_design(X, seeds, y_raw)
        if X.shape[1] != self.ndim:
            raise ValueError(f"expected {self.ndim} columns, got {X.shape[1]}")
        y_raw = np.concatenate([self.y_raw, y_raw])
        self._store(*fit_transform(y_raw), y_raw, np.vstack([self.X, X]),
                    np.concatenate([self.seeds, seeds]),
                    np.concatenate([self.iteration, np.full(X.shape[0], iteration, np.int64)]))

    def _store(self, transform, y_std, y_raw, X, seeds, iteration):
        """The one writer: freeze the arrays and set every field."""
        for name, value in zip(("y_std", "y_raw", "X", "seeds", "iteration"),
                               (y_std, y_raw, X, seeds, iteration)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "transform", transform)

    def incumbent(self) -> float:
        """Best (minimum) transformed objective observed so far."""
        return float(np.min(self.y_std))
