"""Joint search space, experimental design, and objective transforms.

The search space couples continuous coordinates on the unit hypercube
``[0, 1]^d`` with a positive integer seed identifier.  Everything downstream
(kernels, emulators, grids, the workflow) operates on this normalized
representation; callers rescale to native units and map seed ids to
simulator-native seeds themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DesignPoint",
    "Bounds",
    "ObjectiveTransform",
    "Dataset",
    "latin_hypercube",
    "rescale",
    "unrescale",
    "sse",
    "rmse",
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
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        if x.ndim != 1:
            raise ValueError("x must be one-dimensional")
        if np.any(x < 0.0) or np.any(x > 1.0):
            raise ValueError(f"coordinates must lie in [0, 1], got {x}")
        if int(self.r) < 1:
            raise ValueError(f"seed id must be >= 1, got {self.r}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "r", int(self.r))

    @property
    def ndim(self) -> int:
        return self.x.shape[0]


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
        if np.any(lower >= upper):
            raise ValueError("require lower[i] < upper[i] for all i")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def ndim(self) -> int:
        return self.lower.shape[0]


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


def _check_unit(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if np.any(u < 0.0) or np.any(u > 1.0):
        raise ValueError("point lies outside the unit hypercube")
    return u


def rescale(u: np.ndarray, bounds: Bounds) -> np.ndarray:
    """Map unit-hypercube coordinates to native units.

    ``out[i] = lower[i] + u[i] * (upper[i] - lower[i])``.  Accepts a single
    point of shape ``(d,)`` or a batch of shape ``(n, d)``.
    """
    u = _check_unit(u)
    return bounds.lower + u * (bounds.upper - bounds.lower)


def unrescale(x: np.ndarray, bounds: Bounds) -> np.ndarray:
    """Inverse of :func:`rescale`: native units back to the unit hypercube."""
    x = np.asarray(x, dtype=float)
    return (x - bounds.lower) / (bounds.upper - bounds.lower)


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


def rmse(y_sim: np.ndarray, y_obs: np.ndarray) -> float:
    """Root mean squared error between two equal-length series."""
    return float(np.sqrt(sse(y_sim, y_obs) / np.asarray(y_sim).size))


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


def fit_transform(
    y_raw: np.ndarray, epsilon: float = DEFAULT_EPSILON
) -> tuple[ObjectiveTransform, np.ndarray]:
    """Fit the log-standardize transform to raw objective values.

    Logs are taken after flooring at ``epsilon``; the mean and population
    standard deviation of the logs define the standardization.  A degenerate
    sample (std below ``1e-12``) standardizes with std 1 so the transform
    stays total.

    Returns
    -------
    (ObjectiveTransform, ndarray)
        The fitted transform state and the transformed values.
    """
    y_raw = np.asarray(y_raw, dtype=float)
    if y_raw.ndim != 1 or y_raw.size == 0:
        raise ValueError("y_raw must be a nonempty 1-d array")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    logs = np.log(np.maximum(y_raw, epsilon))
    mean = float(np.mean(logs))
    std = float(np.std(logs))  # population (1/n) std, deterministic
    if std < STD_FLOOR:
        std = 1.0
    transform = ObjectiveTransform(epsilon=epsilon, mean=mean, std=std)
    return transform, (logs - mean) / std


class Dataset:
    """Append-only collection of evaluated design points.

    Stores the continuous coordinates, seed ids, raw discrepancies, their
    transformed values, and the acquisition iteration of every evaluation.
    ``y_std`` is refreshed (and the transform refitted) via
    :meth:`refresh_transform`, which the calibration loop calls before each
    emulator refit.

    Parameters
    ----------
    X : ndarray, shape (n, d)
        Continuous coordinates in the unit hypercube.
    seeds : ndarray, shape (n,)
        Integer seed ids, ``>= 1``.
    y_raw : ndarray, shape (n,)
        Raw scalar discrepancies (e.g. sum of squared errors); must be
        finite.
    iteration : ndarray of int, optional
        Acquisition iteration per point; defaults to 0 (initial design).
    """

    def __init__(self, X, seeds, y_raw, iteration=None, epsilon: float = DEFAULT_EPSILON):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        seeds = np.asarray(seeds, dtype=np.int64).ravel()
        y_raw = np.asarray(y_raw, dtype=float).ravel()
        if not (X.shape[0] == seeds.shape[0] == y_raw.shape[0]):
            raise ValueError("X, seeds, and y_raw must have equal lengths")
        if np.any(X < 0.0) or np.any(X > 1.0):
            raise ValueError("coordinates must lie in [0, 1]")
        if np.any(seeds < 1):
            raise ValueError("seed ids must be >= 1")
        if not np.all(np.isfinite(y_raw)):
            raise ValueError("y_raw must be finite")
        if iteration is None:
            iteration = np.zeros(X.shape[0], dtype=np.int64)
        else:
            iteration = np.asarray(iteration, dtype=np.int64).ravel()
            if iteration.shape[0] != X.shape[0]:
                raise ValueError("iteration must match the number of points")
        self._X = X
        self._seeds = seeds
        self._y_raw = y_raw
        self._iteration = iteration
        self._epsilon = float(epsilon)
        self.transform: ObjectiveTransform | None = None
        self._y_std: np.ndarray | None = None
        self.refresh_transform()

    def __len__(self) -> int:
        return self._X.shape[0]

    @property
    def ndim(self) -> int:
        return self._X.shape[1]

    @property
    def X(self) -> np.ndarray:
        return self._X

    @property
    def seeds(self) -> np.ndarray:
        return self._seeds

    @property
    def y_raw(self) -> np.ndarray:
        return self._y_raw

    @property
    def y_std(self) -> np.ndarray:
        return self._y_std

    @property
    def iteration(self) -> np.ndarray:
        return self._iteration

    def joint(self) -> np.ndarray:
        """Design matrix with the seed id appended as the last column."""
        return np.column_stack([self._X, self._seeds.astype(float)])

    def append(self, X, seeds, y_raw, iteration: int) -> None:
        """Append a batch of evaluated points acquired at ``iteration``."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        seeds = np.asarray(seeds, dtype=np.int64).ravel()
        y_raw = np.asarray(y_raw, dtype=float).ravel()
        if not (X.shape[0] == seeds.shape[0] == y_raw.shape[0]):
            raise ValueError("X, seeds, and y_raw must have equal lengths")
        if X.shape[0] == 0:
            return
        if X.shape[1] != self.ndim:
            raise ValueError(f"expected {self.ndim} columns, got {X.shape[1]}")
        if np.any(X < 0.0) or np.any(X > 1.0):
            raise ValueError("coordinates must lie in [0, 1]")
        if np.any(seeds < 1):
            raise ValueError("seed ids must be >= 1")
        if not np.all(np.isfinite(y_raw)):
            raise ValueError("y_raw must be finite")
        self._X = np.vstack([self._X, X])
        self._seeds = np.concatenate([self._seeds, seeds])
        self._y_raw = np.concatenate([self._y_raw, y_raw])
        self._iteration = np.concatenate(
            [self._iteration, np.full(X.shape[0], iteration, dtype=np.int64)]
        )
        self.refresh_transform()

    def refresh_transform(self) -> ObjectiveTransform:
        """Refit the log-standardize transform on all raw values."""
        self.transform, self._y_std = fit_transform(self._y_raw, self._epsilon)
        return self.transform

    def incumbent(self) -> float:
        """Best (minimum) transformed objective observed so far."""
        return float(np.min(self._y_std))
