"""Covariance matrices over the joint (continuous, seed) search space.

Continuous coordinates use a stationary kernel (Matérn-5/2 by default,
squared-exponential as the alternative).  Seed ids use a low-rank index
kernel ``B B^T + diag(v)`` whose ``B`` rows are normalized to unit length so
``B B^T`` has a unit diagonal.  The joint covariance is their product, or
the continuous kernel alone when a :class:`JointKernel` carries no seed
kernel.  Every function works on batches of points and returns a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial.distance import cdist

from .errors import NumericalError

__all__ = [
    "ContinuousKernelParams",
    "SeedKernelParams",
    "JointKernel",
    "continuous_cov",
    "normalize_rows",
    "seed_cov",
    "cross_cov",
    "safe_cholesky",
]

# Hyperparameter boxes used by the emulator fit; sized for unit-hypercube
# inputs and standardized outputs.
LENGTHSCALE_BOUNDS = (1e-2, 2.0)
VARIANCE_BOUNDS = (1e-4, 1e2)
SEED_V_BOUNDS = (0.0, 10.0)

CONTINUOUS_FAMILIES = ("matern52", "rbf")

_SQRT5 = np.sqrt(5.0)


@dataclass(frozen=True)
class ContinuousKernelParams:
    """Stationary-kernel hyperparameters for the continuous coordinates."""

    lengthscales: np.ndarray
    variance: float

    def __post_init__(self):
        ls = np.atleast_1d(np.asarray(self.lengthscales, dtype=float))
        if ls.ndim != 1 or np.any(ls <= 0.0):
            raise ValueError("lengthscales must be a 1-d array of positive reals")
        if self.variance <= 0.0:
            raise ValueError("variance must be positive")
        object.__setattr__(self, "lengthscales", ls)
        object.__setattr__(self, "variance", float(self.variance))

    @property
    def ndim(self) -> int:
        return self.lengthscales.shape[0]


def normalize_rows(B: np.ndarray) -> np.ndarray:
    """Scale each row of ``B`` to unit Euclidean norm.

    Rows whose norm is already within a few ulps of 1 are returned
    untouched, which makes the operation idempotent bitwise.
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    norms = np.linalg.norm(B, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize a zero row")
    needs = np.abs(norms - 1.0) > 8 * np.finfo(float).eps
    if not np.any(needs):
        return B.copy()
    out = B.copy()
    out[needs] = B[needs] / norms[needs, None]
    return out


@dataclass(frozen=True)
class SeedKernelParams:
    """Low-rank index-kernel parameters over ``k`` seeds.

    Parameters
    ----------
    B : ndarray, shape (k, q)
        Low-rank factor; rows are normalized to unit norm on evaluation so
        ``B B^T`` has a unit diagonal.
    v : ndarray, shape (k,)
        Nonnegative per-seed diagonal inflation.
    """

    B: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        v = np.atleast_1d(np.asarray(self.v, dtype=float))
        if B.ndim != 2:
            raise ValueError("B must be a 2-d array")
        if v.ndim != 1 or v.shape[0] != B.shape[0]:
            raise ValueError("v must be 1-d with one entry per row of B")
        if np.any(v < 0.0):
            raise ValueError("v entries must be nonnegative")
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "v", v)

    @property
    def nseeds(self) -> int:
        return self.B.shape[0]

    @property
    def rank(self) -> int:
        return self.B.shape[1]

    @cached_property
    def matrix(self) -> np.ndarray:
        """The full k x k index-kernel matrix ``B B^T + diag(v)``."""
        Bn = normalize_rows(self.B)
        return Bn @ Bn.T + np.diag(self.v)


@dataclass(frozen=True)
class JointKernel:
    """Product kernel: a stationary continuous kernel times a seed index kernel.

    ``seed=None`` fixes the seed factor to 1, so seed ids are ignored.
    """

    continuous: ContinuousKernelParams
    seed: SeedKernelParams | None
    family: str = "matern52"

    def __post_init__(self):
        if self.family not in CONTINUOUS_FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")


def _scaled_sq_dists(X1, X2, lengthscales) -> np.ndarray:
    X1 = np.atleast_2d(np.asarray(X1, dtype=float))
    X2 = np.atleast_2d(np.asarray(X2, dtype=float))
    if X1.shape[1] != lengthscales.shape[0] or X2.shape[1] != lengthscales.shape[0]:
        raise ValueError("point dimensions must match the lengthscales")
    return cdist(X1 / lengthscales, X2 / lengthscales, "sqeuclidean")


def _matern52_from_s2(s2: np.ndarray, variance: float) -> np.ndarray:
    s = np.sqrt(np.maximum(s2, 0.0))
    return variance * (1.0 + _SQRT5 * s + (5.0 / 3.0) * s2) * np.exp(-_SQRT5 * s)


def _rbf_from_s2(s2: np.ndarray, variance: float) -> np.ndarray:
    return variance * np.exp(-0.5 * s2)


def continuous_cov(X1, X2, params: ContinuousKernelParams, family: str = "matern52") -> np.ndarray:
    """Stationary covariance matrix between two sets of continuous points."""
    s2 = _scaled_sq_dists(X1, X2, params.lengthscales)
    if family == "matern52":
        return _matern52_from_s2(s2, params.variance)
    if family == "rbf":
        return _rbf_from_s2(s2, params.variance)
    raise ValueError(f"unknown kernel family {family!r}")


def seed_cov(r1, r2, params: SeedKernelParams) -> np.ndarray:
    """Index-kernel matrix between two arrays of seed ids (1-based)."""
    r1 = np.asarray(r1, dtype=np.int64)
    r2 = np.asarray(r2, dtype=np.int64)
    k = params.nseeds
    if np.any(r1 < 1) or np.any(r1 > k) or np.any(r2 < 1) or np.any(r2 > k):
        raise ValueError(f"seed ids must lie in 1..{k}")
    return params.matrix[np.ix_(r1 - 1, r2 - 1)]


def cross_cov(X1, r1, X2, r2, kernel: JointKernel) -> np.ndarray:
    """Product covariance matrix between two batches of joint points.

    ``X1``/``X2`` hold continuous coordinates (rows), ``r1``/``r2`` the
    matching 1-based seed ids.  Without a seed kernel the seed ids are
    ignored (and may be None).
    """
    cont = continuous_cov(X1, X2, kernel.continuous, kernel.family)
    if kernel.seed is None:
        return cont
    return cont * seed_cov(r1, r2, kernel.seed)


def safe_cholesky(a: np.ndarray, jitter: float = 0.0, max_escalations: int = 5):
    """Lower Cholesky factor of ``a + jitter * I`` with escalating jitter.

    The initial jitter is tried first; each failure multiplies it by 10
    (starting from a matrix-scaled floor when the initial jitter is zero),
    up to ``max_escalations`` times.

    Returns
    -------
    (L, jitter) : (ndarray, float)
        The factor actually obtained and the jitter it required.

    Raises
    ------
    NumericalError
        If no attempt factorizes; carries the final jitter tried.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    scale = float(np.max(np.diag(a))) if n else 0.0
    floor = 1e-12 * max(1.0, scale)
    j = float(jitter)
    tried = j
    for attempt in range(max_escalations + 1):
        tried = j
        try:
            m = a + j * np.eye(n) if j > 0.0 else a
            return np.linalg.cholesky(m), j
        except np.linalg.LinAlgError:
            j = j * 10.0 if j > 0.0 else floor
    raise NumericalError(
        f"Cholesky failed after {max_escalations} jitter escalations", jitter=tried
    )
