"""Covariance matrices over the joint (continuous, seed) search space.

A kernel is plain arrays: the lengthscales and variance of a stationary
kernel on the continuous coordinates (Matérn-5/2 by default,
squared-exponential as the alternative), and a k x k seed matrix ``S``, or
None.  ``S`` is the low-rank index kernel ``B B^T + diag(v)`` over seed ids;
:func:`seed_matrix` builds it from a factor ``B`` with unit-length rows
(:func:`normalize_rows` scales those of a given factor), so ``B B^T`` has a
unit diagonal.  The joint covariance is the product of the two, or the
continuous kernel alone when ``S`` is None.  The emulator builds it from
per-fit tables, checking the hyperparameters once; :func:`cross_cov`, the
tests' reference, builds it from scratch with every check.
:func:`sq_dists` has the bits of scipy's ``cdist(..., "sqeuclidean")``.
:func:`bundled_openblas` finds functions of the OpenBLAS that numpy or
scipy bundles, by package name, without importing the package.  ``_factor``
and ``_lapack_solve`` call numpy's LAPACK through it, with the bits of the
numpy and scipy wrappers, or call those wrappers where numpy bundles none.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import importlib.util
import os

import numpy as np

from .errors import NumericalError

__all__ = [
    "normalize_rows",
    "seed_matrix",
    "safe_cholesky",
]

# Hyperparameter boxes used by the emulator fit; sized for unit-hypercube
# inputs and standardized outputs.
LENGTHSCALE_BOUNDS = (1e-2, 2.0)
VARIANCE_BOUNDS = (1e-4, 1e2)
SEED_V_BOUNDS = (1e-6, 10.0)

#: Jitter escalations ``safe_cholesky`` tries before it gives up.
MAX_ESCALATIONS = 5

_SQRT5 = np.sqrt(5.0)

#: Entries of one ``sq_dists`` row block; its temporaries then stay in cache.
BLOCK_CELLS = 32768


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


def seed_matrix(B: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The k x k index kernel ``B B^T + diag(v)`` of a unit-row factor ``B``."""
    S = B @ B.T
    S.ravel()[:: S.shape[0] + 1] += v
    return S


def _matern52_from_s2(s2: np.ndarray, variance: float) -> np.ndarray:
    """``variance * (1 + sqrt5 s + (5/3) s2) * exp(-sqrt5 s)``, written
    over ``s2`` and returned; every operation rounds as in that expression."""
    s = np.sqrt(s2)  # squared distances, never negative
    s *= _SQRT5
    e = np.negative(s)
    np.exp(e, out=e)
    s += 1.0
    s2 *= 5.0 / 3.0
    s2 += s
    s2 *= variance
    s2 *= e
    return s2


def _rbf_from_s2(s2: np.ndarray, variance: float) -> np.ndarray:
    """``variance * exp(-s2 / 2)``, written over ``s2`` and returned."""
    s2 *= -0.5
    np.exp(s2, out=s2)
    s2 *= variance
    return s2


# Each family as a function of squared scaled distances and the variance;
# each overwrites its distance array, so callers pass one they own.
FROM_SQ_DISTS = {"matern52": _matern52_from_s2, "rbf": _rbf_from_s2}


def sq_dists(X1: np.ndarray, X2: np.ndarray, pairs=None) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``X1`` and ``X2``: the
    matrix, or with ``pairs=(i, j)`` only those of rows ``X1[i]`` and
    ``X2[j]``.  The squared differences are added in coordinate order, as
    scipy's ``cdist(X1, X2, "sqeuclidean")`` adds them, so with its bits.
    The matrix is built in blocks of rows of at most ``BLOCK_CELLS`` entries,
    whose temporaries stay in cache."""
    if pairs is not None:
        D = X1.take(pairs[0], axis=0)
        D -= X2.take(pairs[1], axis=0)
        D *= D
        out = D[:, 0].copy()
        for j in range(1, D.shape[1]):
            out += D[:, j]
        return out
    out = np.subtract.outer(X1[:, 0], X2[:, 0])
    rows = max(1, BLOCK_CELLS // max(1, X2.shape[0]))
    for start in range(0, X1.shape[0], rows):
        block = out[start:start + rows]
        block *= block
        for j in range(1, X1.shape[1]):
            diff = np.subtract.outer(X1[start:start + rows, j], X2[:, j])
            diff *= diff
            block += diff
    return out


def cross_cov(X1, r1, X2, r2, lengthscales, variance: float, S=None,
              family: str = "matern52") -> np.ndarray:
    """Product covariance matrix between two batches of joint points, with
    every check: the reference the emulator's per-fit path is tested against.

    ``X1``/``X2`` hold continuous coordinates (rows), ``r1``/``r2`` the
    matching 1-based seed ids into the seed matrix ``S``.  Without a seed
    matrix it is the continuous kernel alone, and the seed ids are ignored
    (and may be None).
    """
    if family not in FROM_SQ_DISTS:
        raise ValueError(f"unknown kernel family {family!r}")
    X1 = np.atleast_2d(np.asarray(X1, dtype=float))
    X2 = np.atleast_2d(np.asarray(X2, dtype=float))
    lengthscales = np.asarray(lengthscales, dtype=float)
    if X1.shape[1] != lengthscales.shape[0] or X2.shape[1] != lengthscales.shape[0]:
        raise ValueError("point dimensions must match the lengthscales")
    cont = FROM_SQ_DISTS[family](sq_dists(X1 / lengthscales, X2 / lengthscales), variance)
    if S is None:
        return cont
    r1 = np.asarray(r1, dtype=np.int64)
    r2 = np.asarray(r2, dtype=np.int64)
    k = S.shape[0]
    if np.any(r1 < 1) or np.any(r1 > k) or np.any(r2 < 1) or np.any(r2 > k):
        raise ValueError(f"seed ids must lie in 1..{k}")
    cont *= S.take(r1 - 1, axis=0).take(r2 - 1, axis=1)  # S[np.ix_(r1 - 1, r2 - 1)], faster
    return cont


def bundled_openblas(package: str, symbol: str):
    """Yield ``symbol`` from each OpenBLAS that the package named ``package``
    (numpy or scipy) bundles in ``<package>.libs``, skipping a library that
    is not loaded or lacks it; nothing on other builds, or where the package
    is not found.  The package is located, not imported."""
    try:
        spec = importlib.util.find_spec(package)
    except ImportError:  # an import hook may refuse the package outright
        return
    if spec is None or not spec.origin:
        return
    libs = os.path.join(os.path.dirname(os.path.dirname(spec.origin)), package + ".libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
        try:  # RTLD_NOLOAD only finds a library already loaded
            function = getattr(ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY), symbol)
        except (OSError, AttributeError):
            continue
        yield function


# ctypes argument types: character flags, 64-bit integers by reference, data
_C, _I, _P = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
_ARGTYPES = {"dpotrf": [_C, _I, _P, _I, _I], "dpotrs": [_C, _I, _I, _P, _I, _P, _I, _I],
             "dtrtrs": [_C, _C, _C, _I, _I, _P, _I, _P, _I, _I]}


@functools.cache
def _lapack(name: str):
    """LAPACK routine ``name`` (a key of ``_ARGTYPES``) from numpy's bundled
    OpenBLAS, whose ``dpotrf`` is the one ``np.linalg.cholesky`` calls, or
    None where numpy bundles none.  Not scipy's OpenBLAS: it is another
    release, whose Cholesky factors differ in the last bits."""
    function = next(bundled_openblas("numpy", f"scipy_{name}_64_"), None)
    if function is not None:
        function.argtypes = _ARGTYPES[name]
        function.restype = None
    return function


def _lapack_solve(name: str, flags, A: np.ndarray, B: np.ndarray, bound=None, **scipy_flags):
    """``dpotrs`` or ``dtrtrs`` with character ``flags`` on Fortran-ordered
    ``A`` and a copy of ``B``, as scipy's wrappers call them, without their
    checks; scipy's wrapper itself, with ``scipy_flags``, where numpy
    bundles no OpenBLAS.  ``bound``: ready ctypes arguments ``(n, nrhs, &A, X, &X, info)``."""
    if _lapack(name) is None:
        from scipy.linalg import lapack
        return getattr(lapack, name)(A, B, **scipy_flags)[0]
    if bound is None:
        A, X = np.asfortranarray(A, dtype=float), np.empty(np.shape(B), order="F")
        bound = (ctypes.c_int64(A.shape[0]), ctypes.c_int64(1 if X.ndim == 1 else X.shape[1]),
                 A.ctypes.data, X, X.ctypes.data, ctypes.c_int64(0))
    n, nrhs, a, X, x, info = bound
    X[...] = B
    _lapack(name)(*flags, n, nrhs, a, n, x, n, info)
    return X


def _factor(K: np.ndarray, bound=None):
    """Lower Cholesky factor of the lower triangle of Fortran-ordered ``K``, in place
    by ``np.linalg.cholesky``'s ``dpotrf`` (``bound``: its ready ctypes arguments
    ``(n, &K, info)``), new where numpy bundles none; None unless positive definite."""
    potrf = _lapack("dpotrf")
    if potrf is None:
        try:
            return np.linalg.cholesky(K)
        except np.linalg.LinAlgError:
            return None
    n, k, info = bound or (ctypes.c_int64(K.shape[0]), K.ctypes.data, ctypes.c_int64(0))
    potrf(b"L", n, k, n, info)
    return None if info.value else K


def safe_cholesky(a: np.ndarray):
    """Lower Cholesky factor of ``a + jitter * I``, from ``a``'s lower triangle.

    ``a`` itself is tried first; each failure sets the jitter to a
    matrix-scaled floor, then multiplies it by 10, up to
    ``MAX_ESCALATIONS`` times.  Each attempt factors one working copy in
    place with ``np.linalg.cholesky``'s ``dpotrf``, so with its bits.

    Returns
    -------
    (L, jitter) : (ndarray, float)
        The factor actually obtained, C-ordered with zeros above the
        diagonal, as numpy returns it, and the jitter it required.

    Raises
    ------
    NumericalError
        If no attempt factorizes; carries the final jitter tried.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:  # LAPACK reads n x n entries
        raise ValueError("need a square matrix")
    n = a.shape[0]
    scale = float(np.max(np.diag(a))) if n else 0.0
    floor = 1e-12 * max(1.0, scale)
    j = 0.0
    work = np.array(a, order="F")
    for attempt in range(MAX_ESCALATIONS + 1):
        tried = j
        if j > 0.0:  # the bits of a + j * I: + 0.0 turns -0.0 into +0.0, as adding 0 * I does
            np.add(a, 0.0, out=work)
            np.fill_diagonal(work, np.diag(a) + j)
        L = _factor(work)
        if L is not None:
            return np.tril(L), j
        j = j * 10.0 if j > 0.0 else floor
    raise NumericalError(
        f"Cholesky failed after {MAX_ESCALATIONS} jitter escalations", jitter=tried
    )
