"""Gaussian-process emulator over the joint (continuous, seed) space.

One GP class, :class:`SeedKernelGP`.  Its covariance is a stationary
kernel on the continuous coordinates times a low-rank seed index kernel
``B B^T + diag(v)`` (the intrinsic coregionalization model).  Each unit
row of ``B`` is stored as ``rank - 1`` hyperspherical angles in [0, pi],
at every rank, so the rows lie in the half-sphere whose last entry is
nonnegative and rank 1 is one factor shared by all seeds.  Built without
a seed space (``nseeds=None``) the seed factor is fixed to 1: the GP ignores
the seed ids and serves as the seed-agnostic baseline.  Hyperparameters
are chosen by maximizing the log marginal likelihood with multi-start
bounded Nelder-Mead on the angles and log-transformed other parameters;
:func:`minimize` is a port of scipy's, with its evaluations and bits.

There is one kernel path, on arrays: ``_hyper`` decodes a packed vector,
or the ``fixed=`` values checked once in the constructor, into
lengthscales, a variance, a seed table (the baseline's is the constant
``[[1.0]]``) and a nugget.  The nugget is estimated in the box
``NUGGET_BOUNDS``; only a ``fixed=`` kernel pins it.  Each ``fit`` builds a
workspace kept while the optimizer runs, one n x n buffer that
``_fill_cov`` writes each distinct training pair into once, and
``_finalize`` decodes the chosen parameters once for prediction.
``_cross`` builds every other covariance from the per-fit tables: training
against new points, and a joint draw's new against new.  ``_project``,
``V = L^-1 K(X, x*)`` and the mean ``K(x*, X) alpha`` (Rasmussen & Williams,
GPML, Alg. 2.1), serves ``predict_mean_var``, which takes one seed id or a
row of ids per point, and the joint ``_posterior`` that ``sample`` draws
from.  The training block and a joint draw's share one layout: the lower
triangle of a Fortran-ordered array is read, and what lies above it is
not.  LAPACK runs through ``kernels``' bindings, bitwise numpy's and scipy's.
"""

from __future__ import annotations

import ctypes
import math
import types
from itertools import accumulate

import numpy as np

from . import kernels
from .dataspace import _check_int, _check_no_bools, latin_hypercube
from .errors import NotFittedError
from .kernels import (
    LENGTHSCALE_BOUNDS,
    SEED_V_BOUNDS,
    VARIANCE_BOUNDS,
    _factor,
    _lapack_solve,
    normalize_rows,
    safe_cholesky,
)

__all__ = ["SeedKernelGP"]

NUGGET_BOUNDS = (1e-8, 1.0)

_LOG_2PI = math.log(2.0 * math.pi)

# the baseline's seed table: every id reads the exact factor 1
_ONE_SEED = np.ones((1, 1))
_ONE_SEED.setflags(write=False)


def _chol_lml(L: np.ndarray, Y: np.ndarray, bound=None):
    """Log marginal likelihood and ``K^-1 Y`` from a lower Cholesky factor of
    K, of which only the lower triangle is read; ``bound`` as in ``_lapack_solve``."""
    alpha = _lapack_solve("dpotrs", (b"L",), L, Y, bound, lower=True)  # cho_solve's routine
    n = Y.shape[0]
    lml = -0.5 * float(Y @ alpha) - float(np.log(L.diagonal()).sum()) - 0.5 * n * _LOG_2PI
    return lml, alpha


class _MaxFev(Exception):
    """``minimize``'s objective was called at its evaluation cap."""


def minimize(fun, x0, lo, hi, maxfev: int):
    """Minimize ``fun`` from ``x0`` in the box ``[lo, hi]``: scipy's bounded
    ``minimize(method="Nelder-Mead")`` with ``maxfev``, ``xatol=1e-4``,
    ``fatol=1e-6`` and ``adaptive=True``, ported step for step, so with its
    evaluations and bits, and with no iteration cap.  ``fun`` must not
    modify its argument.  Returns ``x``, ``fun``, ``nfev`` and ``status``
    (1 when stopped at ``maxfev``, else 0), and ``fun_x0``, the first
    evaluation, of ``x0`` clipped to the box (``maxfev`` is at least 1)."""
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:  # ends the iteration it falls in, as scipy's cap does
            raise _MaxFev
        nfev += 1
        return fun(x)

    def move(c):  # (1 + c) xbar - c x_worst, clipped: c is 1, chi, psi or -psi
        return np.clip((1 + c) * xbar - c * sim[-1], lo, hi)

    N = x0.shape[0]
    chi, psi, sigma = 1 + 2 / N, 0.75 - 1 / (2 * N), 1 - 1 / N
    x0 = np.clip(x0, lo, hi)
    sim = np.tile(x0, (N + 1, 1))
    np.fill_diagonal(sim[1:], np.where(x0 != 0, (1 + 0.05) * x0, 0.00025))
    sim = np.clip(np.where(sim > hi, 2 * hi - sim, sim), lo, hi)
    fsim = np.full(N + 1, np.inf)
    try:
        for k in range(N + 1):
            fsim[k] = f(sim[k])
    except _MaxFev:
        pass
    fun_x0 = fsim[0]
    ind = np.argsort(fsim)  # scipy sorts twice before its loop; a second sort may reorder ties
    sim, fsim = sim[ind], fsim[ind]
    while True:
        ind = np.argsort(fsim)
        sim, fsim = sim[ind], fsim[ind]
        if nfev >= maxfev or (np.max(np.abs(sim[1:] - sim[0])) <= 1e-4
                              and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-6):
            break
        try:
            xbar = np.add.reduce(sim[:-1], 0) / N
            xr = move(1)
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = move(chi)
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:  # contract outside, or inside when xr is no better than the worst
                inside = fxr >= fsim[-1]
                xc = move(-psi if inside else psi)
                fxc = f(xc)
                if (fxc < fsim[-1]) if inside else (fxc <= fxr):
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink towards the best vertex
                    for j in range(1, N + 1):
                        sim[j] = np.clip(sim[0] + sigma * (sim[j] - sim[0]), lo, hi)
                        fsim[j] = f(sim[j])
        except _MaxFev:
            pass
    return types.SimpleNamespace(x=sim[0], fun=np.min(fsim), nfev=nfev,
                                 status=int(nfev >= maxfev), fun_x0=fun_x0)


class SeedKernelGP:
    """GP whose covariance is a continuous kernel times an optional seed kernel.

    Inputs are coordinates ``X`` of shape ``(n, ndim)`` and, with a seed
    space, one integer seed id in 1..k per row, as their own array.  The
    seed kernel is ``B B^T + diag(v)`` with unit-norm rows of ``B``; by
    default ``B`` has rank ``min(2, nseeds)`` and ``v`` is tied across seeds
    during fitting (the model itself stores a per-seed vector).  A fitted
    ``B`` row has a nonnegative last entry; at rank 1 every row is 1.  Without a
    seed space the seed ids are ignored and may be None.

    Parameters
    ----------
    ndim : int
        Number of continuous coordinates.
    nseeds : int or None
        Current seed-space size ``k``; grow it with ``expand_seed_space``.
        ``None`` fixes the seed factor to 1; ``rank`` and ``per_seed_v``
        then have no effect and ``expand_seed_space`` does nothing.
    rank : int, optional
        Rank of ``B``; defaults to ``min(2, nseeds)``, resolved again as the
        seed space grows, while a given rank never changes.  Rank 1 fits no
        seed correlations: ``B B^T`` is all ones.
    family : {"matern52", "rbf"}
        Stationary kernel family.
    nstarts : int
        Number of Latin-hypercube optimizer starts, at least 1.
    per_seed_v : bool
        Fit one diagonal-inflation entry per seed instead of a shared one.
    maxfev : int, optional
        Cap on likelihood evaluations per start, at least 1; defaults to
        ``min(250 * parameters, 3000)``.
    fixed : dict, optional
        ``{"lengthscales", "variance", "nugget"}`` plus ``"B"`` and ``"v"``
        with a seed space, and no other key; only the nugget may be left
        out.  When given, ``fit`` skips optimization and uses these values.
        All must be finite; lengthscales and variance
        positive, ``v`` nonnegative and the nugget, ``NUGGET_BOUNDS[0]``
        when omitted, at least that.

    Attributes
    ----------
    lengthscales, variance, seed_matrix
        The fitted kernel: lengthscales (d,), variance, and the k x k seed
        matrix ``B B^T + diag(v)`` with unit-norm ``B`` rows (None without a
        seed space).  All three are None before the first fit.
    """

    def __init__(self, ndim: int, nseeds: int | None = None, rank: int | None = None,
                 family: str = "matern52", nstarts: int = 5,
                 per_seed_v: bool = False, maxfev: int | None = None,
                 fixed: dict | None = None):
        for name, value in (("ndim", ndim), ("nseeds", nseeds), ("rank", rank),
                            ("nstarts", nstarts), ("maxfev", maxfev)):
            if value is not None:
                _check_int(name, value, 1)
        if family not in kernels.FROM_SQ_DISTS:
            raise ValueError(f"unknown kernel family {family!r}")
        self.nstarts = int(nstarts)
        self.maxfev = maxfev
        self.ndim = int(ndim)
        self.nseeds = None if nseeds is None else int(nseeds)
        self.rank = None
        self._default_rank = rank is None  # then the rank follows the seed space
        if self.seeded:
            self.rank = int(rank) if rank is not None else min(2, self.nseeds)
            if not (1 <= self.rank <= self.nseeds):
                raise ValueError("rank must lie in 1..nseeds")
        self.family = family
        self.per_seed_v = bool(per_seed_v)
        self.lengthscales = self.variance = self._S = self.nugget = None  # the fitted kernel
        self._fixed = None
        self._fitted = False
        self._warm = None
        self.fit_report = None
        self.lml = None
        if fixed is not None:
            keys = ("lengthscales", "variance", "nugget") + (("B", "v") if self.seeded else ())
            for key in fixed:
                if key not in keys:
                    raise ValueError(f"unknown fixed key {key!r}; the keys are {', '.join(keys)}")
            for key in keys:
                if key not in fixed and key != "nugget":
                    raise ValueError(f"fixed key {key!r} is missing")
            ls = np.atleast_1d(np.asarray(fixed["lengthscales"], dtype=float))
            variance = float(fixed["variance"])
            if ls.shape != (self.ndim,):
                raise ValueError("fixed lengthscales must have one entry per dimension")
            if not (np.isfinite(ls).all() and (ls > 0.0).all()):
                raise ValueError("fixed lengthscales must be finite and positive")
            if not (math.isfinite(variance) and variance > 0.0):
                raise ValueError("fixed variance must be finite and positive")
            S = _ONE_SEED
            if self.seeded:
                B = np.atleast_2d(np.asarray(fixed["B"], dtype=float))
                v = np.atleast_1d(np.asarray(fixed["v"], dtype=float))
                if B.ndim != 2 or B.shape[0] != self.nseeds:
                    raise ValueError("fixed B must have one row per seed")
                if not np.isfinite(B).all():
                    raise ValueError("fixed B must be finite")
                if v.shape != (self.nseeds,) or not (np.isfinite(v).all() and (v >= 0.0).all()):
                    raise ValueError("fixed v must hold one finite nonnegative entry per seed")
                self.rank = B.shape[1]
                S = kernels.seed_matrix(normalize_rows(B), v)
            g = float(fixed.get("nugget", NUGGET_BOUNDS[0]))
            if not (math.isfinite(g) and g >= NUGGET_BOUNDS[0]):
                raise ValueError(f"fixed nugget must be finite and at least {NUGGET_BOUNDS[0]}")
            self._fixed = (ls, variance, S, g)
        self._set_layout()

    @property
    def seeded(self) -> bool:
        """Whether the covariance carries a seed factor."""
        return self.nseeds is not None

    @property
    def seed_matrix(self):
        """The fitted seed matrix; None without a seed space or before the first fit."""
        return self._S if self.seeded else None

    def _set_layout(self):
        """Store the slices of the packed vector's blocks, in order: log
        lengthscales (d), log variance, B (``rank - 1`` angles per seed, so
        none at rank 1), log v (one, or one per seed) and log nugget.  The
        B and v blocks are empty without a seed space.  The one owner of
        the layout; it changes only with the seed space."""
        k = self.nseeds or 0
        sizes = (self.ndim, 1, k * ((self.rank or 1) - 1),
                 k if self.per_seed_v else min(k, 1), 1)
        self._blocks = [slice(end - n, end) for n, end in zip(sizes, accumulate(sizes))]

    def _pack_bounds(self):
        if self._fixed is not None:
            return np.empty(0), np.empty(0)
        boxes = (LENGTHSCALE_BOUNDS, VARIANCE_BOUNDS, None, SEED_V_BOUNDS, NUGGET_BOUNDS)
        lo, hi = [], []
        for block, box in zip(self._blocks, boxes):
            # B's angles lie in [0, pi]; every other block is log-scaled
            a, b = (0.0, math.pi) if box is None else (math.log(box[0]), math.log(box[1]))
            lo += [a] * (block.stop - block.start)
            hi += [b] * (block.stop - block.start)
        return np.array(lo), np.array(hi)

    def _decode(self, packed):
        """``(lengthscales, variance, B, v, nugget)`` of a packed vector, with
        ``B`` and ``v`` None without a seed space.  Row i of ``B`` is the unit
        vector ``(cos a_1, sin a_1 cos a_2, ..., sin a_1 ... sin a_{rank-1})``
        of seed i's angles a, so ``(cos a, sin a)`` at rank 2 and 1 at rank 1."""
        ls_block, var_block, b_block, v_block, nugget_block = self._blocks
        logs = np.exp(packed)  # one call for every log-scaled block; the angles' go unused
        ls, variance = logs[ls_block], float(logs[var_block.start])
        nugget = float(logs[nugget_block.start])
        if not self.seeded:
            return ls, variance, None, None, nugget
        angles = packed[b_block].reshape(self.nseeds, self.rank - 1)
        sines = np.sin(angles)
        B = np.empty((self.nseeds, self.rank))
        np.cos(angles, out=B[:, :-1])
        np.multiply.reduce(sines, axis=1, out=B[:, -1])  # the empty product is 1
        for j in range(1, self.rank - 1):
            B[:, j:-1] *= sines[:, j - 1, None]
        v = logs[v_block]
        if v.shape[0] == 1:
            v = v.repeat(self.nseeds)
        return ls, variance, B, v, nugget

    def _hyper(self, packed):
        """``(lengthscales, variance, seed table, nugget)`` of a packed
        vector, or the fixed kernel when there is one.

        Raises ``ValueError`` for lengthscales or a variance that underflow
        to 0.  The decoded ``B`` rows are unit length to within a few ulps,
        so the seed matrix is built from them as they are.
        """
        if self._fixed is not None:
            return self._fixed
        ls, variance, B, v, nugget = self._decode(packed)
        # exp underflows to 0 far outside the box
        if variance == 0.0 or not ls.all():
            raise ValueError("lengthscales and variance must be positive")
        return ls, variance, _ONE_SEED if B is None else kernels.seed_matrix(B, v), nugget

    def _check_inputs(self, X, seeds):
        """Finite float ``(m, ndim)`` coordinates and int64 seed ids, one or a
        row per point, ``(m,)`` or ``(m, j)``; without a seed space the ids are
        all 1, in the shape given (``(m,)`` for None)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.ndim:
            raise ValueError(f"expected {self.ndim} coordinate columns, got {X.shape[1]}")
        if not np.isfinite(X).all():
            raise ValueError("coordinates X must be finite")
        r = np.asarray(seeds if seeds is not None or self.seeded else np.ones(X.shape[0]))
        if r.ndim not in (1, 2) or r.shape[0] != X.shape[0]:
            raise ValueError("need one seed id, or one row of seed ids, per point")
        if not self.seeded:
            return X, np.ones(r.shape, np.int64)
        _check_no_bools(seeds)
        if not np.issubdtype(r.dtype, np.integer) \
                or r.size and not 1 <= r.min() <= r.max() <= self.nseeds:
            raise ValueError(f"need one integer seed id in 1..{self.nseeds} per point")
        return X, r.astype(np.int64, copy=False)

    def _set_train(self, X, seeds, Y):
        """Store the training data and the workspace fixed for one fit: an
        n x n buffer ``_K``, whose transpose holds the covariance in its
        lower triangle, and the indices that fill it."""
        X, r = self._check_inputs(X, seeds)
        n = X.shape[0]
        if r.ndim != 1:
            raise ValueError("need one seed id per training point")
        if n != Y.shape[0]:
            raise ValueError("X and Y must have the same number of rows")
        if n < 2:
            raise ValueError("need at least 2 training points")
        if not np.isfinite(Y).all():
            raise ValueError("objective values Y must be finite")
        self._train = (X, r)
        self._Y = Y.copy()
        self._upper = np.triu(np.ones((n, n), dtype=bool), 1)
        self._pairs = np.nonzero(self._upper)  # (i, j) for i < j, row by row
        # the view's entry (j, i) below the diagonal is S[r_j, r_i]; the
        # baseline's ids are all 1, so they index its 1 x 1 table alike
        k, (i, j) = self.nseeds or 1, self._pairs
        self._seed_pair = (r - 1)[j] * k + (r - 1)[i]
        self._seed_diag = (r - 1) * (k + 1)
        self._K = np.zeros((n, n))

    def _bind(self):
        """The likelihood's ``dpotrf`` and ``dpotrs`` arguments on this fit's workspace."""
        n, k, info = ctypes.c_int64(self._K.shape[0]), self._K.ctypes.data, ctypes.c_int64(0)
        Ki = np.empty(self._K.shape[0])  # K^-1 Y
        return (n, k, info), (n, ctypes.c_int64(1), k, Ki, Ki.ctypes.data, info)

    def _fill_cov(self, ls, variance, S, nugget):
        """Training covariance plus ``nugget * I`` in the lower triangle of the
        returned Fortran-ordered workspace view; its strict upper triangle stays
        zero.  Each distinct pair is computed once, with the operations of
        ``_cross`` (and of the reference ``kernels.cross_cov``) in their order, so
        with their bits; the diagonal is ``variance * S[r, r] + nugget``, as the
        kernel at distance 0 is exactly ``variance``."""
        Z = self._train[0] / ls
        cont = kernels.FROM_SQ_DISTS[self.family](kernels.sq_dists(Z, Z, self._pairs), variance)
        cont *= S.take(self._seed_pair)
        diag = S.take(self._seed_diag)
        diag *= variance
        diag += nugget
        K = self._K
        K[self._upper] = cont
        K.reshape(-1)[:: K.shape[0] + 1] = diag
        return K.T

    def _solve_lower(self, B):
        """``L^-1 B`` for the training factor ``L``.

        ``L`` is C-ordered, so this is the ``dtrtrs`` call on ``L.T`` that
        ``solve_triangular(L, B, lower=True)`` makes, without its checks.
        """
        return _lapack_solve("dtrtrs", (b"U", b"T", b"N"), self._L.T, B, lower=0, trans=1)

    def _cross(self, Z, rows, Zx, r):
        """``(p, m·j)`` covariances of p scaled points ``Z``, whose rows of ``_S``
        are ``rows``, with m scaled new points ``Zx`` under ids ``r``, ``(m,)`` or
        ``(m, j)``, column ``i·j + s`` for ``r[i, s]``; ``Z, rows`` are ``_Z,
        _seed_rows`` for the training points, ``Zx, _S[r - 1]`` for the new ones."""
        c = kernels.FROM_SQ_DISTS[self.family](kernels.sq_dists(Z, Zx), self.variance)
        # take gives a fresh C-ordered block for every shape of r, so the BLAS
        # calls after it round alike (a fancy-index gather may not be C-ordered)
        Ks = rows.take(r - 1, axis=1)
        Ks *= c if r.ndim == 1 else c[:, :, None]
        return Ks.reshape(c.shape[0], -1)

    # -- fitting ------------------------------------------------------------

    def _neg_lml(self, packed, bound=(None, None)):
        """Negative log marginal likelihood of the packed parameters; ``bound``
        is ``_bind()``, or LAPACK's arguments are built on each call.

        ``inf`` where the lengthscales or the variance underflow to 0, or
        the covariance is not positive definite.
        """
        try:
            K = self._fill_cov(*self._hyper(packed))
        except ValueError:
            return np.inf
        L = _factor(K, bound[0])
        return np.inf if L is None else -_chol_lml(L, self._Y, bound[1])[0]

    def fit(self, X, seeds, Y, *, rng: np.random.Generator):
        """Fit hyperparameters to training data by multi-start optimization.

        Parameters
        ----------
        X : ndarray, shape (n, ndim)
            Continuous coordinates.
        seeds : ndarray of int, shape (n,), or None
            Seed ids in 1..k; ignored without a seed space.
        Y : ndarray, shape (n,)
            Standardized objective values.
        rng : numpy.random.Generator
            Source of the Latin-hypercube starts; a ``fixed=`` kernel draws none.

        Notes
        -----
        The previous fit's optimum, when there is one, is an extra start.
        The workspace is built here, once per fit, for the current data and
        seed-space size.  The likelihood the optimizer evaluates is bitwise
        equal to the one computed through the reference ``kernels.cross_cov``
        and ``np.linalg.cholesky``.  ``fit_report`` holds each start's initial
        negative LML, ``nfev`` and ``status`` of :func:`minimize` (1 when it
        stopped at ``maxfev``, 0 when it converged; scipy's codes), and the
        best negative LML.
        """
        self._set_train(X, seeds, np.asarray(Y, dtype=float).ravel())

        lo, hi = self._pack_bounds()
        report = {"start_neg_lml": [], "start_nfev": [], "start_status": []}
        if lo.shape[0] == 0:
            best_packed, report["neg_lml"] = lo, self._neg_lml(lo)
        else:
            warm = [] if self._warm is None else [self._warm]
            starts = warm + list(lo + latin_hypercube(self.nstarts, lo.shape[0], rng) * (hi - lo))
            maxfev = self.maxfev if self.maxfev is not None else min(250 * lo.shape[0], 3000)
            best, bound = None, self._bind()
            for x0 in starts:
                res = minimize(lambda p: self._neg_lml(p, bound), x0, lo, hi, maxfev)
                report["start_neg_lml"].append(float(res.fun_x0))
                report["start_nfev"].append(int(res.nfev))
                report["start_status"].append(int(res.status))
                if best is None or res.fun < best.fun:
                    best = res
            best_packed, report["neg_lml"] = best.x, float(best.fun)

        self._finalize(best_packed)
        self.fit_report = report
        self._warm = best_packed.copy()
        return self

    def _finalize(self, packed):
        """Decode the kernel once, and build and store the training
        factorization and the per-fit tables prediction uses."""
        self.lengthscales, self.variance, self._S, self.nugget = self._hyper(packed)
        K = self._fill_cov(self.lengthscales, self.variance, self._S, self.nugget)
        L, jitter = safe_cholesky(K)
        self._L = L
        self.lml, self._alpha = _chol_lml(L, self._Y)
        X, r = self._train
        self._Z = X / self.lengthscales
        self._seed_rows = self._S[r - 1]  # row i: training seed r_i against every seed
        self._prior_var = self.variance * self._S.diagonal()
        self._jitter = jitter
        self._fitted = True

    # -- prediction ---------------------------------------------------------
    # The predictive distribution is over the latent objective: the
    # observation nugget is excluded.

    def _project(self, X, seeds):
        """Scaled points ``X / lengthscales``, ids ``r``, ``V = L^-1 K(X_train, X)``, the mean."""
        if not self._fitted:
            raise NotFittedError(f"{type(self).__name__} must be fitted before prediction")
        X, r = self._check_inputs(X, seeds)
        Z = X / self.lengthscales
        Ks = self._cross(self._Z, self._seed_rows, Z, r)
        return Z, r, self._solve_lower(Ks), Ks.T @ self._alpha

    def _posterior(self, X, seeds):
        """Joint posterior mean and M x M covariance ``K** - V^T V`` at new inputs, laid
        out as ``_fill_cov``'s: the lower triangle is read and what lies above it is not.
        Only that triangle of ``K**`` is built, in row blocks of ``kernels.BLOCK_CELLS`` entries."""
        Z, r, V, mean = self._project(X, seeds)
        if r.ndim != 1 or Z.shape[0] == 0:
            raise ValueError("need at least one prediction point, with one seed id per point")
        C = V.T @ V  # a syrk, exactly symmetric, as K** is: either triangle will do
        Sr, m = self._S[r - 1], Z.shape[0]
        step = max(1, kernels.BLOCK_CELLS // m)
        for a in range(0, m, step):  # C's rows a..a+step, from column a on
            block = C[a:a + step, a:]
            np.subtract(self._cross(Z[a:a + step], Sr[a:a + step], Z[a:], r[a:]), block, out=block)
        return mean, C.T

    def predict_mean_var(self, X, seeds):
        """Posterior means and variances in the shape of ``seeds``: one id
        per point, ``(m,)``, or a row of ids per point, ``(m, j)``, entry
        ``(i, s)`` bitwise the ``(m·j,)`` call's on point i under ``seeds[i, s]``.
        Without a seed space the ids are ignored and None stands for ``(m,)``."""
        _, r, V, mean = self._project(X, seeds)
        var = self._prior_var[r.ravel() - 1] - np.einsum("ij,ij->j", V, V)
        return mean.reshape(r.shape), var.reshape(r.shape)

    def sample(self, X, seeds, size: int = 1, *, rng: np.random.Generator) -> np.ndarray:
        """``size`` joint posterior draws at new inputs, ``(size, m)``; deterministic
        given ``rng``.  The covariance is factored by ``safe_cholesky``, whose jitter
        collapses the draws of a degenerate posterior onto the mean."""
        _check_int("size", size, 1)
        mean, cov = self._posterior(X, seeds)
        L, _ = safe_cholesky(cov)
        draws = rng.standard_normal((size, mean.shape[0])) @ L.T
        draws += mean  # in place: the bits of mean + draws, without a third (size, m) array
        return draws

    def expand_seed_space(self, new_nseeds: int) -> None:
        """Grow the seed space to ``new_nseeds``; does nothing without one.

        A default rank becomes ``min(2, new_nseeds)``; each old warm-start
        row gains a zero angle per added rank, which pads its vector with 0
        and keeps the seed matrix.  The warm start gains one row per new
        seed: the new ``B`` row is the direction of the mean of the existing
        rows and the new ``v`` entry the mean of ``v``, a neutral prior for
        an unseen seed.
        """
        _check_int("new_nseeds", new_nseeds, 1)
        if not self.seeded:
            return
        if new_nseeds < self.nseeds:
            raise ValueError("seed space can only grow")
        if new_nseeds == self.nseeds:
            return
        if self._fixed is not None:
            raise ValueError("cannot expand a fixed-parameter emulator")
        added = new_nseeds - self.nseeds
        rank = min(2, new_nseeds) if self._default_rank else self.rank
        if self._warm is not None:
            _, _, b_block, v_block, nugget_block = self._blocks
            mean = [float(np.mean(column)) for column in self._decode(self._warm)[2].T]
            mean += [0.0] * (rank - self.rank)
            # the inverse map, a_j = atan2(|mean_{j+1:}|, mean_j), lies in [0, pi]
            row = [math.atan2(math.hypot(*mean[j + 1:]), mean[j]) for j in range(rank - 1)]
            angles = np.zeros((self.nseeds, rank - 1))
            angles[:, : self.rank - 1] = self._warm[b_block].reshape(self.nseeds, self.rank - 1)
            v_logs = self._warm[v_block]
            if self.per_seed_v:
                v_new = math.log(float(np.mean(np.exp(v_logs))))
                v_logs = np.concatenate([v_logs, np.full(added, v_new)])
            # the new seeds' angles follow the old ones
            self._warm = np.concatenate([self._warm[: b_block.start], angles.ravel(),
                                         np.tile(row, added), v_logs, self._warm[nugget_block]])
        self.nseeds = int(new_nseeds)
        self.rank = rank
        self._set_layout()
        self._fitted = False  # the stored factor no longer matches the seed space


# The benchmark tracer patches ``_GPBase.fit``, ``predict_mean_var`` and
# ``sample``; the name survives as an alias of the single GP class.
_GPBase = SeedKernelGP
