"""Candidate-grid strategies for the acquisition loop.

Three ways to produce the M-point candidate set scored by Thompson
sampling: a frozen grid, a fresh Latin hypercube per call, and an adaptive
grid that filters the previous candidates by importance resampling on a
probability-of-improvement likelihood, then densifies back to M distinct
points with a Metropolis-Hastings random walk over (coordinates, seed).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .dataspace import latin_hypercube
from .errors import ProgressError

__all__ = [
    "GridConfig",
    "ProposalParams",
    "CandidateGrid",
    "FixedGrid",
    "LHSGrid",
    "AdaptiveGrid",
    "likelihood_values",
    "resample_indices",
    "mh_densify",
]

SIGMA_FLOOR = 1e-8
LIKELIHOOD_FLOOR = 1e-300


@dataclass(frozen=True)
class GridConfig:
    """Candidate-set dimensions: d coordinates, k seeds, M grid points."""

    ndim: int
    nseeds: int
    ngrid: int = 100

    def __post_init__(self):
        if self.ndim < 1:
            raise ValueError("ndim must be >= 1")
        if self.nseeds < 1:
            raise ValueError("nseeds must be >= 1")
        if self.ngrid < 1:
            raise ValueError("ngrid must be >= 1")


@dataclass(frozen=True)
class ProposalParams:
    """Scale of the Gaussian random-walk proposal, in unit-hypercube units."""

    step: float = 0.05

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("proposal step must be positive")


class CandidateGrid:
    """An ordered set of (coordinates, seed) candidates in the unit cube."""

    def __init__(self, X: np.ndarray, seeds: np.ndarray):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        seeds = np.asarray(seeds, dtype=np.int64).ravel()
        if X.shape[0] != seeds.shape[0]:
            raise ValueError("X and seeds must have the same length")
        if X.shape[0] == 0:
            raise ValueError("grid must be nonempty")
        if np.any(X < 0.0) or np.any(X > 1.0):
            raise ValueError("grid coordinates must lie in [0, 1]")
        if np.any(seeds < 1):
            raise ValueError("grid seeds must be >= 1")
        self.X = X
        self.seeds = seeds
        self.X.setflags(write=False)
        self.seeds.setflags(write=False)

    def __len__(self):
        return self.X.shape[0]

    def joint(self) -> np.ndarray:
        """Candidates as one matrix with the seed id as the last column."""
        return np.column_stack([self.X, self.seeds.astype(float)])

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.X).tobytes())
        h.update(np.ascontiguousarray(self.seeds).tobytes())
        return h.hexdigest()


def likelihood_values(X: np.ndarray, seeds: np.ndarray, emulator, tau: float) -> np.ndarray:
    """Probability each candidate's latent objective beats the incumbent tau.

    Phi((tau - mu) / sigma) under the emulator posterior, with sigma floored
    at 1e-8 and the result floored at 1e-300 so weights stay positive.
    """
    joint = np.column_stack([np.atleast_2d(X), np.asarray(seeds, dtype=float)])
    mean, var = emulator.predict_mean_var(joint)
    sd = np.maximum(np.sqrt(np.maximum(var, 0.0)), SIGMA_FLOOR)
    return np.maximum(ndtr((tau - mean) / sd), LIKELIHOOD_FLOOR)


def resample_indices(weights: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``size`` indices with replacement, proportional to the weights."""
    w = np.asarray(weights, dtype=float).ravel()
    if w.size == 0:
        raise ValueError("weights must be nonempty")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValueError("weights must be finite and nonnegative")
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must not all be zero")
    return rng.choice(w.size, size=size, replace=True, p=w / total)


def _reflect_unit(z: np.ndarray) -> np.ndarray:
    """Fold coordinates into [0, 1] by reflection at both boundaries."""
    m = np.mod(z, 2.0)
    return np.where(m > 1.0, 2.0 - m, m)


def mh_densify(entries, likelihood_fn, nseeds: int, target: int, step: float,
               rng: np.random.Generator, max_attempts: int, record=None):
    """Grow ``entries`` to ``target`` distinct (x, seed) pairs by MH moves.

    Each attempt picks a current entry uniformly, perturbs its coordinates
    with a reflected Gaussian step (symmetric, so the proposal ratio
    cancels), and walks seeds in ascending order accepting with probability
    min(1, L_candidate / L_current); the first accepted pair not already in
    the set is appended.

    Parameters
    ----------
    entries : list of (x, seed, L) triples
        Distinct starting set; mutated copies are never made, new triples
        are appended to a fresh list.
    likelihood_fn : callable
        Maps coordinates x to the length-``nseeds`` array of L(x, r) values.
    record : callable, optional
        Test hook receiving one dict per (proposal, seed) trial.

    Raises
    ------
    ProgressError
        After ``max_attempts`` proposals, signalling a likelihood surface
        too degenerate to yield new acceptable candidates.
    """
    out = list(entries)
    seen = {(x.tobytes(), int(r)) for x, r, _ in out}
    attempts = 0
    while len(out) < target:
        if attempts >= max_attempts:
            raise ProgressError(
                f"grid densification made no progress after {max_attempts} proposals; "
                "the likelihood surface may be degenerate"
            )
        attempts += 1
        x_cur, r_cur, l_cur = out[rng.integers(len(out))]
        x_can = _reflect_unit(x_cur + rng.normal(0.0, step, size=x_cur.shape[0]))
        l_can = np.asarray(likelihood_fn(x_can), dtype=float)
        for j in range(nseeds):
            alpha = min(1.0, l_can[j] / l_cur)
            u = rng.random()
            accepted = u < alpha
            key = (x_can.tobytes(), j + 1)
            added = accepted and key not in seen
            if record is not None:
                record({
                    "x_cur": x_cur, "seed_cur": r_cur, "l_cur": l_cur,
                    "x_can": x_can, "seed_can": j + 1, "l_can": float(l_can[j]),
                    "alpha": alpha, "u": u, "accepted": accepted, "added": added,
                })
            if added:
                out.append((x_can, j + 1, float(l_can[j])))
                seen.add(key)
                break
    return out


def _lhs_grid(ngrid: int, ndim: int, nseeds: int, rng: np.random.Generator) -> CandidateGrid:
    X = latin_hypercube(ngrid, ndim, rng)
    seeds = 1 + np.arange(ngrid, dtype=np.int64) % nseeds
    return CandidateGrid(X=X, seeds=seeds)


class FixedGrid:
    """A grid frozen at construction; every sample call returns it unchanged."""

    def __init__(self, grid: CandidateGrid):
        self._grid = grid

    @classmethod
    def from_lhs(cls, config: GridConfig, rng: np.random.Generator) -> "FixedGrid":
        """One-time Latin-hypercube initialization, then frozen."""
        return cls(_lhs_grid(config.ngrid, config.ndim, config.nseeds, rng))

    def sample(self, **_) -> CandidateGrid:
        return self._grid


class LHSGrid:
    """A fresh Latin hypercube per call, seeds cycling 1 + (i mod k)."""

    def __init__(self, config: GridConfig):
        self.config = config

    def sample(self, *, nseeds=None, rng=None, **_) -> CandidateGrid:
        k = int(nseeds) if nseeds is not None else self.config.nseeds
        return _lhs_grid(self.config.ngrid, self.config.ndim, k, rng)


class AdaptiveGrid:
    """Importance-resampled, MH-densified candidate grid.

    Each call reweights the previous grid (or a bootstrap LHS on the first
    call) by the probability of beating the incumbent, resamples M points
    with replacement, collapses duplicates, and densifies back to M
    distinct points via ``mh_densify``.  Set ``reuse_previous=False`` to
    restart from a fresh LHS every call instead of carrying the grid over.
    """

    def __init__(self, config: GridConfig, proposal: ProposalParams | None = None,
                 reuse_previous: bool = True, max_attempts_factor: int = 10_000):
        self.config = config
        self.proposal = proposal if proposal is not None else ProposalParams()
        self.reuse_previous = bool(reuse_previous)
        self.max_attempts_factor = int(max_attempts_factor)
        self._previous: CandidateGrid | None = None

    def sample(self, *, emulator=None, dataset=None, nseeds=None,
               rng=None) -> CandidateGrid:
        if emulator is None or dataset is None or rng is None:
            raise ValueError("adaptive sampling needs an emulator, dataset, and rng")
        M = self.config.ngrid
        k = int(nseeds) if nseeds is not None else self.config.nseeds
        prev = self._previous if self.reuse_previous else None
        if prev is None:
            prev = _lhs_grid(M, self.config.ndim, k, rng)
        tau = float(dataset.incumbent())
        weights = likelihood_values(prev.X, prev.seeds, emulator, tau)
        idx = resample_indices(weights, M, rng)
        entries = []
        seen = set()
        for i in idx:
            key = (prev.X[i].tobytes(), int(prev.seeds[i]))
            if key not in seen:
                seen.add(key)
                entries.append((prev.X[i], int(prev.seeds[i]), float(weights[i])))

        all_seeds = np.arange(1, k + 1)

        def seedwise_likelihood(x):
            return likelihood_values(np.tile(x, (k, 1)), all_seeds, emulator, tau)

        entries = mh_densify(
            entries, seedwise_likelihood, k, M, self.proposal.step, rng,
            self.max_attempts_factor * M,
        )
        grid = CandidateGrid(
            X=np.array([e[0] for e in entries]),
            seeds=np.array([e[1] for e in entries], dtype=np.int64),
        )
        self._previous = grid
        return grid
