"""Candidate-grid strategies for the acquisition loop.

Three ways to produce the M-point candidate set scored by Thompson
sampling: a grid frozen for the run, a fresh Latin hypercube per call, and
an adaptive grid that filters the previous candidates by importance
resampling on a probability-of-improvement likelihood, then densifies back
to M distinct points with a Metropolis-Hastings random walk over
(coordinates, seed), whose proposals are drawn and scored in rounds, one
emulator prediction per block of proposals, each under every seed.  Each
strategy is built with its size M (``ngrid``) and its settings alone, the
fixed grid's stream among them.  The run supplies the rest at every
``sample`` call: the emulator, the dataset (whose dimension the grid
takes), the current seed count as ``nseeds``, since the seed space grows
during a run, the grid stream, and the previous iteration's grid.
"""

from __future__ import annotations

import copy
import hashlib
import math

import numpy as np
from scipy.special import ndtr

from .dataspace import _check_design, _check_int, latin_hypercube, reflect
from .errors import ProgressError

__all__ = [
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
#: MH proposals allowed per grid point before densification gives up.
MAX_ATTEMPTS_PER_POINT = 10_000
#: (candidate, seed) pairs one MH round scores at most, which bounds its memory.
ROUND_COLUMNS = 256


class CandidateGrid:
    """An ordered set of (coordinates, seed) candidates in the unit cube."""

    def __init__(self, X: np.ndarray, seeds: np.ndarray):
        X, seeds, _ = _check_design(X, seeds, label="grid ")
        if X.shape[0] == 0:
            raise ValueError("grid must be nonempty")
        self.X = X
        self.seeds = seeds
        self.X.setflags(write=False)
        self.seeds.setflags(write=False)

    def __len__(self):
        return self.X.shape[0]

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.X).tobytes())
        h.update(np.ascontiguousarray(self.seeds).tobytes())
        return h.hexdigest()


def likelihood_values(mean: np.ndarray, var: np.ndarray, tau: float) -> np.ndarray:
    """Probability each candidate's latent objective beats the incumbent tau.

    Phi((tau - mu) / sigma) for posterior means ``mean`` and variances
    ``var``, with sigma floored at 1e-8 and the result floored at 1e-300 so
    weights stay positive.
    """
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


def mh_densify(entries, likelihood_fn, nseeds: int, target: int, step: float,
               rng: np.random.Generator, max_attempts: int, record=None):
    """Grow ``entries`` to ``target`` distinct (x, seed) pairs by MH moves.

    Each round draws m parents uniformly from the set as the round began,
    perturbs them with reflected Gaussian steps (symmetric, so the proposal
    ratio cancels) and scores every candidate under every seed in one
    ``likelihood_fn`` call.  Candidates then go in order, each walking its
    seeds in ascending order and accepting with probability min(1,
    L_candidate / L_current); its first accepted pair not already in the set
    is appended.  m is the number of pairs still missing, capped by the
    proposals left and by ``ROUND_COLUMNS // nseeds``.

    Parameters
    ----------
    entries : list of (x, seed, L) triples
        Distinct starting set; mutated copies are never made, new triples
        are appended to a fresh list.
    likelihood_fn : callable
        Maps an ``(m, ndim)`` block of coordinates to the L(x, r) values,
        any array that broadcasts to ``(m, nseeds)``.
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
        m = min(target - len(out), max_attempts - attempts, max(1, ROUND_COLUMNS // nseeds))
        attempts += m
        parents = rng.integers(len(out), size=m)
        X_cur = np.array([out[i][0] for i in parents])
        X_can = reflect(X_cur + rng.normal(0.0, step, size=X_cur.shape), 1.0)
        U = rng.random((m, nseeds)).tolist()
        L_can = np.broadcast_to(np.asarray(likelihood_fn(X_can), float), (m, nseeds)).tolist()
        for i, x_can, l_row, u_row in zip(parents, X_can, L_can, U):
            x_cur, r_cur, l_cur = out[i]  # appends leave the round's parents in place
            for j in range(nseeds):
                alpha = min(1.0, l_row[j] / l_cur)
                u = u_row[j]
                accepted = u < alpha
                key = (x_can.tobytes(), j + 1)
                added = accepted and key not in seen
                if record is not None:
                    record({
                        "x_cur": x_cur, "seed_cur": r_cur, "l_cur": l_cur,
                        "x_can": x_can, "seed_can": j + 1, "l_can": l_row[j],
                        "alpha": alpha, "u": u, "accepted": accepted, "added": added,
                    })
                if added:
                    out.append((x_can, j + 1, l_row[j]))
                    seen.add(key)
                    break
    return out


class LHSGrid:
    """A fresh ``ngrid``-point Latin hypercube per call, in the dataset's
    dimension, seeds cycling 1 + (i mod k)."""

    def __init__(self, ngrid: int):
        _check_int("ngrid", ngrid, 1)
        self.ngrid = int(ngrid)

    def sample(self, *, emulator, dataset, nseeds, rng, previous) -> CandidateGrid:
        X = latin_hypercube(self.ngrid, dataset.ndim, rng)
        return CandidateGrid(X=X, seeds=1 + np.arange(self.ngrid, dtype=np.int64) % nseeds)


class FixedGrid(LHSGrid):
    """One ``LHSGrid`` draw, frozen for the run.

    The first call of a run (``previous`` None) draws the grid from a copy
    of ``rng``, so every run that uses this strategy draws the same one;
    later calls return the previous grid unchanged.
    """

    def __init__(self, ngrid: int, rng: np.random.Generator):
        super().__init__(ngrid)
        self.rng = rng

    def sample(self, *, emulator, dataset, nseeds, rng, previous) -> CandidateGrid:
        if previous is not None:
            return previous
        return super().sample(emulator=emulator, dataset=dataset, nseeds=nseeds,
                              rng=copy.deepcopy(self.rng), previous=None)


class AdaptiveGrid(LHSGrid):
    """Importance-resampled, MH-densified candidate grid of ``ngrid`` points.

    Each call reweights the previous grid (or, on a run's first call, the
    ``LHSGrid`` draw it refines) by the probability of beating the
    incumbent, resamples M points with replacement, collapses duplicates,
    and densifies back to M distinct points via ``mh_densify``, whose
    Gaussian random-walk proposal has scale ``proposal_step`` in
    unit-hypercube units; each MH round is one ``predict_mean_var`` call
    with a row of seed ids 1..k per proposal.  Set ``reuse_previous=False``
    to restart from a fresh LHS every call instead of carrying the grid
    over.  The emulator must provide a ``predict_mean_var`` that takes one
    seed id or one row of seed ids per point, as ``SeedKernelGP`` does.
    """

    def __init__(self, ngrid: int, proposal_step: float = 0.05, reuse_previous: bool = True):
        if not 0 < proposal_step < math.inf:  # NaN fails both comparisons
            raise ValueError("proposal_step must be positive and finite")
        super().__init__(ngrid)
        self.proposal_step = proposal_step
        self.reuse_previous = bool(reuse_previous)

    def sample(self, *, emulator, dataset, nseeds, rng, previous) -> CandidateGrid:
        M = self.ngrid
        k = int(nseeds)
        prev = previous if self.reuse_previous else None
        if prev is None:
            prev = super().sample(emulator=emulator, dataset=dataset, nseeds=k, rng=rng,
                                  previous=None)
        tau = float(dataset.incumbent())
        weights = likelihood_values(*emulator.predict_mean_var(prev.X, prev.seeds), tau)
        idx = resample_indices(weights, M, rng)
        first = {}  # the first draw of each distinct (x, seed) pair, in draw order
        for i in idx:
            first.setdefault((prev.X[i].tobytes(), int(prev.seeds[i])), i)
        entries = [(prev.X[i], int(prev.seeds[i]), float(weights[i])) for i in first.values()]

        entries = mh_densify(  # each round scores every proposal under every seed 1..k
            entries, lambda X: likelihood_values(*emulator.predict_mean_var(
                X, np.broadcast_to(np.arange(1, k + 1), (len(X), k))), tau),
            k, M, self.proposal_step, rng, MAX_ATTEMPTS_PER_POINT * M)
        return CandidateGrid(
            X=np.array([e[0] for e in entries]),
            seeds=np.array([e[1] for e in entries], dtype=np.int64),
        )
