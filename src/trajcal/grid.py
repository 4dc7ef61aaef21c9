"""Candidate-grid strategies for the acquisition loop.

Three ways to produce the M-point candidate set scored by Thompson
sampling: a grid frozen for the run, a fresh Latin hypercube per call, and
an adaptive grid that always refines the previous iteration's candidates.
It filters them by importance resampling on a probability-of-improvement
likelihood, then densifies back to M distinct points with a
Metropolis-Hastings random walk over (coordinates, seed), whose proposals
are drawn and scored in rounds, one emulator prediction per block of
proposals, each under every seed.  Each strategy is built with its size M
(``ngrid``) and its settings alone, the fixed grid's stream among them.
The run supplies the rest at every ``sample`` call: the emulator, the
dataset (whose dimension the grid takes), the current seed count as
``nseeds``, since the seed space grows during a run, the grid stream, and
the previous iteration's grid.
"""

from __future__ import annotations

import copy
import hashlib
import math

import numpy as np

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

# cephes' ndtr series, highest power first: erf's T/U on x^2 for |x| < 1,
# erfc's P/Q on |x| < 8 and R/S beyond; U, Q and S lead with an unlisted 1
_T = [9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
      7.00332514112805075473E3, 5.55923013010394962768E4]
_U = [3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
      2.26290000613890934246E4, 4.92673942608635921086E4]
_P = [2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
      4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2]
_Q = [1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
      9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2]
_R = [5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
      6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0]
_S = [2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
      1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0]
_SQRT1_2, _MAXLOG = 7.07106781186547524401E-1, 7.09782712893383996843E2


def _ndtr_column(num, den, shift, scale):
    """Numerator and denominator, interleaved, zero-padded in front (which
    keeps Horner's bits) to nine terms, then ``shift`` and ``scale``."""
    num, den = [0.0] * (9 - len(num)) + num, [0.0] * (8 - len(den)) + [1.0] + den
    return [c for pair in zip(num, den) for c in pair] + [shift, scale]


# One column per case of x, found by searchsorted on _EDGES: x <= -8, x <= -1,
# |x| < 1, x >= 1 and x >= 8.  ndtr is shift + scale * ratio.  Below |x| = 1,
# 0.5 + 0.5 erf(x) has the bits of cephes' 0.5 erfc(|x|) and of its
# reflection too, as 1 - erf(|x|) is exact there (Sterbenz).
_NDTR_TABLE = np.array([
    _ndtr_column(_R, _S, 0.0, 0.5), _ndtr_column(_P, _Q, 0.0, 0.5), _ndtr_column(_T, _U, 0.5, 0.5),
    _ndtr_column(_P, _Q, 1.0, -0.5), _ndtr_column(_R, _S, 1.0, -0.5)]).T.copy()
_EDGES = np.array([np.nextafter(-8.0, 0.0), np.nextafter(-1.0, 0.0), 1.0, 8.0])


def ndtr(a) -> np.ndarray:
    """The standard normal CDF: cephes' ``ndtr`` on whole arrays, in its
    order of operations, so with the bits of scipy's ``special.ndtr``.
    ``exp(-x^2)`` is the real part of numpy's complex exp, the C library's
    exp; numpy's real exp is its own and rounds some values differently."""
    a = np.asarray(a, dtype=float)
    x = a.ravel() * _SQRT1_2
    m = x.shape[0]
    case = _EDGES.searchsorted(x, side="right")  # NaN goes last, and stays NaN
    far = case != 2
    z = np.minimum(np.abs(x), 64.0)  # where erfc underflows to 0 anyway
    xx = z * z
    w = np.where(far, z, xx)
    w = np.concatenate((w, w))
    C = _NDTR_TABLE.take(case, axis=1).reshape(10, 2 * m)  # row k: k-th terms, num then den
    ratio = C[0].copy()
    for k in range(1, 9):
        ratio *= w
        ratio += C[k]
    e = np.exp(np.negative(xx, dtype=complex)).real  # erfc's factor; erf's is x
    e[xx > _MAXLOG] = 0.0
    return (np.where(far, e, x) * ratio[:m] / ratio[m:] * C[9, m:] + C[9, :m]).reshape(a.shape)


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
    with a row of seed ids 1..k per proposal.  The emulator must provide a
    ``predict_mean_var`` that takes one seed id or one row of seed ids per
    point, as ``SeedKernelGP`` does.
    """

    def __init__(self, ngrid: int, proposal_step: float = 0.05):
        if isinstance(proposal_step, bool) or not 0 < proposal_step < math.inf:  # NaN fails both
            raise ValueError("proposal_step must be a positive finite number")
        super().__init__(ngrid)
        self.proposal_step = proposal_step

    def sample(self, *, emulator, dataset, nseeds, rng, previous) -> CandidateGrid:
        M = self.ngrid
        k = int(nseeds)
        prev = previous
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
