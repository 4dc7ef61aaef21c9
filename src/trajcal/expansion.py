"""Seed-space growth: when to add a new seed id and what to run on it.

Policies decide when the discrete seed space grows: after a fixed number
of completed simulations, or with a fixed per-check probability.  On
expansion the workflow draws points that carry the new seed, either by
re-seeding a uniform draw from the refined grid (exploration, the
default) or by re-seeding the incumbent best coordinates (exploitation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataspace import DesignPoint

__all__ = [
    "ExpansionConfig",
    "ExpansionState",
    "check_for_expansion",
    "expand",
    "sample_from_expansion",
    "reseed_incumbents",
]

POLICIES = ("by-sims", "by-prob")
SAMPLE_MODES = ("explore", "exploit")


@dataclass(frozen=True)
class ExpansionConfig:
    """Initial seed-space size plus the growth policy and its parameters.

    policy "by-sims" triggers once ``nsims_expand`` simulations complete
    since the last expansion; "by-prob" triggers with probability ``p`` at
    each check.  Each expansion queues ``nexpansion`` points on the new
    seed: with ``sample_mode`` "explore", drawn uniformly from the refined
    candidate grid; with "exploit", the best coordinates evaluated so far.
    """

    nseeds: int
    nexpansion: int = 10
    policy: str = "by-sims"
    nsims_expand: int = 50
    p: float | None = None
    sample_mode: str = "explore"

    def __post_init__(self):
        if self.nseeds < 1:
            raise ValueError("nseeds must be >= 1")
        if self.nexpansion < 0:
            raise ValueError("nexpansion must be >= 0")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        if self.nsims_expand < 1:
            raise ValueError("nsims_expand must be >= 1")
        if self.p is not None and not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if self.policy == "by-prob" and self.p is None:
            raise ValueError("by-prob policy needs p")
        if self.sample_mode not in SAMPLE_MODES:
            raise ValueError(f"sample_mode must be one of {SAMPLE_MODES}")


@dataclass
class ExpansionState:
    """Mutable bookkeeping owned by the workflow's control loop."""

    current_k: int
    sims_since_expansion: int = 0

    @classmethod
    def start(cls, config: ExpansionConfig, completed: int = 0) -> "ExpansionState":
        """Fresh state; ``completed`` seeds the counter with the evaluations
        already performed (the initial design counts toward the first check)."""
        return cls(current_k=config.nseeds, sims_since_expansion=int(completed))


def check_for_expansion(state: ExpansionState, config: ExpansionConfig,
                        rng: np.random.Generator) -> bool:
    """Should the seed space grow now?  Pure read except for by-prob's draw."""
    if config.policy == "by-sims":
        return state.sims_since_expansion >= config.nsims_expand
    return bool(rng.random() < config.p)


def expand(state: ExpansionState, config: ExpansionConfig) -> int:
    """Add the next contiguous seed id and return it.

    The counter carries any overshoot past the by-sims interval instead of
    zeroing, so successive triggers stay aligned to absolute completed
    counts (multiples of nsims_expand past the initial design).
    """
    state.current_k += 1
    state.sims_since_expansion = max(0, state.sims_since_expansion - config.nsims_expand)
    return state.current_k


def sample_from_expansion(grid, nexpansion: int, new_seed: int,
                          rng: np.random.Generator) -> list[DesignPoint]:
    """Draw ``nexpansion`` grid points and stamp them with the new seed.

    Uniform without replacement from the refined grid; with replacement
    only when more samples are requested than the grid holds.
    """
    if nexpansion < 0:
        raise ValueError("nexpansion must be >= 0")
    replace = nexpansion > len(grid)
    idx = rng.choice(len(grid), size=nexpansion, replace=replace)
    return [DesignPoint(x=grid.X[i], r=int(new_seed)) for i in idx]


def reseed_incumbents(dataset, nexpansion: int, new_seed: int) -> list[DesignPoint]:
    """Exploitative expansion: re-run the best coordinates on the new seed.

    Takes the ``nexpansion`` distinct coordinate vectors with the lowest
    standardized objectives (fewer if the dataset holds fewer distinct
    ones), each stamped with the new seed.
    """
    if nexpansion < 0:
        raise ValueError("nexpansion must be >= 0")
    best = {}  # the best index of each distinct coordinate vector, best first
    for i in np.argsort(dataset.y_std, kind="stable"):
        best.setdefault(dataset.X[i].tobytes(), i)
    return [DesignPoint(x=dataset.X[i], r=int(new_seed)) for i in list(best.values())[:nexpansion]]
