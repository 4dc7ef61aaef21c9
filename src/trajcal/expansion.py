"""Seed-space growth: when to add a new seed id and what to run on it.

Policies decide when the discrete seed space grows, by at most one seed
per iteration: "by-sims" on the completed-run count (see ``expand``), or
"by-prob" with a fixed per-check probability.  On expansion the workflow
draws points that carry the new seed, either by re-seeding a uniform draw
from the refined grid (exploration, the default) or by re-seeding the
incumbent best coordinates (exploitation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataspace import DesignPoint, _check_int

__all__ = [
    "ExpansionConfig",
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

    policy "by-sims" triggers each time the completed count reaches the next
    multiple of ``nsims_expand``; "by-prob" triggers with probability ``p`` at
    each check.  Each expansion queues at most ``nexpansion`` distinct points
    on the new seed: with ``sample_mode`` "explore", drawn uniformly from the
    refined candidate grid; with "exploit", the best coordinates so far.
    """

    nseeds: int
    nexpansion: int = 10
    policy: str = "by-sims"
    nsims_expand: int = 50
    p: float | None = None
    sample_mode: str = "explore"

    def __post_init__(self):
        _check_int("nseeds", self.nseeds, 1)
        _check_int("nexpansion", self.nexpansion, 0)
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        _check_int("nsims_expand", self.nsims_expand, 1)
        if self.p is not None and not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if self.policy == "by-prob" and self.p is None:
            raise ValueError("by-prob policy needs p")
        if self.sample_mode not in SAMPLE_MODES:
            raise ValueError(f"sample_mode must be one of {SAMPLE_MODES}")


def check_for_expansion(config: ExpansionConfig, completed: int, expansions: int,
                        rng: np.random.Generator) -> bool:
    """Should the seed space grow now, after ``completed`` successful runs (the
    initial design's included) and ``expansions`` earlier expansions?  Only
    by-prob draws from ``rng``."""
    if config.policy == "by-sims":
        return completed >= (expansions + 1) * config.nsims_expand
    return bool(rng.random() < config.p)


def expand(config: ExpansionConfig, expansions: int) -> int:
    """The id of the next seed after ``expansions`` earlier ones, so the ids
    stay contiguous.

    A run expands at most once per iteration, when the completed count, the
    initial design's included, reaches (expansions so far + 1) x
    ``nsims_expand`` under "by-sims".  A batch that passes several such
    counts leaves a backlog, which carries over to later iterations.
    """
    return config.nseeds + expansions + 1


def sample_from_expansion(grid, nexpansion: int, new_seed: int,
                          rng: np.random.Generator) -> list[DesignPoint]:
    """Draw ``min(nexpansion, len(grid))`` grid points uniformly without replacement,
    so none twice, and stamp them with the new seed."""
    if nexpansion < 0:
        raise ValueError("nexpansion must be >= 0")
    idx = rng.choice(len(grid), size=min(nexpansion, len(grid)), replace=False)
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
