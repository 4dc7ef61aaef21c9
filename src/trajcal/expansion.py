"""Seed-space growth: when to add a new seed id and what to run on it.

The trigger given picks the policy that grows the seed space, by at most
one seed per iteration: "by-sims" on the completed-run count, or "by-prob"
with a fixed per-check probability.  New-seed points re-seed a uniform
draw from the refined grid (exploration, the default) or the incumbent
best coordinates (exploitation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataspace import DesignPoint, _check_int

__all__ = [
    "ExpansionConfig",
    "can_expand",
    "check_for_expansion",
    "expand",
    "sample_from_expansion",
    "reseed_incumbents",
]

SAMPLE_MODES = ("explore", "exploit")
#: The by-sims spacing of a config that gives neither trigger.
NSIMS_EXPAND = 50


@dataclass(frozen=True)
class ExpansionConfig:
    """Initial seed-space size plus the growth trigger and its parameters.

    A given ``p`` is by-prob, growing with probability ``p`` per check;
    else by-sims grows each ``nsims_expand`` (``NSIMS_EXPAND`` when omitted)
    completed runs; not both.  Each expansion queues at most ``nexpansion``
    distinct points on the new seed, by ``sample_mode``: "explore" draws
    them from the refined grid, "exploit" the best so far.
    """

    nseeds: int
    nexpansion: int = 10
    nsims_expand: int | None = None
    p: float | None = None
    sample_mode: str = "explore"

    def __post_init__(self):
        _check_int("nseeds", self.nseeds, 1)
        _check_int("nexpansion", self.nexpansion, 0)
        if self.p is None:
            if self.nsims_expand is None:
                object.__setattr__(self, "nsims_expand", NSIMS_EXPAND)
            _check_int("nsims_expand", self.nsims_expand, 1)
        elif self.nsims_expand is not None:
            raise ValueError("give p (by-prob) or nsims_expand (by-sims), not both")
        elif isinstance(self.p, bool) or not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be a number in [0, 1]")
        if self.sample_mode not in SAMPLE_MODES:
            raise ValueError(f"sample_mode must be one of {SAMPLE_MODES}")


def can_expand(config: ExpansionConfig, budget: int) -> bool:
    """Whether the policy may add a seed before ``budget`` runs complete."""
    return config.nsims_expand < budget if config.p is None else config.p > 0


def check_for_expansion(config: ExpansionConfig, completed: int, expansions: int,
                        rng: np.random.Generator) -> bool:
    """Should the seed space grow now, after ``completed`` successful runs (the
    initial design's included) and ``expansions`` earlier expansions?  Only
    by-prob draws from ``rng``.  By-sims grows once the count reaches
    (expansions + 1) x ``nsims_expand``; as a run expands at most once per
    iteration, a batch that passes several such counts leaves a backlog,
    which carries over to later iterations."""
    if config.p is None:
        return completed >= (expansions + 1) * config.nsims_expand
    return bool(rng.random() < config.p)


def expand(config: ExpansionConfig, expansions: int) -> int:
    """The id of the next seed after ``expansions`` earlier ones, so the ids
    stay contiguous."""
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
