"""Reference calibration targets.

A spatial agent-based SIR simulator driven by common random numbers, where
an integer seed id controls only the index-case placement, plus a fast
analytic toy objective for tests.  Runs sharing a ``crn_stream_id`` consume
identical movement randomness, so outcome differences are attributable to
``beta`` and ``seed_id``.

Draw order (fixed so runs are reproducible):

1. initial positions, all agents, one ``uniform(0, extent, (n, 2))`` call;
2. per-step walk directions, one ``integers(0, 9, (horizon, n))`` call;
3. per step, one Bernoulli draw per (infected, susceptible-in-radius) pair,
   ordered by ascending infected agent id, then ascending susceptible id.

Movement draws come from the stream ``SeedSequence([crn_stream_id, 0])``
and infection draws from ``SeedSequence([crn_stream_id, 1])``.  A run counts
the infected and the cumulative infections; the other two follow from them.

The contact search is a uniform cell list: each step bins the susceptible
agents into cells at least ``contact_radius`` wide and tests each infected
agent only against its 3 x 3 cell neighbourhood.  It finds exactly the
pairs an all-pairs distance matrix would, with the same squared distances,
and sorts them into the order of item 3, so the draws are unchanged.

Each stream's walk is built once, in place, and cached: a (horizon + 1, n, 2)
table of positions and the index agent's walk before its start shift, which
a run shifts and folds.  Next to it, per stream and radius, sits a read-only
(horizon + 1, n) int16 table of every agent's cell at every step, so a run
gathers its agents' cells instead of recomputing them; only the index
agent's cells, which depend on the seed id, are computed per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dataspace import DesignPoint, _check_int, reflect

__all__ = [
    "SirConfig",
    "Trajectory",
    "sir_run",
    "toy_objective",
    "to_table",
]

# unit step in one of 8 compass directions, or stay; indexed by a draw in 0..8
DIRECTIONS = np.array(
    [[-1, -1], [-1, 0], [-1, 1], [0, -1], [0, 0], [0, 1], [1, -1], [1, 0], [1, 1]],
    dtype=float,
)

_SUSCEPTIBLE, _INFECTED, _RECOVERED = 0, 1, 2

# the index case occupies the lowest agent id so the infection draw order
# is unambiguous
_INDEX_AGENT = 0


@dataclass(frozen=True)
class SirConfig:
    """One SIR run: transmission probability, index placement, shared stream.

    ``seed_id`` r places the index case at (25 + r, 25 + r), which must lie
    on the grid; r = 0 is its center only at the default ``grid_extent``, 50.
    ``crn_stream_id`` selects the movement/infection streams shared across runs.
    """

    beta: float
    seed_id: int
    crn_stream_id: int = 0
    n_agents: int = 2000
    grid_extent: float = 50.0
    horizon: int = 100
    infectious_period: int = 14
    contact_radius: float = 1.5

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        _check_int("seed_id", self.seed_id, 0)
        if not 0 < self.grid_extent < math.inf:  # before the index case, which it places
            raise ValueError("grid_extent must be positive and finite")
        if not 0.0 <= 25.0 + self.seed_id <= self.grid_extent:
            raise ValueError(
                f"index case (25+{self.seed_id}, 25+{self.seed_id}) lies outside "
                f"the {self.grid_extent} x {self.grid_extent} grid"
            )
        _check_int("crn_stream_id", self.crn_stream_id, 0)
        _check_int("n_agents", self.n_agents, 1)
        _check_int("horizon", self.horizon, 1)
        _check_int("infectious_period", self.infectious_period, 1)
        if not 0 < self.contact_radius < math.inf:  # NaN fails both comparisons
            raise ValueError("contact_radius must be positive and finite")


@dataclass(frozen=True)
class Trajectory:
    """Per-step compartment counts; entry t is the state after step t.  Of n
    agents, ``n - cumulative`` are susceptible and ``cumulative - infected`` recovered."""

    infected_counts: np.ndarray
    cumulative_infections: np.ndarray
    susceptible_counts: np.ndarray
    recovered_counts: np.ndarray

    def __len__(self):
        return self.infected_counts.shape[0]


@lru_cache(maxsize=4)
def _movement(crn_stream_id: int, n_agents: int, extent: float, horizon: int):
    """Integrated reflected-walk positions shared by every run of one stream.

    Returns (positions, index_walk): positions[t, i] is agent i's location
    after step t assuming its drawn starting point; index_walk[t] is the
    index agent's summed step vectors after step t, its column of the table
    before the start shift.  The index case overrides its start elsewhere,
    so a run shifts and folds that column; no draw is kept.

    The step vectors are written into rows 1..horizon of the table, summed
    row by row in step order (the sums ``cumsum`` makes), shifted by the
    starts and folded, all in place.  The sums are of integers stored as
    floats, so exact.  The build needs little beyond the positions it keeps
    and the whole table of draws, which ``rng.integers`` makes in one call.
    """
    rng = np.random.default_rng(np.random.SeedSequence([crn_stream_id, 0]))
    init = rng.uniform(0.0, extent, size=(n_agents, 2))
    steps = rng.integers(0, 9, size=(horizon, n_agents))
    positions = np.zeros((horizon + 1, n_agents, 2))
    # draws lie in 0..8, so "clip" changes none; it lets numpy write in place
    np.take(DIRECTIONS, steps, axis=0, out=positions[1:], mode="clip")
    for t in range(2, horizon + 1):
        np.add(positions[t - 1], positions[t], out=positions[t])
    index_walk = positions[:, _INDEX_AGENT].copy()
    positions += init
    reflect(positions, extent)
    positions.setflags(write=False)
    index_walk.setflags(write=False)
    return positions, index_walk


#: cells along a side at most, so every id, ring included, is below
#: (179 + 2)^2 = 32,761 and fits int16
_MAX_SIDE = 179


class _CellGrid:
    """Uniform cells over the [0, extent]^2 area, each wider than the radius.

    Two points within ``radius`` of each other then lie in the same or in
    adjacent cells.  The width carries a relative margin of 1e-9 over the
    radius, so a cell index rounded by one ulp at a boundary cannot drop a
    pair.  There are at most about as many cells as points, and at most
    ``_MAX_SIDE`` along a side so that ids fit int16 (a coarser grid only
    adds candidates).  A ring of empty cells borders the grid so every cell
    has all eight neighbours.
    """

    def __init__(self, extent: float, radius: float, npoints: int):
        side = min(math.isqrt(npoints) + 1, extent / (radius * (1.0 + 1e-9)),
                   _MAX_SIDE)
        self.m = max(1, int(side))
        self.scale = self.m / extent
        self.stride = self.m + 2
        self.neighbours = np.array(
            [dx * self.stride + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
        )

    def ids(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Cell id of each point; the far wall joins the last cell."""
        cx = np.minimum((x * self.scale).astype(np.int64), self.m - 1)
        cy = np.minimum((y * self.scale).astype(np.int64), self.m - 1)
        return (cx + 1) * self.stride + cy + 1

    def candidates(self, cell_a: np.ndarray, cell_b: np.ndarray):
        """Every (i, j) with point j of b in the 3 x 3 cells around point i
        of a, as two index arrays: ordered by i, then by cell, then by j.

        b's indices go by cell with a stable sort, which keeps equal cells
        in index order; on int16 ids numpy sorts them by radix."""
        order = np.argsort(cell_b, kind="stable")
        size = np.bincount(cell_b, minlength=self.stride * self.stride)
        first = np.cumsum(size) - size
        near = cell_a[:, None] + self.neighbours
        count = size[near].ravel()
        # the cells' runs of ``order`` laid end to end: the k-th candidate of
        # a run starting at ``first`` reads order[first + k]
        shift = np.repeat(first[near].ravel() - (np.cumsum(count) - count), count)
        cols = order[np.arange(shift.size) + shift]
        rows = np.repeat(np.arange(cell_a.size), count.reshape(-1, 9).sum(axis=1))
        return rows, cols


@lru_cache(maxsize=4)
def _cell_ids(crn_stream_id: int, n_agents: int, extent: float, horizon: int,
              radius: float):
    """The contact grid of one stream and radius, and its id table.

    Returns (cells, ids): ids[t, i] is the ``cells`` id of agent i after
    step t at its walked position, as ``_movement`` gives it; the index
    case's own path is not in it.  The read-only int16 table is filled one
    step at a time, so the build holds little beyond the table.
    """
    positions, _ = _movement(crn_stream_id, n_agents, extent, horizon)
    cells = _CellGrid(extent, radius, n_agents)
    ids = np.empty((horizon + 1, n_agents), dtype=np.int16)
    for t in range(horizon + 1):
        ids[t] = cells.ids(positions[t, :, 0], positions[t, :, 1])
    ids.setflags(write=False)
    return cells, ids


def sir_run(config: SirConfig) -> Trajectory:
    """Run the agent-based SIR model once.

    All agents start Susceptible at stream-drawn uniform positions; the
    index case (agent 0) is moved to (25 + seed_id, 25 + seed_id) and
    infected.  Each step, every agent walks one reflected unit step, each
    infectious agent then draws a Bernoulli(beta) per susceptible agent
    within ``contact_radius``, and agents recover ``infectious_period``
    steps after infection (transmitting through their final step).

    Contacts come from a cell list (see ``_CellGrid``), so a step costs
    about the number of agents plus the number of nearby pairs, not
    infected x susceptible; the draw order of item 3 is unchanged.  The
    agents' cells come from the stream's cached table (``_cell_ids``).
    """
    n, horizon = config.n_agents, config.horizon
    stream, extent = int(config.crn_stream_id), float(config.grid_extent)
    positions, index_walk = _movement(stream, n, extent, horizon)
    cells, cell_ids = _cell_ids(stream, n, extent, horizon, float(config.contact_radius))
    index_path = reflect((25.0 + config.seed_id) + index_walk, extent)
    index_cells = cells.ids(index_path[:, 0], index_path[:, 1])

    infect_rng = np.random.default_rng(np.random.SeedSequence([stream, 1]))
    state = np.full(n, _SUSCEPTIBLE, dtype=np.int8)
    state[_INDEX_AGENT] = _INFECTED
    infection_step = np.full(n, -1, dtype=np.int64)
    infection_step[_INDEX_AGENT] = 0

    infected = np.zeros(horizon + 1, dtype=np.int64)
    cumulative = np.zeros(horizon + 1, dtype=np.int64)
    infected[0] = 1
    cumulative[0] = 1

    r2 = config.contact_radius**2
    for t in range(1, horizon + 1):
        inf_idx = np.flatnonzero(state == _INFECTED)
        if inf_idx.size == 0:
            # epidemic over: remaining counts are constant
            cumulative[t:] = cumulative[t - 1]
            break
        sus_idx = np.flatnonzero(state == _SUSCEPTIBLE)
        newly = np.empty(0, dtype=np.int64)
        if sus_idx.size:
            x, y = positions[t].T
            xi, yi = x[inf_idx], y[inf_idx]
            ci = cell_ids[t, inf_idx]
            if inf_idx[0] == _INDEX_AGENT:
                xi[0], yi[0] = index_path[t]
                ci[0] = index_cells[t]
            xs, ys = x[sus_idx], y[sus_idx]
            rows, cols = cells.candidates(ci, cell_ids[t, sus_idx])
            # the arithmetic of an all-pairs squared-distance matrix, so a
            # pair exactly on the radius is kept or dropped as it was there
            dx = xi[rows] - xs[cols]
            dy = yi[rows] - ys[cols]
            close = dx * dx + dy * dy <= r2
            # (infected, susceptible) pairs in row-major order, as one key
            pairs = np.sort(rows[close] * sus_idx.size + cols[close])
            if pairs.size:
                u = infect_rng.random(pairs.size)
                hits = pairs[u < config.beta] % sus_idx.size
                # the distinct hits, ascending
                newly = sus_idx[np.flatnonzero(np.bincount(hits, minlength=sus_idx.size))]
        recovering = inf_idx[t - infection_step[inf_idx] >= config.infectious_period]
        state[recovering] = _RECOVERED
        if newly.size:
            state[newly] = _INFECTED
            infection_step[newly] = t
        # newly infected agents were susceptible, so the two sets are disjoint
        infected[t] = infected[t - 1] - recovering.size + newly.size
        cumulative[t] = cumulative[t - 1] + newly.size

    return Trajectory(
        infected_counts=infected,
        cumulative_infections=cumulative,
        susceptible_counts=n - cumulative,
        recovered_counts=cumulative - infected,
    )


def toy_objective(point: DesignPoint) -> float:
    """Seed-shifted quadratic with a known minimizer per seed.

    Zero at x1 = 0.5 + 0.02 (r - 1), so each seed has a distinct optimum;
    cheap enough for end-to-end determinism tests.
    """
    return float((point.x[0] - 0.5 - 0.02 * (point.r - 1)) ** 2)


def to_table(trajectory: Trajectory) -> str:
    """Render a trajectory as comma-separated text (step, infected, cumulative)."""
    lines = ["step,infected,cumulative"]
    for t in range(len(trajectory)):
        lines.append(
            f"{t},{trajectory.infected_counts[t]},{trajectory.cumulative_infections[t]}"
        )
    return "\n".join(lines) + "\n"
