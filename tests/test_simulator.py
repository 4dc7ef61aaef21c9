"""The spatial SIR reference simulator and the analytic toy objective."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from trajcal.dataspace import DesignPoint, reflect
from trajcal.simulator import (
    SirConfig,
    sir_run,
    to_table,
    toy_objective,
)
from trajcal.simulator import DIRECTIONS, _cell_ids, _CellGrid, _movement

# small population keeps unit tests fast; full-scale runs live in acceptance
SMALL = dict(n_agents=250, horizon=40)


def test_config_validation():
    SirConfig(beta=0.5, seed_id=0)
    with pytest.raises(ValueError):
        SirConfig(beta=-0.1, seed_id=0)
    with pytest.raises(ValueError):
        SirConfig(beta=1.5, seed_id=0)
    with pytest.raises(ValueError):
        SirConfig(beta=0.1, seed_id=26)  # index case lands off-grid
    with pytest.raises(ValueError):
        SirConfig(beta=0.1, seed_id=-1)
    with pytest.raises(ValueError):
        SirConfig(beta=0.1, seed_id=0, horizon=0)
    # NaN passes a bare ``<= 0`` check, and a NaN radius finds no contacts
    for field, value in [("contact_radius", math.nan), ("contact_radius", math.inf),
                         ("contact_radius", -math.inf), ("grid_extent", math.inf),
                         # checked before the index case it places, so the message names it
                         ("grid_extent", math.nan), ("grid_extent", -1.0)]:
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            SirConfig(beta=0.1, seed_id=0, **{field: value})


def test_beta_zero_single_case_recovers():
    period = 14
    traj = sir_run(SirConfig(beta=0.0, seed_id=0, infectious_period=period, **SMALL))
    assert traj.infected_counts[0] == 1
    assert np.all(traj.infected_counts[:period] == 1)
    assert np.all(traj.infected_counts[period:] == 0)
    assert np.all(traj.cumulative_infections == 1)


def test_beta_zero_for_any_seed_and_stream():
    for seed_id in (0, 5, 25):
        for stream in (0, 3):
            traj = sir_run(SirConfig(beta=0.0, seed_id=seed_id,
                                     crn_stream_id=stream, **SMALL))
            assert traj.cumulative_infections[-1] == 1


def test_identical_config_identical_trajectory():
    cfg = SirConfig(beta=0.07, seed_id=3, crn_stream_id=2, **SMALL)
    t1 = sir_run(cfg)
    t2 = sir_run(cfg)
    assert np.array_equal(t1.infected_counts, t2.infected_counts)
    assert np.array_equal(t1.cumulative_infections, t2.cumulative_infections)


def test_trajectory_invariants():
    rng = np.random.default_rng(0)
    for _ in range(10):
        cfg = SirConfig(
            beta=float(rng.uniform(0, 0.3)),
            seed_id=int(rng.integers(0, 26)),
            crn_stream_id=int(rng.integers(0, 100)),
            **SMALL,
        )
        traj = sir_run(cfg)
        n = cfg.horizon + 1
        assert len(traj) == n
        assert traj.infected_counts[0] == 1
        assert np.all(np.diff(traj.cumulative_infections) >= 0)
        assert traj.cumulative_infections.max() <= cfg.n_agents


def test_conservation_every_step():
    rng = np.random.default_rng(1)
    for _ in range(12):
        cfg = SirConfig(
            beta=float(rng.uniform(0, 0.5)),
            seed_id=int(rng.integers(0, 26)),
            crn_stream_id=int(rng.integers(0, 50)),
            **SMALL,
        )
        traj = sir_run(cfg)
        totals = (traj.susceptible_counts + traj.infected_counts
                  + traj.recovered_counts)
        assert np.all(totals == cfg.n_agents)


def test_movement_shared_across_seed_ids():
    """Seed id changes only the index placement; the walk is untouched."""
    pos_a, walk_a = _movement(7, 250, 50.0, 40)
    pos_b, walk_b = _movement(7, 250, 50.0, 40)
    assert np.array_equal(pos_a, pos_b)
    assert np.array_equal(walk_a, walk_b)
    pos_c, _ = _movement(8, 250, 50.0, 40)
    assert not np.array_equal(pos_a, pos_c)


def test_positions_stay_inside_grid():
    positions, _ = _movement(3, 250, 50.0, 60)
    assert positions.min() >= 0.0
    assert positions.max() <= 50.0


def _reference_movement(crn_stream_id, n_agents, extent, horizon):
    """The walk table as whole-array expressions: cumulative sums of the
    step vectors after a zero row, shifted by the starts, then reflected.
    Also returns the index agent's cumulative steps, before the shift."""
    rng = np.random.default_rng(np.random.SeedSequence([crn_stream_id, 0]))
    init = rng.uniform(0.0, extent, size=(n_agents, 2))
    steps = rng.integers(0, 9, size=(horizon, n_agents))
    free = np.concatenate(
        [np.zeros((1, n_agents, 2)), np.cumsum(DIRECTIONS[steps], axis=0)]
    )
    m = np.mod(init[None, :, :] + free, 2.0 * extent)
    return np.where(m > extent, 2.0 * extent - m, m), free[:, 0]


@pytest.mark.parametrize("args", [
    (0, 1, 50.0, 40),    # one agent
    (4, 120, 50.0, 1),   # one step
    (2, 300, 26.0, 60),  # an integer extent
    (9, 200, 37.3, 80),  # a non-integer extent
])
def test_movement_matches_the_whole_array_reference(args):
    positions, index_walk = _movement(*args)
    ref_positions, ref_walk = _reference_movement(*args)
    assert positions.shape == ref_positions.shape
    assert np.array_equal(positions.view(np.int64), ref_positions.view(np.int64))
    assert index_walk.shape == (args[3] + 1, 2)
    assert np.array_equal(index_walk.view(np.int64), ref_walk.view(np.int64))
    assert not (positions.flags.writeable or index_walk.flags.writeable)


def test_movement_builds_in_little_more_than_it_keeps():
    """The build's traced peak is at most the positions table, the table of
    draws and 1 MiB; the whole-array build held about four more tables of
    positions at once.  Beside the positions only the index agent's walk
    before its start shift is kept, and no draw."""
    n, horizon = 2000, 100
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kept = _movement.__wrapped__(5, n, 50.0, horizon)  # bypass the cache
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    positions, index_walk = kept
    draws = horizon * n * np.dtype(np.int64).itemsize
    assert positions.shape == (horizon + 1, n, 2) and index_walk.shape == (horizon + 1, 2)
    assert positions.nbytes + index_walk.nbytes <= current - base
    assert current - base <= positions.nbytes + index_walk.nbytes + 2**16
    assert peak - base <= positions.nbytes + draws + 2**20


def test_cell_ids_build_in_little_more_than_they_keep():
    """The id table is built one step at a time: the build keeps the int16
    table and a grid object, and its traced peak adds one step's
    temporaries, well under 1 MiB, to the table."""
    n, horizon = 2000, 100
    _movement(5, n, 50.0, horizon)  # the walk is cached, so is not counted
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kept = _cell_ids.__wrapped__(5, n, 50.0, horizon, 1.5)  # bypass the cache
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    cells, ids = kept
    assert ids.shape == (horizon + 1, n) and ids.dtype == np.int16
    assert not ids.flags.writeable
    assert ids.nbytes <= current - base <= ids.nbytes + 2**16
    assert peak - base <= ids.nbytes + 2**20
    positions, _ = _movement(5, n, 50.0, horizon)
    for t in (0, 1, horizon):
        assert np.array_equal(ids[t], cells.ids(*positions[t].T))


def test_cell_grid_side_cap_keeps_ids_in_int16_and_finds_every_pair():
    """At 40,000 points on a 400-wide area the side would be 201 cells; the
    cap makes it 179, so ids fit int16, and the wider cells still hold every
    pair within the radius."""
    extent, radius = 400.0, 1.0
    cells = _CellGrid(extent, radius, 40_000)
    assert cells.m == 179
    assert cells.stride**2 - 1 <= np.iinfo(np.int16).max
    rng = np.random.default_rng(11)
    # spread points, a dense corner at the far walls, and the far corner itself
    pts = np.concatenate([
        rng.uniform(0.0, extent, (100, 2)),
        rng.uniform(extent - 6.0, extent, (199, 2)),
        [[extent, extent]],
    ])
    ids = cells.ids(pts[:, 0], pts[:, 1])
    assert ids.max() <= np.iinfo(np.int16).max
    ids = ids.astype(np.int16)
    rows, cols = cells.candidates(ids, ids)
    d2 = ((pts[rows] - pts[cols]) ** 2).sum(axis=1)
    found = set(zip(rows[d2 <= radius**2].tolist(), cols[d2 <= radius**2].tolist()))
    expected = set(map(tuple, np.argwhere(cdist(pts, pts, "sqeuclidean") <= radius**2).tolist()))
    assert len(expected) > 2 * len(pts)  # the corner holds pairs beyond the self-pairs
    assert found == expected
    assert len(set(zip(rows.tolist(), cols.tolist()))) == rows.size  # no repeats


def test_the_radius_keys_the_cell_id_cache():
    """One stream at radius 0.3, then 1.5, then 0.3 and 1.5 again: each run
    reads the grid and id table of its own radius, so each equals the
    all-pairs reference.  On this area radius 0.3 gives 18 cells a side,
    1.39 wide, and 1.5 gives 16, so radius 1.5 on the finer grid would miss
    pairs (the other way round only adds candidates)."""
    _cell_ids.cache_clear()
    grids = {r: _cell_ids(13, 300, 25.0, 40, r)[0].m for r in (0.3, 1.5)}
    assert grids == {0.3: 18, 1.5: 16}
    for radius in (0.3, 1.5, 0.3, 1.5):
        config = SirConfig(beta=1.0, seed_id=0, crn_stream_id=13, n_agents=300,
                           grid_extent=25.0, horizon=40, contact_radius=radius)
        for ours, ref in zip(_counts(sir_run(config)), _reference_sir_run(config)):
            assert np.array_equal(ours, ref)


def test_mean_outbreak_monotone_in_beta():
    betas = (0.02, 0.05, 0.10)
    means = []
    for beta in betas:
        finals = [
            sir_run(SirConfig(beta=beta, seed_id=0, crn_stream_id=s,
                              **SMALL)).cumulative_infections[-1]
            for s in range(6)
        ]
        means.append(np.mean(finals))
    assert means[0] <= means[1] <= means[2]


def test_toy_objective_known_values():
    assert toy_objective(DesignPoint(x=np.array([0.5]), r=1)) == 0.0
    assert toy_objective(DesignPoint(x=np.array([0.52]), r=2)) == pytest.approx(0.0, abs=1e-30)
    assert toy_objective(DesignPoint(x=np.array([0.6]), r=1)) == pytest.approx(0.01)


def test_to_table_format():
    traj = sir_run(SirConfig(beta=0.0, seed_id=0, n_agents=50, horizon=3))
    lines = to_table(traj).splitlines()
    assert lines[0] == "step,infected,cumulative"
    assert len(lines) == 5
    assert lines[1] == "0,1,1"


# ------------------------------------------------------------ pinned output

# sha256 of the four count arrays (infected, cumulative, susceptible,
# recovered, little-endian int64, in that order) for fixed configs; they pin
# every draw of the documented order, so any change to the search or the
# draw sequence shows here
_GOLDEN = [
    (dict(beta=0.069, seed_id=0, crn_stream_id=0),
     "998ff96427bce5ec3fdd0c982edeb64633cddc987bd11ef13b7b46bba8fe1970"),
    (dict(beta=0.03, seed_id=5, crn_stream_id=1),
     "979690f38746f96c0fb753ef47555a47ea4067d25004376c5ef4cfccffeaf3fb"),
    (dict(beta=0.12, seed_id=9, crn_stream_id=7),
     "e5e8e75dd2215ee9a4ff16e28d7ff7b07e89c02cd0cc685edd6fc1ea1c0f900e"),
    (dict(beta=0.0, seed_id=25, crn_stream_id=0),
     "b8065473652cc1780739e1a97c6926f79a06653210b7a6cf8ddc96c01c9d7e70"),
    (dict(beta=1.0, seed_id=0, crn_stream_id=1),
     "c09bf1a5c48b36b5ce74e2383b21dec430bdb71066657f567a3916748eb9e9fe"),
    (dict(beta=0.069, seed_id=9, crn_stream_id=0, contact_radius=2.5),
     "2561f24c81c725be92a2c97c7e8ed8a74a78e687efa764ab36d36c899da4602d"),
    (dict(beta=0.12, seed_id=0, crn_stream_id=7, contact_radius=0.3),
     "d300d5a91e3211068bb62ec6c14d152507c5a6b9d29b2325a773db407ac1612b"),
    (dict(beta=0.12, seed_id=5, crn_stream_id=1, grid_extent=30.0),
     "98a9f27c01a9778cd01b4929d396ce15a0b4b4ce2e3f9e2b1e32ec4a2e40679b"),
    (dict(beta=0.069, seed_id=0, crn_stream_id=0, n_agents=500, horizon=60),
     "4fb5528663251a66cbc2a4352779080a6e93ace35832b035e9e0ab05f8b9c17b"),
    (dict(beta=0.03, seed_id=25, crn_stream_id=7, horizon=150),
     "61f78ea71f20d5cfab5461638695cac6a274ac5465d5bf34ce55b45aaa6f03b0"),
    (dict(beta=1.0, seed_id=9, crn_stream_id=0, n_agents=300, contact_radius=30.0),
     "ef684fa8cdecc66f12bf37e7c0707d467716b194ecf0639792009f8e862645f5"),
    (dict(beta=0.12, seed_id=0, crn_stream_id=1, n_agents=1000, infectious_period=5),
     "b60565653fbdac74bfe20f08d1fcaca6bbd371c19510e3a3b4274865b6c0bda4"),
]


def _counts(traj):
    return (traj.infected_counts, traj.cumulative_infections,
            traj.susceptible_counts, traj.recovered_counts)


def test_golden_trajectory_hashes():
    for overrides, digest in _GOLDEN:
        h = hashlib.sha256()
        for counts in _counts(sir_run(SirConfig(**overrides))):
            h.update(np.ascontiguousarray(counts, dtype="<i8").tobytes())
        assert h.hexdigest() == digest, overrides


# ------------------------------------------------- all-pairs reference search


def _reference_sir_run(config):
    """The simulator with the all-pairs contact search: a dense infected x
    susceptible distance matrix per step, its pairs read out row-major.  The
    walk, the index agent's included, comes from the whole-array reference,
    not from the cache that ``sir_run`` reads."""
    n, horizon = config.n_agents, config.horizon
    positions, index_free = _reference_movement(
        int(config.crn_stream_id), n, float(config.grid_extent), horizon
    )
    index_path = reflect(25.0 + config.seed_id + index_free, config.grid_extent)

    infect_rng = np.random.default_rng(
        np.random.SeedSequence([int(config.crn_stream_id), 1])
    )
    state = np.zeros(n, dtype=np.int8)  # 0 S, 1 I, 2 R
    state[0] = 1
    infection_step = np.full(n, -1, dtype=np.int64)
    infection_step[0] = 0

    infected = np.zeros(horizon + 1, dtype=np.int64)
    cumulative = np.zeros(horizon + 1, dtype=np.int64)
    susceptible = np.zeros(horizon + 1, dtype=np.int64)
    recovered = np.zeros(horizon + 1, dtype=np.int64)
    infected[0] = 1
    cumulative[0] = 1
    susceptible[0] = n - 1

    r2 = config.contact_radius**2
    for t in range(1, horizon + 1):
        inf_idx = np.flatnonzero(state == 1)
        if inf_idx.size == 0:
            infected[t:] = 0
            cumulative[t:] = cumulative[t - 1]
            susceptible[t:] = susceptible[t - 1]
            recovered[t:] = recovered[t - 1]
            break
        sus_idx = np.flatnonzero(state == 0)
        newly = np.empty(0, dtype=np.int64)
        if sus_idx.size:
            pos_inf = positions[t][inf_idx]
            if inf_idx[0] == 0:
                pos_inf[0] = index_path[t]
            d2 = cdist(pos_inf, positions[t][sus_idx], "sqeuclidean")
            pairs = np.argwhere(d2 <= r2)
            if pairs.shape[0]:
                u = infect_rng.random(pairs.shape[0])
                hits = pairs[u < config.beta, 1]
                newly = sus_idx[np.unique(hits)]
        recovering = inf_idx[t - infection_step[inf_idx] >= config.infectious_period]
        state[recovering] = 2
        if newly.size:
            state[newly] = 1
            infection_step[newly] = t
        infected[t] = np.count_nonzero(state == 1)
        cumulative[t] = cumulative[t - 1] + newly.size
        susceptible[t] = np.count_nonzero(state == 0)
        recovered[t] = np.count_nonzero(state == 2)
    return infected, cumulative, susceptible, recovered


@st.composite
def _sir_configs(draw):
    extent = draw(st.one_of(st.integers(25, 60).map(float),
                            st.floats(25.0, 80.0, allow_nan=False)))
    far_wall = math.floor(extent - 25.0)
    seed_id = draw(st.one_of(st.just(far_wall), st.integers(0, far_wall)))
    radius = draw(st.one_of(
        st.sampled_from([0.3, 1.5, 2.5, extent / 10, extent / 3, extent / 2, extent]),
        st.floats(0.05, 1.2 * extent, allow_nan=False),
    ))
    return SirConfig(
        beta=draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
        seed_id=seed_id,
        crn_stream_id=draw(st.integers(0, 30)),
        n_agents=draw(st.integers(1, 300)),
        grid_extent=extent,
        horizon=draw(st.integers(1, 40)),
        infectious_period=draw(st.integers(1, 20)),
        contact_radius=radius,
    )


@settings(max_examples=300, deadline=None)
@given(_sir_configs())
@example(SirConfig(beta=0.3, seed_id=0, n_agents=300, horizon=40, contact_radius=2.5))
@example(SirConfig(beta=1.0, seed_id=3, n_agents=300, horizon=40, contact_radius=25.0))
@example(SirConfig(beta=1.0, seed_id=0, n_agents=300, horizon=40, contact_radius=40.0))
@example(SirConfig(beta=0.5, seed_id=1, n_agents=300, horizon=40, contact_radius=0.3))
@example(SirConfig(beta=1.0, seed_id=0, n_agents=1, horizon=20))
@example(SirConfig(beta=0.0, seed_id=0, n_agents=300, horizon=40))
@example(SirConfig(beta=1.0, seed_id=25, n_agents=300, horizon=40))
@example(SirConfig(beta=0.4, seed_id=5, n_agents=300, horizon=40, grid_extent=30.0,
                   contact_radius=3.0))
def test_matches_the_all_pairs_reference(config):
    for ours, ref in zip(_counts(sir_run(config)), _reference_sir_run(config)):
        assert np.array_equal(ours, ref)
