"""Acceptance suite: statistical fidelity, reproducibility, runtime caps.

Unlike the unit tests these exercise end-to-end guarantees: Monte Carlo
estimates checked against closed forms, bitwise reproducibility of the
command line, bookkeeping replay of full calibration traces, and a paired
comparison of the seed-aware and seed-agnostic configurations on the
reference simulator.  Every randomized design is seeded, and the designs
were chosen so the statistical margins hold with a wide buffer; the
tolerances below are the contract.

The two simulator studies at the bottom dominate the runtime (several
minutes together).  Everything else finishes in seconds.
"""

import json
import math
import time
from collections import defaultdict

import numpy as np
from scipy import stats

from trajcal.cli import main
from trajcal.dataspace import (
    Bounds,
    Dataset,
    DesignPoint,
    latin_hypercube,
    rescale,
    sse,
)
from trajcal.emulator import NUGGET_BOUNDS, SeedKernelGP
from trajcal.expansion import ExpansionConfig
from trajcal.grid import (
    AdaptiveGrid,
    CandidateGrid,
    GridConfig,
    LHSGrid,
    mh_densify,
    resample_indices,
)
from trajcal.kernels import (
    ContinuousKernelParams,
    JointKernel,
    SeedKernelParams,
    continuous_cov,
    cross_cov,
)
from trajcal.simulator import SirConfig, sir_run, toy_objective
from trajcal.workflow import WorkflowConfig, component_stream, run, thompson_select


# ---------------------------------------------------------------------------
# kernels


def test_matern_closed_form_at_unit_distance():
    params = ContinuousKernelParams(lengthscales=[1.0], variance=1.0)
    expected = (1.0 + math.sqrt(5.0) + 5.0 / 3.0) * math.exp(-math.sqrt(5.0))
    assert abs(continuous_cov(np.array([[0.0]]), np.array([[1.0]]), params)[0, 0]
               - expected) <= 1e-12


def test_seed_kernel_diagonal_is_exact_after_normalization():
    rng = np.random.default_rng(4)
    for k, q in ((1, 1), (3, 2), (6, 3)):
        # rows drawn far from unit norm, so normalization has real work to do
        B = rng.normal(size=(k, q)) * rng.uniform(0.1, 10.0, size=(k, 1))
        plain = SeedKernelParams(B=B, v=np.zeros(k))
        assert np.max(np.abs(np.diag(plain.matrix) - 1.0)) <= 1e-12
        v = rng.uniform(0.0, 2.0, size=k)
        inflated = SeedKernelParams(B=B, v=v)
        assert np.max(np.abs(np.diag(inflated.matrix) - (1.0 + v))) <= 1e-12


def test_gram_matrices_stay_positive_semidefinite():
    """Min eigenvalue >= -1e-8 * max diagonal over 100 random point sets."""
    rng = np.random.default_rng(2024)
    for trial in range(100):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 7))
        q = int(rng.integers(1, k + 1))
        n = int(rng.integers(2, 41))
        kernel = JointKernel(
            continuous=ContinuousKernelParams(
                lengthscales=np.exp(rng.uniform(np.log(0.05), np.log(2.0), size=d)),
                variance=float(np.exp(rng.uniform(np.log(0.1), np.log(10.0)))),
            ),
            seed=SeedKernelParams(
                B=rng.normal(size=(k, q)),
                v=rng.uniform(0.0, 1.0, size=k) * float(rng.random() < 0.7),
            ),
            family="matern52" if trial % 2 == 0 else "rbf",
        )
        X = rng.random((n, d))
        r = rng.integers(1, k + 1, size=n)
        if n >= 4 and trial % 5 == 0:
            # exact duplicates push the matrix toward singularity
            X[1] = X[0]
            r[1] = r[0]
        G = cross_cov(X, r, X, r, kernel)
        floor = -1e-8 * float(np.max(np.diag(G)))
        assert np.linalg.eigvalsh(G).min() >= floor


# ---------------------------------------------------------------------------
# emulator


def test_emulator_interpolates_noise_free_observations():
    t0 = time.perf_counter()
    X = np.linspace(0.0, 1.0, 20)[:, None]
    y = np.sin(2.0 * np.pi * X[:, 0]) + X[:, 0]
    em = SeedKernelGP(ndim=1, rng=np.random.default_rng(0))
    em.fit(X, y)
    mean, var = em.predict_mean_var(X)
    elapsed = time.perf_counter() - t0
    # noise-free data must drive the fitted nugget down to its box floor
    assert em.nugget <= 2.0 * NUGGET_BOUNDS[0]
    assert np.max(np.abs(mean - y)) < 1e-5
    assert np.max(var) <= 1e-6
    assert elapsed < 1.0


def test_joint_posterior_draws_match_their_moments():
    """Empirical mean/covariance of 100k draws vs the analytic posterior.

    The training set hugs the domain edges and the test points sit in the
    gap, so the posterior covariance is far from degenerate: every entry
    clears the 0.01 magnitude floor and the 5% relative tolerance bites.
    """
    t0 = time.perf_counter()
    angles = np.array([0.3, 0.8, 1.4])
    B = np.column_stack([np.cos(angles), np.sin(angles)])
    xs = np.array([0.02, 0.10, 0.18, 0.25, 0.78, 0.86, 0.93, 0.99])
    Xtr = np.column_stack([xs, 1 + np.arange(8) % 3])
    ytr = np.sin(2.0 * np.pi * Xtr[:, 0]) + 0.1 * Xtr[:, 1]
    em = SeedKernelGP(
        ndim=1,
        nseeds=3,
        fixed={
            "lengthscales": [0.25],
            "variance": 1.0,
            "nugget": 0.3,
            "B": B,
            "v": [0.1, 0.1, 0.1],
        },
    )
    em.fit(Xtr, ytr)
    Xte = np.column_stack([[0.45, 0.48, 0.51, 0.54, 0.57], [1, 2, 3, 1, 2]])
    post_mean, post_cov = em._posterior(Xte)

    n = 100_000
    draws = em.sample(Xte, size=n, rng=np.random.default_rng(123))
    assert draws.shape == (n, 5)

    se = np.sqrt(np.diag(post_cov) / n)
    assert np.all(np.abs(draws.mean(axis=0) - post_mean) <= 4.0 * se)

    emp_cov = np.cov(draws.T)
    big = np.abs(post_cov) > 0.01
    assert big.all()  # the design keeps every entry above the floor
    rel = np.abs(emp_cov - post_cov)[big] / np.abs(post_cov)[big]
    assert rel.max() < 0.05
    assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------------------------------------
# grid refinement


def test_resampled_multiplicities_match_weights():
    rng = np.random.default_rng(5)
    w = np.array([0.2, 0.3, 0.5])
    idx = resample_indices(w, 100_000, rng)
    freq = np.bincount(idx, minlength=3) / 100_000.0
    assert np.max(np.abs(freq - w)) < 0.01


def test_mh_acceptance_rates_match_the_analytic_ratio():
    """Accept frequency per (current, candidate) level pair vs min(1, ratio).

    Each call grows a fixed three-entry state by exactly one pair, so the
    current entry stays uniform over the three likelihood levels instead of
    drifting toward the low ones as a single long chain would.
    """
    t0 = time.perf_counter()
    levels = np.array([0.2, 0.5, 1.0])
    entries = [
        (np.array([0.2]), 1, 0.2),
        (np.array([0.5]), 2, 0.5),
        (np.array([0.8]), 3, 1.0),
    ]
    rng = np.random.default_rng(42)
    records = []
    while len(records) < 100_000:
        mh_densify(
            entries,
            lambda x: levels,
            nseeds=3,
            target=4,
            step=0.05,
            rng=rng,
            max_attempts=1_000_000,
            record=records.append,
        )

    groups = defaultdict(list)
    for r in records:
        groups[(r["l_cur"], r["l_can"])].append(r["accepted"])
    strict = {(0.5, 0.2), (1.0, 0.2), (1.0, 0.5)}  # the cells with alpha < 1
    seen_strict = set()
    for (l_cur, l_can), acc in groups.items():
        if len(acc) < 500:
            continue
        alpha = min(1.0, l_can / l_cur)
        assert abs(float(np.mean(acc)) - alpha) < 0.02
        if (l_cur, l_can) in strict:
            seen_strict.add((l_cur, l_can))
    assert seen_strict == strict
    assert time.perf_counter() - t0 < 120.0


def test_adaptive_grid_always_returns_full_in_domain_grids():
    rng = np.random.default_rng(8)
    X = latin_hypercube(12, 2, rng)
    seeds = 1 + np.arange(12, dtype=np.int64) % 4
    y = np.sin(3.0 * X[:, 0]) + X[:, 1] ** 2 + 0.1 * seeds
    ds = Dataset(X, seeds, y)
    ang = np.array([0.2, 0.9, 1.7, 2.4])
    em = SeedKernelGP(
        ndim=2,
        nseeds=4,
        fixed={
            "lengthscales": [0.3, 0.3],
            "variance": 1.0,
            "nugget": 0.05,
            "B": np.column_stack([np.cos(ang), np.sin(ang)]),
            "v": [0.1] * 4,
        },
    )
    em.fit(ds.joint(), ds.y_std)
    strategy = AdaptiveGrid(GridConfig(ndim=2, nseeds=4, ngrid=60))
    for _ in range(8):
        grid = strategy.sample(emulator=em, dataset=ds, nseeds=4, rng=rng)
        assert len(grid) == 60
        assert np.all(grid.X >= 0.0) and np.all(grid.X <= 1.0)
        assert np.all(grid.seeds >= 1) and np.all(grid.seeds <= 4)
        pairs = {(grid.X[i].tobytes(), int(grid.seeds[i])) for i in range(60)}
        assert len(pairs) == 60  # resampling duplicates must be densified away


# ---------------------------------------------------------------------------
# batch selection


def test_two_candidate_thompson_probability_matches_gaussian_formula():
    """P(first candidate wins) = Phi((mu2 - mu1) / sqrt(var1 + var2)).

    A short lengthscale makes the two candidates essentially independent
    under the posterior, which is what the closed form assumes; the test
    pins that premise before using it.
    """
    Xtr = np.array([[0.1], [0.2], [0.8], [0.9]])
    ytr = np.array([0.5, 0.3, 0.4, 0.8])
    em = SeedKernelGP(
        ndim=1, fixed={"lengthscales": [0.08], "variance": 1.0, "nugget": 1e-6}
    )
    em.fit(Xtr, ytr)
    grid = CandidateGrid(np.array([[0.15], [0.85]]), np.array([1, 1]))
    _, post_cov = em._posterior(grid.joint())
    assert abs(post_cov[0, 1]) < 1e-4

    mu, var = em.predict_mean_var(grid.joint())
    z = (mu[1] - mu[0]) / math.sqrt(var[0] + var[1])
    analytic = 0.5 * math.erfc(-z / math.sqrt(2.0))
    _, argmins = thompson_select(em, grid, 100_000, np.random.default_rng(321))
    freq = float(np.mean(np.asarray(argmins) == 0))
    assert abs(freq - analytic) < 0.01


# ---------------------------------------------------------------------------
# reference simulator


def test_zero_transmission_never_spreads():
    for seed_id in (0, 7, 25):
        for stream in (0, 3):
            traj = sir_run(SirConfig(beta=0.0, seed_id=seed_id, crn_stream_id=stream))
            assert np.all(traj.cumulative_infections == 1)
            assert traj.infected_counts[0] == 1
            assert traj.infected_counts[-1] == 0  # index case recovers


def test_compartments_conserve_the_population():
    rng = np.random.default_rng(0)
    for _ in range(50):
        cfg = SirConfig(
            beta=float(rng.uniform(0.0, 0.2)),
            seed_id=int(rng.integers(0, 26)),
            crn_stream_id=int(rng.integers(0, 10)),
        )
        traj = sir_run(cfg)
        totals = traj.susceptible_counts + traj.infected_counts + traj.recovered_counts
        assert np.all(totals == cfg.n_agents)


def test_mean_outbreak_size_grows_with_transmission_rate():
    betas = (0.02, 0.05, 0.10)
    finals = {b: [] for b in betas}
    # stream-major order so each movement realization is generated once
    for stream in range(20):
        for b in betas:
            traj = sir_run(SirConfig(beta=b, seed_id=0, crn_stream_id=stream))
            finals[b].append(traj.cumulative_infections[-1])
    means = [float(np.mean(finals[b])) for b in betas]
    assert means[0] < means[1] < means[2]


# ---------------------------------------------------------------------------
# seed-space expansion bookkeeping


def test_expansion_triggers_replay_against_the_simulation_counter():
    """Each expansion fires at the first iteration whose completed-run count
    crosses the next multiple of the expansion interval, and the extra
    samples it appends all carry the newly added seed."""
    ms = 0
    k0, interval, nexpansion = 5, 50, 10
    rng = component_stream(ms, "init", 0)
    X0 = latin_hypercube(50, 1, rng)
    seeds0 = 1 + np.arange(50, dtype=np.int64) % k0
    y0 = [toy_objective(DesignPoint(x=X0[i], r=int(seeds0[i]))) for i in range(50)]
    ds = Dataset(X0, seeds0, np.array(y0))
    em = SeedKernelGP(
        ndim=1, fixed={"lengthscales": [0.3], "variance": 1.0, "nugget": 0.05}
    )
    cfg = WorkflowConfig(
        budget=200,
        expansion=ExpansionConfig(
            nseeds=k0, nsims_expand=interval, nexpansion=nexpansion
        ),
        nTS_samp=30,
        master_seed=ms,
    )
    trace = run(ds, toy_objective, cfg, em, LHSGrid(GridConfig(ndim=1, nseeds=k0, ngrid=100)))

    assert trace.completed == 200
    assert [k for _, k in trace.expansion_events] == [6, 7, 8]

    starts = {}
    done = trace.initial_size
    for it in trace.iterations:
        starts[it.iteration] = done
        done += it.evaluated

    for j, (it_idx, k_new) in enumerate(trace.expansion_events, start=1):
        threshold = interval * j
        # first iteration at or past the threshold, none before it
        assert starts[it_idx] >= threshold
        assert all(s < threshold for it, s in starts.items() if it < it_idx)

        rec = trace.iterations[it_idx - 1]
        assert rec.iteration == it_idx
        extras = [r for _, r in rec.batch if r == k_new]
        assert len(extras) == nexpansion
        head = rec.batch[: len(rec.batch) - nexpansion]
        tail = rec.batch[len(rec.batch) - nexpansion :]
        assert all(r == k_new for _, r in tail)
        assert all(r < k_new for _, r in head)

    # no seed shows up in an evaluation before the event that created it
    limit_at = {}
    limit = k0
    for it in trace.iterations:
        limit = dict(trace.expansion_events).get(it.iteration, limit)
        limit_at[it.iteration] = limit
    for e in trace.evaluations:
        if e.iteration > 0:
            assert 1 <= e.seed <= limit_at[e.iteration]
    assert any(e.seed == 8 for e in trace.evaluations)


# ---------------------------------------------------------------------------
# command line


def test_cli_calibration_is_bitwise_reproducible(tmp_path):
    t0 = time.perf_counter()
    outputs = []
    for tag in ("first", "second"):
        outdir = tmp_path / tag
        cfg = {
            "format": "trajcal-config-v1",
            "problem": {"kind": "toy", "ndim": 1, "lower": [0.0], "upper": [1.0]},
            "emulator": {"kind": "seed-product", "nstarts": 2, "maxfev": 150},
            "grid": {"kind": "adaptive", "ngrid": 50},
            "expansion": {
                "policy": "by-sims",
                "nseeds": 3,
                "nsims_expand": 20,
                "nexpansion": 5,
            },
            "workflow": {
                "budget": 60,
                "initial_design": 20,
                "nTS_samp": 8,
                "master_seed": 11,
            },
            "output": {"directory": str(outdir)},
        }
        path = tmp_path / f"config-{tag}.json"
        path.write_text(json.dumps(cfg))
        assert main(["calibrate", str(path)]) == 0
        outputs.append(
            tuple((outdir / name).read_bytes() for name in ("design.csv", "trace.jsonl"))
        )
    assert outputs[0] == outputs[1]
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# simulator studies (the slow tail of the suite)

_SIR_BOUNDS = Bounds(lower=np.array([0.02]), upper=np.array([0.12]))
_TRUTH_BETA = 0.069


def _sse_to_hidden_truth():
    """Objective: SSE between a run's infected curve and a fixed target run.

    The target uses seed 0, which the calibration seeds (1..k) never touch,
    so no search point can replay the truth exactly.  Simulations are cached
    because paired arms revisit the same (x, seed) pairs.
    """
    target = sir_run(SirConfig(beta=_TRUTH_BETA, seed_id=0)).infected_counts.astype(float)
    cache = {}

    def objective(point):
        key = (point.x.tobytes(), point.r)
        if key not in cache:
            beta = float(rescale(point.x, _SIR_BOUNDS)[0])
            traj = sir_run(SirConfig(beta=beta, seed_id=point.r))
            cache[key] = sse(traj.infected_counts.astype(float), target)
        return cache[key]

    return objective


def _calibrate_sir(master_seed: int, seed_aware: bool):
    """One calibration run; returns (proportion with RMSE < 20, best RMSE)."""
    k0 = 20
    objective = _sse_to_hidden_truth()
    rng = component_stream(master_seed, "init", 0)
    X0 = latin_hypercube(50, 1, rng)
    seeds0 = 1 + np.arange(50, dtype=np.int64) % k0
    y0 = [objective(DesignPoint(x=X0[i], r=int(seeds0[i]))) for i in range(50)]
    dataset = Dataset(X0, seeds0, np.array(y0))
    if seed_aware:
        emulator = SeedKernelGP(ndim=1, nseeds=k0, nstarts=2, maxfev=150)
        strategy = AdaptiveGrid(GridConfig(ndim=1, nseeds=k0, ngrid=100))
    else:
        emulator = SeedKernelGP(ndim=1, nstarts=2, maxfev=150)
        strategy = LHSGrid(GridConfig(ndim=1, nseeds=k0, ngrid=100))
    config = WorkflowConfig(
        budget=200,
        # a huge interval disables seed growth; both arms search seeds 1..20
        expansion=ExpansionConfig(nseeds=k0, nsims_expand=10**9),
        nTS_samp=30,
        master_seed=master_seed,
    )
    trace = run(dataset, objective, config, emulator, strategy)
    y = np.array([e.y_raw for e in trace.evaluations if not e.failed])
    rmse = np.sqrt(y / 101.0)  # horizon 100 -> 101 trajectory points
    return float(np.mean(rmse < 20.0)), float(rmse.min())


def test_seed_aware_search_beats_the_seed_agnostic_baseline():
    """Paired comparison on the reference simulator, five master seeds.

    Pairing shares the master seed between arms, so initial designs and
    selection randomness are common; the arms differ only in emulator and
    grid strategy.  The seed-aware arm must match or beat the baseline's
    close-match rate in at least 4 of 5 pairs and must not lose on the
    median best RMSE.  Best values are compared on the raw objective scale
    because each run standardizes with its own transform.
    """
    t0 = time.perf_counter()
    pairs = [(_calibrate_sir(ms, True), _calibrate_sir(ms, False)) for ms in (1, 2, 3, 4, 5)]
    wins = sum(aware[0] >= base[0] for aware, base in pairs)
    assert wins >= 4
    med_aware = float(np.median([aware[1] for aware, _ in pairs]))
    med_base = float(np.median([base[1] for _, base in pairs]))
    assert med_aware <= med_base
    assert time.perf_counter() - t0 < 600.0


def test_acceptable_transmission_rate_rises_with_seed_distance():
    """Dense sweep of (beta, seed) against a fixed target run.

    Everything shares one CRN stream, truth included: the acceptance
    boundary is a property of a single coupled experiment, not an average
    over streams.  Seeds far from the truth seed need a larger beta to get
    within the RMSE cutoff, so the per-seed minimum accepted beta should
    rise with seed id (the truth ran at seed 0, making the id itself the
    distance).  Monotonicity is asserted as a rank correlation over the
    seeds that accept at all; far seeds may accept nothing.
    """
    t0 = time.perf_counter()
    stream = 1
    target = sir_run(SirConfig(beta=_TRUTH_BETA, seed_id=0, crn_stream_id=stream))
    target = target.infected_counts.astype(float)
    betas = np.linspace(0.02, 0.12, 51)
    min_accepted = {}
    for s in range(21):
        accepted = [
            float(b)
            for b in betas
            if math.sqrt(
                sse(
                    sir_run(
                        SirConfig(beta=float(b), seed_id=s, crn_stream_id=stream)
                    ).infected_counts.astype(float),
                    target,
                )
                / 101.0
            )
            < 40.0
        ]
        if accepted:
            min_accepted[s] = min(accepted)

    assert 0 in min_accepted  # the truth seed itself must accept
    assert len(min_accepted) >= 3  # enough accepting seeds for a rank trend
    seeds = sorted(min_accepted)
    rho = stats.spearmanr(seeds, [min_accepted[s] for s in seeds]).statistic
    assert rho >= 0.8
    assert time.perf_counter() - t0 < 300.0
