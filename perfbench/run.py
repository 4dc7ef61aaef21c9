"""Calibration benchmark: pinned ``trajcal calibrate`` workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload toy-grid --seed 1 --seconds 30 --trace 0

``--seed n`` selects a panel of PANEL master seeds.  The benchmark runs
rounds, each calibrating every panel seed once, while another round fits in
``--seconds`` (at least MIN_ROUNDS).  One client, closed loop: calibrations
run one at a time, each in a fresh Python process.  Every bundle is checked,
and all bundles of one master seed must be byte-identical.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and traced
rounds and reports per-layer metrics from the spans plus the tracing
overhead.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-run details, the
environment record and the spans go to ``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bundle  # noqa: E402
import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

#: Master seeds per invocation: ``--seed n`` calibrates PANEL*n ... PANEL*n + PANEL-1.
PANEL = 4
#: Fewest rounds over the panel, whatever ``--seconds`` says.
MIN_ROUNDS = 2
#: Start no new calibration after this many seconds, to end well within 180 s.
HARD_STOP_S = 110.0
#: A single calibration taking longer than this is killed and counted failed.
CHILD_TIMEOUT_S = 50.0

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _toy(seed, emulator, grid, expansion, workflow):
    return {
        "problem": {"kind": "toy", "ndim": 2, "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
        "emulator": {"kind": "seed-product", **emulator},
        "grid": {"kind": "adaptive", **grid},
        "expansion": {"policy": "by-sims", **expansion},
        "workflow": {**workflow, "master_seed": seed},
    }


def sir_sim(seed):
    return {
        "problem": {"kind": "sir", "ndim": 1, "lower": [0.02], "upper": [0.12]},
        "emulator": {"kind": "seed-product", "nstarts": 2, "maxfev": 150},
        "grid": {"kind": "adaptive", "ngrid": 100},
        "expansion": {"policy": "by-sims", "nseeds": 10, "nsims_expand": 50},
        "workflow": {"budget": 24, "initial_design": 12, "master_seed": seed},
        "output": {"rmse_cutoff": 40.0},
    }


def toy_fit(seed):
    return _toy(seed, {"nstarts": 2, "maxfev": 300},
                {"ngrid": 100, "proposal_step": 0.002},
                {"nseeds": 3, "nsims_expand": 4, "nexpansion": 2},
                {"budget": 84, "initial_design": 60, "nTS_samp": 1})


def toy_grid(seed):
    return _toy(seed, {"nstarts": 1, "maxfev": 60},
                {"ngrid": 500, "proposal_step": 0.002},
                {"nseeds": 8, "nsims_expand": 10**9},
                {"budget": 30, "initial_design": 20, "nTS_samp": 1})


def smoke(seed):
    """Seconds-long toy run for the harness self-test; not a benchmark workload."""
    return _toy(seed, {"nstarts": 1, "maxfev": 40}, {"ngrid": 40},
                {"nseeds": 2, "nsims_expand": 6, "nexpansion": 2},
                {"budget": 14, "initial_design": 6, "nTS_samp": 6})


WORKLOADS = {"sir-sim": sir_sim, "toy-fit": toy_fit, "toy-grid": toy_grid, "smoke": smoke}


def make_config(workload: str, seed: int, outdir: str) -> dict:
    cfg = WORKLOADS[workload](seed)
    return {"format": "trajcal-config-v1", **cfg,
            "output": {"rmse_cutoff": 20.0, **cfg.get("output", {}), "directory": outdir}}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_vars": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }


def cpu_times() -> list[int] | None:
    """Aggregate CPU time counters from /proc/stat, or None where absent."""
    try:
        with open("/proc/stat") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_frac(before, after) -> float | None:
    """Share of CPU time the hypervisor gave elsewhere between two readings."""
    if before is None or after is None or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) > 0 else None


def run_child(config_path: str, result_path: str, traced: bool) -> dict:
    """One calibration in a fresh interpreter; returns its result record."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), SRC, config_path, result_path]
    if traced:
        cmd.append("--trace")
    env = {k: v for k, v in os.environ.items() if k != "TRAJCAL_OUTPUT_DIR"}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        return {"rc": None, "error": f"timed out after {CHILD_TIMEOUT_S} s"}
    if not os.path.isfile(result_path):
        return {"rc": proc.returncode, "error": proc.stderr.strip()[-2000:]}
    with open(result_path) as fh:
        out = json.load(fh)
    out["rc"] = proc.returncode
    if proc.returncode != 0:
        out["error"] = proc.stderr.strip()[-2000:]
    return out


def layer_metrics(traced: list[dict], figures: list[dict], untraced_cal: float) -> dict:
    """Per-layer metrics from the traced calibrations of one invocation.

    Totals and counts are means per calibration over the traced runs, which
    cover every master seed of the panel equally; percentiles pool the
    individual calls of all traced runs.  ``figures`` holds one bundle's
    figures per master seed.
    """
    per = [stats.span_figures(r["spans"], r["setup_end"]) for r in traced]

    def mean(fn):
        return statistics.fmean(fn(p, r) for p, r in zip(per, traced))

    def bundle_mean(key):
        return statistics.fmean(f[key] for f in figures)

    def tot(p, *names, key="total"):
        return sum(p[key].get(n, 0.0) for n in names)

    def calls(p, *names):
        return sum(p["calls"].get(n, 0) for n in names)

    def pooled(*names):
        return [d for p in per for n in names for d in p["durations"].get(n, [])]

    def count(r, name):
        return r["counts"].get(name, 0)

    sims = ("simulator.sir_run", "simulator.toy_objective")
    growth = ("expansion.check_for_expansion", "expansion.expand",
              "expansion.sample_from_expansion", "expansion.reseed_incumbents",
              "emulator.expand_seed_space")
    sim_ms = [1e3 * d for d in pooled(*sims)]
    fit_s = pooled("emulator.fit")
    decide = [d for p in per for d in p["decide"]]
    m = {
        "simulator.calls": ("count", mean(lambda p, r: calls(p, *sims))),
        "simulator.s": ("s", mean(lambda p, r: tot(p, *sims))),
        "simulator.ms_p50": ("ms", stats.percentile(sim_ms, 50)),
        "simulator.ms_p90": ("ms", stats.percentile(sim_ms, 90)),
        "simulator.share": ("fraction", mean(
            lambda p, r: tot(p, *sims, key="in_calibrate") / r["calibrate_s"])),
        "emulator.fit_calls": ("count", mean(lambda p, r: calls(p, "emulator.fit"))),
        "emulator.fit_s": ("s", mean(lambda p, r: tot(p, "emulator.fit"))),
        "emulator.fit_s_p50": ("s", stats.percentile(fit_s, 50)),
        "emulator.fit_s_p90": ("s", stats.percentile(fit_s, 90)),
        "emulator.fit_share": ("fraction", mean(
            lambda p, r: tot(p, "emulator.fit", key="in_calibrate") / r["calibrate_s"])),
        "emulator.optimizer_starts": ("count", mean(lambda p, r: calls(p, "emulator.minimize"))),
        "emulator.lml_evals": ("count", mean(lambda p, r: count(r, "lml_evals"))),
        "emulator.lml_eval_us": ("us", mean(
            lambda p, r: 1e6 * tot(p, "emulator.minimize") / max(count(r, "lml_evals"), 1))),
        "emulator.predict_calls": ("count", mean(
            lambda p, r: calls(p, "emulator.predict_mean_var"))),
        "emulator.predict_s": ("s", mean(lambda p, r: tot(p, "emulator.predict_mean_var"))),
        "emulator.sample_s": ("s", mean(lambda p, r: tot(p, "emulator.sample"))),
        "kernels.cross_cov_calls": ("count", mean(lambda p, r: calls(p, "kernels.cross_cov"))),
        "kernels.cross_cov_s": ("s", mean(lambda p, r: tot(p, "kernels.cross_cov"))),
        "kernels.cholesky_calls": ("count", mean(
            lambda p, r: calls(p, "kernels.safe_cholesky"))),
        "kernels.cholesky_fallbacks": ("count", mean(
            lambda p, r: count(r, "cholesky_fallbacks"))),
        "grid.sample_calls": ("count", mean(lambda p, r: calls(p, "grid.sample"))),
        "grid.sample_s": ("s", mean(lambda p, r: tot(p, "grid.sample"))),
        "grid.share": ("fraction", mean(
            lambda p, r: tot(p, "grid.sample", key="in_calibrate") / r["calibrate_s"])),
        "grid.mh_proposals": ("count", mean(lambda p, r: count(r, "mh_proposals"))),
        "grid.mh_added": ("count", mean(lambda p, r: count(r, "mh_added"))),
        "grid.mh_yield": ("fraction", mean(
            lambda p, r: count(r, "mh_added") / max(count(r, "mh_proposals"), 1))),
        "workflow.iterations": ("count", bundle_mean("iterations")),
        "workflow.batch_mean": ("count", bundle_mean("batch_mean")),
        "workflow.thompson_s": ("s", mean(lambda p, r: tot(p, "workflow.thompson_select"))),
        "workflow.thompson_share": ("fraction", mean(
            lambda p, r: tot(p, "workflow.thompson_select", key="in_calibrate")
            / r["calibrate_s"])),
        "workflow.decide_s_p50": ("s", stats.percentile(decide, 50)),
        "workflow.decide_s_p90": ("s", stats.percentile(decide, 90)),
        "expansion.events": ("count", bundle_mean("expansion_events")),
        "expansion.s": ("s", mean(lambda p, r: tot(p, *growth))),
        "cli.load_config_s": ("s", mean(lambda p, r: tot(p, "cli.load_config"))),
        "cli.write_bundle_s": ("s", mean(lambda p, r: tot(p, "cli.write_bundle"))),
        "cli.bundle_bytes": ("bytes", bundle_mean("bundle_bytes")),
    }
    for layer in ("simulator", "emulator", "kernels", "grid", "workflow", "expansion", "cli"):
        m[f"{layer}.self_s"] = ("s", mean(
            lambda p, r, layer=layer: p["layer_self"].get(layer, 0.0)))
    traced_cal = panel_mean(traced, "calibrate_s")
    m["trace.calibrate_s"] = ("s", traced_cal)
    m["trace.overhead_s"] = ("s", traced_cal - untraced_cal)
    m["trace.runs"] = ("count", len(traced))
    return m


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def panel_mean(runs: list[dict], key: str) -> float:
    """Mean over the panel's master seeds of each seed's median ``key``."""
    by_seed: dict[int, list[float]] = {}
    for r in runs:
        by_seed.setdefault(r["master_seed"], []).append(r[key])
    return statistics.fmean(statistics.median(v) for v in by_seed.values())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "trajcal", "cli.py")):
        print(f"error: no trajcal package under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    work = os.path.join(WORK, f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    panel = {}
    for ms in range(PANEL * args.seed, PANEL * (args.seed + 1)):
        cfg = make_config(args.workload, ms, os.path.join(work, f"bundle-{ms}"))
        path = os.path.join(work, f"config-{ms}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh, indent=2)
        panel[ms] = (path, cfg)

    # Warm the bytecode and file caches once; every user run finds them warm.
    subprocess.run([sys.executable, "-c", "import trajcal.cli"], check=True,
                   env={**os.environ, "PYTHONPATH": SRC}, stdout=subprocess.DEVNULL)

    env = environment()
    cpu_before = cpu_times()
    runs, errors = [], []
    figures: dict[int, list[dict]] = {ms: [] for ms in panel}
    round_walls: list[float] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        typical = statistics.median(round_walls) if round_walls else 0.0
        if len(round_walls) >= MIN_ROUNDS and (elapsed + typical > args.seconds
                                               or elapsed > HARD_STOP_S):
            break
        traced = bool(args.trace) and len(round_walls) % 2 == 1
        for ms, (path, cfg) in panel.items():
            if time.perf_counter() - start > HARD_STOP_S:
                break
            outdir = cfg["output"]["directory"]
            res = run_child(path, os.path.join(work, f"run{len(runs)}.json"), traced)
            res.update(master_seed=ms, traced=traced)
            run_errors = []
            if res["rc"] != 0:
                run_errors.append(f"exit code {res['rc']}: {res.get('error', '')}")
            elif not res["trajcal_file"].startswith(SRC + os.sep):
                run_errors.append(f"imported trajcal from {res['trajcal_file']}, not {SRC}")
            else:
                figs, bad = bundle.check(outdir, cfg["workflow"]["budget"],
                                         cfg["problem"]["lower"], cfg["problem"]["upper"])
                run_errors.extend(bad)
                if figs:
                    figures[ms].append(figs)
                    if figs["failed_evals"]:
                        run_errors.append(f"{figs['failed_evals']} failed evaluations")
            shutil.rmtree(outdir, ignore_errors=True)
            res["errors"] = run_errors
            errors.extend(f"run {len(runs)} (master seed {ms}): {e}" for e in run_errors)
            runs.append(res)
        round_walls.append(time.perf_counter() - start - elapsed)
        if not any(r["rc"] == 0 for r in runs):
            break
    env["cpu_steal_frac"] = steal_frac(cpu_before, cpu_times())
    for ms, figs in figures.items():
        if len({f["digest"] for f in figs}) > 1:
            errors.append(f"master seed {ms}: bundle digests differ across runs")

    good = [r for r in runs if not r["errors"]]
    untraced = [r for r in good if not r["traced"]]
    traced_runs = [r for r in good if r["traced"]]
    failed_runs = len(runs) - len(good)
    firsts = [figs[0] for figs in figures.values() if figs]
    if (len(firsts) < len(panel) or not untraced or (args.trace and not traced_runs)
            or {r["master_seed"] for r in untraced} != set(panel)):
        print("error: some calibrations never completed; " + "; ".join(errors)[:4000],
              file=sys.stderr)
        return 1

    all_figs = [f for figs in figures.values() for f in figs]
    accept = [f["accept_prop"] for f in firsts if f["accept_prop"] is not None]
    quality = {
        "best_objective": statistics.median(f["best_objective"] for f in firsts),
        "accept_prop": statistics.fmean(accept) if accept else None,
        "dup_evals": statistics.fmean(f["dup_evals"] for f in firsts),
        "failed_frac": bundle.failed_frac(sum(f["failed_evals"] for f in all_figs),
                                          sum(f["evaluations"] for f in all_figs),
                                          failed_runs),
    }
    summaries = {name: stats.summarize([r[name] for r in untraced])
                 for name in ("calibrate_s", "setup_s", "peak_rss_mb")}
    if args.trace:
        m = layer_metrics(traced_runs, firsts, panel_mean(untraced, "calibrate_s"))
        m["quality.best_objective"] = ("objective", quality["best_objective"])
        m["quality.dup_evals"] = ("count", quality["dup_evals"])
        m["quality.failed_frac"] = ("fraction", quality["failed_frac"])
    else:
        m = {"calibrate_s": ("s", panel_mean(untraced, "calibrate_s")),
             "setup_s": ("s", summaries["setup_s"]["median"]),
             "peak_rss_mb": ("MB", summaries["peak_rss_mb"]["median"])}
    metrics = {k: {"value": v, "unit": u} for k, (u, v) in m.items()}

    print(json.dumps({"env": env}))
    print(f"workload {args.workload}  master seeds {sorted(panel)}  calibrations {len(runs)} "
          f"({len(traced_runs)} traced)  failed {failed_runs}")
    for name, s in summaries.items():
        tail = f"  p{s['tail_p']:g} {_fmt(s['tail'])}" if s["tail_p"] is not None else ""
        print(f"  {name:<14} median {_fmt(s['median'])}  q1 {_fmt(s['q1'])}  "
              f"q3 {_fmt(s['q3'])}{tail}  n {s['n']}")
    for name, value in quality.items():
        print(f"  {name:<14} {_fmt(value)}")
    for name, (unit, value) in m.items():
        print(f"  {name:<30} {_fmt(value)} {unit}")
    for e in errors:
        print(f"  CHECK FAILED {e}")

    with open(os.path.join(WORK, f"result-{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w") as fh:
        json.dump({"env": env, "args": vars(args),
                   "configs": {ms: cfg for ms, (_, cfg) in panel.items()}, "errors": errors,
                   "quality": quality, "summaries": summaries, "metrics": metrics,
                   "runs": runs}, fh)
    print(json.dumps({"correct": not errors, "attempted": len(runs), "failed": failed_runs,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
