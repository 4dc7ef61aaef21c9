"""Command-line surface: single simulations, calibrations, and reports.

Three subcommands: ``simulate`` runs the SIR model once and writes a
trajectory table; ``calibrate`` executes the full loop from a JSON config
file and writes a results bundle (design.csv, trace.jsonl, summary.json);
``report`` recomputes summary statistics from an existing bundle.

Exit codes: 0 success, 2 invalid input, 3 numerical or progress failure
(with the partial trace preserved in the bundle).  All numeric table
columns are written with 17 significant digits so reruns diff bitwise.
The environment variable ``TRAJCAL_OUTPUT_DIR``, when set, redirects all
output into that directory.  ``calibrate`` only replaces an absent path,
an empty directory, or an earlier bundle.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import shutil
import sys
import tempfile

import numpy as np

from .dataspace import Bounds, Dataset, latin_hypercube, rescale, sse
from .emulator import SeedKernelGP
from .errors import NumericalError, ProgressError
from .expansion import ExpansionConfig
from .grid import AdaptiveGrid, FixedGrid, GridConfig, LHSGrid, ProposalParams
from .simulator import SirConfig, ground_truth, sir_run, to_table, toy_objective
from .workflow import WorkflowConfig, best_observed, component_stream, run

__all__ = ["main", "ConfigError", "load_config", "cmd_simulate", "cmd_calibrate", "cmd_report"]

CONFIG_FORMAT = "trajcal-config-v1"
DESIGN_FORMAT = "trajcal-design-v1"
TRACE_FORMAT = "trajcal-trace-v1"
SUMMARY_FORMAT = "trajcal-summary-v1"
REPORT_FORMAT = "trajcal-report-v1"
TRAJECTORY_FORMAT = "trajcal-trajectory-v1"

OUTPUT_DIR_ENV = "TRAJCAL_OUTPUT_DIR"


class ConfigError(ValueError):
    """A config file violated its schema; the message names the constraint."""


def _fmt(value: float) -> str:
    return "%.17g" % float(value)


# ---------------------------------------------------------------------------
# config schema


def _section(cfg, name, required=True):
    if name not in cfg:
        if required:
            raise ConfigError(f"{name}: required section missing")
        return {}
    sec = cfg.pop(name)
    if not isinstance(sec, dict):
        raise ConfigError(f"{name}: must be an object")
    return dict(sec)


def _take(sec, section, key, default=None, required=False):
    if key not in sec:
        if required:
            raise ConfigError(f"{section}.{key}: required key missing")
        return default
    return sec.pop(key)


def _no_extras(sec, section):
    if sec:
        raise ConfigError(f"{section}: unknown key {sorted(sec)[0]!r}")


def _as_int(value, name, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name}: must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name}: must be >= {minimum}")
    return value


def _as_num(value, name, minimum=None, maximum=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name}: must be a number")
    v = float(value)
    if minimum is not None and v < minimum:
        raise ConfigError(f"{name}: must be >= {minimum}")
    if maximum is not None and v > maximum:
        raise ConfigError(f"{name}: must be <= {maximum}")
    return v


def _as_bool(value, name):
    if not isinstance(value, bool):
        raise ConfigError(f"{name}: must be true or false")
    return value


def _as_choice(value, name, choices):
    if value not in choices:
        raise ConfigError(f"{name}: must be one of {list(choices)}")
    return value


def load_config(path: str) -> dict:
    """Read, validate, and normalize a calibration config file."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    cfg = dict(cfg)

    fmt = _take(cfg, "config", "format", required=True)
    if fmt != CONFIG_FORMAT:
        raise ConfigError(f"format: expected {CONFIG_FORMAT!r}, got {fmt!r}")

    out = {"format": fmt}

    sec = _section(cfg, "problem")
    problem = {"kind": _as_choice(_take(sec, "problem", "kind", required=True),
                                  "problem.kind", ("toy", "sir"))}
    problem["ndim"] = _as_int(_take(sec, "problem", "ndim", required=True),
                              "problem.ndim", minimum=1)
    if problem["kind"] == "sir" and problem["ndim"] != 1:
        raise ConfigError("problem.ndim: must be 1 for the sir problem")
    for key in ("lower", "upper"):
        vals = _take(sec, "problem", key, required=True)
        if not isinstance(vals, list) or len(vals) != problem["ndim"]:
            raise ConfigError(f"problem.{key}: must be a list of {problem['ndim']} numbers")
        problem[key] = [_as_num(v, f"problem.{key}[{i}]") for i, v in enumerate(vals)]
    for lo, hi in zip(problem["lower"], problem["upper"]):
        if lo >= hi:
            raise ConfigError("problem.lower: each entry must be < the matching upper")
    if problem["kind"] == "sir":
        problem["crn_stream_id"] = _as_int(
            _take(sec, "problem", "crn_stream_id", default=0), "problem.crn_stream_id", 0)
        truth = _take(sec, "problem", "truth", default={"beta": 0.069, "seed_id": 0})
        if not isinstance(truth, dict):
            raise ConfigError("problem.truth: must be an object")
        truth = dict(truth)
        problem["truth"] = {
            "beta": _as_num(_take(truth, "problem.truth", "beta", default=0.069),
                            "problem.truth.beta", 0.0, 1.0),
            "seed_id": _as_int(_take(truth, "problem.truth", "seed_id", default=0),
                               "problem.truth.seed_id", 0),
        }
        _no_extras(truth, "problem.truth")
        problem["truth_file"] = _take(sec, "problem", "truth_file", default=None)
        if problem["truth_file"] is not None and not isinstance(problem["truth_file"], str):
            raise ConfigError("problem.truth_file: must be a path string")
        problem["n_agents"] = _as_int(_take(sec, "problem", "n_agents", default=2000),
                                      "problem.n_agents", 1)
        problem["grid_extent"] = _as_num(_take(sec, "problem", "grid_extent", default=50.0),
                                         "problem.grid_extent", 1e-9)
        problem["horizon"] = _as_int(_take(sec, "problem", "horizon", default=100),
                                     "problem.horizon", 1)
        problem["infectious_period"] = _as_int(
            _take(sec, "problem", "infectious_period", default=14),
            "problem.infectious_period", 1)
        problem["contact_radius"] = _as_num(
            _take(sec, "problem", "contact_radius", default=1.5),
            "problem.contact_radius", 1e-9)
    _no_extras(sec, "problem")
    out["problem"] = problem

    sec = _section(cfg, "emulator")
    emulator = {
        "kind": _as_choice(_take(sec, "emulator", "kind", required=True),
                           "emulator.kind", ("baseline", "seed-product")),
        "family": _as_choice(_take(sec, "emulator", "family", default="matern52"),
                             "emulator.family", ("matern52", "rbf")),
        "nstarts": _as_int(_take(sec, "emulator", "nstarts", default=5),
                           "emulator.nstarts", 1),
    }
    rank = _take(sec, "emulator", "rank", default=None)
    emulator["rank"] = None if rank is None else _as_int(rank, "emulator.rank", 1)
    emulator["per_seed_v"] = _as_bool(_take(sec, "emulator", "per_seed_v", default=False),
                                      "emulator.per_seed_v")
    maxfev = _take(sec, "emulator", "maxfev", default=None)
    emulator["maxfev"] = None if maxfev is None else _as_int(maxfev, "emulator.maxfev", 1)
    _no_extras(sec, "emulator")
    out["emulator"] = emulator

    sec = _section(cfg, "grid")
    grid = {
        "kind": _as_choice(_take(sec, "grid", "kind", required=True),
                           "grid.kind", ("fixed", "lhs", "adaptive")),
        "ngrid": _as_int(_take(sec, "grid", "ngrid", default=100), "grid.ngrid", 1),
        "proposal_step": _as_num(_take(sec, "grid", "proposal_step", default=0.05),
                                 "grid.proposal_step", 1e-12),
        "reuse_previous": _as_bool(_take(sec, "grid", "reuse_previous", default=True),
                                   "grid.reuse_previous"),
    }
    _no_extras(sec, "grid")
    out["grid"] = grid

    sec = _section(cfg, "expansion")
    expansion = {
        "policy": _as_choice(_take(sec, "expansion", "policy", required=True),
                             "expansion.policy", ("by-sims", "by-prob")),
        "nseeds": _as_int(_take(sec, "expansion", "nseeds", required=True),
                          "expansion.nseeds", 1),
        "nexpansion": _as_int(_take(sec, "expansion", "nexpansion", default=10),
                              "expansion.nexpansion", 0),
        "nsims_expand": _as_int(_take(sec, "expansion", "nsims_expand", default=50),
                                "expansion.nsims_expand", 1),
        "sample_mode": _as_choice(_take(sec, "expansion", "sample_mode", default="explore"),
                                  "expansion.sample_mode", ("explore", "exploit")),
    }
    p = _take(sec, "expansion", "p", default=None)
    expansion["p"] = None if p is None else _as_num(p, "expansion.p", 0.0, 1.0)
    if expansion["policy"] == "by-prob" and expansion["p"] is None:
        raise ConfigError("expansion.p: required for the by-prob policy")
    _no_extras(sec, "expansion")
    out["expansion"] = expansion

    sec = _section(cfg, "workflow")
    wf = {
        "budget": _as_int(_take(sec, "workflow", "budget", required=True),
                          "workflow.budget", 1),
        "initial_design": _as_int(_take(sec, "workflow", "initial_design", required=True),
                                  "workflow.initial_design", 1),
        "nTS_samp": _as_int(_take(sec, "workflow", "nTS_samp", default=30),
                            "workflow.nTS_samp", 1),
        "master_seed": _as_int(_take(sec, "workflow", "master_seed", default=0),
                               "workflow.master_seed", 0),
    }
    if wf["budget"] < wf["initial_design"]:
        raise ConfigError("workflow.budget: must be >= workflow.initial_design")
    _no_extras(sec, "workflow")
    out["workflow"] = wf

    sec = _section(cfg, "output")
    directory = _take(sec, "output", "directory", required=True)
    if not isinstance(directory, str) or not directory:
        raise ConfigError("output.directory: must be a nonempty path string")
    output = {
        "directory": directory,
        "rmse_cutoff": _as_num(_take(sec, "output", "rmse_cutoff", default=20.0),
                               "output.rmse_cutoff", 0.0),
    }
    _no_extras(sec, "output")
    out["output"] = output

    _no_extras(cfg, "config")
    return out


# ---------------------------------------------------------------------------
# component construction


def _read_truth_file(path: str, expected_len: int) -> np.ndarray:
    try:
        with open(path) as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    except OSError as exc:
        raise ConfigError(f"problem.truth_file: cannot read: {exc}") from exc
    if lines and lines[0].startswith("#"):
        lines = lines[1:]
    if not lines or lines[0] != "step,infected,cumulative":
        raise ConfigError("problem.truth_file: not a trajectory table")
    counts = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 3:
            raise ConfigError("problem.truth_file: malformed row")
        try:
            counts.append(int(parts[1]))
        except ValueError:
            raise ConfigError(
                f"problem.truth_file: infected count {parts[1]!r} is not an integer"
            ) from None
    series = np.array(counts, dtype=float)
    if series.shape[0] != expected_len:
        raise ConfigError(
            f"problem.truth_file: expected {expected_len} rows for the configured "
            f"horizon, got {series.shape[0]}"
        )
    return series


def _build_objective(problem: dict):
    """Returns (objective callable, rmse denominator or None)."""
    if problem["kind"] == "toy":
        return toy_objective, None
    overrides = dict(
        crn_stream_id=problem["crn_stream_id"],
        n_agents=problem["n_agents"],
        grid_extent=problem["grid_extent"],
        horizon=problem["horizon"],
        infectious_period=problem["infectious_period"],
        contact_radius=problem["contact_radius"],
    )
    npoints = problem["horizon"] + 1
    if problem["truth_file"] is not None:
        target = _read_truth_file(problem["truth_file"], npoints)
    else:
        truth_cfg = SirConfig(
            beta=problem["truth"]["beta"], seed_id=problem["truth"]["seed_id"], **overrides
        )
        target = sir_run(truth_cfg).infected_counts.astype(float)
    bounds = Bounds(lower=np.array(problem["lower"]), upper=np.array(problem["upper"]))
    cache: dict = {}

    def objective(point) -> float:
        key = (point.x.tobytes(), point.r)
        if key in cache:
            return cache[key]
        beta = float(rescale(point.x, bounds)[0])
        traj = sir_run(SirConfig(beta=beta, seed_id=point.r, **overrides))
        y = sse(traj.infected_counts.astype(float), target)
        cache[key] = y
        return y

    return objective, npoints


def _build_components(cfg: dict):
    d = cfg["problem"]["ndim"]
    k0 = cfg["expansion"]["nseeds"]
    em_cfg = cfg["emulator"]
    # the seed-agnostic baseline is the same GP without a seed space
    emulator = SeedKernelGP(
        ndim=d, nseeds=k0 if em_cfg["kind"] == "seed-product" else None,
        rank=em_cfg["rank"], family=em_cfg["family"], nstarts=em_cfg["nstarts"],
        per_seed_v=em_cfg["per_seed_v"], maxfev=em_cfg["maxfev"],
    )
    gcfg = GridConfig(ndim=d, nseeds=k0, ngrid=cfg["grid"]["ngrid"])
    kind = cfg["grid"]["kind"]
    if kind == "fixed":
        strategy = FixedGrid.from_lhs(
            gcfg, component_stream(cfg["workflow"]["master_seed"], "grid", 0)
        )
    elif kind == "lhs":
        strategy = LHSGrid(gcfg)
    else:
        strategy = AdaptiveGrid(
            gcfg,
            proposal=ProposalParams(step=cfg["grid"]["proposal_step"]),
            reuse_previous=cfg["grid"]["reuse_previous"],
        )
    expansion = ExpansionConfig(
        nseeds=k0,
        nexpansion=cfg["expansion"]["nexpansion"],
        policy=cfg["expansion"]["policy"],
        nsims_expand=cfg["expansion"]["nsims_expand"],
        p=cfg["expansion"]["p"],
    )
    wf = WorkflowConfig(
        budget=cfg["workflow"]["budget"],
        expansion=expansion,
        nTS_samp=cfg["workflow"]["nTS_samp"],
        master_seed=cfg["workflow"]["master_seed"],
        expansion_mode=cfg["expansion"]["sample_mode"],
    )
    return emulator, strategy, wf


# ---------------------------------------------------------------------------
# bundle writing


def _resolve_outdir(directory: str) -> str:
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return env
    return directory


def _check_outdir(outdir: str) -> None:
    """Refuse an output path that a finished run could not safely replace.

    Accepted: an absent path, an empty directory, or an earlier bundle
    (recognised by the format line of its summary.json).
    """
    if not os.path.lexists(outdir):
        return
    if os.path.isdir(outdir) and not os.path.islink(outdir):
        if not os.listdir(outdir):
            return
        try:
            with open(os.path.join(outdir, "summary.json")) as fh:
                summary = json.load(fh)
        except (OSError, ValueError):
            summary = None
        if isinstance(summary, dict) and summary.get("format") == SUMMARY_FORMAT:
            return
    raise ConfigError(
        f"output directory {outdir}: exists and is neither empty nor a trajcal "
        "bundle; refusing to replace it"
    )


def _design_rows(dataset: Dataset, bounds: Bounds, rmse_denominator):
    native = rescale(dataset.X, bounds)
    for i in range(len(dataset)):
        rmse_truth = (
            math.sqrt(dataset.y_raw[i] / rmse_denominator)
            if rmse_denominator is not None
            else float("nan")
        )
        yield (
            [int(dataset.iteration[i])]
            + [_fmt(v) for v in np.atleast_1d(native[i])]
            + [int(dataset.seeds[i]), _fmt(dataset.y_raw[i]), _fmt(dataset.y_std[i]),
               _fmt(rmse_truth)]
        )


def _write_design(path: str, dataset: Dataset, bounds: Bounds, rmse_denominator):
    buf = io.StringIO()
    buf.write(f"# {DESIGN_FORMAT}\n")
    writer = csv.writer(buf, lineterminator="\n")
    cols = (["iteration"] + [f"x{j + 1}" for j in range(dataset.ndim)]
            + ["seed", "y_raw", "y_std", "rmse_truth"])
    writer.writerow(cols)
    for row in _design_rows(dataset, bounds, rmse_denominator):
        writer.writerow(row)
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())


def _write_trace(path: str, trace):
    events = [{"event": "format", "version": TRACE_FORMAT},
              {"event": "run", "master_seed": trace.master_seed, "budget": trace.budget,
               "initial_size": trace.initial_size,
               "stream_derivation": trace.stream_derivation}]
    for i, e in enumerate(trace.evaluations):
        events.append({
            "event": "evaluation", "index": i, "iteration": e.iteration,
            "x": list(e.x), "seed": e.seed, "y_raw": e.y_raw,
            "failed": e.failed, "error": e.error,
        })
    for rec in trace.iterations:
        events.append({
            "event": "iteration", "iteration": rec.iteration,
            "grid_digest": rec.grid_digest, "tau": rec.tau,
            "argmin_indices": rec.argmin_indices,
            "batch": [[list(x), r] for x, r in rec.batch],
            "expansion": list(rec.expansion) if rec.expansion else None,
            "evaluated": rec.evaluated, "failed": rec.failed,
        })
    for iteration, new_seed in trace.expansion_events:
        events.append({"event": "expansion", "iteration": iteration, "new_seed": new_seed})
    final = {"event": "final", "completed": trace.completed}
    if trace.final_transform is not None:
        eps, mean, std = trace.final_transform
        final["transform"] = {"epsilon": eps, "mean": mean, "std": std}
    events.append(final)
    with open(path, "w", newline="") as fh:
        for ev in events:
            fh.write(json.dumps(ev, sort_keys=True) + "\n")


def _acceptance(dataset: Dataset, rmse_denominator, cutoff: float):
    if rmse_denominator is None:
        return None
    rmse_vals = np.sqrt(dataset.y_raw / rmse_denominator)
    accepted = np.flatnonzero(rmse_vals <= cutoff)
    return {
        "rmse_cutoff": cutoff,
        "proportion": float(accepted.size / len(dataset)),
        "accepted_ids": [int(i) for i in accepted],
    }


def _summary_payload(cfg: dict, trace, dataset: Dataset, bounds: Bounds,
                     rmse_denominator) -> dict:
    best_seq = best_observed(trace)
    best_i = int(np.argmin(dataset.y_std))
    native = rescale(dataset.X, bounds)
    best = {
        "x_native": [float(v) for v in np.atleast_1d(native[best_i])],
        "seed": int(dataset.seeds[best_i]),
        "y_raw": float(dataset.y_raw[best_i]),
        "y_std": float(dataset.y_std[best_i]),
    }
    if rmse_denominator is not None:
        best["rmse_truth"] = math.sqrt(dataset.y_raw[best_i] / rmse_denominator)
    eps, mean, std = trace.final_transform
    return {
        "format": SUMMARY_FORMAT,
        "completed": trace.completed,
        "budget": trace.budget,
        "initial_size": trace.initial_size,
        "master_seed": trace.master_seed,
        "iterations": len(trace.iterations),
        "best_observed": [float(v) for v in best_seq],
        "best": best,
        "acceptance": _acceptance(dataset, rmse_denominator,
                                  cfg["output"]["rmse_cutoff"]),
        "expansion_events": [list(ev) for ev in trace.expansion_events],
        "final_transform": {"epsilon": eps, "mean": mean, "std": std},
        "config": cfg,
    }


def _write_bundle(outdir: str, cfg: dict, trace, dataset: Dataset, bounds: Bounds,
                  rmse_denominator) -> None:
    outdir = os.path.abspath(outdir)
    parent = os.path.dirname(outdir)
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=".trajcal-bundle-", dir=parent)
    try:
        _write_design(os.path.join(tmp, "design.csv"), dataset, bounds, rmse_denominator)
        _write_trace(os.path.join(tmp, "trace.jsonl"), trace)
        payload = _summary_payload(cfg, trace, dataset, bounds, rmse_denominator)
        with open(os.path.join(tmp, "summary.json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        if os.path.exists(outdir):
            shutil.rmtree(outdir)
        os.replace(tmp, outdir)
    except Exception:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(args) -> int:
    try:
        config = SirConfig(
            beta=args.beta,
            seed_id=args.seed,
            crn_stream_id=args.stream,
            n_agents=args.n_agents,
            grid_extent=args.grid_extent,
            horizon=args.horizon,
            infectious_period=args.infectious_period,
            contact_radius=args.contact_radius,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    trajectory = sir_run(config)
    out = args.out
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        os.makedirs(env, exist_ok=True)
        out = os.path.join(env, os.path.basename(out))
    with open(out, "w", newline="") as fh:
        fh.write(f"# {TRAJECTORY_FORMAT}\n")
        fh.write(to_table(trajectory))
    print(out)
    return 0


def cmd_calibrate(args) -> int:
    try:
        cfg = load_config(args.config)
        outdir = _resolve_outdir(cfg["output"]["directory"])
        _check_outdir(outdir)
        objective, rmse_denominator = _build_objective(cfg["problem"])
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emulator, strategy, wf_config = _build_components(cfg)
    bounds = Bounds(lower=np.array(cfg["problem"]["lower"]),
                    upper=np.array(cfg["problem"]["upper"]))

    d = cfg["problem"]["ndim"]
    n0 = cfg["workflow"]["initial_design"]
    k0 = cfg["expansion"]["nseeds"]
    init_rng = component_stream(cfg["workflow"]["master_seed"], "init", 0)
    X0 = latin_hypercube(n0, d, init_rng)
    seeds0 = 1 + np.arange(n0, dtype=np.int64) % k0
    ok_rows, ok_seeds, ok_y = [], [], []
    from .dataspace import DesignPoint

    for i in range(n0):
        point = DesignPoint(x=X0[i], r=int(seeds0[i]))
        try:
            y = float(objective(point))
            if not math.isfinite(y):
                raise ValueError(f"non-finite objective: {y}")
        except Exception as exc:
            print(f"warning: initial evaluation failed: {exc}", file=sys.stderr)
            continue
        ok_rows.append(X0[i])
        ok_seeds.append(int(seeds0[i]))
        ok_y.append(y)
    if not ok_y:
        print("error: every initial evaluation failed", file=sys.stderr)
        return 3
    dataset = Dataset(np.array(ok_rows), np.array(ok_seeds), np.array(ok_y))

    try:
        trace = run(dataset, objective, wf_config, emulator, strategy)
    except (NumericalError, ProgressError) as exc:
        trace = getattr(exc, "trace", None)
        if trace is not None:
            _write_bundle(outdir, cfg, trace, dataset, bounds, rmse_denominator)
            print(f"error: {exc} (partial results in {outdir})", file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 3
    _write_bundle(outdir, cfg, trace, dataset, bounds, rmse_denominator)
    print(outdir)
    return 0


def _read_bundle(bundle_dir: str):
    design_path = os.path.join(bundle_dir, "design.csv")
    trace_path = os.path.join(bundle_dir, "trace.jsonl")
    try:
        with open(design_path, newline="") as fh:
            first = fh.readline().strip()
            if first != f"# {DESIGN_FORMAT}":
                raise ValueError(f"design.csv: unexpected format line {first!r}")
            reader = csv.DictReader(fh)
            rows = list(reader)
        with open(trace_path) as fh:
            events = [json.loads(line) for line in fh if line.strip()]
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read bundle: {exc}") from exc
    if not events or events[0].get("version") != TRACE_FORMAT:
        raise ValueError("trace.jsonl: missing or unexpected format event")
    return rows, events


def cmd_report(args) -> int:
    try:
        rows, events = _read_bundle(args.bundle)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    final = [e for e in events if e["event"] == "final"]
    if not final or "transform" not in final[0]:
        print("error: trace.jsonl carries no final transform", file=sys.stderr)
        return 2
    tf = final[0]["transform"]
    evals = [e for e in events if e["event"] == "evaluation" and not e["failed"]]
    logs = np.log(np.maximum(np.array([e["y_raw"] for e in evals]), tf["epsilon"]))
    best_seq = np.minimum.accumulate((logs - tf["mean"]) / tf["std"])

    cutoff = args.rmse_cutoff
    rmse_vals = np.array([float(r["rmse_truth"]) for r in rows])
    iterations = np.array([int(r["iteration"]) for r in rows])
    truth_known = bool(rmse_vals.size) and not np.all(np.isnan(rmse_vals))
    accepted = np.flatnonzero(rmse_vals <= cutoff) if truth_known else np.empty(0, int)
    per_iteration = []
    if truth_known:
        for it in sorted(set(iterations.tolist())):
            mask = iterations <= it
            per_iteration.append({
                "iteration": int(it),
                "evaluations": int(mask.sum()),
                "proportion": float((rmse_vals[mask] <= cutoff).mean()),
            })
    payload = {
        "format": REPORT_FORMAT,
        "rmse_cutoff": cutoff,
        "best_observed": [float(v) for v in best_seq],
        "proportion": float(accepted.size / len(rows)) if truth_known else None,
        "accepted_ids": [int(i) for i in accepted],
        "per_iteration_acceptance": per_iteration,
    }
    out_dir = os.environ.get(OUTPUT_DIR_ENV) or args.bundle
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, "report.json")
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if truth_known:
        print(f"accepted {accepted.size}/{len(rows)} at rmse <= {cutoff:g}")
    else:
        print("truth unknown; no acceptance computed")
    print(out_path)
    return 0


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajcal",
        description="Trajectory-matching calibration of stochastic simulators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the SIR simulator once")
    sim.add_argument("--beta", type=float, required=True,
                     help="per-contact transmission probability")
    sim.add_argument("--seed", type=int, default=0, help="index-case seed id")
    sim.add_argument("--stream", type=int, default=0, help="common-random-number stream id")
    sim.add_argument("--n-agents", type=int, default=2000)
    sim.add_argument("--grid-extent", type=float, default=50.0)
    sim.add_argument("--horizon", type=int, default=100)
    sim.add_argument("--infectious-period", type=int, default=14)
    sim.add_argument("--contact-radius", type=float, default=1.5)
    sim.add_argument("--out", default="trajectory.csv", help="output table path")
    sim.set_defaults(func=cmd_simulate)

    cal = sub.add_parser("calibrate", help="run a calibration from a config file")
    cal.add_argument("config", help="path to a trajcal-config-v1 JSON file")
    cal.set_defaults(func=cmd_calibrate)

    rep = sub.add_parser("report", help="recompute summary statistics from a bundle")
    rep.add_argument("bundle", help="path to a results bundle directory")
    rep.add_argument("--rmse-cutoff", type=float, default=20.0)
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)
