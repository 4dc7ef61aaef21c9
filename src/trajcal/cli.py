"""Command-line surface: single simulations, calibrations, and reports.

Three subcommands: ``simulate`` runs the SIR model once and writes a
trajectory table; ``calibrate`` builds the objective and the components
from a JSON config file, hands them to ``workflow.run``, which owns the
initial design and the loop, and writes a results bundle (design.csv,
trace.jsonl, summary.json); ``report`` recomputes summary statistics from
an existing bundle's design.csv, which holds every successful run in order.
A config's sections are checked in order against ``SCHEMA``, at the keys
their ``kind`` takes, then the rules between keys; the first fault is reported.

Exit codes: 0 success, 2 invalid input, 3 numerical or progress failure
(with the partial trace preserved in the bundle; no bundle when fewer than
two initial evaluations succeed).  All numeric table columns are written
with 17 significant digits so reruns diff bitwise.  The environment
variable ``TRAJCAL_OUTPUT_DIR``, when set, redirects all output into that
directory; ``_resolve_outdir`` is its one reader.  ``calibrate`` only
replaces an absent path not under a file, an empty directory, or an
earlier bundle that holds only the files trajcal writes there, checked
before the run and again before the swap; a refusal after the run keeps
the finished bundle in its ``.trajcal-bundle-*`` directory, exit code 2.  A
malformed design.csv makes ``report`` exit 2 with a message naming the
fault.  Commands run OpenBLAS at one thread unless
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set; importing the
package leaves the thread count alone.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import inspect
import json
import math
import os
import shutil
import sys
import tempfile

import numpy as np

from .dataspace import Bounds, Dataset, rescale, sse
from .emulator import SeedKernelGP
from .errors import NumericalError, ProgressError
from .expansion import POLICIES, SAMPLE_MODES, ExpansionConfig
from .grid import AdaptiveGrid, FixedGrid, LHSGrid
from .kernels import FROM_SQ_DISTS, bundled_openblas
from .simulator import SirConfig, sir_run, to_table, toy_objective
from .workflow import STREAM_DERIVATION, WorkflowConfig, component_stream, run

__all__ = ["main", "ConfigError", "load_config", "cmd_simulate", "cmd_calibrate", "cmd_report"]

CONFIG_FORMAT = "trajcal-config-v1"
DESIGN_FORMAT = "trajcal-design-v1"
TRACE_FORMAT = "trajcal-trace-v1"
SUMMARY_FORMAT = "trajcal-summary-v1"
REPORT_FORMAT = "trajcal-report-v1"
TRAJECTORY_FORMAT = "trajcal-trajectory-v1"

OUTPUT_DIR_ENV = "TRAJCAL_OUTPUT_DIR"

#: The files ``calibrate`` and ``report`` write into a bundle directory.
BUNDLE_FILES = ("design.csv", "trace.jsonl", "summary.json", "report.json")


class ConfigError(ValueError):
    """A config file violated its schema; the message names the constraint."""


def _fmt(value: float) -> str:
    return "%.17g" % float(value)


# ---------------------------------------------------------------------------
# config schema

#: Default of a key that must be given.
REQUIRED = object()
#: Types beside int, float, bool and a tuple of choices: a path string (its
#: minimum is a minimum length), a list of ``problem.ndim`` numbers, and an
#: object checked against the rows filed under ``<section>.<key>``.
PATH, BOUNDS, TABLE = "path", "bounds", "table"


def _defaults(cls) -> dict:
    """The default of each defaulted parameter of ``cls``'s constructor."""
    return {name: param.default for name, param in inspect.signature(cls).parameters.items()
            if param.default is not param.empty}


SIR_DEFAULTS = _defaults(SirConfig)
_GP, _ADAPTIVE, _EXPANSION, _WORKFLOW = (
    _defaults(cls) for cls in (SeedKernelGP, AdaptiveGrid, ExpansionConfig, WorkflowConfig))

#: One row per key: (section, key, type, default, minimum, maximum), checked
#: in this order.  A default of None also accepts null.  A row filed under a
#: kind is a key of the section ``KIND_SECTIONS`` names, taken only at that
#: kind; any other kind refuses it as unknown.  The keys of a component's
#: section are its constructor's parameters, and their defaults and choices
#: are the library's.
SCHEMA = (
    ("problem", "kind", ("toy", "sir"), REQUIRED, None, None),
    ("problem", "ndim", int, REQUIRED, 1, None),
    ("problem", "lower", BOUNDS, REQUIRED, None, None),
    ("problem", "upper", BOUNDS, REQUIRED, None, None),
    ("sir", "crn_stream_id", int, SIR_DEFAULTS["crn_stream_id"], 0, None),
    ("sir", "truth", TABLE, {}, None, None),
    ("problem.truth", "beta", float, 0.069, 0.0, 1.0),
    ("problem.truth", "seed_id", int, 0, 0, None),
    ("sir", "truth_file", PATH, None, None, None),
    ("sir", "n_agents", int, SIR_DEFAULTS["n_agents"], 1, None),
    ("sir", "grid_extent", float, SIR_DEFAULTS["grid_extent"], 1e-9, None),
    ("sir", "horizon", int, SIR_DEFAULTS["horizon"], 1, None),
    ("sir", "infectious_period", int, SIR_DEFAULTS["infectious_period"], 1, None),
    ("sir", "contact_radius", float, SIR_DEFAULTS["contact_radius"], 1e-9, None),
    ("emulator", "kind", ("baseline", "seed-product"), REQUIRED, None, None),
    ("emulator", "family", tuple(FROM_SQ_DISTS), _GP["family"], None, None),
    ("emulator", "nstarts", int, _GP["nstarts"], 1, None),
    ("seed-product", "rank", int, _GP["rank"], 1, None),
    ("seed-product", "per_seed_v", bool, _GP["per_seed_v"], None, None),
    ("emulator", "maxfev", int, _GP["maxfev"], 1, None),
    ("grid", "kind", ("fixed", "lhs", "adaptive"), REQUIRED, None, None),
    ("grid", "ngrid", int, 100, 1, None),
    ("adaptive", "proposal_step", float, _ADAPTIVE["proposal_step"], 1e-12, None),
    ("adaptive", "reuse_previous", bool, _ADAPTIVE["reuse_previous"], None, None),
    ("expansion", "policy", POLICIES, REQUIRED, None, None),
    ("expansion", "nseeds", int, REQUIRED, 1, None),
    ("expansion", "nexpansion", int, _EXPANSION["nexpansion"], 0, None),
    ("expansion", "nsims_expand", int, _EXPANSION["nsims_expand"], 1, None),
    ("expansion", "sample_mode", SAMPLE_MODES, _EXPANSION["sample_mode"], None, None),
    ("expansion", "p", float, _EXPANSION["p"], 0.0, 1.0),
    ("workflow", "budget", int, REQUIRED, 1, None),
    ("workflow", "initial_design", int, REQUIRED, 2, None),
    ("workflow", "nTS_samp", int, _WORKFLOW["nTS_samp"], 1, None),
    ("workflow", "master_seed", int, _WORKFLOW["master_seed"], 0, None),
    ("output", "directory", PATH, REQUIRED, 1, None),
    ("output", "rmse_cutoff", float, 20.0, 0.0, None),
)
SECTIONS = ("problem", "emulator", "grid", "expansion", "workflow", "output")
KIND_SECTIONS = {"sir": "problem", "seed-product": "emulator", "adaptive": "grid"}


def _section(cfg, name):
    if name not in cfg:
        raise ConfigError(f"{name}: required section missing")
    sec = cfg.pop(name)
    if not isinstance(sec, dict):
        raise ConfigError(f"{name}: must be an object")
    return dict(sec)


def _no_extras(sec, section):
    if sec:
        raise ConfigError(f"{section}: unknown key {sorted(sec)[0]!r}")


def _scalar(value, name, kind, minimum, maximum):
    """Check one value against a scalar type and range; ints become floats
    where a number is expected."""
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"{name}: must be one of {list(kind)}")
        return value
    if kind == PATH:
        if not isinstance(value, str) or len(value) < (minimum or 0):
            raise ConfigError(f"{name}: must be a {'nonempty ' if minimum else ''}path string")
        return value
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{name}: must be true or false")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else int):
        raise ConfigError(f"{name}: must be {'a number' if kind is float else 'an integer'}")
    try:
        value = kind(value)
    except OverflowError:  # a JSON integer beyond float range
        raise ConfigError(f"{name}: must be within the range of a float") from None
    if kind is float and not math.isfinite(value):  # NaN passes every range check
        raise ConfigError(f"{name}: must be a finite number")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name}: must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{name}: must be <= {maximum}")
    return value


def _read_table(raw: dict, name: str) -> dict:
    """Check the keys SCHEMA files under ``name``, or under its kind, from
    ``raw`` and fill their defaults; a key left over is an error."""
    sec = {}
    for section, key, kind, default, minimum, maximum in SCHEMA:
        if section != name and (KIND_SECTIONS.get(section) != name or sec["kind"] != section):
            continue
        full = f"{name}.{key}"
        if key in raw:
            value = raw.pop(key)
        elif default is REQUIRED:
            raise ConfigError(f"{full}: required key missing")
        else:
            value = default
        if value is None and default is None:
            sec[key] = None
        elif kind == TABLE:
            if not isinstance(value, dict):
                raise ConfigError(f"{full}: must be an object")
            sec[key] = _read_table(dict(value), full)
        elif kind == BOUNDS:
            if not isinstance(value, list) or len(value) != sec["ndim"]:
                raise ConfigError(f"{full}: must be a list of {sec['ndim']} numbers")
            sec[key] = [_scalar(v, f"{full}[{i}]", float, None, None)
                        for i, v in enumerate(value)]
        else:
            sec[key] = _scalar(value, full, kind, minimum, maximum)
    _no_extras(raw, name)
    return sec


def _check_rules(cfg: dict, raw: dict) -> None:
    """The rules between keys, in this order, once every section is read;
    ``raw``, the file's own object, tells a given truth from the default."""
    problem, emulator, expansion, workflow = (
        cfg[name] for name in ("problem", "emulator", "expansion", "workflow"))
    sir = problem["kind"] == "sir"
    if sir and problem["ndim"] != 1:
        raise ConfigError("problem.ndim: must be 1 for the sir problem")
    if any(lo >= hi for lo, hi in zip(problem["lower"], problem["upper"])):
        raise ConfigError("problem.lower: each entry must be < the matching upper")
    if sir and (min(problem["lower"]) < 0 or max(problem["upper"]) > 1):
        raise ConfigError("problem: the sir box must lie in [0, 1]; beta is a probability")
    if sir and problem["truth_file"] is not None and "truth" in raw["problem"]:
        raise ConfigError("problem.truth: give this or problem.truth_file, not both")
    if expansion["policy"] == "by-prob" and expansion["p"] is None:
        raise ConfigError("expansion.p: required for the by-prob policy")
    if emulator.get("rank") is not None and emulator["rank"] > expansion["nseeds"]:
        raise ConfigError(f"emulator.rank: must be <= expansion.nseeds ({expansion['nseeds']})")
    if sir:  # the truth's index case, then the largest initial seed's
        truth = [] if problem["truth_file"] else [("problem", problem["truth"]["seed_id"])]
        for where, seed_id in truth + [("expansion.nseeds", expansion["nseeds"])]:
            try:
                SirConfig(beta=0.0, seed_id=seed_id, grid_extent=problem["grid_extent"])
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from None
    if workflow["budget"] < workflow["initial_design"]:
        raise ConfigError("workflow.budget: must be >= workflow.initial_design")


def load_config(path: str) -> dict:
    """Read a calibration config file, check each section against SCHEMA,
    then the rules between keys, and return it with every default filled in."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    cfg = dict(raw)
    if "format" not in cfg:
        raise ConfigError("config.format: required key missing")
    fmt = cfg.pop("format")
    if fmt != CONFIG_FORMAT:
        raise ConfigError(f"format: expected {CONFIG_FORMAT!r}, got {fmt!r}")
    out = {"format": fmt}
    for name in SECTIONS:
        out[name] = _read_table(_section(cfg, name), name)
    _no_extras(cfg, "config")
    _check_rules(out, raw)
    return out


# ---------------------------------------------------------------------------
# component construction


def _read_truth_file(path: str, expected_len: int) -> np.ndarray:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
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


def _build_objective(problem: dict, bounds: Bounds):
    """Returns (objective callable, rmse denominator or None)."""
    if problem["kind"] == "toy":
        return toy_objective, None
    overrides = {key: problem[key] for key in SIR_DEFAULTS}
    npoints = problem["horizon"] + 1
    if problem["truth_file"] is not None:
        target = _read_truth_file(problem["truth_file"], npoints)
    else:  # load_config has placed its index case on the grid
        truth_cfg = SirConfig(
            beta=problem["truth"]["beta"], seed_id=problem["truth"]["seed_id"], **overrides
        )
        target = sir_run(truth_cfg).infected_counts.astype(float)

    def objective(point) -> float:
        beta = float(rescale(point.x, bounds)[0])
        traj = sir_run(SirConfig(beta=beta, seed_id=point.r, **overrides))
        return sse(traj.infected_counts.astype(float), target)

    return objective, npoints


def _build_components(cfg: dict):
    """The emulator, grid strategy and run settings of a checked config; each
    key but ``kind`` and ``ngrid`` is the parameter of the same name."""
    em_cfg, grid_cfg = dict(cfg["emulator"]), dict(cfg["grid"])
    seeded = em_cfg.pop("kind") == "seed-product"
    kind, ngrid = grid_cfg.pop("kind"), grid_cfg.pop("ngrid")
    expansion = ExpansionConfig(**cfg["expansion"])
    # the seed-agnostic baseline is the same GP without a seed space
    emulator = SeedKernelGP(ndim=cfg["problem"]["ndim"],
                            nseeds=expansion.nseeds if seeded else None, **em_cfg)
    if kind == "fixed":
        strategy = FixedGrid(ngrid, component_stream(cfg["workflow"]["master_seed"], "grid", 0))
    elif kind == "lhs":
        strategy = LHSGrid(ngrid)
    else:
        strategy = AdaptiveGrid(ngrid, **grid_cfg)
    return emulator, strategy, WorkflowConfig(expansion=expansion, **cfg["workflow"])


# ---------------------------------------------------------------------------
# bundle writing


def _resolve_outdir(directory: str) -> str:
    """Where a command writes: ``TRAJCAL_OUTPUT_DIR`` when set, else
    ``directory``.  The one reader of that variable."""
    return os.environ.get(OUTPUT_DIR_ENV) or directory


def _check_outdir(outdir: str) -> None:
    """Refuse an output path that a finished run could not safely replace.

    Accepted: an absent path whose nearest existing ancestor is a
    directory, an empty directory, or an earlier bundle: recognised by the
    format line of its summary.json, and holding only ``BUNDLE_FILES``,
    since replacing it deletes the whole directory.
    """
    if not os.path.lexists(outdir):
        ancestor = os.path.dirname(os.path.abspath(outdir))
        while not os.path.lexists(ancestor):
            ancestor = os.path.dirname(ancestor)
        if not os.path.isdir(ancestor):
            raise ConfigError(f"output directory {outdir}: {ancestor} is not a directory")
        return
    if os.path.isdir(outdir) and not os.path.islink(outdir):
        entries = sorted(os.listdir(outdir))
        if not entries:
            return
        try:
            with open(os.path.join(outdir, "summary.json")) as fh:
                summary = json.load(fh)
        except (OSError, ValueError):
            summary = None
        if isinstance(summary, dict) and summary.get("format") == SUMMARY_FORMAT:
            foreign = [name for name in entries if name not in BUNDLE_FILES
                       or not os.path.isfile(os.path.join(outdir, name))]
            if not foreign:
                return
            raise ConfigError(f"output directory {outdir}: holds {foreign[0]!r}, which is not "
                              "a bundle file; refusing to replace it")
    raise ConfigError(
        f"output directory {outdir}: exists and is neither empty nor a trajcal "
        "bundle; refusing to replace it"
    )


def _write_design(path: str, dataset: Dataset, native: np.ndarray, rmse: np.ndarray):
    with open(path, "w", newline="") as fh:
        fh.write(f"# {DESIGN_FORMAT}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration"] + [f"x{j + 1}" for j in range(dataset.ndim)]
                        + ["seed", "y_raw", "y_std", "rmse_truth"])
        for i in range(len(dataset)):
            writer.writerow([int(dataset.iteration[i])] + [_fmt(v) for v in native[i]]
                            + [int(dataset.seeds[i]), _fmt(dataset.y_raw[i]),
                               _fmt(dataset.y_std[i]), _fmt(rmse[i])])


def _run_keys(cfg: dict, dataset: Dataset) -> dict:
    """The keys the trace's run event shares with the summary, read off their owners."""
    return {"budget": cfg["workflow"]["budget"], "master_seed": cfg["workflow"]["master_seed"],
            "initial_size": int(np.count_nonzero(dataset.iteration == 0))}


def _write_trace(path: str, cfg: dict, trace, dataset: Dataset):
    events = [{"event": "format", "version": TRACE_FORMAT},
              {"event": "run", **_run_keys(cfg, dataset), "stream_derivation": STREAM_DERIVATION}]
    # tuples in the records serialize as JSON lists
    events += [{"event": "evaluation", "index": i, **dataclasses.asdict(e)}
               for i, e in enumerate(trace.evaluations)]
    events += [{"event": "iteration", **dataclasses.asdict(rec)} for rec in trace.iterations]
    for iteration, new_seed in trace.expansion_events:
        events.append({"event": "expansion", "iteration": iteration, "new_seed": new_seed})
    events.append({"event": "final", "completed": len(dataset),
                   "transform": dataclasses.asdict(dataset.transform)})
    with open(path, "w", newline="") as fh:
        for ev in events:
            fh.write(json.dumps(ev, sort_keys=True) + "\n")


def _acceptance(rmse_vals: np.ndarray, cutoff: float) -> dict:
    """Which runs lie within ``cutoff`` RMSE of the truth, for the summary
    and the report alike."""
    accepted = np.flatnonzero(rmse_vals <= cutoff)
    return {
        "rmse_cutoff": cutoff,
        "proportion": float(accepted.size / rmse_vals.size),
        "accepted_ids": [int(i) for i in accepted],
    }


def _summary_payload(cfg: dict, trace, dataset: Dataset, native: np.ndarray, rmse) -> dict:
    best_i = int(np.argmin(dataset.y_std))
    best = {
        "x_native": [float(v) for v in native[best_i]],
        "seed": int(dataset.seeds[best_i]),
        "y_raw": float(dataset.y_raw[best_i]),
        "y_std": float(dataset.y_std[best_i]),
    }
    if rmse is not None:
        best["rmse_truth"] = float(rmse[best_i])
    return {
        "format": SUMMARY_FORMAT,
        "completed": len(dataset),
        **_run_keys(cfg, dataset),
        "iterations": len(trace.iterations),
        "best_observed": [float(v) for v in np.minimum.accumulate(dataset.y_std)],
        "best": best,
        "acceptance": None if rmse is None else _acceptance(rmse, cfg["output"]["rmse_cutoff"]),
        "expansion_events": [list(ev) for ev in trace.expansion_events],
        "final_transform": dataclasses.asdict(dataset.transform),
        "config": cfg,
    }


def _write_bundle(outdir: str, cfg: dict, trace, dataset: Dataset, bounds: Bounds,
                  rmse_denominator) -> None:
    """Write design.csv, trace.jsonl and summary.json to a fresh directory,
    then swap it in for ``outdir`` if ``_check_outdir`` still accepts it, or
    raise ConfigError naming both.  Each run's RMSE to the truth is
    computed here, once, or is None when the truth is unknown."""
    native = rescale(dataset.X, bounds)
    rmse = None if rmse_denominator is None else np.sqrt(dataset.y_raw / rmse_denominator)
    outdir = os.path.abspath(outdir)
    parent = os.path.dirname(outdir)
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=".trajcal-bundle-", dir=parent)
    try:
        _write_design(os.path.join(tmp, "design.csv"), dataset, native,
                      np.full(len(dataset), np.nan) if rmse is None else rmse)
        _write_trace(os.path.join(tmp, "trace.jsonl"), cfg, trace, dataset)
        payload = _summary_payload(cfg, trace, dataset, native, rmse)
        with open(os.path.join(tmp, "summary.json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        _check_outdir(outdir)  # again: the run may have put files there since
        if os.path.exists(outdir):
            shutil.rmtree(outdir)
        os.replace(tmp, outdir)
    except ConfigError as exc:
        raise ConfigError(f"{exc}; the finished bundle is kept in {tmp}") from None
    except Exception:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(args) -> int:
    try:
        config = SirConfig(beta=args.beta, seed_id=args.seed,
                           **{key: getattr(args, key) for key in SIR_DEFAULTS})
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    trajectory = sir_run(config)
    out_dir = _resolve_outdir(os.path.dirname(args.out))
    out = os.path.join(out_dir, os.path.basename(args.out))
    try:  # a directory, no file name, or a path under a file is an input error
        if out_dir and os.path.basename(args.out):
            os.makedirs(out_dir, exist_ok=True)
        with open(out, "w", newline="") as fh:
            fh.write(f"# {TRAJECTORY_FORMAT}\n")
            fh.write(to_table(trajectory))
    except OSError as exc:
        print(f"error: cannot write --out {out}: {exc}", file=sys.stderr)
        return 2
    print(out)
    return 0


def cmd_calibrate(args) -> int:
    try:
        cfg = load_config(args.config)
        outdir = _resolve_outdir(cfg["output"]["directory"])
        _check_outdir(outdir)
        bounds = Bounds(lower=np.array(cfg["problem"]["lower"]),
                        upper=np.array(cfg["problem"]["upper"]))
        objective, rmse_denominator = _build_objective(cfg["problem"], bounds)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emulator, strategy, wf_config = _build_components(cfg)
    try:
        (dataset, trace), failure = run(objective, wf_config, emulator, strategy), None
    except (NumericalError, ProgressError) as exc:  # ``run`` attaches its partial results
        dataset, trace, failure = exc.dataset, exc.trace, exc
    for rec in trace.evaluations:
        if rec.iteration == 0 and rec.failed:
            print(f"warning: initial evaluation failed: {rec.error}", file=sys.stderr)
    if dataset is None:  # too few initial successes to build a dataset
        print(f"error: {failure}", file=sys.stderr)
        return 3
    try:
        _write_bundle(outdir, cfg, trace, dataset, bounds, rmse_denominator)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if failure is not None:
        print(f"error: {failure} (partial results in {outdir})", file=sys.stderr)
        return 3
    print(outdir)
    return 0


def _number(value, where: str, kind=float):
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ValueError(f"{where}: {value!r} is not a number") from None


def _read_bundle(bundle_dir: str):
    """What ``report`` reads from a bundle: the iteration, y_std and
    rmse_truth columns of design.csv.  A missing or malformed part raises
    ValueError naming it."""
    try:
        with open(os.path.join(bundle_dir, "design.csv"), newline="") as fh:
            first = fh.readline().strip()
            if first != f"# {DESIGN_FORMAT}":
                raise ValueError(f"design.csv: unexpected format line {first!r}")
            reader = csv.DictReader(fh)
            rows = list(reader)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read bundle: {exc}") from exc
    columns = []
    for name, kind in (("iteration", int), ("y_std", float), ("rmse_truth", float)):
        if name not in (reader.fieldnames or ()):
            raise ValueError(f"design.csv: no {name} column")
        column = np.array([_number(row[name], f"design.csv: row {i} {name}", kind)
                           for i, row in enumerate(rows, start=1)])
        # a bundle whose truth is unknown writes a NaN rmse_truth
        bad = np.isinf(column) if name == "rmse_truth" else ~np.isfinite(column)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"design.csv: row {i + 1} {name}: "
                             f"{rows[i][name]!r} is not a finite number")
        columns.append(column)
    return columns


#: The SCHEMA row of the acceptance cutoff, which ``report`` shares.
_CUTOFF_ROW = next(row for row in SCHEMA if row[:2] == ("output", "rmse_cutoff"))


def cmd_report(args) -> int:
    _, _, kind, _, minimum, maximum = _CUTOFF_ROW
    try:  # a ConfigError is a ValueError
        cutoff = _scalar(args.rmse_cutoff, "--rmse-cutoff", kind, minimum, maximum)
        iterations, y_std, rmse_vals = _read_bundle(args.bundle)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    truth_known = bool(rmse_vals.size) and not np.all(np.isnan(rmse_vals))
    acceptance = _acceptance(rmse_vals, cutoff) if truth_known else None
    per_iteration = []
    if truth_known:
        for it in sorted(set(iterations.tolist())):
            mask = iterations <= it
            per_iteration.append({
                "iteration": it,
                "evaluations": int(mask.sum()),
                "proportion": _acceptance(rmse_vals[mask], cutoff)["proportion"],
            })
    payload = {
        "format": REPORT_FORMAT,
        "rmse_cutoff": cutoff,
        "best_observed": [float(v) for v in np.minimum.accumulate(y_std)],
        "proportion": acceptance["proportion"] if truth_known else None,
        "accepted_ids": acceptance["accepted_ids"] if truth_known else [],
        "per_iteration_acceptance": per_iteration,
    }
    out_dir = _resolve_outdir(args.bundle)
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, "report.json")
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if truth_known:
        print(f"accepted {len(acceptance['accepted_ids'])}/{rmse_vals.size} at rmse <= {cutoff:g}")
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
    sim.add_argument("--stream", dest="crn_stream_id", metavar="STREAM", type=int,
                     default=SIR_DEFAULTS["crn_stream_id"], help="common-random-number stream id")
    for key, default in SIR_DEFAULTS.items():
        if key != "crn_stream_id":
            sim.add_argument("--" + key.replace("_", "-"), type=type(default), default=default)
    sim.add_argument("--out", default="trajectory.csv", help="output table path")
    sim.set_defaults(func=cmd_simulate)

    cal = sub.add_parser("calibrate", help="run a calibration from a config file")
    cal.add_argument("config", help="path to a trajcal-config-v1 JSON file")
    cal.set_defaults(func=cmd_calibrate)

    rep = sub.add_parser("report", help="recompute summary statistics from a bundle")
    rep.add_argument("bundle", help="path to a results bundle directory")
    rep.add_argument("--rmse-cutoff", type=float, default=_CUTOFF_ROW[3])
    rep.set_defaults(func=cmd_report)
    return parser


#: The thread-count setter of the OpenBLAS that numpy and that scipy each
#: bundle in their wheels, by package name: scipy is not imported here, but
#: another module may have loaded its OpenBLAS.
_OPENBLAS_SETTERS = (("numpy", "scipy_openblas_set_num_threads64_"),
                     ("scipy", "scipy_openblas_set_num_threads"))


def _one_blas_thread() -> None:
    """Run the bundled OpenBLAS libraries at one thread.

    The matrices here have a few hundred rows at most, where a second
    thread costs more than it saves.  An ``OPENBLAS_NUM_THREADS`` or
    ``OMP_NUM_THREADS`` set by the user wins.  A library that is not
    loaded, or lacks the setter, is left alone.
    """
    if os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS"):
        return
    for package, symbol in _OPENBLAS_SETTERS:
        for setter in bundled_openblas(package, symbol):
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(1)


def main(argv=None) -> int:
    _one_blas_thread()
    args = _build_parser().parse_args(argv)
    return args.func(args)
