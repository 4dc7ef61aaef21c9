"""Config schema, the three subcommands, bundle layout, and exit codes."""

import copy
import glob
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import trajcal
import trajcal.cli as cli
from trajcal import kernels
from trajcal.cli import ConfigError, load_config, main
from trajcal.dataspace import DesignPoint
from trajcal.workflow import STREAM_DERIVATION

#: The directory holding the package under test, for child interpreters.
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(trajcal.__file__)))


def _toy_config(outdir):
    return {
        "format": "trajcal-config-v1",
        "problem": {"kind": "toy", "ndim": 1, "lower": [0.0], "upper": [1.0]},
        "emulator": {"kind": "seed-product", "nstarts": 2, "maxfev": 100},
        "grid": {"kind": "lhs", "ngrid": 30},
        "expansion": {"policy": "by-sims", "nseeds": 3, "nsims_expand": 100000},
        "workflow": {"budget": 12, "initial_design": 8, "nTS_samp": 8},
        "output": {"directory": str(outdir)},
    }


def _write(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _load(tmp_path, mutate):
    cfg = _toy_config(tmp_path / "out")
    mutate(cfg)
    return load_config(_write(tmp_path, cfg))


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _fail_after(n, monkeypatch):
    """Make the toy objective raise on every call after its first ``n``;
    returns the list of calls."""
    toy = cli.toy_objective
    calls = []

    def failing(point):
        calls.append(point)
        if len(calls) > n:
            raise ValueError("boom")
        return toy(point)

    monkeypatch.setattr(cli, "toy_objective", failing)
    return calls


@pytest.fixture(scope="module")
def toy_bundle(tmp_path_factory):
    """One toy calibration, shared read-only by the tests below."""
    saved = os.environ.pop(cli.OUTPUT_DIR_ENV, None)
    try:
        base = tmp_path_factory.mktemp("toy")
        outdir = base / "bundle"
        code = main(["calibrate", _write(base, _toy_config(outdir))])
        assert code == 0
        return outdir
    finally:
        if saved is not None:
            os.environ[cli.OUTPUT_DIR_ENV] = saved


@pytest.fixture(scope="module")
def sir_bundle(tmp_path_factory):
    """A small SIR calibration with a known truth, for acceptance reports."""
    saved = os.environ.pop(cli.OUTPUT_DIR_ENV, None)
    try:
        base = tmp_path_factory.mktemp("sir")
        outdir = base / "bundle"
        cfg = _toy_config(outdir)
        cfg["problem"] = {
            "kind": "sir", "ndim": 1, "lower": [0.02], "upper": [0.12],
            "n_agents": 300, "horizon": 30,
        }
        cfg["emulator"]["nstarts"] = 1
        cfg["emulator"]["maxfev"] = 60
        cfg["workflow"] = {"budget": 10, "initial_design": 8, "nTS_samp": 6}
        cfg["expansion"]["nseeds"] = 4
        code = main(["calibrate", _write(base, cfg)])
        assert code == 0
        return outdir
    finally:
        if saved is not None:
            os.environ[cli.OUTPUT_DIR_ENV] = saved


# ------------------------------------------------------------------- schema


def test_load_config_fills_defaults(tmp_path):
    cfg = _load(tmp_path, lambda c: c["grid"].update(kind="adaptive"))
    assert cfg["format"] == "trajcal-config-v1"
    assert cfg["emulator"]["family"] == "matern52"
    assert cfg["emulator"]["rank"] is None
    assert cfg["emulator"]["per_seed_v"] is False
    assert cfg["grid"]["proposal_step"] == 0.05
    assert cfg["grid"]["reuse_previous"] is True
    assert cfg["expansion"]["nexpansion"] == 10
    assert cfg["expansion"]["sample_mode"] == "explore"
    assert cfg["expansion"]["p"] is None
    assert cfg["workflow"]["master_seed"] == 0
    assert cfg["output"]["rmse_cutoff"] == 20.0


def test_load_config_sir_defaults(tmp_path):
    def mutate(c):
        c["problem"] = {"kind": "sir", "ndim": 1, "lower": [0.02], "upper": [0.12]}

    cfg = _load(tmp_path, mutate)
    p = cfg["problem"]
    assert p["truth"] == {"beta": 0.069, "seed_id": 0}
    assert (p["n_agents"], p["horizon"]) == (2000, 100)
    assert (p["infectious_period"], p["contact_radius"]) == (14, 1.5)
    assert p["grid_extent"] == 50.0
    assert p["crn_stream_id"] == 0
    assert p["truth_file"] is None


def test_rejects_wrong_format():
    with pytest.raises(ConfigError, match="format: expected"):
        load_config(_write_tmp({"format": "trajcal-config-v2"}))


def _write_tmp(cfg):
    import tempfile

    fd, path = tempfile.mkstemp(suffix=".json")
    with os.fdopen(fd, "w") as fh:
        json.dump(cfg, fh)
    return path


def test_rejects_missing_format(tmp_path):
    with pytest.raises(ConfigError, match="config.format: required key missing"):
        _load(tmp_path, lambda c: c.pop("format"))


def test_rejects_missing_section(tmp_path):
    with pytest.raises(ConfigError, match="workflow: required section missing"):
        _load(tmp_path, lambda c: c.pop("workflow"))


def test_rejects_missing_required_key(tmp_path):
    with pytest.raises(ConfigError, match=r"workflow.budget: required key missing"):
        _load(tmp_path, lambda c: c["workflow"].pop("budget"))


def test_rejects_unknown_root_key(tmp_path):
    with pytest.raises(ConfigError, match="config: unknown key 'extra'"):
        _load(tmp_path, lambda c: c.update(extra=1))


def test_rejects_unknown_nested_key(tmp_path):
    with pytest.raises(ConfigError, match="emulator: unknown key 'ridge'"):
        _load(tmp_path, lambda c: c["emulator"].update(ridge=0.1))


def test_names_the_first_violated_constraint(tmp_path):
    # sections validate in a fixed order; 'problem' is hit before 'workflow'
    def mutate(c):
        c.pop("problem")
        c.pop("workflow")

    with pytest.raises(ConfigError, match="problem: required section missing"):
        _load(tmp_path, mutate)


def test_rejects_type_errors(tmp_path):
    with pytest.raises(ConfigError, match="workflow.budget: must be an integer"):
        _load(tmp_path, lambda c: c["workflow"].update(budget=12.5))
    with pytest.raises(ConfigError, match="workflow.budget: must be an integer"):
        _load(tmp_path, lambda c: c["workflow"].update(budget=True))
    with pytest.raises(ConfigError, match="grid.reuse_previous: must be true or false"):
        _load(tmp_path, lambda c: c["grid"].update(kind="adaptive", reuse_previous="yes"))
    with pytest.raises(ConfigError, match="output.rmse_cutoff: must be a number"):
        _load(tmp_path, lambda c: c["output"].update(rmse_cutoff="tight"))


def test_rejects_bad_enums(tmp_path):
    with pytest.raises(ConfigError, match="grid.kind: must be one of"):
        _load(tmp_path, lambda c: c["grid"].update(kind="random"))
    with pytest.raises(ConfigError, match="emulator.kind: must be one of"):
        _load(tmp_path, lambda c: c["emulator"].update(kind="gp"))


def test_rejects_by_prob_without_p(tmp_path):
    with pytest.raises(ConfigError, match="expansion.p: required"):
        _load(tmp_path, lambda c: c["expansion"].update(policy="by-prob"))


def test_rejects_budget_below_initial_design(tmp_path):
    with pytest.raises(ConfigError, match="workflow.budget: must be >="):
        _load(tmp_path, lambda c: c["workflow"].update(budget=4, initial_design=8))


def test_rejects_sir_with_multiple_dimensions(tmp_path):
    def mutate(c):
        c["problem"] = {"kind": "sir", "ndim": 2,
                        "lower": [0.0, 0.0], "upper": [1.0, 1.0]}

    with pytest.raises(ConfigError, match="problem.ndim: must be 1"):
        _load(tmp_path, mutate)


def test_rejects_inverted_bounds(tmp_path):
    with pytest.raises(ConfigError, match="problem.lower"):
        _load(tmp_path, lambda c: c["problem"].update(lower=[0.9], upper=[0.1]))


def test_rejects_non_object_root(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError, match="config root must be an object"):
        load_config(str(path))


def test_rejects_invalid_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="config is not valid JSON"):
        load_config(str(path))


def test_rejects_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(str(tmp_path / "absent.json"))


def test_calibrate_config_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["calibrate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config file: ") and "utf-8" in err
    assert "Traceback" not in err



_DELETE = object()
_SIR_PROBLEM = {"kind": "sir", "ndim": 1, "lower": [0.02], "upper": [0.12]}


class _Huge(int):
    """A JSON integer beyond float range, with a short test id."""

    def __repr__(self):
        return "10**400"


_HUGE = _Huge(10**400)
_TOO_BIG = "must be within the range of a float"
_NOT_FINITE = "must be a finite number"
_SIR_BOX = "the sir box must lie in [0, 1]; beta is a probability"

# one fault per schema row, pinned to the exact message: a wrong type, a value
# below the minimum, above the maximum, and a missing required key; each on
# the toy config, or with a sir problem or an adaptive grid in its place
_FAULTS = [
    ("toy", "problem.kind", 1, "problem.kind: must be one of ['toy', 'sir']"),
    ("toy", "problem.kind", _DELETE, "problem.kind: required key missing"),
    ("toy", "problem.ndim", 1.0, "problem.ndim: must be an integer"),
    ("toy", "problem.ndim", 0, "problem.ndim: must be >= 1"),
    ("toy", "problem.ndim", _DELETE, "problem.ndim: required key missing"),
    ("toy", "problem.lower", 0.0, "problem.lower: must be a list of 1 numbers"),
    ("toy", "problem.lower", [0.0, 0.5], "problem.lower: must be a list of 1 numbers"),
    ("toy", "problem.lower", ["0"], "problem.lower[0]: must be a number"),
    ("toy", "problem.lower", _DELETE, "problem.lower: required key missing"),
    ("toy", "problem.lower", [_HUGE], f"problem.lower[0]: {_TOO_BIG}"),
    ("toy", "problem.upper", None, "problem.upper: must be a list of 1 numbers"),
    ("toy", "problem.upper", [True], "problem.upper[0]: must be a number"),
    ("toy", "problem.upper", _DELETE, "problem.upper: required key missing"),
    ("toy", "problem.upper", [_HUGE], f"problem.upper[0]: {_TOO_BIG}"),
    # the sir coordinate is beta, a probability
    ("sir", "problem.lower", [-0.5], f"problem: {_SIR_BOX}"),
    ("sir", "problem.upper", [2.5], f"problem: {_SIR_BOX}"),
    ("sir", "problem.crn_stream_id", 0.5, "problem.crn_stream_id: must be an integer"),
    ("sir", "problem.crn_stream_id", -1, "problem.crn_stream_id: must be >= 0"),
    ("sir", "problem.truth", [], "problem.truth: must be an object"),
    ("sir", "problem.truth", None, "problem.truth: must be an object"),
    ("sir", "problem.truth.beta", "0.1", "problem.truth.beta: must be a number"),
    ("sir", "problem.truth.beta", -0.1, "problem.truth.beta: must be >= 0.0"),
    ("sir", "problem.truth.beta", 1.5, "problem.truth.beta: must be <= 1.0"),
    ("sir", "problem.truth.beta", _HUGE, f"problem.truth.beta: {_TOO_BIG}"),
    ("sir", "problem.truth.seed_id", 1.0, "problem.truth.seed_id: must be an integer"),
    ("sir", "problem.truth.seed_id", -1, "problem.truth.seed_id: must be >= 0"),
    ("sir", "problem.truth_file", 3, "problem.truth_file: must be a path string"),
    ("sir", "problem.n_agents", "many", "problem.n_agents: must be an integer"),
    ("sir", "problem.n_agents", 0, "problem.n_agents: must be >= 1"),
    ("sir", "problem.grid_extent", "wide", "problem.grid_extent: must be a number"),
    ("sir", "problem.grid_extent", 0, "problem.grid_extent: must be >= 1e-09"),
    ("sir", "problem.grid_extent", _HUGE, f"problem.grid_extent: {_TOO_BIG}"),
    ("sir", "problem.horizon", 10.0, "problem.horizon: must be an integer"),
    ("sir", "problem.horizon", 0, "problem.horizon: must be >= 1"),
    ("sir", "problem.infectious_period", [], "problem.infectious_period: must be an integer"),
    ("sir", "problem.infectious_period", 0, "problem.infectious_period: must be >= 1"),
    ("sir", "problem.contact_radius", False, "problem.contact_radius: must be a number"),
    ("sir", "problem.contact_radius", -1.5, "problem.contact_radius: must be >= 1e-09"),
    ("sir", "problem.contact_radius", _HUGE, f"problem.contact_radius: {_TOO_BIG}"),
    ("toy", "emulator.kind", "gp", "emulator.kind: must be one of ['baseline', 'seed-product']"),
    ("toy", "emulator.kind", _DELETE, "emulator.kind: required key missing"),
    ("toy", "emulator.family", None, "emulator.family: must be one of ['matern52', 'rbf']"),
    ("toy", "emulator.nstarts", 2.5, "emulator.nstarts: must be an integer"),
    ("toy", "emulator.nstarts", 0, "emulator.nstarts: must be >= 1"),
    ("toy", "emulator.rank", "2", "emulator.rank: must be an integer"),
    ("toy", "emulator.rank", 0, "emulator.rank: must be >= 1"),
    ("toy", "emulator.per_seed_v", 1, "emulator.per_seed_v: must be true or false"),
    ("toy", "emulator.maxfev", True, "emulator.maxfev: must be an integer"),
    ("toy", "emulator.maxfev", 0, "emulator.maxfev: must be >= 1"),
    ("toy", "grid.kind", None, "grid.kind: must be one of ['fixed', 'lhs', 'adaptive']"),
    ("toy", "grid.kind", _DELETE, "grid.kind: required key missing"),
    ("toy", "grid.ngrid", 30.0, "grid.ngrid: must be an integer"),
    ("toy", "grid.ngrid", 0, "grid.ngrid: must be >= 1"),
    ("adaptive", "grid.proposal_step", "small", "grid.proposal_step: must be a number"),
    ("adaptive", "grid.proposal_step", 0, "grid.proposal_step: must be >= 1e-12"),
    ("adaptive", "grid.proposal_step", _HUGE, f"grid.proposal_step: {_TOO_BIG}"),
    ("adaptive", "grid.reuse_previous", None, "grid.reuse_previous: must be true or false"),
    ("toy", "expansion.policy", "custom", "expansion.policy: must be one of ['by-sims', 'by-prob']"),
    ("toy", "expansion.policy", _DELETE, "expansion.policy: required key missing"),
    ("toy", "expansion.nseeds", "3", "expansion.nseeds: must be an integer"),
    ("toy", "expansion.nseeds", 0, "expansion.nseeds: must be >= 1"),
    ("toy", "expansion.nseeds", _DELETE, "expansion.nseeds: required key missing"),
    ("toy", "expansion.nexpansion", 1.5, "expansion.nexpansion: must be an integer"),
    ("toy", "expansion.nexpansion", -1, "expansion.nexpansion: must be >= 0"),
    ("toy", "expansion.nsims_expand", None, "expansion.nsims_expand: must be an integer"),
    ("toy", "expansion.nsims_expand", 0, "expansion.nsims_expand: must be >= 1"),
    ("toy", "expansion.sample_mode", "random",
     "expansion.sample_mode: must be one of ['explore', 'exploit']"),
    ("toy", "expansion.p", "half", "expansion.p: must be a number"),
    ("toy", "expansion.p", -0.5, "expansion.p: must be >= 0.0"),
    ("toy", "expansion.p", 2, "expansion.p: must be <= 1.0"),
    ("toy", "expansion.p", _HUGE, f"expansion.p: {_TOO_BIG}"),
    ("toy", "workflow.budget", "12", "workflow.budget: must be an integer"),
    ("toy", "workflow.budget", 0, "workflow.budget: must be >= 1"),
    ("toy", "workflow.budget", _DELETE, "workflow.budget: required key missing"),
    ("toy", "workflow.initial_design", 8.0, "workflow.initial_design: must be an integer"),
    ("toy", "workflow.initial_design", 0, "workflow.initial_design: must be >= 2"),
    ("toy", "workflow.initial_design", 1, "workflow.initial_design: must be >= 2"),
    ("toy", "workflow.initial_design", _DELETE, "workflow.initial_design: required key missing"),
    ("toy", "workflow.nTS_samp", {}, "workflow.nTS_samp: must be an integer"),
    ("toy", "workflow.nTS_samp", 0, "workflow.nTS_samp: must be >= 1"),
    ("toy", "workflow.master_seed", None, "workflow.master_seed: must be an integer"),
    ("toy", "workflow.master_seed", -1, "workflow.master_seed: must be >= 0"),
    ("toy", "output.directory", 3, "output.directory: must be a nonempty path string"),
    ("toy", "output.directory", "", "output.directory: must be a nonempty path string"),
    ("toy", "output.directory", _DELETE, "output.directory: required key missing"),
    ("toy", "output.rmse_cutoff", None, "output.rmse_cutoff: must be a number"),
    ("toy", "output.rmse_cutoff", -1, "output.rmse_cutoff: must be >= 0.0"),
    ("toy", "output.rmse_cutoff", _HUGE, f"output.rmse_cutoff: {_TOO_BIG}"),
    # JSON NaN in every float row, and Infinity in each one without a maximum
    ("toy", "problem.lower", [math.nan], f"problem.lower[0]: {_NOT_FINITE}"),
    ("toy", "problem.lower", [-math.inf], f"problem.lower[0]: {_NOT_FINITE}"),
    ("toy", "problem.upper", [math.nan], f"problem.upper[0]: {_NOT_FINITE}"),
    ("toy", "problem.upper", [math.inf], f"problem.upper[0]: {_NOT_FINITE}"),
    ("sir", "problem.truth", {"beta": math.nan}, f"problem.truth.beta: {_NOT_FINITE}"),
    ("sir", "problem.grid_extent", math.nan, f"problem.grid_extent: {_NOT_FINITE}"),
    ("sir", "problem.grid_extent", math.inf, f"problem.grid_extent: {_NOT_FINITE}"),
    ("sir", "problem.contact_radius", math.nan, f"problem.contact_radius: {_NOT_FINITE}"),
    ("sir", "problem.contact_radius", math.inf, f"problem.contact_radius: {_NOT_FINITE}"),
    ("adaptive", "grid.proposal_step", math.nan, f"grid.proposal_step: {_NOT_FINITE}"),
    ("adaptive", "grid.proposal_step", math.inf, f"grid.proposal_step: {_NOT_FINITE}"),
    ("toy", "expansion.p", math.nan, f"expansion.p: {_NOT_FINITE}"),
    ("toy", "output.rmse_cutoff", math.nan, f"output.rmse_cutoff: {_NOT_FINITE}"),
    ("toy", "output.rmse_cutoff", math.inf, f"output.rmse_cutoff: {_NOT_FINITE}"),
    # unknown keys, per section, in the truth object, and SIR-only keys on toy
    ("toy", "zeta", 1, "config: unknown key 'zeta'"),
    ("toy", "problem.zeta", 1, "problem: unknown key 'zeta'"),
    ("sir", "problem.zeta", 1, "problem: unknown key 'zeta'"),
    ("sir", "problem.truth.zeta", 1, "problem.truth: unknown key 'zeta'"),
    ("toy", "emulator.zeta", 1, "emulator: unknown key 'zeta'"),
    ("toy", "grid.zeta", 1, "grid: unknown key 'zeta'"),
    ("toy", "expansion.zeta", 1, "expansion: unknown key 'zeta'"),
    ("toy", "workflow.zeta", 1, "workflow: unknown key 'zeta'"),
    ("toy", "output.zeta", 1, "output: unknown key 'zeta'"),
    ("toy", "problem.n_agents", 500, "problem: unknown key 'n_agents'"),
    ("toy", "problem.truth", {}, "problem: unknown key 'truth'"),
    ("toy", "problem.truth_file", "t.csv", "problem: unknown key 'truth_file'"),
    ("toy", "problem", [], "problem: must be an object"),
    ("toy", "output", _DELETE, "output: required section missing"),
]


@pytest.mark.parametrize("base,path,value,message", _FAULTS,
                         ids=[f"{f[1]}={'<deleted>' if f[2] is _DELETE else f[2]!r}"
                              for f in _FAULTS])
def test_schema_names_each_fault(tmp_path, base, path, value, message):
    def mutate(c):
        if base == "sir":
            c["problem"] = copy.deepcopy(_SIR_PROBLEM)
        elif base == "adaptive":
            c["grid"]["kind"] = "adaptive"
        *parents, key = path.split(".")
        obj = c
        for name in parents:
            obj = obj.setdefault(name, {})
        if value is _DELETE:
            del obj[key]
        else:
            obj[key] = value

    with pytest.raises(ConfigError) as info:
        _load(tmp_path, mutate)
    assert str(info.value) == message


#: (config changes, the component attribute they reach, its value); each
#: value differs from the default and from the value of ``_toy_config``.
_SETTINGS = [
    ({"problem": {"ndim": 2, "lower": [0.0, 0.0], "upper": [1.0, 1.0]}},
     lambda em, grid, wf: em.ndim, 2),
    ({"emulator": {"kind": "baseline"}}, lambda em, grid, wf: em.nseeds, None),
    ({"emulator": {"family": "rbf"}}, lambda em, grid, wf: em.family, "rbf"),
    ({"emulator": {"nstarts": 3}}, lambda em, grid, wf: em.nstarts, 3),
    ({"emulator": {"rank": 3}}, lambda em, grid, wf: em.rank, 3),
    ({"emulator": {"per_seed_v": True}}, lambda em, grid, wf: em.per_seed_v, True),
    ({"emulator": {"maxfev": 7}}, lambda em, grid, wf: em.maxfev, 7),
    ({"grid": {"kind": "fixed"}}, lambda em, grid, wf: type(grid), cli.FixedGrid),
    ({"grid": {"kind": "fixed"}, "workflow": {"master_seed": 9}},
     lambda em, grid, wf: grid.rng.bit_generator.state,
     cli.component_stream(9, "grid", 0).bit_generator.state),
    ({"grid": {"kind": "adaptive"}}, lambda em, grid, wf: type(grid), cli.AdaptiveGrid),
    ({"grid": {"ngrid": 17}}, lambda em, grid, wf: grid.ngrid, 17),
    ({"grid": {"kind": "adaptive", "proposal_step": 0.2}},
     lambda em, grid, wf: grid.proposal_step, 0.2),
    ({"grid": {"kind": "adaptive", "reuse_previous": False}},
     lambda em, grid, wf: grid.reuse_previous, False),
    ({"expansion": {"policy": "by-prob", "p": 0.3}},
     lambda em, grid, wf: (wf.expansion.policy, wf.expansion.p), ("by-prob", 0.3)),
    ({"expansion": {"nseeds": 4}}, lambda em, grid, wf: (em.nseeds, wf.expansion.nseeds), (4, 4)),
    ({"expansion": {"nexpansion": 2}}, lambda em, grid, wf: wf.expansion.nexpansion, 2),
    ({"expansion": {"nsims_expand": 7}}, lambda em, grid, wf: wf.expansion.nsims_expand, 7),
    ({"expansion": {"sample_mode": "exploit"}},
     lambda em, grid, wf: wf.expansion.sample_mode, "exploit"),
    ({"workflow": {"budget": 20}}, lambda em, grid, wf: wf.budget, 20),
    ({"workflow": {"initial_design": 5}}, lambda em, grid, wf: wf.initial_design, 5),
    ({"workflow": {"nTS_samp": 4}}, lambda em, grid, wf: wf.nTS_samp, 4),
    ({"workflow": {"master_seed": 9}}, lambda em, grid, wf: wf.master_seed, 9),
]


@pytest.mark.parametrize("changes,attribute,want", _SETTINGS,
                         ids=[",".join(f"{section}.{key}={value!r}" for section, sec in c.items()
                                       for key, value in sec.items()) for c, _, _ in _SETTINGS])
def test_build_components_passes_each_setting_through(tmp_path, changes, attribute, want):
    def mutate(c):
        for section, values in changes.items():
            c[section].update(values)

    assert attribute(*cli._build_components(_load(tmp_path, mutate))) == want


#: Each key that a kind takes of its own: (section, kind, key, a value that
#: differs from the default, what it reaches in the built components, the
#: value found there).  The SIR keys reach the simulator configs the objective
#: runs, the truth's first; the truth file reaches the objective's target,
#: read off its value against a run with no infections.
_KIND_KEYS = [
    ("emulator", "seed-product", "rank", 3, lambda built: built["emulator"].rank, 3),
    ("emulator", "seed-product", "per_seed_v", True,
     lambda built: built["emulator"].per_seed_v, True),
    ("grid", "adaptive", "proposal_step", 0.2, lambda built: built["grid"].proposal_step, 0.2),
    ("grid", "adaptive", "reuse_previous", False,
     lambda built: built["grid"].reuse_previous, False),
    ("problem", "sir", "crn_stream_id", 3, lambda built: built["runs"][-1].crn_stream_id, 3),
    ("problem", "sir", "truth", {"beta": 0.3, "seed_id": 2},
     lambda built: (built["runs"][0].beta, built["runs"][0].seed_id), (0.3, 2)),
    ("problem", "sir", "truth_file", "truth.csv", lambda built: built["value"], 1 + 4 + 9),
    ("problem", "sir", "n_agents", 50, lambda built: built["runs"][-1].n_agents, 50),
    ("problem", "sir", "grid_extent", 40.0, lambda built: built["runs"][-1].grid_extent, 40.0),
    ("problem", "sir", "horizon", 5, lambda built: built["runs"][-1].horizon, 5),
    ("problem", "sir", "infectious_period", 5,
     lambda built: built["runs"][-1].infectious_period, 5),
    ("problem", "sir", "contact_radius", 2.5,
     lambda built: built["runs"][-1].contact_radius, 2.5),
]
_KIND_CASES = [(row, kind) for row in _KIND_KEYS
               for kind in next(r[2] for r in cli.SCHEMA if r[:2] == (row[0], "kind"))]


@pytest.mark.parametrize("row,kind", _KIND_CASES,
                         ids=[f"{row[0]}.{row[2]}@{kind}" for row, kind in _KIND_CASES])
def test_a_kind_scoped_key_reaches_its_component_and_is_unknown_at_other_kinds(
        tmp_path, monkeypatch, capsys, row, kind):
    section, own, key, value, read, want = row
    runs = []
    monkeypatch.setattr(cli, "sir_run", lambda config: runs.append(config) or
                        types.SimpleNamespace(infected_counts=np.zeros(config.horizon + 1)))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "truth.csv").write_text("step,infected,cumulative\n0,1,1\n1,2,3\n2,3,6\n")
    cfg = _toy_config(tmp_path / "out")
    if kind == "sir":
        cfg["problem"] = dict(_SIR_PROBLEM, horizon=2)
    cfg[section].update({"kind": kind, key: value})
    if kind != own:
        assert main(["calibrate", _write(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == f"error: {section}: unknown key {key!r}\n"
        assert not (tmp_path / "out").exists()
        assert runs == []
        return
    loaded = load_config(_write(tmp_path, cfg))
    emulator, grid, _ = cli._build_components(loaded)
    bounds = cli.Bounds(lower=np.array(loaded["problem"]["lower"]),
                        upper=np.array(loaded["problem"]["upper"]))
    objective, _ = cli._build_objective(loaded["problem"], bounds)
    found = objective(DesignPoint(x=np.array([0.5]), r=1))
    assert read({"emulator": emulator, "grid": grid, "runs": runs, "value": found}) == want


def test_every_section_is_read_before_the_rules_between_keys(tmp_path):
    # inverted bounds break a rule of the problem section and nstarts 0 a row
    # of the emulator section: every section is read before any rule runs
    def mutate(c):
        c["problem"].update(lower=[0.9], upper=[0.1])
        c["emulator"]["nstarts"] = 0

    with pytest.raises(ConfigError) as info:
        _load(tmp_path, mutate)
    assert str(info.value) == "emulator.nstarts: must be >= 1"


def test_readme_minimal_config_loads(tmp_path):
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    block = re.search(r"A minimal calibration config:\n\n```json\n(.*?)```", readme, re.S)
    assert block is not None
    cfg = load_config(_write(tmp_path, json.loads(block.group(1))))
    assert cfg["problem"]["kind"] == "sir"
    assert cfg["problem"]["n_agents"] == 2000
    assert cfg["workflow"]["budget"] == 200


def test_readme_python_imports_exist():
    """Every name the README's Python example imports from the package is
    a top-level export."""
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    names = [name for block in blocks
             for group in re.findall(r"^from trajcal import (\([^)]*\)|.*)$", block, re.M)
             for name in re.findall(r"\w+", group)]
    assert names
    assert set(names) <= set(trajcal.__all__), sorted(set(names) - set(trajcal.__all__))

# ----------------------------------------------------------------- simulate


def test_simulate_writes_a_trajectory_table(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main(["simulate", "--beta", "0.1", "--n-agents", "200",
                 "--horizon", "25", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.strip() == str(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "# trajcal-trajectory-v1"
    assert lines[1] == "step,infected,cumulative"
    assert lines[2] == "0,1,1"
    assert len(lines) == 2 + 26  # header rows plus horizon + 1 steps


def test_simulate_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["simulate", "--beta", "0.07", "--n-agents", "150",
                     "--horizon", "20", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_rejects_out_of_range_inputs(tmp_path, capsys):
    # an index case placed outside the area is a config error, not a crash
    code = main(["simulate", "--beta", "0.1", "--seed", "26",
                 "--out", str(tmp_path / "t.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert main(["simulate", "--beta", "-0.1",
                 "--out", str(tmp_path / "t.csv")]) == 2
    capsys.readouterr()
    for flag, value in [("--contact-radius", "nan"), ("--contact-radius", "inf"),
                        ("--grid-extent", "inf"), ("--grid-extent", "nan"),
                        ("--grid-extent", "-1")]:
        assert main(["simulate", "--beta", "1.0", "--n-agents", "200", "--horizon", "10",
                     flag, value, "--out", str(tmp_path / "t.csv")]) == 2
        assert "must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("out", ["adir", "adir/", "fresh/", "afile/t.csv", "afile/sub/t.csv"])
def test_simulate_refuses_an_out_it_cannot_write(tmp_path, capsys, monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("keep me\n")
    assert main(["simulate", "--beta", "0.1", "--n-agents", "100", "--horizon", "5",
                 "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write --out {out}: ")
    assert "Traceback" not in err
    assert (tmp_path / "afile").read_text() == "keep me\n"
    assert list((tmp_path / "adir").iterdir()) == []
    assert not (tmp_path / "fresh").exists()


def test_simulate_respects_output_dir_env(tmp_path, capsys, monkeypatch):
    env_dir = tmp_path / "redirected"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(env_dir))
    code = main(["simulate", "--beta", "0.1", "--n-agents", "150",
                 "--horizon", "15", "--out", str(tmp_path / "deep" / "t.csv")])
    assert code == 0
    assert (env_dir / "t.csv").exists()
    assert not (tmp_path / "deep").exists()


# ---------------------------------------------------------------- calibrate


def test_calibrate_bundle_layout(toy_bundle):
    names = sorted(p.name for p in toy_bundle.iterdir())
    assert names == ["design.csv", "summary.json", "trace.jsonl"]

    lines = (toy_bundle / "design.csv").read_text().splitlines()
    assert lines[0] == "# trajcal-design-v1"
    assert lines[1] == "iteration,x1,seed,y_raw,y_std,rmse_truth"
    assert len(lines) == 2 + 12  # completed the full budget

    events = [json.loads(l) for l in (toy_bundle / "trace.jsonl").read_text().splitlines()]
    assert events[0] == {"event": "format", "version": "trajcal-trace-v1"}
    assert events[1] == {"event": "run", "budget": 12, "initial_size": 8, "master_seed": 0,
                         "stream_derivation": STREAM_DERIVATION}
    evals = [e for e in events if e["event"] == "evaluation"]
    assert len(evals) == 12
    assert not any(e["failed"] for e in evals)
    assert [e["index"] for e in evals] == list(range(12))
    final = [e for e in events if e["event"] == "final"]
    assert len(final) == 1 and final[0]["completed"] == 12
    assert set(final[0]["transform"]) == {"epsilon", "mean", "std"}


def test_calibrate_summary_contents(toy_bundle):
    summary = json.loads((toy_bundle / "summary.json").read_text())
    assert summary["format"] == "trajcal-summary-v1"
    assert summary["completed"] == summary["budget"] == 12
    assert summary["initial_size"] == 8
    assert summary["acceptance"] is None  # toy problem has no truth trajectory
    best_seq = np.array(summary["best_observed"])
    assert best_seq.shape == (12,)
    assert np.all(np.diff(best_seq) <= 0)
    assert summary["best"]["y_std"] == best_seq[-1]
    assert summary["config"]["workflow"]["budget"] == 12

    # the named best matches an independent scan of the design table
    rows = (toy_bundle / "design.csv").read_text().splitlines()[2:]
    y_std = np.array([float(r.split(",")[3 + 1]) for r in rows])
    i = int(np.argmin(y_std))
    assert summary["best"]["y_std"] == pytest.approx(y_std[i], abs=0)
    assert summary["best"]["seed"] == int(rows[i].split(",")[2])


def test_calibrate_design_rows_are_iteration_ordered(toy_bundle):
    rows = (toy_bundle / "design.csv").read_text().splitlines()[2:]
    iterations = [int(r.split(",")[0]) for r in rows]
    assert iterations == sorted(iterations)
    assert iterations[:8] == [0] * 8
    # toy problem: rmse against a truth trajectory is undefined
    assert all(r.split(",")[5] == "nan" for r in rows)


@pytest.mark.parametrize("kind", ["seed-product", "baseline"])
def test_calibrate_is_bitwise_reproducible(tmp_path, kind):
    outs = []
    for name in ("one", "two"):
        outdir = tmp_path / name
        cfg = _toy_config(outdir)
        cfg["emulator"]["kind"] = kind
        code = main(["calibrate", _write(tmp_path, cfg, f"{name}.json")])
        assert code == 0
        outs.append(outdir)
    a, b = outs
    assert (a / "design.csv").read_bytes() == (b / "design.csv").read_bytes()
    assert (a / "trace.jsonl").read_bytes() == (b / "trace.jsonl").read_bytes()
    sa = json.loads((a / "summary.json").read_text())
    sb = json.loads((b / "summary.json").read_text())
    sa["config"]["output"]["directory"] = sb["config"]["output"]["directory"] = None
    assert sa == sb


def _child_env(threads):
    """The environment of a fresh interpreter that imports the package under
    test, with ``OPENBLAS_NUM_THREADS`` set to ``threads`` (None: no thread
    variable at all)."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", cli.OUTPUT_DIR_ENV)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    return env


def test_calibrate_bundle_is_the_same_at_any_blas_thread_count(tmp_path):
    """The command runs OpenBLAS at one thread unless told otherwise; the
    bundle must not depend on that."""
    outs = []
    for threads in (None, 2):
        outdir = tmp_path / f"threads-{threads}"
        cfg = _toy_config(outdir)
        cfg["grid"] = {"kind": "adaptive", "ngrid": 30}
        code = "import sys; from trajcal.cli import main; sys.exit(main(sys.argv[1:]))"
        proc = subprocess.run(
            [sys.executable, "-c", code, "calibrate", _write(tmp_path, cfg, f"{threads}.json")],
            env=_child_env(threads), capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        outs.append(outdir)
    a, b = outs
    assert (a / "design.csv").read_bytes() == (b / "design.csv").read_bytes()
    assert (a / "trace.jsonl").read_bytes() == (b / "trace.jsonl").read_bytes()


# Prints the thread counts of the OpenBLAS bundled with numpy and with scipy:
# before importing the package, after importing it, and after ``main``.  An
# argument is a thread count to set first, as a library user might.
_BLAS_THREADS = """
import contextlib, ctypes, glob, io, json, os, sys
import numpy, scipy.linalg

libs = []
for package, suffix in ((numpy, "64_"), (scipy, "")):
    where = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                         package.__name__ + ".libs")
    for path in glob.glob(os.path.join(where, "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        get = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
        get.argtypes, get.restype = [], ctypes.c_int
        put = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
        put.argtypes, put.restype = [ctypes.c_int], None
        libs.append((get, put))

if sys.argv[1:]:
    for _, put in libs:
        put(int(sys.argv[1]))
counts = [[get() for get, _ in libs]]
import trajcal, trajcal.cli
counts.append([get() for get, _ in libs])
try:
    with contextlib.redirect_stdout(io.StringIO()):
        trajcal.cli.main(["--help"])
except SystemExit:
    pass
counts.append([get() for get, _ in libs])
print(json.dumps(counts))
"""


def _blas_thread_counts(env_threads, *args):
    proc = subprocess.run([sys.executable, "-c", _BLAS_THREADS, *args],
                          env=_child_env(env_threads), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, imported, after = json.loads(proc.stdout)
    if not before:
        pytest.skip("no OpenBLAS bundled in numpy.libs or scipy.libs")
    return before, imported, after


def test_import_leaves_blas_threads_alone_and_main_sets_one():
    before, imported, after = _blas_thread_counts(None, "3")
    assert before == imported == [3] * len(before)
    assert after == [1] * len(before)


def test_blas_thread_variable_overrides_main():
    before, imported, after = _blas_thread_counts(2)
    assert before == imported == after


# Runs trajcal commands in this fresh process, each given as a JSON list of
# arguments, after putting a finder first on sys.meta_path that refuses scipy
# and all of its submodules when the first argument is "block".  Prints the
# exit codes and the scipy modules loaded after the import and at the end.
_NO_SCIPY = """
import json, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

if sys.argv[1] == "block":
    sys.meta_path.insert(0, RefuseScipy())
import trajcal.cli
loaded = lambda: sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
after_import = loaded()
codes = [trajcal.cli.main(json.loads(args)) for args in sys.argv[2:]]
print(json.dumps({"codes": codes, "after_import": after_import, "at_end": loaded()}))
"""


def _skip_without_numpy_openblas():
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    if not glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        pytest.skip("numpy bundles no 64-bit-integer OpenBLAS here")


def test_commands_run_without_scipy_and_write_the_same_bytes(tmp_path):
    """With scipy refused by an import hook, calibrate (each grid kind, and a
    small SIR problem), report and simulate succeed and write the bytes they
    write without the hook; neither run loads any scipy module.  Builds whose
    numpy bundles no OpenBLAS take their solves from scipy, so they skip."""
    _skip_without_numpy_openblas()
    runs, files = [], []
    bundle = ("design.csv", "trace.jsonl", "summary.json", "report.json")
    for kind in ("fixed", "lhs", "adaptive"):
        cfg = _toy_config(tmp_path / f"out-{kind}")
        cfg["grid"]["kind"] = kind
        runs += [["calibrate", _write(tmp_path, cfg, f"{kind}.json")],
                 ["report", cfg["output"]["directory"]]]
        files += [tmp_path / f"out-{kind}" / name for name in bundle]
    sir = {"format": "trajcal-config-v1",
           "problem": {"kind": "sir", "ndim": 1, "lower": [0.02], "upper": [0.12],
                       "n_agents": 300, "horizon": 30},
           "emulator": {"kind": "seed-product", "nstarts": 2, "maxfev": 100},
           "grid": {"kind": "adaptive", "ngrid": 30},
           "expansion": {"policy": "by-sims", "nseeds": 3, "nsims_expand": 5},
           "workflow": {"budget": 10, "initial_design": 6, "nTS_samp": 4},
           "output": {"directory": str(tmp_path / "out-sir")}}
    runs += [["calibrate", _write(tmp_path, sir, "sir.json")],
             ["report", sir["output"]["directory"], "--rmse-cutoff", "30"],
             ["simulate", "--beta", "0.07", "--n-agents", "200", "--horizon", "10",
              "--out", str(tmp_path / "trajectory.csv")]]
    files += [tmp_path / "out-sir" / name for name in bundle] + [tmp_path / "trajectory.csv"]
    outputs = {}
    for mode in ("plain", "block"):  # the same paths both times
        proc = subprocess.run([sys.executable, "-c", _NO_SCIPY, mode,
                               *(json.dumps(args) for args in runs)],
                              env=_child_env(None), capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        *printed, result = proc.stdout.splitlines()
        result = json.loads(result)
        assert result == {"codes": [0] * len(runs), "after_import": [], "at_end": []}
        outputs[mode] = (printed, proc.stderr, [path.read_bytes() for path in files])
        for path in files:  # leaves empty bundle directories, which calibrate reuses
            path.unlink()
    assert outputs["block"] == outputs["plain"]


def test_calibrate_on_the_fallback_lapack_path_writes_the_default_bundle(tmp_path, monkeypatch):
    """CI's toy config, at its rerun variants' budget so the seed space grows
    and is fitted again, as on a build whose numpy bundles no OpenBLAS (macOS,
    Windows, conda): ``np.linalg.cholesky`` and scipy's LAPACK wrappers in
    place of numpy's bundled routines.  It writes the bytes the default path
    writes.  Where numpy bundles none the default path is that fallback
    already, so it skips."""
    _skip_without_numpy_openblas()
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    bundles = []
    for name in ("default", "fallback"):
        if name == "fallback":
            monkeypatch.setattr(kernels, "_lapack", lambda name: None)
        cfg = _toy_config(tmp_path / name)
        cfg["grid"] = {"kind": "adaptive", "ngrid": 30}
        cfg["expansion"].update(nsims_expand=4, nexpansion=2)
        cfg["workflow"]["budget"] = 20
        assert main(["calibrate", _write(tmp_path, cfg, f"{name}.json")]) == 0
        bundles.append([(tmp_path / name / f).read_bytes() for f in ("design.csv", "trace.jsonl")])
    assert bundles[1] == bundles[0]


def test_calibrate_makes_no_unseeded_generator(tmp_path, monkeypatch):
    """A run is a function of its master seed: with ``np.random.default_rng``
    refusing a call without a seed, a toy calibration on the adaptive grid that
    grows its seed space, and a small SIR calibration, each finish."""
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    default_rng = np.random.default_rng

    def seeded_only(seed=None):
        if seed is None:
            raise AssertionError("an unseeded generator")
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", seeded_only)
    toy = _toy_config(tmp_path / "toy")
    toy["grid"] = {"kind": "adaptive", "ngrid": 30}
    toy["expansion"].update(nsims_expand=4, nexpansion=2)
    toy["workflow"]["budget"] = 20
    sir = _toy_config(tmp_path / "sir")
    sir["problem"] = {"kind": "sir", "ndim": 1, "lower": [0.02], "upper": [0.12],
                      "n_agents": 300, "horizon": 30}
    sir["workflow"] = {"budget": 10, "initial_design": 6, "nTS_samp": 4}
    for name, cfg in (("toy", toy), ("sir", sir)):
        assert main(["calibrate", _write(tmp_path, cfg, f"{name}.json")]) == 0
        assert (tmp_path / name / "summary.json").exists()


def test_calibrate_budget_equal_to_initial_design(tmp_path):
    outdir = tmp_path / "out"
    cfg = _toy_config(outdir)
    cfg["workflow"]["budget"] = cfg["workflow"]["initial_design"] = 6
    assert main(["calibrate", _write(tmp_path, cfg)]) == 0
    events = [json.loads(l) for l in (outdir / "trace.jsonl").read_text().splitlines()]
    assert not [e for e in events if e["event"] == "iteration"]
    rows = (outdir / "design.csv").read_text().splitlines()[2:]
    assert len(rows) == 6
    assert all(int(r.split(",")[0]) == 0 for r in rows)


def test_calibrate_invalid_config_exits_2_without_a_bundle(tmp_path, capsys):
    outdir = tmp_path / "never"
    cfg = _toy_config(outdir)
    cfg["workflow"]["cadence"] = 3
    assert main(["calibrate", _write(tmp_path, cfg)]) == 2
    assert "workflow: unknown key 'cadence'" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("successes", [0, 1])
def test_calibrate_fewer_than_two_initial_successes_exits_3(tmp_path, monkeypatch, capsys,
                                                            successes):
    _fail_after(successes, monkeypatch)
    outdir = tmp_path / "never"
    assert main(["calibrate", _write(tmp_path, _toy_config(outdir))]) == 3
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        f"error: {successes} of 8 initial evaluations succeeded; need at least 2")
    assert "Traceback" not in err
    assert not outdir.exists()


def test_calibrate_refuses_to_replace_an_unrelated_directory(tmp_path, capsys):
    cfg = _toy_config(tmp_path / "out")
    cfg["workflow"]["budget"] = cfg["workflow"]["initial_design"] = 6
    path = _write(tmp_path, cfg)
    outdir = tmp_path / "out"
    outdir.mkdir()
    (outdir / "notes.txt").write_text("keep me\n")
    assert main(["calibrate", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(outdir) in err
    assert sorted(p.name for p in outdir.iterdir()) == ["notes.txt"]
    assert (outdir / "notes.txt").read_text() == "keep me\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "out"]

    # a plain file at the output path is refused the same way
    (outdir / "notes.txt").unlink()
    outdir.rmdir()
    outdir.write_text("not a directory\n")
    assert main(["calibrate", path]) == 2
    assert str(outdir) in capsys.readouterr().err
    assert outdir.read_text() == "not a directory\n"

    # an empty directory is filled, and the bundle it holds may be replaced
    outdir.unlink()
    outdir.mkdir()
    assert main(["calibrate", path]) == 0
    first = (outdir / "trace.jsonl").read_bytes()
    assert main(["calibrate", path]) == 0
    assert (outdir / "trace.jsonl").read_bytes() == first


def test_calibrate_refuses_to_replace_a_bundle_holding_other_files(tmp_path, monkeypatch,
                                                                   capsys):
    # replacing a bundle deletes its directory, so it must hold only the
    # files trajcal writes there: here the config itself and a note
    outdir = tmp_path / "out"
    cfg = _toy_config(outdir)
    cfg["workflow"]["budget"] = cfg["workflow"]["initial_design"] = 6
    assert main(["calibrate", _write(tmp_path, cfg)]) == 0
    assert main(["report", str(outdir)]) == 0
    assert main(["calibrate", _write(tmp_path, cfg)]) == 0  # report.json is a bundle file
    first = {p.name: p.read_bytes() for p in outdir.iterdir()}
    path = _write(outdir, cfg)
    (outdir / "notes.txt").write_text("keep me\n")
    calls = []
    monkeypatch.setattr(cli, "toy_objective", lambda point: calls.append(point) or 1.0)
    capsys.readouterr()
    assert main(["calibrate", path]) == 2
    assert capsys.readouterr().err == (
        f"error: output directory {outdir}: holds 'config.json', which is not a bundle "
        "file; refusing to replace it\n")
    assert calls == []
    assert (outdir / "notes.txt").read_text() == "keep me\n"
    assert json.loads((outdir / "config.json").read_text()) == cfg
    for name, data in first.items():
        assert (outdir / name).read_bytes() == data

    # a directory under a bundle file's name is foreign too
    (outdir / "notes.txt").unlink()
    (outdir / "config.json").unlink()
    (outdir / "report.json").mkdir()
    assert main(["calibrate", _write(tmp_path, cfg)]) == 2
    assert "holds 'report.json'" in capsys.readouterr().err
    assert calls == []


def test_calibrate_keeps_files_that_appear_in_the_output_directory_during_the_run(
        tmp_path, capsys):
    """The output path is checked again before the swap: a file put there while
    the run went is kept, and so is the finished bundle, beside it."""
    outdir = tmp_path / "out"
    outdir.mkdir()
    cfg = _toy_config(outdir)
    cfg["workflow"]["budget"] = cfg["workflow"]["initial_design"] = 6
    real_run = cli.run

    def run_and_write_a_note(*args):
        (outdir / "notes.txt").write_text("keep me\n")
        return real_run(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "run", run_and_write_a_note)
        assert main(["calibrate", _write(tmp_path, cfg)]) == 2
    assert (outdir / "notes.txt").read_text() == "keep me\n"
    assert sorted(p.name for p in outdir.iterdir()) == ["notes.txt"]
    kept = [p for p in tmp_path.iterdir() if p.name.startswith(".trajcal-bundle-")]
    assert len(kept) == 1
    assert sorted(p.name for p in kept[0].iterdir()) == [
        "design.csv", "summary.json", "trace.jsonl"]
    assert capsys.readouterr().err == (
        f"error: output directory {outdir}: exists and is neither empty nor a trajcal "
        f"bundle; refusing to replace it; the finished bundle is kept in {kept[0]}\n")
    # the kept bundle is the one an undisturbed run writes
    shutil.rmtree(outdir)
    assert main(["calibrate", _write(tmp_path, cfg)]) == 0
    for name in ("design.csv", "summary.json", "trace.jsonl"):
        assert (kept[0] / name).read_bytes() == (outdir / name).read_bytes()


def test_calibrate_removes_its_scratch_bundle_when_a_write_fails(tmp_path, monkeypatch):
    """A write that fails leaves no ``.trajcal-bundle-*`` directory behind, and
    the earlier bundle stands as it was."""
    outdir = tmp_path / "out"
    cfg = _toy_config(outdir)
    cfg["workflow"]["budget"] = cfg["workflow"]["initial_design"] = 6
    path = _write(tmp_path, cfg)
    assert main(["calibrate", path]) == 0
    first = {p.name: p.read_bytes() for p in outdir.iterdir()}

    def full_disk(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "_write_trace", full_disk)
    with pytest.raises(OSError, match="No space left"):
        main(["calibrate", path])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "out"]
    assert {p.name: p.read_bytes() for p in outdir.iterdir()} == first


@pytest.mark.parametrize("below", [["bundle"], ["deeper", "bundle"]],
                         ids=["child", "grandchild"])
def test_calibrate_output_under_a_file_exits_2_before_any_run(tmp_path, monkeypatch, capsys,
                                                               below):
    calls = []
    monkeypatch.setattr(cli, "toy_objective", lambda point: calls.append(point) or 1.0)
    afile = tmp_path / "afile"
    afile.write_text("keep me\n")
    outdir = afile.joinpath(*below)
    assert main(["calibrate", _write(tmp_path, _toy_config(outdir))]) == 2
    assert capsys.readouterr().err == (
        f"error: output directory {outdir}: {afile} is not a directory\n")
    assert calls == []
    assert afile.read_text() == "keep me\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "config.json"]


def _sir_truth_file_config(tmp_path, truth_file):
    cfg = _toy_config(tmp_path / "out")
    cfg["problem"] = {"kind": "sir", "ndim": 1, "lower": [0.02], "upper": [0.12],
                      "horizon": 2, "truth_file": str(truth_file)}
    return _write(tmp_path, cfg)


def test_calibrate_missing_truth_file_exits_2(tmp_path, capsys):
    path = _sir_truth_file_config(tmp_path, tmp_path / "absent.csv")
    assert main(["calibrate", path]) == 2
    assert capsys.readouterr().err.startswith("error: problem.truth_file: ")
    assert not (tmp_path / "out").exists()


def test_calibrate_truth_file_not_utf8_exits_2(tmp_path, capsys):
    truth = tmp_path / "truth.csv"
    truth.write_bytes(b"\xff\xfestep,infected,cumulative\n0,1,1\n1,2,3\n2,1,3\n")
    path = _sir_truth_file_config(tmp_path, truth)
    assert main(["calibrate", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: problem.truth_file: cannot read: ") and "utf-8" in err
    assert not (tmp_path / "out").exists()


def test_calibrate_against_a_simulated_truth_file_matches_the_inline_truth(
        tmp_path, monkeypatch):
    # the table ``simulate`` writes, format line and all, is the same target
    # as the inline default truth (beta 0.069, seed 0)
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    truth = tmp_path / "truth.csv"
    assert main(["simulate", "--beta", "0.069", "--seed", "0", "--n-agents", "300",
                 "--horizon", "30", "--out", str(truth)]) == 0
    assert truth.read_text().startswith("# trajcal-trajectory-v1\n")
    bundles = []
    for name, target in (("inline", {}), ("file", {"truth_file": str(truth)})):
        cfg = _toy_config(tmp_path / name)
        cfg["problem"] = dict(_SIR_PROBLEM, n_agents=300, horizon=30, **target)
        cfg["emulator"].update(nstarts=1, maxfev=60)
        cfg["workflow"] = {"budget": 10, "initial_design": 8, "nTS_samp": 6}
        assert main(["calibrate", _write(tmp_path, cfg, f"{name}.json")]) == 0
        bundles.append(tmp_path / name)
    inline, from_file = bundles
    for name in ("design.csv", "trace.jsonl"):
        assert (inline / name).read_bytes() == (from_file / name).read_bytes()


def test_calibrate_non_integer_truth_count_exits_2(tmp_path, capsys):
    truth = tmp_path / "truth.csv"
    truth.write_text("step,infected,cumulative\n0,1,1\n1,2.5,3\n2,1,3\n")
    path = _sir_truth_file_config(tmp_path, truth)
    assert main(["calibrate", path]) == 2
    assert capsys.readouterr().err.startswith("error: problem.truth_file: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("table, message", [
    ("step,infected\n0,1\n1,2\n2,1\n", "not a trajectory table"),
    ("step,infected,cumulative\n0,1,1\n1,2\n2,1,3\n", "malformed row"),
    ("step,infected,cumulative\n0,1,1\n1,2,3\n",
     "expected 3 rows for the configured horizon, got 2"),
], ids=["header", "row", "length"])
def test_calibrate_malformed_truth_file_exits_2(tmp_path, capsys, table, message):
    truth = tmp_path / "truth.csv"
    truth.write_text(table)
    assert main(["calibrate", _sir_truth_file_config(tmp_path, truth)]) == 2
    assert capsys.readouterr().err == f"error: problem.truth_file: {message}\n"
    assert not (tmp_path / "out").exists()


def test_calibrate_refuses_an_inline_truth_beside_a_truth_file(tmp_path, monkeypatch, capsys):
    """The inline truth used to be dropped for the file's; now the config is
    refused before any simulation, whichever truth it gives inline."""
    truth = tmp_path / "truth.csv"
    truth.write_text("step,infected,cumulative\n0,1,1\n1,2,3\n2,1,3\n")
    monkeypatch.setattr(cli, "sir_run", lambda config: pytest.fail("a simulation ran"))
    cfg = _toy_config(tmp_path / "out")
    for inline in ({"beta": 0.9, "seed_id": 3}, {}):
        cfg["problem"] = dict(_SIR_PROBLEM, horizon=2, truth=inline, truth_file=str(truth))
        assert main(["calibrate", _write(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == (
            "error: problem.truth: give this or problem.truth_file, not both\n")
        assert not (tmp_path / "out").exists()
    # a null truth_file is no file
    cfg["problem"]["truth_file"] = None
    assert load_config(_write(tmp_path, cfg))["problem"]["truth"] == {"beta": 0.069, "seed_id": 0}


def test_calibrate_rank_above_nseeds_exits_2(tmp_path, capsys):
    cfg = _toy_config(tmp_path / "out")
    cfg["emulator"]["rank"] = 5
    assert main(["calibrate", _write(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: emulator.rank: must be <= expansion.nseeds (3)")
    assert not (tmp_path / "out").exists()

    # the baseline has no seed factor, so it takes no rank
    cfg["emulator"]["kind"] = "baseline"
    assert main(["calibrate", _write(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err == "error: emulator: unknown key 'rank'\n"
    assert not (tmp_path / "out").exists()


def test_calibrate_huge_integer_exits_2(tmp_path, capsys):
    cfg = _toy_config(tmp_path / "out")
    cfg["problem"] = dict(_SIR_PROBLEM, grid_extent=10**400)
    assert main(["calibrate", _write(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err == f"error: problem.grid_extent: {_TOO_BIG}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,value,name", [
    ("lower", [math.nan], "problem.lower[0]"),
    ("contact_radius", math.nan, "problem.contact_radius"),
    ("grid_extent", math.inf, "problem.grid_extent"),
])
def test_calibrate_non_finite_number_exits_2(tmp_path, capsys, key, value, name):
    # NaN passes a range check, since every comparison with it is false; it
    # used to fail each evaluation (exit 3) or, as a radius, to run with no
    # contacts at all
    cfg = _toy_config(tmp_path / "out")
    cfg["problem"] = dict(_SIR_PROBLEM, **{key: value})
    assert main(["calibrate", _write(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err == f"error: {name}: {_NOT_FINITE}\n"
    assert not (tmp_path / "out").exists()


def test_calibrate_sir_box_outside_the_unit_interval_exits_2(tmp_path, monkeypatch, capsys):
    # every beta above 1 would fail its evaluation; the box is refused first
    runs = []
    monkeypatch.setattr(cli, "sir_run", lambda config: runs.append(config))
    cfg = _toy_config(tmp_path / "out")
    cfg["problem"] = dict(_SIR_PROBLEM, lower=[1.5], upper=[2.5])
    assert main(["calibrate", _write(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err == f"error: problem: {_SIR_BOX}\n"
    assert runs == []
    assert not (tmp_path / "out").exists()


def test_calibrate_index_case_outside_the_grid_exits_2(tmp_path, capsys):
    # grid_extent 10 puts the truth run's index case, at (25, 25), off the grid
    cfg = _toy_config(tmp_path / "out")
    cfg["problem"] = dict(_SIR_PROBLEM, grid_extent=10)
    assert main(["calibrate", _write(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: problem: index case (25+0, 25+0) lies outside")
    assert not (tmp_path / "out").exists()


def test_calibrate_initial_seed_off_the_grid_exits_2_before_any_run(tmp_path, monkeypatch, capsys):
    """The largest initial seed id, ``expansion.nseeds``, must place its index
    case on the grid, with a truth file (whose own seed is unknown) and with the
    inline truth; the config is refused before any simulation runs."""
    truth = tmp_path / "truth.csv"
    assert main(["simulate", "--beta", "0.069", "--horizon", "2", "--n-agents", "50",
                 "--out", str(truth)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "sir_run", lambda config: pytest.fail("a simulation ran"))
    for problem, nseeds, grid in (({"grid_extent": 20, "truth_file": str(truth)}, 3, 20.0),
                                  ({}, 28, 50.0)):
        cfg = _toy_config(tmp_path / "out")
        cfg["problem"] = dict(_SIR_PROBLEM, horizon=2, **problem)
        cfg["expansion"]["nseeds"] = nseeds
        assert main(["calibrate", _write(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == (f"error: expansion.nseeds: index case (25+{nseeds}, "
                                           f"25+{nseeds}) lies outside the {grid} x {grid} grid\n")
        assert not (tmp_path / "out").exists()
    cfg["expansion"]["nseeds"] = 25  # (50, 50) is the grid's corner, on it
    assert load_config(_write(tmp_path, cfg))["expansion"]["nseeds"] == 25


def test_sir_objective_simulates_a_repeated_pair_again_to_the_same_value(tmp_path, monkeypatch):
    """The objective keeps no memo: under common random numbers a repeated
    (x, seed) pair runs the simulator again and gives the same bits."""
    cfg = _toy_config(tmp_path / "out")
    cfg["problem"] = dict(_SIR_PROBLEM, n_agents=100, horizon=10)
    problem = load_config(_write(tmp_path, cfg))["problem"]
    calls, simulate = [], cli.sir_run
    monkeypatch.setattr(cli, "sir_run", lambda config: calls.append(config) or simulate(config))
    bounds = cli.Bounds(lower=np.array([0.02]), upper=np.array([0.12]))
    objective, _ = cli._build_objective(problem, bounds)
    point = DesignPoint(x=np.array([0.4]), r=2)
    values = [objective(point), objective(point)]
    assert len(calls) == 3  # the truth, then the pair twice
    assert values[0] == values[1] and math.isfinite(values[0])


def test_calibrate_warns_and_traces_the_same_failure_text(tmp_path, monkeypatch, capsys):
    toy = cli.toy_objective

    def flaky(point):
        if point.r == 2:
            raise ValueError("boom")
        return toy(point)

    monkeypatch.setattr(cli, "toy_objective", flaky)
    outdir = tmp_path / "out"
    assert main(["calibrate", _write(tmp_path, _toy_config(outdir))]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning:")]
    # initial design of 8 over 3 seeds: seed 2 at design positions 1, 4 and 7
    assert warnings == ["warning: initial evaluation failed: ValueError: boom"] * 3
    events = [json.loads(l) for l in (outdir / "trace.jsonl").read_text().splitlines()]
    evaluations = [e for e in events if e["event"] == "evaluation"]
    errors = {e["error"] for e in evaluations if e["failed"]}
    assert errors == {"ValueError: boom"}

    # the trace records the whole initial design in order, failures included
    initial = [e for e in evaluations if e["iteration"] == 0]
    assert [e["index"] for e in initial] == list(range(8))
    assert [e["seed"] for e in initial] == [1, 2, 3, 1, 2, 3, 1, 2]
    assert [e["failed"] for e in initial] == [e["seed"] == 2 for e in initial]
    for e in initial:
        if e["failed"]:
            assert e["y_raw"] is None and e["error"] == "ValueError: boom"
        else:
            assert e["error"] is None
    rows = (outdir / "design.csv").read_text().splitlines()[2:]
    design0 = [(int(r.split(",")[2]), float(r.split(",")[3]))
               for r in rows if r.startswith("0,")]
    assert design0 == [(e["seed"], e["y_raw"]) for e in initial if not e["failed"]]
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["completed"] == summary["budget"] == 12
    # the initial size counts the successes, in the summary and the run event alike
    assert summary["initial_size"] == events[1]["initial_size"] == len(design0) == 5


def test_calibrate_respects_output_dir_env(tmp_path, monkeypatch):
    env_dir = tmp_path / "redirected"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(env_dir))
    cfg = _toy_config(tmp_path / "configured")
    cfg["workflow"]["budget"] = cfg["workflow"]["initial_design"] = 6
    assert main(["calibrate", _write(tmp_path, cfg)]) == 0
    assert (env_dir / "summary.json").exists()
    assert not (tmp_path / "configured").exists()


def test_calibrate_failure_mid_run_keeps_a_partial_bundle(tmp_path, monkeypatch, capsys):
    # every evaluation after the initial design of 8 fails, so the run dies
    # at iteration 1; the bundle must still appear, carrying the partial
    # trace, and the exit code must say "failed"
    calls = _fail_after(8, monkeypatch)
    outdir = tmp_path / "out"
    assert main(["calibrate", _write(tmp_path, _toy_config(outdir))]) == 3
    err = capsys.readouterr().err
    assert err == (f"error: every simulator evaluation failed at iteration 1 "
                   f"(partial results in {outdir})\n")
    assert sorted(p.name for p in outdir.iterdir()) == [
        "design.csv", "summary.json", "trace.jsonl"]
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["completed"] == 8 < summary["config"]["workflow"]["budget"]
    events = [json.loads(l) for l in (outdir / "trace.jsonl").read_text().splitlines()]
    evaluations = [e for e in events if e["event"] == "evaluation"]
    assert len(evaluations) == len(calls) > 8
    assert [e["failed"] for e in evaluations] == [e["iteration"] == 1 for e in evaluations]


# ------------------------------------------------------------------- report


def test_report_on_a_toy_bundle_has_no_acceptance(toy_bundle, capsys, monkeypatch):
    env_dir = str(toy_bundle.parent / "report-out")
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, env_dir)
    assert main(["report", str(toy_bundle)]) == 0
    out = capsys.readouterr().out
    assert "truth unknown" in out
    report = json.loads(open(os.path.join(env_dir, "report.json")).read())
    assert report["format"] == "trajcal-report-v1"
    assert report["proportion"] is None
    assert report["accepted_ids"] == []
    assert report["per_iteration_acceptance"] == []
    # the design table's y_std column reproduces the summary's curve exactly
    summary = json.loads((toy_bundle / "summary.json").read_text())
    assert report["best_observed"] == summary["best_observed"]


@pytest.mark.parametrize("cutoff", [[], ["--rmse-cutoff", "40"]])
def test_report_reads_the_design_table_alone(sir_bundle, tmp_path, cutoff):
    assert main(["report", str(sir_bundle), *cutoff]) == 0
    copy = tmp_path / "copy"
    shutil.copytree(sir_bundle, copy, ignore=shutil.ignore_patterns("trace.jsonl", "report.json"))
    assert main(["report", str(copy), *cutoff]) == 0
    assert (copy / "report.json").read_bytes() == (sir_bundle / "report.json").read_bytes()


def test_report_cutoff_defaults_to_the_config_default(tmp_path):
    args = cli._build_parser().parse_args(["report", str(tmp_path)])
    assert args.rmse_cutoff == _load(tmp_path, lambda cfg: None)["output"]["rmse_cutoff"]


def test_report_is_pure_and_repeatable(sir_bundle):
    before = {p.name: _digest(p) for p in sir_bundle.iterdir() if p.name != "report.json"}
    assert main(["report", str(sir_bundle), "--rmse-cutoff", "40"]) == 0
    first = (sir_bundle / "report.json").read_bytes()
    assert main(["report", str(sir_bundle), "--rmse-cutoff", "40"]) == 0
    assert (sir_bundle / "report.json").read_bytes() == first
    after = {p.name: _digest(p) for p in sir_bundle.iterdir() if p.name != "report.json"}
    assert before == after


def test_report_acceptance_matches_the_design_table(sir_bundle, capsys):
    assert main(["report", str(sir_bundle), "--rmse-cutoff", "40"]) == 0
    out = capsys.readouterr().out
    report = json.loads((sir_bundle / "report.json").read_text())
    rows = (sir_bundle / "design.csv").read_text().splitlines()[2:]
    rmse = np.array([float(r.split(",")[5]) for r in rows])
    expected_ids = np.flatnonzero(rmse <= 40.0).tolist()
    assert report["accepted_ids"] == expected_ids
    assert report["proportion"] == pytest.approx(len(expected_ids) / len(rows))
    assert f"accepted {len(expected_ids)}/{len(rows)} at rmse <= 40" in out
    per = report["per_iteration_acceptance"]
    assert per[-1]["evaluations"] == len(rows)
    assert per[-1]["proportion"] == report["proportion"]
    assert [p["evaluations"] for p in per] == sorted(p["evaluations"] for p in per)


def test_report_zero_cutoff_accepts_nothing(sir_bundle):
    assert main(["report", str(sir_bundle), "--rmse-cutoff", "0"]) == 0
    report = json.loads((sir_bundle / "report.json").read_text())
    assert report["proportion"] == 0.0
    assert report["accepted_ids"] == []
    assert all(p["proportion"] == 0.0 for p in report["per_iteration_acceptance"])


def _damaged_copy(bundle, dest, name, edit):
    shutil.copytree(bundle, dest, ignore=shutil.ignore_patterns("report.json"))
    path = dest / name
    path.write_text(edit(path.read_text()))
    return dest


def _edit_design(text, column, value=None):
    """Drop ``column`` from design.csv, or set its cell in the first row."""
    head, *rows = text.splitlines()
    cells = [row.split(",") for row in rows]
    j = cells[0].index(column)
    if value is None:
        cells = [c[:j] + c[j + 1:] for c in cells]
    else:
        cells[1][j] = value
    return "\n".join([head] + [",".join(c) for c in cells]) + "\n"


@pytest.mark.parametrize("name, edit, message", [
    ("design.csv", lambda t: _edit_design(t, "rmse_truth"), "design.csv: no rmse_truth column"),
    ("design.csv", lambda t: _edit_design(t, "iteration"), "design.csv: no iteration column"),
    ("design.csv", lambda t: _edit_design(t, "y_std"), "design.csv: no y_std column"),
    ("design.csv", lambda t: _edit_design(t, "rmse_truth", "abc"),
     "design.csv: row 1 rmse_truth: 'abc' is not a number"),
    ("design.csv", lambda t: _edit_design(t, "iteration", "abc"),
     "design.csv: row 1 iteration: 'abc' is not a number"),
    ("design.csv", lambda t: _edit_design(t, "y_std", "abc"),
     "design.csv: row 1 y_std: 'abc' is not a number"),
    # a NaN y_std would make every later best_observed NaN
    ("design.csv", lambda t: _edit_design(t, "y_std", "nan"),
     "design.csv: row 1 y_std: 'nan' is not a finite number"),
    ("design.csv", lambda t: _edit_design(t, "y_std", "-inf"),
     "design.csv: row 1 y_std: '-inf' is not a finite number"),
    # NaN is how a bundle says its truth is unknown; an infinity is not
    ("design.csv", lambda t: _edit_design(t, "rmse_truth", "inf"),
     "design.csv: row 1 rmse_truth: 'inf' is not a finite number"),
])
def test_report_names_the_fault_in_a_malformed_bundle(sir_bundle, tmp_path, capsys,
                                                      name, edit, message):
    bad = _damaged_copy(sir_bundle, tmp_path / "bad", name, edit)
    assert main(["report", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err
    assert not (bad / "report.json").exists()


@pytest.mark.parametrize("cutoff, message", [
    ("nan", "must be a finite number"), ("inf", "must be a finite number"),
    ("-5", "must be >= 0.0"),
])
def test_report_rejects_a_bad_rmse_cutoff(sir_bundle, tmp_path, capsys, cutoff, message):
    bundle = _damaged_copy(sir_bundle, tmp_path / "copy", "design.csv", lambda t: t)
    assert main(["report", str(bundle), f"--rmse-cutoff={cutoff}"]) == 2
    assert capsys.readouterr().err == f"error: --rmse-cutoff: {message}\n"
    assert not (bundle / "report.json").exists()


def test_report_rejects_a_missing_or_malformed_bundle(tmp_path, capsys):
    assert main(["report", str(tmp_path / "absent")]) == 2
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "design.csv").write_text("not a design table\n")
    assert main(["report", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
