"""Config schema, the three subcommands, bundle layout, and exit codes."""

import copy
import hashlib
import json
import os

import numpy as np
import pytest

import trajcal.cli as cli
from trajcal.cli import ConfigError, load_config, main
from trajcal.errors import ProgressError
from trajcal.workflow import run as workflow_run


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
    cfg = _load(tmp_path, lambda c: None)
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
        _load(tmp_path, lambda c: c["grid"].update(reuse_previous="yes"))
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
    assert events[1]["event"] == "run"
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


def test_calibrate_non_integer_truth_count_exits_2(tmp_path, capsys):
    truth = tmp_path / "truth.csv"
    truth.write_text("step,infected,cumulative\n0,1,1\n1,2.5,3\n2,1,3\n")
    path = _sir_truth_file_config(tmp_path, truth)
    assert main(["calibrate", path]) == 2
    assert capsys.readouterr().err.startswith("error: problem.truth_file: ")
    assert not (tmp_path / "out").exists()


def test_calibrate_respects_output_dir_env(tmp_path, monkeypatch):
    env_dir = tmp_path / "redirected"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(env_dir))
    cfg = _toy_config(tmp_path / "configured")
    cfg["workflow"]["budget"] = cfg["workflow"]["initial_design"] = 6
    assert main(["calibrate", _write(tmp_path, cfg)]) == 0
    assert (env_dir / "summary.json").exists()
    assert not (tmp_path / "configured").exists()


def test_calibrate_failure_mid_run_keeps_a_partial_bundle(tmp_path, monkeypatch, capsys):
    # the run dies after the initial design; the bundle must still appear,
    # carrying the sealed partial trace, and the exit code must say "failed"
    def dying_run(dataset, objective, wf, emulator, strategy):
        shrunk = type(wf)(budget=len(dataset), expansion=wf.expansion,
                          nTS_samp=wf.nTS_samp, master_seed=wf.master_seed)
        err = ProgressError("every simulator evaluation failed at iteration 1")
        err.trace = workflow_run(dataset, objective, shrunk, emulator, strategy)
        raise err

    monkeypatch.setattr(cli, "run", dying_run)
    outdir = tmp_path / "out"
    assert main(["calibrate", _write(tmp_path, _toy_config(outdir))]) == 3
    assert "partial results" in capsys.readouterr().err
    assert sorted(p.name for p in outdir.iterdir()) == [
        "design.csv", "summary.json", "trace.jsonl"]
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["completed"] == 8 < summary["config"]["workflow"]["budget"]


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
    # replay of the trace reproduces the summary's best-observed curve exactly
    summary = json.loads((toy_bundle / "summary.json").read_text())
    assert report["best_observed"] == summary["best_observed"]


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


def test_report_rejects_a_missing_or_malformed_bundle(tmp_path, capsys):
    assert main(["report", str(tmp_path / "absent")]) == 2
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "design.csv").write_text("not a design table\n")
    (bad / "trace.jsonl").write_text("{}\n")
    assert main(["report", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
