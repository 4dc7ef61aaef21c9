"""Self-tests for the calibration benchmark harness.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import bundle  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


def _write_bundle(path, rows, evaluations, completed, best_y):
    """A hand-made bundle on the unit box [0, 1]^2."""
    path.mkdir()
    lines = ["# trajcal-design-v1", "iteration,x1,x2,seed,y_raw,y_std,rmse_truth"]
    lines += [f"{it},{x1!r},{x2!r},{seed},{y!r},0,nan" for it, x1, x2, seed, y in rows]
    (path / "design.csv").write_text("\n".join(lines) + "\n")
    events = [{"event": "format", "version": "trajcal-trace-v1"}]
    for i, (it, x1, x2, seed, y, failed) in enumerate(evaluations):
        events.append({"event": "evaluation", "index": i, "iteration": it, "x": [x1, x2],
                       "seed": seed, "y_raw": y, "failed": failed, "error": None})
    events.append({"event": "iteration", "iteration": 1, "batch": [[[0.1, 0.2], 1]] * 3})
    events.append({"event": "expansion", "iteration": 1, "new_seed": 3})
    (path / "trace.jsonl").write_text("".join(json.dumps(e) + "\n" for e in events))
    (path / "summary.json").write_text(json.dumps(
        {"completed": completed, "best": {"y_raw": best_y}, "acceptance": None}))


ROWS = [(0, 0.1, 0.2, 1, 0.5), (0, 0.3, 0.4, 2, 0.25), (1, 0.1, 0.2, 1, 0.5),
        (1, 0.1, 0.2, 2, 0.125), (1, 0.3, 0.4, 2, 0.25)]


def _evals(rows, failed_at=()):
    out = [(it, x1, x2, s, y, False) for it, x1, x2, s, y in rows]
    for i in sorted(failed_at, reverse=True):
        out.insert(i, (1, 0.7, 0.7, 1, None, True))
    return out


def test_dup_evals_and_failures_come_from_the_bundle_files(tmp_path):
    _write_bundle(tmp_path / "b", ROWS, _evals(ROWS, failed_at=(3,)), 5, 0.125)
    figs, errors = bundle.check(str(tmp_path / "b"), 5, [0.0, 0.0], [1.0, 1.0])
    assert errors == []
    assert figs["dup_evals"] == 2  # rows 2 and 4 repeat rows 0 and 1 exactly
    assert figs["failed_evals"] == 1
    assert figs["evaluations"] == 6
    assert figs["best_objective"] == 0.125
    assert figs["iterations"] == 1 and figs["batch_mean"] == 3
    assert figs["expansion_events"] == 1
    # one failed evaluation of six, plus one run whose bundle failed its checks
    assert bundle.failed_frac(1, 6, 1) == pytest.approx(2 / 7)
    assert bundle.failed_frac(0, 6, 0) == 0.0


def test_a_repeat_at_another_seed_is_not_a_duplicate():
    rows = [{"x1": "0.5", "seed": "1"}, {"x1": "0.5", "seed": "2"}, {"x1": "0.5", "seed": "1"}]
    assert bundle.dup_evals(rows) == 1


@pytest.mark.parametrize("completed, best_y, drop_row, message", [
    (4, 0.125, False, "completed 4 != budget 5"),
    (5, 0.25, False, "!= design minimum"),
    (5, 0.125, True, "successful evaluations"),
])
def test_bundle_checks_catch_each_violation(tmp_path, completed, best_y, drop_row, message):
    rows = ROWS[:-1] if drop_row else ROWS
    _write_bundle(tmp_path / "b", rows, _evals(ROWS), completed, best_y)
    _, errors = bundle.check(str(tmp_path / "b"), 5, [0.0, 0.0], [1.0, 1.0])
    assert any(message in e for e in errors), errors


def test_digest_changes_with_either_file(tmp_path):
    _write_bundle(tmp_path / "b", ROWS, _evals(ROWS), 5, 0.125)
    before = bundle.digest(str(tmp_path / "b"))
    with open(tmp_path / "b" / "trace.jsonl", "a") as fh:
        fh.write("{}\n")
    assert bundle.digest(str(tmp_path / "b")) != before


@pytest.mark.parametrize("n, p", [(5, None), (19, None), (20, 50.0), (99, 50.0),
                                  (100, 90.0), (999, 90.0), (1000, 99.0), (10_000, 99.9)])
def test_tail_percentile_needs_ten_samples_beyond_it(n, p):
    values = list(range(1, n + 1))
    got_p, value, count = stats.tail_percentile(values)
    assert (got_p, count) == (p, n)
    if p is not None:
        assert sum(v > value for v in values) >= 10
        assert value == pytest.approx(stats.percentile(values, p))


def test_percentile_interpolates_like_numpy():
    assert stats.percentile([1, 2, 3, 4], 50) == 2.5
    assert stats.percentile([10, 0, 20], 90) == pytest.approx(18.0)


def test_self_time_subtracts_direct_children_only():
    spans = [["cli.main", 0.0, 10.0, -1],
             ["workflow.run", 1.0, 4.0, 0],
             ["emulator.fit", 2.0, 3.0, 1],
             ["simulator.toy_objective", 5.0, 6.0, 0]]
    assert stats.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    figs = stats.span_figures(spans, setup_end=1.5)
    assert figs["layer_self"] == {"cli": 6.0, "workflow": 2.0, "emulator": 1.0,
                                  "simulator": 1.0}
    assert figs["in_calibrate"] == {"emulator.fit": 1.0, "simulator.toy_objective": 1.0}
    assert figs["decide"] == [3.0]  # fit start at 2.0 to the simulator call at 5.0


def test_tracer_records_nested_spans_with_parents():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("kernels.cross_cov", lambda x: x + 1)
    outer = tracer.wrap("emulator.fit", lambda x: inner(x) * 2,
                        on_result=lambda r: tracer.counts.update(fits=1))
    assert outer(1) == 4
    assert tracer.spans == [["emulator.fit", 0.0, 3.0, -1], ["kernels.cross_cov", 1.0, 2.0, 0]]
    assert tracer.counts["fits"] == 1
    assert stats.self_times(tracer.spans) == [2.0, 1.0]


def _run(args, cwd, timeout=120):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_through_the_real_command(trace, section):
    proc = _run(["--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 3
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_printing_a_result_when_the_package_is_absent(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(["--workload", "toy-grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
                tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
