"""Correctness checks and quality figures read from a calibration bundle.

Everything here comes from the files ``trajcal calibrate`` wrote
(``design.csv``, ``trace.jsonl``, ``summary.json``), never from the
calibrating process's memory.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

BUNDLE_FILES = ("design.csv", "trace.jsonl", "summary.json")


def read_design(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        fh.readline()  # format line
        return list(csv.DictReader(fh))


def read_trace(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def digest(bundle_dir: str) -> str:
    """sha256 over design.csv then trace.jsonl: equal iff the run repeats."""
    h = hashlib.sha256()
    for name in ("design.csv", "trace.jsonl"):
        with open(os.path.join(bundle_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _xcols(rows: list[dict]) -> list[str]:
    return [c for c in rows[0] if c.startswith("x")] if rows else []


def dup_evals(rows: list[dict]) -> int:
    """Rows whose exact (x, seed) already appeared earlier in the design."""
    cols = _xcols(rows)
    seen, dups = set(), 0
    for row in rows:
        key = tuple(row[c] for c in cols) + (row["seed"],)
        dups += key in seen
        seen.add(key)
    return dups


def failed_frac(failed_evals: int, attempted_evals: int, failed_runs: int) -> float:
    """Failed evaluations plus failed runs over everything attempted.

    A run that fails its checks counts as one failed attempt on top of the
    evaluations its bundle recorded.
    """
    attempted = attempted_evals + failed_runs
    return (failed_evals + failed_runs) / attempted if attempted else 0.0


def check(bundle_dir: str, budget: int, lower, upper) -> tuple[dict, list[str]]:
    """Check one bundle; return (figures, list of violated checks)."""
    errors: list[str] = []
    missing = [n for n in BUNDLE_FILES if not os.path.isfile(os.path.join(bundle_dir, n))]
    if missing:
        return {}, [f"bundle lacks {', '.join(missing)}"]
    rows = read_design(os.path.join(bundle_dir, "design.csv"))
    events = read_trace(os.path.join(bundle_dir, "trace.jsonl"))
    with open(os.path.join(bundle_dir, "summary.json")) as fh:
        summary = json.load(fh)

    if summary.get("completed") != budget:
        errors.append(f"summary completed {summary.get('completed')} != budget {budget}")

    evals = [e for e in events if e["event"] == "evaluation"]
    ok = [e for e in evals if not e["failed"]]
    cols = _xcols(rows)
    if len(rows) != len(ok):
        errors.append(f"design has {len(rows)} rows but trace has {len(ok)} successful evaluations")
    for i, (row, ev) in enumerate(zip(rows, ok)):
        native = [lo + x * (hi - lo) for x, lo, hi in zip(ev["x"], lower, upper)]
        same_x = all(math.isclose(float(row[c]), v, rel_tol=1e-12, abs_tol=1e-15)
                     for c, v in zip(cols, native))
        if (int(row["iteration"]) != ev["iteration"] or int(row["seed"]) != ev["seed"]
                or float(row["y_raw"]) != ev["y_raw"] or not same_x):
            errors.append(f"design row {i} does not match its trace evaluation")
            break

    y = [float(r["y_raw"]) for r in rows]
    best = summary.get("best", {})
    if y and best.get("y_raw") != min(y):
        errors.append(f"summary best {best.get('y_raw')} != design minimum {min(y)}")

    acceptance = summary.get("acceptance")
    iterations = [e for e in events if e["event"] == "iteration"]
    figures = {
        "digest": digest(bundle_dir),
        "evaluations": len(evals),
        "failed_evals": len(evals) - len(ok),
        "dup_evals": dup_evals(rows),
        "best_objective": min(y) if y else None,
        "accept_prop": acceptance["proportion"] if acceptance else None,
        "iterations": len(iterations),
        "batch_mean": (sum(len(e["batch"]) for e in iterations) / len(iterations)
                       if iterations else 0.0),
        "expansion_events": sum(e["event"] == "expansion" for e in events),
        "bundle_bytes": sum(os.path.getsize(os.path.join(bundle_dir, n))
                            for n in BUNDLE_FILES),
    }
    return figures, errors
