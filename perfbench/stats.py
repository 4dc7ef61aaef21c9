"""Order statistics and per-layer figures from recorded spans."""

from __future__ import annotations

import statistics
from collections import defaultdict

#: Candidate tail percentiles, in tenths of a percent, highest first.
_TAILS = (999, 990, 900, 500)


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default rule)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(values) -> tuple[float | None, float | None, int]:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it.

    Returns ``(p, value, n)``; ``p`` and ``value`` are None when fewer than
    20 samples exist, since even the median then has fewer than ten beyond.
    """
    n = len(values)
    for tenths in _TAILS:
        if n * (1000 - tenths) >= 10_000:
            p = tenths / 10.0
            return p, percentile(values, p), n
    return None, None, n


def summarize(values) -> dict:
    """Median, quartiles, the qualified tail percentile and the sample count."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    p, tail, n = tail_percentile(values)
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "tail_p": p, "tail": tail, "n": n}


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def span_figures(spans, setup_end: float) -> dict:
    """Per-calibration layer figures from one process's spans.

    Totals cover the whole process.  ``in_calibrate`` totals cover only the
    calibrate phase (spans starting at or after ``setup_end``), so they
    compare with calibrate time.  ``decide`` holds, per iteration, the time
    from the start of its refit to its first simulator call.
    """
    total = defaultdict(float)
    calls = defaultdict(int)
    in_calibrate = defaultdict(float)
    durations = defaultdict(list)
    layer_self = defaultdict(float)
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        total[name] += end - start
        calls[name] += 1
        durations[name].append(end - start)
        layer_self[name.split(".", 1)[0]] += own
        if start >= setup_end:
            in_calibrate[name] += end - start

    run_ids = [i for i, s in enumerate(spans) if s[0] == "workflow.run"]
    decide = []
    for run_id in run_ids:
        fit_starts = [s[1] for s in spans if s[0] == "emulator.fit" and s[3] == run_id]
        sim_starts = [s[1] for s in spans
                      if s[0].startswith("simulator.") and s[1] >= spans[run_id][1]]
        for t in fit_starts:
            later = [u for u in sim_starts if u >= t]
            if later:
                decide.append(min(later) - t)
    return {"total": dict(total), "calls": dict(calls), "in_calibrate": dict(in_calibrate),
            "durations": dict(durations), "layer_self": dict(layer_self),
            "decide": decide}
