"""Run one ``trajcal calibrate`` in this fresh process and record its timings.

Usage: python3 child.py SRC_DIR CONFIG RESULT_JSON [--trace]

Set-up time runs from just before ``import trajcal.cli`` until the
calibrate command has built its components (config loaded, objective and
truth trajectory built).  Calibrate time runs from there until the bundle
is written.  With ``--trace`` every layer boundary records a span; the
spans are written to RESULT_JSON when the command returns.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(argv) -> int:
    src, config, result_path = argv[:3]
    traced = "--trace" in argv[3:]
    sys.path.insert(0, src)
    import trajcal.cli as cli

    marks = {}

    def mark_after(name, fn):
        def marked(*args, **kwargs):
            out = fn(*args, **kwargs)
            marks[name] = time.perf_counter()
            return out

        return marked

    cli._build_components = mark_after("setup_end", cli._build_components)
    cli._write_bundle = mark_after("bundle_written", cli._write_bundle)
    tracer = None
    if traced:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    rc = cli.main(["calibrate", config])
    result = {
        "rc": rc,
        "trajcal_file": os.path.abspath(cli.__file__),
        "traced": traced,
        "setup_s": marks["setup_end"] - T0 if "setup_end" in marks else None,
        "calibrate_s": (marks["bundle_written"] - marks["setup_end"]
                        if "bundle_written" in marks else None),
        "setup_end": marks.get("setup_end"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
