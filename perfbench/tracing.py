"""Outside-in spans around the calls one calibration makes into trajcal.

The benchmark never edits the package.  It replaces the module attribute
that each caller looks up (``trajcal.cli.sir_run``, ``trajcal.kernels.
cross_cov``, ...) and a few class methods with wrappers that record a span
per call.  A span is ``[name, start, end, parent]``; its id is its index
in ``Tracer.spans`` and ``parent`` is the id of the enclosing span, or -1.
Spans stay in memory until the calibration process writes them out at
exit.  Span names are ``<layer>.<function>``, where the layer is the
package module the function lives in.
"""

from __future__ import annotations

import functools
import time
from collections import Counter


class Tracer:
    """In-memory span recorder with counters kept at the same boundaries."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, on_result=None):
        """Return ``fn`` wrapped so each call records a span named ``name``.

        ``on_result(result)`` runs after the span closes, so counting is not
        charged to the call.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced


def _patch(tracer: Tracer, owner, attr: str, name: str, on_result=None) -> None:
    setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), on_result))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of ``trajcal calibrate`` with spans."""
    import trajcal.cli as cli
    import trajcal.emulator as emulator
    import trajcal.grid as grid
    import trajcal.kernels as kernels
    import trajcal.workflow as workflow

    counts = tracer.counts

    def count_nfev(res):
        counts["lml_evals"] += int(res.nfev)

    def count_fallback(result):
        if result[1] > 0.0:
            counts["cholesky_fallbacks"] += 1

    original_mh = grid.mh_densify

    def mh_densify(entries, likelihood_fn, *args, **kwargs):
        def counted(x):
            counts["mh_proposals"] += 1
            return likelihood_fn(x)

        out = original_mh(entries, counted, *args, **kwargs)
        counts["mh_added"] += len(out) - len(entries)
        return out

    grid.mh_densify = tracer.wrap("grid.mh_densify", mh_densify)

    for owner, attr, name, hook in (
        (cli, "main", "cli.main", None),
        (cli, "load_config", "cli.load_config", None),
        (cli, "_write_bundle", "cli.write_bundle", None),
        (cli, "sir_run", "simulator.sir_run", None),
        (cli, "toy_objective", "simulator.toy_objective", None),
        (cli, "run", "workflow.run", None),
        (workflow, "thompson_select", "workflow.thompson_select", None),
        (workflow, "check_for_expansion", "expansion.check_for_expansion", None),
        (workflow, "expand", "expansion.expand", None),
        (workflow, "sample_from_expansion", "expansion.sample_from_expansion", None),
        (workflow, "reseed_incumbents", "expansion.reseed_incumbents", None),
        (emulator, "minimize", "emulator.minimize", count_nfev),
        (emulator, "safe_cholesky", "kernels.safe_cholesky", count_fallback),
        (kernels, "cross_cov", "kernels.cross_cov", None),
        (emulator._GPBase, "fit", "emulator.fit", None),
        (emulator._GPBase, "predict_mean_var", "emulator.predict_mean_var", None),
        (emulator._GPBase, "sample", "emulator.sample", None),
        (emulator.SeedKernelGP, "expand_seed_space", "emulator.expand_seed_space", None),
        (grid.AdaptiveGrid, "sample", "grid.sample", None),
    ):
        _patch(tracer, owner, attr, name, hook)
