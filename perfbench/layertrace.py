"""Per-layer tracing of one fdeflow run, applied from outside the package.

``Tracer.install`` wraps the public functions of each fdeflow module and
rebinds every name that refers to them: in the defining module, in each
module that imported the name (``cli`` and ``portfolio`` import
``solve_global``, ``build_measure_change`` and others by name), and on the
class for methods. Each call records a span (name, start, end, parent) in
memory, and a few hooks record counts at the same boundaries. ``metrics``
turns spans and counts into the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import hashlib
import json
import resource
import sys
import time
from collections import defaultdict


def max_rss_mib() -> float:
    """High-water mark of this process's resident set, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _count_increments(tracer, args, out):
    tracer.counts["grid.increments"] += int(out.increments.size)


def _count_passes(tracer, args, out):
    tracer.counts["fde.windows"] += 1
    # the first pass has no distance to a previous iterate
    tracer.counts["fde.picard_passes"] += out[1].iterations + 1


def _fde_rss(tracer, args, out):
    tracer.counts["fde.rss_mib"] = max_rss_mib()


def _count_design(tracer, args, out):
    sr = args[0]
    tracer.counts["regression.designs"] += 1
    if sr.warning:
        tracer.counts["regression.fallback_designs"] += 1
    if not sr.degenerate:
        rows = int(sr.fit_states.shape[0])
        tracer.counts["regression.design_rows"] += rows
        tracer.counts["regression.design_bytes"] += rows * sr.basis.n_functions * 8
    key = (sr.states.shape, hashlib.blake2b(sr.states.tobytes(), digest_size=16).digest())
    if key in tracer.seen_states:
        tracer.counts["regression.repeat_designs"] += 1
    tracer.seen_states.add(key)


def _count_fit(tracer, args, out):
    tracer.counts["regression.fits"] += 1


def _count_rows(tracer, args, out):
    tracer.counts["regression.evaluated_rows"] += int(out.shape[0])


def _girsanov_rss(tracer, args, out):
    tracer.counts["girsanov.rss_mib"] = max_rss_mib()


def _count_measure_change(tracer, args, out):
    tracer.counts["girsanov.measure_changes"] += 1
    _girsanov_rss(tracer, args, out)


# (module, attribute, span name, hook run on return)
WRAPPED = [
    ("cli", "run", "cli.run", None),
    ("cli", "_write_verdicts_csv", "cli.export", None),
    ("grid", "sample_ensemble", "grid.sample", _count_increments),
    ("fde", "solve_global", "fde.solve_global", _fde_rss),
    ("fde", "picard_window", "fde.window", _count_passes),
    ("fde", "check_fbsde_residual", "fde.residual", None),
    ("fde", "export_solution", "cli.export", None),
    ("regression", "StepRegression.__init__", "regression.design", _count_design),
    ("regression", "StepRegression.fit", "regression.fit", _count_fit),
    ("regression", "FittedConditional.evaluate", "regression.evaluate", _count_rows),
    ("girsanov", "build_measure_change", "girsanov.measure_change", _count_measure_change),
    ("girsanov", "assemble_weak_solution", "girsanov.weak", _girsanov_rss),
    ("girsanov", "check_z_invariance", "girsanov.z_invariance", _girsanov_rss),
    ("girsanov", "bmo_diagnostic", "girsanov.bmo", _girsanov_rss),
    ("girsanov", "export_weak_solution", "cli.export", None),
    ("portfolio", "solve_portfolio", "portfolio.solve", None),
    ("portfolio", "verify_martingale_optimality", "portfolio.optimality", None),
    ("portfolio", "export_portfolio_results", "cli.export", None),
    ("oracles", "gaussian_expectation", "oracles.gaussian_expectation", None),
    ("oracles", "heat_value", "oracles.heat_value", None),
    ("oracles", "merton_y0", "oracles.merton_y0", None),
    ("oracles", "merton_drift_factor", "oracles.merton_drift_factor", None),
    ("oracles", "CrankNicolsonOracle.__init__", "oracles.crank_nicolson", None),
    ("oracles", "CrankNicolsonOracle.at", "oracles.crank_nicolson_at", None),
]

# every per-layer metric; counts that a workload never touches stay 0
COUNT_NAMES = [
    "grid.increments", "fde.windows", "fde.picard_passes", "fde.rss_mib",
    "regression.designs", "regression.design_rows", "regression.design_bytes",
    "regression.repeat_designs", "regression.fallback_designs", "regression.fits",
    "regression.evaluated_rows", "girsanov.measure_changes", "girsanov.rss_mib",
]


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self.seen_states = set()
        self._stack = []

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                rec[2] = time.perf_counter()
            if hook is not None:
                hook(self, args, out)
            return out
        return traced

    def install(self):
        """Wrap every entry of WRAPPED wherever fdeflow looks it up."""
        import fdeflow.cli  # noqa: F401  (loads every fdeflow module)
        modules = [m for k, m in sys.modules.items()
                   if k == "fdeflow" or k.startswith("fdeflow.")]
        for mod_name, attr, span, hook in WRAPPED:
            owner = sys.modules[f"fdeflow.{mod_name}"]
            targets = modules
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                targets = [owner]
            original = getattr(owner, attr)
            wrapper = self._wrap(original, span, hook)
            for target in targets:
                # a class may expose one function under two names
                # (FittedConditional.evaluate is also __call__)
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapper)

    def _duration(self, i):
        return self.spans[i][2] - self.spans[i][1]

    def _inclusive(self, match):
        """Time in spans that match, not counting a match nested in a match."""
        total = 0.0
        for i, (name, _, _, parent) in enumerate(self.spans):
            if match(name) and (parent < 0 or not match(self.spans[parent][0])):
                total += self._duration(i)
        return total

    def _self_time(self, name):
        total = 0.0
        for i, rec in enumerate(self.spans):
            if rec[0] == name:
                total += self._duration(i)
        for i, rec in enumerate(self.spans):
            if rec[3] >= 0 and self.spans[rec[3]][0] == name:
                total -= self._duration(i)
        return total

    def metrics(self) -> dict:
        """Per-layer metrics as {name: value}."""
        named = lambda n: (lambda s: s == n)
        out = {
            "grid.sample_s": self._inclusive(named("grid.sample")),
            "fde.window_s": self._inclusive(named("fde.window")),
            "fde.forward_assembly_s": self._self_time("fde.solve_global"),
            "fde.residual_s": self._inclusive(named("fde.residual")),
            "regression.design_s": self._inclusive(named("regression.design")),
            "regression.fit_s": self._inclusive(named("regression.fit")),
            "regression.evaluate_s": self._inclusive(named("regression.evaluate")),
            "girsanov.measure_change_s": self._inclusive(named("girsanov.measure_change")),
            "girsanov.weak_s": self._inclusive(named("girsanov.weak")),
            "girsanov.z_invariance_s": self._inclusive(named("girsanov.z_invariance")),
            "girsanov.bmo_s": self._inclusive(named("girsanov.bmo")),
            "portfolio.optimality_s": self._inclusive(named("portfolio.optimality")),
            "oracles.s": self._inclusive(lambda s: s.startswith("oracles.")),
            "cli.checks_s": self._self_time("cli.run"),
            "cli.export_s": self._inclusive(named("cli.export")),
            "trace.spans": len(self.spans),
        }
        for name in COUNT_NAMES:
            out[name] = self.counts[name]
        return out

    def write(self, path):
        """Spans (times relative to the first span) and counts as JSON."""
        t0 = self.spans[0][1] if self.spans else 0.0
        payload = {
            "spans": [{"name": n, "start": s - t0, "end": e - t0, "parent": p}
                      for n, s, e, p in self.spans],
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.write("\n")
