"""Spans around each layer's public functions, recorded from outside the package.

``Tracer.installed()`` replaces every reference to a traced function inside
the ``balancebench`` modules (the name its caller looks up, such as
``harness.energy_balance`` or ``weights.solve_qp``) with a wrapper that
records a span (name, start, end, parent) and the layer's counters. Spans stay
in memory until the run writes them out. Tracing is single-threaded: traced
phases run with ``workers=1``.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

from perfbench import checks

SPAN_SUFFIXES = ("busy_s", "self_s", "calls")
COUNTERS = frozenset({
    "scenarios.redraws",
    "learners.ridge_refits",
    "kernels.bytes_computed",
    "qpsolver.iterations",
    "qpsolver.vars",
    "qpsolver.shifted",
    "qpsolver.kkt_residual_max",
    "weights.tlf_fit.unconverged",
    "harness.emit_results.bytes",
})


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments.get(name)


def _count_generated(tracer, fn, args, kwargs, dataset):
    tracer.counts["scenarios.redraws"] += int(dataset.redraws)


def _count_logistic(tracer, fn, args, kwargs, model):
    tracer.counts["learners.ridge_refits"] += int(model.ridge_used > 0)


def _count_matrix(tracer, fn, args, kwargs, matrix):
    tracer.counts["kernels.bytes_computed"] += 8 * int(matrix.size)


def _count_qp(tracer, fn, args, kwargs, solution):
    qp = _arg(fn, args, kwargs, "qp")
    tracer.counts["qpsolver.iterations"] += int(solution.iterations)
    tracer.counts["qpsolver.vars"] += int(qp.n)
    tracer.counts["qpsolver.shifted"] += int(solution.diagonal_shift > 0)
    tracer.counts["qpsolver.kkt_residual_max"] = max(
        tracer.counts["qpsolver.kkt_residual_max"], float(solution.kkt_residual)
    )


def _count_tlf_fit(tracer, fn, args, kwargs, model):
    tracer.counts["weights.tlf_fit.unconverged"] += int(not model.converged)


def _check_weight_set(tracer, fn, args, kwargs, bw):
    T = _arg(fn, args, kwargs, "T")
    tracer.pending.extend(checks.check_weights(bw.values, T, bw.kept_mask, bw.method, bw.estimand))


def _attribute_problems(tracer, fn, args, kwargs, records):
    """Give the weight problems found inside a replication that replication's key."""
    spec = _arg(fn, args, kwargs, "spec")
    key = (spec.n, spec.rarity, spec.confounding, _arg(fn, args, kwargs, "replication"))
    tracer.problems.extend((key, problem) for problem in tracer.pending)
    tracer.pending.clear()


def _count_emitted(tracer, fn, args, kwargs, paths):
    tracer.counts["harness.emit_results.bytes"] += sum(os.path.getsize(p) for p in paths.values())


def _by_estimand(prefix):
    return lambda fn, args, kwargs: f"{prefix}.{_arg(fn, args, kwargs, 'estimand')}"


# (module, function, span name or name(fn, args, kwargs), counter hook)
TARGETS = (
    ("scenarios", "generate_dataset", "scenarios.generate_dataset", _count_generated),
    ("learners", "fit_logistic", "learners.fit_logistic", _count_logistic),
    ("kernels", "distance_matrix", "kernels.distance_matrix", _count_matrix),
    ("kernels", "gram_matrix", "kernels.gram_matrix", _count_matrix),
    ("kernels", "median_heuristic", "kernels.median_heuristic", None),
    ("qpsolver", "solve_qp", "qpsolver.solve_qp", _count_qp),
    ("weights", "iptw_weights", "weights.iptw_weights", _check_weight_set),
    ("weights", "energy_balance", _by_estimand("weights.eb"), _check_weight_set),
    ("weights", "kom_weights", _by_estimand("weights.kom"), _check_weight_set),
    ("weights", "tlf_weights", _by_estimand("weights.tlf"), _check_weight_set),
    ("weights", "tlf_fit", "weights.tlf_fit", _count_tlf_fit),
    ("weights", "gp_ridge_selection", "weights.gp_ridge_selection", None),
    ("estimators", "weighted_average", "estimators.WA", None),
    ("estimators", "augmented_weighted_average", "estimators.AWA", None),
    ("estimators", "weighted_ols", "estimators.OLS", None),
    ("harness", "run_replication", "harness.run_replication", _attribute_problems),
    ("harness", "summarize", "harness.summarize", None),
    ("harness", "emit_results", "harness.emit_results", _count_emitted),
)


class Tracer:
    """In-memory spans plus counters (sums, and a maximum for *_max), filled by its wrappers."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.problems: list[tuple] = []  # (replication key, message)
        self.pending: list[str] = []  # weight problems of the replication still running
        self._open: list[int] = []

    def wrap(self, fn, name, hook):
        def traced(*args, **kwargs):
            label = name(fn, args, kwargs) if callable(name) else name
            index = len(self.spans)
            self.spans.append([label, 0.0, 0.0, self._open[-1] if self._open else -1])
            self._open.append(index)
            self.spans[index][1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = perf_counter()
                self._open.pop()
            if hook is not None:
                hook(self, fn, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every TARGETS function under each name that refers to it.

        A function the package no longer defines is skipped; its metrics read zero.
        """
        modules = [m for key, m in list(sys.modules.items())
                   if key == "balancebench" or key.startswith("balancebench.")]
        replaced = []
        for module_name, attr, name, hook in TARGETS:
            original = getattr(sys.modules.get(f"balancebench.{module_name}"), attr, None)
            if original is None:
                continue
            wrapper = self.wrap(original, name, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        replaced.append((module, key, original))
        try:
            yield self
        finally:
            for module, key, original in reversed(replaced):
                setattr(module, key, original)

    def take_problems(self) -> list[tuple]:
        """Problems found since the last call; those found outside any replication have key None."""
        taken = self.problems + [(None, problem) for problem in self.pending]
        self.problems, self.pending = [], []
        return taken

    def span_totals(self) -> dict:
        """{name: {"busy_s", "self_s", "calls"}}; self time excludes child spans."""
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict = defaultdict(lambda: {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = totals[name]
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
            entry["calls"] += 1
        return dict(totals)

    def layer_metrics(self, names) -> dict:
        """Values of the span and counter metrics among `names`; zero if never hit."""
        totals = self.span_totals()
        out = {}
        for metric in names:
            base, _, suffix = metric.rpartition(".")
            if suffix in SPAN_SUFFIXES:
                out[metric] = totals.get(base, {}).get(suffix, 0 if suffix == "calls" else 0.0)
            elif metric in COUNTERS:
                out[metric] = self.counts[metric]
        return out

    def write(self, path) -> None:
        """Spans as JSON lines: name, start and end in seconds, parent index."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")
