"""Spans and counters recorded around setclust's public functions.

The benchmark patches module attributes from its own files, so nothing in the
package changes. Calls the package makes through a module attribute (say
``geometry.grid_partition`` from ``harness``, or ``min_cost_matching`` from
inside ``clustering``) go through the patched name.

Two levels:

* always: the oracle's two query methods, counted at the public boundary,
  and ``harness.run_algorithm``, timed per (ratio, seed) run;
* traced pipelines only: a span around every function in ``SPANNED``. A span
  keeps name, start, end, parent span and run id in memory; ``write_spans``
  writes them out when the benchmark ends.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from setclust import clustering, constraints, dataset, geometry, harness, matching, metrics
from setclust.oracle import SimulatedOracle

M_MAX = constraints.DEFAULT_M_MAX

# (owner, attribute, span name); the layer is the module that defines it
SPANNED = [
    (dataset, "load_dataset", "dataset.load_dataset"),
    (harness, "generate_constraints", "harness.generate_constraints"),
    (harness, "run_experiment", "harness.run_experiment"),
    (harness, "evaluate_results", "harness.evaluate_results"),
    (harness, "write_report", "harness.write_report"),
    (geometry, "gonzalez_kcenter", "geometry.gonzalez_kcenter"),
    (geometry, "grid_levels", "geometry.grid_levels"),
    (geometry, "grid_partition", "geometry.grid_partition"),
    (constraints, "generate_ml_sets", "constraints.generate_ml_sets"),
    (constraints, "consolidate_ml_sets", "constraints.consolidate_ml_sets"),
    (constraints, "compute_hard_thresholds", "constraints.compute_hard_thresholds"),
    (constraints, "generate_cl_sets", "constraints.generate_cl_sets"),
    (constraints, "save_constraints", "constraints.save_constraints"),
    (constraints, "load_constraints", "constraints.load_constraints"),
    (clustering, "resolve_penalties", "clustering.resolve_penalties"),
    (clustering, "kmeanspp_seed", "clustering.kmeanspp_seed"),
    (clustering, "build_groups", "clustering.build_groups"),
    (clustering, "cl_local_search", "clustering.cl_local_search"),
    (clustering, "min_cost_matching", "matching.min_cost_matching"),
    (matching, "linear_sum_assignment", "matching.linear_sum_assignment"),
    (metrics, "constraint_ri", "metrics.constraint_ri"),
]


class Tracer:
    """Spans of every traced pipeline plus the counters of the current one."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self._open: list[int] = []
        self.run_id = 0
        self.counts: Counter = Counter()
        self.run_times: list[float] = []

    def _wrap(self, name, fn, spanned: bool, observe=None):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.run_id]
            if spanned:
                open_.append(len(spans))
                spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                if spanned:
                    open_.pop()
            if observe is not None:
                observe(span[2] - span[1], out, *args, **kwargs)
            return out
        return wrapper

    @contextmanager
    def instrument(self, run_id: int, spans: bool):
        """Patch the package for one pipeline; counters start from zero."""
        self.run_id = run_id
        self.counts = Counter()
        self.run_times = []
        targets = [
            (SimulatedOracle, "query_ml_group", "oracle.query_ml_group", self._on_ml),
            (SimulatedOracle, "query_cl_membership", "oracle.query_cl_membership",
             self._on_cl),
            (harness, "run_algorithm", "harness.run_algorithm", self._on_run),
        ]
        if spans:
            targets += [(o, a, n, None) for o, a, n in SPANNED]
            targets.append((constraints, "consistency_repeat", "oracle.consistency_repeat",
                            self._on_probe))
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
        try:
            for (owner, attr, name, observe), (_, _, fn) in zip(targets, originals):
                setattr(owner, attr, self._wrap(name, fn, spans, observe))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def _on_ml(self, _dt, _out, _oracle, query, repeat=0, kind="ml"):
        m = len(query.ids)
        self.counts[f"oracle.{kind}_queries"] += 1
        self.counts["oracle.pair_slots"] += math.comb(m, 2)
        self._on_texts(m)

    def _on_cl(self, _dt, out, _oracle, query, repeat=0, kind="cl"):
        self.counts[f"oracle.{kind}_queries"] += 1
        self.counts["oracle.cl_accepted"] += out.matched_index is None
        self._on_texts(len(query.set_ids) + 1)

    def _on_texts(self, m: int):
        self.counts["oracle.calls"] += 1
        self.counts["oracle.texts"] += m
        self.counts["oracle.over_budget_queries"] += m > M_MAX
        self.counts["oracle.max_query_texts"] = max(self.counts["oracle.max_query_texts"], m)

    def _on_probe(self, _dt, passed, *_args, **_kwargs):
        self.counts["constraints.threshold_probes"] += 1
        self.counts["constraints.threshold_passes"] += bool(passed)

    def _on_run(self, dt, _out, *_args, **_kwargs):
        self.run_times.append(dt)

    def layer_times(self, run_id: int) -> dict[str, dict[str, float]]:
        """Per span name: ``count``, ``total`` and ``self`` seconds (self = span
        minus the time its child spans cover), and ``under:<parent name>``
        totals. Names without spans read zero."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, rid) in enumerate(self.spans):
            if rid != run_id:
                continue
            dur = end - start
            out[name]["count"] += 1
            out[name]["total"] += dur
            out[name]["self"] += dur - child[i]
            if parent >= 0:
                out[name][f"under:{self.spans[parent][0]}"] += dur
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run_id\tname\tstart_s\tend_s\tparent\n")
            for name, start, end, parent, rid in self.spans:
                fh.write(f"{rid}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
