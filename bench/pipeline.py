"""The pipeline a user runs, its output checks, and the benchmark's metrics.

One pipeline is what the CLI does for a workload, in one process: load the
dataset, generate constraints and save the constraint file, run the
(ratio, seed) sweep from the reloaded file, evaluate the result files and
write the report CSV. It calls the same harness functions as the CLI and keeps
its file round trips. Pipelines run one at a time: a closed loop with one
client.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from setclust import constraints, dataset, geometry, harness
from setclust.constraints import ConstraintCollection, ThresholdResult
from setclust.geometry import GridPartition

import inputs
from inputs import ML_SET_SIZE
from tracing import Tracer

GEN_SEED = 0
# two, so that a traced run has an untraced and a traced pipeline
MIN_PIPELINES = 2
# the tail over a workload's (ratio, seed) clustering runs, each taken as its
# median over the run's pipelines; fixed, so that it does not move with the
# number of pipelines a run fits
TAIL_PERCENTILE = 90

END_TO_END = {
    "setup_s": "s", "pipeline_s": "s", "gen_s": "s", "cluster_s": "s",
    "cluster_run_p50_s": "s", "cluster_run_tail_s": "s", "peak_rss_mb": "MB",
    "oracle_queries": "count", "oracle_texts": "count", "query_reduction": "ratio",
    "acc": "ratio", "ari": "ratio", "constraint_ri": "ratio",
}

PER_LAYER = {
    "dataset.load_s": "s",
    "geometry.kcenter_s": "s", "geometry.grid_s": "s",
    "oracle.ml_call_s": "s", "oracle.cl_call_s": "s", "oracle.pair_slots": "count",
    "oracle.ml_queries": "count", "oracle.cl_queries": "count",
    "oracle.consistency_queries": "count", "oracle.max_query_texts": "count",
    "oracle.over_budget_queries": "count",
    "constraints.ml_gen_self_s": "s", "constraints.consolidate_self_s": "s",
    "constraints.threshold_self_s": "s", "constraints.cl_grow_self_s": "s",
    "constraints.threshold_probes": "count", "constraints.threshold_pass_frac": "ratio",
    "constraints.cl_accept_frac": "ratio", "constraints.ml_sets": "count",
    "constraints.hard_sets": "count", "constraints.cl_sets": "count",
    "matching.calls": "count", "matching.lsa_solves": "count",
    "matching.self_s": "s", "matching.lsa_s": "s",
    "clustering.penalties_s": "s", "clustering.seed_s": "s", "clustering.groups_s": "s",
    "clustering.loop_self_s": "s", "clustering.cl_search_self_s": "s",
    "clustering.iterations": "count",
    "harness.sweep_self_s": "s", "harness.evaluate_s": "s", "metrics.constraint_ri_s": "s",
    "share.oracle_of_gen": "ratio", "share.matching_of_cluster": "ratio",
    "trace.pipeline_s": "s", "trace.overhead_s": "s",
}


@dataclass
class PipelineRun:
    traced: bool
    timings: dict[str, float] = field(default_factory=dict)
    values: dict[str, float] = field(default_factory=dict)
    run_times: list[float] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)


def label_constraints(data: dataset.EmbeddedDataset, oracle, wl: inputs.Workload,
                      seed: int) -> ConstraintCollection:
    """Constraint pool for a dataset too large for grid-driven generation.

    ML candidates are ``wl.ml_per_blob`` sets of ``ML_SET_SIZE`` points inside
    each blob, asked as one grouping query each; sets at or under the median
    diameter are hard. ``wl.cl_sets`` CL sets are grown by the package's
    radius-gated CL growth.
    """
    labels = data.labels()
    rng = np.random.default_rng(seed)
    cells = {}
    for blob in range(wl.k):
        members = rng.permutation(np.flatnonzero(labels == blob))
        for j in range(wl.ml_per_blob):
            cell = sorted(members[j * ML_SET_SIZE:(j + 1) * ML_SET_SIZE].tolist())
            cells[(0, cell[0])] = cell
    ml_sets = constraints.generate_ml_sets(data, oracle, GridPartition([0.0], cells),
                                           m_max=ML_SET_SIZE)
    psi = float(np.median([s.diameter for s in ml_sets]))
    ml_sets = constraints.classify_hard_soft(ml_sets, ThresholdResult(0.0, psi))
    kcr = geometry.gonzalez_kcenter(data, wl.k, seed)
    cl_sets, rejections = constraints.generate_cl_sets(data, oracle, kcr.cost, wl.k, seed,
                                                       max_sets=wl.cl_sets)
    ledger = oracle.ledger
    return ConstraintCollection(ml_sets=ml_sets, cl_sets=cl_sets, meta={
        "ml_queries": ledger.ml_queries, "cl_queries": ledger.cl_queries,
        "consistency_queries": ledger.consistency_queries, "cl_rejections": rejections,
        "psi_pair": 0.0, "psi_set": psi, "cost_kc": kcr.cost, "k": wl.k, "seed": seed,
    })


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pipeline(wl: inputs.Workload, in_dir: Path, out_dir: Path, tracer: Tracer,
                 traced: bool) -> PipelineRun:
    """Run one pipeline under ``tracer`` and check what it wrote."""
    run = PipelineRun(traced=traced)
    cpath, rdir, report = out_dir / "constraints.json", out_dir / "results", out_dir / "report.csv"
    config = harness.ExperimentConfig(k=wl.k, ratios=list(wl.ratios), seeds=list(wl.seeds))
    out_dir.mkdir(parents=True)
    t0 = time.perf_counter()
    data = dataset.load_dataset(in_dir / inputs.CORPUS, in_dir / inputs.EMBEDDINGS)
    t_gen = time.perf_counter()
    oracle = harness.make_oracle(config, data)
    if wl.generate:
        pool = harness.generate_constraints(data, oracle, wl.k, GEN_SEED)
    else:
        pool = label_constraints(data, oracle, wl, GEN_SEED)
    constraints.save_constraints(pool, cpath)
    t_load = time.perf_counter()
    pool = constraints.load_constraints(cpath)
    t_sweep = time.perf_counter()
    harness.run_experiment(data, pool, config, rdir)
    t_eval = time.perf_counter()
    harness.evaluate_results(data, rdir)
    rows = harness.write_report(rdir, report)
    t_end = time.perf_counter()
    run.timings = {"pipeline_s": t_end - t0, "gen_s": t_load - t_gen,
                   "cluster_s": t_eval - t_sweep}
    run.run_times = list(tracer.run_times)
    counts = tracer.counts
    run.values = {
        "oracle_queries": oracle.ledger.total,
        "oracle_texts": counts["oracle.texts"],
        **{name: counts[name] for name in (
            "oracle.pair_slots", "oracle.ml_queries", "oracle.cl_queries",
            "oracle.consistency_queries", "oracle.max_query_texts",
            "oracle.over_budget_queries", "constraints.threshold_probes")},
        "constraints.threshold_pass_frac": (counts["constraints.threshold_passes"]
                                            / max(counts["constraints.threshold_probes"], 1)),
        "constraints.cl_accept_frac": (counts["oracle.cl_accepted"]
                                       / max(counts["oracle.cl_queries"], 1)),
        "constraints.ml_sets": len(pool.ml_sets),
        "constraints.hard_sets": sum(s.hard for s in pool.ml_sets),
        "constraints.cl_sets": len(pool.cl_sets),
    }
    run.digests = {"constraints.json": _digest(cpath), "report.csv": _digest(report)}
    run.failures = check_outputs(wl, pool, rdir, rows, run.values)
    if counts["oracle.calls"] != oracle.ledger.total:
        run.failures.append(f"ledger total {oracle.ledger.total} != "
                            f"{counts['oracle.calls']} oracle calls at the boundary")
    return run


def check_outputs(wl: inputs.Workload, pool: ConstraintCollection, rdir: Path,
                  rows: list[dict], values: dict) -> list[str]:
    """Output checks of one pipeline; fills the sweep means into ``values``."""
    failures = []
    hard = {s.members for s in pool.ml_sets if s.hard}
    iterations = 0
    for path in sorted(rdir.glob("result_*.json")):
        if path.name.endswith(".metrics.json"):
            continue
        doc = json.loads(path.read_text(encoding="utf-8"))
        labels = np.asarray(doc["assignment"], dtype=np.int64)
        iterations += doc["iterations"]
        if labels.shape != (wl.n,) or labels.min() < 0 or labels.max() >= wl.k:
            failures.append(f"{path.name}: labels outside [0, {wl.k})")
        split = [m for m in doc["mixed_ml"] if tuple(m) in hard and len(set(labels[m])) > 1]
        if split:
            failures.append(f"{path.name}: {len(split)} hard ML blocks span clusters")
        if not math.isfinite(doc["objective"]):
            failures.append(f"{path.name}: objective {doc['objective']}")
    sides = [json.loads(p.read_text(encoding="utf-8"))
             for p in sorted(rdir.glob("*.metrics.json"))]
    expected = len(wl.ratios) * len(wl.seeds)
    if len(sides) != expected:
        failures.append(f"{len(sides)} metric sidecars, expected {expected}")
    for name in ("acc", "ari", "constraint_ri"):
        values[name] = statistics.fmean(d[name] for d in sides) if sides else math.nan
    values["clustering.iterations"] = iterations
    reductions = [float(r["mean"]) for r in rows if r["metric"] == "query_reduction"]
    values["query_reduction"] = statistics.fmean(reductions) if reductions else math.nan
    missing = {f"{r:.4f}" for r in wl.ratios} - {r["ratio"] for r in rows}
    if missing:
        failures.append(f"report has no rows for ratios {sorted(missing)}")
    return failures


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered) / 100), 1) - 1]


def time_setup(wl: inputs.Workload, seed: int, in_dir: Path, reps: int) -> list[float]:
    """Wall time of ``reps`` set-ups, each from interpreter start to written inputs."""
    cmd = [sys.executable, str(Path(inputs.__file__)), "--n", str(wl.n), "--k", str(wl.k),
           "--dim", str(wl.dim), "--seed", str(seed),
           "--out-dir", str(in_dir)]
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True)
        times.append(time.perf_counter() - t0)
    return times


def layer_metrics(tracer: Tracer, run_id: int, run: PipelineRun) -> dict[str, float]:
    t = tracer.layer_times(run_id)

    def total(name):
        return t[name]["total"]

    def self_(name):
        return t[name]["self"]

    return {
        "dataset.load_s": total("dataset.load_dataset"),
        "geometry.kcenter_s": total("geometry.gonzalez_kcenter"),
        "geometry.grid_s": total("geometry.grid_levels") + total("geometry.grid_partition"),
        "oracle.ml_call_s": total("oracle.query_ml_group"),
        "oracle.cl_call_s": total("oracle.query_cl_membership"),
        "constraints.ml_gen_self_s": self_("constraints.generate_ml_sets"),
        "constraints.consolidate_self_s": self_("constraints.consolidate_ml_sets"),
        "constraints.threshold_self_s": self_("constraints.compute_hard_thresholds"),
        "constraints.cl_grow_self_s": self_("constraints.generate_cl_sets"),
        "matching.calls": t["matching.min_cost_matching"]["count"],
        "matching.lsa_solves": t["matching.linear_sum_assignment"]["count"],
        "matching.self_s": self_("matching.min_cost_matching"),
        "matching.lsa_s": total("matching.linear_sum_assignment"),
        "clustering.penalties_s": total("clustering.resolve_penalties"),
        "clustering.seed_s": t["clustering.kmeanspp_seed"]["under:harness.run_algorithm"],
        "clustering.groups_s": total("clustering.build_groups"),
        "clustering.loop_self_s": self_("harness.run_algorithm"),
        "clustering.cl_search_self_s": self_("clustering.cl_local_search"),
        "harness.sweep_self_s": self_("harness.run_experiment"),
        "harness.evaluate_s": total("harness.evaluate_results"),
        "metrics.constraint_ri_s": total("metrics.constraint_ri"),
        "share.oracle_of_gen": (total("oracle.query_ml_group") + total("oracle.query_cl_membership"))
                               / run.timings["gen_s"],
        "share.matching_of_cluster": total("matching.min_cost_matching") / run.timings["cluster_s"],
        "trace.pipeline_s": run.timings["pipeline_s"],
    }


def run_workload(wl: inputs.Workload, seed: int, seconds: float, trace: bool,
                 work_dir: Path, setup_reps: int = 5) -> dict:
    """Set up, then run pipelines while the next one is expected to end
    within ``seconds``, and summarise.

    With ``trace`` the pipelines alternate untraced and traced, starting
    untraced, and the summary's metrics are the per-layer ones.
    """
    in_dir = work_dir / "inputs"
    setup_times = time_setup(wl, seed, in_dir, setup_reps)
    tracer = Tracer()
    runs: list[PipelineRun] = []
    layers: list[dict] = []
    attempted = 0
    start = time.perf_counter()
    last = 0.0  # wall time of the previous pipeline, checks included
    while attempted < MIN_PIPELINES or time.perf_counter() - start + last <= seconds:
        begun = time.perf_counter()
        traced = trace and attempted % 2 == 1
        out_dir = work_dir / f"p{attempted}"
        attempted += 1
        gc.collect()  # each pipeline starts from the same heap, outside its timings
        try:
            with tracer.instrument(run_id=attempted, spans=traced):
                run = run_pipeline(wl, in_dir, out_dir, tracer, traced)
        except Exception:  # noqa: BLE001 - a failed pipeline is counted, not fatal
            traceback.print_exc()
        else:
            if runs and run.digests != runs[0].digests:
                run.failures.append("constraint file or report differs from the first pipeline's")
            for message in run.failures:
                print(f"check failed (pipeline {attempted}): {message}", file=sys.stderr)
            if traced:
                layers.append(layer_metrics(tracer, attempted, run) | {
                    k: v for k, v in run.values.items() if k in PER_LAYER})
            if not runs:
                for name in ("constraints.json", "report.csv"):
                    shutil.copyfile(out_dir / name, work_dir / name)
            runs.append(run)
        shutil.rmtree(out_dir, ignore_errors=True)
        last = time.perf_counter() - begun
    failed = attempted - sum(not r.failures for r in runs)
    plain = [r for r in runs if not r.traced]
    summary = {
        "attempted": attempted, "failed": failed, "pipelines": len(plain),
        "traced_pipelines": len(layers),
        "digests": runs[0].digests if runs else {}, "tracer": tracer,
        "setup_times": setup_times,
    }
    if not plain or (trace and not layers):
        summary["metrics"] = {}
        return summary
    med = statistics.median
    # the sweep runs its (ratio, seed) pairs in a fixed order, so position i is
    # the same clustering run in every pipeline; the pairs differ in cost
    run_times = [med(times) for times in zip(*(r.run_times for r in plain))]
    summary["pipeline_timings"] = [r.timings | {"traced": r.traced} for r in runs]
    summary["samples"] = {
        "pipelines": len(plain), "cluster_pairs": len(run_times),
        "setup_reps": len(setup_times), "tail_percentile": TAIL_PERCENTILE,
        "pairs_beyond_tail": len(run_times) - math.ceil(TAIL_PERCENTILE * len(run_times) / 100)}
    if trace:
        units = PER_LAYER
        values = {k: med([d[k] for d in layers]) for k in PER_LAYER if k != "trace.overhead_s"}
        values["trace.overhead_s"] = values["trace.pipeline_s"] - med(
            [r.timings["pipeline_s"] for r in plain])
    else:
        units = END_TO_END
        values = {
            "setup_s": med(setup_times),
            **{k: med([r.timings[k] for r in plain]) for k in ("pipeline_s", "gen_s", "cluster_s")},
            "cluster_run_p50_s": med(run_times),
            "cluster_run_tail_s": percentile(run_times, TAIL_PERCENTILE),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **{k: med([r.values[k] for r in plain]) for k in (
                "oracle_queries", "oracle_texts", "query_reduction", "acc", "ari",
                "constraint_ri")},
        }
    summary["metrics"] = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
    return summary
