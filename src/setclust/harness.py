"""Experiment runner: constraint generation, ratio sweeps over seeds, metric
aggregation, and the pairwise-equivalent query comparison.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from setclust import clustering, constraints, geometry, metrics
from setclust.constraints import CLSet, ConstraintCollection, MLSet
from setclust.dataset import EmbeddedDataset
from setclust.oracle import QueryLedger, RemoteOracle, SimulatedOracle

ALGORITHMS = ("lsck_hc", "lsck", "kmeanspp")


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x, low: int) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= low


@dataclass
class ExperimentConfig:
    k: int
    algorithm: str = "lsck_hc"
    ratios: list[float] = field(default_factory=lambda: [0.2])
    seeds: list[int] = field(default_factory=lambda: list(range(10)))
    penalties: str | tuple[float, float] = "auto"
    oracle_error_rate: float = 0.0
    oracle_seed: int = 0
    oracle_backend: str = "sim"
    oracle_model: str = ""
    tol: float | None = None
    max_iters: int = 100
    mix_seed: int = 0

    def __post_init__(self):
        for name, low in (("k", 1), ("max_iters", 0), ("mix_seed", 0)):
            if not _is_int(getattr(self, name), low):
                raise ValueError(f"{name} must be an integer >= {low}, got {getattr(self, name)!r}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        if not (isinstance(self.seeds, (list, tuple)) and self.seeds
                and all(_is_int(s, 0) for s in self.seeds)):
            raise ValueError(f"seeds must be a nonempty list of integers >= 0, got {self.seeds!r}")
        if not (isinstance(self.ratios, (list, tuple)) and self.ratios
                and all(_is_real(r) and 0.0 <= r <= 1.0 for r in self.ratios)):
            raise ValueError(f"ratios must be a nonempty list in [0, 1], got {self.ratios!r}")
        # a result file is named by its seed and its ratio at two decimals
        for name, keys in (("seeds", self.seeds), ("ratios", [f"{r:.2f}" for r in self.ratios])):
            repeated = sorted({key for key in keys if keys.count(key) > 1})
            if repeated:
                raise ValueError(f"{name} must name distinct result files, "
                                 f"got {', '.join(map(str, repeated))} more than once")
        if not (self.tol is None or (_is_real(self.tol) and 0.0 <= self.tol < math.inf)):
            raise ValueError(f"tol must be null or a finite number >= 0, got {self.tol!r}")
        if self.penalties != "auto":
            pair = self.penalties
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                    and all(_is_real(w) for w in pair)):
                raise ValueError(f"penalties must be 'auto' or (w_ml, w_cl), got {pair!r}")
            clustering.Penalties(*pair)  # rejects negative and NaN weights


def make_oracle(config: ExperimentConfig, data: EmbeddedDataset,
                transcript_path: str | None = None) -> SimulatedOracle | RemoteOracle:
    if config.oracle_backend == "sim":
        labels = {r.id: r.label for r in data.records}
        if any(v is None for v in labels.values()):
            raise ValueError("simulated oracle needs a labeled dataset")
        oracle = SimulatedOracle(labels, error_rate=config.oracle_error_rate,
                                 seed=config.oracle_seed)
    elif config.oracle_backend == "remote":
        oracle = RemoteOracle(model=config.oracle_model)
    else:
        raise ValueError(f"unknown oracle backend {config.oracle_backend!r}")
    # made last: it truncates the transcript, which a rejected oracle keeps
    oracle.ledger = QueryLedger(transcript_path=transcript_path)
    return oracle


def check_generation(data: EmbeddedDataset, k: int, m_max: int) -> None:
    """Reject a ``k`` or ``m_max`` generation cannot run with, before any query."""
    if k < 2:
        raise ValueError("k >= 2 required")
    if k > data.n:
        raise ValueError(f"k must be at most the {data.n} points, got {k}")
    if m_max < 2:
        raise ValueError("m_max >= 2 required")


def generate_constraints(data: EmbeddedDataset, oracle, k: int, seed: int,
                         m_max: int = constraints.DEFAULT_M_MAX) -> ConstraintCollection:
    """Stage 1: grid-driven ML candidates, thresholds, and radius-gated CL sets.

    Every query sends at most ``m_max`` texts: grid-cell chunks,
    consolidation segments, threshold probes (a farthest-first subset of a
    larger candidate) and CL rounds alike. At most k CL sets are grown,
    which still gives the local search cross-cluster separation evidence.
    ``k`` and ``m_max`` are checked before the oracle is asked anything.
    """
    check_generation(data, k, m_max)
    kcr = geometry.gonzalez_kcenter(data, k, seed)
    levels = geometry.grid_levels(kcr.cost, data.n, data.dim)
    grid = geometry.grid_partition(data, levels, kcr)
    ml_candidates = constraints.generate_ml_sets(data, oracle, grid, m_max=m_max)
    ml_candidates = constraints.consolidate_ml_sets(data, oracle, ml_candidates,
                                                    kcr.cost, m_max=m_max)
    thresholds = constraints.compute_hard_thresholds(data, oracle, ml_candidates, m_max)
    ml_sets = constraints.classify_hard_soft(ml_candidates, thresholds)
    cl_sets, rejections = constraints.generate_cl_sets(data, oracle, kcr.cost, k, seed,
                                                       max_sets=k, m_max=m_max)
    ledger = oracle.ledger
    return ConstraintCollection(
        ml_sets=ml_sets,
        cl_sets=cl_sets,
        meta={
            "ml_queries": ledger.ml_queries,
            "cl_queries": ledger.cl_queries,
            "consistency_queries": ledger.consistency_queries,
            "cl_rejections": rejections,
            "psi_pair": thresholds.psi_pair,
            "psi_set": thresholds.psi_set,
            "cost_kc": kcr.cost,
            "k": k,
            "seed": seed,
        },
    )


def fsc_equivalent_queries(ml_sets: list[MLSet], cl_sets: list[CLSet],
                           cl_rejections: int = 0) -> int:
    """Pairwise-query cost of reproducing the same constraints one pair at a time.

    Each ML set of size m would take C(m, 2) pairwise probes; growing a CL
    set to size s takes C(s, 2) accepted probes plus one probe per dropped
    draw (a draw that did not join its set).
    """
    total = sum(math.comb(len(s.members), 2) for s in ml_sets)
    total += sum(math.comb(len(s.members), 2) for s in cl_sets)
    return total + cl_rejections


def run_algorithm(data: EmbeddedDataset, collection: ConstraintCollection,
                  config: ExperimentConfig, seed: int) -> clustering.ClusteringResult:
    """One run of ``config.algorithm`` at ``seed``. "auto" penalties are
    resolved here by ``resolve_penalties``; ``kmeanspp`` takes none."""
    conv = clustering.Convergence(tol=config.tol, max_iters=config.max_iters)
    if config.algorithm == "kmeanspp":
        return clustering.kmeans_baseline(data, config.k, seed, conv)
    if config.penalties == "auto":
        pen = clustering.resolve_penalties(data, config.k, seed, conv)
    else:
        pen = clustering.Penalties(*config.penalties)
    run = clustering.lsck_hc if config.algorithm == "lsck_hc" else clustering.lsck
    return run(data, collection, pen, config.k, seed, conv)


def result_to_doc(result: clustering.ClusteringResult, config: ExperimentConfig,
                  ratio: float, seed: int) -> dict:
    return {
        "assignment": result.labels.tolist(),
        "centers": result.centers.tolist(),
        "objective": result.objective,
        "iterations": result.iterations,
        "converged": result.converged,
        "degenerate_seeding": result.degenerate_seeding,
        "seed": seed,
        "config": {
            "algorithm": config.algorithm,
            "k": config.k,
            "ratio": ratio,
            "penalties": ("auto" if config.penalties == "auto" else list(config.penalties)),
            "tol": config.tol,
            "max_iters": config.max_iters,
        },
    }


def run_experiment(data: EmbeddedDataset, pool: ConstraintCollection,
                   config: ExperimentConfig, out_dir: str | Path) -> list[Path]:
    """One result file per (ratio, seed); constraints are mixed per ratio.
    A pool member outside the data, or a CL set wider than k, is rejected
    before ``out_dir`` is made. Auto penalties do not depend on the
    constraints, so each seed resolves them in its first run only; result
    files still say "auto"."""
    top = max((max(s.members) for s in [*pool.ml_sets, *pool.cl_sets]), default=-1)
    if top >= data.n:
        raise ValueError(f"constraint member {top} is out of range for {data.n} points")
    widest = max((len(s.members) for s in pool.cl_sets), default=0)
    if widest > config.k:
        raise ValueError(f"CL set has {widest} members but only {config.k} centers")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    resolved: dict[int, ExperimentConfig] = {}  # per seed, with its penalties resolved
    for ratio in config.ratios:
        mixed = constraints.mix_constraints(pool.ml_sets, pool.cl_sets, ratio,
                                            data.n, config.mix_seed)
        mixed.meta.update({k: v for k, v in pool.meta.items() if k != "target_ratio"})
        for seed in config.seeds:
            result = run_algorithm(data, mixed, resolved.get(seed, config), seed)
            if config.penalties == "auto" and seed not in resolved:
                pen = result.penalties
                resolved[seed] = replace(config, penalties=(pen.w_ml, pen.w_cl))
            doc = result_to_doc(result, config, ratio, seed)
            doc["mixed_meta"] = mixed.meta
            doc["mixed_ml"] = [list(s.members) for s in mixed.ml_sets]
            doc["mixed_cl"] = [list(s.members) for s in mixed.cl_sets]
            path = out_dir / f"result_{config.algorithm}_r{ratio:.2f}_s{seed}.json"
            path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
            written.append(path)
    return written


def _files_in(result_dir: str | Path, pattern: str, hint: str) -> list[Path]:
    """The files of ``result_dir`` matching ``pattern``; none is an error."""
    if not Path(result_dir).is_dir():
        raise ValueError(f"results directory {result_dir} does not exist")
    paths = sorted(Path(result_dir).glob(pattern))
    if not paths:
        raise ValueError(f"no {pattern} files in {result_dir}; {hint}")
    return paths


def evaluate_results(data: EmbeddedDataset, result_dir: str | Path) -> list[Path]:
    """Write a metrics sidecar for every result file against dataset labels;
    a missing directory, or one without result files, raises ``ValueError``."""
    truth = data.labels()
    written = []
    # a result file's name ends in its seed, a metric sidecar's in .metrics.json
    for path in _files_in(result_dir, "result_*[0-9].json", "run `setclust cluster` first"):
        doc = json.loads(path.read_text(encoding="utf-8"))
        pred = np.array(doc["assignment"], dtype=np.int64)
        mixed = ConstraintCollection(
            ml_sets=[MLSet(members=tuple(m)) for m in doc.get("mixed_ml", []) if len(m) >= 2],
            cl_sets=[CLSet(members=tuple(m)) for m in doc.get("mixed_cl", []) if len(m) >= 2],
        )
        scores = {
            "acc": metrics.acc_hungarian(pred, truth),
            "nmi": metrics.nmi(pred, truth),
            "ri": metrics.rand_index(pred, truth),
            "ari": metrics.ari(pred, truth),
            "constraint_ri": metrics.constraint_ri(mixed, truth),
            "objective": doc["objective"],
            "iterations": doc["iterations"],
            "algorithm": doc["config"]["algorithm"],
            "ratio": doc["config"]["ratio"],
            "seed": doc["seed"],
            "fsc_equiv_queries": fsc_equivalent_queries(
                mixed.ml_sets, mixed.cl_sets,
                doc.get("mixed_meta", {}).get("cl_rejections", 0)),
            "ledger_total": (doc.get("mixed_meta", {}).get("ml_queries", 0)
                             + doc.get("mixed_meta", {}).get("cl_queries", 0)
                             + doc.get("mixed_meta", {}).get("consistency_queries", 0)),
        }
        side = path.with_suffix(".metrics.json")
        side.write_text(json.dumps(scores, sort_keys=True) + "\n", encoding="utf-8")
        written.append(side)
    return written


def write_report(result_dir: str | Path, out_csv: str | Path) -> list[dict]:
    """Aggregate metric sidecars into CSV rows plus a query-comparison table.

    Rows carry (algorithm, ratio, metric, mean, stddev, n_seeds) at 4-decimal
    precision; the query table compares the generation ledger with the
    pairwise-equivalent count per ratio. A missing directory, or one without
    metric sidecars, raises ``ValueError`` before ``out_csv`` is opened.
    """
    cells: dict[tuple[str, float], list[dict]] = {}
    for path in _files_in(result_dir, "*.metrics.json", "run `setclust evaluate` first"):
        doc = json.loads(path.read_text(encoding="utf-8"))
        cells.setdefault((doc["algorithm"], doc["ratio"]), []).append(doc)
    rows = []
    for (algorithm, ratio), docs in sorted(cells.items()):
        for metric in ("acc", "nmi", "ri", "ari", "objective"):
            values = [d[metric] for d in docs]
            rows.append({
                "algorithm": algorithm,
                "ratio": f"{ratio:.4f}",
                "metric": metric,
                "mean": f"{float(np.mean(values)):.4f}",
                "stddev": f"{float(np.std(values)):.4f}",
                "n_seeds": len(docs),
            })
        ledger_total = docs[0]["ledger_total"]
        fsc = docs[0]["fsc_equiv_queries"]
        reduction = fsc / ledger_total if ledger_total else 0.0
        rows.append({
            "algorithm": algorithm, "ratio": f"{ratio:.4f}", "metric": "query_reduction",
            "mean": f"{reduction:.4f}", "stddev": "0.0000", "n_seeds": len(docs),
        })
        rows.append({
            "algorithm": algorithm, "ratio": f"{ratio:.4f}", "metric": "constraint_ri",
            "mean": f"{float(np.mean([d['constraint_ri'] for d in docs])):.4f}",
            "stddev": f"{float(np.std([d['constraint_ri'] for d in docs])):.4f}",
            "n_seeds": len(docs),
        })
    with open(out_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["algorithm", "ratio", "metric",
                                                "mean", "stddev", "n_seeds"])
        writer.writeheader()
        writer.writerows(rows)
    return rows
