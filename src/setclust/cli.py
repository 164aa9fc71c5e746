"""Command-line interface: synth, gen-constraints, cluster, evaluate, report."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from setclust import constraints, harness
from setclust.dataset import SyntheticSpec, generate_synthetic, load_dataset, save_dataset


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _parse_ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True, help="corpus JSONL path")
    p.add_argument("--embeddings", required=True, help="embedding binary path")


def cmd_synth(args) -> int:
    spec = SyntheticSpec(k_true=args.k_true, n=args.n, dim=args.dim,
                         separation=args.separation, seed=args.seed)
    data = generate_synthetic(spec)
    save_dataset(data, args.out_corpus, args.out_embeddings)
    print(f"wrote {data.n} points of dim {data.dim} "
          f"({spec.k_true} blobs, separation {spec.separation})")
    return 0


def cmd_gen_constraints(args) -> int:
    data = load_dataset(args.corpus, args.embeddings)
    config = harness.ExperimentConfig(
        k=args.k, oracle_backend=args.oracle, oracle_error_rate=args.error_rate,
        oracle_seed=args.oracle_seed, oracle_model=args.model)
    harness.check_generation(data, args.k, args.m_max)
    oracle = harness.make_oracle(config, data, transcript_path=args.transcript)
    collection = harness.generate_constraints(data, oracle, args.k, args.seed,
                                              m_max=args.m_max)
    constraints.save_constraints(collection, args.out)
    meta = collection.meta
    print(f"ml sets: {len(collection.ml_sets)}  cl sets: {len(collection.cl_sets)}")
    print(f"psi_pair={meta['psi_pair']:.6g}  psi_set={meta['psi_set']:.6g}")
    print(f"ledger: ml={meta['ml_queries']} cl={meta['cl_queries']} "
          f"consistency={meta['consistency_queries']} (cl rejections {meta['cl_rejections']}, "
          f"failed backend attempts {oracle.ledger.failed_attempts})")
    print(f"largest query: {oracle.ledger.max_query_texts} texts (m_max {args.m_max})")
    return 0


# keys a ``--config`` run file may set; each overrides the flag of its name
CONFIG_KEYS = ("k", "algorithm", "ratios", "seeds", "penalties", "tol", "max_iters", "mix_seed")


def _config_from_args(args) -> harness.ExperimentConfig:
    if args.config:
        doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(doc, dict):
            raise ValueError(f"--config must hold a JSON object, got {type(doc).__name__}")
        unknown = sorted(set(doc) - set(CONFIG_KEYS))
        if unknown:
            raise ValueError(f"unknown --config keys: {', '.join(unknown)} "
                             f"(known: {', '.join(CONFIG_KEYS)})")
    else:
        doc = {}
    penalties = doc.get("penalties", args.penalties)
    if isinstance(penalties, str) and penalties != "auto":
        try:
            penalties = tuple(_parse_floats(penalties))
        except ValueError:
            raise ValueError(
                f"penalties must be 'auto' or 'w_ml,w_cl', got {penalties!r}") from None
    elif isinstance(penalties, list):
        penalties = tuple(penalties)
    return harness.ExperimentConfig(
        k=doc.get("k", args.k),
        algorithm=doc.get("algorithm", args.algorithm),
        ratios=doc.get("ratios", _parse_floats(args.ratios)),
        seeds=doc.get("seeds", _parse_ints(args.seeds)),
        penalties=penalties,
        tol=doc.get("tol", args.tol),
        max_iters=doc.get("max_iters", args.max_iters),
        mix_seed=doc.get("mix_seed", args.mix_seed),
    )


def cmd_cluster(args) -> int:
    data = load_dataset(args.corpus, args.embeddings)
    pool = constraints.load_constraints(args.constraints)
    config = _config_from_args(args)
    written = harness.run_experiment(data, pool, config, args.out_dir)
    print(f"wrote {len(written)} result files to {args.out_dir}")
    return 0


def cmd_evaluate(args) -> int:
    data = load_dataset(args.corpus, args.embeddings)
    written = harness.evaluate_results(data, args.results)
    print(f"wrote {len(written)} metric files")
    return 0


def cmd_report(args) -> int:
    rows = harness.write_report(args.results, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    for row in rows:
        if row["metric"] in ("acc", "query_reduction"):
            print(f"{row['algorithm']:>9} ratio={row['ratio']} {row['metric']}="
                  f"{row['mean']} (+/-{row['stddev']}, n={row['n_seeds']})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="setclust",
                                     description="constrained clustering toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled blob dataset")
    p.add_argument("--k-true", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--separation", type=float, default=3.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-corpus", required=True)
    p.add_argument("--out-embeddings", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("gen-constraints", help="generate ML/CL constraint sets")
    _add_dataset_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--oracle", choices=["sim", "remote"], default="sim")
    p.add_argument("--error-rate", type=float, default=0.0)
    p.add_argument("--oracle-seed", type=int, default=0)
    p.add_argument("--model", default="", help="remote backend model name")
    p.add_argument("--m-max", type=int, default=constraints.DEFAULT_M_MAX)
    p.add_argument("--transcript", default=None,
                   help="JSONL path: one line per counted oracle query")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_constraints)

    p = sub.add_parser("cluster", help="run constrained clustering per (ratio, seed)")
    _add_dataset_args(p)
    p.add_argument("--constraints", required=True)
    p.add_argument("--config", default=None, help="declarative JSON run file")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--algorithm", choices=list(harness.ALGORITHMS), default="lsck_hc")
    p.add_argument("--ratios", default="0.2")
    p.add_argument("--seeds", default="0,1,2,3,4,5,6,7,8,9")
    p.add_argument("--penalties", default="auto", help="'auto' or 'w_ml,w_cl'")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--mix-seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("evaluate", help="score result files against labels")
    _add_dataset_args(p)
    p.add_argument("--results", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="aggregate metrics into a CSV report")
    p.add_argument("--results", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    """Run one command; bad input (a ``ValueError``, or an ``OSError`` such
    as a missing input file) exits with status 2 and a usage line, as
    argparse's own errors do."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
