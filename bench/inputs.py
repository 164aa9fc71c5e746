"""Benchmark workloads and the input files each one runs on.

A workload is a synthetic blob dataset of a stated size plus the pipeline
settings the CLI would be given for it. The blobs are always drawn with
dataset seed 0;
the benchmark's ``--seed`` draws a random rotation of the embedding space.
Distances, labels and texts do not change under a rotation, so every seed
asks the same work of the pipeline while its inputs still differ bit for
bit: run-to-run spread is measurement noise, not a harder or easier dataset.
The same seed gives the same inputs.

Run as a script this writes one workload's corpus and embedding files. It is
the benchmark's set-up step, timed from interpreter start:

    python3 bench/inputs.py --n 1000 --k 10 --dim 16 --seed 0 --out-dir DIR
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = "corpus.jsonl"
EMBEDDINGS = "emb.bin"
DATASET_SEED = 0
SEPARATION = 3.0
ML_SET_SIZE = 10


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    k: int
    dim: int
    ratios: tuple[float, ...]
    seeds: tuple[int, ...]
    # False: constraints are built from labels (pipeline.label_constraints),
    # because grid-driven generation does not finish at this size
    generate: bool = True
    # label-built pool (see pipeline.label_constraints): ``ml_per_blob`` ML
    # sets of ML_SET_SIZE points per blob and ``cl_sets`` grown CL sets
    ml_per_blob: int = 0
    cl_sets: int = 0


# Two workloads, so that each run is long enough to hold several pipelines on
# a small shared host. blobs1k-k30 exercises the oracle, constraint generation
# and CL matching; n=1000 keeps its pipeline near 6 s, so that a run holds
# about eight (at n=2000, three). blobs20k-cluster bypasses both and is bound
# by the distance kernel, the penalty baseline and memory.
WORKLOADS = {w.name: w for w in (
    Workload("blobs1k-k30", n=1000, k=30, dim=16, ratios=(0.2,), seeds=(0, 1, 2)),
    Workload("blobs20k-cluster", n=20000, k=10, dim=64, ratios=(0.05,), seeds=tuple(range(10)),
             generate=False, ml_per_blob=20, cl_sets=3),
)}


def make_inputs(n: int, k: int, dim: int, seed: int, out_dir: Path) -> None:
    import numpy as np

    from setclust.dataset import SyntheticSpec, generate_synthetic, save_dataset

    data = generate_synthetic(SyntheticSpec(k_true=k, n=n, dim=dim,
                                            separation=SEPARATION, seed=DATASET_SEED))
    rotation, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(dim, dim)))
    data.points = data.points @ rotation
    out_dir.mkdir(parents=True, exist_ok=True)
    save_dataset(data, out_dir / CORPUS, out_dir / EMBEDDINGS)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", type=Path, required=True)
    args = p.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    make_inputs(args.n, args.k, args.dim, args.seed, args.out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
