"""Benchmark of the setclust pipeline, end to end and per layer.

    python3 bench/run.py --workload blobs1k-k30 --seed 0 --seconds 56 --trace 0

Run from the repository root. It times set-up (interpreter start, imports and
writing the workload's input files; the median of five), then runs whole
pipelines (load, constraint generation, clustering sweep, evaluation, report;
see ``pipeline.py``) one after another, at least two, and more while the next
is expected to end within ``--seconds``. Every pipeline's outputs are
checked; a pipeline that raises or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced pipelines and reports the per-layer metrics of the traced
ones, and the tracing overhead. Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The full record (environment, sample counts,
output digests) is written to ``.bench_out/<workload>-s<seed>-t<trace>/``,
with the spans of a traced run in ``spans.tsv`` there.

BLAS and OpenMP pools are pinned to one thread before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

from inputs import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def git_commit(root: Path) -> str:
    """Commit of a checkout's ``.git`` directory, read without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="setclust pipeline benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "setclust" / "__init__.py").is_file():
        print(f"error: no setclust package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import numpy
    import scipy

    import pipeline

    work_dir = ROOT / ".bench_out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    summary = pipeline.run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                    bool(args.trace), work_dir)
    tracer = summary.pop("tracer")
    if args.trace:
        tracer.write_spans(work_dir / "spans.tsv")
    summary["environment"] = {
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": git_commit(ROOT),
        "thread_pins": {v: os.environ[v] for v in THREAD_VARS},
        "workload": args.workload, "workload_seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
    }
    (work_dir / "record.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    attempted, failed = summary["attempted"], summary["failed"]
    print(f"workload {args.workload} seed {args.seed}: {attempted} pipelines, {failed} failed "
          f"(failed_frac {failed / attempted:.4f}); samples {summary.get('samples')}")
    for name, m in summary["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    if not summary["metrics"]:
        print("error: no pipeline completed", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": summary["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
