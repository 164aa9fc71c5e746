"""Smoke test of the benchmark's own code on tiny workloads; runs in seconds."""

from __future__ import annotations

import json

import pytest

import inputs
import pipeline
from setclust import harness

SPEC = json.loads((inputs.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = inputs.Workload("tiny", n=120, k=3, dim=4, ratios=(0.2, 0.4), seeds=(0, 1))
TINY_LABELS = inputs.Workload("tiny-labels", n=300, k=3, dim=8, ratios=(0.1,), seeds=(0,),
                              generate=False, ml_per_blob=2, cl_sets=2)


def _run(wl, tmp_path, trace=False):
    return pipeline.run_workload(wl, seed=0, seconds=0, trace=trace, work_dir=tmp_path,
                                 setup_reps=1)


def test_spec_names_the_benchmark_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(inputs.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("wl", [TINY, TINY_LABELS], ids=lambda w: w.name)
def test_every_named_metric_is_emitted(wl, trace, tmp_path):
    summary = _run(wl, tmp_path, trace)
    assert (summary["attempted"], summary["failed"]) == (2, 0)
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in summary["metrics"].items()}
            == {m["name"]: m["unit"] for m in section})
    assert all(isinstance(m["value"], (int, float)) for m in summary["metrics"].values())


def test_forced_output_check_failure_counts_as_failed(tmp_path, monkeypatch):
    real = harness.run_algorithm

    def label_out_of_range(data, collection, config, seed):
        result = real(data, collection, config, seed)
        result.labels[0] = config.k
        return result

    monkeypatch.setattr(harness, "run_algorithm", label_out_of_range)
    summary = _run(TINY, tmp_path)
    assert summary["attempted"] == summary["failed"] == 2
