"""End-to-end CLI workflow: synth -> gen-constraints -> cluster -> evaluate -> report."""

import csv
import hashlib
import json
from collections import Counter

import pytest

from setclust.cli import main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Run the full five-command pipeline once and share the directory."""
    ws = tmp_path_factory.mktemp("cli")
    corpus = str(ws / "corpus.jsonl")
    emb = str(ws / "emb.bin")
    cons = str(ws / "constraints.json")
    results = str(ws / "results")
    report = str(ws / "report.csv")

    assert main(["synth", "--k-true", "3", "--n", "45", "--dim", "3",
                 "--separation", "60", "--seed", "0",
                 "--out-corpus", corpus, "--out-embeddings", emb]) == 0
    assert main(["gen-constraints", "--corpus", corpus, "--embeddings", emb,
                 "--k", "3", "--seed", "0", "--out", cons]) == 0
    assert main(["cluster", "--corpus", corpus, "--embeddings", emb,
                 "--constraints", cons, "--k", "3", "--ratios", "0.5",
                 "--seeds", "0,1", "--out-dir", results]) == 0
    assert main(["evaluate", "--corpus", corpus, "--embeddings", emb,
                 "--results", results]) == 0
    assert main(["report", "--results", results, "--out", report]) == 0
    return ws


class TestPipeline:
    def test_synth_outputs_exist(self, workspace):
        lines = (workspace / "corpus.jsonl").read_text().splitlines()
        assert len(lines) == 45
        first = json.loads(lines[0])
        assert {"id", "text", "label"} <= set(first)
        # 4-byte magic + two u32 header fields + f32 payload
        assert (workspace / "emb.bin").stat().st_size == 12 + 45 * 3 * 4

    def test_constraints_file(self, workspace):
        doc = json.loads((workspace / "constraints.json").read_text())
        assert doc["ml"] and doc["cl"]

    def test_result_files(self, workspace):
        results = sorted((workspace / "results").glob("result_*.json"))
        plain = [p for p in results if not p.name.endswith(".metrics.json")]
        assert len(plain) == 2  # one ratio, two seeds
        doc = json.loads(plain[0].read_text())
        assert len(doc["assignment"]) == 45
        assert len(doc["centers"]) == 3

    def test_metrics_written(self, workspace):
        sides = list((workspace / "results").glob("*.metrics.json"))
        assert len(sides) == 2
        side = json.loads(sides[0].read_text())
        assert side["acc"] >= 0.95

    def test_report_csv(self, workspace):
        with open(workspace / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert any(r["metric"] == "acc" for r in rows)
        assert any(r["metric"] == "query_reduction" for r in rows)


class TestConfigFile:
    def test_config_overrides_flags(self, workspace, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "k": 3, "algorithm": "kmeanspp", "ratios": [0.0],
            "seeds": [7], "penalties": [2.0, 3.0]}))
        out = tmp_path / "out"
        assert main(["cluster", "--corpus", str(workspace / "corpus.jsonl"),
                     "--embeddings", str(workspace / "emb.bin"),
                     "--constraints", str(workspace / "constraints.json"),
                     "--k", "99", "--algorithm", "lsck",
                     "--config", str(config), "--out-dir", str(out)]) == 0
        files = list(out.glob("result_*.json"))
        assert len(files) == 1
        doc = json.loads(files[0].read_text())
        assert doc["config"]["algorithm"] == "kmeanspp"
        assert doc["config"]["k"] == 3
        assert doc["seed"] == 7

    def test_penalty_string_parsing(self, workspace, tmp_path):
        out = tmp_path / "out"
        assert main(["cluster", "--corpus", str(workspace / "corpus.jsonl"),
                     "--embeddings", str(workspace / "emb.bin"),
                     "--constraints", str(workspace / "constraints.json"),
                     "--k", "3", "--ratios", "0.2", "--seeds", "0",
                     "--penalties", "1.5,2.5", "--out-dir", str(out)]) == 0
        doc = json.loads(next(out.glob("result_*.json")).read_text())
        assert doc["config"]["penalties"] == [1.5, 2.5]


class TestDeterminism:
    def test_cli_rerun_byte_identical(self, workspace, tmp_path):
        corpus = str(workspace / "corpus.jsonl")
        emb = str(workspace / "emb.bin")
        outs = []
        for name in ("a", "b"):
            cons = tmp_path / f"cons_{name}.json"
            res = tmp_path / f"res_{name}"
            assert main(["gen-constraints", "--corpus", corpus,
                         "--embeddings", emb, "--k", "3", "--seed", "3",
                         "--out", str(cons)]) == 0
            assert main(["cluster", "--corpus", corpus, "--embeddings", emb,
                         "--constraints", str(cons), "--k", "3",
                         "--ratios", "0.5", "--seeds", "0",
                         "--out-dir", str(res)]) == 0
            outs.append((cons, res))
        (cons_a, res_a), (cons_b, res_b) = outs
        assert cons_a.read_bytes() == cons_b.read_bytes()
        for path in res_a.glob("result_*.json"):
            assert path.read_bytes() == (res_b / path.name).read_bytes()


# sha256 of the outputs of one small pipeline run. A change that alters
# generated constraints or reports updates these digests and says so in its
# change notes.
GOLDEN = {
    "constraints.json": "1373576a16f85310ceef69d6012296faf4fa18ce88c4aa282709e9cc82b20df1",
    "report.csv": "85ffeae48484b101b696a38d3831ec4c79f82da7787beabec1a5209f093f1b53",
}


def test_golden_outputs(tmp_path):
    corpus, emb = str(tmp_path / "corpus.jsonl"), str(tmp_path / "emb.bin")
    cons, results = str(tmp_path / "constraints.json"), str(tmp_path / "results")
    assert main(["synth", "--k-true", "6", "--n", "600", "--dim", "8", "--seed", "0",
                 "--out-corpus", corpus, "--out-embeddings", emb]) == 0
    assert main(["gen-constraints", "--corpus", corpus, "--embeddings", emb, "--k", "6",
                 "--seed", "0", "--error-rate", "0.1", "--out", cons]) == 0
    assert main(["cluster", "--corpus", corpus, "--embeddings", emb, "--constraints", cons,
                 "--k", "6", "--ratios", "0.3", "--seeds", "0,1", "--out-dir", results]) == 0
    assert main(["evaluate", "--corpus", corpus, "--embeddings", emb,
                 "--results", results]) == 0
    assert main(["report", "--results", results, "--out", str(tmp_path / "report.csv")]) == 0
    for name, digest in GOLDEN.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


class TestTranscript:
    def test_simulated_transcript_has_one_line_per_query(self, workspace, tmp_path):
        texts = []
        for name in ("a", "b"):
            path = tmp_path / f"t_{name}.jsonl"
            cons = tmp_path / f"cons_{name}.json"
            assert main(["gen-constraints", "--corpus", str(workspace / "corpus.jsonl"),
                         "--embeddings", str(workspace / "emb.bin"), "--k", "3",
                         "--seed", "0", "--transcript", str(path),
                         "--out", str(cons)]) == 0
            texts.append(path.read_bytes())
        meta = json.loads(cons.read_text())["meta"]
        lines = texts[0].decode().splitlines()
        assert len(lines) == (meta["ml_queries"] + meta["cl_queries"]
                              + meta["consistency_queries"])
        assert all(isinstance(json.loads(line), dict) for line in lines)
        assert texts[0] == texts[1]

    def test_each_line_carries_its_ledger_kind(self, workspace, tmp_path):
        path, cons = tmp_path / "t.jsonl", tmp_path / "cons.json"
        assert main(["gen-constraints", "--corpus", str(workspace / "corpus.jsonl"),
                     "--embeddings", str(workspace / "emb.bin"), "--k", "3",
                     "--seed", "0", "--error-rate", "0.2", "--transcript", str(path),
                     "--out", str(cons)]) == 0
        meta = json.loads(cons.read_text())["meta"]
        tally = Counter(json.loads(line)["kind"] for line in path.read_text().splitlines())
        assert dict(tally) == {kind: meta[f"{kind}_queries"]
                               for kind in ("ml", "cl", "consistency")}
        assert min(tally.values()) > 0

    def test_largest_query_printed_after_the_ledger(self, workspace, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        assert main(["gen-constraints", "--corpus", str(workspace / "corpus.jsonl"),
                     "--embeddings", str(workspace / "emb.bin"), "--k", "3", "--m-max", "4",
                     "--transcript", str(path), "--out", str(tmp_path / "cons.json")]) == 0
        entries = [json.loads(line) for line in path.read_text().splitlines()]
        largest = max(len(e["ids"]) for e in entries)
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2].startswith("ledger: ")
        assert lines[-1] == f"largest query: {largest} texts (m_max 4)"


class TestErrors:
    def _cluster(self, workspace, out, *extra):
        return main(["cluster", "--corpus", str(workspace / "corpus.jsonl"),
                     "--embeddings", str(workspace / "emb.bin"),
                     "--constraints", str(workspace / "constraints.json"),
                     "--k", "3", "--seeds", "0", *extra, "--out-dir", str(out)])

    def _rejected(self, capsys, match, call):
        with pytest.raises(SystemExit) as exc:
            call()
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: setclust")
        assert match in err

    def test_one_penalty_rejected_before_output(self, workspace, tmp_path, capsys):
        self._rejected(capsys, "penalties", lambda: self._cluster(
            workspace, tmp_path / "out", "--penalties", "1.0"))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("penalties", ["bogus", [1.0], "1,2,3"])
    def test_bad_config_penalties_rejected_before_output(self, workspace, tmp_path, capsys,
                                                         penalties):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"penalties": penalties}))
        self._rejected(capsys, "penalties", lambda: self._cluster(
            workspace, tmp_path / "out", "--config", str(config)))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc", [{"ratios": "0.2"}, {"ratios": []}, {"seeds": 5},
                                     {"seeds": [0.5]}, {"max_iters": "5"}, {"tol": -1},
                                     {"mix_seed": "a"}], ids=json.dumps)
    def test_bad_config_sweep_rejected_before_output(self, workspace, tmp_path, capsys, doc):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(doc))
        (key,) = doc
        self._rejected(capsys, key, lambda: self._cluster(
            workspace, tmp_path / "out", "--config", str(config)))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc", [[1, 2], "k", 3, None], ids=json.dumps)
    def test_non_object_config_rejected_before_output(self, workspace, tmp_path, capsys, doc):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(doc))
        self._rejected(capsys, "--config must hold a JSON object", lambda: self._cluster(
            workspace, tmp_path / "out", "--config", str(config)))
        assert not (tmp_path / "out").exists()

    def test_unknown_config_keys_rejected_before_output(self, workspace, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"k": 3, "bogus": 1, "max_iter": 5}))
        self._rejected(capsys, "unknown --config keys: bogus, max_iter", lambda: self._cluster(
            workspace, tmp_path / "out", "--config", str(config)))
        assert not (tmp_path / "out").exists()

    def test_every_config_key_accepted(self, workspace, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "k": 3, "algorithm": "lsck", "ratios": [0.5], "seeds": [1], "penalties": [1.0, 2.0],
            "tol": 1e-3, "max_iters": 5, "mix_seed": 2}))
        assert self._cluster(workspace, tmp_path / "out", "--config", str(config)) == 0
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["result_lsck_r0.50_s1.json"]

    def test_empty_ratios_rejected_before_output(self, workspace, tmp_path, capsys):
        self._rejected(capsys, "ratios", lambda: self._cluster(
            workspace, tmp_path / "out", "--ratios", ""))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, match", [
        (["--seeds", "0,0,1"], "seeds must name distinct result files, got 0 more than once"),
        (["--ratios", "0.2,0.2"], "got 0.20 more than once"),
        (["--ratios", "0.201,0.204"], "got 0.20 more than once"),
    ], ids=["seeds", "ratios", "ratios-at-two-decimals"])
    def test_repeated_result_file_rejected_before_output(self, workspace, tmp_path, capsys,
                                                         flags, match):
        # a repeated flag overrides the helper's --seeds
        self._rejected(capsys, match, lambda: self._cluster(
            workspace, tmp_path / "out", *flags))
        assert not (tmp_path / "out").exists()

    def test_evaluate_without_results_rejected(self, workspace, tmp_path, capsys):
        def evaluate(results):
            return lambda: main(["evaluate", "--corpus", str(workspace / "corpus.jsonl"),
                                 "--embeddings", str(workspace / "emb.bin"),
                                 "--results", str(results)])
        self._rejected(capsys, "does not exist", evaluate(tmp_path / "nope"))
        self._rejected(capsys, "no result_", evaluate(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_report_without_metrics_rejected_before_output(self, workspace, tmp_path, capsys):
        out = tmp_path / "r.csv"
        self._rejected(capsys, "does not exist", lambda: main(
            ["report", "--results", str(tmp_path / "nope"), "--out", str(out)]))
        # a results directory that was never evaluated
        assert self._cluster(workspace, tmp_path / "raw") == 0
        self._rejected(capsys, "run `setclust evaluate` first", lambda: main(
            ["report", "--results", str(tmp_path / "raw"), "--out", str(out)]))
        assert not out.exists()

    def test_zero_k_rejected_before_output(self, workspace, tmp_path, capsys):
        self._rejected(capsys, "k must be an integer >= 1", lambda: self._cluster(
            workspace, tmp_path / "out", "--k", "0"))
        assert not (tmp_path / "out").exists()

    def _generate(self, workspace, tmp_path, *extra):
        return main(["gen-constraints", "--corpus", str(workspace / "corpus.jsonl"),
                     "--embeddings", str(workspace / "emb.bin"), *extra,
                     "--out", str(tmp_path / "cons.json")])

    def test_one_k_rejected_before_any_query(self, workspace, tmp_path, capsys):
        transcript = tmp_path / "t.jsonl"
        transcript.write_text("an earlier run\n")
        self._rejected(capsys, "k >= 2 required", lambda: self._generate(
            workspace, tmp_path, "--k", "1", "--transcript", str(transcript)))
        assert transcript.read_text() == "an earlier run\n"
        assert not (tmp_path / "cons.json").exists()

    @pytest.mark.parametrize("flags, match", [
        (["--k", "100"], "k must be at most the 45 points"),
        (["--k", "3", "--m-max", "1"], "m_max >= 2 required"),
        (["--k", "3", "--error-rate", "2"], "error_rate must lie in [0, 1]"),
    ], ids=["k-above-n", "m-max-1", "error-rate-2"])
    def test_bad_generation_input_keeps_transcript(self, workspace, tmp_path, capsys,
                                                   flags, match):
        transcript = tmp_path / "t.jsonl"
        transcript.write_text("an earlier run\n")
        self._rejected(capsys, match, lambda: self._generate(
            workspace, tmp_path, *flags, "--transcript", str(transcript)))
        assert transcript.read_text() == "an earlier run\n"
        assert not (tmp_path / "cons.json").exists()

    @pytest.mark.parametrize("doc, match", [
        ({"ml": [{"members": [0, -1], "hard": True}]}, "nonnegative integers"),
        ({"cl": [{"members": [0, 1.0]}]}, "nonnegative integers"),
        ({"cl": [{"members": [0, True]}]}, "nonnegative integers"),
        ({"ml": [{"members": [0, 1]}]}, "needs keys members, hard"),
        ({"ml": [{"members": [0, 1], "hard": "false"}]}, "hard must be true or false"),
        ({"cl": [{"ids": [0, 1]}]}, "needs keys members"),
        ([{"members": [0, 1]}], "a constraint file holds a JSON object"),
        ({"cl": [{"members": [0, 45]}]}, "constraint member 45 is out of range for 45 points"),
        ({"ml": [{"members": [3, 99], "hard": False}]}, "constraint member 99 is out of range"),
        ({"cl": [{"members": [0, 1, 2, 3]}]}, "CL set has 4 members but only 3 centers"),
    ], ids=["negative", "float", "bool", "no-hard", "string-hard", "no-members", "not-object",
            "cl-member-n", "ml-member-above-n", "cl-wider-than-k"])
    def test_bad_constraint_file_rejected_before_output(self, workspace, tmp_path, capsys,
                                                        doc, match):
        cons = tmp_path / "cons.json"
        cons.write_text(json.dumps(doc))
        self._rejected(capsys, match, lambda: self._cluster(
            workspace, tmp_path / "out", "--constraints", str(cons)))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--config", "--constraints"])
    def test_missing_input_file_rejected_before_output(self, workspace, tmp_path, capsys, flag):
        # a repeated flag overrides the helper's --constraints
        nowhere = str(tmp_path / "nope.json")
        self._rejected(capsys, nowhere, lambda: self._cluster(
            workspace, tmp_path / "out", flag, nowhere))
        assert not (tmp_path / "out").exists()

    def test_missing_corpus_rejected_before_output(self, workspace, tmp_path, capsys):
        nowhere = str(tmp_path / "missing.jsonl")
        self._rejected(capsys, nowhere, lambda: main([
            "gen-constraints", "--corpus", nowhere, "--embeddings", str(workspace / "emb.bin"),
            "--k", "3", "--out", str(tmp_path / "cons.json")]))
        assert not (tmp_path / "cons.json").exists()

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_algorithm_flag(self, workspace):
        with pytest.raises(SystemExit):
            main(["cluster", "--corpus", "x", "--embeddings", "y",
                  "--constraints", "z", "--algorithm", "dbscan",
                  "--out-dir", "w"])
