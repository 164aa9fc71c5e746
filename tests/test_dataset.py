"""Dataset loading, the binary embedding format, and synthetic mixtures."""

import json

import numpy as np
import pytest

from setclust import clustering, metrics
from setclust.dataset import (
    DatasetError,
    EmbeddedDataset,
    SyntheticSpec,
    TextRecord,
    generate_synthetic,
    load_dataset,
    read_embeddings,
    save_dataset,
    write_corpus,
    write_embeddings,
)


def _write_corpus_lines(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


class TestLoadDataset:
    def test_three_records_align_with_matrix(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        emb = tmp_path / "e.bin"
        _write_corpus_lines(corpus, [
            {"id": i, "text": f"t{i}", "label": None} for i in range(3)
        ])
        write_embeddings(np.arange(12, dtype=float).reshape(3, 4), emb)
        data = load_dataset(corpus, emb)
        assert data.n == 3
        assert data.dim == 4
        # index alignment is the text-to-point mapping in both directions
        for i in range(3):
            assert data.records[i].id == i
            assert data.text(i) == f"t{i}"

    @pytest.mark.parametrize("row, match", [
        ({"id": 1.9, "text": "t", "label": 0}, "id must be an integer, got 1.9"),
        ({"id": True, "text": "t", "label": 0}, "id must be an integer, got True"),
        ({"id": 1, "text": "t", "label": "0"}, "label must be an integer, got '0'"),
        ({"id": 1, "text": "t", "label": 0.0}, "label must be an integer, got 0.0"),
    ], ids=["float-id", "bool-id", "string-label", "float-label"])
    def test_non_integer_id_or_label_names_its_line(self, tmp_path, row, match):
        corpus = tmp_path / "c.jsonl"
        emb = tmp_path / "e.bin"
        _write_corpus_lines(corpus, [{"id": 0, "text": "t", "label": 0}, row])
        write_embeddings(np.zeros((2, 2)), emb)
        with pytest.raises(DatasetError, match=f"malformed corpus line 2: {match}"):
            load_dataset(corpus, emb)

    def test_row_count_mismatch(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        emb = tmp_path / "e.bin"
        _write_corpus_lines(corpus, [
            {"id": i, "text": f"t{i}", "label": 0} for i in range(5)
        ])
        write_embeddings(np.zeros((4, 2)), emb)
        with pytest.raises(DatasetError, match="count mismatch"):
            load_dataset(corpus, emb)

    def test_empty_corpus(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        emb = tmp_path / "e.bin"
        corpus.write_text("", encoding="utf-8")
        write_embeddings(np.zeros((0, 2)), emb)
        with pytest.raises(DatasetError, match="n >= 1"):
            load_dataset(corpus, emb)

    def test_malformed_header(self, tmp_path):
        emb = tmp_path / "e.bin"
        emb.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DatasetError, match="header"):
            read_embeddings(emb)

    def test_truncated_payload(self, tmp_path):
        emb = tmp_path / "e.bin"
        write_embeddings(np.zeros((3, 2)), emb)
        emb.write_bytes(emb.read_bytes()[:-4])
        with pytest.raises(DatasetError, match="size mismatch"):
            read_embeddings(emb)

    def test_non_finite_values_rejected(self):
        with pytest.raises(DatasetError, match="non-finite"):
            EmbeddedDataset(points=np.array([[np.nan, 0.0]]),
                            records=[TextRecord(id=0, text="x")])

    def test_partial_labels_rejected(self):
        with pytest.raises(DatasetError, match="labels"):
            EmbeddedDataset(points=np.zeros((2, 1)),
                            records=[TextRecord(id=0, text="a", label=1),
                                     TextRecord(id=1, text="b", label=None)])


class TestEmbeddingRoundTrip:
    def test_byte_identical_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        mat = rng.normal(size=(7, 5)).astype("<f4").astype(np.float64)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write_embeddings(mat, p1)
        write_embeddings(read_embeddings(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_load_dataset_round_trip(self, tmp_path):
        data = generate_synthetic(SyntheticSpec(k_true=2, n=8, dim=3,
                                                separation=5, seed=0))
        save_dataset(data, tmp_path / "c.jsonl", tmp_path / "e.bin")
        again = load_dataset(tmp_path / "c.jsonl", tmp_path / "e.bin")
        assert again.n == data.n
        assert np.array_equal(again.labels(), data.labels())
        # f32 storage round-trips exactly once written
        assert np.array_equal(again.points,
                              data.points.astype("<f4").astype(np.float64))


class TestSyntheticSpec:
    def test_invalid_specs(self):
        with pytest.raises(DatasetError):
            SyntheticSpec(k_true=1, n=10, dim=2, separation=1, seed=0)
        with pytest.raises(DatasetError):
            SyntheticSpec(k_true=2, n=10, dim=2, separation=0, seed=0)
        with pytest.raises(DatasetError):
            SyntheticSpec(k_true=2, n=0, dim=2, separation=1, seed=0)


class TestGenerateSynthetic:
    def test_two_far_blobs(self):
        data = generate_synthetic(SyntheticSpec(k_true=2, n=10, dim=2,
                                                separation=100, seed=1))
        assert data.n == 10
        assert set(data.labels().tolist()) <= {0, 1}
        # blobs are actually far apart: split by label, compare means
        labels = data.labels()
        if len(set(labels.tolist())) == 2:
            m0 = data.points[labels == 0].mean(axis=0)
            m1 = data.points[labels == 1].mean(axis=0)
            assert np.linalg.norm(m0 - m1) > 50

    def test_deterministic(self):
        spec = SyntheticSpec(k_true=3, n=30, dim=4, separation=8, seed=9)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels(), b.labels())

    def test_center_separation_floor(self):
        data = generate_synthetic(SyntheticSpec(k_true=5, n=500, dim=4,
                                                separation=6, seed=2))
        labels = data.labels()
        centers = [data.points[labels == c].mean(axis=0) for c in range(5)]
        for i in range(5):
            for j in range(i + 1, 5):
                # empirical blob means sit near the true centers, which are
                # at least `separation` apart
                assert np.linalg.norm(centers[i] - centers[j]) > 4.0

    def test_well_separated_blobs_recoverable(self):
        # well-separated blobs are near-perfectly recoverable by the baseline
        data = generate_synthetic(SyntheticSpec(k_true=10, n=1000, dim=16,
                                                separation=10, seed=7))
        result = clustering.kmeans_baseline(data, 10, 7)
        assert metrics.acc_hungarian(result.labels, data.labels()) >= 0.95
