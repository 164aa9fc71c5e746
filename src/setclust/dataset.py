"""Dataset loading, the binary embedding format, and synthetic blob mixtures.

The corpus is JSONL (one ``{"id", "text", "label"}`` object per line) and the
embeddings are a small binary format: magic ``EMB1``, u32-le row count, u32-le
dimension, then row-major f32-le values. Records and embedding rows are
aligned by index; that alignment is the text-to-point mapping.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from setclust.geometry import PointFrame

EMB_MAGIC = b"EMB1"


class DatasetError(ValueError):
    """Raised for malformed corpora or embedding files."""


@dataclass(frozen=True)
class TextRecord:
    id: int
    text: str
    label: int | None = None


@dataclass
class SyntheticSpec:
    """Parameters for a Gaussian blob mixture with unit component stddev."""

    k_true: int
    n: int
    dim: int
    separation: float
    seed: int

    def __post_init__(self):
        if self.k_true < 2:
            raise DatasetError("k_true >= 2 required")
        if self.separation <= 0:
            raise DatasetError("separation > 0 required")
        if self.n < 1 or self.dim < 1:
            raise DatasetError("n >= 1 and dim >= 1 required")


@dataclass
class EmbeddedDataset:
    """n embedded points aligned index-for-index with their text records."""

    points: np.ndarray
    records: list[TextRecord] = field(repr=False)
    _frame: PointFrame | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2:
            raise DatasetError("points must be a 2-D matrix")
        n, dim = self.points.shape
        if n < 1:
            raise DatasetError("n >= 1 violated")
        if dim < 1:
            raise DatasetError("dim >= 1 violated")
        if not np.all(np.isfinite(self.points)):
            raise DatasetError("non-finite embedding values")
        if len(self.records) != n:
            raise DatasetError(
                f"count mismatch: {len(self.records)} records vs {n} embedding rows"
            )
        ids = [r.id for r in self.records]
        if ids != list(range(n)):
            raise DatasetError("record ids must be dense 0..n-1 in order")
        labelled = [r.label is not None for r in self.records]
        if any(labelled) and not all(labelled):
            raise DatasetError("labels must be present for all records or none")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def frame(self) -> PointFrame:
        """The points' one ``PointFrame``, taken on first use and again only
        after ``points`` is reassigned (a change made in place is not seen).
        Every layer reads it; none writes its points, mean or norms."""
        if self._frame is None or self._frame.points is not self.points:
            # imported on first use, so that writing a dataset does not load it
            from setclust import geometry
            self._frame = geometry.point_frame(self.points)
        return self._frame

    @property
    def has_labels(self) -> bool:
        return self.records[0].label is not None

    def labels(self) -> np.ndarray:
        if not self.has_labels:
            raise DatasetError("dataset has no ground-truth labels")
        return np.array([r.label for r in self.records], dtype=np.int64)

    def text(self, index: int) -> str:
        return self.records[index].text


def read_corpus(path: str | Path) -> list[TextRecord]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                records.append(TextRecord(id=int(obj["id"]), text=str(obj["text"]),
                                          label=None if obj.get("label") is None else int(obj["label"])))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise DatasetError(f"malformed corpus line {lineno}: {exc}") from exc
    return records


def write_corpus(records: list[TextRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps({"id": r.id, "text": r.text, "label": r.label}) + "\n")


def read_embeddings(path: str | Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != EMB_MAGIC:
        raise DatasetError("malformed header: expected EMB1 magic")
    n, dim = struct.unpack_from("<II", raw, 4)
    expected = 12 + 4 * n * dim
    if len(raw) != expected:
        raise DatasetError(f"embedding payload size mismatch: {len(raw)} != {expected}")
    mat = np.frombuffer(raw, dtype="<f4", offset=12).reshape(n, dim)
    return mat.astype(np.float64)


def write_embeddings(points: np.ndarray, path: str | Path) -> None:
    points = np.asarray(points)
    n, dim = points.shape
    with open(path, "wb") as fh:
        fh.write(EMB_MAGIC)
        fh.write(struct.pack("<II", n, dim))
        fh.write(points.astype("<f4").tobytes(order="C"))


def load_dataset(corpus_path: str | Path, embedding_path: str | Path) -> EmbeddedDataset:
    """Load an aligned corpus + embedding pair.

    Raises DatasetError on row-count mismatch, non-finite values, or a
    malformed embedding header.
    """
    records = read_corpus(corpus_path)
    points = read_embeddings(embedding_path)
    if len(records) != points.shape[0]:
        raise DatasetError(
            f"count mismatch: {len(records)} records vs {points.shape[0]} embedding rows"
        )
    return EmbeddedDataset(points=points, records=records)


def save_dataset(data: EmbeddedDataset, corpus_path: str | Path, embedding_path: str | Path) -> None:
    write_corpus(data.records, corpus_path)
    write_embeddings(data.points, embedding_path)


def generate_synthetic(spec: SyntheticSpec) -> EmbeddedDataset:
    """Sample k_true isotropic unit-variance Gaussian blobs.

    Blob centers are placed by rejection sampling until all mutual distances
    reach ``spec.separation``. Labels are blob ids; output is deterministic
    for a fixed seed.
    """
    rng = np.random.default_rng(spec.seed)
    centers: list[np.ndarray] = []
    # Scale so typical pairwise center distances land a few multiples above
    # the separation floor; rejection keeps every pair at >= separation while
    # blob spacing still tracks the separation parameter linearly.
    scale = 5.5 * spec.separation / np.sqrt(2.0 * max(spec.dim - 0.5, 0.5))
    attempts = 0
    while len(centers) < spec.k_true:
        cand = rng.normal(0.0, scale, size=spec.dim)
        if all(np.linalg.norm(cand - c) >= spec.separation for c in centers):
            centers.append(cand)
        attempts += 1
        if attempts > 10000 * spec.k_true:
            # pathological dim/k combination; widen placement and keep going
            scale *= 2.0
            attempts = 0
    center_mat = np.vstack(centers)
    labels = rng.integers(0, spec.k_true, size=spec.n)
    points = center_mat[labels] + rng.normal(0.0, 1.0, size=(spec.n, spec.dim))
    records = [
        TextRecord(id=i, text=f"synthetic point {i} of blob {labels[i]}", label=int(labels[i]))
        for i in range(spec.n)
    ]
    return EmbeddedDataset(points=points, records=records)
