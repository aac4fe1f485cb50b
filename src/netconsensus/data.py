"""Dataset ingestion, horizontal partitioning, and synthetic blob generation.

The on-disk format is the usual sparse text layout, one example per line:
``label idx:val idx:val ...`` with 0- or 1-based indices (autodetected,
overridable). Labels are mapped to {-1, +1}; absent indices mean zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "LabeledDataset",
    "DatasetFormatError",
    "load_sparse_text",
    "save_sparse_text",
    "partition_equal",
    "make_blobs",
    "train_test_split",
]


class DatasetFormatError(ValueError):
    """Malformed sparse text input (carries the offending line number)."""


@dataclass(eq=False)
class LabeledDataset:
    """Sparse feature matrix with labels in {-1, +1}.

    X is CSR of shape (n_examples, d); y is an int array of +/-1.
    """

    X: sparse.csr_matrix
    y: np.ndarray
    d: int
    name: str = ""

    def __post_init__(self) -> None:
        self.y = np.asarray(self.y, dtype=np.int64)
        bad = np.setdiff1d(np.unique(self.y), [-1, 1])
        if self.y.size and bad.size:
            raise ValueError(f"labels must be -1/+1, found {bad.tolist()}")
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError("X and y row counts differ")
        if not np.isfinite(self.X.data).all():
            raise ValueError("features contain NaN/Inf")

    @property
    def n_examples(self) -> int:
        return int(self.y.shape[0])

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.X[idx], self.y[idx], d=self.d, name=self.name)


def _map_labels(raw: np.ndarray, target_class=None) -> np.ndarray:
    values = np.unique(raw)
    if target_class is not None:
        return np.where(raw == target_class, 1, -1).astype(np.int64)
    as_set = set(values.tolist())
    if as_set <= {-1.0, 1.0}:
        return raw.astype(np.int64)
    if as_set <= {0.0, 1.0}:
        return np.where(raw > 0.5, 1, -1).astype(np.int64)
    raise DatasetFormatError(
        f"labels {sorted(as_set)} are not binary; pass target_class for one-vs-rest"
    )


def load_sparse_text(path, index_base=None, target_class=None, name=None) -> LabeledDataset:
    """Parse a sparse text file into a dataset.

    index_base: 0, 1, or None to autodetect (any index 0 present => 0-based).
    target_class: when given, labels equal to it map to +1 and the rest to -1
    (one-vs-rest); otherwise labels must already be -1/+1 or 0/1. A feature
    index repeated within one line is rejected.
    """
    from scipy import sparse

    path = Path(path)
    labels = []
    rows, cols, vals = [], [], []
    min_index = None
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            toks = line.split()
            try:
                labels.append(float(toks[0]))
            except ValueError as exc:
                raise DatasetFormatError(f"{path}:{lineno}: bad label {toks[0]!r}") from exc
            seen = set()
            for tok in toks[1:]:
                try:
                    idx_str, val_str = tok.split(":", 1)
                    idx = int(idx_str)
                    val = float(val_str)
                except ValueError as exc:
                    raise DatasetFormatError(f"{path}:{lineno}: bad feature {tok!r}") from exc
                if math.isnan(val) or math.isinf(val):
                    raise DatasetFormatError(f"{path}:{lineno}: non-finite value {tok!r}")
                if idx < 0:
                    raise DatasetFormatError(f"{path}:{lineno}: negative index {idx}")
                if idx in seen:
                    raise DatasetFormatError(f"{path}:{lineno}: repeated feature index {idx}")
                seen.add(idx)
                rows.append(len(labels) - 1)
                cols.append(idx)
                vals.append(val)
                min_index = idx if min_index is None else min(min_index, idx)

    n = len(labels)
    if index_base is None:
        index_base = 0 if min_index == 0 else 1
    if index_base not in (0, 1):
        raise ValueError("index_base must be 0, 1, or None")
    cols_arr = np.asarray(cols, dtype=np.int64)
    if cols_arr.size and index_base == 1:
        if cols_arr.min() < 1:
            raise DatasetFormatError(f"{path}: index 0 present in a 1-based file")
        cols_arr = cols_arr - 1
    d = int(cols_arr.max()) + 1 if cols_arr.size else 0
    X = sparse.csr_matrix(
        (np.asarray(vals, dtype=float), (np.asarray(rows, dtype=np.int64), cols_arr)),
        shape=(n, d),
    )
    y = _map_labels(np.asarray(labels, dtype=float), target_class=target_class)
    return LabeledDataset(X=X, y=y, d=d, name=name or path.name)


def save_sparse_text(ds: LabeledDataset, path, index_base: int = 0) -> None:
    """Write the dataset back out, values at full precision, plus a
    ``.meta.json`` sidecar with its name, size and index base."""
    if index_base not in (0, 1):
        raise ValueError("index_base must be 0 or 1")
    path = Path(path)
    X = ds.X.tocsr()
    with path.open("w") as fh:
        for i in range(ds.n_examples):
            start, end = X.indptr[i], X.indptr[i + 1]
            feats = " ".join(
                f"{int(j) + index_base}:{float(v)!r}" for j, v in zip(X.indices[start:end], X.data[start:end])
            )
            label = "+1" if ds.y[i] > 0 else "-1"
            fh.write(f"{label} {feats}\n" if feats else f"{label}\n")
    meta = {"name": ds.name, "n_examples": ds.n_examples, "d": ds.d, "index_base": index_base}
    path.with_suffix(path.suffix + ".meta.json").write_text(json.dumps(meta))


def partition_equal(ds: LabeledDataset, n_nodes: int, seed: int) -> list:
    """Shuffled round-robin split into n_nodes disjoint index shards covering
    the dataset, sizes differing by at most 1; deterministic per seed."""
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(ds.n_examples)
    return [np.sort(order[k::n_nodes]) for k in range(n_nodes)]


def make_blobs(n_examples: int, d: int, margin: float, seed: int, noise: float = 1.0) -> LabeledDataset:
    """Two Gaussian clouds mirrored across a random hyperplane.

    Class centers sit at +/- margin along a random unit normal with isotropic
    noise of scale ``noise``; separability is guaranteed whenever the margin
    exceeds the largest noise projection onto the normal.
    """
    from scipy import sparse

    if margin <= 0:
        raise ValueError("margin must be positive")
    rng = np.random.default_rng(seed)
    normal = rng.normal(size=d)
    normal /= np.linalg.norm(normal)
    y = np.where(rng.random(n_examples) < 0.5, 1, -1)
    points = rng.normal(scale=noise, size=(n_examples, d)) + np.outer(y * margin, normal)
    X = sparse.csr_matrix(points)
    return LabeledDataset(X=X, y=y.astype(np.int64), d=d, name=f"blobs-{n_examples}x{d}")


def train_test_split(ds: LabeledDataset, test_fraction: float, seed: int):
    """Deterministic shuffled split; returns (train, test)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(ds.n_examples)
    n_test = max(1, int(round(test_fraction * ds.n_examples)))
    return ds.subset(np.sort(order[n_test:])), ds.subset(np.sort(order[:n_test]))
