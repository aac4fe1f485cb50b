"""Sparse-text ingestion to CSR, dense synthetic blobs, and partitioning.

The on-disk format is the usual sparse text layout, one example per line:
``label idx:val idx:val ...`` with 0- or 1-based indices (autodetected).
Labels -1/+1 or 0/1 are mapped to {-1, +1}; absent indices mean zero.
"""

from __future__ import annotations

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
    "partition_equal",
    "make_blobs",
    "train_test_split",
]


class DatasetFormatError(ValueError):
    """Malformed sparse text input (carries the offending line number)."""


@dataclass(eq=False)
class LabeledDataset:
    """Features X of shape (n_examples, d) with labels y, an int array of +/-1.

    X is CSR from load_sparse_text, which wide sparse files need, or the dense
    2-D float array that make_blobs draws.
    """

    X: sparse.csr_matrix | np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        self.y = np.asarray(self.y, dtype=np.int64)
        bad = np.setdiff1d(np.unique(self.y), [-1, 1])
        if self.y.size and bad.size:
            raise ValueError(f"labels must be -1/+1, found {bad.tolist()}")
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError("X and y row counts differ")
        if not np.isfinite(self.X if isinstance(self.X, np.ndarray) else self.X.data).all():
            raise ValueError("features contain NaN/Inf")

    @property
    def d(self) -> int:
        return int(self.X.shape[1])

    @property
    def n_examples(self) -> int:
        return int(self.y.shape[0])

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.X[idx], self.y[idx])


def load_sparse_text(path) -> LabeledDataset:
    """Parse a sparse text file into a dataset.

    Indices are 0-based if any index 0 is present and 1-based otherwise.
    Labels must be -1/+1 or 0/1. A feature index repeated within one line is
    rejected.
    """
    from scipy import sparse

    path = Path(path)
    labels = []
    rows, cols, vals = [], [], []
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

    cols_arr = np.asarray(cols, dtype=np.int64)
    if cols_arr.size and cols_arr.min() > 0:  # no index 0: 1-based
        cols_arr -= 1
    d = int(cols_arr.max()) + 1 if cols_arr.size else 0
    X = sparse.csr_matrix(
        (np.asarray(vals, dtype=float), (np.asarray(rows, dtype=np.int64), cols_arr)),
        shape=(len(labels), d),
    )
    values = set(labels)
    if not (values <= {-1.0, 1.0} or values <= {0.0, 1.0}):
        raise DatasetFormatError(f"{path}: labels {sorted(values)} are not binary; want -1/+1 or 0/1")
    return LabeledDataset(X=X, y=np.where(np.asarray(labels) > 0, 1, -1))


def partition_equal(ds: LabeledDataset, n_nodes: int, seed: int) -> list:
    """Shuffled round-robin split into n_nodes disjoint index shards covering
    the dataset, sizes differing by at most 1; deterministic per seed."""
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(ds.n_examples)
    return [np.sort(order[k::n_nodes]) for k in range(n_nodes)]


def make_blobs(n_examples: int, d: int, margin: float, seed: int) -> LabeledDataset:
    """Two Gaussian clouds mirrored across a random hyperplane.

    Class centers sit at +/- margin along a random unit normal with
    isotropic standard normal noise; separability is guaranteed whenever the
    margin exceeds the largest noise projection onto the normal. A negative
    n_examples, d or seed, or a margin not > 0 and finite, raises ValueError
    naming it.
    """
    for name, value in (("n_examples", n_examples), ("d", d), ("seed", seed)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    if not 0 < margin < np.inf:
        raise ValueError(f"margin must be > 0 and finite, got {margin}")
    rng = np.random.default_rng(seed)
    normal = rng.normal(size=d)
    normal /= np.linalg.norm(normal)
    y = np.where(rng.random(n_examples) < 0.5, 1, -1)
    points = rng.normal(size=(n_examples, d)) + np.outer(y * margin, normal)
    return LabeledDataset(X=points, y=y.astype(np.int64))


def train_test_split(ds: LabeledDataset, test_fraction: float, seed: int):
    """Deterministic shuffled split; returns (train, test)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(ds.n_examples)
    n_test = max(1, int(round(test_fraction * ds.n_examples)))
    return ds.subset(np.sort(order[n_test:])), ds.subset(np.sort(order[:n_test]))
