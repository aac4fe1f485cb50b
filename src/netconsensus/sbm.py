"""Stochastic block models: model definition, network sampling, block kernels.

A block model is specified by community sizes, a symmetric edge-probability
matrix, and an RNG seed. Sampling draws every unordered node pair once as an
independent Bernoulli variable and returns an undirected simple graph held as
its CSR adjacency, with nodes grouped contiguously by community.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "TwoLevelProbs",
    "SbmModel",
    "Network",
    "BlockMatrices",
    "make_two_level_model",
    "sample",
    "sample_connected",
    "block_matrices",
    "save_edge_list",
    "load_edge_list",
]

# cap on Bernoulli draws materialized at once while sampling a block pair
_CHUNK_DRAWS = 2_000_000
# consecutive disconnected samples after which sample_connected gives up
CONNECT_TRIES = 100


@dataclass(frozen=True)
class TwoLevelProbs:
    """Within/between edge probabilities for the two-level block model."""

    p_in: float
    p_out: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_out <= self.p_in <= 1.0):
            raise ValueError(
                f"require 0 <= p_out <= p_in <= 1, got p_in={self.p_in}, p_out={self.p_out}"
            )

    @property
    def delta(self) -> float:
        """Community prevalence: p_in - p_out."""
        return self.p_in - self.p_out


@dataclass(frozen=True, eq=False)
class SbmModel:
    """Generative spec: community sizes, edge-probability matrix, seed."""

    community_sizes: tuple
    edge_probs: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.community_sizes)
        if len(sizes) == 0:
            raise ValueError("community_sizes must be nonempty")
        if any(s < 1 for s in sizes):
            raise ValueError(f"all community sizes must be >= 1, got {sizes}")
        probs = np.array(self.edge_probs, dtype=float)
        k = len(sizes)
        if probs.shape != (k, k):
            raise ValueError(f"edge_probs must be {k}x{k}, got shape {probs.shape}")
        if not np.isfinite(probs).all():
            raise ValueError("edge_probs entries must be finite")
        if not np.array_equal(probs, probs.T):
            raise ValueError("edge_probs must be symmetric")
        if probs.min() < 0.0 or probs.max() > 1.0:
            raise ValueError("edge_probs entries must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        probs.flags.writeable = False
        object.__setattr__(self, "community_sizes", sizes)
        object.__setattr__(self, "edge_probs", probs)

    @property
    def num_communities(self) -> int:
        return len(self.community_sizes)

    @property
    def n(self) -> int:
        return int(sum(self.community_sizes))

    def with_seed(self, seed: int) -> "SbmModel":
        """Same model, different sampling seed."""
        return SbmModel(self.community_sizes, self.edge_probs, int(seed))


class Network:
    """Undirected simple graph, built whole by its constructor and not changed after.

    A network is its community sizes and its adjacency. Nodes are 0..n-1 with
    n = sum(community_sizes), grouped contiguously by community in size
    order. The constructor takes node pairs in any order and orientation and
    rejects self-edges, out-of-range endpoints and duplicates. adjacency is
    the symmetric CSR matrix with 0/1 float entries and sorted indices; edges
    reads from it a fresh (i, j)-sorted (m, 2) int64 array of pairs i < j;
    connected is True iff one breadth-first search from node 0 reaches all n nodes.
    """

    __slots__ = ("n", "degrees", "community_sizes", "adjacency", "connected")

    def __init__(self, community_sizes, edges):
        # scipy loads with the first network, so commands that build none do not pay for it
        from scipy import sparse
        from scipy.sparse.csgraph import breadth_first_order

        community_sizes = tuple(int(c) for c in community_sizes)
        if not community_sizes or min(community_sizes) < 1:
            raise ValueError(f"community sizes must be a nonempty list of sizes >= 1, got {community_sizes}")
        n = sum(community_sizes)
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        lo, hi = np.minimum(edges[:, 0], edges[:, 1]), np.maximum(edges[:, 0], edges[:, 1])
        if (lo == hi).any():
            raise ValueError("self-edges are not allowed")
        if (lo < 0).any() or (hi >= n).any():
            raise ValueError("edge endpoint out of range")
        # the COO-to-CSR conversion orders each row and merges a repeated pair into one entry
        upper = sparse.csr_matrix((np.ones(len(edges)), (lo, hi)), shape=(n, n))
        if upper.nnz < len(edges):
            raise ValueError("duplicate edges are not allowed")
        del lo, hi  # freed before the symmetric sum, the constructor's peak memory
        self.n = n
        self.community_sizes = community_sizes
        self.adjacency = upper + upper.T
        self.degrees = np.diff(self.adjacency.indptr).astype(np.int64)
        self.degrees.flags.writeable = False
        # the matrix is symmetric, so a directed search finds the undirected component
        self.connected = len(breadth_first_order(self.adjacency, 0, return_predecessors=False)) == n

    @property
    def edges(self) -> np.ndarray:
        adj = self.adjacency.tocoo()
        return np.stack([adj.row, adj.col], axis=1)[adj.row < adj.col].astype(np.int64)

    @property
    def num_edges(self) -> int:
        return self.adjacency.nnz // 2


@dataclass(frozen=True, eq=False)
class BlockMatrices:
    """Blockwise kernels of the normalized-Laplacian ensemble.

    expected_degrees[r] = sum_s n_s Pi_rs; expectation[r,s] = Pi_rs scaled by
    the inverse square roots of the expected degrees; variance[r,s] is the
    entry variance Pi_rs(1 - Pi_rs) divided by the degree product.
    """

    expectation: np.ndarray
    variance: np.ndarray
    expected_degrees: np.ndarray


def make_two_level_model(sizes, probs: TwoLevelProbs, seed: int) -> SbmModel:
    """Build a model with p_in on the diagonal and p_out everywhere else."""
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) == 0:
        raise ValueError("sizes must be nonempty")
    k = len(sizes)
    pi = np.full((k, k), probs.p_out, dtype=float)
    np.fill_diagonal(pi, probs.p_in)
    return SbmModel(sizes, pi, int(seed))


def sample(model: SbmModel) -> Network:
    """Draw one network from the model, deterministically per (model, seed).

    Each unordered pair (i, j), i != j, is an independent Bernoulli variable
    with probability Pi[c_i, c_j]. No self-edges.
    """
    rng = np.random.default_rng(model.seed)
    sizes = np.asarray(model.community_sizes, dtype=np.int64)
    k = len(sizes)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    probs = model.edge_probs

    rows_out = []
    cols_out = []
    for r in range(k):
        nr = int(sizes[r])
        base_r = int(offsets[r])
        for s in range(r, k):
            p = float(probs[r, s])
            if p == 0.0:
                continue
            ns = int(sizes[s])
            base_s = int(offsets[s])
            chunk = max(1, _CHUNK_DRAWS // max(ns, 1))
            for i0 in range(0, nr, chunk):
                m = min(chunk, nr - i0)
                draws = rng.random((m, ns)) < p
                if r == s:
                    # keep strictly upper-triangular pairs only
                    local_rows = (i0 + np.arange(m))[:, None]
                    draws &= np.arange(ns)[None, :] > local_rows
                ii, jj = np.nonzero(draws)
                if ii.size:
                    rows_out.append(base_r + i0 + ii)
                    cols_out.append(base_s + jj)

    if rows_out:
        edges = np.stack([np.concatenate(rows_out), np.concatenate(cols_out)], axis=1)
    else:
        edges = np.empty((0, 2), dtype=np.int64)
    # free the per-chunk pieces before the network builds its adjacency (peak memory)
    del rows_out, cols_out
    return Network(model.community_sizes, edges)


def sample_connected(model: SbmModel):
    """Resample with derived seeds until the network is connected.

    Returns (network, attempts). Raises RuntimeError when CONNECT_TRIES
    consecutive samples are disconnected.
    """
    seeds = np.random.SeedSequence(model.seed).generate_state(CONNECT_TRIES, dtype=np.uint64)
    for attempt, s in enumerate(seeds, start=1):
        net = sample(model.with_seed(int(s)))
        if net.connected:
            return net, attempt
    raise RuntimeError(f"no connected sample in {CONNECT_TRIES} tries (model seed {model.seed})")


def block_matrices(model: SbmModel) -> BlockMatrices:
    """Expected-degree vector plus expectation/variance kernels.

    Rejects models whose expected degree vanishes in any block, since the
    normalized Laplacian is undefined there.
    """
    sizes = np.asarray(model.community_sizes, dtype=float)
    pi = model.edge_probs
    dhat = pi @ sizes
    if (dhat <= 0.0).any():
        raise ValueError(f"expected degree must be positive in every block, got {dhat}")
    scale = 1.0 / np.sqrt(dhat)
    expectation = pi * scale[:, None] * scale[None, :]
    variance = pi * (1.0 - pi) * (scale**2)[:, None] * (scale**2)[None, :]
    # multiplication order skews the last ulp; keep the kernels exactly symmetric
    expectation = 0.5 * (expectation + expectation.T)
    variance = 0.5 * (variance + variance.T)
    for arr in (expectation, variance, dhat):
        arr.flags.writeable = False
    return BlockMatrices(expectation=expectation, variance=variance, expected_degrees=dhat)


def save_edge_list(net: Network, path) -> None:
    """Plain-text export: header ``n K sizes...`` then one ``i j`` pair per line."""
    path = Path(path)
    with path.open("w") as fh:
        sizes = " ".join(str(s) for s in net.community_sizes)
        fh.write(f"{net.n} {len(net.community_sizes)} {sizes}\n")
        for i, j in net.edges:
            fh.write(f"{i} {j}\n")


def load_edge_list(path) -> Network:
    """Inverse of save_edge_list. Malformed lines raise ValueError naming path:line."""
    path = Path(path)

    def ints(tokens, lineno):
        values = []
        for tok in tokens:
            try:
                values.append(int(tok))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected an integer, got {tok!r}") from None
        return values

    with path.open() as fh:
        header = fh.readline().split()
        if len(header) < 2:
            raise ValueError(f"{path}:1: malformed header {header!r}")
        n, k, *sizes = ints(header, 1)
        if len(sizes) != k or sum(sizes) != n:
            raise ValueError(f"{path}:1: header sizes inconsistent with n={n}, K={k}")
        pairs = []
        for lineno, line in enumerate(fh, start=2):
            toks = line.split()
            if not toks:
                continue
            if len(toks) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'i j', got {line!r}")
            pairs.append(ints(toks, lineno))
    return Network(sizes, pairs)
