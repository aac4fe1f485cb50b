"""Stochastic block models: model definition, network sampling, block kernels.

A block model is specified by community sizes, a symmetric edge-probability
matrix, and an RNG seed. Sampling draws every unordered node pair once as an
independent Bernoulli variable and returns an immutable undirected simple
graph with nodes grouped contiguously by community.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "TwoLevelProbs",
    "SbmModel",
    "Network",
    "BlockMatrices",
    "make_two_level_model",
    "sample",
    "sample_connected",
    "block_matrices",
    "is_connected",
    "save_edge_list",
    "load_edge_list",
    "network_to_json",
    "network_from_json",
]

# cap on Bernoulli draws materialized at once while sampling a block pair
_CHUNK_DRAWS = 2_000_000


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
    """Sampled undirected simple graph, immutable after construction.

    Nodes are 0..n-1, grouped contiguously by community. Edges are stored as
    an (m, 2) array of pairs with i < j; the CSR adjacency matrix and the
    connectivity flag are computed lazily and cached.
    """

    __slots__ = ("n", "edges", "membership", "degrees", "community_sizes", "seed", "_adj", "_connected")

    def __init__(self, n, edges, membership, community_sizes, seed=None):
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        membership = np.asarray(membership, dtype=np.int64)
        if membership.shape != (n,):
            raise ValueError("membership must have one entry per node")
        community_sizes = tuple(int(c) for c in community_sizes)
        if sum(community_sizes) != n:
            raise ValueError(f"community sizes {community_sizes} do not sum to n={n}")
        if not np.array_equal(membership, np.repeat(np.arange(len(community_sizes)), community_sizes)):
            raise ValueError("membership must group nodes contiguously by community, in size order")
        if edges.size:
            lo, hi = np.minimum(edges[:, 0], edges[:, 1]), np.maximum(edges[:, 0], edges[:, 1])
            if (lo == hi).any():
                raise ValueError("self-edges are not allowed")
            if lo.min() < 0 or hi.max() >= n:
                raise ValueError("edge endpoint out of range")
            edges = np.stack([lo, hi], axis=1)
            order = np.lexsort((edges[:, 1], edges[:, 0]))
            edges = edges[order]
            dup = (np.diff(edges[:, 0]) == 0) & (np.diff(edges[:, 1]) == 0)
            if dup.any():
                raise ValueError("duplicate edges are not allowed")
        self.n = int(n)
        self.edges = edges
        self.edges.flags.writeable = False
        self.membership = membership
        self.membership.flags.writeable = False
        self.degrees = np.bincount(edges.ravel(), minlength=n) if edges.size else np.zeros(n, dtype=np.int64)
        self.degrees.flags.writeable = False
        self.community_sizes = community_sizes
        self.seed = seed
        self._adj = None
        self._connected = None

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    def adjacency(self) -> sparse.csr_matrix:
        """Symmetric CSR adjacency matrix with 0/1 float entries."""
        if self._adj is None:
            from scipy import sparse

            m = self.edges.shape[0]
            rows = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
            cols = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
            data = np.ones(2 * m, dtype=float)
            adj = sparse.csr_matrix((data, (rows, cols)), shape=(self.n, self.n))
            adj.sort_indices()
            self._adj = adj
        return self._adj


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
    membership = np.repeat(np.arange(k, dtype=np.int64), sizes)
    return Network(int(sizes.sum()), edges, membership, model.community_sizes, seed=model.seed)


def sample_connected(model: SbmModel, max_tries: int = 100):
    """Resample with derived seeds until the network is connected.

    Returns (network, attempts). Raises RuntimeError when max_tries
    consecutive samples are disconnected.
    """
    seeds = np.random.SeedSequence(model.seed).generate_state(max_tries, dtype=np.uint64)
    for attempt, s in enumerate(seeds, start=1):
        net = sample(model.with_seed(int(s)))
        if is_connected(net):
            return net, attempt
    raise RuntimeError(f"no connected sample in {max_tries} tries (model seed {model.seed})")


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


def is_connected(net: Network) -> bool:
    """True iff a single undirected component spans all nodes (computed once
    per network and cached)."""
    if net._connected is None:
        if net.n <= 1:
            net._connected = True
        elif net.num_edges == 0:
            net._connected = False
        else:
            from scipy.sparse.csgraph import connected_components

            ncomp, _ = connected_components(net.adjacency(), directed=False)
            net._connected = int(ncomp) == 1
    return net._connected


def save_edge_list(net: Network, path) -> None:
    """Plain-text export: header ``n K sizes...`` then one ``i j`` pair per line."""
    path = Path(path)
    with path.open("w") as fh:
        sizes = " ".join(str(s) for s in net.community_sizes)
        fh.write(f"{net.n} {len(net.community_sizes)} {sizes}\n")
        for i, j in net.edges:
            fh.write(f"{i} {j}\n")


def load_edge_list(path) -> Network:
    """Inverse of save_edge_list."""
    path = Path(path)
    with path.open() as fh:
        header = fh.readline().split()
        if len(header) < 2:
            raise ValueError(f"{path}: malformed header {header!r}")
        n, k = int(header[0]), int(header[1])
        sizes = [int(tok) for tok in header[2:]]
        if len(sizes) != k or sum(sizes) != n:
            raise ValueError(f"{path}: header sizes inconsistent with n={n}, K={k}")
        pairs = []
        for lineno, line in enumerate(fh, start=2):
            toks = line.split()
            if not toks:
                continue
            if len(toks) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'i j', got {line!r}")
            pairs.append((int(toks[0]), int(toks[1])))
    membership = np.repeat(np.arange(k, dtype=np.int64), sizes)
    return Network(n, np.asarray(pairs, dtype=np.int64).reshape(-1, 2), membership, sizes)


def network_to_json(net: Network, path=None):
    """JSON form carrying membership and provenance seed; returns the dict."""
    doc = {
        "n": net.n,
        "K": len(net.community_sizes),
        "sizes": list(net.community_sizes),
        "seed": net.seed,
        "membership": net.membership.tolist(),
        "edges": net.edges.tolist(),
    }
    if path is not None:
        Path(path).write_text(json.dumps(doc))
    return doc


def network_from_json(source) -> Network:
    """Rebuild a Network from network_to_json output (dict or file path)."""
    if isinstance(source, (str, Path)):
        source = json.loads(Path(source).read_text())
    net = Network(
        int(source["n"]),
        np.asarray(source["edges"], dtype=np.int64).reshape(-1, 2),
        np.asarray(source["membership"], dtype=np.int64),
        source["sizes"],
        seed=source.get("seed"),
    )
    return net
