"""Stochastic block models: model definition, network sampling, block kernels.

A block model is specified by community sizes, a symmetric edge-probability
matrix, and an RNG seed. Sampling draws every unordered node pair once as an
independent Bernoulli variable. A network, sampled or read from an edge list,
is built one way: one builder reads the boolean upper triangle of its edges,
nodes grouped contiguously by community, once into the split A = M + R that
Network.product multiplies with, which stores each block with more edges than
non-edges as its complement, so a product walks the fewer of the two. Degrees
and connectivity come from the same edge bits. The split is private to this
module: outside it, a network's adjacency is read through product or edges.
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
            raise ValueError(f"require 0 <= p_out <= p_in <= 1, got p_in={self.p_in}, p_out={self.p_out}")

    @property
    def delta(self) -> float:
        """Community prevalence: p_in - p_out."""
        return self.p_in - self.p_out


def _community_sizes(sizes) -> tuple:
    if not (sizes := tuple(int(s) for s in sizes)) or min(sizes) < 1:
        raise ValueError(f"community sizes must be a nonempty list of sizes >= 1, got {sizes}")
    return sizes


@dataclass(frozen=True, eq=False)
class SbmModel:
    """Generative spec: community sizes, edge-probability matrix, seed."""

    community_sizes: tuple
    edge_probs: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        sizes = _community_sizes(self.community_sizes)
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

    def with_seed(self, seed: int) -> "SbmModel":
        """Same model, different sampling seed."""
        return SbmModel(self.community_sizes, self.edge_probs, int(seed))


class _PairError(ValueError):
    """A node pair that Network rejects, named by its index among the pairs and its values."""

    def __init__(self, edges, index, why):
        super().__init__(f"pair {index} ({edges[index, 0]}, {edges[index, 1]}): {why}")
        self.index = index


class Network:
    """Undirected simple graph, built whole and not changed after.

    Nodes are 0..n-1, n = sum(community_sizes), grouped contiguously by community in size order.
    The constructor takes node pairs in any order and orientation and rejects the first self-edge,
    out-of-range endpoint or repeated pair. connected is True iff a search from node 0 reaches all n nodes.

    Outside this module a network is n, community_sizes, degrees, num_edges, connected, product and
    edges. product(x) is A x; edges is a fresh (i, j)-sorted (m, 2) int64 array of the pairs i < j.
    Both read the private split A = M + R, which stores each dense block (_dense[r, s]: more edges
    than non-edges) as its complement. _split is M: +1 at the edges of the other blocks, -1 at the
    non-edges of the dense ones and on the diagonal of a dense diagonal block. R is block-constant,
    (R x)_r = sum over dense (r, s) of 1^T x_s.
    """

    __slots__ = ("n", "degrees", "num_edges", "community_sizes", "connected", "_split", "_dense", "_starts")

    def __init__(self, community_sizes, edges):
        community_sizes = _community_sizes(community_sizes)
        n = sum(community_sizes)
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        lo, hi = np.minimum(edges[:, 0], edges[:, 1]), np.maximum(edges[:, 0], edges[:, 1])
        for bad, why in ((lo == hi, "self-edges are not allowed"),
                         ((lo < 0) | (hi >= n), f"edge endpoint out of range 0..{n - 1}")):
            if bad.any():
                raise _PairError(edges, np.argmax(bad), why)
        self._hold(community_sizes, lambda upper: np.put(upper, lo * n + hi, True))
        if self.num_edges < len(edges):  # a repeated pair sets no new entry
            first = np.unique(lo * n + hi, return_index=True)[1]  # where each pair first appears
            raise _PairError(edges, np.setdiff1d(np.arange(len(edges)), first)[0], "duplicate edges are not allowed")

    def _hold(self, community_sizes, fill) -> None:
        """Set every field from the sizes and the strictly upper-triangular boolean (n, n) array of the edges,
        set by fill(upper): filled in place to the symmetric adjacency, read once by chunks of rows, then searched."""
        n, k = sum(community_sizes), len(community_sizes)
        upper = np.zeros((n, n), dtype=bool)
        fill(upper)
        offsets = np.cumsum((0, *community_sizes)).tolist()
        dense = np.zeros((k, k), dtype=bool)
        parts, degrees = [], []  # (row counts, column indices) of M, and the degrees, per chunk of rows
        chunk = max(1, _CHUNK_DRAWS // n)
        for r, nr in enumerate(community_sizes):
            # the blocks (r, s >= r), as filled; a block (r, s < r) was counted at row community s
            for s in range(r, k):
                edges = np.count_nonzero(upper[offsets[r]:offsets[r + 1], offsets[s]:offsets[s + 1]])
                pairs = nr * (nr - 1) // 2 if r == s else nr * community_sizes[s]
                dense[r, s] = dense[s, r] = 2 * edges > pairs
            flip = np.repeat(dense[r], community_sizes) if dense[r].any() else None  # the dense columns of rows r
            for i0 in range(offsets[r], offsets[r + 1], chunk):
                i1 = min(i0 + chunk, offsets[r + 1])
                rows = upper[i0:i1]
                # the columns above the chunk (upper is zero below), copied compact: ~7x faster at n = 7000
                rows[:, :i1] |= np.ascontiguousarray(upper[:i1, i0:i1]).T
                # a dense block's non-edges, its diagonal included
                parts.append(_row_nonzeros(rows if flip is None else rows ^ flip))
                degrees.append(parts[-1][0] if flip is None else np.count_nonzero(rows, axis=1))
        self.connected = _connected(upper)
        del upper, rows  # the final join is a dense network's peak memory
        self._split = split = _csr(n, parts)
        # M's entries in the dense blocks are their non-edges: -1
        for r in np.flatnonzero(dense.any(axis=1)):
            entries = slice(split.indptr[offsets[r]], split.indptr[offsets[r + 1]])
            split.data[entries][np.repeat(dense[r], community_sizes)[split.indices[entries]]] = -1.0
        self.n, self.community_sizes, self._dense = n, community_sizes, dense
        self.degrees = np.concatenate(degrees).astype(np.int64)
        self.num_edges = int(self.degrees.sum()) // 2
        self.degrees.flags.writeable = dense.flags.writeable = False
        self._starts = np.cumsum((0, *community_sizes[:-1])) if dense.any() else None

    def product(self, x: np.ndarray) -> np.ndarray:
        """A x for a vector (n,) or a block (n, c), as M x + R x."""
        y = self._split @ x
        if self._starts is not None:
            y += np.repeat(self._dense @ np.add.reduceat(x, self._starts, axis=0), self.community_sizes, axis=0)
        return y

    @property
    def edges(self) -> np.ndarray:
        pairs, at = np.empty((self.num_edges, 2), dtype=np.int64), 0
        indptr, indices, offsets = self._split.indptr, self._split.indices, np.cumsum((0, *self.community_sizes))
        chunk = max(1, self.n // 16)  # a sixteenth of the rows at a time: no temporary is larger than half the pairs
        for r, flip in enumerate(np.repeat(self._dense, self.community_sizes, axis=1)):
            for i0 in range(offsets[r], offsets[r + 1], chunk):
                i1 = min(i0 + chunk, offsets[r + 1])
                counts, cols = np.diff(indptr[i0:i1 + 1]), indices[indptr[i0]:indptr[i1]]
                if flip.any():  # A's rows are M's nonzeros XOR the dense columns
                    bits = np.zeros((i1 - i0, self.n), dtype=bool)
                    bits[np.repeat(np.arange(i1 - i0), counts), cols] = True
                    counts, cols = _row_nonzeros(bits ^ flip)
                rows = np.repeat(np.arange(i0, i1), counts)
                upper = cols > rows  # the j > i of each row i, in (i, j) order
                pairs[at:at + np.count_nonzero(upper)] = np.column_stack((rows[upper], cols[upper]))
                at += np.count_nonzero(upper)
        return pairs


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
    k = len(sizes)
    pi = np.full((k, k), probs.p_out, dtype=float)
    np.fill_diagonal(pi, probs.p_in)
    return SbmModel(sizes, pi, int(seed))


def sample(model: SbmModel) -> Network:
    """Draw one network from the model, deterministically per (model, seed).

    Each unordered pair (i, j), i != j, is an independent Bernoulli variable
    with probability Pi[c_i, c_j]. No self-edges. The draws of each block
    (r, s), s >= r, fill its part of the upper triangle Network builds from.
    """
    rng = np.random.default_rng(model.seed)
    sizes = model.community_sizes
    offsets = np.cumsum((0, *sizes)).tolist()

    def draw(upper):
        for r in range(len(sizes)):
            for s in range(r, len(sizes)):
                p = float(model.edge_probs[r, s])
                if p == 0.0:
                    continue
                block = upper[offsets[r]:offsets[r + 1], offsets[s]:offsets[s + 1]]
                chunk = max(1, _CHUNK_DRAWS // sizes[s])
                for i0 in range(0, sizes[r], chunk):
                    draws = block[i0:i0 + chunk]
                    np.less(rng.random(draws.shape), p, out=draws)
                    if r == s:  # strictly upper-triangular pairs only
                        draws &= np.arange(sizes[s])[None, :] > (i0 + np.arange(len(draws)))[:, None]

    net = Network.__new__(Network)  # the draws need none of the constructor's pair checks
    net._hold(sizes, draw)
    return net


def _connected(adjacency):
    """Whether a search from node 0 of the symmetric boolean (n, n) adjacency reaches all nodes: O(n^2)."""
    frontier = seen = np.arange(len(adjacency)) == 0
    while frontier.any():
        frontier = adjacency[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def _row_nonzeros(rows):
    """(row counts, int32 column indices) of the nonzeros of a boolean (m, n) array, read row by row."""
    m, n = rows.shape
    # entry (i, j) is flat index i * n + j; subtracting i * n in int32 is cheaper than % n, and
    # finding where each row starts among the sorted flat indices cheaper than counting its entries
    flat = np.flatnonzero(rows)
    counts = np.diff(np.searchsorted(flat, np.arange(0, (m + 1) * n, n)))
    cols = flat.astype(np.int32)
    del flat
    cols -= np.repeat(np.arange(0, m * n, n, dtype=np.int32), counts)
    return counts, cols


def _csr(n, parts):
    """The (n, n) CSR matrix of 1s from a list of chunks of rows, each (row counts, column indices). Empties
    parts once its indices are joined, so the chunks are freed before the entries are allocated."""
    from scipy import sparse

    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.concatenate([counts for counts, _ in parts]), out=indptr[1:])
    indices = np.concatenate([cols for _, cols in parts])
    parts.clear()
    # scipy stores indptr as int32 when it fits
    return sparse.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))


def sample_connected(model: SbmModel):
    """Resample with derived seeds until the network is connected.

    Returns (network, attempts). Raises ValueError, as for any bad model
    setting, when CONNECT_TRIES consecutive samples are disconnected.
    """
    seeds = np.random.SeedSequence(model.seed).generate_state(CONNECT_TRIES, dtype=np.uint64)
    for attempt, s in enumerate(seeds, start=1):
        net = sample(model.with_seed(int(s)))
        if net.connected:
            return net, attempt
    raise ValueError(f"no connected sample in {CONNECT_TRIES} tries (model seed {model.seed})")


def block_matrices(model: SbmModel) -> BlockMatrices:
    """Expected-degree vector plus expectation/variance kernels.

    Rejects models whose expected degree vanishes in any block, since the
    normalized Laplacian is undefined there.
    """
    pi = model.edge_probs
    dhat = pi @ np.asarray(model.community_sizes, dtype=float)
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
    with Path(path).open("w") as fh:
        sizes = " ".join(str(s) for s in net.community_sizes)
        fh.write(f"{net.n} {len(net.community_sizes)} {sizes}\n")
        edges, step = net.edges, 1 << 14
        # Python ints format faster than numpy scalars; a slice at a time, since all of
        # fig2's 1.2M pairs as Python lists would take ~150 MB
        for start in range(0, len(edges), step):
            fh.writelines(f"{i} {j}\n" for i, j in edges[start:start + step].tolist())


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
        pairs = []  # i, j and the line of each pair, flat
        for lineno, line in enumerate(fh, start=2):
            toks = line.split()
            if not toks:
                continue
            if len(toks) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'i j', got {line!r}")
            pairs += [*ints(toks, lineno), lineno]
    pairs = np.array(pairs, dtype=np.int64).reshape(-1, 3)  # the list, ~5x its bytes, is freed before the build
    try:
        return Network(sizes, pairs[:, :2])
    except ValueError as exc:  # a pair's line, else the header's community sizes
        raise ValueError(f"{path}:{pairs[exc.index, 2] if isinstance(exc, _PairError) else 1}: {exc}") from None
