import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netconsensus import sbm


def two_level(sizes, p_in, p_out, seed=0):
    return sbm.make_two_level_model(sizes, sbm.TwoLevelProbs(p_in, p_out), seed)


class TestTwoLevelProbs:
    def test_delta(self):
        probs = sbm.TwoLevelProbs(0.1, 0.02)
        assert probs.delta == pytest.approx(0.08)

    @pytest.mark.parametrize("p_in,p_out", [(0.1, 0.2), (-0.1, 0.0), (1.2, 0.5), (0.5, -0.1)])
    def test_invalid_range(self, p_in, p_out):
        with pytest.raises(ValueError):
            sbm.TwoLevelProbs(p_in, p_out)


class TestModel:
    def test_degenerate_k1(self):
        model = two_level([3], 1.0, 1.0)
        assert model.edge_probs.tolist() == [[1.0]]

    def test_paper_two_community(self):
        model = two_level([700, 300], 0.1, 0.02)
        assert model.edge_probs.tolist() == [[0.1, 0.02], [0.02, 0.1]]
        assert model.n == 1000

    def test_delta_zero_constant_matrix(self):
        model = two_level([30, 70], 0.9, 0.9)
        assert np.all(model.edge_probs == 0.9)

    def test_empty_sizes_rejected(self):
        with pytest.raises(ValueError):
            sbm.make_two_level_model([], sbm.TwoLevelProbs(0.5, 0.1), 0)

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError):
            sbm.SbmModel((3, 0), np.eye(2) * 0.5, 0)

    def test_asymmetric_probs_rejected(self):
        with pytest.raises(ValueError):
            sbm.SbmModel((2, 2), np.array([[0.5, 0.1], [0.2, 0.5]]), 0)

    def test_out_of_range_probs_rejected(self):
        with pytest.raises(ValueError):
            sbm.SbmModel((2, 2), np.full((2, 2), 1.5), 0)

    def test_nan_probs_rejected_as_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            sbm.SbmModel((2, 2), np.array([[0.5, np.nan], [np.nan, 0.5]]), 0)

    def test_negative_seed_rejected_by_name(self):
        # sample and sample_connected would fail inside numpy without naming it
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            two_level([5, 5], 0.5, 0.1, seed=-1)
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            two_level([5, 5], 0.5, 0.1).with_seed(-1)


class TestSampling:
    def test_probability_one_gives_complete_graph(self):
        net = sbm.sample(two_level([4], 1.0, 1.0))
        assert net.num_edges == 6
        assert np.all(net.degrees == 3)

    def test_probability_zero_between_blocks(self):
        net = sbm.sample(two_level([20, 30], 0.5, 0.0))
        block = np.repeat(np.arange(2), net.community_sizes)
        cross = block[net.edges[:, 0]] != block[net.edges[:, 1]]
        assert not cross.any()

    def test_within_block_count_within_4_sigma(self):
        # block-1 internal edge count is Binomial(C(700,2), 0.1)
        mean = 700 * 699 / 2 * 0.1
        std = np.sqrt(700 * 699 / 2 * 0.1 * 0.9)
        for seed in (1, 2, 3):
            net = sbm.sample(two_level([700, 300], 0.1, 0.02, seed=seed))
            both_in_first = (net.edges < 700).all(axis=1)
            count = int(both_in_first.sum())
            assert abs(count - mean) < 4 * std

    def test_deterministic_per_seed(self):
        model = two_level([50, 50], 0.2, 0.05, seed=42)
        a, b = sbm.sample(model), sbm.sample(model)
        assert np.array_equal(a.edges, b.edges)
        c = sbm.sample(model.with_seed(43))
        assert not np.array_equal(a.edges, c.edges)

    def test_membership_ordered_by_block(self):
        # complete blocks, no cross edges: each block is a contiguous node range
        net = sbm.sample(two_level([3, 5, 2], 1.0, 0.0))
        assert net.community_sizes == (3, 5, 2)
        blocks = [range(0, 3), range(3, 8), range(8, 10)]
        expected = [pair for block in blocks for pair in itertools.combinations(block, 2)]
        assert net.edges.tolist() == [list(pair) for pair in expected]

    def test_edge_frequency_matches_probability(self):
        # empirical Bernoulli frequency of one within and one cross pair
        model = two_level([3, 3], 0.7, 0.2)
        n_trials = 10_000
        hit_within = hit_cross = 0
        for seed in range(n_trials):
            net = sbm.sample(model.with_seed(seed))
            pairs = {(int(i), int(j)) for i, j in net.edges}
            hit_within += (0, 1) in pairs
            hit_cross += (0, 3) in pairs
        for hits, p in ((hit_within, 0.7), (hit_cross, 0.2)):
            se = np.sqrt(p * (1 - p) / n_trials)
            assert abs(hits / n_trials - p) < 4 * se

    def test_delta_zero_blockwise_chi2(self):
        # at delta=0 the three block-pair edge counts are indistinguishable
        model = two_level([50, 50], 0.3, 0.3)
        pair_counts = np.array([50 * 49 / 2, 50 * 50, 50 * 49 / 2])
        reps = 200
        totals = np.zeros(3)
        for seed in range(reps):
            net = sbm.sample(model.with_seed(seed))
            block = np.repeat(np.arange(2), net.community_sizes)
            b0 = block[net.edges[:, 0]]
            b1 = block[net.edges[:, 1]]
            totals[0] += ((b0 == 0) & (b1 == 0)).sum()
            totals[1] += (b0 != b1).sum()
            totals[2] += ((b0 == 1) & (b1 == 1)).sum()
        expected = pair_counts * reps * 0.3
        chi2 = float(np.sum((totals - expected) ** 2 / (expected * 0.7)))
        # chi-square with 3 dof: 27.4 is the 1e-5 quantile neighborhood
        assert chi2 < 27.4

    def test_peak_memory_of_a_dense_draw(self):
        # tracemalloc peak of one sweep-dense draw over its adjacency's bytes: 2.79 when the
        # sampler gathered (i, j) pairs for the constructor, 1.12 when built from the draws
        import tracemalloc

        model = two_level([700, 300], 0.9, 0.002, seed=6)
        sbm.sample(model.with_seed(7))  # keeps scipy's first-call imports out of the reading
        tracemalloc.start()
        try:
            net = sbm.sample(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        adj = net.adjacency
        assert peak < 1.5 * (adj.indptr.nbytes + adj.indices.nbytes + adj.data.nbytes)

    def test_peak_memory_of_the_edge_list(self):
        # tracemalloc peak of reading a fig4-sized network's pairs over the array returned:
        # 2.6 when they came from a COO copy of the whole adjacency
        import tracemalloc

        net = sbm.sample(two_level([700, 300], 0.9, 0.002, seed=6))
        tracemalloc.start()
        try:
            edges = net.edges
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert edges.shape == (net.num_edges, 2)
        assert peak <= 1.5 * edges.nbytes

    def test_sample_connected_resamples(self):
        net, attempts = sbm.sample_connected(two_level([30, 30], 0.3, 0.02, seed=5))
        assert net.connected
        assert attempts >= 1


class TestBlockMatrices:
    def test_expected_degrees_paper_config(self):
        blocks = sbm.block_matrices(two_level([700, 300], 0.1, 0.02))
        assert blocks.expected_degrees == pytest.approx([76.0, 44.0])

    def test_expectation_kernel_values(self):
        blocks = sbm.block_matrices(two_level([700, 300], 0.1, 0.02))
        assert blocks.expectation[0, 0] == pytest.approx(0.1 / 76)
        assert blocks.expectation[0, 1] == pytest.approx(0.02 / np.sqrt(76 * 44))

    def test_variance_kernel_values(self):
        blocks = sbm.block_matrices(two_level([700, 300], 0.1, 0.02))
        assert blocks.variance[0, 0] == pytest.approx(0.1 * 0.9 / 76**2)
        assert blocks.variance[0, 1] == pytest.approx(0.02 * 0.98 / (76 * 44))

    def test_zero_probability_rejected(self):
        with pytest.raises(ValueError):
            sbm.block_matrices(sbm.SbmModel((4,), np.zeros((1, 1)), 0))

    def test_all_ones_gives_zero_variance(self):
        blocks = sbm.block_matrices(two_level([5, 5], 1.0, 1.0))
        assert np.all(blocks.variance == 0.0)

    def test_symmetry(self):
        model = sbm.SbmModel((3, 4, 5), np.array([[0.5, 0.2, 0.1], [0.2, 0.6, 0.3], [0.1, 0.3, 0.7]]), 0)
        blocks = sbm.block_matrices(model)
        assert np.array_equal(blocks.expectation, blocks.expectation.T)
        assert np.array_equal(blocks.variance, blocks.variance.T)
        assert np.all(blocks.variance >= 0)

    def test_permutation_invariance(self):
        pi = np.array([[0.5, 0.2, 0.1], [0.2, 0.6, 0.3], [0.1, 0.3, 0.7]])
        sizes = (3, 4, 5)
        perm = [2, 0, 1]
        base = sbm.block_matrices(sbm.SbmModel(sizes, pi, 0))
        permuted = sbm.block_matrices(
            sbm.SbmModel(tuple(sizes[i] for i in perm), pi[np.ix_(perm, perm)], 0)
        )
        assert np.allclose(base.expectation[np.ix_(perm, perm)], permuted.expectation)
        assert np.allclose(base.variance[np.ix_(perm, perm)], permuted.variance)
        assert np.allclose(base.expected_degrees[perm], permuted.expected_degrees)


class TestConnectivity:
    def test_complete_graph_connected(self):
        assert sbm.sample(two_level([4], 1.0, 1.0)).connected

    def test_two_blocks_disconnected(self):
        assert not sbm.sample(two_level([10, 10], 1.0, 0.0)).connected

    def test_path_graph_connected(self):
        net = sbm.Network([3], np.array([[0, 1], [1, 2]]))
        assert net.connected


def coo_adjacency(n, pairs):
    """Symmetric CSR adjacency of the given pairs built by scipy's COO-to-CSR conversion, the constructor's oracle."""
    from scipy import sparse

    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    adj = sparse.csr_matrix((np.ones(2 * len(pairs)), (rows, cols)), shape=(n, n))
    adj.sort_indices()
    return adj


def components_connected(n, pairs):
    """The connected_components test the constructor's breadth-first search replaced, kept as its oracle."""
    from scipy.sparse.csgraph import connected_components

    if n <= 1:
        return True
    if len(pairs) == 0:
        return False
    return connected_components(coo_adjacency(n, pairs), directed=False)[0] == 1


def assert_matches_oracles(net, pairs):
    """net against oracles computed from the pairs it was built from, never from its own output."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    adj, oracle = net.adjacency, coo_adjacency(net.n, pairs)
    assert type(adj) is type(oracle)
    for field in ("indptr", "indices", "data"):
        got, want = getattr(adj, field), getattr(oracle, field)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field
    assert adj.has_sorted_indices
    assert net.connected is components_connected(net.n, pairs)
    # each edge counts once at each endpoint
    assert np.array_equal(net.degrees, np.bincount(pairs.ravel(), minlength=net.n))
    assert net.degrees.dtype == np.int64 and not net.degrees.flags.writeable
    edges = net.edges
    assert edges.dtype == np.int64 and edges.shape == (len(pairs), 2) and net.num_edges == len(edges)
    assert np.array_equal(edges, np.unique(np.sort(pairs, axis=1), axis=0))


def adjacency_digest(net):
    adj = net.adjacency
    return hashlib.sha256(adj.indptr.tobytes() + adj.indices.tobytes() + adj.data.tobytes()).hexdigest()


def reordered_edge_list(net, path, seed):
    """Write net's edge list to path with its pairs shuffled and about half of them reversed; return those pairs."""
    rng = np.random.default_rng(seed)
    edges = net.edges[rng.permutation(net.num_edges)]
    flip = rng.random(net.num_edges) < 0.5
    edges[flip] = edges[flip, ::-1]
    sizes = " ".join(map(str, net.community_sizes))
    path.write_text(f"{net.n} {len(net.community_sizes)} {sizes}\n" + "".join(f"{i} {j}\n" for i, j in edges))
    return edges


# each digest is sha256 of the adjacency's indptr, indices and data bytes: the first five were
# pinned from the sort-and-indptr constructor that preceded the COO build, the last two from the
# COO constructor that preceded building sampled networks from their draws
SAMPLED_MODELS = [
    (two_level([30, 70], 0.9, 0.01, seed=1), True,
     "429cb3a2f2bb93e46300f2566fb73c762b4ebc2e356f77169cdc740ca56f17cd"),
    (two_level([700, 300], 0.1, 0.001, seed=2), True,
     "af2fd15e9045f1c1a3b0fc1f2aa6f21234440fc1608e4d2904fc231c0fdc5f5e"),
    (two_level([40, 25, 35], 0.3, 0.02, seed=5), True,
     "6d34d6310badbdd92f1d5b9ac16e69939279d9463dd813007ecf8dcbac73916e"),
    (two_level([60], 0.03, 0.03, seed=3), False,
     "fa08f7f4383e3e75703d7ba647e04b62b76db20abc5b280773bced62c4dfc399"),
    (two_level([10, 10], 1.0, 0.0, seed=4), False,
     "8ba95847b6ca19cbcb294d1e5fa2ebc94c42d263ea40dd7d6ee383f8a60f54b8"),
    (two_level([700, 300], 0.9, 0.002, seed=6), True,
     "0c59104ee3cd2db3ef004cef92c886dcd01d5a89a9e67fe96716d6967f404a60"),
    # blocks (0, 1) and (1, 0) at probability 0 draw nothing
    (sbm.SbmModel((40, 25, 35), np.array([[0.3, 0.0, 0.05], [0.0, 0.4, 0.05], [0.05, 0.05, 0.5]]), 7), True,
     "7c0f4c1aa89affbcc1e2b91c022bf3ab1398d034a257012b6e3a289d5e474185"),
]
SAMPLED_IDS = ["fig5-like", "fig3-sparse", "three-blocks", "sparse-er-disconnected", "two-blocks-disconnected",
               "sweep-dense-like", "three-blocks-empty-block"]


class TestConstructionOracles:
    @pytest.mark.parametrize("model, connected, digest", SAMPLED_MODELS, ids=SAMPLED_IDS)
    def test_sampled_and_reloaded_networks(self, tmp_path, model, connected, digest):
        net = sbm.sample(model)
        assert net.connected is connected
        assert adjacency_digest(net) == digest
        pairs = reordered_edge_list(net, tmp_path / "net.txt", model.seed)
        assert_matches_oracles(net, pairs)
        back = sbm.load_edge_list(tmp_path / "net.txt")
        assert np.array_equal(back.edges, net.edges)
        assert_matches_oracles(back, pairs)

    @pytest.mark.parametrize("model, connected, digest", SAMPLED_MODELS, ids=SAMPLED_IDS)
    def test_chunked_sampling(self, monkeypatch, model, connected, digest):
        # 37 draws at a time: every model here draws each block, and reads each row
        # community, in several chunks of rows
        monkeypatch.setattr(sbm, "_CHUNK_DRAWS", 37)
        net = sbm.sample(model)
        assert net.connected is connected
        assert adjacency_digest(net) == digest
        assert_matches_oracles(net, net.edges)

    @pytest.mark.parametrize("chunk", [sbm._CHUNK_DRAWS, 37], ids=["whole", "chunked"])
    @pytest.mark.parametrize("model, connected, digest", SAMPLED_MODELS, ids=SAMPLED_IDS)
    def test_reloaded_network_is_the_sampled_one(self, tmp_path, monkeypatch, model, connected, digest, chunk):
        # sample and the edge list's pairs fill one builder, so they give the same network, split included
        monkeypatch.setattr(sbm, "_CHUNK_DRAWS", chunk)
        net = sbm.sample(model)
        reordered_edge_list(net, tmp_path / "net.txt", model.seed)
        back = sbm.load_edge_list(tmp_path / "net.txt")
        for name in ("adjacency", "split"):
            for field in ("indptr", "indices", "data"):
                got, want = getattr(getattr(back, name), field), getattr(getattr(net, name), field)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (name, field)
        assert back.dense_blocks.tolist() == net.dense_blocks.tolist()
        assert np.array_equal(back.degrees, net.degrees)
        assert back.connected is net.connected is connected

    @pytest.mark.parametrize("sizes, connected", [([1], True), ([3, 2], False)], ids=["n=1", "no-edges"])
    def test_networks_without_edges(self, sizes, connected):
        net = sbm.Network(sizes, [])
        assert net.connected is connected
        assert_matches_oracles(net, [])

    def test_edges_is_a_fresh_array(self):
        net = sbm.Network([4], [[2, 3], [1, 0], [0, 2]])
        before = net.adjacency.copy()
        edges = net.edges
        edges[:] = 0
        assert (net.adjacency != before).nnz == 0
        assert net.edges.tolist() == [[0, 1], [0, 2], [2, 3]]


class TestConnected:
    """connected, from the search on the edge bits, against the connected_components oracle."""

    def test_sampled_near_the_connectivity_threshold(self):
        seen = set()
        for seed in range(40):
            net = sbm.sample(two_level([15, 10], 0.2, 0.02, seed=seed))
            assert net.connected is components_connected(net.n, net.edges)
            seen.add(net.connected)
        assert seen == {True, False}

    @pytest.mark.parametrize("sizes, pairs, connected", [
        ([4], [[0, 1], [1, 2]], False),  # node 3 isolated
        ([3], [[1, 2]], False),  # the search's start isolated
        ([2, 2], [[0, 1], [2, 3]], False),  # one component per community
        ([3, 3], [[0, 1], [1, 2], [3, 4], [4, 5]], False),
        ([6], [[5, 4], [4, 3], [3, 2], [2, 1], [1, 0]], True),  # a path: one round of the search per node
        ([2, 2], [[0, 2], [2, 1], [1, 3]], True),
    ], ids=["isolated-node", "isolated-start", "two-components", "two-paths", "path", "across-blocks"])
    def test_built_from_pairs(self, sizes, pairs, connected):
        net = sbm.Network(sizes, pairs)
        assert net.connected is connected is components_connected(net.n, np.asarray(pairs).reshape(-1, 2))

    def test_sampled_single_node(self):
        assert sbm.sample(two_level([1], 0.5, 0.5)).connected


SWEEP_PATH_PROBE = """
import sys
from netconsensus import consensus, sbm, spectra
net = sbm.sample(sbm.make_two_level_model([700, 300], sbm.TwoLevelProbs(0.9, 0.002), 6))
assert net.dense_blocks.any()
consensus.run(net, consensus.random_initial_state(net.n, 6), 1e-10)
spectra.lambda2_only(net)
print(net._adjacency is None, "scipy.sparse.csgraph" in sys.modules)
"""


class TestAdjacencyOnDemand:
    def test_sweep_path_never_builds_the_adjacency(self):
        # a fresh interpreter, so that no other test's import of csgraph shows
        src = str(Path(sbm.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", SWEEP_PATH_PROBE], capture_output=True, text=True, env=env,
                              timeout=120, check=True)
        assert proc.stdout.split() == ["True", "False"]

    @pytest.mark.parametrize("model, connected, digest", SAMPLED_MODELS, ids=SAMPLED_IDS)
    def test_built_from_the_split_in_small_chunks(self, monkeypatch, model, connected, digest):
        net = sbm.sample(model)
        split = {field: getattr(net.split, field).copy() for field in ("indptr", "indices", "data")}
        monkeypatch.setattr(sbm, "_CHUNK_DRAWS", 37)  # one row at a time
        assert adjacency_digest(net) == digest
        oracle = coo_adjacency(net.n, net.edges)
        for field in ("indptr", "indices", "data"):
            assert getattr(net.adjacency, field).dtype == getattr(oracle, field).dtype, field
            got, want = getattr(net.split, field), split[field]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field
        assert net.adjacency is net.adjacency  # built once
        assert (net.adjacency is net.split) == (not net.dense_blocks.any())


def complete_from_pairs():
    return sbm.Network([6], list(itertools.combinations(range(6), 2)))


# (network, its dense blocks) for the split product's oracles
SPLIT_CASES = [
    (lambda: sbm.sample(two_level([700, 300], 0.9, 0.002, seed=6)), [[True, False], [False, True]]),
    (lambda: sbm.sample(two_level([700, 300], 0.9, 0.9, seed=6)), [[True, True], [True, True]]),
    (lambda: sbm.sample(two_level([30, 70], 0.9, 0.003, seed=1)), [[True, False], [False, True]]),
    # block (0, 1) at probability 0 and diagonal block (1, 1) at probability 0 draw nothing
    (lambda: sbm.sample(sbm.SbmModel(
        (40, 25, 35), np.array([[0.8, 0.0, 0.6], [0.0, 0.0, 0.7], [0.6, 0.7, 0.9]]), 7)),
     [[True, False, True], [False, False, True], [True, True, True]]),
    (lambda: sbm.sample(sbm.SbmModel((30, 40), np.array([[0.1, 0.9], [0.9, 0.2]]), 3)),
     [[False, True], [True, False]]),
    # one pair, drawn: its diagonal block is dense, so M holds only the -1s of its diagonal
    (lambda: sbm.sample(two_level([2], 1.0, 1.0)), [[True]]),
    (lambda: sbm.sample(two_level([1], 1.0, 1.0)), [[False]]),
    (lambda: sbm.sample(two_level([3, 2], 0.0, 0.0)), [[False, False], [False, False]]),
    # built from pairs, as an edge list is: its full block is stored as its complement too
    (complete_from_pairs, [[True]]),
]
SPLIT_IDS = ["sweep-dense", "all-dense", "fig5", "three-blocks-empty-and-zero-diagonal", "dense-off-diagonal-only",
             "one-pair", "one-node", "no-edges", "from-pairs"]


def block_counts(net):
    """(edges, pairs) per block (r, s) of net, read from its adjacency."""
    cuts = np.cumsum((0, *net.community_sizes))
    sizes = np.diff(cuts)
    adj = net.adjacency.toarray()
    edges = np.add.reduceat(np.add.reduceat(adj, cuts[:-1], axis=0), cuts[:-1], axis=1)
    pairs = np.outer(sizes, sizes)
    np.fill_diagonal(edges, edges.diagonal() / 2)
    np.fill_diagonal(pairs, sizes * (sizes - 1) // 2)
    return edges, pairs


class TestSplitProduct:
    @pytest.mark.parametrize("build", [build for build, _ in SPLIT_CASES], ids=SPLIT_IDS)
    def test_product_matches_the_adjacency(self, build):
        net = build()
        rng = np.random.default_rng(net.n)
        for x in (rng.standard_normal(net.n), rng.standard_normal((net.n, 3))):
            want = net.adjacency @ x
            got = net.product(x)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("build, dense", SPLIT_CASES, ids=SPLIT_IDS)
    def test_dense_blocks_and_their_complement(self, build, dense):
        net = build()
        edges, pairs = block_counts(net)
        assert net.dense_blocks.tolist() == dense == (2 * edges > pairs).tolist()
        if not np.any(dense):
            assert net.split is net.adjacency
            return
        # M + R is the adjacency, entry by entry, with R = 1 on the dense blocks
        member = np.repeat(np.arange(len(net.community_sizes)), net.community_sizes)
        block_constant = net.dense_blocks[member[:, None], member[None, :]].astype(float)
        assert np.array_equal(net.split.toarray() + block_constant, net.adjacency.toarray())
        assert net.split.has_sorted_indices
        # an entry per edge of a sparse block and per non-edge of a dense one, each pair of a
        # diagonal block stored twice, and the diagonal of a dense diagonal block
        stored = np.where(dense, pairs - edges, edges)
        diagonal = sum(size for size, d in zip(net.community_sizes, np.diag(dense)) if d)
        assert net.split.nnz == stored.sum() + np.trace(stored) + diagonal

    @pytest.mark.parametrize("build, dense", SPLIT_CASES[:5], ids=SPLIT_IDS[:5])
    def test_chunked_sampling_gives_the_same_split(self, monkeypatch, build, dense):
        whole = build()
        monkeypatch.setattr(sbm, "_CHUNK_DRAWS", 37)
        chunked = build()
        assert np.array_equal(chunked.dense_blocks, whole.dense_blocks)
        for field in ("indptr", "indices", "data"):
            assert getattr(chunked.split, field).tobytes() == getattr(whole.split, field).tobytes(), field


class TestNetworkValidation:
    def test_self_edge_rejected(self):
        with pytest.raises(ValueError, match=r"^pair 1 \(1, 1\): self-edges"):
            sbm.Network([3], np.array([[0, 1], [1, 1]]))

    def test_duplicate_edge_rejected(self):
        # the message names the first pair that repeats an earlier one
        with pytest.raises(ValueError, match=r"^pair 1 \(1, 0\): duplicate"):
            sbm.Network([3], np.array([[0, 1], [1, 0]]))
        with pytest.raises(ValueError, match=r"^pair 2 \(0, 2\): duplicate"):
            sbm.Network([3], np.array([[2, 0], [1, 2], [0, 2]]))
        with pytest.raises(ValueError, match=r"^pair 1 \(0, 1\): duplicate"):
            sbm.Network([3], np.array([[0, 1], [0, 1], [0, 1]]))
        with pytest.raises(ValueError, match=r"^pair 3 \(1, 4\): duplicate"):
            sbm.Network([5], np.array([[4, 1], [0, 2], [3, 4], [1, 4]]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"^pair 0 \(0, 5\): edge endpoint out of range 0..2"):
            sbm.Network([3], np.array([[0, 5]]))
        with pytest.raises(ValueError, match=r"^pair 1 \(-1, 2\): edge endpoint out of range"):
            sbm.Network([3], np.array([[0, 1], [-1, 2]]))

    def test_sizes_not_summing_to_n_rejected(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("4 2 10 10\n0 1\n2 3\n")
        with pytest.raises(ValueError, match="inconsistent with n=4"):
            sbm.load_edge_list(path)

    @pytest.mark.parametrize("sizes", [(2, 0), (3, -1), ()])
    def test_community_size_below_one_rejected(self, sizes):
        with pytest.raises(ValueError, match="sizes >= 1"):
            sbm.Network(sizes, [])

    def test_header_with_empty_community_rejected(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("3 2 0 3\n1 2\n")
        with pytest.raises(ValueError, match=r"sizes >= 1, got \(0, 3\)"):
            sbm.load_edge_list(path)

    @pytest.mark.parametrize("text, where", [("4 2 2 x\n0 1\n", "1: expected an integer, got 'x'"),
                                             ("4 1 4\n0 1\n\n2 3.0\n", "4: expected an integer, got '3.0'")],
                             ids=["header", "pair"])
    def test_non_integer_token_names_line(self, tmp_path, text, where):
        path = tmp_path / "net.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            sbm.load_edge_list(path)
        assert str(info.value) == f"{path}:{where}"


class TestSerialization:
    def test_edge_list_roundtrip(self, tmp_path):
        net = sbm.sample(two_level([8, 12], 0.4, 0.1, seed=3))
        path = tmp_path / "net.txt"
        sbm.save_edge_list(net, path)
        back = sbm.load_edge_list(path)
        assert back.n == net.n
        assert back.community_sizes == net.community_sizes
        assert np.array_equal(back.edges, net.edges)
        header = path.read_text().splitlines()[0]
        assert header == "20 2 8 12"


@st.composite
def small_networks(draw):
    """A random simple graph on 1..12 nodes in 1..3 communities and the pairs
    it was built from, listed in random order and orientation."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    n = sum(sizes)
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    edges = [(j, i) if draw(st.booleans()) else (i, j) for i, j in chosen]
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return sbm.Network(sizes, pairs), pairs


def assert_same_network(back, net):
    assert back.n == net.n
    assert back.community_sizes == net.community_sizes
    assert np.array_equal(back.edges, net.edges)
    assert np.array_equal(back.degrees, net.degrees)


@settings(max_examples=60)
@given(small_networks())
def test_edge_list_roundtrip_property(tmp_path_factory, built):
    net, _ = built
    path = tmp_path_factory.mktemp("edges") / "net.txt"
    sbm.save_edge_list(net, path)
    assert_same_network(sbm.load_edge_list(path), net)


@settings(max_examples=60, deadline=None)
@given(small_networks())
def test_construction_matches_oracles_property(built):
    assert_matches_oracles(*built)
