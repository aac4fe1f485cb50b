import itertools

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


class TestSampling:
    def test_probability_one_gives_complete_graph(self):
        net = sbm.sample(two_level([4], 1.0, 1.0))
        assert net.num_edges == 6
        assert np.all(net.degrees == 3)

    def test_probability_zero_between_blocks(self):
        net = sbm.sample(two_level([20, 30], 0.5, 0.0))
        cross = net.membership[net.edges[:, 0]] != net.membership[net.edges[:, 1]]
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
        net = sbm.sample(two_level([3, 5, 2], 0.5, 0.5))
        assert net.membership.tolist() == [0] * 3 + [1] * 5 + [2] * 2

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
            b0 = net.membership[net.edges[:, 0]]
            b1 = net.membership[net.edges[:, 1]]
            totals[0] += ((b0 == 0) & (b1 == 0)).sum()
            totals[1] += (b0 != b1).sum()
            totals[2] += ((b0 == 1) & (b1 == 1)).sum()
        expected = pair_counts * reps * 0.3
        chi2 = float(np.sum((totals - expected) ** 2 / (expected * 0.7)))
        # chi-square with 3 dof: 27.4 is the 1e-5 quantile neighborhood
        assert chi2 < 27.4

    def test_sample_connected_resamples(self):
        net, attempts = sbm.sample_connected(two_level([30, 30], 0.3, 0.02, seed=5))
        assert sbm.is_connected(net)
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
        assert sbm.is_connected(sbm.sample(two_level([4], 1.0, 1.0)))

    def test_two_blocks_disconnected(self):
        assert not sbm.is_connected(sbm.sample(two_level([10, 10], 1.0, 0.0)))

    def test_path_graph_connected(self):
        net = sbm.Network(3, np.array([[0, 1], [1, 2]]), np.zeros(3, dtype=np.int64), [3])
        assert sbm.is_connected(net)


class TestNetworkValidation:
    def test_self_edge_rejected(self):
        with pytest.raises(ValueError):
            sbm.Network(3, np.array([[1, 1]]), np.zeros(3, dtype=np.int64), [3])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError):
            sbm.Network(3, np.array([[0, 1], [1, 0]]), np.zeros(3, dtype=np.int64), [3])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            sbm.Network(3, np.array([[0, 5]]), np.zeros(3, dtype=np.int64), [3])

    def test_sizes_not_summing_to_n_rejected(self):
        doc = {"n": 4, "sizes": [10, 10], "membership": [0, 0, 1, 1], "edges": [[0, 1], [2, 3]]}
        with pytest.raises(ValueError, match="do not sum to n=4"):
            sbm.network_from_json(doc)

    @pytest.mark.parametrize("membership", [[0, 5, 1, 1], [1, 1, 0, 0], [0, 1, 0, 1]])
    def test_membership_not_grouped_by_size_rejected(self, membership):
        doc = {"n": 4, "sizes": [2, 2], "membership": membership, "edges": [[0, 1], [2, 3]]}
        with pytest.raises(ValueError, match="contiguously"):
            sbm.network_from_json(doc)


class TestSerialization:
    def test_edge_list_roundtrip(self, tmp_path):
        net = sbm.sample(two_level([8, 12], 0.4, 0.1, seed=3))
        path = tmp_path / "net.txt"
        sbm.save_edge_list(net, path)
        back = sbm.load_edge_list(path)
        assert back.n == net.n
        assert np.array_equal(back.edges, net.edges)
        assert np.array_equal(back.membership, net.membership)
        header = path.read_text().splitlines()[0]
        assert header == "20 2 8 12"

    def test_json_roundtrip(self, tmp_path):
        net = sbm.sample(two_level([5, 5], 0.6, 0.2, seed=9))
        path = tmp_path / "net.json"
        sbm.network_to_json(net, path)
        back = sbm.network_from_json(path)
        assert back.seed == net.seed
        assert np.array_equal(back.edges, net.edges)
        assert np.array_equal(back.membership, net.membership)


@st.composite
def small_networks(draw):
    """A random simple graph on 1..12 nodes in 1..3 communities, with its
    edges listed in random order and orientation."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    n = sum(sizes)
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    edges = [(j, i) if draw(st.booleans()) else (i, j) for i, j in chosen]
    seed = draw(st.one_of(st.none(), st.integers(0, 2**63 - 1)))
    membership = np.repeat(np.arange(len(sizes)), sizes)
    return sbm.Network(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2), membership, sizes, seed=seed)


def assert_same_network(back, net):
    assert back.n == net.n
    assert back.community_sizes == net.community_sizes
    assert np.array_equal(back.edges, net.edges)
    assert np.array_equal(back.membership, net.membership)
    assert np.array_equal(back.degrees, net.degrees)


@settings(max_examples=60)
@given(small_networks())
def test_json_roundtrip_property(tmp_path_factory, net):
    path = tmp_path_factory.mktemp("json") / "net.json"
    sbm.network_to_json(net, path)
    back = sbm.network_from_json(path)
    assert_same_network(back, net)
    assert back.seed == net.seed
    assert_same_network(sbm.network_from_json(sbm.network_to_json(net)), net)


@settings(max_examples=60)
@given(small_networks())
def test_edge_list_roundtrip_property(tmp_path_factory, net):
    path = tmp_path_factory.mktemp("edges") / "net.txt"
    sbm.save_edge_list(net, path)
    assert_same_network(sbm.load_edge_list(path), net)
