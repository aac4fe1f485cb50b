import itertools

import numpy as np
import pytest

from conftest import adjacency
from netconsensus import consensus, sbm, spectra


def complete_graph(n):
    edges = np.array(list(itertools.combinations(range(n), 2)))
    return sbm.Network([n], edges)


def sample_two_level(sizes, p_in, p_out, seed=0):
    model = sbm.make_two_level_model(sizes, sbm.TwoLevelProbs(p_in, p_out), seed)
    return sbm.sample(model)


class TestFullSpectrum:
    def test_complete_graph_closed_form(self):
        spec = spectra.normalized_laplacian_spectrum(complete_graph(4))
        assert spec.eigenvalues == pytest.approx([0.0, 4 / 3, 4 / 3, 4 / 3], abs=1e-10)
        assert spec.lambda2 == pytest.approx(4 / 3, abs=1e-10)

    def test_two_disconnected_cliques(self):
        net = sample_two_level([6, 6], 1.0, 0.0)
        spec = spectra.normalized_laplacian_spectrum(net)
        assert spec.lambda2 == pytest.approx(0.0, abs=1e-10)

    def test_two_node_path(self):
        net = sbm.Network([2], np.array([[0, 1]]))
        spec = spectra.normalized_laplacian_spectrum(net)
        assert spec.eigenvalues == pytest.approx([0.0, 2.0], abs=1e-12)

    def test_eigenvalues_sorted_and_in_range(self):
        net = sample_two_level([40, 60], 0.3, 0.1, seed=7)
        spec = spectra.normalized_laplacian_spectrum(net)
        assert np.all(np.diff(spec.eigenvalues) >= -1e-12)
        assert spec.eigenvalues[0] == pytest.approx(0.0, abs=1e-8)
        assert spec.eigenvalues.min() >= -1e-10
        assert spec.eigenvalues.max() <= 2.0 + 1e-10

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_trace_identity(self, seed):
        net = sample_two_level([50, 50], 0.4, 0.1, seed=seed)
        spec = spectra.normalized_laplacian_spectrum(net)
        assert spec.eigenvalues.sum() == pytest.approx(net.n, rel=1e-10)

    def test_walk_matrix_eigenvalue_mapping(self):
        # 1 - lambda_j must reproduce the spectrum of D^{-1} A
        net = sample_two_level([20, 25], 0.4, 0.15, seed=11)
        spec = spectra.normalized_laplacian_spectrum(net)
        adj = adjacency(net).toarray()
        walk = adj / net.degrees[:, None]
        mu = np.sort(np.linalg.eigvals(walk).real)
        assert np.allclose(np.sort(1.0 - spec.eigenvalues), mu, atol=1e-8)

    def test_lambda2_zero_iff_disconnected(self):
        connected = sample_two_level([30, 30], 0.5, 0.2, seed=3)
        assert spectra.normalized_laplacian_spectrum(connected).lambda2 > 1e-8
        disconnected = sample_two_level([30, 30], 0.5, 0.0, seed=3)
        assert spectra.normalized_laplacian_spectrum(disconnected).lambda2 < 1e-8

    def test_mu2_abs_definition(self):
        net = sample_two_level([30, 30], 0.5, 0.1, seed=5)
        spec = spectra.normalized_laplacian_spectrum(net)
        expected = max(abs(1 - spec.eigenvalues[1]), abs(1 - spec.eigenvalues[-1]))
        assert spec.mu2_abs == pytest.approx(expected, abs=1e-12)
        assert spec.second_mode_positive == (
            abs(1 - spec.eigenvalues[1]) >= abs(1 - spec.eigenvalues[-1])
        )

    @pytest.mark.parametrize("sizes, p_in, p_out", [([150, 100], 0.9, 0.01), ([60, 40], 0.9, 0.9),
                                                    ([30, 70], 0.3, 0.05)], ids=["dense-diagonal", "all-dense", "sparse"])
    def test_built_from_the_split_as_from_the_adjacency(self, sizes, p_in, p_out):
        # the parent's construction from the CSR adjacency is the oracle, to the byte
        net = sample_two_level(sizes, p_in, p_out, seed=4)
        assert net._dense.any() == (p_in > 0.5)
        spec = spectra.normalized_laplacian_spectrum(net)
        inv_sqrt_d = 1.0 / np.sqrt(net.degrees.astype(float))
        lap = adjacency(net).toarray()
        lap *= inv_sqrt_d[:, None]
        lap *= inv_sqrt_d
        np.subtract(0.0, lap, out=lap)
        lap.flat[:: net.n + 1] += 1.0
        assert spec.eigenvalues.tobytes() == np.linalg.eigvalsh(lap).tobytes()

    def test_isolated_node_rejected(self):
        net = sbm.Network([3], np.array([[0, 1]]))
        with pytest.raises(ValueError, match="isolated"):
            spectra.normalized_laplacian_spectrum(net)

    def test_single_node_rejected_as_isolated(self):
        # so every network the spectrum takes has n >= 2, and a second eigenvalue
        with pytest.raises(ValueError, match="^isolated node 0: "):
            spectra.normalized_laplacian_spectrum(sbm.Network([1], []))


def sparse_laplacian_eigenvalues(net):
    """Oracle: eigenvalues of L = I - D^-1/2 A D^-1/2 built as sparse products, then densified."""
    from scipy import sparse

    inv_sqrt_d = sparse.diags(1.0 / np.sqrt(net.degrees.astype(float)))
    lap = sparse.identity(net.n, format="csr") - inv_sqrt_d @ adjacency(net) @ inv_sqrt_d
    return np.linalg.eigvalsh(lap.toarray())


@pytest.mark.parametrize("sizes, p_in, p_out, seed", [
    ([70, 30], 0.1, 0.01, 3), ([30, 70], 0.9, 0.003, 4), ([5, 5, 8], 0.6, 0.1, 5), ([200, 100, 50], 0.2, 0.02, 6),
])
def test_dense_build_matches_sparse_products_bitwise(sizes, p_in, p_out, seed):
    model = sbm.make_two_level_model(sizes, sbm.TwoLevelProbs(p_in, p_out), seed)
    net, _ = sbm.sample_connected(model)
    dense = spectra.normalized_laplacian_spectrum(net).eigenvalues
    assert dense.tobytes() == sparse_laplacian_eigenvalues(net).tobytes()


@pytest.mark.parametrize("shift", [1.0, 2.0])
def test_deflated_walk_operator_moves_only_the_top_eigenvalue(shift):
    net = sample_two_level([20, 20], 0.5, 0.1, seed=3)
    op = spectra.deflated_walk_operator(net, shift)
    matrix = np.column_stack([op.matvec(col) for col in np.eye(net.n)])
    walk = np.sort(1.0 - spectra.normalized_laplacian_spectrum(net).eigenvalues)
    want = np.sort(np.append(walk[:-1], walk[-1] - shift))
    assert np.linalg.eigvalsh(matrix) == pytest.approx(want, abs=1e-12)


def test_self_loop_operator_is_the_symmetrized_mixing_matrix():
    # push-sum's M = (A + I) D'^-1 is D'^1/2 S D'^-1/2 with S the loops = 1 operator at shift 0
    from test_gossip import mixing_matrix

    net = sample_two_level([20, 20], 0.5, 0.1, seed=3)
    op = spectra.deflated_walk_operator(net, 0.0, loops=1.0)
    matrix = np.column_stack([op.matvec(col) for col in np.eye(net.n)])
    sqrt_dp = np.sqrt(net.degrees + 1.0)
    mix = mixing_matrix(net).toarray()
    assert matrix == pytest.approx(mix * sqrt_dp[None, :] / sqrt_dp[:, None], abs=1e-15)


@pytest.mark.parametrize("loops", [0.0, 1.0])
def test_walk_operator_of_a_network_with_dense_blocks(loops):
    # the operator applies A through the split product: compare with D'^-1/2 (A + loops I) D'^-1/2 built densely
    net = sample_two_level([20, 20], 0.9, 0.1, seed=3)
    assert net._dense.tolist() == [[True, False], [False, True]]
    op = spectra.deflated_walk_operator(net, 0.0, loops=loops)
    matrix = np.column_stack([op.matvec(col) for col in np.eye(net.n)])
    inv_sqrt_dp = 1.0 / np.sqrt(net.degrees + loops)
    want = (adjacency(net).toarray() + loops * np.eye(net.n)) * inv_sqrt_dp[:, None] * inv_sqrt_dp[None, :]
    assert matrix == pytest.approx(want, abs=1e-15)


def test_lanczos_basis_fits_above_sixteen_and_four_per_mode(monkeypatch):
    # slow_modes keeps k = K - 1 modes, at least 1, and solves only when n > max(16, 4k)
    import scipy.sparse.linalg

    eigsh, solved = scipy.sparse.linalg.eigsh, []

    def counted(op, **kwargs):
        solved.append((op.shape[0], kwargs["k"]))
        return eigsh(op, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counted)
    for sizes in ([16], [8, 8], [9, 8], [4, 4, 3, 3, 3, 3], [4, 4, 4, 3, 3, 3]):
        n = sum(sizes)
        net = sbm.Network(sizes, np.array(list(itertools.combinations(range(n), 2))))
        solve = spectra.slow_modes(net, np.random.default_rng(n).standard_normal(n))
        assert (solve is None) == (n in (16, 20))
    assert solved == [(17, 1), (21, 5)]


class TestLambda2Fast:
    def test_matches_closed_form_complete(self):
        assert spectra.lambda2_only(complete_graph(4)) == pytest.approx(4 / 3, abs=1e-8)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_dense_path(self, seed):
        net = sample_two_level([100, 100], 0.2, 0.05, seed=seed)
        dense = spectra.normalized_laplacian_spectrum(net).lambda2
        fast = spectra.lambda2_only(net)
        assert fast == pytest.approx(dense, abs=1e-7)

    def test_barbell_has_small_lambda2(self):
        # two K5 cliques joined by a single bridge edge
        edges = list(itertools.combinations(range(5), 2))
        edges += [(i + 5, j + 5) for i, j in itertools.combinations(range(5), 2)]
        edges += [(4, 5)]
        net = sbm.Network([10], np.array(edges))
        dense = spectra.normalized_laplacian_spectrum(net).lambda2
        assert dense < 0.1
        assert spectra.lambda2_only(net) == pytest.approx(dense, abs=1e-8)

    def test_exhausted_budget_reports_error(self, monkeypatch):
        import scipy.sparse.linalg

        eigsh = scipy.sparse.linalg.eigsh

        def starved(*args, **kwargs):
            return eigsh(*args, **{**kwargs, "tol": 1e-14, "maxiter": 1})

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", starved)
        net = sample_two_level([100, 100], 0.2, 0.05, seed=9)
        with pytest.raises(spectra.EigensolverError, match="iterations"):
            spectra.lambda2_only(net)


# (model, second_mode_positive): the two-block slow mode, the fast modes of an all-dense
# network, and the negative end of a near-bipartite one
WALK_MODELS = [
    (sbm.make_two_level_model([60, 40], sbm.TwoLevelProbs(0.8, 0.02), 1), True),
    (sbm.make_two_level_model([60, 40], sbm.TwoLevelProbs(0.9, 0.9), 2), False),
    (sbm.SbmModel((60, 40), np.array([[0.01, 0.3], [0.3, 0.01]]), 3), False),
]


@pytest.mark.parametrize("model, positive", WALK_MODELS, ids=["two-block", "all-dense", "near-bipartite"])
def test_consensus_run_values_match_the_dense_spectrum(model, positive):
    # what cli consensus reports: lambda2 from the run's tail where it has it, else
    # lambda2_only, and |mu2| from one largest-magnitude solve
    net, _ = sbm.sample_connected(model)
    dense = spectra.normalized_laplacian_spectrum(net)
    assert dense.second_mode_positive is positive
    assert spectra.mu2_abs_only(net) == pytest.approx(dense.mu2_abs, abs=1e-8)
    run = consensus.run(net, consensus.random_initial_state(net.n, model.seed), 1e-10)
    # only the two-block run keeps a certified tail with a positive leading mode
    assert (run.lambda2 is not None) is (model is WALK_MODELS[0][0])
    lambda2 = spectra.lambda2_only(net) if run.lambda2 is None else run.lambda2
    assert lambda2 == pytest.approx(dense.lambda2, abs=1e-8)


def test_mu2_abs_of_a_tiny_network_is_the_dense_value():
    # K4's walk eigenvalues are 1 and -1/3 three times; no Lanczos basis fits four nodes
    net = complete_graph(4)
    assert spectra.mu2_abs_only(net) == spectra.normalized_laplacian_spectrum(net).mu2_abs == pytest.approx(1 / 3)


def three_cliques(m, bridges):
    """Three m-cliques, bridges[(a, b)] edges between cliques a and b, labelled as
    two communities so that slow_modes keeps one mode of their two slow ones."""
    edges = [(c * m + i, c * m + j) for c in range(3) for i, j in itertools.combinations(range(m), 2)]
    edges += [(a * m + i, b * m + i) for (a, b), count in bridges.items() for i in range(count)]
    return sbm.Network([m, 2 * m], np.array(edges))


def iterated_gaps(op, y0, vecs, coef, theta, s):
    """|S'^s y0 - V diag(theta^s) c| for each round s, by repeated matvecs."""
    y, gaps = y0, []
    for step in s:
        y = op.matvec(y)
        gaps.append(np.linalg.norm(y - vecs @ (coef * theta**step)))
    return np.asarray(gaps)


def clique_modes():
    """A three-clique network, its deflated walk operator and that operator's
    dense eigenpairs in descending magnitude: 0.948, 0.929 (the two slow
    modes), then a bulk near -0.2."""
    net = three_cliques(10, {(0, 1): 2, (1, 2): 2, (0, 2): 3})
    op = spectra.deflated_walk_operator(net, shift=1.0)
    vals, vecs = np.linalg.eigh(np.column_stack([op.matvec(col) for col in np.eye(net.n)]))
    order = np.argsort(-np.abs(vals))
    return net, op, vals[order], vecs[:, order]


class TestSlowModesBoundIsTight:
    """The remainder bound against starts whose remainder comes close to it, so
    that each of its terms is needed: a weaker bound fails these checks."""

    s = np.arange(1, 301)

    def test_dropped_part_on_the_next_slow_mode(self):
        # the part the kept mode misses decays at 0.929 against the kept 0.948,
        # so the bound's rho^s * dropped term is within 2% per round of it
        net, op, vals, modes = clique_modes()
        y0 = modes[:, 0] + 3.0 * modes[:, 1]
        theta, vecs, coef, bound = spectra.slow_modes(net, y0)
        assert theta == pytest.approx(vals[:1], rel=1e-12)
        gaps = iterated_gaps(op, y0, vecs, coef, theta, self.s)
        bound = bound(self.s)
        assert np.all(gaps <= bound)
        assert np.all(gaps[:5] >= 0.9 * bound[:5])

    def test_loosely_converged_ritz_pair(self, monkeypatch):
        import scipy.sparse.linalg

        # the top eigenvector tilted towards the bulk's largest: its residual
        # resid is ~1e-3, and from itself the remainder after one round is exactly resid
        net, op, vals, modes = clique_modes()
        tilted = modes[:, 0] + 1e-3 * modes[:, 2]
        tilted /= np.linalg.norm(tilted)

        def loose(op, **kwargs):
            return np.array([tilted @ op.matvec(tilted)]), tilted[:, None]

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", loose)
        theta, vecs, coef, bound = spectra.slow_modes(net, tilted)
        resid = np.linalg.norm(op.matvec(tilted) - theta[0] * tilted)
        assert resid > 5e-4
        gaps = iterated_gaps(op, tilted, vecs, coef, theta, self.s)
        bound = bound(self.s)
        assert gaps[0] == pytest.approx(resid, rel=1e-9)
        assert np.all(gaps <= bound)
        assert gaps[0] >= 0.9 * bound[0]
