import itertools

import numpy as np
import pytest

from netconsensus import sbm, spectra


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
        adj = net.adjacency().toarray()
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

    def test_isolated_node_rejected(self):
        net = sbm.Network([3], np.array([[0, 1]]))
        with pytest.raises(ValueError, match="isolated"):
            spectra.normalized_laplacian_spectrum(net)


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

