import itertools

import numpy as np
import pytest

from netconsensus import consensus, sbm, spectra


def complete_graph(n):
    edges = np.array(list(itertools.combinations(range(n), 2)))
    return sbm.Network([n], edges)


def ring(n):
    edges = np.array([(i, (i + 1) % n) for i in range(n)])
    return sbm.Network([n], edges)


def sample_connected(sizes, p_in, p_out, seed=0):
    model = sbm.make_two_level_model(sizes, sbm.TwoLevelProbs(p_in, p_out), seed)
    net, _ = sbm.sample_connected(model)
    return net


def fixed_point_weights(net):
    """The weights run() gives each node in x_star: x_star of the unit vectors."""
    return np.array([consensus.run(net, e, epsilon=1e-10, max_rounds=1).x_star for e in np.eye(net.n)])


def dense_trajectory(net, x0, rounds):
    """Oracle: x(t) = P^t x0 for t = 0..rounds with a dense P = D^-1 A."""
    adj = net.adjacency().toarray()
    walk = adj / adj.sum(axis=1)[:, None]
    states = [np.asarray(x0, dtype=float)]
    for _ in range(rounds):
        states.append(walk @ states[-1])
    return np.asarray(states)


class TestStationary:
    """x_star is the mean of x0 under the walk's stationary distribution."""

    def test_complete_graph_uniform(self):
        assert fixed_point_weights(complete_graph(4)) == pytest.approx([0.25] * 4)

    def test_path_three_nodes(self):
        net = sbm.Network([3], np.array([[0, 1], [1, 2]]))
        assert fixed_point_weights(net) == pytest.approx([0.25, 0.5, 0.25])
        x0 = np.array([0.2, 0.9, 0.4])
        assert consensus.run(net, x0, epsilon=1e-10).x_star == pytest.approx(0.25 * 0.2 + 0.5 * 0.9 + 0.25 * 0.4)

    def test_regular_graph_uniform(self):
        assert fixed_point_weights(ring(6)) == pytest.approx([1 / 6] * 6)

    def test_left_eigenvector_property(self):
        net = sample_connected([30, 20], 0.4, 0.1, seed=2)
        pi = fixed_point_weights(net)
        adj = net.adjacency()
        walk_applied = (adj.T @ (pi / net.degrees)).ravel()  # pi^T P
        assert np.abs(walk_applied - pi).max() < 1e-10
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(pi > 0)
        assert pi == pytest.approx(net.degrees / net.degrees.sum(), abs=1e-15)

    def test_disconnected_rejected(self):
        net = sbm.sample(sbm.make_two_level_model([5, 5], sbm.TwoLevelProbs(1.0, 0.0), 0))
        with pytest.raises(ValueError, match="connected network"):
            consensus.run(net, np.zeros(10), epsilon=1e-6)


class TestRun:
    def test_constant_initial_state_converges_immediately(self):
        net = complete_graph(5)
        result = consensus.run(net, np.full(5, 0.7), epsilon=1e-10)
        assert result.tau_eps == 0
        assert not result.censored

    def test_complete_graph_exact_rate(self):
        # K_11: mu2 = -1/10 exactly, so the error shrinks 10x per round and
        # tau = ceil(log10(1/eps)); eps is chosen off the knife edge where
        # float roundoff could flip the comparison at an exact power of ten
        net = complete_graph(11)
        x0 = consensus.random_initial_state(11, seed=5)
        assert consensus.run(net, x0, epsilon=2e-10).tau_eps == 10
        assert consensus.run(net, x0, epsilon=2e-11).tau_eps == 11
        assert consensus.run(net, x0, epsilon=1e-10).tau_eps in (10, 11)

    def test_bipartite_pair_is_censored(self):
        net = sbm.Network([2], np.array([[0, 1]]))
        result = consensus.run(net, np.array([0.0, 1.0]), epsilon=1e-10, max_rounds=300)
        assert result.censored
        assert result.tau_eps is None
        assert np.abs(result.error_trace - 1.0).max() < 1e-12

    def test_error_trace_starts_at_one(self):
        net = sample_connected([20, 20], 0.5, 0.2, seed=1)
        result = consensus.run(net, consensus.random_initial_state(40, 1), epsilon=1e-8)
        assert result.error_trace[0] == 1.0
        assert np.all(result.error_trace >= 0)

    def test_conservation_of_weighted_mean(self):
        net = sample_connected([100, 100], 0.2, 0.05, seed=3)
        pi = net.degrees / net.degrees.sum()
        x0 = consensus.random_initial_state(net.n, 7)
        result = consensus.run(net, x0, epsilon=1e-10)
        states = dense_trajectory(net, x0, result.rounds)
        inner = states @ pi
        assert np.abs(inner - inner[0]).max() < 1e-10 * abs(inner[0])
        assert result.x_star == pytest.approx(inner[0], rel=1e-15)
        denom = np.abs(x0 - result.x_star).max()
        oracle_errors = np.abs(states - result.x_star).max(axis=1) / denom
        assert np.abs(result.error_trace - oracle_errors).max() <= 1e-13

    def test_stopping_criterion_post_hoc(self):
        net = sample_connected([50, 50], 0.3, 0.1, seed=4)
        x0 = consensus.random_initial_state(net.n, 4)
        result = consensus.run(net, x0, epsilon=1e-9)
        assert not result.censored
        states = dense_trajectory(net, x0, result.rounds)
        denom = np.abs(x0 - result.x_star).max()
        oracle_errors = np.abs(states - result.x_star).max(axis=1) / denom
        assert np.abs(result.error_trace - oracle_errors).max() <= 1e-13
        assert oracle_errors[result.tau_eps :].max() <= 1e-9
        assert oracle_errors[result.tau_eps - 1] > 1e-9

    def test_contraction_rate_matches_mu2(self):
        net = sample_connected([150, 150], 0.2, 0.05, seed=6)
        spec = spectra.normalized_laplacian_spectrum(net)
        x0 = consensus.random_initial_state(net.n, 11)
        result = consensus.run(net, x0, epsilon=1e-12, max_rounds=5000)
        trace = result.error_trace
        stop = result.tau_eps if result.tau_eps else len(trace) - 1
        window = trace[max(1, stop - 12) : stop + 1]
        rates = window[1:] / window[:-1]
        geo = float(np.exp(np.mean(np.log(rates))))
        assert geo == pytest.approx(spec.mu2_abs, rel=0.05)

    def test_bound_validity(self):
        for seed in range(3):
            net = sample_connected([80, 40], 0.3, 0.08, seed=seed)
            spec = spectra.normalized_laplacian_spectrum(net)
            x0 = consensus.random_initial_state(net.n, seed)
            result = consensus.run(net, x0, epsilon=1e-10)
            assert not result.censored
            bound, _ = consensus.tau_bound(spec.mu2_abs, 1e-10)
            assert result.tau_eps <= bound + 1

    @pytest.mark.filterwarnings("error")
    def test_single_node_is_converged(self):
        net = sbm.Network([1], [])
        result = consensus.run(net, [0.3], 1e-6)
        assert result.tau_eps == 0
        assert result.x_star == 0.3
        assert result.rounds == 0
        assert not result.censored

    def test_disconnected_refused(self):
        net = sbm.sample(sbm.make_two_level_model([5, 5], sbm.TwoLevelProbs(1.0, 0.0), 0))
        with pytest.raises(ValueError):
            consensus.run(net, np.zeros(10), epsilon=1e-6)


class TestTauBound:
    def test_powers_of_ten(self):
        exact, first = consensus.tau_bound(0.1, 1e-10)
        assert exact == pytest.approx(10.0, abs=1e-12)
        assert first == pytest.approx(np.log(1e10) / 0.9)

    def test_epsilon_one_gives_zero(self):
        assert consensus.tau_bound(0.5, 1.0) == (0.0, 0.0)

    def test_divergent_for_mu2_at_least_one(self):
        with pytest.raises(consensus.DivergentBoundError):
            consensus.tau_bound(1.0, 1e-10)

    def test_diverges_monotonically_toward_one(self):
        values = [consensus.tau_bound(mu, 1e-10)[0] for mu in (0.9, 0.99, 0.999)]
        assert values[0] < values[1] < values[2]
