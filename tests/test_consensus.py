import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import adjacency
from netconsensus import consensus, sbm, spectra

EPS = 1e-10


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
    adj = adjacency(net).toarray()
    walk = adj / adj.sum(axis=1)[:, None]
    states = [np.asarray(x0, dtype=float)]
    for _ in range(rounds):
        states.append(walk @ states[-1])
    return np.asarray(states)


def parent_loop(net, x0, epsilon, max_rounds=100_000):
    """Oracle: the loop before the centred rewrite, iterating x itself.

    Returns (tau, rounds, errors) with the same confirmation rule as run().
    """
    deg = net.degrees.astype(float)
    pi = deg / deg.sum()
    x0 = np.asarray(x0, dtype=float)
    x_star = float(pi @ x0)
    denom = float(np.abs(x0 - x_star).max())
    adj, inv_deg = adjacency(net), 1.0 / deg
    x, errors, candidate = x0.copy(), [1.0], None
    for t in range(1, max_rounds + 1):
        x = inv_deg * (adj @ x)
        errors.append(float(np.abs(x - x_star).max()) / denom)
        if errors[-1] <= epsilon:
            if candidate is None:
                candidate = t
            elif t - candidate >= consensus.CONFIRM_WINDOW:
                return candidate, t, np.asarray(errors)
        else:
            candidate = None
    return None, max_rounds, np.asarray(errors)


def long_double_errors(net, x0, rounds):
    """Oracle: relative sup-norm errors of x(t) = P^t x0 for t = 0..rounds in
    long double, each neighbour sum taken by np.add.reduceat over the CSR rows."""
    adj = adjacency(net)
    deg = net.degrees.astype(np.longdouble)
    x = np.asarray(x0, dtype=np.longdouble)
    x_star = (deg * x).sum() / deg.sum()
    denom = np.abs(x - x_star).max()
    errors = [np.longdouble(1)]
    for _ in range(rounds):
        x = np.add.reduceat(x[adj.indices], adj.indptr[:-1]) / deg
        errors.append(np.abs(x - x_star).max() / denom)
    return np.asarray(errors)


def loop_only(monkeypatch):
    """Never weigh the switch: no round is the infinite switch round."""
    monkeypatch.setattr(spectra, "SWITCH_ROUND", math.inf)


def force_switch_at(monkeypatch, round_):
    """Weigh the switch at round_; it is taken there if the error is still above epsilon."""
    monkeypatch.setattr(spectra, "SWITCH_ROUND", round_)


class TestStationary:
    """x_star is the mean of x0 under the walk's stationary distribution."""

    def test_complete_graph_uniform(self):
        assert fixed_point_weights(complete_graph(4)) == pytest.approx([0.25] * 4)

    def test_path_three_nodes(self):
        net = sbm.Network([3], np.array([[0, 1], [1, 2]]))
        assert fixed_point_weights(net) == pytest.approx([0.25, 0.5, 0.25])
        x0 = np.array([0.2, 0.9, 0.4])
        # the walk on a path is periodic and never converges; run sets x_star before its loop
        run = consensus.run(net, x0, epsilon=1e-10, max_rounds=0)
        assert run.x_star == pytest.approx(0.25 * 0.2 + 0.5 * 0.9 + 0.25 * 0.4)

    def test_regular_graph_uniform(self):
        assert fixed_point_weights(ring(6)) == pytest.approx([1 / 6] * 6)

    def test_left_eigenvector_property(self):
        net = sample_connected([30, 20], 0.4, 0.1, seed=2)
        pi = fixed_point_weights(net)
        adj = adjacency(net)
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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_initial_state_rejected(self, bad):
        # a NaN error is never below epsilon, so the run would go on to a censored max_rounds with x_star nan
        x0 = consensus.random_initial_state(10, 0)
        x0[3] = bad
        with pytest.raises(ValueError, match=f"^x0 must be finite, got {bad} at node 3$"):
            consensus.run(complete_graph(10), x0, epsilon=1e-10)

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

    @pytest.mark.parametrize("epsilon", [0.0, -1e-6, float("nan"), float("inf")])
    def test_epsilon_must_be_positive_and_finite(self, epsilon):
        # a NaN threshold would never be met, and the run would come back censored
        net = sample_connected([8, 8], 0.8, 0.1, seed=2)
        with pytest.raises(ValueError, match="^epsilon must be > 0 and finite"):
            consensus.run(net, np.arange(net.n, dtype=float), epsilon)

    def test_negative_max_rounds_rejected(self):
        # it would otherwise come back censored with rounds == -5
        net = sample_connected([8, 8], 0.8, 0.1, seed=2)
        with pytest.raises(ValueError, match=r"^max_rounds must be >= 0, got -5$"):
            consensus.run(net, np.arange(net.n, dtype=float), 1e-10, max_rounds=-5)


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

    @pytest.mark.parametrize("epsilon", [0.0, -1e-6, float("nan"), float("inf")])
    def test_epsilon_must_be_positive_and_finite(self, epsilon):
        # a NaN epsilon would come back as the bound (nan, nan), an infinite one as (0.0, 0.0)
        with pytest.raises(ValueError, match="^epsilon must be > 0 and finite"):
            consensus.tau_bound(0.5, epsilon)

    def test_diverges_monotonically_toward_one(self):
        values = [consensus.tau_bound(mu, 1e-10)[0] for mu in (0.9, 0.99, 0.999)]
        assert values[0] < values[1] < values[2]


class TestCentredLoop:
    """The loop iterates the pi-centred deviation, so its error is exact to round-off of the error itself."""

    def test_tracks_long_double_oracle_near_tau(self, monkeypatch):
        net = sample_connected([200, 100], 0.3, 0.005, seed=1)
        x0 = consensus.random_initial_state(net.n, 1)
        loop_only(monkeypatch)
        result = consensus.run(net, x0, EPS)
        assert result.tail_from is None
        oracle = long_double_errors(net, x0, result.rounds)
        near = np.abs(oracle - EPS) <= 0.5 * EPS
        assert near.sum() >= 20
        assert np.abs(result.error_trace[near] - oracle[near]).max() <= 1e-6 * EPS
        tau = next(t for t in range(len(oracle)) if (oracle[t : t + consensus.CONFIRM_WINDOW + 1] <= EPS).all())
        assert result.tau_eps == tau

    def test_offset_initial_state_tracks_oracle(self, monkeypatch):
        # x_star = pi @ x0 rounds at ~1e-13 here; re-centring keeps that constant out of the error
        net = sample_connected([200, 100], 0.3, 0.005, seed=1)
        x0 = consensus.random_initial_state(net.n, 1) + 1e3
        loop_only(monkeypatch)
        result = consensus.run(net, x0, EPS)
        oracle = long_double_errors(net, x0, result.rounds)
        near = np.abs(oracle - EPS) <= 0.5 * EPS
        assert np.abs(result.error_trace[near] - oracle[near]).max() <= 1e-5 * EPS
        assert result.tau_eps == consensus.run(net, x0 - 1e3, EPS).tau_eps

    @pytest.mark.parametrize("seed", range(8))
    def test_parent_loop_within_one_round(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(20, 120, size=2).tolist()
        net = sample_connected(sizes, rng.uniform(0.2, 0.8), rng.uniform(0.002, 0.05), seed=seed)
        x0 = consensus.random_initial_state(net.n, seed)
        loop_only(monkeypatch)
        result = consensus.run(net, x0, EPS)
        tau, rounds, errors = parent_loop(net, x0, EPS)
        assert abs(result.tau_eps - tau) <= 1
        assert np.abs(result.error_trace[: len(errors)] - errors[: len(result.error_trace)]).max() <= 1e-13


class TestTail:
    def test_default_run_takes_tail_and_tracks_oracle(self):
        net = sample_connected([200, 100], 0.3, 0.005, seed=1)
        x0 = consensus.random_initial_state(net.n, 1)
        result = consensus.run(net, x0, EPS)
        assert result.tail_from is not None
        assert len(result.error_trace) == result.rounds + 1
        oracle = long_double_errors(net, x0, result.rounds)
        near = np.abs(oracle - EPS) <= 0.5 * EPS
        assert np.abs(result.error_trace[near] - oracle[near]).max() <= 1e-6 * EPS
        assert np.abs(result.error_trace - oracle).max() <= 1e-13

    def test_forced_early_switch_gives_loop_tau_and_rounds(self, monkeypatch):
        took_tail = 0
        for seed in range(16):
            rng = np.random.default_rng(100 + seed)
            sizes = rng.integers(15, 100, size=2).tolist()
            net = sample_connected(sizes, rng.uniform(0.2, 0.9), rng.uniform(0.001, 0.05), seed=seed)
            x0 = consensus.random_initial_state(net.n, seed)
            loop_only(monkeypatch)
            loop = consensus.run(net, x0, EPS)
            force_switch_at(monkeypatch, 16)
            fast = consensus.run(net, x0, EPS)
            assert (fast.tau_eps, fast.rounds, fast.censored) == (loop.tau_eps, loop.rounds, loop.censored)
            took_tail += fast.tail_from == 16
        assert took_tail >= 12

    def test_max_rounds_inside_tail_censors(self, monkeypatch):
        net = sample_connected([60, 40], 0.5, 0.01, seed=1)
        x0 = consensus.random_initial_state(net.n, 1)
        force_switch_at(monkeypatch, 32)
        result = consensus.run(net, x0, EPS, max_rounds=300)
        assert result.tail_from == 32
        assert result.tau_eps is None
        assert result.censored
        assert result.rounds == 300
        assert len(result.error_trace) == 301

    def test_uncertified_rounds_fall_back_to_loop(self, monkeypatch):
        net = sample_connected([60, 40], 0.5, 0.01, seed=1)
        x0 = consensus.random_initial_state(net.n, 1)
        loop_only(monkeypatch)
        loop = consensus.run(net, x0, EPS)
        force_switch_at(monkeypatch, 32)
        # a margin of a whole epsilon makes every round near tau ambiguous
        monkeypatch.setattr(consensus, "MARGIN", 1.0)
        fast = consensus.run(net, x0, EPS)
        assert fast.tail_from is None
        assert (fast.tau_eps, fast.rounds) == (loop.tau_eps, loop.rounds)
        assert np.array_equal(fast.error_trace, loop.error_trace)

    def test_unconverged_solve_falls_back_to_loop(self, monkeypatch):
        import scipy.sparse.linalg

        def unconverged(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

        net = sample_connected([60, 40], 0.5, 0.01, seed=1)
        x0 = consensus.random_initial_state(net.n, 1)
        loop_only(monkeypatch)
        loop = consensus.run(net, x0, EPS)
        force_switch_at(monkeypatch, 32)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", unconverged)
        fast = consensus.run(net, x0, EPS)
        assert fast.tail_from is None
        assert (fast.tau_eps, fast.rounds) == (loop.tau_eps, loop.rounds)

    @pytest.mark.parametrize("modes", [1, 2])
    def test_remainder_bound_covers_unsettled_state(self, modes):
        # slow_modes keeps one mode per community mode, so modes + 1 communities
        net = sample_connected([40, 30, 30][: modes + 1], 0.5, 0.02, seed=3)
        op = spectra.deflated_walk_operator(net, shift=1.0)
        y0 = np.sqrt(net.degrees) * (consensus.random_initial_state(net.n, 3) - 0.5)
        theta, vecs, coef, bound = spectra.slow_modes(net, y0)
        assert theta.size == modes
        assert np.array_equal(coef, vecs.T @ y0)
        s = np.arange(1, 301)
        y, gaps = y0, []
        for step in s:
            y = op.matvec(y)
            gaps.append(np.linalg.norm(y - vecs @ (coef * theta**step)))
        assert np.linalg.norm(y0 - vecs @ coef) > 0.1 * np.linalg.norm(y0)
        assert np.all(np.asarray(gaps) <= bound(s))

        # a block of columns on push-sum's operator, as the mixing tail bounds
        # it: one bound per column, whose root sum of squares bounds the
        # Frobenius norm of the block's remainder
        block = np.random.default_rng(modes).standard_normal((net.n, 20))
        theta, vecs, coef, bound = spectra.slow_modes(net, block, loops=1.0)
        assert theta.size == modes
        op = spectra.deflated_walk_operator(net, shift=1.0, loops=1.0)
        bound = bound(s)
        assert bound.shape == (20, s.size)
        y, gaps = block, []
        for step in s:
            y = np.column_stack([op.matvec(col) for col in y.T])
            gaps.append(np.linalg.norm(y - vecs @ (coef * theta[:, None] ** step), axis=0))
        assert np.linalg.norm(block - vecs @ coef) > 0.1 * np.linalg.norm(block)
        assert np.all(np.asarray(gaps).T <= bound)
        assert np.all(np.linalg.norm(gaps, axis=1) <= np.sqrt((bound**2).sum(axis=0)))

    def test_vector_start_solves_as_one_column(self, monkeypatch):
        import scipy.sparse.linalg

        eigsh, starts = scipy.sparse.linalg.eigsh, []

        def recorded(op, **kwargs):
            starts.append(kwargs["v0"])
            return eigsh(op, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", recorded)
        net = sample_connected([40, 30], 0.5, 0.02, seed=3)
        y0 = np.sqrt(net.degrees) * (consensus.random_initial_state(net.n, 3) - 0.5)
        theta, _, coef, bound = spectra.slow_modes(net, y0)
        col_theta, _, col_coef, col_bound = spectra.slow_modes(net, y0[:, None])
        block = np.column_stack([y0, -2.0 * y0, y0**2])
        spectra.slow_modes(net, block)
        # each solve starts from its start summed over the columns
        assert np.array_equal(starts[0], y0) and np.array_equal(starts[1], y0)
        assert np.array_equal(starts[2], block.sum(axis=1))
        s = np.arange(1, 301)
        assert np.array_equal(theta, col_theta)
        assert coef.shape == (1,) and col_coef.shape == (1, 1)
        assert bound(s).shape == s.shape and col_bound(s).shape == (1, s.size)
        # the vector's V^T y0 and the column's may differ in their last bits
        assert bound(s) == pytest.approx(col_bound(s)[0], rel=1e-12)

    @pytest.mark.parametrize("sizes, p_in, p_out, seed", [
        ([700, 300], 0.1, 0.01, 1),  # the fig3 model: one slow mode
        ([700, 300], 0.9, 0.002, 5),  # the fig4 model: one slow mode
        ([300, 300, 300], 0.3, 0.01, 7),  # two slow modes
    ], ids=["fig3", "fig4", "three-communities"])
    def test_estimates_equal_the_full_product(self, monkeypatch, sizes, p_in, p_out, seed):
        # oracle: every round's sup norm over all nodes of D^{-1/2} V diag(theta^s) c,
        # from the tail's own solve, in the tail's blocks of rounds
        slow_modes, solves = spectra.slow_modes, []

        def recorded(net, start, **kwargs):
            solves.append(slow_modes(net, start, **kwargs))
            return solves[-1]

        monkeypatch.setattr(spectra, "slow_modes", recorded)
        net = sample_connected(sizes, p_in, p_out, seed=seed)
        x0 = consensus.random_initial_state(net.n, seed)
        result = consensus.run(net, x0, EPS)
        assert result.tail_from == spectra.SWITCH_ROUND and not result.censored
        theta, vecs, coef, _ = solves[0]
        assert theta.size == len(sizes) - 1
        assert result.lambda2 == 1.0 - theta.max()
        basis = vecs / np.sqrt(net.degrees.astype(float))[:, None]
        pi = net.degrees / net.degrees.sum()
        denom = float(np.abs(x0 - float(pi @ x0)).max())
        s = np.arange(1, result.rounds - result.tail_from + 1)
        full = np.concatenate([np.abs(basis @ (coef[:, None] * theta[:, None] ** block)).max(axis=0) / denom
                               for block in np.split(s, np.arange(spectra.TAIL_BLOCK, s.size, spectra.TAIL_BLOCK))])
        assert result.error_trace[result.tail_from + 1:].tobytes() == full.tobytes()

    def test_converged_by_first_weighing_never_switches(self, monkeypatch):
        def no_tail(*args):
            raise AssertionError("tail after the error fell below epsilon")

        net = sample_connected([30, 30], 0.9, 0.5, seed=2)
        monkeypatch.setattr(consensus, "_tail", no_tail)
        result = consensus.run(net, consensus.random_initial_state(net.n, 2), EPS)
        assert result.error_trace[spectra.SWITCH_ROUND] <= EPS
        assert result.tail_from is None
        assert not result.censored
        assert result.lambda2 is None

    def test_tiny_network_stays_on_loop(self, monkeypatch):
        import scipy.sparse.linalg

        def no_solve(*args, **kwargs):
            raise AssertionError("eigensolve on a tiny network")

        tail, tried = consensus._tail, []

        def spy(*args):
            tried.append(args[2])
            return tail(*args)

        force_switch_at(monkeypatch, 4)
        monkeypatch.setattr(consensus, "_tail", spy)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_solve)
        net = sample_connected([8, 8], 0.8, 0.05, seed=2)
        result = consensus.run(net, consensus.random_initial_state(16, 2), EPS)
        # the switch is weighed, but the Lanczos basis does not fit 16 nodes
        assert tried == [4]
        assert result.tail_from is None
        assert not result.censored
        assert result.lambda2 is None


class TestBipartite:
    """On a connected bipartite network the walk has eigenvalue -1: pi c, for the +-1 two-colouring c, is a
    left eigenvector, so |(pi c)^T e| stays the same every round and bounds the error from below."""

    def bipartite_sample(self):
        # the connected sample of this model is bipartite: 1 of ~300 of its connected samples is
        net, _ = sbm.sample_connected(sbm.make_two_level_model([10, 10], sbm.TwoLevelProbs(0.25, 0.1), 280))
        assert spectra.normalized_laplacian_spectrum(net).eigenvalues[-1] == pytest.approx(2.0, abs=1e-12)
        return net

    def test_stuck_run_ends_censored_at_the_switch_round(self):
        net = self.bipartite_sample()
        x0 = consensus.random_initial_state(net.n, 280)
        result = consensus.run(net, x0, EPS)
        at = spectra.SWITCH_ROUND
        assert result.censored and result.tail_from is None and result.lambda2 is None
        # rounds is the switch round, where the run stopped, and the error trace ends there
        assert result.rounds == at and len(result.error_trace) == at + 1
        with pytest.MonkeyPatch.context() as patch:
            loop_only(patch)
            loop = consensus.run(net, x0, EPS, max_rounds=3000)
        assert loop.censored and loop.rounds == 3000
        assert np.array_equal(result.error_trace, loop.error_trace[: at + 1])
        # the loop's error settles on the bound that stopped the run, far above epsilon
        deg = net.degrees.astype(float)
        e = dense_trajectory(net, x0, at)[at] - loop.x_star
        stuck = consensus._stuck(net, deg / deg.sum(), e) / np.abs(x0 - loop.x_star).max()
        assert stuck > 1e-3
        assert loop.error_trace.min() >= stuck * (1 - 1e-9)
        assert loop.error_trace[-1] == pytest.approx(stuck, rel=1e-9)

    def test_balanced_start_converges_on_the_loop(self):
        # the even ring is bipartite; x0 = e_0 + e_1 has no part on its -1 mode, so the run converges
        net = ring(6)
        x0 = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        result = consensus.run(net, x0, 1e-14)
        with pytest.MonkeyPatch.context() as patch:
            loop_only(patch)
            loop = consensus.run(net, x0, 1e-14)
        assert result.error_trace[spectra.SWITCH_ROUND] > 1e-14  # the switch was weighed
        assert not result.censored
        assert (result.tau_eps, result.rounds) == (loop.tau_eps, loop.rounds)
        assert np.array_equal(result.error_trace, loop.error_trace)

    def test_stuck_is_zero_iff_bipartite(self):
        # walk eigenvalue -1, normalized-Laplacian eigenvalue 2, is the oracle
        kinds = set()
        for seed in range(30):
            net = sample_connected([5, 6], 0.3, 0.1, seed=seed)
            bipartite = bool(spectra.normalized_laplacian_spectrum(net).eigenvalues[-1] > 2.0 - 1e-9)
            deg = net.degrees.astype(float)
            pi = deg / deg.sum()
            e = consensus.random_initial_state(net.n, seed)
            e -= pi @ e
            assert (consensus._stuck(net, pi, e) > 0) is bipartite
            kinds.add(bipartite)
        assert kinds == {True, False}


@st.composite
def connected_two_community_graphs(draw, log_p_out=False):
    """log_p_out draws p_out log-uniformly, so that slow-mixing graphs with few bridges are common."""
    sizes = [draw(st.integers(5, 60)), draw(st.integers(5, 60))]
    p_in = draw(st.floats(0.3, 0.9))
    # at least ~3 expected bridge edges, so that a connected sample is found
    lo = min(p_in, 3.0 / (sizes[0] * sizes[1]))
    share = draw(st.floats(0.0, 1.0))
    p_out = min(p_in, lo * (p_in / lo) ** share if log_p_out else lo + share * (p_in - lo))
    seed = draw(st.integers(0, 2**31 - 1))
    return sample_connected(sizes, p_in, p_out, seed=seed), seed


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(connected_two_community_graphs())
def test_tau_within_spectral_bound_property(case):
    """The relative error after t rounds is at most mu2^t sqrt(2m / d_min), so
    tau <= tau_bound(mu2) + 1 + ln sqrt(2m / d_min) / |ln mu2|. Without the
    last term the bound is not a theorem: sizes 40,5, p_in 0.3, p_out 0.015,
    seed 0 gives tau 51 against a bound of 49.8."""
    net, seed = case
    spec = spectra.normalized_laplacian_spectrum(net)
    assume(spec.mu2_abs < 0.999)
    result = consensus.run(net, consensus.random_initial_state(net.n, seed), EPS)
    bound, _ = consensus.tau_bound(spec.mu2_abs, EPS)
    spread = math.log(math.sqrt(net.degrees.sum() / net.degrees.min())) / abs(math.log(spec.mu2_abs))
    assert result.tau_eps <= bound + 1 + spread


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(connected_two_community_graphs(log_p_out=True), st.floats(2.0, 12.0))
def test_switch_rule_against_loop_trace(case, digits):
    """The run tries the tail at round SWITCH_ROUND exactly when the loop's
    error there is above epsilon, and at no other round; on a tiny network
    there are no slow modes to run on and it stays on its loop. tail_from is
    that round, or None after a fallback, and either way tau, rounds and
    censoring are the loop's."""
    net, seed = case
    epsilon = 10.0**-digits
    x0 = consensus.random_initial_state(net.n, seed)
    tail, tried = consensus._tail, []

    def spy(net, e, t0, *args):
        tried.append(t0)
        return tail(net, e, t0, *args)

    with pytest.MonkeyPatch.context() as patch:
        loop_only(patch)
        loop = consensus.run(net, x0, epsilon, max_rounds=3000)
        patch.undo()
        patch.setattr(consensus, "_tail", spy)
        result = consensus.run(net, x0, epsilon, max_rounds=3000)
    at = spectra.SWITCH_ROUND
    assert tried == ([at] if loop.rounds >= at and loop.error_trace[at] > epsilon else [])
    assert result.tail_from in (None, *tried)
    if net.n <= 16:  # max(16, 4 * modes), with one tail mode for two communities
        assert result.tail_from is None
    if result.tail_from is None:
        assert np.array_equal(result.error_trace, loop.error_trace)
    else:
        assert np.array_equal(result.error_trace[: tried[0] + 1], loop.error_trace[: tried[0] + 1])
    assert (result.tau_eps, result.rounds, result.censored) == (loop.tau_eps, loop.rounds, loop.censored)
