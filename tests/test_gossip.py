import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netconsensus import data, gossip, sbm


def complete_graph(n):
    edges = np.array(list(itertools.combinations(range(n), 2)))
    return sbm.Network(n, edges, np.zeros(n, dtype=np.int64), [n])


def one_node_step(w, X, y, nu, t):
    """One pegasos_step on a single node that holds every example; returns
    the node's weight vector."""
    weights = np.asarray(w, dtype=float)[None, :].copy()
    gossip.pegasos_step(weights, X, y, [np.arange(len(y))], [np.random.default_rng(0)], nu, t)
    return weights[0]


class TestPegasosStep:
    def test_margin_satisfied_pure_shrinkage(self):
        X = np.array([[1.0, 0.0]])
        y = np.array([1])
        w = one_node_step([5.0, 2.0], X, y, nu=0.1, t=5)
        # margin = 5 >= 1, so only the (1 - 1/t) shrink applies
        assert w == pytest.approx([4.0, 1.6])

    def test_first_step_from_zero(self):
        X = np.array([[2.0, -1.0]])
        y = np.array([-1])
        w = one_node_step([0.0, 0.0], X, y, nu=0.25, t=1)
        assert w == pytest.approx([-8.0, 4.0])

    def test_toy_separable_set_learned(self):
        ds = data.make_blobs(20, 2, margin=6.0, seed=7)
        X, y = ds.X.toarray(), ds.y
        weights = np.zeros((1, 2))
        shards, rngs = [np.arange(20)], [np.random.default_rng(1)]
        for t in range(1, 1001):
            gossip.pegasos_step(weights, X, y, shards, rngs, 0.1, t)
        assert gossip.accuracy(weights[0], X, y) == 1.0

    def test_empty_shard_rejected(self):
        weights = np.zeros((1, 2))
        with pytest.raises(ValueError):
            gossip.pegasos_step(weights, np.zeros((0, 2)), np.zeros(0), [np.arange(0)],
                                [np.random.default_rng(0)], 0.1, 1)

    def test_step_counter_advances(self):
        # the step index t sets the rate 1/(nu t): two steps at t = 1, 2 on
        # three nodes match the per-node recurrence with the same draws
        ds = data.make_blobs(8, 2, margin=2.0, seed=0)
        X, y = ds.X.toarray(), ds.y
        shards = [np.arange(8), np.arange(3), np.array([5])]
        weights = np.zeros((3, 2))
        rngs = [np.random.default_rng(i) for i in range(3)]
        for t in (1, 2):
            gossip.pegasos_step(weights, ds.X, y, shards, rngs, 0.1, t)
        for i, shard in enumerate(shards):
            rng, w = np.random.default_rng(i), np.zeros(2)
            for t in (1, 2):
                k = shard[rng.integers(shard.size)]
                eta = 1.0 / (0.1 * t)
                margin = y[k] * float(w @ X[k])
                w *= 1.0 - eta * 0.1
                if margin < 1.0:
                    w += eta * y[k] * X[k]
            assert weights[i] == pytest.approx(w, rel=1e-12)
        with pytest.raises(ValueError, match="t must be >= 1"):
            gossip.pegasos_step(weights, X, y, shards, rngs, 0.1, 0)


def estimates(sums, psw):
    return sums / psw[:, None]


class TestPushSum:
    def test_single_node_estimate_is_own_weight(self):
        net = sbm.Network(1, np.empty((0, 2)), np.zeros(1, dtype=np.int64), [1])
        sums, psw = gossip.push_sum_round(gossip.mixing_matrix(net), np.array([[3.0, -1.0]]), np.ones(1))
        assert estimates(sums, psw)[0] == pytest.approx([3.0, -1.0])
        assert psw[0] == pytest.approx(1.0)

    def test_two_node_hand_simulation(self):
        net = sbm.Network(2, np.array([[0, 1]]), np.zeros(2, dtype=np.int64), [2])
        sums, psw = gossip.push_sum_round(gossip.mixing_matrix(net), np.array([[0.0], [1.0]]), np.ones(2))
        assert sums[0] == pytest.approx([0.5])
        assert sums[1] == pytest.approx([0.5])
        assert psw[0] == pytest.approx(1.0)
        assert psw[1] == pytest.approx(1.0)
        assert estimates(sums, psw)[0] == pytest.approx([0.5])
        assert estimates(sums, psw)[1] == pytest.approx([0.5])

    def test_mass_conserved_every_round(self):
        model = sbm.make_two_level_model([20, 30], sbm.TwoLevelProbs(0.5, 0.1), 3)
        net, _ = sbm.sample_connected(model)
        rng = np.random.default_rng(0)
        init = rng.normal(size=(net.n, 3))
        sums, psw = init, np.ones(net.n)
        total_s = init.sum(axis=0)
        mix = gossip.mixing_matrix(net)
        for _ in range(100):
            sums, psw = gossip.push_sum_round(mix, sums, psw)
            s_now = sums.sum(axis=0)
            w_now = psw.sum()
            assert np.abs(s_now - total_s).max() < 1e-10 * np.abs(total_s).max()
            assert w_now == pytest.approx(net.n, rel=1e-10)

    def test_frozen_estimates_converge_to_average_at_mixing_rate(self):
        model = sbm.make_two_level_model([25, 25], sbm.TwoLevelProbs(0.6, 0.15), 1)
        net, _ = sbm.sample_connected(model)
        rng = np.random.default_rng(5)
        init = rng.random((net.n, 2))
        sums, psw = init, np.ones(net.n)
        mix = gossip.mixing_matrix(net)
        target = init.mean(axis=0)
        mu = np.sort(np.abs(np.linalg.eigvals(mix.toarray())))[-2]
        errors = []
        for _ in range(160):
            sums, psw = gossip.push_sum_round(mix, sums, psw)
            errors.append(np.abs(estimates(sums, psw) - target).max())
        errors = np.array(errors)
        assert errors[-1] < 1e-10
        usable = errors[(errors > 1e-11) & (errors < 1e-2)]
        rates = usable[1:] / usable[:-1]
        geo = float(np.exp(np.mean(np.log(rates))))
        assert geo == pytest.approx(mu, rel=0.10)

    def test_mixing_matrix_column_stochastic(self):
        net, _ = sbm.sample_connected(sbm.make_two_level_model([10, 10], sbm.TwoLevelProbs(0.6, 0.2), 4))
        mix = gossip.mixing_matrix(net)
        assert np.abs(np.asarray(mix.sum(axis=0)).ravel() - 1.0).max() < 1e-12


class TestRunGadget:
    def test_symmetric_nodes_agree_after_first_mixing(self):
        # identical shards, identical seeds, complete graph: exact symmetry
        ds = data.make_blobs(12, 3, margin=2.0, seed=1)
        X, y = ds.X.toarray(), ds.y
        n = 5
        weights, psw = np.zeros((n, 3)), np.ones(n)
        shards = [np.arange(12)] * n
        rngs = [np.random.default_rng(99) for _ in range(n)]
        mix = gossip.mixing_matrix(complete_graph(n))
        gossip.pegasos_step(weights, X, y, shards, rngs, 0.1, 1)
        sums, psw = gossip.push_sum_round(mix, weights * psw[:, None], psw)
        assert gossip.max_pairwise_gap(estimates(sums, psw)) == 0.0

    def test_stopping_soundness_exact_recheck(self):
        model = sbm.make_two_level_model([10, 15], sbm.TwoLevelProbs(0.8, 0.3), 2)
        ds = data.make_blobs(400, 6, margin=2.0, seed=3)
        cfg = gossip.GadgetConfig(nu=0.1, epsilon=1e-10, max_rounds=20_000, learning_rounds=50, seed=4)
        run = gossip.run_gadget(model, ds, cfg)
        assert not run.censored
        brute = 0.0
        for i in range(run.node_weights.shape[0]):
            for j in range(i + 1, run.node_weights.shape[0]):
                brute = max(brute, float(np.linalg.norm(run.node_weights[i] - run.node_weights[j])))
        assert brute < cfg.epsilon
        assert run.max_pairwise_gap_trace[-1] == pytest.approx(brute, rel=1e-6, abs=1e-15)

    def test_objective_dominates_regularizer(self):
        ds = data.make_blobs(300, 5, margin=1.0, seed=6)
        model = sbm.make_two_level_model([12, 12], sbm.TwoLevelProbs(0.8, 0.4), 1)
        cfg = gossip.GadgetConfig(nu=0.2, epsilon=1e-8, max_rounds=5000, learning_rounds=40, seed=2)
        run = gossip.run_gadget(model, ds, cfg)
        w = run.final_weights
        assert np.isfinite(run.final_objective)
        assert run.final_objective >= 0.5 * 0.2 * float(w @ w) - 1e-12

    def test_matches_single_node_oracle_on_pooled_data(self):
        # decentralized training should not lose more than 2 accuracy points
        # against plain single-node subgradient descent on the pooled data
        ds = data.make_blobs(600, 8, margin=3.0, seed=8)
        X, y = ds.X.toarray(), ds.y
        rng = np.random.default_rng(0)
        w = np.zeros(8)
        for t in range(1, 3001):
            i = int(rng.integers(600))
            eta = 1.0 / (0.1 * t)
            margin = y[i] * float(w @ X[i])
            w *= 1.0 - eta * 0.1
            if margin < 1.0:
                w += eta * y[i] * X[i]
        oracle_acc = gossip.accuracy(w, X, y)

        model = sbm.make_two_level_model([30], sbm.TwoLevelProbs(0.9, 0.9), 5)
        cfg = gossip.GadgetConfig(nu=0.1, epsilon=1e-8, max_rounds=10_000, learning_rounds=100, seed=6)
        run = gossip.run_gadget(model, ds, cfg, test_dataset=ds)
        assert gossip.accuracy(run.final_weights, X, y) >= oracle_acc - 0.02

    def test_dataset_smaller_than_network_rejected(self):
        ds = data.make_blobs(10, 3, margin=1.0, seed=0)
        model = sbm.make_two_level_model([30], sbm.TwoLevelProbs(0.9, 0.9), 0)
        with pytest.raises(ValueError, match="shard"):
            gossip.run_gadget(model, ds, gossip.GadgetConfig(nu=0.1, epsilon=1e-6, max_rounds=10))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            gossip.GadgetConfig(nu=0.0, epsilon=1e-6, max_rounds=10)
        with pytest.raises(ValueError):
            gossip.GadgetConfig(nu=0.1, epsilon=0.0, max_rounds=10)

    def test_deterministic_given_seeds(self):
        ds = data.make_blobs(200, 4, margin=2.0, seed=1)
        model = sbm.make_two_level_model([8, 8], sbm.TwoLevelProbs(0.9, 0.5), 3)
        cfg = gossip.GadgetConfig(nu=0.1, epsilon=1e-9, max_rounds=5000, learning_rounds=30, seed=7)
        a = gossip.run_gadget(model, ds, cfg)
        b = gossip.run_gadget(model, ds, cfg)
        assert a.rounds_to_consensus == b.rounds_to_consensus
        assert np.array_equal(a.final_weights, b.final_weights)


# run_gadget outputs of the per-node implementation this one replaced, written
# in as literals: (sizes, dense X, steps_per_round, record_trace, rounds,
# final_weights). The array version reproduced them bit for bit.
PER_NODE_RUNS = [
    ((10, 15), False, 1, True, 52,
     [-0.5340954013126232, -0.8436338352586782, -0.10016218163181172, 0.3086737752767528]),
    ((10, 15), False, 3, False, 51,
     [-0.5016781100428286, -0.7682325343422248, -0.09863851420883708, 0.24030493154615018]),
    ((10, 15), True, 3, True, 51,
     [-0.5016781100428286, -0.7682325343422248, -0.09863851420883708, 0.24030493154615018]),
    ((12,), True, 1, False, 41,
     [-0.5342868962903952, -0.779845188841389, -0.1283504708145343, 0.30388892381243693]),
    ((12,), False, 3, True, 40,
     [-0.43511052005483125, -0.8339558351664298, -0.12968657815665022, 0.20170000829696608]),
]


@pytest.mark.parametrize("sizes, dense, steps, trace, rounds, final", PER_NODE_RUNS)
def test_run_gadget_matches_per_node_oracle(sizes, dense, steps, trace, rounds, final):
    ds = data.make_blobs(300, 4, margin=2.0, seed=5)
    if dense:
        ds = data.LabeledDataset(ds.X.toarray(), ds.y, d=4)
    probs = sbm.TwoLevelProbs(0.8, 0.3) if len(sizes) == 2 else sbm.TwoLevelProbs(0.9, 0.9)
    model = sbm.make_two_level_model(list(sizes), probs, 2 if len(sizes) == 2 else 1)
    cfg = gossip.GadgetConfig(nu=0.1, epsilon=1e-9, max_rounds=20_000, learning_rounds=30,
                              steps_per_round=steps, seed=4, record_trace=trace)
    run = gossip.run_gadget(model, ds, cfg)
    assert run.rounds_to_consensus == rounds
    assert run.final_weights == pytest.approx(final, rel=1e-12, abs=0.0)
    assert len(run.max_pairwise_gap_trace) == (rounds if trace else 0)


# a traced run of the implementation that evaluated the objective and the
# accuracy every round, written in as literals
TRACED_GAPS = [
    11.88089085952928, 3.1900076315657273, 2.081697363118811, 2.0314575227755265, 1.933301945851119,
    0.8713964257279678, 1.1802480512721893, 0.9830006600637393, 0.32343284669572553, 0.11682874011778172,
    0.04937407343691213, 0.020689780843077404, 0.008746378349475812, 0.0037082177910117515,
    0.00157528930258517, 0.0006704113008996496, 0.00028549776794372847, 0.00012167612243957425,
    5.187049979911862e-05, 2.2119453919590713e-05, 9.433577724271548e-06,
]
TRACED_OBJECTIVES = [
    17.64747685718411, 8.533241963864947, 7.409817767009358, 8.192171681197355, 7.536705712730227,
    7.195287186131272, 7.217127673756096, 6.962527929100409,
] + [6.962527929100409] * 13
TRACED_ACCURACIES = [
    0.64, 0.6666666666666666, 0.6133333333333333, 0.6, 0.6266666666666667, 0.6533333333333333,
    0.6666666666666666, 0.64,
] + [0.64] * 13


def test_traced_run_matches_every_round_evaluation():
    ds = data.make_blobs(300, 4, margin=0.5, seed=5)
    model = sbm.make_two_level_model([10, 15], sbm.TwoLevelProbs(0.8, 0.3), 2)
    cfg = gossip.GadgetConfig(nu=0.1, epsilon=1e-5, max_rounds=20_000, learning_rounds=8, seed=4)
    run = gossip.run_gadget(model, ds, cfg)
    assert run.rounds_to_consensus == 21
    assert run.max_pairwise_gap_trace.tolist() == TRACED_GAPS
    assert run.accuracy_trace.tolist() == TRACED_ACCURACIES
    assert run.objective_trace == pytest.approx(TRACED_OBJECTIVES, rel=1e-12, abs=0.0)


@st.composite
def weight_matrices(draw):
    """(weights, epsilon) with max pairwise gap between 0.3 and 3 epsilon,
    on top of an offset of up to 1e3."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 30))
    epsilon = 10.0 ** draw(st.floats(-12.0, 0.0))
    ratio = draw(st.one_of(st.floats(0.3, 3.0), st.sampled_from([0.5, 1.0, 2.0])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = rng.uniform(-1.0, 1.0, size=d) * draw(st.floats(0.0, 1e3))
    spread = rng.normal(size=(n, d))
    if n > 1:
        spread *= ratio * epsilon / gossip.max_pairwise_gap(spread)
    return offset + spread, epsilon


@settings(max_examples=400)
@given(weight_matrices())
def test_bracketed_stop_decision_is_exact(case):
    weights, epsilon = case
    assert gossip._gap_below(weights, epsilon) == (gossip.max_pairwise_gap(weights) < epsilon)


@st.composite
def connected_graphs(draw):
    """A random connected graph on 1..30 nodes: a random spanning tree plus
    random extra edges."""
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tree = {(int(rng.integers(i)), i) for i in range(1, n)}
    extra = rng.random((n, n)) < draw(st.floats(0.0, 0.5))
    edges = tree | {(i, j) for i, j in zip(*np.nonzero(np.triu(extra, 1)))}
    net = sbm.Network(n, np.array(sorted(edges), dtype=np.int64).reshape(-1, 2), np.zeros(n, dtype=np.int64), [n])
    return net, rng


@settings(max_examples=60)
@given(connected_graphs(), st.integers(1, 40))
def test_push_sum_conserves_mass_property(case, rounds):
    net, rng = case
    assert sbm.is_connected(net)
    sums = rng.normal(size=(net.n, 3)) * 10.0 ** rng.uniform(-3, 3)
    psw = rng.uniform(0.1, 2.0, size=net.n)
    total_s, total_w = sums.sum(axis=0), psw.sum()
    scale_s = np.abs(sums).sum(axis=0)
    mix = gossip.mixing_matrix(net)
    for _ in range(rounds):
        sums, psw = gossip.push_sum_round(mix, sums, psw)
    tol = 1e-13 * rounds * net.n
    assert np.all(np.abs(sums.sum(axis=0) - total_s) <= tol * scale_s)
    assert abs(psw.sum() - total_w) <= tol * total_w
    assert (psw > 0).all()
