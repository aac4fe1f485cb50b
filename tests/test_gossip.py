import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import adjacency
from netconsensus import data, gossip, sbm, spectra


def complete_graph(n):
    edges = np.array(list(itertools.combinations(range(n), 2)))
    return sbm.Network([n], edges)


def gather(X, y, picks):
    """Dense feature rows and labels of the examples in picks."""
    rows = X[picks]
    return (rows.toarray() if hasattr(rows, "toarray") else rows), y[picks]


def one_node_step(w, X, y, nu, t):
    """One _pegasos_step on a single node that holds every example; returns
    the node's weight vector."""
    weights = np.asarray(w, dtype=float)[None, :].copy()
    picks = gossip._draw_picks([np.arange(len(y))], [np.random.default_rng(0)], 1)
    gossip._pegasos_step(weights, *gather(X, y, picks[0]), nu, t)
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
        picks = gossip._draw_picks([np.arange(20)], [np.random.default_rng(1)], 1000)
        for t in range(1, 1001):
            gossip._pegasos_step(weights, *gather(X, y, picks[t - 1]), 0.1, t)
        assert gossip.accuracy(weights[0], X, y) == 1.0

    def test_empty_shard_rejected(self):
        rngs = [np.random.default_rng(0), np.random.default_rng(1)]
        with pytest.raises(ValueError, match="node 1 has an empty shard"):
            gossip._draw_picks([np.arange(3), np.arange(0)], rngs, 1)

    def test_step_counter_advances(self):
        # the step index t sets the rate 1/(nu t): two steps at t = 1, 2 on
        # three nodes match the per-node recurrence with the same draws
        ds = data.make_blobs(8, 2, margin=2.0, seed=0)
        X, y = ds.X.toarray(), ds.y
        shards = [np.arange(8), np.arange(3), np.array([5])]
        weights = np.zeros((3, 2))
        rngs = [np.random.default_rng(i) for i in range(3)]
        for t in (1, 2):
            picks = gossip._draw_picks(shards, rngs, 1)
            gossip._pegasos_step(weights, *gather(ds.X, y, picks[0]), 0.1, t)
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
            gossip._pegasos_step(weights, *gather(X, y, picks[0]), 0.1, 0)


@st.composite
def shards_and_splits(draw):
    """(shard sizes, seed, block lengths): 1..6 shards of 1..70000 examples
    and a split of m = sum(blocks) steps into blocks."""
    sizes = draw(st.lists(st.integers(1, 70_000), min_size=1, max_size=6))
    blocks = draw(st.lists(st.integers(1, 40), min_size=1, max_size=6))
    return sizes, draw(st.integers(0, 2**32 - 1)), blocks


@settings(max_examples=100)
@given(shards_and_splits())
def test_draw_picks_continues_each_stream_as_scalar_draws(case):
    sizes, seed, blocks = case
    shards = [np.arange(size) * 3 + 1 for size in sizes]
    streams = np.random.SeedSequence(seed).spawn(len(sizes))
    rngs = [np.random.default_rng(s) for s in streams]
    picks = np.vstack([gossip._draw_picks(shards, rngs, m) for m in blocks])
    assert picks.shape == (sum(blocks), len(sizes))
    for i, (shard, stream) in enumerate(zip(shards, streams)):
        oracle = np.random.default_rng(stream)
        scalar = [shard[oracle.integers(shard.size)] for _ in range(sum(blocks))]
        assert picks[:, i].tolist() == scalar
        assert rngs[i].bit_generator.state == oracle.bit_generator.state


def stacked(sums, psw):
    """The push-sum block [sums | psw] that one exchange mixes."""
    return np.column_stack([sums, psw])


def mixing_matrix(net):
    """The push-sum matrix (A + I) D'^-1, D' = D + I, built from the adjacency:
    the oracle of one exchange."""
    from scipy import sparse

    mix = adjacency(net) + sparse.identity(net.n, format="csr")
    mix.data *= (1.0 / (net.degrees + 1.0))[mix.indices]
    return mix


def exchange(net, pair):
    """One push-sum exchange of a run."""
    return gossip._exchange(net, 1.0 / (net.degrees + 1.0), pair)


def estimates(pair):
    return pair[:, :-1] / pair[:, -1:]


class TestPushSum:
    def test_single_node_estimate_is_own_weight(self):
        net = sbm.Network([1], np.empty((0, 2)))
        pair = exchange(net, stacked([[3.0, -1.0]], np.ones(1)))
        assert estimates(pair)[0] == pytest.approx([3.0, -1.0])
        assert pair[0, -1] == pytest.approx(1.0)

    def test_two_node_hand_simulation(self):
        net = sbm.Network([2], np.array([[0, 1]]))
        pair = exchange(net, stacked([[0.0], [1.0]], np.ones(2)))
        sums, psw = pair[:, :-1], pair[:, -1]
        assert sums[0] == pytest.approx([0.5])
        assert sums[1] == pytest.approx([0.5])
        assert psw[0] == pytest.approx(1.0)
        assert psw[1] == pytest.approx(1.0)
        assert estimates(pair)[0] == pytest.approx([0.5])
        assert estimates(pair)[1] == pytest.approx([0.5])

    def test_mass_conserved_every_round(self):
        model = sbm.make_two_level_model([20, 30], sbm.TwoLevelProbs(0.5, 0.1), 3)
        net, _ = sbm.sample_connected(model)
        rng = np.random.default_rng(0)
        init = rng.normal(size=(net.n, 3))
        pair = stacked(init, np.ones(net.n))
        total_s = init.sum(axis=0)
        for _ in range(100):
            pair = exchange(net, pair)
            s_now = pair[:, :-1].sum(axis=0)
            w_now = pair[:, -1].sum()
            assert np.abs(s_now - total_s).max() < 1e-10 * np.abs(total_s).max()
            assert w_now == pytest.approx(net.n, rel=1e-10)

    def test_frozen_estimates_converge_to_average_at_mixing_rate(self):
        model = sbm.make_two_level_model([25, 25], sbm.TwoLevelProbs(0.6, 0.15), 1)
        net, _ = sbm.sample_connected(model)
        rng = np.random.default_rng(5)
        init = rng.random((net.n, 2))
        pair = stacked(init, np.ones(net.n))
        target = init.mean(axis=0)
        mu = np.sort(np.abs(np.linalg.eigvals(mixing_matrix(net).toarray())))[-2]
        errors = []
        for _ in range(160):
            pair = exchange(net, pair)
            errors.append(np.abs(estimates(pair) - target).max())
        errors = np.array(errors)
        assert errors[-1] < 1e-10
        usable = errors[(errors > 1e-11) & (errors < 1e-2)]
        rates = usable[1:] / usable[:-1]
        geo = float(np.exp(np.mean(np.log(rates))))
        assert geo == pytest.approx(mu, rel=0.10)

    def test_mixing_matrix_column_stochastic(self):
        net, _ = sbm.sample_connected(sbm.make_two_level_model([10, 10], sbm.TwoLevelProbs(0.6, 0.2), 4))
        mix = mixing_matrix(net)
        assert np.abs(np.asarray(mix.sum(axis=0)).ravel() - 1.0).max() < 1e-12


def test_a_round_of_a_run_is_one_mixing_matrix_product(monkeypatch):
    # the split product a run mixes with, on a network with dense blocks, against the
    # push-sum matrix built from the adjacency: one learning round, then one mixing round
    exchanged = []
    exchange = gossip._exchange

    def recorded(net, share, pair):
        mixed = exchange(net, share, pair)
        exchanged.append((pair.copy(), mixed.copy()))
        return mixed

    monkeypatch.setattr(gossip, "_exchange", recorded)
    ds = data.make_blobs(400, 20, margin=2.0, seed=0)
    net, _ = sbm.sample_connected(sbm.make_two_level_model([30, 70], sbm.TwoLevelProbs(0.9, 0.003), 0))
    assert net._dense.any()
    gossip.run_gadget(net, ds, gossip.GadgetConfig(max_rounds=2, learning_rounds=1), seed=0)
    assert len(exchanged) == 2
    mix = mixing_matrix(net)
    for pair, mixed in exchanged:
        want = mix @ pair
        assert np.all(np.abs(mixed - want) <= 1e-14 * np.abs(want).max(axis=0))


class TestRunGadget:
    def test_symmetric_nodes_agree_after_first_mixing(self):
        # identical shards, identical seeds, complete graph: exact symmetry
        ds = data.make_blobs(12, 3, margin=2.0, seed=1)
        X, y = ds.X.toarray(), ds.y
        n = 5
        weights = np.zeros((n, 3))
        shards = [np.arange(12)] * n
        rngs = [np.random.default_rng(99) for _ in range(n)]
        picks = gossip._draw_picks(shards, rngs, 1)
        gossip._pegasos_step(weights, *gather(X, y, picks[0]), 0.1, 1)
        pair = exchange(complete_graph(n), stacked(weights, np.ones(n)))
        assert gossip.max_pairwise_gap(estimates(pair)) == 0.0

    def test_stopping_soundness_exact_recheck(self, monkeypatch):
        # a run on the loop stop-tests each round's weights less w_inf: keep the last round's
        spreads = []
        gap_below = gossip._gap_below

        def recorded(weights, epsilon):
            spreads.append(weights.copy())
            return gap_below(weights, epsilon)

        monkeypatch.setattr(gossip, "_gap_below", recorded)
        monkeypatch.setattr(gossip, "_mixing_tail", lambda *args: None)
        model = sbm.make_two_level_model([10, 15], sbm.TwoLevelProbs(0.8, 0.3), 2)
        ds = data.make_blobs(400, 6, margin=2.0, seed=3)
        cfg = gossip.GadgetConfig(nu=0.1, epsilon=1e-10, max_rounds=20_000, learning_rounds=50)
        run = gossip.run_gadget(sbm.sample_connected(model)[0], ds, cfg, seed=4)
        assert not run.censored
        assert len(spreads) == run.rounds_to_consensus
        weights = run.final_weights + spreads[-1]
        brute = 0.0
        for i in range(weights.shape[0]):
            for j in range(i + 1, weights.shape[0]):
                brute = max(brute, float(np.linalg.norm(weights[i] - weights[j])))
        assert brute < cfg.epsilon
        assert run.max_pairwise_gap_trace[-1] == pytest.approx(brute, rel=1e-6, abs=1e-15)

    def test_objective_dominates_regularizer(self):
        ds = data.make_blobs(300, 5, margin=1.0, seed=6)
        model = sbm.make_two_level_model([12, 12], sbm.TwoLevelProbs(0.8, 0.4), 1)
        cfg = gossip.GadgetConfig(nu=0.2, epsilon=1e-8, max_rounds=5000, learning_rounds=40)
        run = gossip.run_gadget(sbm.sample_connected(model)[0], ds, cfg, seed=2)
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
        cfg = gossip.GadgetConfig(nu=0.1, epsilon=1e-8, max_rounds=10_000, learning_rounds=100)
        run = gossip.run_gadget(sbm.sample_connected(model)[0], ds, cfg, seed=6)
        assert gossip.accuracy(run.final_weights, X, y) >= oracle_acc - 0.02

    def test_dataset_smaller_than_network_rejected(self):
        ds = data.make_blobs(10, 3, margin=1.0, seed=0)
        model = sbm.make_two_level_model([30], sbm.TwoLevelProbs(0.9, 0.9), 0)
        with pytest.raises(ValueError, match="shard"):
            gossip.run_gadget(sbm.sample_connected(model)[0], ds,
                              gossip.GadgetConfig(nu=0.1, epsilon=1e-6, max_rounds=10))

    def test_config_validation(self):
        bad = [("nu", 0.0), ("nu", float("nan")), ("nu", float("inf")), ("epsilon", 0.0), ("epsilon", float("nan")),
               ("epsilon", float("inf")), ("max_rounds", -1), ("steps_per_round", 0), ("learning_rounds", -1)]
        for name, value in bad:
            with pytest.raises(ValueError, match=f"^{name} must be"):
                gossip.GadgetConfig(**{name: value})
        # a zero budget is legal: a capped replay of the learning phase uses max_rounds = 0
        gossip.GadgetConfig(max_rounds=0, learning_rounds=0)
        # a learning budget beyond max_rounds learns on every round
        gossip.GadgetConfig(max_rounds=10, learning_rounds=20)

    def test_deterministic_given_seeds(self):
        ds = data.make_blobs(200, 4, margin=2.0, seed=1)
        model = sbm.make_two_level_model([8, 8], sbm.TwoLevelProbs(0.9, 0.5), 3)
        cfg = gossip.GadgetConfig(nu=0.1, epsilon=1e-9, max_rounds=5000, learning_rounds=30)
        a = gossip.run_gadget(sbm.sample_connected(model)[0], ds, cfg, seed=7)
        b = gossip.run_gadget(sbm.sample_connected(model)[0], ds, cfg, seed=7)
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
        ds = data.LabeledDataset(ds.X.toarray(), ds.y)
    probs = sbm.TwoLevelProbs(0.8, 0.3) if len(sizes) == 2 else sbm.TwoLevelProbs(0.9, 0.9)
    model = sbm.make_two_level_model(list(sizes), probs, 2 if len(sizes) == 2 else 1)
    cfg = gossip.GadgetConfig(nu=0.1, epsilon=1e-9, max_rounds=20_000, learning_rounds=30, steps_per_round=steps)
    run = gossip.run_gadget(sbm.sample_connected(model)[0], ds, cfg, seed=4, record_trace=trace)
    assert run.rounds_to_consensus == rounds
    assert run.final_weights == pytest.approx(final, rel=1e-12, abs=0.0)
    assert len(run.max_pairwise_gap_trace) == (rounds if trace else 0)


# run_gadget outputs with learning on every round (learning_rounds = max_rounds)
# on the PER_NODE_RUNS (10, 15) model at epsilon 1e-2, (steps_per_round,
# rounds, final_weights). The rounds were written in as literals from the
# implementation that drew one example per node per step. The final weights
# were pinned again when push-sum moved from the mixing matrix to the split
# product; they are within 9e-16 relative of that implementation's
LEARNING_EVERY_ROUND = {
    1: (196, [-0.5095048302196538, -0.78198893834844, -0.10135101117927658, 0.2371995564007046]),
    3: (158, [-0.449098716077171, -0.7668673298279824, -0.1296299107467088, 0.2342827843615966]),
}


def per_node_model_run(steps, learning, trace, epsilon):
    """A run on the PER_NODE_RUNS (10, 15) model; learning None learns on every round."""
    ds = data.make_blobs(300, 4, margin=2.0, seed=5)
    model = sbm.make_two_level_model([10, 15], sbm.TwoLevelProbs(0.8, 0.3), 2)
    max_rounds = 20_000
    cfg = gossip.GadgetConfig(nu=0.1, epsilon=epsilon, max_rounds=max_rounds,
                              learning_rounds=max_rounds if learning is None else learning, steps_per_round=steps)
    return gossip.run_gadget(sbm.sample_connected(model)[0], ds, cfg, seed=4, record_trace=trace)


def run_outputs(run):
    return (run.rounds_to_consensus, run.final_weights.tobytes(),
            run.max_pairwise_gap_trace.tobytes(), run.objective_trace.tobytes(), run.accuracy_trace.tobytes())


@pytest.mark.parametrize("trace", [True, False])
@pytest.mark.parametrize("steps", [1, 3])
@pytest.mark.parametrize("learning", [30, None])
def test_block_size_changes_no_output(monkeypatch, learning, steps, trace):
    # n * d = 100 values per step: blocks of 1 step, of 2 steps (ending
    # mid-round when steps_per_round is 3) and the default 1310 steps
    epsilon = 1e-9 if learning else 1e-2
    outputs = []
    for block_values in (1, 200, gossip._BLOCK_VALUES):
        monkeypatch.setattr(gossip, "_BLOCK_VALUES", block_values)
        outputs.append(run_outputs(per_node_model_run(steps, learning, trace, epsilon)))
    assert outputs[0] == outputs[1] == outputs[2]
    if learning is None:
        rounds, final = LEARNING_EVERY_ROUND[steps]
        assert outputs[0][0] == rounds
        assert np.frombuffer(outputs[0][1]).tolist() == final


def test_examples_drawn_once_per_run(monkeypatch):
    # 200 learning rounds draw their examples in one call, not one per round
    # or per block of steps
    calls = []
    draw_picks = gossip._draw_picks

    def counted(shards, rngs, steps):
        calls.append(steps)
        return draw_picks(shards, rngs, steps)

    monkeypatch.setattr(gossip, "_draw_picks", counted)
    ds = data.make_blobs(400, 20, margin=2.0, seed=0)
    net, _ = sbm.sample_connected(sbm.make_two_level_model([50, 50], sbm.TwoLevelProbs(0.3, 0.1), 0))
    cfg = gossip.GadgetConfig(nu=0.1, epsilon=1e-12, max_rounds=200, learning_rounds=200)
    gossip.run_gadget(net, ds, cfg, seed=0, record_trace=False)
    assert calls == [200]


# a traced run of the implementation that evaluated the objective and the
# accuracy every round, written in as literals; the 13 mixing-round gaps come
# from the loop on the deviation from the conserved mean, each within 1e-13
# relative of the long-double oracle of the next test. The gaps were pinned
# again when push-sum moved from the mixing matrix to the split product; they
# are within 1.1e-15 relative of that implementation's
TRACED_GAPS = [
    11.880890859529279, 3.1900076315657264, 2.081697363118811, 2.0314575227755265, 1.9333019458511185,
    0.8713964257279678, 1.180248051272189, 0.9830006600637397, 0.3234328466957254, 0.11682874011778166,
    0.0493740734369121, 0.020689780843077297, 0.008746378349475802, 0.0037082177910117997,
    0.0015752893025851094, 0.0006704113008997036, 0.0002854977679437885, 0.00012167612243958364,
    5.187049979909191e-05, 2.2119453919565455e-05, 9.43357772431251e-06,
]
TRACED_OBJECTIVES = [
    17.64747685718411, 8.533241963864947, 7.409817767009358, 8.192171681197355, 7.536705712730227,
    7.195287186131272, 7.217127673756096, 6.962527929100409,
] + [6.962527929100409] * 13
TRACED_ACCURACIES = [
    0.64, 0.6666666666666666, 0.6133333333333333, 0.6, 0.6266666666666667, 0.6533333333333333,
    0.6666666666666666, 0.64,
] + [0.64] * 13


def traced_run():
    ds = data.make_blobs(300, 4, margin=0.5, seed=5)
    net, _ = sbm.sample_connected(sbm.make_two_level_model([10, 15], sbm.TwoLevelProbs(0.8, 0.3), 2))
    cfg = gossip.GadgetConfig(nu=0.1, epsilon=1e-5, max_rounds=20_000, learning_rounds=8)
    return net, gossip.run_gadget(net, ds, cfg, seed=4)


def test_traced_run_matches_every_round_evaluation():
    _, run = traced_run()
    assert run.rounds_to_consensus == 21
    assert run.max_pairwise_gap_trace.tolist() == TRACED_GAPS
    assert run.accuracy_trace.tolist() == TRACED_ACCURACIES
    assert run.objective_trace == pytest.approx(TRACED_OBJECTIVES, rel=1e-12, abs=0.0)



def long_double_gaps(net, pair, rounds):
    """The gaps of rounds mixing-only rounds from the block pair = [sums | psw],
    in long double with the dense mixing matrix. The weights' gap is that of
    (sums - psw c) / psw for any row c, so the pair is centred on its own
    mean first and no round takes a difference of two near-equal weights."""
    mix = mixing_matrix(net).toarray().astype(np.longdouble)
    sums, psw = pair[:, :-1].astype(np.longdouble), pair[:, -1].astype(np.longdouble)
    dev = sums - psw[:, None] * (sums.sum(axis=0) / psw.sum())
    gaps = []
    for _ in range(rounds):
        dev, psw = mix @ dev, mix @ psw
        spread = dev / psw[:, None]
        gaps.append(np.sqrt(((spread[:, None] - spread[None]) ** 2).sum(axis=-1).max()))
    return np.array(gaps)


def test_traced_mixing_gaps_match_a_long_double_oracle(monkeypatch):
    # each exchange's product, kept as a copy: the run goes on to update its pair in place
    pairs = []
    exchange = gossip._exchange

    def recorded(net, share, pair):
        mixed = exchange(net, share, pair)
        pairs.append(mixed.copy())
        return mixed

    monkeypatch.setattr(gossip, "_exchange", recorded)
    net, run = traced_run()
    monkeypatch.undo()
    # the oracle starts from the pair the 8 learning rounds left
    want = long_double_gaps(net, pairs[7], len(TRACED_GAPS) - 8)
    got = run.max_pairwise_gap_trace[8:]
    assert np.all(np.abs(got - want) <= 1e-13 * want)

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


def random_connected_graph(n, extra, rng):
    """A random spanning tree on n nodes plus each other edge with probability extra."""
    tree = {(int(rng.integers(i)), i) for i in range(1, n)}
    more = rng.random((n, n)) < extra
    edges = tree | {(i, j) for i, j in zip(*np.nonzero(np.triu(more, 1)))}
    return sbm.Network([n], np.array(sorted(edges), dtype=np.int64).reshape(-1, 2))


@st.composite
def connected_graphs(draw):
    """A random connected graph on 1..30 nodes, and the generator that drew it."""
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_connected_graph(n, draw(st.floats(0.0, 0.5)), rng), rng


def graph_case(seed, n, extra):
    rng = np.random.default_rng(seed)
    return random_connected_graph(n, extra, rng), rng


@settings(max_examples=60)
@given(connected_graphs(), st.integers(1, 40))
def test_push_sum_conserves_mass_property(case, rounds):
    net, rng = case
    assert net.connected
    sums = rng.normal(size=(net.n, 3)) * 10.0 ** rng.uniform(-3, 3)
    psw = rng.uniform(0.1, 2.0, size=net.n)
    total_s, total_w = sums.sum(axis=0), psw.sum()
    scale_s = np.abs(sums).sum(axis=0)
    pair = stacked(sums, psw)
    for _ in range(rounds):
        pair = exchange(net, pair)
    sums, psw = pair[:, :-1], pair[:, -1]
    tol = 1e-13 * rounds * net.n
    assert np.all(np.abs(sums.sum(axis=0) - total_s) <= tol * scale_s)
    assert abs(psw.sum() - total_w) <= tol * total_w
    assert (psw > 0).all()


def loop_only(monkeypatch):
    """Never weigh the switch: no round is the learning rounds plus an infinite switch round."""
    monkeypatch.setattr(spectra, "SWITCH_ROUND", math.inf)


def switch_round(learning):
    """The round at which an untraced run weighs the switch to the tail."""
    return learning + spectra.SWITCH_ROUND


def loop_and_tail(net, ds, cfg, seed=0):
    """Untraced runs of one network: on the slow-mode tail, then on the loop alone."""
    tail = gossip.run_gadget(net, ds, cfg, seed=seed, record_trace=False)
    with pytest.MonkeyPatch.context() as mp:
        loop_only(mp)
        loop = gossip.run_gadget(net, ds, cfg, seed=seed, record_trace=False)
    assert loop.tail_from is None
    return tail, loop


def assert_same_run(tail, loop):
    assert tail.rounds_to_consensus == loop.rounds_to_consensus
    assert tail.censored == loop.censored
    # both report the conserved mean w_inf fixed when learning ends
    assert tail.final_weights.tobytes() == loop.final_weights.tobytes()
    assert tail.test_accuracy == loop.test_accuracy


@settings(max_examples=25, deadline=None)
@given(connected_graphs(), st.integers(0, 20))
# two graphs whose runs take the tail (145 and 225 rounds)
@example(graph_case(15, 18, 0.1), 15)
@example(graph_case(34, 23, 0.05), 13)
def test_tail_rounds_match_the_loop_on_random_graphs(case, learning):
    net, rng = case
    ds = data.make_blobs(200, 3, margin=2.0, seed=int(rng.integers(1000)))
    cfg = gossip.GadgetConfig(nu=0.1, epsilon=1e-9, max_rounds=20_000, learning_rounds=learning)
    tail, loop = loop_and_tail(net, ds, cfg, seed=int(rng.integers(1000)))
    # most drawn examples have at most 16 nodes, stop before the switch, or
    # have slow modes too close together to certify, and stay on the loop
    assert tail.tail_from in (switch_round(learning), None)
    assert_same_run(tail, loop)


# two-community models: PER_NODE_RUNS's, a sparse one, fig5's model at p_out
# 0.003 with its dataset, and the fig5 grid run at p_out 0.0026 whose gap at
# round 4053 is 1 + 2.5e-5 epsilon by a long-double oracle and 0.9945 epsilon at
# 4054: (sizes, probs, seed, blobs, learning_rounds, rounds)
TWO_COMMUNITY_RUNS = [
    ([10, 15], (0.8, 0.3), 2, (300, 4, 2.0, 5), 30, 54),
    ([40, 20], (0.5, 0.02), 3, (400, 6, 1.0, 1), 50, 256),
    ([30, 70], (0.9, 0.003), 5, (10_000, 20, 2.0, 88), 200, 2778),
    ([30, 70], (0.9, 0.002642619553930058), 984030676, (10_000, 20, 2.0, 88), 200, 4054),
]


@pytest.mark.parametrize("sizes, probs, seed, blobs, learning, rounds", TWO_COMMUNITY_RUNS)
def test_tail_rounds_match_the_loop_on_two_community_models(sizes, probs, seed, blobs, learning, rounds):
    n, d, margin, blob_seed = blobs
    ds = data.make_blobs(n, d, margin, seed=blob_seed)
    net, _ = sbm.sample_connected(sbm.make_two_level_model(sizes, sbm.TwoLevelProbs(*probs), seed))
    cfg = gossip.GadgetConfig(nu=0.1, epsilon=1e-10, learning_rounds=learning)
    tail, loop = loop_and_tail(net, ds, cfg, seed=seed)
    # the run weighs the switch only if it has not stopped by then
    assert tail.tail_from == (switch_round(learning) if rounds > switch_round(learning) else None)
    assert tail.rounds_to_consensus == rounds
    assert_same_run(tail, loop)


# a three-community model, whose tail keeps two Ritz modes, and a network of
# 550 nodes: (sizes, probs, seed, blobs, learning_rounds, rounds)
MORE_MODES_AND_NODES = [
    ([30, 30, 30], (0.6, 0.005), 3, (600, 5, 2.0, 3), 20, 1464),
    ([300, 250], (0.1, 0.002), 4, (2000, 5, 2.0, 4), 20, 617),
]


@pytest.mark.parametrize("sizes, probs, seed, blobs, learning, rounds", MORE_MODES_AND_NODES)
def test_tail_rounds_match_the_loop_on_more_modes_and_nodes(monkeypatch, sizes, probs, seed, blobs, learning,
                                                              rounds):
    n, d, margin, blob_seed = blobs
    ds = data.make_blobs(n, d, margin, seed=blob_seed)
    net, _ = sbm.sample_connected(sbm.make_two_level_model(sizes, sbm.TwoLevelProbs(*probs), seed))
    modes = []
    slow_modes = spectra.slow_modes

    def counted(*args, **kwargs):
        solve = slow_modes(*args, **kwargs)
        modes.append(solve[0].size)
        return solve

    monkeypatch.setattr(spectra, "slow_modes", counted)
    cfg = gossip.GadgetConfig(nu=0.1, epsilon=1e-10, learning_rounds=learning)
    tail, loop = loop_and_tail(net, ds, cfg, seed=seed)
    assert modes == [len(sizes) - 1]
    assert tail.tail_from == switch_round(learning)
    assert tail.rounds_to_consensus == rounds
    assert_same_run(tail, loop)


@st.composite
def block_models(draw):
    """A connected sample of a random 1- to 3-community model, p_out up to 300
    times below p_in so that slow community modes are common, and its seed."""
    sizes = draw(st.lists(st.integers(10, 40), min_size=1, max_size=3))
    p_in = draw(st.floats(0.3, 0.9))
    # at least ~3 expected edges between two blocks, so that a connected sample is found
    p_out = max(p_in * 10.0 ** draw(st.floats(-2.5, -1.0)), 3.0 / min(sizes) ** 2)
    seed = draw(st.integers(0, 2**31 - 1))
    net, _ = sbm.sample_connected(sbm.make_two_level_model(sizes, sbm.TwoLevelProbs(p_in, p_out), seed))
    return net, seed


@settings(max_examples=20, deadline=None)
@given(block_models(), st.integers(0, 40))
def test_tail_rounds_match_the_loop_on_random_block_models(case, learning):
    net, seed = case
    ds = data.make_blobs(400, 4, margin=2.0, seed=seed % 1000)
    cfg = gossip.GadgetConfig(nu=0.1, epsilon=1e-10, max_rounds=20_000, learning_rounds=learning)
    tail, loop = loop_and_tail(net, ds, cfg, seed=seed)
    assert tail.tail_from in (switch_round(learning), None)
    assert_same_run(tail, loop)


def test_forced_early_switch_gives_the_loop_rounds(monkeypatch):
    # switching 2, 4 or 8 rounds after learning, before the fast modes have
    # decayed, the bound must still send every uncertified round to the loop
    took_tail = 0
    for seed in range(16):
        rng = np.random.default_rng(100 + seed)
        sizes = rng.integers(8, 40, size=rng.integers(1, 4)).tolist()
        p_in = rng.uniform(0.3, 0.9)
        model = sbm.make_two_level_model(sizes, sbm.TwoLevelProbs(p_in, p_in * 10 ** rng.uniform(-2.5, 0)), seed)
        net, _ = sbm.sample_connected(model)
        ds = data.make_blobs(400, 4, margin=2.0, seed=seed)
        cfg = gossip.GadgetConfig(nu=0.1, epsilon=1e-10, max_rounds=20_000, learning_rounds=10)
        loop_only(monkeypatch)
        loop = gossip.run_gadget(net, ds, cfg, seed=seed, record_trace=False)
        for after in (2, 4, 8):
            monkeypatch.setattr(spectra, "SWITCH_ROUND", after)
            fast = gossip.run_gadget(net, ds, cfg, seed=seed, record_trace=False)
            assert fast.tail_from in (switch_round(10), None)
            assert_same_run(fast, loop)
            took_tail += fast.tail_from is not None
    assert took_tail >= 10


def test_uncertified_round_falls_back_to_the_loop(monkeypatch):
    # epsilon 1e-14 keeps the run mixing past the switch at round 62
    with monkeypatch.context() as mp:
        loop_only(mp)
        loop = per_node_model_run(1, 30, False, 1e-14)
    # a stop-test margin larger than any gap leaves the tail's first round
    # uncertified; the loop's stop test then always takes the exact distances,
    # which decide as its bracket does
    monkeypatch.setattr(gossip, "_BRACKET_MARGIN", 1e300)
    calls = []
    tail = gossip._mixing_tail

    def counted(*args):
        calls.append(tail(*args))
        return calls[-1]

    monkeypatch.setattr(gossip, "_mixing_tail", counted)
    fallback = per_node_model_run(1, 30, False, 1e-14)
    assert calls == [None]
    assert fallback.tail_from is None
    assert fallback.rounds_to_consensus == 65
    assert run_outputs(fallback) == run_outputs(loop)


@pytest.mark.parametrize("learning, trace", [(30, True), (30, False), (None, False), (None, True)])
def test_runs_that_end_before_the_switch_stay_on_the_loop(monkeypatch, learning, trace):
    # a run of 30 learning rounds stops at round 52, before the switch at 62; a
    # run that learns on every round never reaches the switch
    def refuse(*args):
        raise AssertionError("entered the tail")

    monkeypatch.setattr(gossip, "_mixing_tail", refuse)
    run = per_node_model_run(1, learning, trace, 1e-9 if learning else 1e-2)
    assert run.tail_from is None
    assert run.rounds_to_consensus == (52 if learning else LEARNING_EVERY_ROUND[1][0])


def test_traced_run_past_the_switch_records_the_tail():
    # TWO_COMMUNITY_RUNS's sparse model: 256 rounds, 174 of them on the tail
    net, _ = sbm.sample_connected(sbm.make_two_level_model([40, 20], sbm.TwoLevelProbs(0.5, 0.02), 3))
    ds = data.make_blobs(400, 6, 1.0, seed=1)
    cfg = gossip.GadgetConfig(nu=0.1, epsilon=1e-10, learning_rounds=50)
    untraced = gossip.run_gadget(net, ds, cfg, seed=3, record_trace=False)
    slacks = []
    bracket = gossip._bracket

    def spy(dev, epsilon, slack):
        if np.ndim(slack):  # a block of the tail's rounds; the loop's stop test passes one float
            slacks.extend(slack)
        return bracket(dev, epsilon, slack)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gossip, "_bracket", spy)
        traced = gossip.run_gadget(net, ds, cfg, seed=3)
    with pytest.MonkeyPatch.context() as mp:
        loop_only(mp)
        loop = gossip.run_gadget(net, ds, cfg, seed=3)
    start = switch_round(50)
    assert traced.tail_from == untraced.tail_from == start and loop.tail_from is None
    assert traced.rounds_to_consensus == untraced.rounds_to_consensus == loop.rounds_to_consensus == 256
    assert traced.final_weights.tobytes() == untraced.final_weights.tobytes()
    assert (traced.test_accuracy, traced.final_objective) == (untraced.test_accuracy, untraced.final_objective)
    for got, want in ((traced.objective_trace, loop.objective_trace), (traced.accuracy_trace, loop.accuracy_trace)):
        assert got.tobytes() == want.tobytes()
    gaps, exact = traced.max_pairwise_gap_trace, loop.max_pairwise_gap_trace
    assert len(gaps) == len(exact) == 256
    assert gaps[:start].tobytes() == exact[:start].tobytes()
    slack = np.array(slacks[:256 - start])
    assert np.all(np.abs(gaps[start:] - exact[start:]) <= slack)
    assert not np.array_equal(gaps[start:], exact[start:])


def test_tail_node_bound_covers_the_psw_remainder(monkeypatch):
    # dev lies on the slow mode, so only psw's part off the slow modes, 1e-6
    # of psw, separates the tail's estimated weights dev / psw from the loop's:
    # the node bounds, and with them each round's slack, must carry psw's
    # remainder bound weighted by the weights
    from scipy.sparse.linalg import eigsh

    net, _ = sbm.sample_connected(sbm.make_two_level_model([20, 25], sbm.TwoLevelProbs(0.6, 0.05), 1))
    dp = net.degrees + 1.0
    _, vec = eigsh(spectra.deflated_walk_operator(net, 1.0, loops=1.0), k=1, which="LM",
                   v0=np.ones(net.n), tol=0)
    dev = np.outer(np.sqrt(dp) * vec[:, 0], [1.0, -2.0])
    # psw near M's fixed point, which is proportional to d' = d + 1
    psw = dp / dp.mean() * (1.0 + 1e-6 * np.random.default_rng(1).standard_normal(net.n))
    brackets = []
    bracket = gossip._bracket

    def spy(radius, epsilon, slack):
        brackets.append((radius, slack))
        return bracket(radius, epsilon, slack)

    monkeypatch.setattr(gossip, "_bracket", spy)
    rounds = 40
    # an epsilon no gap reaches: the tail runs every round on its estimates
    ran, below, gaps = gossip._mixing_tail(net, stacked(dev, psw), 1e-300, rounds, True)
    assert (ran, below, len(gaps)) == (rounds, False, rounds)
    (radius, slack), = brackets
    mix = mixing_matrix(net).toarray().astype(np.longdouble)
    x, w, exact, exact_gaps = dev.astype(np.longdouble), psw.astype(np.longdouble), [], []
    for _ in range(rounds):
        x, w = mix @ x, mix @ w
        spread = x / w[:, None]
        exact.append(np.sqrt(((spread - spread[0]) ** 2).sum(axis=1).max()))
        exact_gaps.append(np.sqrt(((spread[:, None] - spread[None]) ** 2).sum(axis=-1).max()))
    # the largest distance to node 0, and the largest pairwise one, of the estimates
    for estimate, want in ((radius, exact), (np.array(gaps), exact_gaps)):
        miss = np.abs(np.asarray(want, dtype=float) - estimate)
        assert miss[0] > 1e-9 * estimate[0]
        assert np.all(miss <= slack)


def test_censored_tail_reports_the_last_round():
    # a budget that ends two rounds after the switch, before the gap meets
    # epsilon at round 65: the tail censors as the loop does
    net, _ = sbm.sample_connected(sbm.make_two_level_model([10, 15], sbm.TwoLevelProbs(0.8, 0.3), 2))
    ds = data.make_blobs(300, 4, margin=2.0, seed=5)
    cfg = gossip.GadgetConfig(nu=0.1, epsilon=1e-14, max_rounds=64, learning_rounds=30)
    tail, loop = loop_and_tail(net, ds, cfg, seed=4)
    assert tail.censored and tail.rounds_to_consensus is None and tail.tail_from == 62
    assert_same_run(tail, loop)
