"""Gossip-based decentralized SVM: local Pegasos steps + push-sum mixing.

The n nodes' weight vectors are the rows of one (n, d) matrix. A learning step
is one ``_pegasos_step`` for every node at once: one masked update applies the
hinge subgradient to the rows whose margin is below 1. Each node draws its
examples from its shard with its own seeded generator; ``_draw_picks`` draws
all of a run's learning steps in one call per node, and the feature rows of
each block of steps are gathered in one index of the training matrix, made
dense by ``toarray`` if CSR. A block of m draws continues each stream exactly
as m single draws would, so neither the draw nor the block size changes an
output. The weights then enter the mass-conserving push-sum protocol
(``_exchange``). A run holds each node's (sum, weight) pair as a row of one
(n, d + 1) block [sums | psw] from the first round to the tail, so an exchange
is one Network.product of that block. A run stops once all pairwise
weight-vector distances fall below the threshold. The decision is exact, but
the full pairwise distances are only computed when the cheap bracket
dev <= gap <= 2 dev, dev = max_i ||w_i - w_0||, cannot settle it.

A run is push-sum rounds, then a certified slow-mode tail. Once learning
ends, the block's sums become the mass-free deviation sums - psw w_inf from
the conserved mean w_inf, so w_inf enters no difference of the gap. A run,
traced or not, still mixing spectra.SWITCH_ROUND rounds later switches, once,
to the tail (_mixing_tail), which falls back to the loop from the switch state
where it cannot certify a round. The loop stays for the learning rounds and as
the oracle; a trace holds the tail's estimated gaps after tail_from.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
import numpy as np

from . import spectra
from .data import LabeledDataset, partition_equal, train_test_split
from .sbm import Network

__all__ = [
    "GadgetConfig",
    "GadgetRun",
    "run_gadget",
    "hinge_objective",
    "accuracy",
    "max_pairwise_gap",
]

# share of the dataset held out for test accuracy
TEST_FRACTION = 0.25

# relative margin around epsilon inside which the stop test, on the loop and
# the tail, falls back to the exact pairwise distances. It covers distance
# round-off (~1e-14 relative), the loop's mixing error (~rounds * u relative to
# the gap, u the float64 epsilon) and the tail's (~1e-12 epsilon)
_BRACKET_MARGIN = 1e-9

# dense feature values gathered per block of learning steps (~1 MB of
# float64); a block is one step when a single one holds more
_BLOCK_VALUES = 1 << 17


@dataclass(frozen=True)
class GadgetConfig:
    """The run settings with their defaults and checks: scalar consensus reads
    epsilon and max_rounds (0 is a legal, censored run), the SVM all five.

    learning_rounds bounds how many rounds include local subgradient steps;
    at max_rounds or more every round learns, but the 1/(nu*t) step size then
    injects fresh disagreement each round and tiny epsilon targets become
    unreachable, so sweeps use a smaller budget and let pure gossip close the
    remaining gap.
    """

    nu: float = 0.1
    epsilon: float = 1e-10
    max_rounds: int = 200_000
    steps_per_round: int = 1
    learning_rounds: int = 200

    def __post_init__(self) -> None:
        if not 0 < self.nu < np.inf:
            raise ValueError(f"nu must be > 0 and finite, got {self.nu}")
        if not 0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be > 0 and finite, got {self.epsilon}")
        if self.max_rounds < 0:
            raise ValueError(f"max_rounds must be >= 0, got {self.max_rounds}")
        if self.steps_per_round < 1:
            raise ValueError(f"steps_per_round must be >= 1, got {self.steps_per_round}")
        if self.learning_rounds < 0:
            raise ValueError(f"learning_rounds must be >= 0, got {self.learning_rounds}")


@dataclass(eq=False)
class GadgetRun:
    """Outcome of one decentralized run. final_weights is w_inf, the mean that
    mixing conserves once learning ends (the last round's if it never does);
    tail_from is the round after which mixing ran on the slow-mode tail,
    learning_rounds + spectra.SWITCH_ROUND, or None when every round ran on the
    loop."""

    rounds_to_consensus: int | None
    max_pairwise_gap_trace: np.ndarray
    objective_trace: np.ndarray
    accuracy_trace: np.ndarray
    test_accuracy: float
    final_objective: float
    final_weights: np.ndarray
    tail_from: int | None = None

    @property
    def censored(self) -> bool:
        return self.rounds_to_consensus is None


def _draw_picks(shards, rngs, steps: int) -> np.ndarray:
    """(steps, n) int32 example indices: column i holds node i's next steps picks.

    Node i draws uniformly from shards[i] with rngs[i], continuing its stream
    exactly as steps single draws would. An empty shard raises ValueError.
    """
    picks = np.empty((steps, len(shards)), dtype=np.int32)  # a run's picks are held whole: half the bytes of int64
    for i, (shard, rng) in enumerate(zip(shards, rngs)):
        if shard.size == 0:
            raise ValueError(f"node {i} has an empty shard")
        picks[:, i] = shard[rng.integers(shard.size, size=steps)]
    return picks


def _pegasos_step(weights: np.ndarray, rows: np.ndarray, labels: np.ndarray, nu: float, t: int) -> None:
    """One stochastic subgradient step for every node, in place.

    Row i of the (n, d) weights is node i's vector, and rows[i], labels[i]
    are the example it picked. Every node applies the learning rate
    1/(nu*t) to the subgradient nu*w - 1[y <w,x> < 1] y x of its example.
    """
    if t < 1:
        raise ValueError("step index t must be >= 1")
    eta = 1.0 / (nu * t)
    hit = labels * np.einsum("ij,ij->i", weights, rows) < 1.0
    weights *= 1.0 - eta * nu
    weights[hit] += (eta * labels[hit])[:, None] * rows[hit]


def _exchange(net: Network, share: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """One push-sum exchange of the block pair, (A + I) D'^-1 pair = A z + z with
    z = share * pair, share = 1 / (d + 1) per node: every node splits its (sum,
    weight) pair equally over itself and its neighbors and keeps the shares it
    receives, so the column totals of the pair are conserved up to round-off."""
    z = pair * share[:, None]
    mixed = net.product(z)
    mixed += z
    return mixed


def hinge_objective(w: np.ndarray, X, y, nu: float, n_nodes: int) -> float:
    """Regularized hinge objective: summed losses over all shards divided by
    the node count, plus (nu/2) ||w||^2."""
    scores = X @ w
    hinge = np.maximum(0.0, 1.0 - y * scores)
    return float(hinge.sum() / n_nodes + 0.5 * nu * float(w @ w))


def accuracy(w: np.ndarray, X, y) -> float:
    scores = X @ w
    pred = np.where(scores >= 0.0, 1, -1)
    return float(np.mean(pred == y))


def max_pairwise_gap(weights: np.ndarray) -> float:
    """Exact max over node pairs of ||w_i - w_j||_2.

    Differences are formed before squaring: a Gram-matrix expansion loses
    the gap entirely once it sits below the float precision of ||w||^2.
    """
    if weights.shape[0] < 2:
        return 0.0
    from scipy.spatial.distance import pdist

    return float(pdist(weights).max())


def _bracket(dev, epsilon: float, slack):
    """(below, above): where dev <= gap <= 2 dev settles gap < epsilon either way.

    dev = max_i ||w_i - w_0|| and the gap are each known to within slack;
    above means gap >= epsilon, below means gap < epsilon, and neither
    leaves the decision to the exact pairwise distances. Elementwise over
    arrays of rounds.
    """
    return 2.0 * (dev + slack) < epsilon, dev - slack >= epsilon


def _gap_below(weights: np.ndarray, epsilon: float) -> bool:
    """max_pairwise_gap(weights) < epsilon, mostly without the pairwise distances.

    pdist runs only when epsilon lies in the _bracket of dev, widened by
    _BRACKET_MARGIN so round-off cannot flip the decision.
    """
    diff = weights - weights[0]
    dev = float(np.sqrt(np.einsum("ij,ij->i", diff, diff).max()))
    below, above = _bracket(dev, epsilon, epsilon * _BRACKET_MARGIN)
    if below or above:
        return bool(below)
    return max_pairwise_gap(weights) < epsilon


def _mixing_tail(net: Network, pair: np.ndarray, epsilon: float, rounds: int, record_trace: bool):
    """Up to rounds mixing-only rounds of the loop from the block
    pair = [dev | psw] of the deviation and the weights, from the mixing
    matrix's slow modes: (rounds run, whether the last one's gap is below
    epsilon, the estimated gap of each round run if record_trace else []),
    or None.

    M = (A + I) D'^-1 with D' = D + I is similar to the symmetric S, so round
    s of the loop is M^s X = D'^1/2 S^s D'^-1/2 X. Of the start block
    Y = D'^-1/2 pair, only psw has a part along S's top eigenvector u,
    which every round keeps; the rest follows S - u u^T, whose Ritz pairs
    and the block's coefficients on them (one spectra.slow_modes call) give
    each block of rounds the call hands over as one small product. With
    b_psw psw's remainder bound and b_dev the root sum of squares of those of
    dev's columns, which bounds their Frobenius norm, node i's dev_i / psw_i
    lies within sqrt(d'_i) (b_dev + |w_i| b_psw) / (psw_i - sqrt(d'_i) b_psw)
    of its estimate w_i. Returns None if a round's psw is not bounded away from 0
    or its gap lies within twice the largest node bound plus _BRACKET_MARGIN
    epsilon of epsilon.
    """
    sqrt_dp = np.sqrt(net.degrees + 1.0)
    u = sqrt_dp / np.linalg.norm(sqrt_dp)
    start = pair / sqrt_dp[:, None]
    settled = sqrt_dp * u * (u @ start[:, -1])  # psw's part along u, at every round
    start -= np.outer(u, u @ start)
    solve = spectra.slow_modes(net, start, loops=1.0)
    if solve is None:
        return None
    theta, vecs, coef, blocks = solve
    basis = sqrt_dp[:, None] * vecs
    # F = R^T of C_dev^T = QR: x^T F is as long as x^T C_dev, in at most one coordinate per mode
    factor = np.linalg.qr(coef[:, :-1].T, mode="r").T
    gaps = []
    for s, power, bound in blocks(rounds):
        p = settled[:, None] + basis @ (power * coef[:, -1:])
        reach = sqrt_dp[:, None] * bound[-1]
        if (reach >= p).any():
            return None
        spread = np.einsum("im,ms,mf->isf", basis, power, factor) / p[:, :, None]
        miss = sqrt_dp[:, None] * np.linalg.norm(bound[:-1], axis=0)
        node = (miss + np.linalg.norm(spread, axis=2) * reach) / (p - reach)
        # the estimated distances, and the loop's, each lie within slack of the exact ones
        slack = 2.0 * node.max(axis=0) + epsilon * _BRACKET_MARGIN
        radius = np.linalg.norm(spread - spread[0], axis=2).max(axis=0)
        below, above = _bracket(radius, epsilon, slack)
        # spread's coordinates keep every pairwise distance; each traced gap is computed only when taken
        traced = (max_pairwise_gap(spread[:, j]) for j in range(s.size if record_trace else 0))
        for j in np.flatnonzero(~above):
            if not below[j]:
                gap = max_pairwise_gap(spread[:, j])
                if abs(gap - epsilon) <= slack[j]:
                    return None
                if gap >= epsilon:
                    continue
            return int(s[j]), True, gaps + list(islice(traced, j + 1))
        gaps += traced
    return rounds, False, gaps


def run_gadget(net: Network, dataset: LabeledDataset, cfg: GadgetConfig, seed: int = 0,
               record_trace: bool = True) -> GadgetRun:
    """Synchronous decentralized SVM over a connected network.

    Each round: steps_per_round Pegasos steps on every node (while the
    learning budget lasts), then the working weights enter the push-sum pair,
    one mixing exchange runs, and nodes adopt sums/psw as their new weights.
    Once learning ends, the rounds mix the deviation from the conserved mean
    w_inf instead. Stops when the max pairwise weight gap drops below epsilon,
    or reports a censored run at max_rounds. seed fixes the data split and the
    example streams. record_trace only keeps the per-round traces: the mixing
    rounds from learning_rounds + spectra.SWITCH_ROUND on may run on the
    slow-mode tail either way, on a network of any size (module docstring). A
    disconnected network or a dataset without features raises ValueError.
    """
    if not net.connected:
        raise ValueError("run_gadget requires a connected network")
    if dataset.d == 0:
        raise ValueError("dataset has no features (d = 0)")
    n = net.n

    root = np.random.SeedSequence(seed)
    split_seed, part_seed, node_root = root.spawn(3)
    train, test = train_test_split(dataset, TEST_FRACTION, seed=int(split_seed.generate_state(1)[0]))
    if train.n_examples < n:
        raise ValueError(
            f"dataset has {train.n_examples} examples for {n} nodes; every shard must be nonempty"
        )
    shards = partition_equal(train, n, seed=int(part_seed.generate_state(1)[0]))
    rngs = [np.random.default_rng(stream) for stream in node_root.spawn(n)]

    weights = np.zeros((n, train.d))
    pair = np.hstack([weights, np.ones((n, 1))])  # [sums | psw], one node a row
    share = 1.0 / (net.degrees + 1.0)
    X_train, y_train = train.X, train.y
    X_test, y_test = test.X, test.y

    gap_trace, obj_trace, acc_trace = [], [], []
    rounds_done = None
    steps = cfg.steps_per_round
    learning_rounds = min(cfg.learning_rounds, cfg.max_rounds)
    picks = _draw_picks(shards, rngs, learning_rounds * steps)
    block = max(1, _BLOCK_VALUES // (n * train.d))
    # the one round at which a run weighs the switch to the tail
    switch = learning_rounds + spectra.SWITCH_ROUND
    tail_from = w_inf = None
    t = 0  # learning steps taken
    for t_round in range(1, cfg.max_rounds + 1):
        learning = t_round <= learning_rounds
        if learning:
            for _ in range(steps):
                j = t % block
                if j == 0:
                    at = picks[t:t + block]
                    rows = X_train[at.ravel()]
                    rows = rows.toarray() if hasattr(rows, "toarray") else np.asarray(rows, dtype=float)
                    rows = rows.reshape(*at.shape, train.d)
                    labels = y_train[at]
                t += 1
                _pegasos_step(weights, rows[j], labels[j], cfg.nu, t)
            pair[:, :-1] = weights * pair[:, -1:]
            pair = _exchange(net, share, pair)
            spread = weights = pair[:, :-1] / pair[:, -1:]
        else:
            if w_inf is None:
                # mixing conserves the mass: iterate its deviation from the mean w_inf
                w_inf = pair[:, :-1].sum(axis=0) / pair[:, -1].sum()
                pair[:, :-1] -= pair[:, -1:] * w_inf
            pair = _exchange(net, share, pair)
            spread = pair[:, :-1] / pair[:, -1:]  # the weights less w_inf: the same gap
        if record_trace:
            gap_trace.append(max_pairwise_gap(spread))
            if learning or not obj_trace:  # a mixing round's values are w_inf's: padded at the end
                w_avg = pair[:, :-1].sum(axis=0) / pair[:, -1].sum() if learning else w_inf
                obj_trace.append(hinge_objective(w_avg, X_train, y_train, cfg.nu, n))
                acc_trace.append(accuracy(w_avg, X_test, y_test))
        if _gap_below(spread, cfg.epsilon):
            rounds_done = t_round
            break
        if t_round == switch:
            tail = _mixing_tail(net, pair, cfg.epsilon, cfg.max_rounds - t_round, record_trace)
            if tail is not None:
                ran, below, tail_gaps = tail
                rounds_done = t_round + ran if below else None
                tail_from = t_round
                gap_trace += tail_gaps
                break

    if w_inf is None:  # the run ended while learning
        w_inf = pair[:, :-1].sum(axis=0) / pair[:, -1].sum()
    pad = len(gap_trace) - len(obj_trace)
    return GadgetRun(
        rounds_to_consensus=rounds_done,
        max_pairwise_gap_trace=np.asarray(gap_trace),
        objective_trace=np.asarray(obj_trace + obj_trace[-1:] * pad),
        accuracy_trace=np.asarray(acc_trace + acc_trace[-1:] * pad),
        test_accuracy=accuracy(w_inf, X_test, y_test),
        final_objective=hinge_objective(w_inf, X_train, y_train, cfg.nu, n),
        final_weights=w_inf,
        tail_from=tail_from,
    )
