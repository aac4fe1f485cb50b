"""Gossip-based decentralized SVM: local Pegasos steps + push-sum mixing.

The n nodes' weight vectors are the rows of one (n, d) matrix. A learning
step is one ``pegasos_step`` for every node at once: one masked update
applies the hinge subgradient to the rows whose margin is below 1. Each node
draws its examples from its shard with its own seeded generator;
``draw_picks`` draws them for a whole block of steps in one call per node,
and the block's feature rows are gathered in one index of the training
matrix. A block of m draws continues each stream exactly as m single draws
would, so the block size changes no output. The
weights then enter the mass-conserving push-sum protocol: every node splits
its (sum, weight) pair equally over itself and its neighbors, so the mixing
matrix is column-stochastic and the totals are invariants; ``push_sum_round``
is that exchange, one sparse product of the stacked pair. A run stops once
all pairwise weight-vector distances fall below the threshold. The decision
is exact, but the full pairwise distances are only computed when the cheap
bracket dev <= gap <= 2 dev, dev = max_i ||w_i - w_0||, cannot settle it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .data import LabeledDataset, partition_equal, train_test_split
from .sbm import Network, is_connected

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "GadgetConfig",
    "GadgetRun",
    "draw_picks",
    "pegasos_step",
    "push_sum_round",
    "mixing_matrix",
    "run_gadget",
    "hinge_objective",
    "accuracy",
    "max_pairwise_gap",
]

# share of the dataset held out for test accuracy
TEST_FRACTION = 0.25

# relative margin around epsilon inside which the stop test falls back to the
# exact pairwise distances; distance round-off is ~1e-14 relative
_BRACKET_MARGIN = 1e-9

# dense feature values gathered per block of learning steps (~1 MB of
# float64); a block is one step when a single step holds more
_BLOCK_VALUES = 1 << 17


@dataclass(frozen=True)
class GadgetConfig:
    """The run settings with their defaults and checks: scalar consensus reads
    epsilon and max_rounds (0 is a legal, censored run), the SVM all five.

    learning_rounds bounds how many rounds include local subgradient steps;
    None keeps learning on every round, but the 1/(nu*t) step size then
    injects fresh disagreement each round and tiny epsilon targets become
    unreachable, so sweeps use a finite budget and let pure gossip close the
    remaining gap.
    """

    nu: float = 0.1
    epsilon: float = 1e-10
    max_rounds: int = 200_000
    steps_per_round: int = 1
    learning_rounds: int | None = 200

    def __post_init__(self) -> None:
        if not self.nu > 0:
            raise ValueError(f"nu must be > 0, got {self.nu}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.max_rounds < 0:
            raise ValueError(f"max_rounds must be >= 0, got {self.max_rounds}")
        if self.steps_per_round < 1:
            raise ValueError(f"steps_per_round must be >= 1, got {self.steps_per_round}")
        if self.learning_rounds is not None and self.learning_rounds < 0:
            raise ValueError(f"learning_rounds must be None or >= 0, got {self.learning_rounds}")


@dataclass(eq=False)
class GadgetRun:
    """Outcome of one decentralized run."""

    rounds_to_consensus: int | None
    censored: bool
    max_pairwise_gap_trace: np.ndarray
    objective_trace: np.ndarray
    accuracy_trace: np.ndarray
    test_accuracy: float
    final_objective: float
    final_weights: np.ndarray
    node_weights: np.ndarray | None = None


def draw_picks(shards, rngs, steps: int) -> np.ndarray:
    """(steps, n) example indices: column i holds node i's next steps picks.

    Node i draws uniformly from shards[i] with rngs[i], continuing its stream
    exactly as steps single draws would. An empty shard raises ValueError.
    """
    picks = np.empty((steps, len(shards)), dtype=np.int64)
    for i, (shard, rng) in enumerate(zip(shards, rngs)):
        if shard.size == 0:
            raise ValueError(f"node {i} has an empty shard")
        picks[:, i] = shard[rng.integers(shard.size, size=steps)]
    return picks


def pegasos_step(weights: np.ndarray, rows: np.ndarray, labels: np.ndarray, nu: float, t: int) -> None:
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


def mixing_matrix(net: Network) -> sparse.csr_matrix:
    """Column-stochastic push-sum matrix: equal split over self and neighbors."""
    from scipy import sparse

    n = net.n
    adj = net.adjacency()
    with_self = (adj + sparse.identity(n, format="csr")).tocsr()
    inv_share = 1.0 / (net.degrees.astype(float) + 1.0)
    mix = (with_self @ sparse.diags(inv_share)).tocsr()
    mix.sort_indices()
    return mix


def push_sum_round(mix: sparse.csr_matrix, sums: np.ndarray, psw: np.ndarray):
    """One synchronous push-sum exchange; returns (mix @ sums, mix @ psw).

    Every node splits its (sum, weight) pair into equal shares over itself
    and its neighbors and keeps the shares it receives, so the totals of
    sums and psw are conserved up to round-off. Both parts go through one
    sparse product of the stacked [sums | psw].
    """
    mixed = mix @ np.column_stack([sums, psw])
    return mixed[:, :-1], mixed[:, -1]


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


def _gap_below(weights: np.ndarray, epsilon: float) -> bool:
    """max_pairwise_gap(weights) < epsilon, mostly without the pairwise distances.

    With dev = max_i ||w_i - w_0||, the triangle inequality gives
    dev <= gap <= 2 dev; pdist runs only when epsilon lies in that bracket,
    widened by _BRACKET_MARGIN so round-off cannot flip the decision.
    """
    diff = weights - weights[0]
    dev = float(np.sqrt(np.einsum("ij,ij->i", diff, diff).max()))
    if dev >= epsilon * (1.0 + _BRACKET_MARGIN):
        return False
    if 2.0 * dev < epsilon * (1.0 - _BRACKET_MARGIN):
        return True
    return max_pairwise_gap(weights) < epsilon


def run_gadget(net: Network, dataset: LabeledDataset, cfg: GadgetConfig, seed: int = 0,
               record_trace: bool = True) -> GadgetRun:
    """Synchronous decentralized SVM over a connected network.

    Each round: steps_per_round Pegasos steps on every node (while the
    learning budget lasts), then the working weights enter the push-sum pair,
    one mixing exchange runs, and nodes adopt s/psw as their new weights.
    Stops when the max pairwise weight gap drops below epsilon, or reports a
    censored run at max_rounds. seed fixes the data split and the example
    streams; record_trace keeps the per-round traces. A disconnected network
    or a dataset without features raises ValueError.
    """
    if not is_connected(net):
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
    sums, psw = weights.copy(), np.ones(n)
    mix = mixing_matrix(net)
    X_train, y_train = train.X, train.y
    X_test, y_test = test.X, test.y

    gap_trace, obj_trace, acc_trace = [], [], []
    rounds_done = None
    steps = cfg.steps_per_round
    learning_rounds = cfg.max_rounds if cfg.learning_rounds is None else min(cfg.learning_rounds, cfg.max_rounds)
    total_steps = learning_rounds * steps
    block = max(1, _BLOCK_VALUES // (n * train.d))
    t = 0  # learning steps taken
    for t_round in range(1, cfg.max_rounds + 1):
        learning = t_round <= learning_rounds
        if learning:
            for _ in range(steps):
                j = t % block
                if j == 0:
                    picks = draw_picks(shards, rngs, min(block, total_steps - t))
                    rows = X_train[picks.ravel()]
                    rows = rows.toarray() if hasattr(rows, "toarray") else np.asarray(rows, dtype=float)
                    rows = rows.reshape(*picks.shape, train.d)
                    labels = y_train[picks]
                t += 1
                pegasos_step(weights, rows[j], labels[j], cfg.nu, t)
        sums, psw = push_sum_round(mix, weights * psw[:, None], psw)
        weights = sums / psw[:, None]
        if record_trace:
            gap = max_pairwise_gap(weights)
            gap_trace.append(gap)
            if learning or not obj_trace:
                # mixing conserves mass: w_avg stays fixed once learning ends
                w_avg = sums.sum(axis=0) / psw.sum()
                objective = hinge_objective(w_avg, X_train, y_train, cfg.nu, n)
                acc = accuracy(w_avg, X_test, y_test)
            obj_trace.append(objective)
            acc_trace.append(acc)
            done = gap < cfg.epsilon
        else:
            done = _gap_below(weights, cfg.epsilon)
        if done:
            rounds_done = t_round
            break

    w_avg = sums.sum(axis=0) / psw.sum()
    return GadgetRun(
        rounds_to_consensus=rounds_done,
        censored=rounds_done is None,
        max_pairwise_gap_trace=np.asarray(gap_trace),
        objective_trace=np.asarray(obj_trace),
        accuracy_trace=np.asarray(acc_trace),
        test_accuracy=accuracy(w_avg, X_test, y_test),
        final_objective=hinge_objective(w_avg, X_train, y_train, cfg.nu, n),
        final_weights=w_avg,
        node_weights=weights,
    )
