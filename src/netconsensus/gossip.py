"""Gossip-based decentralized SVM: local Pegasos steps + push-sum mixing.

The n nodes' weight vectors are the rows of one (n, d) matrix. A learning
round is one ``pegasos_step`` for every node at once: each node draws an
example from its shard with its own seeded generator, and one masked update
applies the hinge subgradient to the rows whose margin is below 1. The
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
from .sbm import Network, SbmModel, is_connected, sample_connected

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "GadgetConfig",
    "GadgetRun",
    "pegasos_step",
    "push_sum_round",
    "mixing_matrix",
    "run_gadget",
    "hinge_objective",
    "accuracy",
    "max_pairwise_gap",
]

# share of the dataset held out for test accuracy when no test set is given
TEST_FRACTION = 0.25

# relative margin around epsilon inside which the stop test falls back to the
# exact pairwise distances; distance round-off is ~1e-14 relative
_BRACKET_MARGIN = 1e-9


@dataclass
class GadgetConfig:
    """Knobs for a decentralized SVM run.

    learning_rounds bounds how many rounds include local subgradient steps;
    None keeps learning on every round, but the 1/(nu*t) step size then
    injects fresh disagreement each round and tiny epsilon targets become
    unreachable, so sweeps use a finite budget and let pure gossip close the
    remaining gap.
    """

    nu: float
    epsilon: float
    max_rounds: int
    steps_per_round: int = 1
    learning_rounds: int | None = 200
    seed: int = 0
    record_trace: bool = True

    def __post_init__(self) -> None:
        if self.nu <= 0:
            raise ValueError("nu must be positive")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


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


def pegasos_step(weights: np.ndarray, X, y, shards, rngs, nu: float, t: int) -> None:
    """One stochastic subgradient step for every node, in place.

    Row i of the (n, d) weights is node i's vector. Node i picks an example
    of shards[i] uniformly with rngs[i] (an empty shard raises ValueError);
    every node then applies the learning rate 1/(nu*t) to the subgradient
    nu*w - 1[y <w,x> < 1] y x of its own example.
    """
    if t < 1:
        raise ValueError("step index t must be >= 1")
    picks = np.array([shard[rng.integers(shard.size)] for shard, rng in zip(shards, rngs)], dtype=np.int64)
    rows = X[picks]
    rows = rows.toarray() if hasattr(rows, "toarray") else np.asarray(rows, dtype=float)
    labels = y[picks]
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


def run_gadget(
    model,
    dataset: LabeledDataset,
    cfg: GadgetConfig,
    test_dataset: LabeledDataset | None = None,
) -> GadgetRun:
    """Synchronous decentralized SVM over a sampled (or given) network.

    Each round: steps_per_round Pegasos steps on every node (while the
    learning budget lasts), then the working weights enter the push-sum pair,
    one mixing exchange runs, and nodes adopt s/psw as their new weights.
    Stops when the max pairwise weight gap drops below epsilon, or reports a
    censored run at max_rounds. Accepts an SbmModel (sampled until
    connected, deterministically per its seed) or a prebuilt Network.
    """
    if isinstance(model, SbmModel):
        net, _ = sample_connected(model)
    else:
        net = model
        if not is_connected(net):
            raise ValueError("run_gadget requires a connected network")
    n = net.n

    root = np.random.SeedSequence(cfg.seed)
    split_seed, part_seed, node_root = root.spawn(3)
    if test_dataset is None:
        train, test = train_test_split(dataset, TEST_FRACTION, seed=int(split_seed.generate_state(1)[0]))
    else:
        train, test = dataset, test_dataset
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
    for t_round in range(1, cfg.max_rounds + 1):
        learning = cfg.learning_rounds is None or t_round <= cfg.learning_rounds
        if learning:
            for k in range(1, steps + 1):
                pegasos_step(weights, X_train, y_train, shards, rngs, cfg.nu, (t_round - 1) * steps + k)
        sums, psw = push_sum_round(mix, weights * psw[:, None], psw)
        weights = sums / psw[:, None]
        if cfg.record_trace:
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
