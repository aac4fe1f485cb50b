import numpy as np
from hypothesis import settings

# one profile for every property test: the same examples on every run, and no
# per-example deadline (the first examples pay numpy and scipy warm-up)
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


def adjacency(net):
    """The test oracle of a network's adjacency A: CSR with 0/1 float entries and sorted indices,
    built from net.edges by scipy's COO-to-CSR conversion."""
    from scipy import sparse

    pairs = net.edges
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    adj = sparse.csr_matrix((np.ones(2 * len(pairs)), (rows, cols)), shape=(net.n, net.n))
    adj.sort_indices()
    return adj


def tail_bound(blocks, rounds):
    """The remainder bound of rounds 1..rounds, read block by block from the blocks of a
    spectra.slow_modes call: one row over the rounds for a vector start, one per column of a block."""
    return np.concatenate([bound for _, _, bound in blocks(rounds)], axis=-1)
