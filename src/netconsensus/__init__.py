"""netconsensus: spectral prediction and consensus/gossip-learning simulation
for block-structured random networks.

The package predicts normalized-Laplacian spectra of stochastic-block-model
networks from K-dimensional resolvent fixed points, simulates scalar
consensus and gossip-based decentralized SVM training over sampled networks,
and ships a sweep harness relating convergence times to community strength.
"""

__version__ = "0.1.0"

from . import bench, consensus, data, gossip, rmt, sbm, spectra
from .bench import SweepConfig, detect_bifurcation, fit_reciprocal, sweep
from .consensus import run as consensus_run
from .consensus import tau_bound
from .data import load_sparse_text, make_blobs, partition_equal
from .gossip import GadgetConfig, push_sum_round, run_gadget
from .rmt import predict as rmt_predict
from .sbm import SbmModel, TwoLevelProbs, make_two_level_model, sample
from .spectra import lambda2_only, normalized_laplacian_spectrum

__all__ = [
    "__version__",
    "bench",
    "consensus",
    "data",
    "gossip",
    "rmt",
    "sbm",
    "spectra",
    "SweepConfig",
    "detect_bifurcation",
    "fit_reciprocal",
    "sweep",
    "consensus_run",
    "tau_bound",
    "load_sparse_text",
    "make_blobs",
    "partition_equal",
    "GadgetConfig",
    "push_sum_round",
    "run_gadget",
    "rmt_predict",
    "SbmModel",
    "TwoLevelProbs",
    "make_two_level_model",
    "sample",
    "lambda2_only",
    "normalized_laplacian_spectrum",
]
