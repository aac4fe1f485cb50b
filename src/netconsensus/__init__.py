"""netconsensus: spectral prediction and consensus/gossip-learning simulation
for block-structured random networks.

The package predicts normalized-Laplacian spectra of stochastic-block-model
networks from K-dimensional resolvent fixed points, simulates scalar
consensus and gossip-based decentralized SVM training over sampled networks,
and ships a sweep harness relating convergence times to community strength.
"""

__version__ = "0.1.0"
