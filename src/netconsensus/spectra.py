"""Empirical spectra of sampled networks, and the slow-mode tail both simulators run on.

All spectral work happens on the symmetric normalized Laplacian
L = I - D^{-1/2} A D^{-1/2}; the random-walk matrix P = D^{-1} A is reached
through the exact mapping mu = 1 - lambda, never diagonalized directly.
Consensus's P and push-sum's (A + I) (D + I)^{-1} are similar to symmetric
operators (deflated_walk_operator), applied with the network's split product
(Network.product); lambda2_only and mu2_abs_only solve the walk operator for
one extreme value each, and at SWITCH_ROUND, one slow_modes call gives
each simulator's tail the certified slow modes of its start from one Lanczos
solve, the start's coefficients on them, and a bound on what they miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .sbm import Network

if TYPE_CHECKING:
    from scipy.sparse.linalg import LinearOperator

# ARPACK residual tolerance of lambda2_only
LAMBDA2_TOL = 1e-8
# ARPACK restart budget of lambda2_only, per node
LAMBDA2_ITERS_PER_NODE = 100
# the one round of a simulator's linear phase (push-sum's starts when learning
# ends) at which it weighs the switch to its tail, after the fast modes'
# transient. A consensus run above epsilon has CONFIRM_WINDOW rounds to go, more
# than the tail's set-up (~20 loop rounds on fig4's networks, ~40 on fig3's)
SWITCH_ROUND = 32
# ARPACK restarts the slow-mode solve may take before the run stays on its loop
TAIL_RESTARTS = 20
# rounds a tail evaluates per product
TAIL_BLOCK = 64

__all__ = [
    "SpectrumEmpirical",
    "EigensolverError",
    "normalized_laplacian_spectrum",
    "lambda2_only",
    "mu2_abs_only",
    "deflated_walk_operator",
    "slow_modes",
]


class EigensolverError(RuntimeError):
    """Iterative eigensolver failed to converge within its budget."""


@dataclass(frozen=True, eq=False)
class SpectrumEmpirical:
    """Ascending normalized-Laplacian eigenvalues with derived scalars.

    mu2_abs is the second-largest modulus among the mapped walk eigenvalues
    {1 - lambda_j}; second_mode_positive records whether that modulus came
    from the low end of the spectrum (1 - lambda_2 > 0), which the
    convergence-time bounds implicitly assume.
    """

    eigenvalues: np.ndarray
    lambda2: float
    mu2_abs: float
    second_mode_positive: bool


def _check_degrees(net: Network) -> None:
    if net.n == 0:
        raise ValueError("empty network")
    if (net.degrees == 0).any():
        bad = int(np.flatnonzero(net.degrees == 0)[0])
        raise ValueError(f"isolated node {bad}: normalized Laplacian undefined")


def normalized_laplacian_spectrum(net: Network) -> SpectrumEmpirical:
    """Full symmetric eigendecomposition (values only), ascending order."""
    _check_degrees(net)
    # dense L = I - D^{-1/2} A D^{-1/2}, built in place from A = M + R; 0 - 0 keeps the zeros positive
    inv_sqrt_d = 1.0 / np.sqrt(net.degrees.astype(float))
    lap = net.split.toarray()
    lap += np.repeat(np.repeat(net.dense_blocks, net.community_sizes, 0), net.community_sizes, 1)
    lap *= inv_sqrt_d[:, None]
    lap *= inv_sqrt_d
    np.subtract(0.0, lap, out=lap)
    lap.flat[:: net.n + 1] += 1.0
    vals = np.linalg.eigvalsh(lap)
    # _check_degrees leaves n >= 2: a node with an edge has a neighbour
    low = 1.0 - vals[1]
    high = 1.0 - vals[-1]
    return SpectrumEmpirical(
        eigenvalues=vals, lambda2=float(vals[1]), mu2_abs=float(max(abs(low), abs(high))),
        second_mode_positive=bool(abs(low) >= abs(high)),
    )


def lambda2_only(net: Network) -> float:
    """Second-smallest normalized-Laplacian eigenvalue via a deflated
    extremal iteration.

    Works on the symmetric product D^{-1/2} A D^{-1/2}, whose algebraically
    largest eigenvalue 1 (eigenvector sqrt(d)) is deflated away so ARPACK
    only has to find one well-separated extremal value. Falls back to the
    dense path for tiny graphs where the Lanczos basis cannot fit.
    """
    _check_degrees(net)
    if not _lanczos_fits(net.n, 1):
        return normalized_laplacian_spectrum(net).lambda2
    # the known top eigenpair (value 1) shifted down to -1
    return 1.0 - _deflated_extreme(net, 2.0, "LA", "lambda2")


def mu2_abs_only(net: Network) -> float:
    """|mu2| of SpectrumEmpirical, the second-largest modulus of the walk's
    eigenvalues, from one largest-magnitude iteration on D^{-1/2} A D^{-1/2}
    with its top eigenvalue 1 deflated to 0. Falls back to the dense path for
    tiny graphs, as lambda2_only does.
    """
    _check_degrees(net)
    if not _lanczos_fits(net.n, 1):
        return normalized_laplacian_spectrum(net).mu2_abs
    return abs(_deflated_extreme(net, 1.0, "LM", "mu2"))


def _deflated_extreme(net: Network, shift: float, which: str, name: str) -> float:
    """The one eigenvalue of deflated_walk_operator(net, shift) that ARPACK's
    which selects, to LAMBDA2_TOL; name goes into the EigensolverError."""
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    n = net.n
    budget = LAMBDA2_ITERS_PER_NODE * n
    # deterministic generic start; ARPACK's default random v0 breaks
    # run-to-run reproducibility of sweep outputs
    v0 = np.random.default_rng(0x5EED).standard_normal(n)
    try:
        vals = eigsh(deflated_walk_operator(net, shift), k=1, which=which, tol=LAMBDA2_TOL, maxiter=budget, v0=v0,
                     return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise EigensolverError(f"{name} iteration did not converge within {budget} iterations (n={n})") from exc
    return float(vals[0])


def deflated_walk_operator(net: Network, shift: float, loops: float = 0.0) -> LinearOperator:
    """S - shift * u u^T as a LinearOperator, with S = D'^{-1/2} (A + loops I) D'^{-1/2}.

    D' = D + loops I: loops 0 gives the walk's D^{-1/2} A D^{-1/2}, loops 1
    the symmetric form of push-sum's mixing matrix (A + I) D'^{-1}. A is
    applied as Network.product, the loops as loops times the vector.
    u = sqrt(d') / |sqrt(d')| is S's eigenvector of eigenvalue 1, which the
    shift moves to 1 - shift; every other eigenpair of S is kept.
    """
    from scipy.sparse.linalg import LinearOperator

    _check_degrees(net)
    sqrt_d = np.sqrt(net.degrees + float(loops))
    u = sqrt_d / np.linalg.norm(sqrt_d)
    inv_sqrt_d = 1.0 / sqrt_d

    def matvec(x):
        z = inv_sqrt_d * x
        y = net.product(z)
        if loops:
            y += loops * z
        y *= inv_sqrt_d
        return y - shift * u * (u @ x)

    return LinearOperator((net.n, net.n), matvec=matvec, dtype=float)


def _lanczos_fits(n: int, k: int) -> bool:
    """Whether a Lanczos basis for k eigenpairs fits a network of n nodes."""
    return n > max(16, 4 * k)


def slow_modes(net: Network, start: np.ndarray, loops: float = 0.0):
    """The slow modes of a tail's start y0, a vector (n,) or a block (n, c) in
    the walk's symmetric coordinates, and their bound: (theta, V, c, bound), or
    None.

    S' V ~ V diag(theta) are the k largest-magnitude Ritz pairs of
    S' = deflated_walk_operator(net, 1, loops) from one Lanczos solve from y0
    summed over its columns, with k = max(1, K - 1): one per community mode, a
    block model's slow modes. c = V^T y0, so V diag(theta^s) c estimates
    S'^s y0, and bound(s), over the rounds s >= 1, bounds
    |S'^s y - V diag(theta^s) V^T y| from above: one row over s for a vector
    y0, one row per column y of a block y0.

    Split y(s) = V a(s) + q(s) with q orthogonal to V. With
    R = S'V - V diag(theta) and r = |R| <= resid,
        a(s+1) = theta a(s) + R^T q(s),   q(s+1) = R a(s) + Q S' Q q(s),
    where Q S' Q, S' compressed to the complement of V, has norm at most
    rho = min |theta| + 2 resid as long as the solve found the
    largest-magnitude eigenvalues. |S'| <= 1 bounds |a|, |q| by |y0|; the bound's sums follow
    from unrolling both recurrences. None when the basis does not fit
    (_lanczos_fits), the solve does not converge within TAIL_RESTARTS
    restarts, or rho >= 1, where the other modes need not decay.
    """
    k = max(1, len(net.community_sizes) - 1)
    if not _lanczos_fits(net.n, k):
        return None
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    op = deflated_walk_operator(net, shift=1.0, loops=loops)
    block = start.reshape(len(start), -1)
    try:
        theta, vecs = eigsh(op, k=k, which="LM", v0=block.sum(axis=1), tol=0, maxiter=TAIL_RESTARTS)
    except ArpackNoConvergence:
        return None
    resid = float(np.linalg.norm([op.matvec(v) - lam * v for lam, v in zip(theta, vecs.T)]))
    rho = float(np.abs(theta).min()) + 2.0 * resid
    if rho >= 1.0:
        return None
    coef = vecs.T @ start
    cols = coef.reshape(k, -1)
    dropped = np.linalg.norm(block - vecs @ cols, axis=0)[:, None]
    size = np.abs(cols)
    y0_norm = np.linalg.norm(block, axis=0)[:, None]
    abs_theta = np.abs(theta)[:, None]
    gap = abs_theta - rho

    def bound(s):
        # sum_{j<s} rho^(s-1-j) |theta_i|^j, bounded two ways
        above = np.divide(abs_theta**s, gap, out=np.full((k, s.size), np.inf), where=gap > 0)
        leak = np.minimum(s * np.maximum(abs_theta, rho) ** (s - 1), above)
        second = resid * (dropped + resid * s * (size.sum(axis=0)[:, None] + y0_norm * (1.0 + resid * s))) / (1.0 - rho)
        return (rho**s * dropped + resid * (size.T @ leak) + second).reshape(start.shape[1:] + s.shape)

    return theta, vecs, coef, bound
