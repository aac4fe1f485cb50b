"""Empirical spectra of sampled networks.

All spectral work happens on the symmetric normalized Laplacian
L = I - D^{-1/2} A D^{-1/2}; the random-walk matrix P = D^{-1} A is reached
through the exact mapping mu = 1 - lambda, never diagonalized directly.
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

__all__ = [
    "SpectrumEmpirical",
    "EigensolverError",
    "normalized_laplacian_spectrum",
    "lambda2_only",
    "deflated_walk_operator",
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
    # dense L = I - D^{-1/2} A D^{-1/2}, built in place; 0 - 0 keeps the zeros positive
    inv_sqrt_d = 1.0 / np.sqrt(net.degrees.astype(float))
    lap = net.adjacency.toarray()
    lap *= inv_sqrt_d[:, None]
    lap *= inv_sqrt_d
    np.subtract(0.0, lap, out=lap)
    lap.flat[:: net.n + 1] += 1.0
    vals = np.linalg.eigvalsh(lap)
    lam2 = float(vals[1]) if net.n >= 2 else 0.0
    if net.n >= 2:
        low = 1.0 - vals[1]
        high = 1.0 - vals[-1]
        mu2 = float(max(abs(low), abs(high)))
        positive = bool(abs(low) >= abs(high))
    else:
        mu2, positive = 0.0, True
    return SpectrumEmpirical(
        eigenvalues=vals, lambda2=lam2, mu2_abs=mu2, second_mode_positive=positive
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
    n = net.n
    if n <= 16:
        return normalized_laplacian_spectrum(net).lambda2

    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    # the known top eigenpair (value 1) shifted down to -1
    op = deflated_walk_operator(net, shift=2.0)
    budget = LAMBDA2_ITERS_PER_NODE * n
    # deterministic generic start; ARPACK's default random v0 breaks
    # run-to-run reproducibility of sweep outputs
    v0 = np.random.default_rng(0x5EED).standard_normal(n)
    try:
        vals = eigsh(op, k=1, which="LA", tol=LAMBDA2_TOL, maxiter=budget, v0=v0, return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise EigensolverError(
            f"lambda2 iteration did not converge within {budget} iterations (n={n})"
        ) from exc
    return float(1.0 - vals[0])


def deflated_walk_operator(net: Network, shift: float) -> LinearOperator:
    """S - shift * u u^T as a LinearOperator, with S = D^{-1/2} A D^{-1/2}.

    u = sqrt(d) / |sqrt(d)| is S's eigenvector of eigenvalue 1, which the
    shift moves to 1 - shift; every other eigenpair of S is kept.
    """
    from scipy.sparse.linalg import LinearOperator

    _check_degrees(net)
    sqrt_d = np.sqrt(net.degrees.astype(float))
    u = sqrt_d / np.linalg.norm(sqrt_d)
    inv_sqrt_d = 1.0 / sqrt_d
    adj = net.adjacency

    def matvec(x):
        y = inv_sqrt_d * (adj @ (inv_sqrt_d * x))
        return y - shift * u * (u @ x)

    return LinearOperator((net.n, net.n), matvec=matvec, dtype=float)
