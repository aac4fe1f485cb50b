"""Synchronous scalar consensus x(t+1) = P x(t) and its convergence time.

P is the degree-normalized neighbor-averaging operator. The fixed point is
known analytically from the stationary distribution, so the simulator only
tracks the sup-norm error and the round at which it permanently drops below
the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sbm import Network, is_connected

__all__ = [
    "StationaryDist",
    "ConsensusRun",
    "DivergentBoundError",
    "stationary",
    "run",
    "tau_bound",
    "random_initial_state",
]

# rounds the error must stay below epsilon before tau is declared
CONFIRM_WINDOW = 50


class DivergentBoundError(ValueError):
    """|mu2| >= 1: the spectral convergence bounds do not exist."""


@dataclass(frozen=True, eq=False)
class StationaryDist:
    """Stationary distribution of the random walk: pi_i = d_i / (2 m)."""

    pi: np.ndarray


@dataclass(eq=False)
class ConsensusRun:
    """Trajectory summary of one consensus run.

    x_star is the common value of the attracting fixed point (the pi-weighted
    mean of x0). tau_eps is None when the run was censored at max_rounds.
    error_trace[t] is the relative sup-norm error after t rounds.
    """

    x0: np.ndarray
    x_star: float
    tau_eps: int | None
    error_trace: np.ndarray
    epsilon: float
    censored: bool
    rounds: int
    trajectory: np.ndarray | None = None


def stationary(net: Network) -> StationaryDist:
    """Degree-proportional stationary distribution of P = D^{-1} A; a single
    node, which has no edges, holds all the mass."""
    if not is_connected(net):
        raise ValueError("stationary distribution requires a connected network")
    if net.n == 1:
        return StationaryDist(pi=np.ones(1))
    deg = net.degrees.astype(float)
    return StationaryDist(pi=deg / deg.sum())


def random_initial_state(n: int, seed: int) -> np.ndarray:
    """Default initial condition: i.i.d. uniform [0, 1] per node."""
    return np.random.default_rng(seed).random(n)


def run(net: Network, x0, epsilon: float, max_rounds: int = 100_000,
        keep_trajectory: bool = False) -> ConsensusRun:
    """Iterate neighbor averaging until the error criterion holds.

    tau_eps is the first round t* with relative sup-norm error <= epsilon
    that stays below epsilon for CONFIRM_WINDOW further rounds (negative walk
    eigenvalues make the error non-monotone, so a one-shot crossing is not
    enough). Runs that never confirm within max_rounds come back censored.
    keep_trajectory stores every state vector (row t = x(t)); leave it off
    for long runs.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not is_connected(net):
        raise ValueError("consensus requires a connected network")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (net.n,):
        raise ValueError(f"x0 must have shape ({net.n},)")

    pi = stationary(net).pi
    x_star = float(pi @ x0)
    denom = float(np.abs(x0 - x_star).max())
    if denom == 0.0:
        return ConsensusRun(
            x0=x0, x_star=x_star, tau_eps=0, error_trace=np.zeros(1), epsilon=epsilon,
            censored=False, rounds=0,
            trajectory=x0[None, :].copy() if keep_trajectory else None,
        )

    adj = net.adjacency()
    inv_deg = 1.0 / net.degrees.astype(float)
    x = x0.copy()
    errors = [1.0]
    states = [x0.copy()] if keep_trajectory else None
    candidate: int | None = None
    for t in range(1, max_rounds + 1):
        x = inv_deg * (adj @ x)
        if keep_trajectory:
            states.append(x.copy())
        err = float(np.abs(x - x_star).max()) / denom
        errors.append(err)
        if err <= epsilon:
            if candidate is None:
                candidate = t
            elif t - candidate >= CONFIRM_WINDOW:
                return ConsensusRun(
                    x0=x0, x_star=x_star, tau_eps=candidate,
                    error_trace=np.asarray(errors), epsilon=epsilon,
                    censored=False, rounds=t,
                    trajectory=np.asarray(states) if keep_trajectory else None,
                )
        else:
            candidate = None
    return ConsensusRun(
        x0=x0, x_star=x_star, tau_eps=None, error_trace=np.asarray(errors),
        epsilon=epsilon, censored=True, rounds=max_rounds,
        trajectory=np.asarray(states) if keep_trajectory else None,
    )


def tau_bound(mu2_abs: float, epsilon: float):
    """Spectral round-count bounds (exact-rate and first-order).

    Both are returned as positive magnitudes |ln eps| / |ln mu2| and
    |ln eps| / (1 - mu2); epsilon >= 1 means already converged and gives 0.
    """
    mu2_abs = float(mu2_abs)
    epsilon = float(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not 0.0 <= mu2_abs < 1.0:
        raise DivergentBoundError(f"bounds require |mu2| < 1, got {mu2_abs}")
    if epsilon >= 1.0:
        return 0.0, 0.0
    log_eps = abs(math.log(epsilon))
    if mu2_abs == 0.0:
        return 0.0, log_eps
    return log_eps / abs(math.log(mu2_abs)), log_eps / (1.0 - mu2_abs)
