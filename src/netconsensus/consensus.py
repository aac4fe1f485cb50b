"""Synchronous scalar consensus x(t+1) = P x(t) and its convergence time.

P = D^{-1} A is the degree-normalized neighbor-averaging operator. Its
fixed point is known analytically: every node ends at the degree-weighted
mean of x0 (the random walk's stationary distribution pi_i = d_i / 2m), so
the simulator only tracks the sup-norm error and the round at which it
permanently drops below the threshold.

A run first iterates the pi-centred deviation e = x - x_star, re-centred
every round, so the shrinking error carries no round-off of x itself; each
round's A e is one Network.product, which walks a dense block's non-edges
instead of its edges. After a few rounds only the walk's slow modes are left.
At round spectra.SWITCH_ROUND, if its error is still above epsilon, the run
switches to the tail (_tail): each block of rounds that spectra.slow_modes
hands it is one small product over the slow modes' Ritz pairs, and the block's
bound on what they miss certifies each round's side of epsilon. With one slow
mode (two communities) the product is one row: the
node of largest |mode| holds the sup-norm peak of every round. Where there are
no such pairs (a tiny network) or it cannot certify a round, the loop continues
from the switch state; it stays the fallback and the oracle, unless the network
is bipartite and its start's part on the walk's eigenvalue -1 keeps every round
above epsilon, which ends the run censored at the switch round. A run whose tail
certified reads lambda2 from that solve where it holds it (ConsensusRun), so a
caller need not solve the same operator again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectra
from .gossip import GadgetConfig
from .sbm import Network

__all__ = [
    "ConsensusRun",
    "DivergentBoundError",
    "run",
    "tau_bound",
    "random_initial_state",
]

# rounds the error must stay below epsilon before tau is declared
CONFIRM_WINDOW = 50
# slack, in units of epsilon, for the round-off of the loop before the switch
# and of the tail's own evaluation (the centred loop is within ~2e-8 epsilon
# of a long-double oracle)
MARGIN = 1e-5


class DivergentBoundError(ValueError):
    """|mu2| >= 1: the spectral convergence bounds do not exist."""


@dataclass(eq=False)
class ConsensusRun:
    """Trajectory summary of one consensus run.

    x_star is the common value of the attracting fixed point (the pi-weighted
    mean of x0). tau_eps is None when the run was censored at max_rounds, or
    at the switch round on a bipartite network whose eigenvalue -1 keeps the
    error above epsilon for ever (_stuck); rounds is then that round, where
    the run stopped. error_trace[t], t = 0..rounds, is the relative sup-norm
    error after t rounds; after tail_from, the round at which the run switched
    to the slow-mode tail (None when every round ran on the loop), it holds the
    tail's estimates.
    lambda2 is 1 - max(theta) over the Ritz values theta of the deflated walk
    operator that the tail's Lanczos solve found (spectra.slow_modes). That
    solve finds the largest-magnitude values, so a positive maximum is the
    largest algebraic value, 1 - lambda2. It is None when no tail certified
    or max(theta) <= 0 (a negative leading mode).
    """

    x_star: float
    tau_eps: int | None
    error_trace: np.ndarray
    rounds: int
    tail_from: int | None = None
    lambda2: float | None = None

    @property
    def censored(self) -> bool:
        return self.tau_eps is None


def random_initial_state(n: int, seed: int) -> np.ndarray:
    """Default initial condition: i.i.d. uniform [0, 1] per node."""
    return np.random.default_rng(seed).random(n)


def run(net: Network, x0, epsilon: float, max_rounds: int = GadgetConfig.max_rounds) -> ConsensusRun:
    """Iterate neighbor averaging until the error criterion holds.

    tau_eps is the first round t* with relative sup-norm error <= epsilon
    that stays below epsilon for CONFIRM_WINDOW further rounds (negative walk
    eigenvalues make the error non-monotone, so a one-shot crossing is not
    enough). Runs that never confirm within max_rounds come back censored.
    The centred loop, the tail and its fallback are described in the module
    docstring.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be > 0 and finite, got {epsilon}")
    if max_rounds < 0:
        raise ValueError(f"max_rounds must be >= 0, got {max_rounds}")
    if not net.connected:
        raise ValueError("consensus requires a connected network")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (net.n,):
        raise ValueError(f"x0 must have shape ({net.n},)")
    if not np.isfinite(x0).all():
        raise ValueError(f"x0 must be finite, got {x0[~np.isfinite(x0)][0]} at node {np.isfinite(x0).argmin()}")

    deg = net.degrees.astype(float)
    # stationary distribution of P; a single node, which has no edges, holds all the mass
    pi = np.ones(1) if net.n == 1 else deg / deg.sum()
    x_star = float(pi @ x0)
    e = x0 - x_star
    denom = float(np.abs(e).max())
    if denom == 0.0:
        return ConsensusRun(x_star=x_star, tau_eps=0, error_trace=np.zeros(1), rounds=0)

    inv_deg = 1.0 / deg
    errors = [1.0]
    # the stop state, here and in _tail: the last round above epsilon; tau is the round after it
    above = 0
    for t in range(1, max_rounds + 1):
        e = inv_deg * net.product(e)
        e -= pi @ e
        err = float(np.abs(e).max()) / denom
        errors.append(err)
        if err <= epsilon:
            if t - above > CONFIRM_WINDOW:
                return ConsensusRun(x_star=x_star, tau_eps=above + 1, error_trace=np.asarray(errors), rounds=t)
        else:
            above = t
            if t == spectra.SWITCH_ROUND:
                tail = _tail(net, e, t, epsilon, denom, max_rounds)
                if tail is not None:
                    tau, rounds, tail_errors, top = tail
                    return ConsensusRun(x_star=x_star, tau_eps=tau, error_trace=np.asarray(errors + tail_errors),
                                        rounds=rounds, tail_from=t, lambda2=1.0 - top if top > 0 else None)
                if _stuck(net, pi, e) / denom - epsilon > MARGIN * epsilon:
                    return ConsensusRun(x_star=x_star, tau_eps=None, error_trace=np.asarray(errors), rounds=t)
    return ConsensusRun(x_star=x_star, tau_eps=None, error_trace=np.asarray(errors), rounds=max_rounds)


def _tail(net: Network, e, t0: int, epsilon: float, denom: float, max_rounds: int):
    """Rounds t0+1.. of a run from the walk's slow modes: (tau or None, rounds, errors, max theta).

    In y = D^{1/2} e the loop is y <- S' y with S' = D^{-1/2} A D^{-1/2} - u u^T
    (the re-centring removes the top eigenvector u). The Ritz pairs
    S' V ~ V diag(theta) that spectra.slow_modes gives for y0 = D^{1/2} e, with
    c = V^T y0, give round t0 + s of the loop as B a_s, B = D^{-1/2} V and
    a_s = diag(theta^s) c, up to the remainder bound; the same call's blocks
    hands over theta^s and that bound, and the tail keeps only its decision.
    With one mode each entry of B a_s is one rounded product B_i a_s, and
    rounding is monotone, so the row of largest |B_i| gives max_i |B_i a_s|
    exactly in every round and the product keeps only that row. Returns None,
    and the loop carries on from round t0, if there are no such pairs or any
    round's error lies within that bound + MARGIN * epsilon of epsilon.
    """
    sqrt_d = np.sqrt(net.degrees.astype(float))
    solve = spectra.slow_modes(net, sqrt_d * e)
    if solve is None:
        return None
    theta, vecs, coef, blocks = solve
    top = float(theta.max())
    basis = vecs / sqrt_d[:, None]
    if theta.size == 1:
        basis = basis[[np.abs(basis).argmax()]]
    # a y-space 2-norm bounds each |e_i| * sqrt(d_i), so max_i d_i^{-1/2} turns it into relative sup-norm error
    to_error = 1.0 / (float(sqrt_d.min()) * denom)
    errors: list[float] = []
    # the switch round's error is above epsilon
    above = t = t0
    for _, power, remainder in blocks(max_rounds - t0):
        estimate = np.abs(basis @ (coef[:, None] * power)).max(axis=0) / denom
        for err, slack in zip(estimate.tolist(), (to_error * remainder + MARGIN * epsilon).tolist()):
            if abs(err - epsilon) <= slack:
                return None
            t += 1
            errors.append(err)
            if err > epsilon:
                above = t
            elif t - above > CONFIRM_WINDOW:
                return above + 1, t, errors, top
    return None, max_rounds, errors, top


def _stuck(net: Network, pi, e) -> float:
    """A floor under max |e_i| in every later round: 0 unless net is bipartite, else |(pi c)^T e|.

    c = +-1 alternates over the levels of a search from node 0, and net is bipartite iff A c = -D c, exact
    in floats. Then pi c is a left eigenvector of P with eigenvalue -1, so (pi c)^T e only changes sign
    from round to round, and it bounds every round's max |e_i| from below, since the pi_i sum to 1.
    """
    colour = (np.arange(net.n) == 0).astype(float)
    frontier = colour != 0
    while frontier.any():
        sign = -colour[frontier][0]
        frontier = (net.product(frontier.astype(float)) > 0) & (colour == 0)
        colour[frontier] = sign
    return abs(float((pi * colour) @ e)) if np.array_equal(net.product(colour), -net.degrees * colour) else 0.0


def tau_bound(mu2_abs: float, epsilon: float):
    """Spectral round-count bounds (exact-rate and first-order).

    Both are returned as positive magnitudes |ln eps| / |ln mu2| and
    |ln eps| / (1 - mu2); epsilon >= 1 means already converged and gives 0.
    """
    mu2_abs = float(mu2_abs)
    epsilon = float(epsilon)
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be > 0 and finite, got {epsilon}")
    if not 0.0 <= mu2_abs < 1.0:
        raise DivergentBoundError(f"bounds require |mu2| < 1, got {mu2_abs}")
    if epsilon >= 1.0:
        return 0.0, 0.0
    log_eps = abs(math.log(epsilon))
    if mu2_abs == 0.0:
        return 0.0, log_eps
    return log_eps / abs(math.log(mu2_abs)), log_eps / (1.0 - mu2_abs)
