"""Experiment harness: community-strength sweeps, reciprocal-law fits, and
spectral-bifurcation detection.

A sweep fixes sizes and the within-community probability, walks a list of
between-community probabilities, and for each point runs the random-matrix
prediction once plus several seeded simulations (scalar consensus or the
decentralized SVM). Rows aggregate medians/IQRs so a stray near-bipartite
sample cannot skew a point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import consensus, gossip, rmt, spectra
from .data import LabeledDataset
from .sbm import TwoLevelProbs, make_two_level_model, sample_connected

__all__ = [
    "SweepConfig",
    "SweepRow",
    "ReciprocalFit",
    "FitError",
    "BifurcationRangeError",
    "sweep",
    "fit_reciprocal",
    "detect_bifurcation",
    "log_spaced",
]

# width of the final bisection bracket around the bifurcation point
BIFURCATION_TOL = 1e-4


class FitError(ValueError):
    """Fit rejected: too little data or pole inside the data range."""


class BifurcationRangeError(RuntimeError):
    """Every grid point sits in the same regime; no bifurcation to bracket."""


@dataclass
class SweepConfig:
    """One sweep specification.

    p_out_list values must lie in (0, p_in]. mode is "scalar" (consensus of
    random scalars) or "gadget" (decentralized SVM; pass the dataset to
    sweep() and record its origin in dataset_ref).
    """

    sizes: tuple
    p_in: float
    p_out_list: tuple
    seeds_per_point: int
    epsilon: float
    mode: str = "scalar"
    base_seed: int = 0
    max_rounds: int = 200_000
    workers: int = 1
    dataset_ref: str | None = None
    nu: float = 0.1
    steps_per_round: int = 1
    learning_rounds: int | None = 200

    def __post_init__(self) -> None:
        self.sizes = tuple(int(s) for s in self.sizes)
        self.p_out_list = tuple(float(p) for p in self.p_out_list)
        if self.mode not in ("scalar", "gadget"):
            raise ValueError(f"mode must be 'scalar' or 'gadget', got {self.mode!r}")
        if self.seeds_per_point < 1:
            raise ValueError("seeds_per_point must be >= 1")
        if not self.p_out_list:
            raise ValueError("p_out_list is empty: a sweep needs at least one point")
        for p in self.p_out_list:
            if not 0.0 < p <= self.p_in:
                raise ValueError(f"p_out={p} outside (0, p_in={self.p_in}]")


@dataclass
class SweepRow:
    """Aggregated result at one community-strength point."""

    delta: float
    p_out: float
    tau_median: float | None
    tau_iqr: float | None
    lambda2_emp: float | None
    lambda2_pred: float
    lambdaL: float
    censored: int
    accuracy_mean: float | None = None
    error: str | None = None


@dataclass
class ReciprocalFit:
    """Least-squares fit of tau = a / (c - delta)."""

    a: float
    c: float
    rss: float
    r2: float
    pole_fixed: bool


def log_spaced(lo: float, hi: float, num: int):
    """Log-spaced grid, inclusive of both endpoints."""
    if not 0 < lo <= hi:
        raise ValueError("need 0 < lo <= hi")
    return tuple(np.logspace(math.log10(lo), math.log10(hi), num).tolist())


def _point_seeds(base_seed: int, num_points: int, seeds_per_point: int):
    """Seed table derived once so results are independent of worker count."""
    root = np.random.SeedSequence(base_seed)
    points = root.spawn(num_points)
    return [[int(s.generate_state(1)[0]) for s in p.spawn(seeds_per_point + 1)] for p in points]


def _scalar_run(cfg: SweepConfig, net, run_seed: int):
    x0 = consensus.random_initial_state(net.n, run_seed)
    return consensus.run(net, x0, cfg.epsilon, max_rounds=cfg.max_rounds).tau_eps, None


def _gadget_run(cfg: SweepConfig, net, run_seed: int, dataset: LabeledDataset):
    gcfg = gossip.GadgetConfig(
        nu=cfg.nu,
        epsilon=cfg.epsilon,
        max_rounds=cfg.max_rounds,
        steps_per_round=cfg.steps_per_round,
        learning_rounds=cfg.learning_rounds,
        seed=run_seed,
        record_trace=False,
    )
    result = gossip.run_gadget(net, dataset, gcfg)
    return result.rounds_to_consensus, result.test_accuracy


def _point(cfg: SweepConfig, p_out: float, seeds, simulate) -> SweepRow:
    """One sweep point: the prediction, then simulate(cfg, net, run_seed) on
    one connected sample per run seed, which returns (rounds or None when
    censored, test accuracy or None)."""
    probs = TwoLevelProbs(cfg.p_in, p_out)
    model = make_two_level_model(cfg.sizes, probs, seeds[0])
    pred = rmt.predict(model, with_density=False)
    taus, lam2s, accs = [], [], []
    for run_seed in seeds[1:]:
        net, _ = sample_connected(model.with_seed(run_seed))
        lam2s.append(spectra.lambda2_only(net))
        tau, acc = simulate(cfg, net, run_seed)
        if tau is not None:
            taus.append(tau)
        if acc is not None:
            accs.append(acc)
    return SweepRow(
        delta=probs.delta,
        p_out=probs.p_out,
        tau_median=float(np.median(taus)) if taus else None,
        tau_iqr=float(np.percentile(taus, 75) - np.percentile(taus, 25)) if taus else None,
        lambda2_emp=float(np.mean(lam2s)),
        lambda2_pred=float(pred.predicted_lambda2),
        lambdaL=float(pred.support[0]),
        censored=len(lam2s) - len(taus),
        accuracy_mean=float(np.mean(accs)) if accs else None,
    )


def sweep(cfg: SweepConfig, dataset: LabeledDataset | None = None, row_callback=None):
    """Run every point of the sweep; rows come back in config order.

    Per-point failures are recorded in the row's error field and never abort
    the sweep. row_callback, when given, receives each row in config order
    as soon as it and every row before it have finished, so an incremental
    CSV keeps the finished rows of an interrupted sweep.
    """
    if cfg.mode == "gadget" and dataset is None:
        raise ValueError("gadget mode requires a dataset")
    seeds_table = _point_seeds(cfg.base_seed, len(cfg.p_out_list), cfg.seeds_per_point)
    simulate = _scalar_run if cfg.mode == "scalar" else functools.partial(_gadget_run, dataset=dataset)

    def job(idx_pout):
        idx, p_out = idx_pout
        try:
            return _point(cfg, p_out, seeds_table[idx], simulate)
        except Exception as exc:  # per-point isolation
            return SweepRow(
                delta=cfg.p_in - p_out, p_out=p_out, tau_median=None, tau_iqr=None,
                lambda2_emp=None, lambda2_pred=float("nan"), lambdaL=float("nan"),
                censored=0, error=f"{type(exc).__name__}: {exc}",
            )

    def collect(results):
        rows = []
        for row in results:
            if row_callback is not None:
                row_callback(row)
            rows.append(row)
        return rows

    jobs = list(enumerate(cfg.p_out_list))
    if cfg.workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            return collect(pool.map(job, jobs))
    return collect(map(job, jobs))


def _fit_with_pole(deltas, taus, c):
    u = 1.0 / (c - deltas)
    a = float((taus @ u) / (u @ u))
    rss = float(np.sum((taus - a * u) ** 2))
    return a, rss


def fit_reciprocal(rows, fix_pole: float | None = None) -> ReciprocalFit:
    """Least squares of tau against a / (c - delta).

    rows may be SweepRow objects (censored-only rows are skipped) or a
    (deltas, taus) pair of arrays. With fix_pole the problem reduces to a
    one-parameter linear fit; otherwise the pole is located by a bounded
    scalar minimization over c with the inner linear solve, constrained right
    of the data.
    """
    if isinstance(rows, tuple) and len(rows) == 2:
        deltas = np.asarray(rows[0], dtype=float)
        taus = np.asarray(rows[1], dtype=float)
    else:
        usable = [r for r in rows if r.tau_median is not None and r.error is None]
        deltas = np.array([r.delta for r in usable], dtype=float)
        taus = np.array([r.tau_median for r in usable], dtype=float)
    if deltas.size < 3:
        raise FitError(f"need >= 3 uncensored rows, got {deltas.size}")
    d_max = float(deltas.max())
    tss = float(np.sum((taus - taus.mean()) ** 2))

    if fix_pole is not None:
        c = float(fix_pole)
        if c <= d_max:
            raise FitError(f"fixed pole {c} is not right of the data (max delta {d_max})")
        a, rss = _fit_with_pole(deltas, taus, c)
        return ReciprocalFit(a=a, c=c, rss=rss, r2=_r2(rss, tss), pole_fixed=True)

    from scipy.optimize import minimize_scalar  # kept out of the CLI's import time

    span = max(d_max - float(deltas.min()), 1e-6)
    hi = d_max + 10.0 * span + 1.0
    best = minimize_scalar(lambda c: _fit_with_pole(deltas, taus, c)[1], bounds=(d_max + 1e-9, hi),
                           method="bounded", options={"xatol": 1e-12 * hi})
    c = float(best.x)
    a, rss = _fit_with_pole(deltas, taus, c)
    return ReciprocalFit(a=a, c=c, rss=rss, r2=_r2(rss, tss), pole_fixed=False)


def _r2(rss: float, tss: float) -> float:
    if tss == 0.0:
        return 1.0 if rss < 1e-30 else float("-inf")
    return 1.0 - rss / tss


def detect_bifurcation(sizes, p_in: float, delta_grid) -> float:
    """Largest community strength at which the isolated eigenvalue is still
    merged with the bulk, refined by bisection to BIFURCATION_TOL.

    The grid must be ascending and straddle both regimes; a grid entirely in
    one regime raises BifurcationRangeError.
    """
    grid = np.asarray(delta_grid, dtype=float)
    if grid.size < 1 or np.any(np.diff(grid) <= 0):
        raise ValueError("delta_grid must be strictly ascending")
    if grid.min() < 0 or grid.max() >= p_in:
        raise ValueError("delta values must lie in [0, p_in)")

    def merged(delta: float) -> bool:
        model = make_two_level_model(sizes, TwoLevelProbs(p_in, p_in - delta), seed=0)
        pred = rmt.predict(model, with_density=False)
        return pred.diagnostics.get("lambda2_source") == "bulk_edge"

    flags = [merged(d) for d in grid]
    if all(flags):
        raise BifurcationRangeError("grid entirely in the merged regime")
    if not any(flags):
        raise BifurcationRangeError("grid entirely in the separated regime")
    i_last = max(i for i, f in enumerate(flags) if f)
    if i_last == len(flags) - 1:
        raise BifurcationRangeError("merged regime extends past the top of the grid")

    lo, hi = float(grid[i_last]), float(grid[i_last + 1])
    while hi - lo > BIFURCATION_TOL:
        mid = 0.5 * (lo + hi)
        if merged(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)

