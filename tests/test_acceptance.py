"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Budgets are wall-clock
upper bounds; every tolerance is pinned in the assertions below.
"""

import csv
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

from conftest import adjacency
from netconsensus import bench, consensus, data, gossip, rmt, sbm, spectra
from netconsensus.cli import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@contextmanager
def criterion(num, label, budget_s):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num} [{label}]: FAIL ({time.time() - start:.1f}s)")
        raise
    elapsed = time.time() - start
    print(f"\nACCEPTANCE {num} [{label}]: PASS ({elapsed:.1f}s)")
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget: {elapsed:.1f}s"


def two_level(sizes, p_in, p_out, seed=0):
    return sbm.make_two_level_model(sizes, sbm.TwoLevelProbs(p_in, p_out), seed)


def sweep_rows(out):
    """rows.csv of a cli sweep as dicts of floats, None for an empty field."""
    with (out / "rows.csv").open(newline="") as fh:
        return [{k: None if v == "" else float(v) for k, v in rec.items()} for rec in csv.DictReader(fh)]


def config_sweep(name, out):
    """Settings and rows of `cli sweep` on a shipped config, which must not fail."""
    assert cli(["sweep", "--config", str(CONFIGS / name), "--out", str(out)]) == 0
    assert json.loads((out / "sweep.json").read_text())["failures"] == []
    return json.loads((CONFIGS / name).read_text()), sweep_rows(out)


# "tau_eps ~ O(lambda2^-1)", and lambda2 falls to 0 as the communities
# disconnect at p_out = 0: the second critical point delta2* = p_in is the pole
# of the reciprocal law tau ~ a / (delta2* - delta). A log-spaced sweep comes
# within p_out_lo of it, so a free fit must put the pole within p_out_lo of p_in.
def assert_free_pole_at_p_in(deltas, taus, settings):
    fit = bench.fit_reciprocal(deltas, taus)
    assert abs(fit.c - settings["p_in"]) <= settings["p_out_lo"]


def test_01_k1_closed_form():
    with criterion(1, "K=1 closed form", budget_s=10):
        n, p = 1000, 0.1
        model = two_level([n], p, p, seed=1)
        s2 = (1 - p) / (n * p)
        radius = 2 * np.sqrt(s2)
        lam_l, lam_r = rmt.support_boundaries(model)
        assert abs(lam_l - (1 - radius)) <= 1e-4
        assert abs(lam_r - (1 + radius)) <= 1e-4

        grid = np.linspace(1 - radius - 0.02, 1 + radius + 0.02, 241)
        density, diag = rmt.bulk_density(model, grid)
        assert not diag["failed_points"]
        semi = np.zeros_like(grid)
        inside = np.abs(grid - 1) < radius
        semi[inside] = np.sqrt(4 * s2 - (grid[inside] - 1) ** 2) / (2 * np.pi * s2)
        assert np.abs(density - semi).max() <= 1e-3 * semi.max()


def test_02_four_community_isolated_match():
    with criterion(2, "K=4 isolated eigenvalues vs one sample", budget_s=120):
        sizes = [143, 286, 571, 1000]  # proportional to [500,1000,2000,3500]
        model = two_level(sizes, 0.1, 0.02, seed=11)
        pred = rmt.predict(model, with_density=False)
        lam_l = pred.support[0]
        left = [v for v in pred.isolated if v < lam_l]
        assert len(left) == 4

        net, _ = sbm.sample_connected(model)
        spec = spectra.normalized_laplacian_spectrum(net)
        emp_isolated = spec.eigenvalues[spec.eigenvalues < lam_l]
        assert len(emp_isolated) == 4

        # trivial pair: empirical value is exactly 0 (walk stationarity)
        # while the predictor carries its bulk-repulsion offset, so the pair
        # is matched on the bulk-edge scale rather than 10% of zero
        assert abs(emp_isolated[0]) <= 1e-8
        assert abs(left[0] - emp_isolated[0]) <= 0.1 * lam_l
        for pred_v, emp_v in zip(left[1:], emp_isolated[1:]):
            assert abs(pred_v - emp_v) / abs(emp_v) <= 0.10


def test_03_consensus_bound_holds():
    with criterion(3, "tau <= ln(eps)/ln(mu2) + 1 on 20 sparse samples", budget_s=300):
        epsilon = 1e-10
        checked = 0
        for p_out in bench.log_spaced(1e-3, 0.1, 5):
            model = two_level([700, 300], 0.1, p_out, seed=101)
            for seed in range(4):
                net, _ = sbm.sample_connected(model.with_seed(1000 + seed))
                spec = spectra.normalized_laplacian_spectrum(net)
                x0 = consensus.random_initial_state(net.n, seed)
                result = consensus.run(net, x0, epsilon, max_rounds=60_000)
                assert not result.censored
                bound, _ = consensus.tau_bound(spec.mu2_abs, epsilon)
                assert result.tau_eps <= bound + 1
                checked += 1
        assert checked == 20


def test_04_reciprocal_law_sparse_sweep(tmp_path):
    with criterion(4, "fig3 config: reciprocal fit with pole at p_in", budget_s=900):
        settings, rows = config_sweep("fig3.cfg", tmp_path)
        usable = [r for r in rows if r["tau_median"] is not None]
        assert len(usable) >= 10

        deltas = [r["delta"] for r in usable]
        taus = [r["tau_median"] for r in usable]
        fit = bench.fit_reciprocal(deltas, taus, fix_pole=settings["p_in"])
        assert fit.r2 >= 0.9
        assert_free_pole_at_p_in(deltas, taus, settings)

        rho, _ = spearmanr(deltas, taus)
        assert rho >= 0.9

        # strong-community slowdown: > 5x between delta ~ 0.048 and the top
        by_delta = sorted(usable, key=lambda r: r["delta"])
        mid = min(by_delta, key=lambda r: abs(r["delta"] - 0.048))
        assert by_delta[-1]["tau_median"] / mid["tau_median"] > 5

        # predicted lambda2 tracks the sampled mean within 10% on average,
        # excluding the two rows closest to the merged/isolated flip where
        # the isolated value sits at the bulk edge and fluctuations dominate
        flip = next(
            (i for i in range(len(by_delta) - 1)
             if (by_delta[i]["lambda2_pred"] >= by_delta[i]["lambdaL"] - 1e-9)
             != (by_delta[i + 1]["lambda2_pred"] >= by_delta[i + 1]["lambdaL"] - 1e-9)),
            None,
        )
        excluded = {flip, flip + 1} if flip is not None else set()
        rel_errors = [
            abs(r["lambda2_pred"] - r["lambda2_emp"]) / r["lambda2_emp"]
            for i, r in enumerate(by_delta)
            if i not in excluded
        ]
        assert float(np.mean(rel_errors)) <= 0.10


def test_05_two_regime_structure():
    with criterion(5, "bifurcation splits flat and sensitive regimes", budget_s=600):
        sizes, p_in = (700, 300), 0.1
        grid = [0.004, 0.012, 0.02, 0.028, 0.04, 0.06, 0.08, 0.09]
        delta1 = bench.detect_bifurcation(sizes, p_in, grid)
        assert grid[0] < delta1 < grid[-1]

        lam2 = {
            d: rmt.predict(two_level(sizes, p_in, p_in - d), with_density=False).predicted_lambda2
            for d in grid
        }
        below = [lam2[d] for d in grid if d < delta1]
        above = [lam2[d] for d in grid if d > delta1]
        assert len(below) >= 2 and len(above) >= 2
        assert max(below) / min(below) - 1 < 0.05
        assert max(above) / min(above) > 2

        # delta -> delta2* = p_in: the isolated value collapses toward zero
        edge_model = two_level(sizes, p_in, 1e-3 * p_in)
        edge_pred = rmt.predict(edge_model, with_density=False)
        assert edge_pred.predicted_lambda2 < 0.1 * edge_pred.support[0]


def test_06_dense_vs_sparse_comparison():
    with criterion(6, "denser networks have wider sensitive range", budget_s=600):
        sparse_delta1 = bench.detect_bifurcation((700, 300), 0.1, [0.01, 0.02, 0.03, 0.05])
        dense_delta1 = bench.detect_bifurcation((700, 300), 0.9, [0.01, 0.03, 0.05, 0.1])
        assert dense_delta1 > sparse_delta1

        sparse_edge = rmt.support_boundaries(two_level((700, 300), 0.1, 0.1))[0]
        dense_edge = rmt.support_boundaries(two_level((700, 300), 0.9, 0.9))[0]
        assert abs(1 - dense_edge) < abs(1 - sparse_edge)


def test_07_push_sum_frozen_correctness():
    with criterion(7, "push-sum averaging at Fig-5 scale", budget_s=10):
        model = two_level([30, 70], 0.9, 0.1, seed=3)
        net, _ = sbm.sample_connected(model)
        rng = np.random.default_rng(0)
        init = rng.random((net.n, 8))
        pair = np.column_stack([init, np.ones(net.n)])  # [sums | psw]
        share = 1.0 / (net.degrees + 1.0)
        target = init.mean(axis=0)
        total = init.sum(axis=0)
        converged_at = None
        for rounds in range(1, 5001):
            pair = gossip._exchange(net, share, pair)
            sums, psw = pair[:, :-1], pair[:, -1]
            mass_s = sums.sum(axis=0)
            mass_w = psw.sum()
            assert np.abs(mass_s - total).max() <= 1e-10 * np.abs(total).max()
            assert abs(mass_w - net.n) <= 1e-10 * net.n
            err = np.abs(sums / psw[:, None] - target).max()
            if err <= 1e-10:
                converged_at = rounds
                break
        assert converged_at is not None


def test_08_gadget_reciprocal_shape(tmp_path):
    with criterion(8, "fig5 config: decentralized SVM sweep shape", budget_s=1800):
        _, rows = config_sweep("fig5.cfg", tmp_path)
        accuracy = json.loads((tmp_path / "sweep.json").read_text())["accuracy_mean"]
        usable = [i for i, r in enumerate(rows) if r["tau_median"] is not None]
        assert len(usable) >= 8

        deltas = [rows[i]["delta"] for i in usable]
        taus = [rows[i]["tau_median"] for i in usable]
        rho, _ = spearmanr(deltas, taus)
        assert rho >= 0.8

        fit = bench.fit_reciprocal(deltas, taus)
        assert fit.r2 >= 0.85
        assert fit.c > max(deltas)

        accuracies = [accuracy[i] for i in usable]
        assert max(accuracies) - min(accuracies) < 0.03


def test_09_property_suites():
    with criterion(9, "cross-module property suite", budget_s=300):
        # sbm: blockwise edge statistics within 4 sigma
        net = sbm.sample(two_level([700, 300], 0.1, 0.02, seed=5))
        both_first = (net.edges < 700).all(axis=1)
        mean = 700 * 699 / 2 * 0.1
        std = np.sqrt(mean * 0.9)
        assert abs(int(both_first.sum()) - mean) < 4 * std

        # spectra: trace identity
        small_net, _ = sbm.sample_connected(two_level([100, 100], 0.3, 0.1, seed=6))
        spec = spectra.normalized_laplacian_spectrum(small_net)
        assert spec.eigenvalues.sum() == pytest.approx(small_net.n, rel=1e-10)

        # consensus: conservation of the pi-weighted mean, on a dense P = D^-1 A
        # iteration that also reproduces the run's error trace
        pi = small_net.degrees / small_net.degrees.sum()
        x0 = consensus.random_initial_state(small_net.n, 2)
        run = consensus.run(small_net, x0, 1e-10)
        adj = adjacency(small_net).toarray()
        walk = adj / adj.sum(axis=1)[:, None]
        states = [x0]
        for _ in range(run.rounds):
            states.append(walk @ states[-1])
        states = np.asarray(states)
        inner = states @ pi
        assert np.abs(inner - inner[0]).max() <= 1e-10 * abs(inner[0])
        oracle_errors = np.abs(states - run.x_star).max(axis=1) / np.abs(x0 - run.x_star).max()
        assert np.abs(run.error_trace - oracle_errors).max() <= 1e-13
        assert oracle_errors[run.tau_eps :].max() <= 1e-10

        # rmt: resolvent sign and lambda2 monotonicity in delta
        model = two_level([700, 300], 0.1, 0.02)
        kern = rmt._kernel(model)
        z = np.linspace(0.75, 1.25, 7) + 1e-3j
        t, _res, _iters, ok = rmt._solve(kern, z, rmt._default_t0(kern, z), rmt.DEFAULT_MAX_ITERS, rmt.DEFAULT_TOL)
        assert ok.all() and np.all(t.imag <= 1e-12)
        lam2 = [
            rmt.predict(two_level([700, 300], 0.1, 0.1 - d), with_density=False).predicted_lambda2
            for d in (0.0, 0.03, 0.06, 0.09)
        ]
        assert all(b <= a + 1e-6 for a, b in zip(lam2, lam2[1:]))

        # data: partition is a set partition
        ds = data.make_blobs(1000, 4, margin=1.0, seed=7)
        joined = np.concatenate(data.partition_equal(ds, 37, seed=8))
        assert len(joined) == 1000 and len(np.unique(joined)) == 1000


def test_10_reciprocal_law_dense_sweep(tmp_path):
    with criterion(10, "fig4 config: reciprocal fit with pole at p_in, lambda2 tracked", budget_s=900):
        settings, rows = config_sweep("fig4.cfg", tmp_path)
        assert len(rows) == 12
        assert all(r["censored"] == 0 for r in rows)

        deltas = [r["delta"] for r in rows]
        taus = [r["tau_median"] for r in rows]
        fit = bench.fit_reciprocal(deltas, taus, fix_pole=settings["p_in"])
        assert fit.r2 >= 0.9
        assert_free_pole_at_p_in(deltas, taus, settings)
        rho, _ = spearmanr(deltas, taus)
        assert rho >= 0.9

        # predicted lambda2 tracks the sampled mean within 10% on average
        pred, emp = np.array([[r["lambda2_pred"], r["lambda2_emp"]] for r in rows]).T
        rho, _ = spearmanr(pred, emp)
        assert rho >= 0.9
        assert float(np.mean(np.abs(pred - emp) / emp)) <= 0.10


def test_11_first_critical_point_on_simulated_tau(tmp_path):
    # "there exists a critical level of community structure at which tau_eps
    # reaches a lower bound and is no longer limited by the presence of
    # communities": on the fig3 model, a linear delta grid straddling delta1*
    with criterion(11, "fig3 model: tau flat below delta1*, rising above", budget_s=120):
        settings = json.loads((CONFIGS / "fig3.cfg").read_text())
        sizes, p_in = settings["sizes"], settings["p_in"]
        delta1 = bench.detect_bifurcation(sizes, p_in, np.linspace(0.01, 0.09, 8).tolist())
        grid = np.linspace(0.0, 0.07, 9)
        assert grid[2] < delta1 < grid[-3]
        for key in ("p_out_lo", "p_out_hi", "p_out_num"):
            del settings[key]
        cfg = tmp_path / "fig3-linear.cfg"
        cfg.write_text(json.dumps({**settings, "p_out_list": (p_in - grid).tolist()}))
        assert cli(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        rows = sweep_rows(tmp_path)
        assert all(r["censored"] == 0 for r in rows)
        below = [r for r in rows if r["delta"] < delta1]
        above = [r for r in rows if r["delta"] > delta1]
        taus_below = [r["tau_median"] for r in below]
        taus_above = [r["tau_median"] for r in above]

        # flat: below delta1* tau does not depend on delta, to the one-round
        # resolution of a round count
        assert max(taus_below) - min(taus_below) <= 1
        # "lambda_2 generally increases (i.e., tau_eps decreases) as one
        # decreases the extent of community structure": above delta1* tau
        # rises with delta (test_04's rank bound) and leaves the flat band
        rho, _ = spearmanr([r["delta"] for r in above], taus_above)
        assert rho >= 0.9
        assert taus_above[-1] > max(taus_below) + 1
        # below delta1* lambda2 is pinned at the bulk edge: the predictor puts
        # it there, and the sampled mean lies within the 10% by which
        # test_04 and test_10 track the predicted lambda2
        for r in below:
            assert r["lambda2_pred"] == r["lambdaL"]
            assert abs(r["lambda2_emp"] - r["lambdaL"]) <= 0.10 * r["lambdaL"]
