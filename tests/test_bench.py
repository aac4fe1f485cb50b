import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netconsensus import bench, cli, consensus, data, gossip, sbm, spectra


class TestFitReciprocal:
    def test_noiseless_recovery_free_pole(self):
        deltas = np.linspace(0.0, 0.08, 9)
        taus = 5.0 / (0.1 - deltas)
        fit = bench.fit_reciprocal(deltas, taus)
        assert fit.a == pytest.approx(5.0, abs=1e-6)
        assert fit.c == pytest.approx(0.1, abs=1e-6)
        assert fit.r2 > 1 - 1e-9
        assert not fit.pole_fixed

    def test_noiseless_recovery_fixed_pole(self):
        deltas = np.linspace(0.0, 0.08, 9)
        taus = 5.0 / (0.1 - deltas)
        fit = bench.fit_reciprocal(deltas, taus, fix_pole=0.1)
        assert fit.a == pytest.approx(5.0, abs=1e-9)
        assert fit.pole_fixed

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_noisy_recovery_within_five_percent(self, seed):
        rng = np.random.default_rng(seed)
        deltas = np.linspace(0.0, 0.08, 12)
        taus = 3.0 / (0.12 - deltas) * (1.0 + 0.01 * rng.standard_normal(12))
        fit = bench.fit_reciprocal(deltas, taus)
        assert fit.c == pytest.approx(0.12, rel=0.05)

    def test_insufficient_rows_rejected(self):
        with pytest.raises(bench.FitError):
            bench.fit_reciprocal(np.array([0.0, 0.1]), np.array([1.0, 2.0]))

    def test_pole_inside_data_rejected(self):
        deltas = np.array([0.0, 0.05, 0.1])
        with pytest.raises(bench.FitError):
            bench.fit_reciprocal(deltas, 1.0 / (0.2 - deltas), fix_pole=0.05)

    def test_inverse_lambda2_form(self):
        lam2 = np.array([0.8, 0.4, 0.2, 0.1, 0.05])
        taus = 3.0 / lam2
        fit = bench.fit_reciprocal(-lam2, taus, fix_pole=0.0)  # tau = a / (0 - (-lambda2))
        assert fit.a == pytest.approx(3.0, abs=1e-9)
        assert fit.r2 > 1 - 1e-12


class TestLogSpaced:
    def test_endpoints_inclusive(self):
        grid = bench.log_spaced(1e-3, 0.1, 12)
        assert grid[0] == pytest.approx(1e-3)
        assert grid[-1] == pytest.approx(0.1)
        assert len(grid) == 12

    def test_invalid_range(self):
        with pytest.raises(ValueError, match=r"^need 0 < lo <= hi < inf, got lo=0.0, hi=0.1$"):
            bench.log_spaced(0.0, 0.1, 5)

    @pytest.mark.parametrize("args, message", [
        ((0.2, 0.1, 5), r"need 0 < lo <= hi < inf, got lo=0.2, hi=0.1"),
        ((0.01, math.inf, 3), r"need 0 < lo <= hi < inf, got lo=0.01, hi=inf"),
        ((0.01, 0.1, -2), r"need num >= 0, got num=-2"),
    ], ids=["lo-above-hi", "infinite-hi", "negative-num"])
    def test_bad_grid_named_with_its_values(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            bench.log_spaced(*args)


def count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call; returns the record."""
    calls, func = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestSweep:
    def make_config(self, **overrides):
        base = dict(
            sizes=(25, 25), p_in=0.5, p_out_list=(0.2,), seeds_per_point=1,
            run=gossip.GadgetConfig(epsilon=1e-8, max_rounds=20_000), mode="scalar", seed=3,
        )
        base.update(overrides)
        return bench.SweepConfig(**base)

    def test_single_point_matches_single_run(self):
        rows = bench.sweep(self.make_config())
        assert len(rows) == 1
        row = rows[0]
        assert row.error is None
        assert row.delta == pytest.approx(0.3)
        assert row.tau_median is not None
        assert row.tau_iqr == 0.0
        assert row.censored == 0
        # the row's one run, redone outside the sweep from the same seed table
        model_seed, run_seed = bench._point_seeds(3, 1, 1)[0]
        model = sbm.make_two_level_model((25, 25), sbm.TwoLevelProbs(0.5, 0.2), model_seed)
        net, _ = sbm.sample_connected(model.with_seed(run_seed))
        x0 = consensus.random_initial_state(net.n, run_seed)
        assert row.tau_median == float(consensus.run(net, x0, 1e-8, max_rounds=20_000).tau_eps)

    def test_reproducible_rows(self):
        a = bench.sweep(self.make_config(seeds_per_point=2))
        b = bench.sweep(self.make_config(seeds_per_point=2))
        assert a == b

    def test_worker_count_does_not_change_results(self):
        cfg1 = self.make_config(p_out_list=(0.15, 0.3, 0.5), seeds_per_point=2)
        cfg4 = self.make_config(p_out_list=(0.15, 0.3, 0.5), seeds_per_point=2, workers=4)
        assert bench.sweep(cfg1) == bench.sweep(cfg4)

    def test_rows_reach_callback_as_each_point_finishes(self, monkeypatch):
        events = []
        point = bench._point

        def traced_point(cfg, p_out, seeds, dataset):
            events.append(("start", p_out))
            return point(cfg, p_out, seeds, dataset)

        monkeypatch.setattr(bench, "_point", traced_point)
        grid = (0.15, 0.3, 0.5)
        bench.sweep(self.make_config(p_out_list=grid), row_callback=lambda r: events.append(("row", r.p_out)))
        assert events == [(kind, p) for p in grid for kind in ("start", "row")]

        emitted = []
        bench.sweep(self.make_config(p_out_list=grid, workers=3), row_callback=lambda r: emitted.append(r.p_out))
        assert emitted == list(grid)

    def test_connectivity_computed_once_per_sampled_network(self, monkeypatch):
        import scipy.sparse.csgraph

        counts = {"sample": 0, "search": 0}
        sample, search = sbm.sample, scipy.sparse.csgraph.breadth_first_order

        def counted_sample(*args, **kwargs):
            counts["sample"] += 1
            return sample(*args, **kwargs)

        def counted_search(*args, **kwargs):
            counts["search"] += 1
            return search(*args, **kwargs)

        monkeypatch.setattr(sbm, "sample", counted_sample)
        monkeypatch.setattr(scipy.sparse.csgraph, "breadth_first_order", counted_search)
        rows = bench.sweep(self.make_config(seeds_per_point=2))
        assert rows[0].error is None and rows[0].censored == 0 and rows[0].tau_median is not None
        assert counts["sample"] >= 2
        assert counts["search"] == counts["sample"]

    def test_gadget_smoke_two_points(self):
        ds = data.make_blobs(300, 4, margin=2.0, seed=5)
        cfg = self.make_config(
            sizes=(10, 15), p_in=0.8, p_out_list=(0.2, 0.6), mode="gadget",
            run=gossip.GadgetConfig(epsilon=1e-8, max_rounds=20_000, learning_rounds=30),
        )
        rows = bench.sweep(cfg, dataset=ds)
        assert len(rows) == 2
        for row in rows:
            assert row.error is None
            assert row.tau_median is not None
            assert row.accuracy_mean is not None

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            self.make_config(mode="other")

    def test_p_out_range_validation(self):
        with pytest.raises(ValueError):
            self.make_config(p_out_list=(0.9,))

    def test_negative_seed_rejected_by_name(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            self.make_config(seed=-1)

    @pytest.mark.parametrize("overrides, message", [
        ({"p_in": 1.5}, r"p_in must be in \(0, 1\], got 1.5"),
        ({"p_in": 0.0}, r"p_in must be in \(0, 1\], got 0.0"),
        ({"sizes": (0, 10)}, r"sizes must be a nonempty list of sizes >= 1, got \[0, 10\]"),
        ({"sizes": ()}, r"sizes must be a nonempty list of sizes >= 1, got \[\]"),
        ({"seeds_per_point": 0}, r"seeds_per_point must be >= 1, got 0"),
    ], ids=["p_in-above-1", "p_in-zero", "size-zero", "no-sizes", "no-seeds"])
    def test_bad_model_rejected_by_name(self, overrides, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            self.make_config(**overrides)

    def sampled_networks(self, cfg):
        """The networks of the sweep's first point, sampled again from its seed table."""
        model_seed, *run_seeds = bench._point_seeds(cfg.seed, 1, cfg.seeds_per_point)[0]
        model = sbm.make_two_level_model(cfg.sizes, sbm.TwoLevelProbs(cfg.p_in, cfg.p_out_list[0]), model_seed)
        return [sbm.sample_connected(model.with_seed(s))[0] for s in run_seeds]

    @pytest.mark.parametrize("sizes, p_in, p_out", [
        ((700, 300), 0.1, 0.01),
        ((700, 300), 0.9, 0.002),
        ((300, 300, 300), 0.3, 0.01),
    ], ids=["fig3", "fig4", "three-communities"])
    def test_lambda2_from_the_tail_solve(self, monkeypatch, sizes, p_in, p_out):
        import scipy.sparse.linalg

        cfg = self.make_config(sizes=sizes, p_in=p_in, p_out_list=(p_out,), seeds_per_point=3,
                               run=gossip.GadgetConfig(epsilon=1e-10, max_rounds=60_000))
        expected = np.mean([spectra.lambda2_only(net) for net in self.sampled_networks(cfg)])
        solves = count_calls(monkeypatch, scipy.sparse.linalg, "eigsh")
        solved = count_calls(monkeypatch, spectra, "lambda2_only")
        row, = bench.sweep(cfg)
        assert row.error is None and row.censored == 0
        # one Lanczos solve per run: the consensus tail's
        assert (len(solves), len(solved)) == (3, 0)
        assert row.lambda2_emp == pytest.approx(expected, rel=1e-12)

    def test_negative_leading_mode_solves_for_lambda2(self, monkeypatch):
        # near-bipartite: the tail's one mode is the walk's most negative eigenvalue
        model = sbm.SbmModel((40, 40), np.array([[0.02, 0.5], [0.5, 0.02]]), 3)
        net, _ = sbm.sample_connected(model)
        result = consensus.run(net, consensus.random_initial_state(net.n, 3), 1e-10)
        assert result.tail_from is not None and result.lambda2 is None
        expected = spectra.lambda2_only(net)
        # a sweep point on that model, whose one run is the run above
        monkeypatch.setattr(bench, "make_two_level_model", lambda sizes, probs, seed: model)
        solved = count_calls(monkeypatch, spectra, "lambda2_only")
        cfg = self.make_config(sizes=(40, 40), p_out_list=(0.5,), run=gossip.GadgetConfig(epsilon=1e-10))
        row = bench._point(cfg, 0.5, [0, 3], None)
        assert row.tau_median == result.tau_eps
        assert row.lambda2_emp == expected
        assert len(solved) == 1

    def test_fallen_back_tail_solves_for_lambda2(self, monkeypatch):
        cfg = self.make_config(sizes=(700, 300), p_in=0.1, p_out_list=(0.01,), seeds_per_point=2,
                               run=gossip.GadgetConfig(epsilon=1e-10, max_rounds=60_000))
        expected = np.mean([spectra.lambda2_only(net) for net in self.sampled_networks(cfg)])
        # a margin of a whole epsilon leaves every tail uncertified
        monkeypatch.setattr(consensus, "MARGIN", 1.0)
        solved = count_calls(monkeypatch, spectra, "lambda2_only")
        row, = bench.sweep(cfg)
        assert len(solved) == 2
        assert row.lambda2_emp == expected

    def test_gadget_requires_dataset(self):
        with pytest.raises(ValueError):
            bench.sweep(self.make_config(mode="gadget"))

    def test_csv_roundtrip_and_byte_reproducibility(self, tmp_path):
        settings = {"sizes": [25, 25], "p_in": 0.5, "p_out_list": [0.2, 0.4], "seeds_per_point": 2,
                    "epsilon": 1e-8, "seed": 3, "max_rounds": 20_000}
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(json.dumps(settings))
        for run in ("a", "b"):
            assert cli.cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / run)]) == 0
        p1, p2 = tmp_path / "a" / "rows.csv", tmp_path / "b" / "rows.csv"
        assert p1.read_bytes() == p2.read_bytes()
        rows = bench.sweep(self.make_config(p_out_list=(0.2, 0.4), seeds_per_point=2))
        back = read_rows_csv(p1)
        assert [r["delta"] for r in back] == [r.delta for r in rows]
        assert [r["tau_median"] for r in back] == [r.tau_median for r in rows]


class TestDetectBifurcation:
    def test_out_of_range_for_merged_only_grid(self):
        with pytest.raises(bench.BifurcationRangeError):
            bench.detect_bifurcation([700, 300], 0.1, [0.005])

    def test_out_of_range_for_separated_only_grid(self):
        with pytest.raises(bench.BifurcationRangeError):
            bench.detect_bifurcation([700, 300], 0.1, [0.06, 0.08])

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            bench.detect_bifurcation([700, 300], 0.1, [0.05, 0.02])
        with pytest.raises(ValueError):
            bench.detect_bifurcation([700, 300], 0.1, [0.05, 0.2])

    def test_locates_transition_in_interior(self):
        delta1 = bench.detect_bifurcation([700, 300], 0.1, [0.01, 0.03, 0.05])
        assert 0.03 < delta1 < 0.05


finite = st.floats(allow_nan=False, allow_infinity=False)
any_float = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def sweep_rows(draw):
    return bench.SweepRow(
        delta=draw(finite),
        p_out=draw(finite),
        tau_median=draw(st.none() | any_float),
        tau_iqr=draw(st.none() | any_float),
        lambda2_emp=draw(st.none() | any_float),
        lambda2_pred=draw(any_float),
        lambdaL=draw(any_float),
        censored=draw(st.integers(0, 10**6)),
    )


def same_float(a, b):
    """Equal as written: None matches None, nan any nan, and -0.0 only -0.0."""
    if a is None or b is None:
        return a is None and b is None
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def read_rows_csv(path):
    """The records of a rows.csv: a float per column, None for an empty field, censored an int."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        assert tuple(reader.fieldnames) == cli.SWEEP_COLUMNS
        return [{k: int(v) if k == "censored" else float(v) if v else None for k, v in rec.items()}
                for rec in reader]


@settings(max_examples=60)
@given(st.lists(sweep_rows(), max_size=5))
def test_rows_csv_roundtrip_property(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("rows") / "rows.csv"
    cli._write_csv(path, cli.SWEEP_COLUMNS, ([getattr(r, k) for k in cli.SWEEP_COLUMNS] for r in rows))
    back = read_rows_csv(path)
    assert len(back) == len(rows)
    fields = ("delta", "p_out", "tau_median", "tau_iqr", "lambda2_emp", "lambda2_pred", "lambdaL")
    for got, want in zip(back, rows):
        for name in fields:
            assert same_float(got[name], getattr(want, name)), name
        assert got["censored"] == want.censored
