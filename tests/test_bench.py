import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netconsensus import bench, cli, consensus, data, sbm


class TestFitReciprocal:
    def test_noiseless_recovery_free_pole(self):
        deltas = np.linspace(0.0, 0.08, 9)
        taus = 5.0 / (0.1 - deltas)
        fit = bench.fit_reciprocal((deltas, taus))
        assert fit.a == pytest.approx(5.0, abs=1e-6)
        assert fit.c == pytest.approx(0.1, abs=1e-6)
        assert fit.r2 > 1 - 1e-9
        assert not fit.pole_fixed

    def test_noiseless_recovery_fixed_pole(self):
        deltas = np.linspace(0.0, 0.08, 9)
        taus = 5.0 / (0.1 - deltas)
        fit = bench.fit_reciprocal((deltas, taus), fix_pole=0.1)
        assert fit.a == pytest.approx(5.0, abs=1e-9)
        assert fit.pole_fixed

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_noisy_recovery_within_five_percent(self, seed):
        rng = np.random.default_rng(seed)
        deltas = np.linspace(0.0, 0.08, 12)
        taus = 3.0 / (0.12 - deltas) * (1.0 + 0.01 * rng.standard_normal(12))
        fit = bench.fit_reciprocal((deltas, taus))
        assert fit.c == pytest.approx(0.12, rel=0.05)

    def test_insufficient_rows_rejected(self):
        with pytest.raises(bench.FitError):
            bench.fit_reciprocal((np.array([0.0, 0.1]), np.array([1.0, 2.0])))

    def test_pole_inside_data_rejected(self):
        deltas = np.array([0.0, 0.05, 0.1])
        with pytest.raises(bench.FitError):
            bench.fit_reciprocal((deltas, 1.0 / (0.2 - deltas)), fix_pole=0.05)

    def test_sweep_rows_accepted(self):
        rows = [
            bench.SweepRow(delta=d, p_out=0.1 - d, tau_median=2.0 / (0.1 - d), tau_iqr=0.0,
                           lambda2_emp=None, lambda2_pred=0.5, lambdaL=0.8, censored=0)
            for d in (0.0, 0.02, 0.04, 0.06)
        ]
        fit = bench.fit_reciprocal(rows, fix_pole=0.1)
        assert fit.a == pytest.approx(2.0, abs=1e-9)

    def test_censored_rows_skipped(self):
        rows = [
            bench.SweepRow(delta=d, p_out=0.1 - d, tau_median=2.0 / (0.1 - d), tau_iqr=0.0,
                           lambda2_emp=None, lambda2_pred=0.5, lambdaL=0.8, censored=0)
            for d in (0.0, 0.02, 0.04)
        ]
        rows.append(bench.SweepRow(delta=0.09, p_out=0.01, tau_median=None, tau_iqr=None,
                                   lambda2_emp=None, lambda2_pred=0.1, lambdaL=0.8, censored=5))
        fit = bench.fit_reciprocal(rows, fix_pole=0.1)
        assert fit.a == pytest.approx(2.0, abs=1e-9)

    def test_inverse_lambda2_form(self):
        lam2 = np.array([0.8, 0.4, 0.2, 0.1, 0.05])
        taus = 3.0 / lam2
        fit = bench.fit_reciprocal((-lam2, taus), fix_pole=0.0)  # tau = a / (0 - (-lambda2))
        assert fit.a == pytest.approx(3.0, abs=1e-9)
        assert fit.r2 > 1 - 1e-12


class TestLogSpaced:
    def test_endpoints_inclusive(self):
        grid = bench.log_spaced(1e-3, 0.1, 12)
        assert grid[0] == pytest.approx(1e-3)
        assert grid[-1] == pytest.approx(0.1)
        assert len(grid) == 12

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            bench.log_spaced(0.0, 0.1, 5)


class TestSweep:
    def make_config(self, **overrides):
        base = dict(
            sizes=(25, 25), p_in=0.5, p_out_list=(0.2,), seeds_per_point=1,
            epsilon=1e-8, mode="scalar", base_seed=3, max_rounds=20_000,
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

        def traced_point(cfg, p_out, seeds, simulate):
            events.append(("start", p_out))
            return point(cfg, p_out, seeds, simulate)

        monkeypatch.setattr(bench, "_point", traced_point)
        grid = (0.15, 0.3, 0.5)
        bench.sweep(self.make_config(p_out_list=grid), row_callback=lambda r: events.append(("row", r.p_out)))
        assert events == [(kind, p) for p in grid for kind in ("start", "row")]

        emitted = []
        bench.sweep(self.make_config(p_out_list=grid, workers=3), row_callback=lambda r: emitted.append(r.p_out))
        assert emitted == list(grid)

    def test_connectivity_computed_once_per_sampled_network(self, monkeypatch):
        import scipy.sparse.csgraph

        counts = {"sample": 0, "components": 0}
        sample, components = sbm.sample, scipy.sparse.csgraph.connected_components

        def counted_sample(*args, **kwargs):
            counts["sample"] += 1
            return sample(*args, **kwargs)

        def counted_components(*args, **kwargs):
            counts["components"] += 1
            return components(*args, **kwargs)

        monkeypatch.setattr(sbm, "sample", counted_sample)
        monkeypatch.setattr(scipy.sparse.csgraph, "connected_components", counted_components)
        rows = bench.sweep(self.make_config(seeds_per_point=2))
        assert rows[0].error is None and rows[0].censored == 0 and rows[0].tau_median is not None
        assert counts["sample"] >= 2
        assert counts["components"] == counts["sample"]

    def test_gadget_smoke_two_points(self):
        ds = data.make_blobs(300, 4, margin=2.0, seed=5)
        cfg = self.make_config(
            sizes=(10, 15), p_in=0.8, p_out_list=(0.2, 0.6), mode="gadget",
            epsilon=1e-8, max_rounds=20_000, learning_rounds=30,
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

    def test_gadget_requires_dataset(self):
        with pytest.raises(ValueError):
            bench.sweep(self.make_config(mode="gadget"))

    def test_csv_roundtrip_and_byte_reproducibility(self, tmp_path):
        settings = {"sizes": [25, 25], "p_in": 0.5, "p_out_list": [0.2, 0.4], "seeds_per_point": 2,
                    "epsilon": 1e-8, "base_seed": 3, "max_rounds": 20_000}
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
