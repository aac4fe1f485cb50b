import csv
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from netconsensus import bench, consensus, gossip, rmt, sbm, spectra
from netconsensus.cli import SWEEP_COLUMNS, cli
from test_bench import read_rows_csv, same_float


def test_unknown_subcommand_exits_2(capsys):
    assert cli(["frobnicate"]) == 2


def test_no_arguments_exits_2():
    assert cli([]) == 2


def test_version_flag_exits_0(capsys):
    assert cli(["--version"]) == 0


def test_sample_writes_loadable_network(tmp_path):
    out = tmp_path / "o"
    rc = cli(["sample", "--sizes", "10,10", "--p-in", "0.8", "--p-out", "0.3",
              "--seed", "3", "--out", str(out), "--connected"])
    assert rc == 0
    net = sbm.load_edge_list(out / "network.txt")
    assert net.n == 20
    doc = json.loads((out / "sample.json").read_text())
    assert doc["connected"] is True


def test_spectrum_from_edge_list(tmp_path):
    out = tmp_path / "o"
    cli(["sample", "--sizes", "12,12", "--p-in", "0.9", "--p-out", "0.4",
         "--seed", "1", "--out", str(out), "--connected"])
    rc = cli(["spectrum", "--net", str(out / "network.txt"), "--bins", "20", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "spectrum.json").read_text())
    assert 0.0 < doc["lambda2"] < 2.0
    eig_lines = (out / "eigenvalues.csv").read_text().splitlines()
    assert len(eig_lines) == 24
    hist = json.loads((out / "histogram.json").read_text())
    assert len(hist["bin_edges"]) == 21
    assert sum(hist["counts"]) == 24


def test_sample_writes_edge_list_and_sidecar_only(tmp_path):
    out = tmp_path / "o"
    assert cli(["sample", "--sizes", "6,6", "--p-in", "0.9", "--p-out", "0.3", "--seed", "4",
                "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["network.txt", "sample.json"]


@pytest.mark.parametrize("config, flags, ignored", [
    ({}, ["--sizes", "500,500", "--p-in", "0.1", "--p-out", "0.01", "--seed", "9"], "sizes, p_in, p_out, seed"),
    ({"seed": 3, "bins": 10}, ["--p-in", "0.5"], "p_in, seed"),
], ids=["flags", "config"])
def test_spectrum_net_rejects_model_settings(tmp_path, capsys, config, flags, ignored):
    out = tmp_path / "o"
    cli(["sample", "--sizes", "6,6", "--p-in", "0.9", "--p-out", "0.3", "--seed", "1", "--out", str(out)])
    cfg = tmp_path / "c.cfg"
    cfg.write_text(json.dumps(config))
    rc = cli(["spectrum", "--config", str(cfg), "--net", str(out / "network.txt"), *flags,
              "--out", str(tmp_path / "s")])
    assert rc == 1
    assert f"model settings {ignored}" in capsys.readouterr().err
    assert not (tmp_path / "s" / "eigenvalues.csv").exists()


def test_spectrum_net_rejects_json_naming_the_file(tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"n": 2, "sizes": [2], "edges": [[0, 1]]}))
    assert cli(["spectrum", "--net", str(path), "--out", str(tmp_path / "s")]) == 1
    assert f"{path}:1:" in capsys.readouterr().err


@pytest.mark.parametrize("text, where", [
    ("3 1 3\n0 1\n1 5\n", "3: pair 1 (1, 5): edge endpoint out of range 0..2"),
    ("3 1 3\n1 1\n", "2: pair 0 (1, 1): self-edges are not allowed"),
    ("3 1 3\n0 1\n\n1 0\n", "4: pair 1 (1, 0): duplicate edges are not allowed"),
    ("3 2 0 3\n1 2\n", "1: community sizes must be a nonempty list of sizes >= 1, got (0, 3)"),
], ids=["out-of-range", "self-edge", "duplicate", "empty-community"])
def test_spectrum_net_names_the_rejected_line(tmp_path, capsys, text, where):
    path = tmp_path / "net.txt"
    path.write_text(text)
    assert cli(["spectrum", "--net", str(path), "--out", str(tmp_path / "s")]) == 1
    assert capsys.readouterr().err == f"error: {path}:{where}\n"


def test_predict_with_config_file(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(json.dumps({"sizes": [40, 40], "p_in": 0.5, "p_out": 0.1, "seed": 2}))
    out = tmp_path / "o"
    rc = cli(["predict", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "prediction.json").read_text())
    assert doc["lambdaL"] < doc["lambdaR"]
    assert len(doc["isolated"]) == 2
    assert (out / "prediction.csv").exists()


def test_predict_grid_points_computes_density_once(tmp_path, monkeypatch):
    calls = []
    density = rmt.bulk_density

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return density(*args, **kwargs)

    monkeypatch.setattr(rmt, "bulk_density", counted)
    out = tmp_path / "o"
    rc = cli(["predict", "--sizes", "40,40", "--p-in", "0.5", "--p-out", "0.1",
              "--grid-points", "101", "--out", str(out)])
    assert rc == 0
    assert calls == [101]
    assert len((out / "prediction.csv").read_text().splitlines()) == 1 + 101
    assert len(json.loads((out / "prediction.json").read_text())["grid"]) == 101


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(json.dumps({"sizes": [6, 6], "p_in": 0.9, "p_out": 0.9, "seed": 1}))
    out = tmp_path / "o"
    rc = cli(["sample", "--config", str(cfg), "--out", str(out), "--seed", "77"])
    assert rc == 0
    assert json.loads((out / "sample.json").read_text())["seed"] == 77


def test_consensus_summary_schema(tmp_path):
    out = tmp_path / "o"
    rc = cli(["consensus", "--sizes", "15,15", "--p-in", "0.8", "--p-out", "0.3",
              "--seed", "4", "--epsilon", "1e-8", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "consensus.json").read_text())
    for key in ("n", "K", "p_in", "p_out", "delta", "epsilon", "tau_eps",
                "censored", "tail_from", "lambda2_empirical", "mu2_abs"):
        assert key in doc
    assert doc["censored"] is False
    assert doc["tail_from"] is None  # tau is a few rounds: the run stays on the loop
    trace = (out / "consensus_trace.csv").read_text().splitlines()
    assert trace[0] == "round,error"


def test_consensus_on_a_bipartite_sample_stops_at_the_switch_round(tmp_path):
    # this model's connected sample is bipartite: the run used to iterate all 200,000 default rounds
    out = tmp_path / "o"
    assert cli(["consensus", "--sizes", "10,10", "--p-in", "0.25", "--p-out", "0.1", "--seed", "280",
                "--out", str(out)]) == 0
    doc = json.loads((out / "consensus.json").read_text())
    assert (doc["censored"], doc["tau_eps"], doc["tail_from"], doc["mu2_abs"]) == (True, None, None, 1.0)
    trace = (out / "consensus_trace.csv").read_text().splitlines()
    assert trace[0] == "round,error" and len(trace) == spectra.SWITCH_ROUND + 2
    assert trace[-1].startswith(f"{spectra.SWITCH_ROUND},")


def test_gadget_run_and_trace(tmp_path):
    out = tmp_path / "o"
    rc = cli(["gadget", "--sizes", "8,8", "--p-in", "0.9", "--p-out", "0.5",
              "--seed", "5", "--dataset", "blobs:200:4:2.0:7", "--epsilon", "1e-7",
              "--max-rounds", "5000", "--learning-rounds", "20", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "gadget.json").read_text())
    assert doc["censored"] is False
    header = (out / "gadget_trace.csv").read_text().splitlines()[0]
    assert header == "round,max_pairwise_gap,objective,accuracy"


def test_gadget_reports_the_switch_to_the_tail(tmp_path):
    # 50 learning rounds: the run weighs the switch at round 82, takes the tail
    # and stops at round 256, and its trace has a row for every round
    out = tmp_path / "o"
    assert cli(["gadget", "--sizes", "40,20", "--p-in", "0.5", "--p-out", "0.02", "--seed", "3",
                "--dataset", "blobs:400:6:1.0:1", "--epsilon", "1e-10", "--learning-rounds", "50",
                "--out", str(out)]) == 0
    doc = json.loads((out / "gadget.json").read_text())
    assert (doc["tail_from"], doc["rounds_to_consensus"]) == (50 + spectra.SWITCH_ROUND, 256)
    trace = _csv_records(out / "gadget_trace.csv", ["round", "max_pairwise_gap", "objective", "accuracy"])
    assert [r[0] for r in trace] == list(range(1, 257))
    assert trace[-1][1] < 1e-10 <= trace[-2][1]


def test_sweep_then_fit_pipeline(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(json.dumps({
        "mode": "scalar", "sizes": [20, 20], "p_in": 0.6,
        "p_out_list": [0.1, 0.2, 0.35, 0.55], "seeds_per_point": 1,
        "epsilon": 1e-8, "seed": 9, "max_rounds": 20000,
    }))
    out = tmp_path / "o"
    assert cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    with (out / "rows.csv").open(newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 4
    sidecar = json.loads((out / "sweep.json").read_text())
    assert sidecar["rows"] == 4
    assert sidecar["config"]["run"] == {"nu": 0.1, "epsilon": 1e-8, "max_rounds": 20000, "steps_per_round": 1,
                                        "learning_rounds": 200}
    assert "timestamp" in sidecar

    assert cli(["fit", "--rows", str(out / "rows.csv"), "--fix-pole", "0.6",
                "--out", str(out)]) == 0
    fit = json.loads((out / "fit.json").read_text())
    assert fit["pole_fixed"] is True
    assert np.isfinite(fit["a"])


SWEEP_SETTINGS = {"sizes": [20, 20], "p_in": 0.6, "p_out_list": [0.2, 0.4], "seeds_per_point": 1,
                  "epsilon": 1e-8, "seed": 9, "max_rounds": 20000}


def test_sweep_rows_csv_matches_sweep_rows(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(json.dumps(SWEEP_SETTINGS))
    out = tmp_path / "o"
    assert cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    run = gossip.GadgetConfig(epsilon=SWEEP_SETTINGS["epsilon"], max_rounds=SWEEP_SETTINGS["max_rounds"])
    rows = bench.sweep(bench.SweepConfig(sizes=SWEEP_SETTINGS["sizes"], p_in=SWEEP_SETTINGS["p_in"],
                                         p_out_list=SWEEP_SETTINGS["p_out_list"], seeds_per_point=1,
                                         run=run, seed=SWEEP_SETTINGS["seed"]))
    back = read_rows_csv(out / "rows.csv")
    assert len(back) == len(rows) == 2
    for got, want in zip(back, rows):
        for name in SWEEP_COLUMNS:
            assert same_float(got[name], getattr(want, name)), name


def test_tail_sweep_rows_independent_of_workers(tmp_path, monkeypatch):
    run, tails = consensus.run, []

    def spy(*args, **kwargs):
        result = run(*args, **kwargs)
        tails.append(result.tail_from)
        return result

    monkeypatch.setattr(consensus, "run", spy)
    settings = {"mode": "scalar", "sizes": [60, 40], "p_in": 0.5, "p_out_list": [0.01, 0.012, 0.2],
                "seeds_per_point": 2, "epsilon": 1e-10, "seed": 9, "max_rounds": 20000}
    written = []
    for workers in (1, 2):
        cfg = tmp_path / f"w{workers}.cfg"
        cfg.write_text(json.dumps({**settings, "workers": workers}))
        assert cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / f"w{workers}")]) == 0
        written.append((tmp_path / f"w{workers}" / "rows.csv").read_bytes())
    assert written[0] == written[1]
    assert sum(tail is not None for tail in tails) >= 4


def test_interrupted_sweep_keeps_finished_rows(tmp_path, monkeypatch):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(json.dumps(SWEEP_SETTINGS))
    assert cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "full")]) == 0
    expected = "".join((tmp_path / "full" / "rows.csv").read_text().splitlines(keepends=True)[:2])

    point, rows_csv = bench._point, tmp_path / "cut" / "rows.csv"
    calls, on_disk = [], []

    def interrupted(*args):
        calls.append(args)
        if len(calls) == 2:
            on_disk.append(rows_csv.read_text())  # what a reader sees while the sweep runs
            raise KeyboardInterrupt
        return point(*args)

    monkeypatch.setattr(bench, "_point", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "cut")])
    assert on_disk == [expected]
    assert rows_csv.read_text() == expected
    assert not (tmp_path / "cut" / "sweep.json").exists()


def test_fit_insufficient_rows_is_runtime_error(tmp_path):
    rows = tmp_path / "rows.csv"
    rows.write_text("delta,p_out,tau_median,tau_iqr,lambda2_emp,lambda2_pred,lambdaL,censored\n"
                    "0.1,0.5,10.0,0.0,0.5,0.5,0.8,0\n")
    assert cli(["fit", "--rows", str(rows), "--out", str(tmp_path)]) == 1


def test_fit_names_missing_columns(tmp_path, capsys):
    rows = tmp_path / "rows.csv"
    rows.write_text("p_out,tau_iqr\n0.5,0.0\n")
    assert cli(["fit", "--rows", str(rows), "--out", str(tmp_path)]) == 1
    assert f"error: {rows}: missing column(s) delta, tau_median" in capsys.readouterr().err
    assert not (tmp_path / "fit.json").exists()


def test_fit_names_the_bad_value(tmp_path, capsys):
    rows = tmp_path / "rows.csv"
    rows.write_text("delta,tau_median\n0.01,10.0\n0.02,abc\n0.03,30.0\n0.04,40.0\n")
    assert cli(["fit", "--rows", str(rows), "--out", str(tmp_path)]) == 1
    assert f"error: {rows}:3: tau_median is not a number: 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("column, line", [("delta", "nan,20.0"), ("delta", "-inf,20.0"),
                                          ("tau_median", "0.02,nan"), ("tau_median", "0.02,inf")])
def test_fit_rejects_non_finite_values(tmp_path, capsys, column, line):
    rows = tmp_path / "rows.csv"
    rows.write_text(f"delta,tau_median\n0.01,10.0\n{line}\n0.03,30.0\n0.04,40.0\n")
    assert cli(["fit", "--rows", str(rows), "--out", str(tmp_path)]) == 1
    token = line.split(",")[0 if column == "delta" else 1]
    assert f"error: {rows}:3: {column} is not finite: {token!r}" in capsys.readouterr().err
    assert not (tmp_path / "fit.json").exists()


@pytest.mark.parametrize("fix_pole", [[], ["--fix-pole", "0.1"]], ids=["free-pole", "fixed-pole"])
def test_fit_skips_rows_without_tau(tmp_path, fix_pole):
    header = "delta,p_out,tau_median,tau_iqr,lambda2_emp,lambda2_pred,lambdaL,censored\n"
    body = "".join(f"{d!r},{0.1 - d!r},{2.0 / (0.1 - d)!r},0.0,0.5,0.5,0.8,0\n" for d in (0.0, 0.02, 0.04))
    fits = []
    for name, text in (("with", header + body + "0.09,0.01,,,0.1,0.1,0.8,5\n"), ("without", header + body)):
        rows = tmp_path / f"{name}.csv"
        rows.write_text(text)
        assert cli(["fit", "--rows", str(rows), *fix_pole, "--out", str(tmp_path / name)]) == 0
        fits.append((tmp_path / name / "fit.json").read_bytes())
    assert fits[0] == fits[1]


@pytest.mark.parametrize("sizes, token", [("10,x", "'x'"), ([10, "x"], "'x'"), ([10, 2.5], "2.5")],
                         ids=["flag", "config-string", "config-float"])
def test_malformed_sizes_named(tmp_path, capsys, sizes, token):
    model = ["--p-in", "0.5", "--p-out", "0.1", "--out", str(tmp_path)]
    if isinstance(sizes, str):
        args = ["predict", "--sizes", sizes] + model
    else:
        cfg = tmp_path / "model.cfg"
        cfg.write_text(json.dumps({"sizes": sizes}))
        args = ["predict", "--config", str(cfg)] + model
    assert cli(args) == 1
    assert f"error: sizes: {token} is not an integer" in capsys.readouterr().err


GADGET_MODEL = ["--sizes", "10,10", "--p-in", "0.9", "--p-out", "0.3"]


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize("key, value, message", [
    ("dataset", "blobs:400:x:2.0", "bad blobs spec 'blobs:400:x:2.0'; want blobs:N:D:MARGIN[:SEED]"),
    ("learning_rounds", "abc", "learning_rounds: 'abc' is not an integer"),
    ("dataset", "blobs:400:-1:2.0", "bad blobs spec 'blobs:400:-1:2.0'; want blobs:N:D:MARGIN[:SEED]"),
    ("dataset", "blobs:-4:2:2.0", "bad blobs spec 'blobs:-4:2:2.0'; want blobs:N:D:MARGIN[:SEED]"),
    ("learning_rounds", "-5", "learning_rounds must be >= 0, got -5"),
    ("steps_per_round", "0", "steps_per_round must be >= 1, got 0"),
    ("max_rounds", "-5", "max_rounds must be >= 0, got -5"),
    ("epsilon", "inf", "epsilon must be > 0 and finite, got inf"),
    ("dataset", "blobs:400:2:2.0:-4", "bad blobs spec 'blobs:400:2:2.0:-4'; want blobs:N:D:MARGIN[:SEED]"),
    ("dataset", "blobs:400:2:nan", "bad blobs spec 'blobs:400:2:nan'; want blobs:N:D:MARGIN[:SEED]"),
    ("dataset", "blobs:400:2:inf", "bad blobs spec 'blobs:400:2:inf'; want blobs:N:D:MARGIN[:SEED]"),
    ("dataset", "blobs:400:2:0", "bad blobs spec 'blobs:400:2:0'; want blobs:N:D:MARGIN[:SEED]"),
], ids=["dataset", "learning_rounds", "blobs-negative-d", "blobs-negative-n", "learning_rounds-negative",
        "steps_per_round-zero", "max_rounds-negative", "epsilon-infinite", "blobs-negative-seed", "blobs-nan-margin",
        "blobs-infinite-margin", "blobs-zero-margin"])
def test_malformed_gadget_settings_named(tmp_path, capsys, form, key, value, message):
    settings = {"dataset": "blobs:400:2:2.0", key: value}
    if form == "flag":
        args = [arg for k, v in settings.items() for arg in (f"--{k.replace('_', '-')}", v)]
    else:
        cfg = tmp_path / "gadget.cfg"
        cfg.write_text(json.dumps(settings))
        args = ["--config", str(cfg)]
    assert cli(["gadget", *GADGET_MODEL, *args, "--out", str(tmp_path / "o")]) == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_multiclass_dataset_names_the_accepted_labels(tmp_path, capsys):
    path = tmp_path / "mc.txt"
    path.write_text("".join(f"{k % 3} {k % 2}:1.0\n" for k in range(40)))
    assert cli(["gadget", *GADGET_MODEL, "--dataset", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "labels [0.0, 1.0, 2.0] are not binary; want -1/+1 or 0/1" in capsys.readouterr().err


def test_consensus_rejects_negative_max_rounds(tmp_path, capsys):
    assert cli(["consensus", *GADGET_MODEL, "--max-rounds", "-5", "--out", str(tmp_path / "o")]) == 1
    assert "error: max_rounds must be >= 0, got -5" in capsys.readouterr().err
    assert not (tmp_path / "o" / "consensus.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_consensus_rejects_non_finite_epsilon(tmp_path, capsys, value):
    assert cli(["consensus", *GADGET_MODEL, "--epsilon", value, "--out", str(tmp_path / "o")]) == 1
    assert f"error: epsilon must be > 0 and finite, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "o" / "consensus.json").exists()


def test_predict_without_bulk_rejects_nan_eta(tmp_path, capsys):
    # a complete two-block graph has no bulk, so the density's own eta check is never reached
    args = ["predict", "--sizes", "5,5", "--p-in", "1", "--p-out", "1", "--eta", "nan", "--out", str(tmp_path / "o")]
    assert cli(args) == 1
    assert "error: eta must be positive and finite, got nan" in capsys.readouterr().err
    assert not (tmp_path / "o" / "prediction.json").exists()


def test_config_rejects_unknown_setting(tmp_path, capsys):
    # a misspelt key would otherwise leave its setting at the default (max_rounds 200000)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(json.dumps({"max_round": 3, "colour": "red"}))
    assert cli(["consensus", *GADGET_MODEL, "--config", str(cfg), "--max-rounds", "3", "--out", str(tmp_path / "o")]) == 1
    assert f"error: {cfg}: unknown setting(s) 'max_round', 'colour'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, message", [
    ("", "Expecting value: line 1 column 1 (char 0)"),
    ("{", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("[1]", "config must be a flat JSON object"),
], ids=["empty", "unclosed", "list"])
def test_config_that_is_not_a_json_object_names_the_file(tmp_path, capsys, text, message):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    assert cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
    assert not (tmp_path / "o").exists()


def test_sweep_config_rejects_base_seed(tmp_path, capsys):
    # a sweep's base seed is its seed setting; the old key would otherwise be read beside it
    cfg = tmp_path / "c.cfg"
    cfg.write_text(json.dumps({**SWEEP_SETTINGS, "base_seed": 9}))
    assert cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert f"error: {cfg}: unknown setting(s) 'base_seed'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


MODEL_SETTINGS = {"sizes": [6, 6], "p_in": 0.9, "p_out": 0.3}
# a valid config of each command, and the numeric settings it reads
NUMERIC_SETTINGS = {
    "sample": (MODEL_SETTINGS, ("seed", "p_in", "p_out")),
    "spectrum": (MODEL_SETTINGS, ("bins",)),
    "predict": (MODEL_SETTINGS, ("eta", "grid_points")),
    "gadget": ({**MODEL_SETTINGS, "dataset": "blobs:100:3:2.0:1"},
               ("max_rounds", "steps_per_round", "learning_rounds", "epsilon", "nu")),
    "sweep": ({"sizes": [6, 6], "p_in": 0.9, "p_out_lo": 0.1, "p_out_hi": 0.5, "p_out_num": 2},
              ("seeds_per_point", "workers", "p_out_num", "p_out_lo", "p_out_hi")),
    "fit": ({}, ("fix_pole",)),
}
INTEGER_SETTINGS = {"seed", "max_rounds", "steps_per_round", "learning_rounds", "seeds_per_point", "workers",
                    "bins", "grid_points", "p_out_num"}
CONFIG_ONLY = {"p_out_lo", "p_out_hi", "p_out_num"}  # of a sweep


@pytest.mark.parametrize("command, key, form", [
    pytest.param(c, k, form, id=f"{c}-{k}" + ("-flag" if form == "flag" else ""))
    for c, (_, keys) in NUMERIC_SETTINGS.items() for k in keys for form in ("config", "flag")
    if form == "config" or k not in CONFIG_ONLY])
def test_config_numbers_read_as_their_flags_read_them(tmp_path, capsys, command, key, form):
    # an integer setting is not truncated, and a bad number names its setting, by flag as by config
    settings = dict(NUMERIC_SETTINGS[command][0])
    if command == "fit":
        settings["rows"] = str(tmp_path / "rows.csv")
        (tmp_path / "rows.csv").write_text("delta,tau_median\n0.01,10.0\n0.02,20.0\n0.03,30.0\n")
    value = 2.5 if key in INTEGER_SETTINGS else "abc"
    kind = "an integer" if key in INTEGER_SETTINGS else "a number"
    flags = []
    if form == "flag":
        value = str(value)
        flags = ["--" + key.replace("_", "-"), value]
    else:
        settings[key] = value
    cfg = tmp_path / "c.cfg"
    cfg.write_text(json.dumps(settings))
    assert cli([command, "--config", str(cfg), *flags, "--out", str(tmp_path / "o")]) == 1
    assert f"error: {key}: {value!r} is not {kind}" in capsys.readouterr().err


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize("command", ["sample", "consensus", "gadget", "sweep"])
def test_negative_seed_named(tmp_path, capsys, command, form):
    # numpy would reject it later as "expected non-negative integer", naming neither the setting nor the value
    settings = dict(NUMERIC_SETTINGS.get(command, (MODEL_SETTINGS,))[0])
    flags = ["--seed", "-1"] if form == "flag" else []
    if form == "config":
        settings["seed"] = -1
    cfg = tmp_path / "c.cfg"
    cfg.write_text(json.dumps(settings))
    assert cli([command, "--config", str(cfg), *flags, "--out", str(tmp_path / "o")]) == 1
    value = "'-1'" if form == "flag" else "-1"
    assert f"error: seed: {value} is not an integer >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, output", [("sample", "connected", "network.txt"),
                                                  ("consensus", "trace", "consensus_trace.csv")],
                         ids=["connected", "trace"])
def test_boolean_settings_take_only_true_or_false(tmp_path, capsys, command, key, output):
    # read by truthiness, the string "false" would resample until connected, or write the trace
    cfg = tmp_path / "c.cfg"
    for value in ("false", 0):
        cfg.write_text(json.dumps({**MODEL_SETTINGS, key: value}))
        assert cli([command, "--config", str(cfg), "--out", str(tmp_path / "bad")]) == 1
        assert f"error: {key}: {value!r} is not true or false" in capsys.readouterr().err
    assert not (tmp_path / "bad" / output).exists()
    cfg.write_text(json.dumps({**MODEL_SETTINGS, key: False}))
    assert cli([command, "--config", str(cfg), "--out", str(tmp_path / "false")]) == 0
    assert (tmp_path / "false" / output).exists() == (key == "connected")


@pytest.mark.parametrize("command, key, settings", [
    ("sweep", "p_out_list", SWEEP_SETTINGS),
    ("bifurcation", "delta_grid", {"sizes": [700, 300], "p_in": 0.1}),
], ids=["p_out_list", "delta_grid"])
def test_list_setting_entries_named(tmp_path, capsys, command, key, settings):
    # each entry of a list setting is read as a number, and a bad one names its setting
    cfg = tmp_path / "c.cfg"
    cfg.write_text(json.dumps({**settings, key: [0.3, "abc"]}))
    assert cli([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert f"error: {key}: 'abc' is not a number" in capsys.readouterr().err


@pytest.mark.parametrize("extra, message", [
    ({"dataset": "blobs:400:2:2.0"}, "a scalar sweep uses no dataset, got dataset 'blobs:400:2:2.0'"),
    ({"workers": -3}, "workers must be >= 1, got -3"),
    ({"p_in": 1.5}, "p_in must be in (0, 1], got 1.5"),
    ({"sizes": [0, 10]}, "sizes must be a nonempty list of sizes >= 1, got [0, 10]"),
    ({"p_out_list": None, "p_out_lo": 0.1, "p_out_hi": 0.5, "p_out_num": -2}, "need num >= 0, got num=-2"),
    ({"p_out_list": None, "p_out_lo": 0.2, "p_out_hi": 0.1, "p_out_num": 3}, "need 0 < lo <= hi < inf, got lo=0.2, hi=0.1"),
], ids=["scalar-with-dataset", "negative-workers", "p_in-above-1", "size-zero", "negative-num", "lo-above-hi"])
def test_sweep_rejects_bad_settings(tmp_path, capsys, extra, message):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(json.dumps({**SWEEP_SETTINGS, **extra}))
    assert cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o" / "rows.csv").exists()


def test_sweep_mode_flag_checked_by_sweep_config(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(json.dumps(SWEEP_SETTINGS))
    assert cli(["sweep", "--config", str(cfg), "--mode", "other", "--out", str(tmp_path / "o")]) == 1
    assert "error: mode must be 'scalar' or 'gadget', got 'other'" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["blobs", "label-only-file"])
def test_gadget_rejects_featureless_dataset(tmp_path, capsys, source):
    ref = "blobs:400:0:2.0"
    if source == "label-only-file":
        ref = str(tmp_path / "labels.txt")
        Path(ref).write_text("+1\n-1\n" * 200)
    assert cli(["gadget", *GADGET_MODEL, "--dataset", ref, "--out", str(tmp_path / "o")]) == 1
    assert "error: dataset has no features (d = 0)" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [{"p_out_list": []}, {"p_out_lo": 0.1, "p_out_hi": 0.5, "p_out_num": 0}],
                         ids=["list", "range"])
def test_sweep_rejects_empty_grid(tmp_path, capsys, grid):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(json.dumps({**{k: v for k, v in SWEEP_SETTINGS.items() if k != "p_out_list"}, **grid}))
    assert cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "p_out_list is empty" in capsys.readouterr().err
    assert not (tmp_path / "o" / "rows.csv").exists()


# settings the package cannot compute, and what the CLI says of them: no bulk
# support, and a model no connected sample is drawn from
MODEL_FAILURES = [
    (["predict", "--sizes", "20,20", "--p-in", "0.01", "--p-out", "0.01"], "error: bulk support ["),
    (["sample", "--sizes", "5,5", "--p-in", "0", "--p-out", "0", "--connected"],
     "error: no connected sample in 100 tries"),
    (["consensus", "--sizes", "5,5", "--p-in", "0", "--p-out", "0"], "error: no connected sample in 100 tries"),
]


@pytest.mark.parametrize("argv, message", MODEL_FAILURES, ids=["no-support", "sample", "consensus"])
def test_model_failures_are_errors(tmp_path, capsys, argv, message):
    assert cli([*argv, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert "internal error" not in err


def test_eigensolver_failure_is_an_error(tmp_path, capsys, monkeypatch):
    import scipy.sparse.linalg

    eigsh = scipy.sparse.linalg.eigsh

    def starved(*args, **kwargs):
        return eigsh(*args, **{**kwargs, "tol": 1e-14, "maxiter": 1})

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", starved)
    # tau is a few rounds on this model, so no tail solve runs: lambda2_only's solve fails
    rc = cli(["consensus", "--sizes", "100,100", "--p-in", "0.2", "--p-out", "0.05", "--seed", "9",
              "--epsilon", "1e-3", "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_two_calls_build_one_parser(monkeypatch, capsys):
    import argparse

    from netconsensus import cli as cli_module

    # a parser's build adds its subcommands once
    builds = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counted(self, **kwargs):
        builds.append(self.prog)
        return add_subparsers(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted)
    cli_module._build_parser.cache_clear()
    try:
        assert cli(["--version"]) == 0
        assert cli(["frobnicate"]) == 2
    finally:
        cli_module._build_parser.cache_clear()
    assert builds == ["netconsensus"]


def test_bifurcation_out_of_range_is_runtime_error(tmp_path):
    rc = cli(["bifurcation", "--sizes", "700,300", "--p-in", "0.1",
              "--delta-grid", "0.0001:0.001:2", "--out", str(tmp_path)])
    assert rc == 1


MALFORMED_GRIDS = [
    *((spec, f"delta_grid {spec!r} is not lo:hi:num") for spec in ("0.01:0.09", "0.01:x:5", "0.01:0.09:2.5")),
    ("0.01:0.09:0", "delta_grid is empty: a search needs at least one delta"),
    ("nan:0.09:4", "delta_grid values must be finite, got nan"),
    ("0.01:inf:4", "delta_grid values must be finite, got inf"),
    ("0.01:0.2:3", "delta_grid values must lie in [0, p_in=0.1), got 0.01 to 0.2"),
    # argparse alone reads a value that starts with '-' as an unknown flag and exits 2
    ("-0.01:0.09:4", "delta_grid values must lie in [0, p_in=0.1), got -0.01 to 0.09"),
]


@pytest.mark.parametrize("spec, message", MALFORMED_GRIDS, ids=[spec for spec, _ in MALFORMED_GRIDS])
def test_bifurcation_rejects_malformed_grid(tmp_path, capsys, spec, message):
    # the grid as the flag's next argument and joined to it with '='
    for grid in (["--delta-grid", spec], [f"--delta-grid={spec}"]):
        rc = cli(["bifurcation", "--sizes", "700,300", "--p-in", "0.1", *grid, "--out", str(tmp_path)])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err


def test_missing_required_setting_is_runtime_error(tmp_path):
    assert cli(["predict", "--out", str(tmp_path)]) == 1


def _csv_records(path, header):
    with path.open(newline="") as fh:
        records = list(csv.reader(fh))
    if header is not None:
        assert records[0] == header
        records = records[1:]
    return [[float(field) for field in rec] for rec in records]


def test_every_cli_csv_parses(tmp_path):
    model = ["--sizes", "8,8", "--p-in", "0.9", "--p-out", "0.4", "--seed", "2"]
    assert cli(["spectrum", *model, "--out", str(tmp_path / "s")]) == 0
    assert cli(["predict", *model, "--grid-points", "21", "--out", str(tmp_path / "p")]) == 0
    assert cli(["consensus", *model, "--epsilon", "1e-6", "--out", str(tmp_path / "c")]) == 0
    assert cli(["gadget", *model, "--dataset", "blobs:100:3:2.0:1", "--epsilon", "1e-4",
                "--learning-rounds", "5", "--out", str(tmp_path / "g")]) == 0

    eig = _csv_records(tmp_path / "s" / "eigenvalues.csv", None)
    net, _ = sbm.sample_connected(sbm.make_two_level_model([8, 8], sbm.TwoLevelProbs(0.9, 0.4), 2))
    expected = spectra.normalized_laplacian_spectrum(net).eigenvalues
    assert np.array_equal(np.array(eig).ravel(), expected)

    pred = _csv_records(tmp_path / "p" / "prediction.csv", ["lambda", "density"])
    assert len(pred) == 21
    trace = _csv_records(tmp_path / "c" / "consensus_trace.csv", ["round", "error"])
    assert [r[0] for r in trace] == list(range(len(trace)))
    gadget = _csv_records(tmp_path / "g" / "gadget_trace.csv",
                          ["round", "max_pairwise_gap", "objective", "accuracy"])
    rounds = json.loads((tmp_path / "g" / "gadget.json").read_text())["rounds_to_consensus"]
    assert [r[0] for r in gadget] == list(range(1, rounds + 1))


def _same_run_from_config_and_flags(tmp_path, command, settings, flags, output):
    cfg = tmp_path / "all.cfg"
    cfg.write_text(json.dumps(settings))
    assert cli([command, "--config", str(cfg), "--out", str(tmp_path / "cfg")]) == 0
    rest = tmp_path / "rest.cfg"
    rest.write_text(json.dumps({k: v for k, v in settings.items() if k not in flags}))
    argv = [command, "--config", str(rest), "--out", str(tmp_path / "flags")]
    for key, value in flags.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    assert cli(argv) == 0
    return (tmp_path / "cfg" / output).read_bytes(), (tmp_path / "flags" / output).read_bytes()


def test_gadget_config_and_flags_give_same_run(tmp_path):
    settings = {"sizes": "8,8", "p_in": 0.9, "p_out": 0.5, "seed": 5, "dataset": "blobs:200:4:2.0:7",
                "nu": 0.2, "epsilon": 1e-5, "max_rounds": 3000, "steps_per_round": 2,
                "learning_rounds": 3000}
    by_config, by_flags = _same_run_from_config_and_flags(
        tmp_path, "gadget", settings, settings, "gadget.json")
    assert by_config == by_flags
    assert json.loads(by_config)["config"]["learning_rounds"] == 3000


def test_sweep_config_and_flags_give_same_run(tmp_path):
    settings = {"mode": "scalar", "sizes": "20,20", "p_in": 0.6, "p_out_list": [0.2, 0.4],
                "seeds_per_point": 2, "epsilon": 1e-8, "max_rounds": 20000, "seed": 9, "workers": 1}
    flags = {k: v for k, v in settings.items() if k != "p_out_list"}
    by_config, by_flags = _same_run_from_config_and_flags(tmp_path, "sweep", settings, flags, "rows.csv")
    assert by_config == by_flags


def test_every_registered_flag_is_read(tmp_path, monkeypatch):
    import argparse

    import netconsensus.cli

    read = set()
    setting = netconsensus.cli._setting

    def recording(settings, key, *args, **kwargs):
        read.add(key)
        return setting(settings, key, *args, **kwargs)

    monkeypatch.setattr(netconsensus.cli, "_setting", recording)
    model = ["--sizes", "8,8", "--p-in", "0.9", "--p-out", "0.4", "--seed", "2"]
    sweep_cfg = tmp_path / "sweep.cfg"
    sweep_cfg.write_text(json.dumps({"p_out_list": [0.3, 0.5, 0.7], "seeds_per_point": 1}))
    runs = {
        "sample": [["sample", *model]],
        "spectrum": [["spectrum", *model], ["spectrum", "--net", str(tmp_path / "sample" / "network.txt")]],
        "predict": [["predict", *model, "--grid-points", "21"]],
        "consensus": [["consensus", *model, "--epsilon", "1e-6"]],
        "gadget": [["gadget", *model, "--dataset", "blobs:100:3:2.0:1", "--epsilon", "1e-4",
                    "--learning-rounds", "5"]],
        "sweep": [["sweep", "--config", str(sweep_cfg), "--sizes", "8,8", "--p-in", "0.9", "--seed", "2"]],
        "fit": [["fit", "--rows", str(tmp_path / "sweep" / "rows.csv"), "--fix-pole", "1.0"]],
        "bifurcation": [["bifurcation", "--sizes", "50,50", "--p-in", "0.3", "--delta-grid", "0.0:0.25:6"]],
    }
    keys_read = {}
    for command, argvs in runs.items():
        read.clear()
        for argv in argvs:
            assert netconsensus.cli.cli([*argv, "--out", str(tmp_path / command)]) == 0, argv
        keys_read[command] = set(read)

    parser = netconsensus.cli._build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(runs)
    unread = {}
    for command, sub in subparsers.choices.items():
        registered = {a.dest for a in sub._actions if a.option_strings and a.dest not in ("help", "config")}
        if registered - keys_read[command]:
            unread[command] = registered - keys_read[command]
    assert unread == {}


def test_config_connected_resamples_until_connected(tmp_path):
    # this model's first draw at seed 3 is disconnected
    settings = {"sizes": [10, 10], "p_in": 0.3, "p_out": 0.05, "seed": 3}
    cfg = tmp_path / "c.cfg"
    cfg.write_text(json.dumps(settings))
    assert cli(["sample", "--config", str(cfg), "--out", str(tmp_path / "plain")]) == 0
    assert json.loads((tmp_path / "plain" / "sample.json").read_text())["connected"] is False
    cfg.write_text(json.dumps({**settings, "connected": True}))
    assert cli(["sample", "--config", str(cfg), "--out", str(tmp_path / "conn")]) == 0
    assert json.loads((tmp_path / "conn" / "sample.json").read_text())["connected"] is True


# run in a fresh interpreter: the test process has long since loaded scipy
_IMPORT_PROBE = textwrap.dedent("""
    import json, sys
    from pathlib import Path

    def scipy_loaded():
        heavy = ("scipy.sparse", "scipy.spatial", "scipy.optimize", "scipy.linalg")
        return sorted(m for m in sys.modules if m.startswith(heavy))

    import netconsensus, netconsensus.cli
    out = Path(sys.argv[1])
    seen = {"import": scipy_loaded()}
    rc = {}
    rc["predict"] = netconsensus.cli.cli(
        ["predict", "--sizes", "20,30", "--p-in", "0.5", "--p-out", "0.1", "--out", str(out / "p")])
    seen["predict"] = scipy_loaded()
    rc["bifurcation"] = netconsensus.cli.cli(
        ["bifurcation", "--sizes", "50,50", "--p-in", "0.3", "--delta-grid", "0.0:0.25:6", "--out", str(out / "b")])
    seen["bifurcation"] = scipy_loaded()
    netconsensus.data.make_blobs(200, 3, 1.0, 0)
    seen["blobs"] = scipy_loaded()
    rc["sweep"] = netconsensus.cli.cli(["sweep", "--config", sys.argv[2], "--out", str(out / "s")])
    print(json.dumps({"seen": seen, "rc": rc}))
""")


def test_predict_and_bifurcation_load_no_scipy(tmp_path):
    src = str(Path(sbm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(json.dumps({"sizes": [10, 10], "p_in": 0.8, "p_out_list": [0.3], "seeds_per_point": 1,
                               "epsilon": 1e-6}))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(tmp_path), str(cfg)],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    report = json.loads(proc.stdout)
    assert report["rc"] == {"predict": 0, "bifurcation": 0, "sweep": 0}
    assert report["seen"] == {"import": [], "predict": [], "bifurcation": [], "blobs": []}
    assert (tmp_path / "b" / "bifurcation.json").exists()
    assert len((tmp_path / "s" / "rows.csv").read_text().splitlines()) == 2
