"""Command-line workbench: netconsensus <subcommand> [--config FILE] [flags].

_COMMANDS names the subcommands and the settings each takes as flags. --config
names a flat JSON object keyed by the long flag names with underscores (--p-in
sets p_in; a key that names no setting exits 1), and a flag given on the command
line overrides the config value of the same name. Each setting has one reader
in _SETTINGS, which reads a flag and a config value alike: a number as its flag
string (an integer takes 5 or "5", not 2.5; a seed is >= 0), connected and
trace only as true or false. A malformed value exits 1 with an error naming the
setting, and a null counts as unset. Config-only settings: a sweep's p_out_list,
p_out_lo/hi/num, nu, steps_per_round and learning_rounds, and consensus's trace
(default true: write consensus_trace.csv).
gossip.GadgetConfig and bench.SweepConfig hold the defaults and checks of their
fields. Outputs are JSON/CSV files under --out (default out/), all written here;
CSV floats are written at full precision, and spectrum's eigenvalues.csv holds
one plain float per line. Exit codes: 0 success, 1 runtime failure or malformed
setting, 2 unknown subcommand or flag, or no arguments. A value that starts
with '-' may follow its flag as the next argument (--delta-grid -0.01:0.09:4).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, bench, consensus, data, gossip, rmt, sbm, spectra


def _reader(read, kind):
    """A setting's reader: read(value), where a rejected value's error names the setting and what it is not."""
    def reader(key, val):
        try:
            return read(val)
        except (TypeError, ValueError):
            raise ValueError(f"{key}: {val!r} is not {kind}") from None
    return reader


def _listed(entry):
    """A reader of a list, or of a comma/space-separated string, reading each item with the reader entry."""
    return lambda key, val: tuple(entry(key, item) for item in (
        val if isinstance(val, list) else str(val).replace(",", " ").split()))


def _exactly(kind):
    """A read that takes only a value already of this type: bool (JSON true/false, or the flag) or str."""
    def read(val):
        if not isinstance(val, kind):
            raise TypeError(val)
        return val
    return read


# a number is read through str, as its flag is: an integer setting takes 5 or "5" but rejects 2.5
_INTEGER = _reader(lambda val: int(str(val)), "an integer")
_NUMBER = _reader(lambda val: float(str(val)), "a number")


def _natural(val):
    """An integer >= 0 (a seed), read as _INTEGER reads one."""
    if (num := int(str(val))) < 0:
        raise ValueError(val)
    return num


def _delta_grid(key, val):
    """A list of deltas, or lo:hi:num for num evenly spaced ones."""
    if isinstance(val, list):
        return _listed(_NUMBER)(key, val)
    try:
        lo, hi, num = str(val).split(":")
        lo, hi, num = float(lo), float(hi), _natural(num)
    except ValueError:
        raise ValueError(f"{key} {val!r} is not lo:hi:num (two numbers and a point count)") from None
    if not np.isfinite([lo, hi]).all():
        raise ValueError(f"{key} values must be finite, got {hi if np.isfinite(lo) else lo}")
    return tuple(np.linspace(lo, hi, num).tolist())


# every setting, by flag (--p-in sets p_in) or config key, and the one reader of its value
_SETTINGS = {
    **dict.fromkeys(("max_rounds", "steps_per_round", "learning_rounds", "seeds_per_point", "workers", "bins",
                     "grid_points", "p_out_num"), _INTEGER),
    "seed": _reader(_natural, "an integer >= 0"),
    **dict.fromkeys(("p_in", "p_out", "epsilon", "nu", "eta", "fix_pole", "p_out_lo", "p_out_hi"), _NUMBER),
    "sizes": _listed(_INTEGER),
    "p_out_list": _listed(_NUMBER),
    "delta_grid": _delta_grid,
    **dict.fromkeys(("connected", "trace"), _reader(_exactly(bool), "true or false")),
    **dict.fromkeys(("out", "net", "dataset", "rows", "mode"), _reader(_exactly(str), "a string")),
}

# the help line of each flag that needs one
_HELP = {
    "config": "flat key/value JSON config file",
    "out": "output directory (default: out)",
    "sizes": "community sizes, e.g. 700,300",
    "seed": "RNG seed (of a sweep: the root of its per-point and per-run seeds)",
    "mode": "scalar or gadget",
    "connected": "resample until connected",
    "net": "edge list to load (as written by sample) in place of a model",
    "dataset": "sparse text path or blobs:N:D:MARGIN[:SEED]",
    "rows": "rows.csv produced by sweep",
    "delta_grid": "lo:hi:num",
}


def _setting(settings, key, default=None, required=False):
    """Merged flag/config value of key read by its _SETTINGS reader, else default; a null counts as unset."""
    val = settings.get(key)
    if val is None:
        if required:
            raise ValueError(f"missing required setting {key!r} (flag or config)")
        return default
    return _SETTINGS[key](key, val)


def _model_from_settings(settings):
    sizes = _setting(settings, "sizes", required=True)
    probs = sbm.TwoLevelProbs(_setting(settings, "p_in", required=True), _setting(settings, "p_out", required=True))
    return sbm.make_two_level_model(sizes, probs, _setting(settings, "seed", default=0))


def _config(cls, settings, **known):
    """A cls from known and from the given settings named as its other fields: cls holds their defaults and
    checks, and a field without a default is a required setting."""
    unset = object()
    given = {f.name: _setting(settings, f.name, default=unset,
                              required=f.default is f.default_factory is dataclasses.MISSING)
             for f in dataclasses.fields(cls) if f.name not in known}
    return cls(**known, **{key: val for key, val in given.items() if val is not unset})


def _resolve_dataset(ref, seed=0):
    """Dataset reference: a sparse-text path or blobs:N:D:MARGIN[:SEED]."""
    if ref.startswith("blobs:"):
        parts = ref.split(":")
        bad = ValueError(f"bad blobs spec {ref!r}; want blobs:N:D:MARGIN[:SEED]")
        if len(parts) not in (4, 5):
            raise bad
        try:
            n, d, margin = int(parts[1]), int(parts[2]), float(parts[3])
            return data.make_blobs(n, d, margin, seed=int(parts[4]) if len(parts) == 5 else seed)
        except ValueError:
            raise bad from None
    return data.load_sparse_text(ref)


def _write_json(path, doc):
    Path(path).write_text(json.dumps(doc, indent=2))


def _csv_row(values):
    """One CSV record: a float as its repr (full precision), None as an empty field."""
    return ["" if v is None else repr(float(v)) if isinstance(v, float) else v for v in values]


def _write_csv(path, header, rows):
    """Write rows through _csv_row; no header line when header is None."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        writer.writerows(map(_csv_row, rows))


# ---------------------------------------------------------------- commands


def _cmd_sample(settings, out):
    model = _model_from_settings(settings)
    net, attempts = sbm.sample_connected(model) if _setting(settings, "connected") else (sbm.sample(model), 1)
    sbm.save_edge_list(net, out / "network.txt")
    _write_json(out / "sample.json", {
        "n": net.n, "edges": net.num_edges, "connected": net.connected,
        "attempts": attempts, "seed": model.seed,
    })
    return 0


def _load_network(settings):
    """The edge list named by net, else a connected sample of the model."""
    net_path = _setting(settings, "net")
    if net_path is None:
        net, _ = sbm.sample_connected(_model_from_settings(settings))
        return net
    ignored = [key for key in ("sizes", "p_in", "p_out", "seed") if _setting(settings, key) is not None]
    if ignored:
        raise ValueError(f"net {net_path} is a whole network; it would ignore the model settings {', '.join(ignored)}")
    return sbm.load_edge_list(net_path)


def _cmd_spectrum(settings, out):
    net = _load_network(settings)
    spec = spectra.normalized_laplacian_spectrum(net)
    _write_csv(out / "eigenvalues.csv", None, ([v] for v in spec.eigenvalues))
    counts, edges = np.histogram(spec.eigenvalues, bins=_setting(settings, "bins", default=80))
    _write_json(out / "histogram.json", {"bin_edges": edges.tolist(), "counts": counts.tolist()})
    _write_json(out / "spectrum.json", {
        "n": net.n,
        "lambda2": spec.lambda2,
        "mu2_abs": spec.mu2_abs,
        "second_mode_positive": spec.second_mode_positive,
    })
    return 0


def _cmd_predict(settings, out):
    model = _model_from_settings(settings)
    pred = rmt.predict(model, grid_spec=_setting(settings, "grid_points", default=401),
                       eta=_setting(settings, "eta", default=rmt.DEFAULT_ETA))
    _write_json(out / "prediction.json", pred.to_json_dict())
    _write_csv(out / "prediction.csv", ["lambda", "density"], zip(pred.grid, pred.density))
    return 0


def _cmd_consensus(settings, out):
    model = _model_from_settings(settings)
    run = _config(gossip.GadgetConfig, settings)
    net, _ = sbm.sample_connected(model)
    x0 = consensus.random_initial_state(net.n, model.seed)
    result = consensus.run(net, x0, run.epsilon, max_rounds=run.max_rounds)
    p_in = float(model.edge_probs[0, 0])
    p_out = float(model.edge_probs[0, 1]) if model.num_communities > 1 else p_in
    _write_json(out / "consensus.json", {
        "n": net.n,
        "K": model.num_communities,
        "p_in": p_in,
        "p_out": p_out,
        "delta": p_in - p_out,
        "epsilon": run.epsilon,
        "tau_eps": result.tau_eps,
        "censored": result.censored,
        "tail_from": result.tail_from,
        "lambda2_empirical": spectra.lambda2_only(net) if result.lambda2 is None else result.lambda2,
        "mu2_abs": spectra.mu2_abs_only(net),
    })
    if _setting(settings, "trace", default=True):
        _write_csv(out / "consensus_trace.csv", ["round", "error"], enumerate(result.error_trace))
    return 0


def _cmd_gadget(settings, out):
    model = _model_from_settings(settings)
    dataset_ref = _setting(settings, "dataset", required=True)
    dataset = _resolve_dataset(dataset_ref, seed=model.seed)
    cfg = _config(gossip.GadgetConfig, settings)
    net, _ = sbm.sample_connected(model)
    result = gossip.run_gadget(net, dataset, cfg, seed=model.seed)
    _write_json(out / "gadget.json", {
        "config": {**dataclasses.asdict(cfg), "seed": model.seed, "dataset": dataset_ref},
        "rounds_to_consensus": result.rounds_to_consensus,
        "censored": result.censored,
        "final_accuracy": result.test_accuracy,
        "final_objective": result.final_objective,
    })
    _write_csv(out / "gadget_trace.csv", ["round", "max_pairwise_gap", "objective", "accuracy"],
               zip(range(1, len(result.max_pairwise_gap_trace) + 1), result.max_pairwise_gap_trace,
                   result.objective_trace, result.accuracy_trace))
    return 0


# the SweepRow fields of rows.csv, in column order; the others go to sweep.json
SWEEP_COLUMNS = ("delta", "p_out", "tau_median", "tau_iqr", "lambda2_emp", "lambda2_pred", "lambdaL", "censored")


def _cmd_sweep(settings, out):
    p_out_list = _setting(settings, "p_out_list")
    if p_out_list is None:
        grid = (_setting(settings, k, required=True) for k in ("p_out_lo", "p_out_hi", "p_out_num"))
        p_out_list = bench.log_spaced(*grid)
    cfg = _config(bench.SweepConfig, settings, p_out_list=p_out_list, run=_config(gossip.GadgetConfig, settings),
                  dataset_ref=_setting(settings, "dataset"))
    if cfg.mode == "gadget" and cfg.dataset_ref is None:
        raise ValueError("gadget sweep requires a dataset setting")
    dataset = None if cfg.dataset_ref is None else _resolve_dataset(cfg.dataset_ref, seed=cfg.seed)

    with (out / "rows.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)

        def emit(row):
            writer.writerow(_csv_row(getattr(row, k) for k in SWEEP_COLUMNS))
            fh.flush()

        rows = bench.sweep(cfg, dataset=dataset, row_callback=emit)
    _write_json(out / "sweep.json", {
        "config": dataclasses.asdict(cfg),
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "rows": len(rows),
        "failures": [r.error for r in rows if r.error is not None],
        "accuracy_mean": [r.accuracy_mean for r in rows] if cfg.mode == "gadget" else None,
    })
    return 0


def _read_fit_rows(path):
    """(deltas, taus) of the rows.csv rows with a tau_median; a failed or wholly censored point has none."""
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [k for k in ("delta", "tau_median") if k not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")
        deltas, taus = [], []
        for rec in reader:
            if rec["tau_median"] == "":
                continue
            for column, values in (("delta", deltas), ("tau_median", taus)):
                try:
                    value = float(rec[column])
                except (TypeError, ValueError):
                    raise ValueError(f"{path}:{reader.line_num}: {column} is not a number: {rec[column]!r}") from None
                if not math.isfinite(value):
                    raise ValueError(f"{path}:{reader.line_num}: {column} is not finite: {rec[column]!r}")
                values.append(value)
    return deltas, taus


def _cmd_fit(settings, out):
    deltas, taus = _read_fit_rows(_setting(settings, "rows", required=True))
    fit = bench.fit_reciprocal(deltas, taus, fix_pole=_setting(settings, "fix_pole"))
    _write_json(out / "fit.json", {
        "a": fit.a, "c": fit.c, "rss": fit.rss, "r2": fit.r2, "pole_fixed": fit.pole_fixed,
    })
    return 0


def _cmd_bifurcation(settings, out):
    sizes = _setting(settings, "sizes", required=True)
    p_in = _setting(settings, "p_in", required=True)
    delta1 = bench.detect_bifurcation(sizes, p_in, _setting(settings, "delta_grid", required=True))
    _write_json(out / "bifurcation.json", {"delta1_star": delta1, "p_in": p_in, "sizes": list(sizes)})
    return 0


# ---------------------------------------------------------------- dispatch


_MODEL = ("sizes", "p_in", "p_out", "seed")
# each subcommand: its function, its help line, and the settings it takes as flags
_COMMANDS = {
    "sample": (_cmd_sample, "sample a network and export it", (*_MODEL, "connected")),
    "spectrum": (_cmd_spectrum, "empirical normalized-Laplacian spectrum", (*_MODEL, "net", "bins")),
    "predict": (_cmd_predict, "random-matrix spectral prediction", (*_MODEL, "eta", "grid_points")),
    "consensus": (_cmd_consensus, "scalar consensus run over one sample", (*_MODEL, "epsilon", "max_rounds")),
    "gadget": (_cmd_gadget, "decentralized SVM run over one sample",
               (*_MODEL, "dataset", "nu", "epsilon", "max_rounds", "steps_per_round", "learning_rounds")),
    "sweep": (_cmd_sweep, "community-strength sweep over p_out_list or p_out_lo/hi/num",
              ("sizes", "p_in", "seed", "mode", "seeds_per_point", "epsilon", "max_rounds", "workers", "dataset")),
    "fit": (_cmd_fit, "reciprocal-law fit of sweep rows", ("rows", "fix_pole")),
    "bifurcation": (_cmd_bifurcation, "locate the spectral bifurcation", ("sizes", "p_in", "delta_grid")),
}


def _build_parser():
    """argparse registers the flag names only; every value is read by _setting."""
    parser = argparse.ArgumentParser(
        prog="netconsensus",
        description="Spectral prediction and consensus/gossip simulation over block-model networks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_line, keys) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        p.set_defaults(func=func)
        for key in ("config", "out", *keys):
            store = {"action": "store_true", "default": None} if key == "connected" else {}
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=_HELP.get(key), **store)
    return parser


# the flags that take a value: --config and every setting but connected
_VALUE_FLAGS = {"--config", *("--" + key.replace("_", "-") for key in _SETTINGS if key != "connected")}


def _attach_dashed_values(argv):
    """argv with each value that starts with one '-' joined to its flag: argparse reads
    --delta-grid -0.01:0.09:4 as a flag without its value, and --delta-grid=-0.01:0.09:4 as meant."""
    joined = []
    for arg in argv:
        if joined and joined[-1] in _VALUE_FLAGS and arg.startswith("-") and not arg.startswith("--"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def cli(argv=None) -> int:
    """Run one CLI invocation; returns the process exit status."""
    parser = _build_parser()
    try:
        flags = vars(parser.parse_args(_attach_dashed_values(sys.argv[1:] if argv is None else argv)))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    func = flags.pop("func")
    try:
        try:
            settings = json.loads(Path(flags["config"]).read_text()) if flags["config"] else {}
            if not isinstance(settings, dict):
                raise ValueError("config must be a flat JSON object")
        except ValueError as exc:  # not JSON, or not an object
            raise ValueError(f"{flags['config']}: {exc}") from None
        unknown = [key for key in settings if key not in _SETTINGS]
        if unknown:
            raise ValueError(f"{flags['config']}: unknown setting(s) {', '.join(map(repr, unknown))}")
        settings.update((key, val) for key, val in flags.items() if val is not None)
        out = Path(_setting(settings, "out", default="out"))
        out.mkdir(parents=True, exist_ok=True)
        return func(settings, out)
    except (ValueError, FileNotFoundError, bench.FitError, bench.BifurcationRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - unexpected failure path
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
