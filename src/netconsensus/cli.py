"""Command-line workbench.

Subcommands: sample, spectrum, predict, consensus, gadget, sweep, fit,
bifurcation. Settings live in one namespace: --config names a flat
key/value JSON file whose keys are the long flag names with underscores
(p_in, max_rounds, connected, ...), and every flag given on the command line
overrides the config value of the same name. A few settings have no flag
and come only from the config, e.g. learning_rounds, nu and steps_per_round
of a sweep, and trace of consensus; learning_rounds may be "none" (learn on
every round). Outputs are JSON/CSV files under --out (default out/), all
written here; CSV floats are written at full precision, and spectrum's
eigenvalues.csv holds one plain float per line. Exit codes: 0 success, 1
runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, bench, consensus, data, gossip, rmt, sbm, spectra


def _load_config(path):
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config must be a flat JSON object")
    return doc


def _setting(settings, key, default=None, required=False):
    """Merged flag/config value of key, else default."""
    val = settings.get(key, default)
    if required and val is None:
        raise ValueError(f"missing required setting {key!r} (flag or config)")
    return val


def _parse_sizes(value):
    if isinstance(value, (list, tuple)):
        return tuple(int(v) for v in value)
    return tuple(int(tok) for tok in str(value).replace(",", " ").split())


def _model_from_settings(settings):
    sizes = _parse_sizes(_setting(settings, "sizes", required=True))
    p_in = float(_setting(settings, "p_in", required=True))
    p_out = float(_setting(settings, "p_out", required=True))
    seed = int(_setting(settings, "seed", default=0))
    return sbm.make_two_level_model(sizes, sbm.TwoLevelProbs(p_in, p_out), seed)


def _run_settings(settings):
    """The simulation settings shared by consensus, gadget and sweep."""
    learning_rounds = _setting(settings, "learning_rounds", default=200)
    return {
        "nu": float(_setting(settings, "nu", default=0.1)),
        "epsilon": float(_setting(settings, "epsilon", default=1e-10)),
        "max_rounds": int(_setting(settings, "max_rounds", default=200_000)),
        "steps_per_round": int(_setting(settings, "steps_per_round", default=1)),
        "learning_rounds": None if learning_rounds in (None, "none") else int(learning_rounds),
    }


def _resolve_dataset(ref, seed=0):
    """Dataset reference: a sparse-text path or blobs:N:D:MARGIN[:SEED]."""
    if ref.startswith("blobs:"):
        parts = ref.split(":")
        if len(parts) not in (4, 5):
            raise ValueError(f"bad blobs spec {ref!r}; want blobs:N:D:MARGIN[:SEED]")
        n, d, margin = int(parts[1]), int(parts[2]), float(parts[3])
        blob_seed = int(parts[4]) if len(parts) == 5 else seed
        return data.make_blobs(n, d, margin, seed=blob_seed)
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
        "n": net.n, "edges": net.num_edges, "connected": sbm.is_connected(net),
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
    counts, edges = np.histogram(spec.eigenvalues, bins=int(_setting(settings, "bins", default=80)))
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
    eta = float(_setting(settings, "eta", default=rmt.DEFAULT_ETA))
    grid_points = int(_setting(settings, "grid_points", default=401))
    pred = rmt.predict(model, grid_spec=grid_points, eta=eta)
    _write_json(out / "prediction.json", pred.to_json_dict())
    _write_csv(out / "prediction.csv", ["lambda", "density"], zip(pred.grid, pred.density))
    return 0


def _cmd_consensus(settings, out):
    model = _model_from_settings(settings)
    run = _run_settings(settings)
    net, _ = sbm.sample_connected(model)
    spec = spectra.normalized_laplacian_spectrum(net)
    x0 = consensus.random_initial_state(net.n, model.seed)
    result = consensus.run(net, x0, run["epsilon"], max_rounds=run["max_rounds"])
    p_in = float(model.edge_probs[0, 0])
    p_out = float(model.edge_probs[0, 1]) if model.num_communities > 1 else p_in
    _write_json(out / "consensus.json", {
        "n": net.n,
        "K": model.num_communities,
        "p_in": p_in,
        "p_out": p_out,
        "delta": p_in - p_out,
        "epsilon": run["epsilon"],
        "tau_eps": result.tau_eps,
        "censored": result.censored,
        "lambda2_empirical": spec.lambda2,
        "mu2_abs": spec.mu2_abs,
    })
    if bool(_setting(settings, "trace", default=True)):
        _write_csv(out / "consensus_trace.csv", ["round", "error"], enumerate(result.error_trace))
    return 0


def _cmd_gadget(settings, out):
    model = _model_from_settings(settings)
    dataset_ref = _setting(settings, "dataset", required=True)
    dataset = _resolve_dataset(dataset_ref, seed=model.seed)
    cfg = gossip.GadgetConfig(**_run_settings(settings), seed=model.seed)
    net, _ = sbm.sample_connected(model)
    result = gossip.run_gadget(net, dataset, cfg)
    _write_json(out / "gadget.json", {
        "config": {
            "nu": cfg.nu, "epsilon": cfg.epsilon, "max_rounds": cfg.max_rounds,
            "steps_per_round": cfg.steps_per_round, "learning_rounds": cfg.learning_rounds,
            "seed": cfg.seed, "dataset": dataset_ref,
        },
        "rounds_to_consensus": result.rounds_to_consensus,
        "censored": result.censored,
        "final_accuracy": result.test_accuracy,
        "final_objective": result.final_objective,
    })
    _write_csv(out / "gadget_trace.csv", ["round", "max_pairwise_gap", "objective", "accuracy"],
               zip(range(1, len(result.max_pairwise_gap_trace) + 1), result.max_pairwise_gap_trace,
                   result.objective_trace, result.accuracy_trace))
    return 0


def _sweep_config(settings):
    p_out_list = _setting(settings, "p_out_list")
    if p_out_list is None:
        lo = float(_setting(settings, "p_out_lo", required=True))
        hi = float(_setting(settings, "p_out_hi", required=True))
        num = int(_setting(settings, "p_out_num", required=True))
        p_out_list = bench.log_spaced(lo, hi, num)
    return bench.SweepConfig(
        **_run_settings(settings),
        sizes=_parse_sizes(_setting(settings, "sizes", required=True)),
        p_in=float(_setting(settings, "p_in", required=True)),
        p_out_list=tuple(float(p) for p in p_out_list),
        seeds_per_point=int(_setting(settings, "seeds_per_point", default=5)),
        mode=str(_setting(settings, "mode", default="scalar")),
        base_seed=int(_setting(settings, "seed", default=_setting(settings, "base_seed") or 0)),
        workers=int(_setting(settings, "workers", default=1)),
        dataset_ref=_setting(settings, "dataset"),
    )


# the SweepRow fields of rows.csv, in column order; the others go to sweep.json
SWEEP_COLUMNS = ("delta", "p_out", "tau_median", "tau_iqr", "lambda2_emp", "lambda2_pred", "lambdaL", "censored")


def _cmd_sweep(settings, out):
    cfg = _sweep_config(settings)
    dataset = None
    if cfg.mode == "gadget":
        if cfg.dataset_ref is None:
            raise ValueError("gadget sweep requires a dataset setting")
        dataset = _resolve_dataset(cfg.dataset_ref, seed=cfg.base_seed)

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
                    values.append(float(rec[column]))
                except (TypeError, ValueError):
                    raise ValueError(f"{path}:{reader.line_num}: {column} is not a number: {rec[column]!r}") from None
    return deltas, taus


def _cmd_fit(settings, out):
    rows = _read_fit_rows(_setting(settings, "rows", required=True))
    fix_pole = _setting(settings, "fix_pole")
    fit = bench.fit_reciprocal(rows, fix_pole=None if fix_pole is None else float(fix_pole))
    _write_json(out / "fit.json", {
        "a": fit.a, "c": fit.c, "rss": fit.rss, "r2": fit.r2, "pole_fixed": fit.pole_fixed,
    })
    return 0


def _cmd_bifurcation(settings, out):
    sizes = _parse_sizes(_setting(settings, "sizes", required=True))
    p_in = float(_setting(settings, "p_in", required=True))
    grid_spec = _setting(settings, "delta_grid", required=True)
    if isinstance(grid_spec, (list, tuple)):
        grid = [float(v) for v in grid_spec]
    else:
        try:
            lo, hi, num = str(grid_spec).split(":")
            grid = np.linspace(float(lo), float(hi), int(num)).tolist()
        except ValueError:
            raise ValueError(f"delta_grid {grid_spec!r} is not lo:hi:num (two numbers and a point count)") from None
    delta1 = bench.detect_bifurcation(sizes, p_in, grid)
    _write_json(out / "bifurcation.json", {"delta1_star": delta1, "p_in": p_in, "sizes": list(sizes)})
    return 0


# ---------------------------------------------------------------- dispatch


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="netconsensus",
        description="Spectral prediction and consensus/gossip simulation over block-model networks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key/value JSON config file")
        p.add_argument("--out", help="output directory (default: out)")

    def sizes_p_in(p):
        p.add_argument("--sizes", help="community sizes, e.g. 700,300")
        p.add_argument("--p-in", dest="p_in", type=float)

    def model_flags(p):
        sizes_p_in(p)
        p.add_argument("--p-out", dest="p_out", type=float)
        p.add_argument("--seed", type=int, help="RNG seed")

    p = sub.add_parser("sample", help="sample a network and export it")
    common(p)
    model_flags(p)
    p.add_argument("--connected", action="store_true", default=None, help="resample until connected")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("spectrum", help="empirical normalized-Laplacian spectrum")
    common(p)
    model_flags(p)
    p.add_argument("--net", help="edge list to load (as written by sample) in place of a model")
    p.add_argument("--bins", type=int)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("predict", help="random-matrix spectral prediction")
    common(p)
    model_flags(p)
    p.add_argument("--eta", type=float)
    p.add_argument("--grid-points", dest="grid_points", type=int)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("consensus", help="scalar consensus run over one sample")
    common(p)
    model_flags(p)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--max-rounds", dest="max_rounds", type=int)
    p.set_defaults(func=_cmd_consensus)

    p = sub.add_parser("gadget", help="decentralized SVM run over one sample")
    common(p)
    model_flags(p)
    p.add_argument("--dataset", help="sparse text path or blobs:N:D:MARGIN[:SEED]")
    p.add_argument("--nu", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--max-rounds", dest="max_rounds", type=int)
    p.add_argument("--steps-per-round", dest="steps_per_round", type=int)
    p.add_argument("--learning-rounds", dest="learning_rounds")
    p.set_defaults(func=_cmd_gadget)

    p = sub.add_parser("sweep", help="community-strength sweep over p_out_list or p_out_lo/hi/num")
    common(p)
    sizes_p_in(p)
    p.add_argument("--seed", type=int, help="base seed of the sweep's seed table")
    p.add_argument("--mode", choices=["scalar", "gadget"])
    p.add_argument("--seeds-per-point", dest="seeds_per_point", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--max-rounds", dest="max_rounds", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--dataset")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fit", help="reciprocal-law fit of sweep rows")
    common(p)
    p.add_argument("--rows", help="rows.csv produced by sweep")
    p.add_argument("--fix-pole", dest="fix_pole", type=float)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("bifurcation", help="locate the spectral bifurcation")
    common(p)
    sizes_p_in(p)
    p.add_argument("--delta-grid", dest="delta_grid", help="lo:hi:num")
    p.set_defaults(func=_cmd_bifurcation)

    return parser


def cli(argv=None) -> int:
    """Run one CLI invocation; returns the process exit status."""
    parser = _build_parser()
    try:
        flags = vars(parser.parse_args(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    func = flags.pop("func")
    try:
        settings = _load_config(flags["config"]) if flags["config"] else {}
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
