"""netconsensus benchmark: one workload per run, through the package's CLI.

    python3 perfbench/run.py --workload sweep-sparse --seed 3 --seconds 25 --trace 0

Builds nothing: it imports ``netconsensus`` from ``src/`` of the checkout it
sits in and exits with status 2, printing no result, when that is missing.
A run sets up (import plus workload configs, timed in fresh interpreters),
runs the workload's commands for ``--seconds`` through
``netconsensus.cli.cli(argv)``, checks every output (checks.py) and prints a
table followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (tracing.py). Every run also writes
``.perfbench/BENCH_<workload>_<seed>_trace<0|1>.json`` with provenance,
samples and failures; a traced run writes its spans next to it.
``--capture-reference`` runs each command once at the default seed and
stores its outputs as the workload's reference.
"""

from __future__ import annotations

import os

# one BLAS thread: steadier timings on a small shared machine, and never more
# threads than cores; set before numpy loads
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".perfbench"
REFERENCE_DIR = BENCH_DIR / "reference"
SETUP_REPEATS = 5
# the end-to-end metrics of the result line, gated by BENCHMARK.json bounds
GATED = ("setup_s", "command_s", "peak_rss_mb")
DEFAULT_SECONDS = 25
# outputs the seed cannot change: their bytes must repeat exactly
SEED_FREE_OUTPUT = {"predict": "prediction.json", "bifurcation": "bifurcation.json"}
STALE_OUTPUTS = ("prediction.json", "prediction.csv", "bifurcation.json", "rows.csv", "sweep.json")

sys.path.insert(0, str(BENCH_DIR))
import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import SEEDED, WORKLOADS  # noqa: E402


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_package():
    """netconsensus from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "netconsensus" / "__init__.py").is_file():
        fail(f"{src}/netconsensus not found; run from a netconsensus checkout")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("netconsensus")
    if Path(pkg.__file__).resolve().parent != (src / "netconsensus").resolve():
        fail(f"imported netconsensus from {pkg.__file__}, not from {src}")
    for name in tracing.MODULES:
        importlib.import_module(f"netconsensus.{name}")
    return pkg


def write_configs(workload, where: Path) -> dict:
    """Write the workload's CLI configs; returns kind -> (config, path)."""
    where.mkdir(parents=True, exist_ok=True)
    out = {}
    for kind, cfg in workload.configs.items():
        path = where / f"{kind}.cfg"
        path.write_text(json.dumps(cfg, indent=2))
        out[kind] = (cfg, path)
    return out


def setup_seconds(args) -> list:
    """Wall time of fresh interpreters that import the package and write the
    configs, i.e. from interpreter start to the first command."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT, timeout=120)
        times.append(time.perf_counter() - start)
    return times


# ---------------------------------------------------------------- provenance


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def provenance() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        models = [ln.split(":", 1)[1].strip() for ln in cpuinfo.read_text().splitlines() if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_ENV,
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------- measuring


def run_command(pkg, kind: str, cfg_path: Path, out_dir: Path, seed: int | None = None):
    """One timed CLI invocation; returns (seconds, error or None)."""
    for name in STALE_OUTPUTS:
        (out_dir / name).unlink(missing_ok=True)
    argv = [kind, "--config", str(cfg_path), "--out", str(out_dir)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    start = time.perf_counter()
    try:
        status = pkg.cli.cli(argv)
        error = None if status == 0 else f"exit status {status}"
    except Exception as exc:  # a crash fails the command's operations, the run goes on
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, error


def measure(pkg, workload, commands, args, tracer):
    """Run the workload for args.seconds.

    Returns (records, failures, attempted, accuracies); a record is one
    command's kind, seed index, tracing flag and seconds. In a traced run
    each seed of the repeated command runs twice, untraced and then traced,
    and the pair's difference is the tracing overhead.
    """
    ref = load_reference(workload.name)
    out_dir = OUT / workload.name / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    records, failures, accuracies = [], [], []
    attempted = 0
    first_output = {}
    deadline = time.perf_counter() + args.seconds
    while True:
        op = len(records)
        kind = workload.once[op] if op < len(workload.once) else workload.repeat
        nth = sum(r["kind"] == kind for r in records)
        if args.trace and kind == workload.repeat:
            rep, traced = nth // 2, nth % 2 == 1
        else:
            rep, traced = nth, bool(args.trace)
        cfg, cfg_path = commands[kind]
        seed = workload.seed_for(args.seed, rep) if kind in SEEDED else None
        if traced:
            with tracer.command(op):
                seconds, error = run_command(pkg, kind, cfg_path, out_dir, seed)
            tracer.replay_learning()
        else:
            seconds, error = run_command(pkg, kind, cfg_path, out_dir, seed)
        records.append({"kind": kind, "rep": rep, "traced": traced, "seconds": seconds})

        units = workload.units(kind)
        attempted += units
        if error is not None:
            problems = [[error]] * units
        else:
            kind_ref = ref["commands"].get(kind) if ref else None
            seeded = args.seed is None and rep == 0
            problems = checks.check(pkg.sbm, kind, cfg, out_dir, kind_ref, seeded, units)
            if kind in SEED_FREE_OUTPUT:
                output = (out_dir / SEED_FREE_OUTPUT[kind]).read_bytes()
                if first_output.setdefault(kind, output) != output:
                    problems = [p + ["output differs from the first command's"] for p in problems]
            if cfg.get("mode") == "gadget":
                side = json.loads((out_dir / "sweep.json").read_text())
                accuracies += [a for a in side["accuracy_mean"] if a is not None]
        for unit, unit_problems in enumerate(problems):
            if unit_problems:
                failures.append({"command": op, "kind": kind, "unit": unit, "problems": unit_problems})

        done = [r["seconds"] for r in records if r["kind"] == workload.repeat]
        complete = len(done) >= 2 and len(done) % 2 == 0 if args.trace else len(done) >= 1
        if complete and time.perf_counter() + statistics.median(done) > deadline:
            return records, failures, attempted, accuracies


def seconds_of(records, kind, traced=False):
    return [r["seconds"] for r in records if r["kind"] == kind and r["traced"] == traced]


def load_reference(name: str):
    path = REFERENCE_DIR / f"{name}.json"
    return json.loads(path.read_text()) if path.is_file() else None


def capture_reference(pkg, workload) -> None:
    commands = write_configs(workload, OUT / workload.name / "configs")
    out_dir = OUT / workload.name / "reference-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    captured = {}
    for kind, (cfg, path) in commands.items():
        seed = workload.seed_for(None) if kind in SEEDED else None
        seconds, error = run_command(pkg, kind, path, out_dir, seed)
        if error is not None:
            fail(f"{kind} failed while capturing the reference: {error}")
        captured[kind] = checks.CAPTURES[kind](out_dir)
    REFERENCE_DIR.mkdir(exist_ok=True)
    doc = {"workload": workload.name, "seed": workload.default_seed, "git_commit": git_commit(),
           "configs": {k: c for k, (c, _) in commands.items()}, "commands": captured}
    (REFERENCE_DIR / f"{workload.name}.json").write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {REFERENCE_DIR / (workload.name + '.json')}")


# ---------------------------------------------------------------- reporting


def median_entry(values, unit):
    return {"value": statistics.median(values), "unit": unit, "n": len(values)}


def end_to_end(workload, records, setup, failed, attempted, accuracies):
    """Every end-to-end number this workload has, with its sample count."""
    repeat = seconds_of(records, workload.repeat)
    metrics = {
        "setup_s": median_entry(setup, "s"),
        "command_s": median_entry(repeat, "s"),
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB", "n": 1},
        "error_rate": {"value": failed / attempted, "unit": "ratio", "n": attempted},
    }
    if workload.repeat == "sweep":
        points = [workload.units("sweep") / s for s in repeat]
        metrics["points_per_s"] = median_entry(points, "1/s")
    else:
        metrics["predict_s"] = median_entry(seconds_of(records, "predict"), "s")
        metrics["bifurcation_s"] = median_entry(seconds_of(records, "bifurcation"), "s")
    if accuracies:
        metrics["test_accuracy"] = {"value": statistics.fmean(accuracies), "unit": "accuracy", "n": len(accuracies)}
    return metrics


def per_layer(workload, records, tracer):
    """Per-layer report; the overhead is the median traced-minus-untraced
    difference over pairs of the repeated command with the same seed."""
    report = tracing.layer_report(tracer, sum(r["traced"] for r in records))
    pairs = {}
    for r in records:
        if r["kind"] == workload.repeat:
            pairs.setdefault(r["rep"], {})[r["traced"]] = r["seconds"]
    report["trace.overhead_s"] = statistics.median(p[True] - p[False] for p in pairs.values() if len(p) == 2)
    return report, tracing.result_metrics(report)


def unit_of(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_us", "us"), ("_s", "s"), ("_per_attempt", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def print_table(title, entries):
    print(title)
    for name, e in entries.items():
        n = f"n={e['n']}" if "n" in e else ""
        print(f"  {name:34s} {e['value']:>16.6g} {e['unit']:8s} {n}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="workload seed (default: the figure configs' seeds)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capture-reference", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    pkg = load_package()
    if args.setup_probe:
        write_configs(workload, OUT / workload.name / "setup-probe")
        return 0
    if args.capture_reference:
        capture_reference(pkg, workload)
        return 0

    setup = [] if args.trace else setup_seconds(args)
    commands = write_configs(workload, OUT / workload.name / "configs")
    tracer = tracing.Tracer(pkg)
    if args.trace:
        tracer.install()
    try:
        records, failures, attempted, accuracies = measure(pkg, workload, commands, args, tracer)
    finally:
        tracer.uninstall()
    failed = len(failures)

    seed_label = "default" if args.seed is None else str(args.seed)
    doc = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "config_seed": workload.seed_for(args.seed), "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance(), "configs": {k: c for k, (c, _) in commands.items()},
        "commands": records, "setup_s": setup, "attempted": attempted, "failed": failed, "failures": failures,
    }
    print(f"workload {workload.name}: seed {seed_label} (first config seed {doc['config_seed']}), "
          f"{len(records)} commands in {args.seconds:g} s, trace {args.trace}")
    if args.trace:
        report, metrics = per_layer(workload, records, tracer)
        doc["per_layer"] = report
        print_table("per-layer, per traced command", {k: {"value": v, "unit": unit_of(k)} for k, v in report.items()})
        print_table("share of traced command time", {k: v for k, v in metrics.items() if v["unit"] == "share"})
        (OUT / f"spans_{workload.name}_{seed_label}.json").write_text(json.dumps(tracer.span_records()))
    else:
        entries = end_to_end(workload, records, setup, failed, attempted, accuracies)
        doc["end_to_end"] = entries
        print_table("end-to-end", entries)
        metrics = {k: {"value": entries[k]["value"], "unit": entries[k]["unit"]} for k in GATED}
    for f in failures[:20]:
        print(f"  FAILED command {f['command']} {f['kind']} unit {f['unit']}: {'; '.join(f['problems'])}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"BENCH_{workload.name}_{seed_label}_trace{args.trace}.json").write_text(json.dumps(doc, indent=2))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
