"""The benchmark's sweep workloads, scalar and gadget, run at their default
seeds through the CLI, give the outputs recorded in perfbench/reference/: tau,
the censored count and the gadget's test accuracy exactly, and the sampled
lambda2 to 1e-12 relative. The
benchmark itself allows lambda2 1e-6 (perfbench/checks.py), so a drift in
where lambda2 comes from shows here first.

    python3 -m pytest tests/test_benchmark_references.py -q
"""

import json
import sys
from pathlib import Path

import pytest

from netconsensus.cli import cli

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", ["sweep-sparse", "sweep-dense", "gadget"])
def test_default_seed_sweep_matches_reference(tmp_path, name):
    workload = WORKLOADS[name]
    reference = json.loads((BENCH_DIR / "reference" / f"{name}.json").read_text())
    config = workload.configs["sweep"]
    assert reference["configs"]["sweep"] == config
    path = tmp_path / "sweep.cfg"
    path.write_text(json.dumps(config))
    argv = ["sweep", "--config", str(path), "--out", str(tmp_path / "out"), "--seed", str(workload.seed_for(None))]
    assert cli(argv) == 0
    rows, side = checks.read_sweep(tmp_path / "out")
    want = reference["commands"]["sweep"]["rows"]
    assert side["accuracy_mean"] == reference["commands"]["sweep"]["accuracy_mean"]
    assert len(rows) == len(want)
    for got, ref in zip(rows, want):
        exact = ("tau_median", "tau_iqr", "censored")
        assert [got[k] for k in exact] == [ref[k] for k in exact]
        assert got["lambda2_emp"] == pytest.approx(ref["lambda2_emp"], rel=1e-12)
