"""The benchmark's traced gadget path: its tracer counts the gossip rounds of a
CLI sweep, and its replay re-runs each run_gadget call capped at the learning
rounds (perfbench/tracing.py), so it depends on run_gadget's signature. The
tracer keeps a span per call of a public function, so none may run per round.

    python3 -m pytest tests/test_benchmark_replay.py -q
"""

import json
import sys
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402


def traced_sweep(tmp_path, learning_rounds):
    """The tracer after one traced CLI gadget sweep of two runs on 16 nodes and its replay."""
    pkg = run.load_package()
    cfg = tmp_path / f"sweep{learning_rounds}.cfg"
    cfg.write_text(json.dumps({
        "mode": "gadget", "sizes": [8, 8], "p_in": 0.9, "p_out_list": [0.5], "seeds_per_point": 2,
        "dataset": "blobs:200:4:2.0:7", "epsilon": 1e-7, "max_rounds": 5000, "learning_rounds": learning_rounds,
    }))
    tracer = tracing.Tracer(pkg)
    tracer.install()
    try:
        with tracer.command(0):
            assert pkg.cli.cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / f"o{learning_rounds}")]) == 0
        tracer.replay_learning()
    finally:
        tracer.uninstall()
    return tracer


def test_traced_gadget_sweep_replays_its_learning_phase(tmp_path):
    tracer = traced_sweep(tmp_path, 20)
    assert tracer.totals["gossip.run_gadget"][0] == 2
    assert tracer.counts["gossip_censored"] == 0
    assert tracer.counts["learn_rounds"] == 2 * 20
    assert tracer.counts["mix_rounds"] == tracer.counts["gossip_rounds"] - 2 * 20 > 0
    assert tracer.counts["learn_s"] > 0


def test_traced_gadget_sweep_records_no_span_per_learning_round(tmp_path):
    # the tracer wraps every public function, so one that runs per round would
    # grow the spans file with the learning budget
    spans = [Counter(s.name for s in traced_sweep(tmp_path, rounds).spans) for rounds in (20, 40)]
    assert spans[0] == spans[1]
