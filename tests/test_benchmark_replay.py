"""The benchmark's traced gadget path: its tracer counts the gossip rounds of a
CLI sweep, and its replay re-runs each run_gadget call capped at the learning
rounds (perfbench/tracing.py), so it depends on run_gadget's signature.

    python3 -m pytest tests/test_benchmark_replay.py -q
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402


def test_traced_gadget_sweep_replays_its_learning_phase(tmp_path):
    pkg = run.load_package()
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(json.dumps({
        "mode": "gadget", "sizes": [8, 8], "p_in": 0.9, "p_out_list": [0.5], "seeds_per_point": 2,
        "dataset": "blobs:200:4:2.0:7", "epsilon": 1e-7, "max_rounds": 5000, "learning_rounds": 20,
    }))
    tracer = tracing.Tracer(pkg)
    tracer.install()
    try:
        with tracer.command(0):
            assert pkg.cli.cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        rounds = tracer.counts["gossip_rounds"]
        tracer.replay_learning()
    finally:
        tracer.uninstall()
    assert tracer.totals["gossip.run_gadget"][0] == 2
    assert tracer.counts["gossip_censored"] == 0
    assert tracer.counts["learn_rounds"] == 2 * 20
    assert tracer.counts["mix_rounds"] == rounds - 2 * 20 > 0
    assert tracer.counts["learn_s"] > 0
