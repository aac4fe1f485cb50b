"""Self-tests of the benchmark's failure accounting and metric lists.

    python3 -m pytest perfbench/tests -q
"""

import argparse
import copy
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import SPARSE, WORKLOADS, Workload  # noqa: E402

# a point the package cannot compute: the predictor finds no bulk support
# (SupportNotFoundError), and a sampler would find no connected network
FAILING_POINT = {**SPARSE, "sizes": [20, 20], "p_in": 0.01, "p_out_list": [0.01], "seeds_per_point": 1}


@pytest.fixture(scope="module")
def pkg():
    return run.load_package()


def _args(**kw):
    return argparse.Namespace(**{"seed": None, "seconds": 0.0, "trace": 0, **kw})


def test_forced_failing_point_is_counted(pkg, tmp_path):
    workload = Workload(name="forced-failure", why="", default_seed=1, configs={"sweep": FAILING_POINT},
                        once=(), repeat="sweep")
    commands = run.write_configs(workload, tmp_path)
    records, failures, attempted, _acc = run.measure(pkg, workload, commands, _args(), tracing.Tracer(pkg))
    assert len(records) == 1
    assert attempted == 1
    assert len(failures) == 1
    assert "point failed" in failures[0]["problems"][0]


@pytest.fixture(scope="module")
def sparse_output(pkg):
    workload = WORKLOADS["sweep-sparse"]
    where = run.OUT / "selftest"
    commands = run.write_configs(workload, where)
    cfg, path = commands["sweep"]
    seconds, error = run.run_command(pkg, "sweep", path, where / "out", workload.seed_for(None))
    assert error is None
    return cfg, where / "out", run.load_reference(workload.name)["commands"]["sweep"]


def test_reference_output_passes(pkg, sparse_output):
    cfg, out, ref = sparse_output
    assert checks.check(pkg.sbm, "sweep", cfg, out, ref, True, 1) == [[]]


@pytest.mark.parametrize("key, delta, seeded", [
    ("lambda2_pred", 1e-5, False),  # predictor columns are checked at every seed
    ("lambdaL", -1e-5, False),
    ("tau_median", 1.0, True),  # tau is exact at the default seed
    ("lambda2_emp", 1e-4, True),
])
def test_perturbed_reference_fails(pkg, sparse_output, key, delta, seeded):
    cfg, out, ref = sparse_output
    bad = copy.deepcopy(ref)
    bad["rows"][0][key] += delta
    problems = checks.check(pkg.sbm, "sweep", cfg, out, bad, seeded, 1)
    assert len(problems) == 1 and any(key in p for p in problems[0])


def test_seed_dependent_reference_skipped_at_other_seeds(pkg, sparse_output):
    cfg, out, ref = sparse_output
    bad = copy.deepcopy(ref)
    bad["rows"][0]["tau_median"] += 1.0
    assert checks.check(pkg.sbm, "sweep", cfg, out, bad, False, 1) == [[]]


def test_lambda2_oracle_rejects_wrong_regime(pkg):
    iso = checks.isolated_oracle(pkg.sbm, [700, 300], 0.1, 0.001)
    lam_l = 0.66
    assert checks._lambda2_problem(float(iso[1]), lam_l, iso) is None
    assert checks._lambda2_problem(lam_l, lam_l, iso) is not None


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _fn in tracing.PER_LAYER
    ]
    assert {m["name"] for m in spec["end_to_end"]} == set(run.GATED)


def test_tracer_restores_every_function(pkg):
    before = {name: dict(vars(getattr(pkg, name))) for name in tracing.MODULES}
    tracer = tracing.Tracer(pkg)
    tracer.install()
    assert pkg.bench.sample_connected is not before["bench"]["sample_connected"]
    tracer.uninstall()
    assert {name: dict(vars(getattr(pkg, name))) for name in tracing.MODULES} == before
