"""Output checks behind the benchmark's failure count.

Each CLI command is checked from the files it wrote. A command counts for
one operation (predict, bifurcation) or one per sweep point; ``check``
returns one list of problems per operation, and an operation with any
problem is failed.

Three kinds of check:

* oracles, at every seed: the isolated eigenvalues against the closed form
  1 - eig(E N) built from ``sbm.block_matrices``, the bulk density's unit
  mass, the sweep grid, uncensored runs, the empirical lambda2 against its
  prediction, and the gadget accuracy floor;
* references captured at the seed commit (``reference/<workload>.json``) for
  values the seed cannot change, at every seed: everything the predictor
  returns depends only on sizes and probabilities;
* references for seed-dependent values (tau, empirical lambda2, gadget
  rounds), only at the workload's default seed.

Failures are read from the outputs, never from the exit status alone:
``sweep`` exits 0 even when every point failed, so a point fails on its
``sweep.json`` failure or on a NaN predictor column.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# predictor columns may move by about the edge bisection's own tolerance (1e-6)
PRED_TOL = 2e-6
# isolated_eigenvalues scans no closer than this to a support edge; a value
# inside the margin may be reported either as isolated or as the edge
EDGE_MARGIN = 2e-3
# trapezoid mass of the bulk density on its 401-point grid (0.999998 at fig2)
DENSITY_MASS_TOL = 1e-3
# refine_tol of detect_bifurcation (1e-4) plus the 3e-4 shift of the root
# if the edge margin above is dropped
BIFURCATION_TOL = 5e-4
# sampled lambda2 may differ from its prediction by LAMBDA2_EMP_RTOL * pred +
# LAMBDA2_EMP_NTOL / n. Over 8 seeds the n = 1000 sweeps stayed within 13%;
# the n = 100 gadget point at p_out = 0.001 rests on ~2 bridge edges and gave
# 0.47x to 2.4x the prediction (an absolute gap of at most 0.0055)
LAMBDA2_EMP_RTOL = 0.3
LAMBDA2_EMP_NTOL = 3.0
LAMBDA2_EMP_REF_RTOL = 1e-6
# gadget rounds depend on the order of random draws, which a vectorised
# learner may change; the rounds are set by push-sum mixing, not by the draws
GADGET_ROUNDS_RTOL = 0.25
ACCURACY_FLOOR = 0.95

def isolated_oracle(sbm, sizes, p_in: float, p_out: float) -> np.ndarray:
    """Ascending 1 - eig(E N) for the two-level model: the roots of
    det(I + T(z) E N) on the noise-free resolvent T = 1/(z - 1)."""
    model = sbm.make_two_level_model(sizes, sbm.TwoLevelProbs(p_in, p_out), 0)
    n = np.asarray(model.community_sizes, dtype=float)
    en = sbm.block_matrices(model).expectation * n[None, :]
    return np.sort(1.0 - np.linalg.eigvals(en).real)


def _lambda2_problem(lam2: float, lam_l: float, iso: np.ndarray) -> str | None:
    """predicted lambda2 is the second isolated value when it lies left of
    the edge, else the edge; inside the scan margin either is accepted."""
    iso2 = float(iso[1])
    allowed = []
    if iso2 <= lam_l + PRED_TOL:
        allowed.append(iso2)
    if iso2 >= lam_l - EDGE_MARGIN - PRED_TOL:
        allowed.append(lam_l)
    if all(abs(lam2 - a) > PRED_TOL for a in allowed):
        return f"lambda2_pred {lam2!r} is neither of {allowed} (oracle iso2 {iso2!r}, edge {lam_l!r})"
    return None


def _close(name: str, got, want, tol: float) -> str | None:
    if got is None or want is None or not math.isfinite(got) or abs(got - want) > tol:
        return f"{name} {got!r} differs from reference {want!r} by more than {tol}"
    return None


# ---------------------------------------------------------------- predict


def read_predict(out: Path) -> dict:
    doc = json.loads((out / "prediction.json").read_text())
    grid, density = np.asarray(doc["grid"]), np.asarray(doc["density"])
    doc["density_mass"] = float(np.trapezoid(density, grid))
    return doc


def capture_predict(out: Path) -> dict:
    doc = read_predict(out)
    return {k: doc[k] for k in ("lambdaL", "lambdaR", "isolated", "predicted_lambda2", "density_mass")}


def check_predict(sbm, cfg: dict, out: Path, ref: dict | None, seeded: bool):
    doc = read_predict(out)
    lam_l, lam_r = doc["lambdaL"], doc["lambdaR"]
    problems = []
    sizes = cfg["sizes"]
    iso = isolated_oracle(sbm, sizes, cfg["p_in"], cfg["p_out"])
    # values that sit clear of the support and of the scan margin must be found
    clear = [v for v in iso if v < lam_l - EDGE_MARGIN - PRED_TOL or v > lam_r + EDGE_MARGIN + PRED_TOL]
    pred = np.asarray(doc["isolated"], dtype=float)
    for v in clear:
        if pred.size == 0 or np.abs(pred - v).min() > PRED_TOL:
            problems.append(f"oracle isolated value {v!r} missing from {pred.tolist()}")
    for v in pred:
        if np.abs(iso - v).min() > PRED_TOL:
            problems.append(f"isolated value {v!r} matches no oracle value {iso.tolist()}")
    problems.append(_lambda2_problem(doc["predicted_lambda2"], lam_l, iso))
    density = np.asarray(doc["density"])
    if len(density) != cfg["grid_points"] or not np.all(np.isfinite(density)) or density.min() < 0:
        problems.append("density is not a finite nonnegative array on the requested grid")
    if doc["diagnostics"].get("failed_points"):
        problems.append(f"density failed at grid points {doc['diagnostics']['failed_points'][:10]}")
    if abs(doc["density_mass"] - 1.0) > DENSITY_MASS_TOL:
        problems.append(f"density mass {doc['density_mass']!r} is not 1")
    if ref is not None:
        for key in ("lambdaL", "lambdaR", "predicted_lambda2"):
            problems.append(_close(key, doc[key], ref[key], PRED_TOL))
        if len(pred) != len(ref["isolated"]):
            problems.append(f"isolated {pred.tolist()} differs from reference {ref['isolated']}")
        else:
            problems += [_close("isolated", float(a), b, PRED_TOL) for a, b in zip(pred, ref["isolated"])]
        problems.append(_close("density mass", doc["density_mass"], ref["density_mass"], 1e-4))
    return [[p for p in problems if p]]


# ---------------------------------------------------------------- bifurcation


def capture_bifurcation(out: Path) -> dict:
    return {"delta1_star": json.loads((out / "bifurcation.json").read_text())["delta1_star"]}


def check_bifurcation(sbm, cfg: dict, out: Path, ref: dict | None, seeded: bool):
    delta1 = capture_bifurcation(out)["delta1_star"]
    lo, hi = cfg["delta_grid"][0], cfg["delta_grid"][-1]
    problems = []
    if not lo <= delta1 <= hi:
        problems.append(f"delta1* {delta1!r} outside the bracket [{lo}, {hi}]")
    if ref is not None:
        problems.append(_close("delta1*", delta1, ref["delta1_star"], BIFURCATION_TOL))
    return [[p for p in problems if p]]


# ---------------------------------------------------------------- sweep


def _num(text: str):
    return None if text == "" else float(text)


def read_sweep(out: Path):
    with (out / "rows.csv").open(newline="") as fh:
        rows = [{k: _num(v) for k, v in rec.items()} for rec in csv.DictReader(fh)]
    side = json.loads((out / "sweep.json").read_text())
    return rows, side


def capture_sweep(out: Path) -> dict:
    rows, side = read_sweep(out)
    return {"rows": rows, "accuracy_mean": side.get("accuracy_mean")}


def check_sweep(sbm, cfg: dict, out: Path, ref: dict | None, seeded: bool):
    grid = cfg["p_out_list"]
    n = len(grid)
    rows, side = read_sweep(out)
    if len(rows) != n:
        return [[f"rows.csv has {len(rows)} rows, expected {n}"]] * n
    failures = side.get("failures") or []
    nan_rows = [i for i, r in enumerate(rows) if not all(math.isfinite(r[k]) for k in ("lambda2_pred", "lambdaL"))]
    if len(failures) != len(nan_rows):
        return [[f"sweep.json failures {failures} do not match the NaN rows {nan_rows}"]] * n
    accuracy = side.get("accuracy_mean")
    gadget = cfg["mode"] == "gadget"
    result = []
    for i, row in enumerate(rows):
        if i in nan_rows:
            result.append([f"point failed: {failures[nan_rows.index(i)]}"])
            continue
        problems = []
        if row["p_out"] != grid[i] or abs(row["delta"] - (cfg["p_in"] - row["p_out"])) > 1e-12:
            problems.append(f"p_out/delta {row['p_out']!r}/{row['delta']!r} off the grid value {grid[i]!r}")
        iso = isolated_oracle(sbm, cfg["sizes"], cfg["p_in"], row["p_out"])
        problems.append(_lambda2_problem(row["lambda2_pred"], row["lambdaL"], iso))
        if row["censored"] != 0 or row["tau_median"] is None:
            problems.append(f"{int(row['censored'] or 0)} censored runs")
        emp = row["lambda2_emp"]
        emp_tol = LAMBDA2_EMP_RTOL * row["lambda2_pred"] + LAMBDA2_EMP_NTOL / sum(cfg["sizes"])
        if emp is None or abs(emp - row["lambda2_pred"]) > emp_tol:
            problems.append(f"lambda2_emp {emp!r} far from lambda2_pred {row['lambda2_pred']!r}")
        if gadget and (accuracy is None or accuracy[i] is None or accuracy[i] < ACCURACY_FLOOR):
            problems.append(f"accuracy {None if accuracy is None else accuracy[i]!r} below {ACCURACY_FLOOR}")
        if ref is not None:
            want = ref["rows"][i]
            for key in ("lambda2_pred", "lambdaL"):
                problems.append(_close(key, row[key], want[key], PRED_TOL))
            if seeded and gadget:
                problems.append(_close("rounds", row["tau_median"], want["tau_median"],
                                       GADGET_ROUNDS_RTOL * want["tau_median"]))
            elif seeded:
                for key in ("tau_median", "tau_iqr", "censored"):
                    if row[key] != want[key]:
                        problems.append(f"{key} {row[key]!r} differs from reference {want[key]!r}")
                problems.append(_close("lambda2_emp", emp, want["lambda2_emp"],
                                       LAMBDA2_EMP_REF_RTOL * want["lambda2_emp"]))
        result.append([p for p in problems if p])
    return result


CHECKS = {"predict": check_predict, "bifurcation": check_bifurcation, "sweep": check_sweep}
CAPTURES = {"predict": capture_predict, "bifurcation": capture_bifurcation, "sweep": capture_sweep}


def check(sbm, kind: str, cfg: dict, out: Path, ref: dict | None, seeded: bool, units: int):
    """Problems per operation of one command; unreadable outputs fail them all."""
    try:
        return CHECKS[kind](sbm, cfg, out, ref, seeded)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [[f"unreadable output: {type(exc).__name__}: {exc}"]] * units
