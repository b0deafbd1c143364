"""Correctness checks on the outputs of one benchmark command.

``extract`` reads a command's output files into named numbers (strict JSON
only: NaN and Infinity are rejected).  ``problems`` lists what is wrong with
them: a broken invariant, or a value that differs from the expected one by
more than ``RTOL``.  Expected values are the references recorded on the seed
commit (``references.json``) when the seed has one, otherwise the values of
the run's own warm-up command.

RTOL passes a reordered floating-point sum (agreement to about 1e-12 is
expected from the planned array and batching refactors) but fails a changed
result.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

RTOL = 1e-9
ATOL = 1e-12


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


def _strict_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)


def _rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _optimize(out: Path) -> dict:
    rep = _strict_json(out / "optim_report.json")
    trace = rep["objective_trace"]
    policy = [float(x) for row in _rows(out / "best_policy.csv")[1:] for x in row[2:]]
    return {"objective_final": float(trace[-1]),
            "integrated_gap_final": float(rep["integrated_gap_final"]),
            "n_iters": float(rep["n_iters"]),
            "_feasible": rep["feasible"], "_warnings": len(rep["warnings"]),
            "_monotone": all(b >= a for a, b in zip(trace, trace[1:])),
            "_policy_finite": all(math.isfinite(x) for x in policy)}


def _check(out: Path) -> dict:
    rep = _strict_json(out / "check.json")
    adj, chain, gap = rep["adjoint_identity"], rep["chain_rule_identity"], rep["hamiltonian_gap"]
    return {"chain_rule_residual": float(chain["residual"]),
            "coarse_chain_rule_residual": float(chain["coarse_residual"]),
            "gap_min": float(gap["min"]), "gap_integrated": float(gap["integrated"]),
            "_adjoint_residual": float(adj["max_rel_residual"]),
            "_adjoint_bound": float(adj["bound_5da"])}


def _sweep(out: Path) -> dict:
    rows = _rows(out / "sweep.csv")
    values = {f"v{i}_{j}": float(x) for i, row in enumerate(rows[1:])
              for j, x in enumerate(row[1:])}
    details = _rows(out / "sweep_details.csv")[1:]
    values["_errors"] = sum(1 for row in details if row[5])
    return values


def _simulate(out: Path) -> dict:
    header, *body = _rows(out / "trajectory.csv")
    rows = [[float(x) for x in row] for row in body]
    col = {name: k for k, name in enumerate(header)}
    dt = rows[1][col["t"]] - rows[0][col["t"]]
    snaps = _rows(out / "snapshots.csv")[1:]
    return {"K_final": rows[-1][col["K"]], "N_final": rows[-1][col["N"]],
            "deaths_flow_final": rows[-1][col["deaths_flow"]],
            "deaths_total": dt * sum(r[col["deaths_flow"]] for r in rows[:-1]),
            "_finite": all(math.isfinite(x) for r in rows for x in r),
            "_snapshot_rows": len(snaps)}


EXTRACT = {"optimize": _optimize, "check": _check,
           "sweep-table": _sweep, "simulate-fine": _simulate}


def extract(workload: str, out: Path) -> dict:
    return EXTRACT[workload](Path(out))


def _invariants(workload: str, v: dict, cfg: dict) -> list:
    bad = []
    if workload == "optimize":
        if not v["_feasible"]:
            bad.append("final policy infeasible")
        if v["_warnings"]:
            bad.append(f"{v['_warnings']} optimizer warnings (failed probes)")
        if not v["_monotone"]:
            bad.append("objective trace decreases")
        if not v["_policy_finite"]:
            bad.append("best_policy.csv has non-finite values")
    elif workload == "check":
        if not v["_adjoint_residual"] <= v["_adjoint_bound"]:
            bad.append(f"adjoint residual {v['_adjoint_residual']} > bound_5da "
                       f"{v['_adjoint_bound']}")
    elif workload == "sweep-table":
        if v["_errors"]:
            bad.append(f"{v['_errors']} sweep points failed")
    elif workload == "simulate-fine":
        if not v["_finite"]:
            bad.append("trajectory.csv has non-finite values")
        want = len(cfg["output"]["snapshot_times"]) * cfg["grid"]["n_age"]
        if v["_snapshot_rows"] != want:
            bad.append(f"snapshots.csv has {v['_snapshot_rows']} rows, expected {want}")
    for key, x in v.items():
        if not key.startswith("_") and not math.isfinite(x):
            bad.append(f"{key} is {x}")
    return bad


def problems(workload: str, values: dict, expected: dict, cfg: dict) -> list:
    """Invariant failures plus mismatches against ``expected``."""
    bad = _invariants(workload, values, cfg)
    for key, want in expected.items():
        got = values.get(key)
        if got is None:
            bad.append(f"{key} missing")
        elif not math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL):
            bad.append(f"{key} = {got!r}, expected {want!r}")
    return bad


def public(values: dict) -> dict:
    """The compared (non-invariant) values."""
    return {k: v for k, v in values.items() if not k.startswith("_")}
