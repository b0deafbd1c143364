"""Tiny-grid smoke test of the benchmark harness (no timing gate).

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs at n_age 16 with one short measurement, untraced and
traced; the test checks the metric names against BENCHMARK.json and that
no command failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import MIN_REPS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracer.PER_LAYER)


def test_seed_fixes_inputs_not_sizes():
    for name in workloads.WORKLOADS:
        a, b = (workloads.make_config(name, s) for s in (workloads.DEFAULT_SEED,
                                                          workloads.HELD_OUT_SEED))
        assert a == workloads.make_config(name, workloads.DEFAULT_SEED)
        assert a != b and a["grid"] == b["grid"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_grid(workload, trace):
    out = run.run_workload(workload, workloads.DEFAULT_SEED, 0.0, trace, ROOT,
                           scale="tiny", setup_probes=1)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(out["metrics"]) == sorted(m["name"] for m in spec)
    assert out["correct"] and out["failed"] == 0 and out["_error_rate"] == 0
    assert out["attempted"] >= 1 + MIN_REPS * (2 if trace else 1)


def test_refuses_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "check",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
