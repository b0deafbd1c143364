"""Record reference outputs for the shipped seeds into references.json.

Run from the root of a checkout of the commit whose outputs are the
reference (the benchmark compares later commits against them):

    python3 perfbench/record_references.py

Each workload command runs once per seed in REFERENCE_SEEDS with the same
pinned thread settings as the benchmark; the checked values of its outputs
(checks.extract) are stored.  Regenerate after any change to workloads.py.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from worker import THREAD_VARS, Runner  # noqa: E402

# the default seed, the held-out seed, and a range for ad-hoc seeds
REFERENCE_SEEDS = sorted({workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED, *range(32)})


def main() -> int:
    # as in run.py's child processes; numpy is first imported by Runner, after this
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    work = ROOT / ".perfbench_work" / "references"
    refs = {}
    try:
        for workload in workloads.WORKLOADS:
            refs[workload] = {}
            for seed in REFERENCE_SEEDS:
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                config = work / "config.json"
                config.write_text(json.dumps(workloads.make_config(workload, seed)),
                                  encoding="utf-8")
                runner = Runner(workload, config, work, None)
                if runner.command() is None:
                    print(f"{workload} seed {seed}: {runner.errors[-1]}", file=sys.stderr)
                    return 1
                refs[workload][str(seed)] = runner.expected
                print(f"{workload} seed {seed}: {len(runner.expected)} values", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = Path(__file__).resolve().parent / "references.json"
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
