"""epiecon benchmark: four seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (it builds nothing; ``src/`` is imported
directly):

    python3 perfbench/run.py --workload optimize --seed 0 --seconds 20 --trace 0

Load model: closed loop, one caller, one ``epiecon.cli.main`` command at a
time in one worker process, BLAS/OpenMP pinned to one thread.

--trace 0  end-to-end metrics: run_vs_ref (median over the commands of
           command wall time / wall time of the fixed reference kernel
           timed right before and after it), setup_s (median of
           SETUP_PROBES fresh processes that import epiecon, load and
           build the config) and peak_rss_mb (peak RSS of the worker
           process).  run_s, the median command wall time, is printed
           for reading but is not a result metric.
--trace 1  per-layer metrics from outside-in wrappers (tracer.py); the
           repetitions alternate untraced and traced, which gives the
           tracing overhead.

Why a ratio: the shared host runs each core at one of two speeds (the
slower ~1.5x) in phases of a fraction of a second to several seconds, and
the share of slow time drifts by tens of percent over minutes, so wall
times of the same code taken minutes apart differ by more than any useful
regression bound.  The reference kernel (worker.reference_kernel) runs on
the same core within milliseconds of the command and slows down with it;
the ratio keeps the program's cost and cancels most of the host's
(README.md, "Steadiness and bounds").

Every command is checked (checks.py).  error_rate = failed / attempted
commands is printed with the metrics; ``attempted`` and ``failed`` are in
the result.  The last line of standard output is the result JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import THREAD_VARS  # noqa: E402

SETUP_PROBES = 11
WORKER_TIMEOUT_S = 170.0
END_TO_END = (("run_vs_ref", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def source_record(root: Path) -> dict:
    """Git commit when the checkout is a repository, and a digest of src/."""
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                              capture_output=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def reference(workload: str, seed: int, scale: str):
    if scale != "full":
        return None
    path = HERE / "references.json"
    refs = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    return refs.get(workload, {}).get(str(seed))


def measure_setup(config: Path, env: dict, root: Path, probes: int) -> tuple:
    """Median set-up time over fresh processes, and the number that failed."""
    times, failed = [], 0
    for _ in range(probes):
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "setup", str(config)],
                              cwd=root, env=env, capture_output=True, text=True,
                              timeout=60, check=False)
        if proc.returncode != 0:
            failed += 1
            sys.stderr.write(proc.stderr[-2000:])
            continue
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return (statistics.median(times) if times else None), failed


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 root: Path, scale: str = "full", setup_probes: int = SETUP_PROBES) -> dict:
    """Run one benchmark measurement; returns the result object."""
    work = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config = work / "config.json"
        config.write_text(json.dumps(workloads.make_config(workload, seed, scale)),
                          encoding="utf-8")
        env = child_env(root)
        setup_s, setup_failed = None, 0
        if not trace:
            setup_s, setup_failed = measure_setup(config, env, root, setup_probes)
        expected = reference(workload, seed, scale)
        result_path = work / "result.json"
        argv = [sys.executable, str(HERE / "worker.py"), "run", workload, str(config),
                str(work), repr(float(seconds)), "1" if trace else "0",
                json.dumps(expected) if expected else "none", str(result_path)]
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S, check=False)
        if proc.returncode != 0 or not result_path.exists():
            sys.stderr.write(proc.stderr[-4000:])
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        res = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for err in res["errors"]:
        sys.stderr.write(f"[{workload}] check failed: {err}\n")
    env_record = dict(res["env"], **source_record(root), reference=expected is not None)
    out = {"correct": res["failed"] == 0 and setup_failed == 0,
           "attempted": res["attempted"], "failed": res["failed"], "metrics": {}}
    metrics = out["metrics"]
    if trace:
        layers = res["layers"] or {}
        units = dict(tracer.PER_LAYER)
        values = {k: layers.get(k, 0.0) for k in units}
        if res["times"] and res["traced_times"]:
            run_s = statistics.median(res["times"])
            traced = statistics.median(res["traced_times"])
            values.update({"trace.run_s": traced, "trace.untraced_run_s": run_s,
                           "trace.overhead": traced / run_s - 1.0})
        values["trace.peak_rss_mb"] = res["peak_rss_mb"]
        for name, unit in tracer.PER_LAYER:
            metrics[name] = {"value": values[name], "unit": unit}
    else:
        ratios = [t / r for t, r in zip(res["times"], res["ref_times"])]
        values = {"run_vs_ref": statistics.median(ratios) if ratios else None,
                  "setup_s": setup_s, "peak_rss_mb": res["peak_rss_mb"]}
        if None in values.values():
            out["correct"] = False
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
    out["_env"] = env_record
    out["_error_rate"] = res["failed"] / res["attempted"]
    out["_samples"] = len(res["times"])
    out["_run_s"] = statistics.median(res["times"]) if res["times"] else None
    out["_ref_s"] = statistics.median(res["ref_times"]) if res["ref_times"] else None
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "epiecon" / "__init__.py").is_file():
        print(f"error: {root} holds no epiecon sources (src/epiecon); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    started = time.perf_counter()
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)
    env_record = out.pop("_env")
    error_rate = out.pop("_error_rate")
    samples = out.pop("_samples")
    run_s, ref_s = out.pop("_run_s"), out.pop("_ref_s")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"commands {out['attempted']}  samples {samples}  "
          f"wall {time.perf_counter() - started:.1f} s")
    for name, m in out["metrics"].items():
        value = "-" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<40} {value:>16} {m['unit']}")
    print(f"  {'error_rate':<40} {error_rate:>16.6g} ratio")
    if run_s is not None:
        print(f"  {'run_s (median, not a result metric)':<40} {run_s:>16.6g} s")
    if ref_s is not None:
        print(f"  {'reference kernel (median)':<40} {ref_s:>16.6g} s")
    print("env " + json.dumps(env_record, sort_keys=True))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
