"""Benchmark child process: one fresh interpreter per set-up probe or run.

    worker.py setup CONFIG
        Time ``import epiecon`` + ``config.load_config`` +
        ``config.build_scenario`` in this fresh process; print {"setup_s": ...}.

    worker.py run WORKLOAD CONFIG WORKDIR SECONDS TRACE EXPECTED RESULT
        Closed loop, one caller: a warm-up command, then one
        ``epiecon.cli.main`` command at a time for SECONDS (at least
        MIN_REPS).  Each untraced command is bracketed by two runs of
        ``reference_kernel``.  With TRACE 1 the repetitions alternate
        untraced and traced.  Every command's outputs are checked.  The
        result (times, reference times, failures, per-layer summaries, peak
        RSS, environment) is written to RESULT as JSON.

The parent (run.py) sets PYTHONPATH to the checkout's ``src`` and pins the
BLAS/OpenMP thread variables before this interpreter starts.
"""

from __future__ import annotations

import sys
from time import perf_counter

if __name__ == "__main__" and sys.argv[1:2] == ["setup"]:
    # nothing but the interpreter is loaded before the clock starts
    t0 = perf_counter()
    from epiecon import config as _cfgmod
    _cfgmod.build_scenario(_cfgmod.load_config(sys.argv[2]))
    print('{"setup_s": %r}' % (perf_counter() - t0))
    sys.exit(0)

import contextlib
import copy
import io
import json
import os
import platform
import resource
import shutil
import statistics
import traceback
from pathlib import Path

import checks
import tracer as tracing
import workloads

MIN_REPS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "threads": {k: os.environ.get(k) for k in THREAD_VARS}}


_REF_DATA: dict = {}


def _ref_data() -> dict:
    import numpy as np

    if not _REF_DATA:
        rng = np.random.default_rng(0)
        _REF_DATA.update(mix=rng.random((200, 200)) / 200.0, s0=rng.random(200),
                         nested={"rows": rng.random((200, 200)).tolist(),
                                 "meta": {"ids": list(range(100)), "name": "x" * 50}})
    return _REF_DATA


def _small_steps() -> None:
    """800 steps of 200-element numpy updates, a 200x200 matvec and per-step dicts."""
    import numpy as np

    data = _ref_data()
    mix, s = data["mix"], data["s0"].copy()
    i, r = 0.01 * s, np.zeros_like(s)
    totals = []
    for _ in range(800):
        new = 0.9 * s * (mix @ i)
        s = np.maximum(s - new, 0.0)
        i = i + new - 0.1 * i
        r = r + 0.1 * i
        totals.append({"N": float(s.sum() + i.sum() + r.sum()), "I": float(i.sum())})


def _object_copies() -> None:
    """Two deep copies of a nested 200x200 list of floats (a config-sized document)."""
    nested = _ref_data()["nested"]
    for _ in range(2):
        copy.deepcopy(nested)


def _large_matvecs() -> None:
    """30 matvecs with a freshly allocated 1600x1600 matrix (freed on return)."""
    import numpy as np

    big = np.full((1600, 1600), 1.0 / 1600.0)
    x = _ref_data()["s0"].repeat(8)
    for _ in range(30):
        x = big @ x
        x = x / x.max()


# The reference kernel of each workload is made of the kinds of work its
# command does, so the two slow down together when the host's core does.
REFERENCE = {"optimize": (_small_steps, _object_copies),
             "check": (_small_steps, _object_copies),
             "sweep-table": (_small_steps, _object_copies),
             "simulate-fine": (_small_steps, _large_matvecs)}


def reference_kernel(workload: str) -> float:
    """Run the workload's fixed reference kernel; returns its wall time in seconds.

    The kernel never changes, so command time / kernel time measured back
    to back on the same core keeps the program's cost and cancels the
    host's speed phases.  40-60 ms on an unloaded 2.1 GHz Xeon core.
    """
    t0 = perf_counter()
    for part in REFERENCE[workload]:
        part()
    return perf_counter() - t0


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Runner:
    """Runs and checks one workload command repeatedly in this process."""

    def __init__(self, workload, config_path, workdir, expected):
        from epiecon import cli

        self.cli = cli
        self.workload = workload
        self.cfg = json.loads(Path(config_path).read_text(encoding="utf-8"))
        self.out = Path(workdir) / "out"
        self.argv = [workloads.COMMAND[workload], "--config", str(config_path),
                     "--out", str(self.out)]
        if workload == "sweep-table":
            self.argv += ["--jobs", "1"]
        self.expected = expected
        self.attempted = 0
        self.errors = []

    def command(self, tracer=None):
        """Run one command.

        Returns (seconds, output bytes, optim iterations, reference seconds);
        the last is the mean of the reference kernel run right before and
        right after an untraced command, None for a traced one.
        """
        shutil.rmtree(self.out, ignore_errors=True)
        self.attempted += 1
        sink = io.StringIO()
        root = tracer.root() if tracer else contextlib.nullcontext()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), root:
                ref = None if tracer else reference_kernel(self.workload)
                t0 = perf_counter()
                code = self.cli.main(self.argv)
                elapsed = perf_counter() - t0
                if ref is not None:
                    ref = (ref + reference_kernel(self.workload)) / 2.0
        except Exception:  # a traceback is a failed command, not a harness crash
            self.errors.append(traceback.format_exc(limit=3))
            return None
        if code != 0:
            self.errors.append(f"exit code {code}: {sink.getvalue()[-300:]}")
            return None
        try:
            values = checks.extract(self.workload, self.out)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as err:
            self.errors.append(f"unreadable output: {err!r}")
            return None
        if self.expected is None:
            self.expected = checks.public(values)
        bad = checks.problems(self.workload, values, self.expected, self.cfg)
        if bad:
            self.errors.append("; ".join(bad))
            return None
        n_iters = int(values.get("n_iters", 0))
        return elapsed, _dir_bytes(self.out), n_iters, ref


def run(workload, config_path, workdir, seconds, trace, expected_json, result_path):
    expected = json.loads(expected_json) if expected_json != "none" else None
    runner = Runner(workload, config_path, workdir, expected)
    runner.command()  # warm-up: imports, caches and lazy set-up settle here
    times, ref_times, traced_times, summaries = [], [], [], []
    tracer = tracing.Tracer() if trace else None
    start = last = perf_counter()
    # stop before a repetition that would end past SECONDS (judged by the last one)
    while len(times) < MIN_REPS or 2 * perf_counter() - last - start <= seconds:
        last = perf_counter()
        res = runner.command()
        if res:
            times.append(res[0])
            ref_times.append(res[3])
        if tracer:
            tracer.install()
            try:
                res = runner.command(tracer)
            finally:
                tracer.uninstall()
            if res:
                traced_times.append(res[0])
                summary = tracing.summarize(tracer.spans, res[2])
                summary["cli.output_bytes"] = res[1]
                summaries.append(summary)
        if runner.attempted > 1 and len(runner.errors) == runner.attempted:
            break  # nothing succeeds; stop instead of spinning for SECONDS
    result = {
        "times": times, "ref_times": ref_times, "traced_times": traced_times,
        "layers": tracing.median_summary(summaries) if summaries else None,
        "attempted": runner.attempted, "failed": len(runner.errors),
        "errors": runner.errors[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    _, mode, *rest = sys.argv
    if mode != "run" or len(rest) != 7:
        sys.exit(f"usage: {sys.argv[0]} setup CONFIG | run WORKLOAD CONFIG WORKDIR "
                 "SECONDS TRACE EXPECTED RESULT")
    wl, cfg_path, wd, secs, tr, exp, res_path = rest
    run(wl, cfg_path, wd, float(secs), tr == "1", exp, res_path)
