"""Outside-in tracing of epiecon's public functions.

The tracer wraps the functions below from outside the program and keeps one
span per call in memory: name, start, end, parent span and whether it
raised.  Modules that bound a function at import (``from .hamiltonian
import chain_rule_residual`` in ``cli``, ``hamiltonian_gap_profile`` in
``optimizer``, ``expand_blocks`` in ``config`` and ``optimizer``) are
patched as well as the defining module: every loaded ``epiecon`` module
attribute that *is* the original function gets the wrapper.  ``uninstall``
restores the originals, so untraced commands run the program unchanged.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
from time import perf_counter

# layer -> (module, owner attribute or None, function names)
TARGETS = (
    ("config", "epiecon.config", None, ("load_config", "build_scenario")),
    ("epi", "epiecon.epi", None, ("simulate", "step")),
    ("optimizer", "epiecon.optimizer", None,
     ("optimize", "fd_gradient", "penalized_objective")),
    ("hamiltonian", "epiecon.hamiltonian", None,
     ("hamiltonian_gap_profile", "maximize_h1", "h1_part", "chain_rule_residual",
      "transversality_check", "validate_gradient")),
    ("hilbert", "epiecon.hilbert", "HilbertSpace", ("apply_A", "apply_A_star")),
    ("objectives", "epiecon.objectives", None, ("evaluate",)),
    ("economy", "epiecon.economy", None,
     ("labor_supply", "consumption_total", "testing_cost", "capital_step")),
    ("grid", "epiecon.grid", None, ("expand_blocks",)),
)
LAYERS = tuple(t[0] for t in TARGETS)
ROOT = "cli.main"

# Per-layer metrics of one traced command, with units.  Times are shares of
# the traced command's wall time (multiply by trace.run_s for seconds).  A
# function a workload never calls takes no time; as a share that reads 0,
# where a time in seconds would be a constant posing as a measurement.
FUNCTION_METRICS = (
    ("config.load_config.share", "ratio"), ("config.build_scenario.calls", "count"),
    ("config.build_scenario.share", "ratio"),
    ("epi.simulate.calls", "count"), ("epi.simulate.share", "ratio"),
    ("epi.simulate.ns_per_cell_step", "ns"), ("epi.step.calls", "count"),
    ("epi.step.share", "ratio"),
    ("optimizer.optimize.share", "ratio"), ("optimizer.fd_gradient.calls", "count"),
    ("optimizer.fd_gradient.share", "ratio"),
    ("optimizer.penalized_objective.calls", "count"),
    ("optimizer.accept_ratio", "ratio"), ("optimizer.failed_probes", "count"),
    ("hamiltonian.hamiltonian_gap_profile.share", "ratio"),
    ("hamiltonian.maximize_h1.calls", "count"),
    ("hamiltonian.maximize_h1.share", "ratio"),
    ("hamiltonian.h1_part.calls", "count"), ("hamiltonian.h1_part.share", "ratio"),
    ("hamiltonian.h1_per_maximize", "ratio"),
    ("hamiltonian.chain_rule_residual.share", "ratio"),
    ("hamiltonian.transversality_check.share", "ratio"),
    ("hilbert.apply_A.calls", "count"), ("hilbert.apply_A_star.calls", "count"),
    ("hilbert.apply_A_star.share", "ratio"),
    ("objectives.evaluate.calls", "count"), ("objectives.evaluate.share", "ratio"),
    ("economy.calls", "count"),
    ("grid.expand_blocks.calls", "count"), ("grid.expand_blocks.share", "ratio"),
)
LAYER_METRICS = tuple((f"{layer}.{stat}", "ratio") for layer in LAYERS
                      for stat in ("self_share", "share")) + (("cli.self_share", "ratio"),)
PER_LAYER = FUNCTION_METRICS + LAYER_METRICS + (
    ("cli.output_bytes", "bytes"),
    ("trace.run_s", "s"), ("trace.untraced_run_s", "s"),
    ("trace.overhead", "ratio"), ("trace.peak_rss_mb", "MB"),
)


def _simulate_cells(args, kwargs):
    initial = args[0] if args else kwargs["initial"]
    time_grid = args[5] if len(args) > 5 else kwargs["time_grid"]
    return initial.grid.n_age * time_grid.n_steps


_SIZE = {"epi.simulate": _simulate_cells}


class Tracer:
    """Span recorder for one process; spans are [name, start, end, parent, raised, cells]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        size = _SIZE.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False,
                    size(args, kwargs) if size else 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "epiecon" or key.startswith("epiecon."))]
        for layer, modname, owner, names in TARGETS:
            home = sys.modules[modname]
            if owner is not None:
                cls = getattr(home, owner)
                for fname in names:
                    original = cls.__dict__[fname]
                    setattr(cls, fname, self._wrap(f"{layer}.{fname}", original))
                    self._patched.append((cls, fname, original))
                continue
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def root(self):
        """Record the whole command as the root span (spans of earlier commands are dropped)."""
        self.spans.clear()
        self._stack.append(0)
        self.spans.append([ROOT, perf_counter(), 0.0, -1, False, 0])
        try:
            yield
        finally:
            self.spans[0][2] = perf_counter()
            self._stack.pop()


def summarize(spans: list, n_iters: int) -> dict:
    """Fold spans into calls, inclusive and self times per function and layer.

    A span's self time is its duration minus its direct children's
    durations.  A layer's ``share`` is the time under its outermost spans
    (spans with no ancestor of the same layer) over the root's duration.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    layer_of = [s[0].split(".", 1)[0] for s in spans]
    outer = [True] * n
    for k in range(1, n):
        p = spans[k][3]
        child[p] += dur[k]
        q = p
        while q >= 0:
            if layer_of[q] == layer_of[k]:
                outer[k] = False
                break
            q = spans[q][3]

    calls, incl, self_by_layer, outer_by_layer = {}, {}, {}, {}
    for k, s in enumerate(spans):
        name, layer = s[0], layer_of[k]
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + dur[k]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + dur[k] - child[k]
        if outer[k]:
            outer_by_layer[layer] = outer_by_layer.get(layer, 0.0) + dur[k]

    def parented(name, parent):
        return sum(1 for s in spans if s[0] == name and s[3] >= 0
                   and spans[s[3]][0] == parent)

    total = dur[0]
    out = {}
    for metric, _unit in FUNCTION_METRICS:
        fn, stat = metric.rsplit(".", 1)
        if stat == "calls":
            out[metric] = calls.get(fn, 0)
        elif stat == "share":
            out[metric] = incl.get(fn, 0.0) / total
    cells = sum(s[5] for s in spans if s[0] == "epi.simulate")
    out["epi.simulate.ns_per_cell_step"] = (
        1e9 * incl.get("epi.simulate", 0.0) / cells if cells else 0.0)
    # line-search trials: objective calls made by optimize itself, minus the start point
    trials = max(parented("optimizer.penalized_objective", "optimizer.optimize") - 1, 0)
    out["optimizer.accept_ratio"] = n_iters / trials if trials else 0.0
    out["optimizer.failed_probes"] = sum(
        1 for s in spans if s[0] == "optimizer.penalized_objective" and s[4])
    n_max = calls.get("hamiltonian.maximize_h1", 0)
    out["hamiltonian.h1_per_maximize"] = (
        parented("hamiltonian.h1_part", "hamiltonian.maximize_h1") / n_max
        if n_max else 0.0)
    out["economy.calls"] = sum(n for fn, n in calls.items() if fn.startswith("economy."))
    for layer in LAYERS:
        out[f"{layer}.self_share"] = self_by_layer.get(layer, 0.0) / total
        out[f"{layer}.share"] = outer_by_layer.get(layer, 0.0) / total
    out["cli.self_share"] = self_by_layer["cli"] / total
    return out


def median_summary(summaries: list) -> dict:
    """Metric-wise median over the traced repetitions."""
    return {k: statistics.median(s[k] for s in summaries) for k in summaries[0]}
