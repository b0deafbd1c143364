"""Command-line interface: simulate | evaluate | optimize | check | sweep.

All commands read one JSON configuration and render their outputs (CSV and
JSON) as text; ``main`` writes them under the output directory once all
have rendered, and echoes the resolved configuration beside them for
reproducibility, so a command that fails writes nothing.  Outputs are
byte-deterministic: fixed float formatting, seeds from the configuration,
canonical JSON key order.

Exit codes: 0 success, 2 configuration error, 3 model runtime error,
4 optimizer infeasible start.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import functools
import io
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import optimizer
from .errors import ConfigurationError, InfeasibleStart, ModelError, NonFiniteState
from .grid import TimeGrid
from .hamiltonian import (chain_rule_residual, hamiltonian_gap_profile,
                          integrated_gap, transversality_check, validate_gradient)

log = logging.getLogger("epiecon")

_FLOAT_FMT = "%.17g"


def _fmt(x) -> str:
    return _FLOAT_FMT % float(x)


def _csv_text(header, rows) -> str:
    """A CSV table as text, as ``csv.writer`` writes it."""
    fh = io.StringIO()
    writer = csv.writer(fh)
    writer.writerow(header)
    if isinstance(rows, np.ndarray):  # a float table: no cell needs quoting
        line = ",".join([_FLOAT_FMT] * rows.shape[1]) + writer.dialect.lineterminator
        fh.writelines(line % tuple(row) for row in rows.tolist())
    else:
        writer.writerows([cell if isinstance(cell, str) else _fmt(cell) for cell in row]
                         for row in rows)
    return fh.getvalue()


def _json_text(name: str, payload) -> str:
    """Strict JSON for the file ``name``; a non-finite result is a model error naming
    its first non-finite field, not a NaN."""
    fh = io.StringIO()
    try:
        cfgmod._write_json(fh, payload)
    except ValueError as err:
        field = cfgmod._nonfinite_path(payload)
        raise NonFiniteState(f"{name}: non-finite result ({field}: {err})") from err
    return fh.getvalue() + "\n"


def _table(rows) -> str:
    width = max(len(str(k)) for k, _ in rows)
    return "\n".join(f"{key:<{width}}  {value}" for key, value in rows)


# ----------------------------------------------------------------------
# subcommands: each returns its output files as {name: text} and the text
# it prints; ``out`` is where main will write them
# ----------------------------------------------------------------------

def cmd_simulate(cfg, out: Path) -> tuple[dict, str]:
    scenario = cfgmod.build_scenario(cfg)
    log.info("simulating %d steps on %d age cells",
             scenario.time_grid.n_steps, scenario.age_grid.n_age)
    traj = scenario.simulate()
    tg = traj.time_grid  # each snapshot time takes its nearest node, clipped to [t0, t_end]
    nodes = [int(round(np.clip((t - tg.t0) / tg.dt, 0, tg.n_steps)))
             for t in cfg["output"]["snapshot_times"]]
    totals = scenario.age_grid.da * traj.X.sum(axis=2)  # S, I, R per node
    files = {"trajectory.csv": _csv_text(
        ["t", "S", "I", "R", "N", "Xi", "K", "L", "Y", "C", "Dcost", "deaths_flow"],
        np.column_stack([traj.times, totals, traj.N, traj.Xi, traj.K, traj.L,
                         traj.Y, traj.C, traj.D_cost, traj.deaths_flow]))}
    if nodes:
        # a block's rows differ only in (s, i, r): t and the ages are text in its template
        age_rows = [f",{a},{_FLOAT_FMT},{_FLOAT_FMT},{_FLOAT_FMT}"
                    for a in map(_fmt, scenario.age_grid.nodes.tolist())]
        blocks = ["t,a,s,i,r\r\n"]
        for k in nodes:
            t = _fmt(traj.times[k])
            block = t + ("\r\n" + t).join(age_rows) + "\r\n"
            blocks.append(block % tuple(traj.X[k].T.ravel().tolist()))
        files["snapshots.csv"] = "".join(blocks)
    return files, _table([
        ("steps", traj.n_steps),
        ("final N", _fmt(traj.N[-1])),
        ("final K", _fmt(traj.K[-1])),
        ("feasible", traj.feasible),
        ("outputs", str(out)),
    ])


def _evaluation_payload(scenario, traj, report) -> dict:
    return {
        "target": scenario.obj.composite or scenario.obj.which,
        "value": report.value,
        "components": report.components,
        "feasible": report.feasible,
        "violation": report.violation,
        "tail_bound": report.tail_bound,
        "min_K": traj.min_K,
    }


def cmd_evaluate(cfg, out: Path) -> tuple[dict, str]:
    scenario = cfgmod.build_scenario(cfg)
    traj = scenario.simulate()
    report = scenario.evaluate(traj=traj)
    payload = _evaluation_payload(scenario, traj, report)
    return {"evaluation.json": _json_text("evaluation.json", payload)}, _table([
        ("target", payload["target"]),
        ("value", _fmt(report.value)),
        ("feasible", report.feasible),
        ("violation", _fmt(report.violation)),
        ("tail bound", "-" if report.tail_bound is None else _fmt(report.tail_bound)),
    ])


def cmd_optimize(cfg, out: Path) -> tuple[dict, str]:
    scenario = cfgmod.build_scenario(cfg)
    opt_cfg = cfgmod.build_optimizer_config(cfg)
    value_function = cfgmod.build_value_function(cfg, scenario)
    log.info("optimizing %dx%d control blocks, budget %d iterations",
             opt_cfg.n_time_blocks, opt_cfg.n_age_blocks, opt_cfg.max_iters)
    report = optimizer.optimize(scenario, opt_cfg, value_function=value_function)
    files = {"optim_report.json": _json_text("optim_report.json", {
        "objective_trace": list(map(float, report.objective_trace)),
        "violation_trace": list(map(float, report.violation_trace)),
        "feasible": report.feasible,
        "converged": report.converged,
        "n_iters": report.n_iters,
        "warnings": report.warnings,
        "integrated_gap_initial": report.integrated_gap_initial,
        "integrated_gap_final": report.integrated_gap_final,
        "seed": report.seed,
    })}

    blocks = report.blocks
    _, ntb, nab = blocks.shape
    tg, ag = scenario.time_grid, scenario.age_grid
    rows = []
    for tb in range(ntb):
        for ab in range(nab):
            rows.append([tb, ab,
                         tg.t0 + tb * (tg.n_steps // ntb) * tg.dt,
                         ab * (ag.n_age // nab) * ag.da,
                         *blocks[:, tb, ab]])
    files["best_policy.csv"] = _csv_text(
        ["t_block", "a_block", "t_start", "a_start", "c", "theta", "eta"],
        [[str(r[0]), str(r[1])] + r[2:] for r in rows])
    return files, _table([
        ("iterations", report.n_iters),
        ("objective", _fmt(report.objective_trace[-1])),
        ("converged", report.converged),
        ("feasible", report.feasible),
        ("integrated gap", "-" if report.integrated_gap_final is None
         else _fmt(report.integrated_gap_final)),
    ])


def _smooth_pairs(space, rng, n_pairs):
    """Random smooth compactly supported (h, p) pairs as two (n_pairs, 3, n_age) stacks."""
    a = space.grid.nodes / space.grid.a_max
    env = np.zeros_like(a)
    inside = np.abs(a - 0.5) < 0.3
    env[inside] = np.exp(-1.0 / (1.0 - ((a[inside] - 0.5) / 0.3) ** 2))
    coef = rng.standard_normal((n_pairs, 2, 3, 3))[..., None]
    wave = env * sum(coef[..., k, :] * np.sin((k + 1) * np.pi * a) for k in range(3))
    return wave[:, 0], wave[:, 1]


def cmd_check(cfg, out: Path) -> tuple[dict, str]:
    scenario = cfgmod.build_scenario(cfg)
    ver, n_steps = cfg["verification"], cfg["grid"]["n_steps"]
    steps = [cfgmod.step_count(n_steps * mult, scenario.age_grid.n_age,
                               "verification.horizon_multipliers")
             for mult in ver["horizon_multipliers"]]
    rng = np.random.default_rng(ver["seed"])

    # adjoint identity on random smooth compactly supported pairs
    space = scenario.space
    h, p = _smooth_pairs(space, rng, ver["adjoint_pairs"])
    lhs = space.inner(space.apply_A(h), p)
    rhs = space.inner(h, space.apply_A_star(p))
    residuals = np.abs(lhs - rhs) / (space.norm(h) * space.norm(p))
    adjoint = {"n_pairs": ver["adjoint_pairs"],
               "max_rel_residual": float(residuals.max()),
               "bound_5da": 5.0 * scenario.age_grid.da}

    # chain-rule residual for the configured value function and policy, with
    # a coarse companion for the order estimate when grids and policy blocks allow
    v = cfgmod.build_value_function(cfg, scenario)
    grad_err = validate_gradient(v, [(scenario.initial.as_triple(), max(scenario.K0, 1.0))])
    # one run serves every horizon: with the last policy row held, the configured
    # run and each horizon's are, bit for bit, prefixes of the longest one, and a
    # failure in any of them is the longest run's at the same step
    tg = TimeGrid.aligned(scenario.age_grid, t0=scenario.time_grid.t0,
                          n_steps=max(n_steps, *steps))
    longest = dataclasses.replace(scenario, time_grid=tg).simulate(
        scenario.policy[:, np.minimum(np.arange(tg.n_steps + 1), n_steps)])
    traj = _head(longest, n_steps)
    residual = chain_rule_residual(v, scenario.policy, traj, scenario)
    chain = {"residual": float(residual), "dt": scenario.time_grid.dt,
             "gradient_check": float(grad_err)}
    n_age = cfg["grid"]["n_age"]
    nab, ntb = cfg["policy"]["n_age_blocks"], cfg["policy"]["n_time_blocks"]
    if n_age % (2 * nab) == 0 and n_age // 2 >= 8 and n_steps % (2 * ntb) == 0:
        coarse_cfg = copy.deepcopy(cfg)
        coarse_cfg["grid"]["n_age"] = n_age // 2
        coarse_cfg["grid"]["n_steps"] = n_steps // 2
        coarse_cfg["search"]["n_age_blocks"] = 1  # the companion runs no control search
        _coarsen_tables(coarse_cfg)
        coarse = cfgmod.build_scenario(coarse_cfg)
        v_c = cfgmod.build_value_function(coarse_cfg, coarse)
        traj_c = coarse.simulate()
        res_c = chain_rule_residual(v_c, coarse.policy, traj_c, coarse)
        chain["coarse_residual"] = float(res_c)
        chain["coarse_dt"] = coarse.time_grid.dt
        if abs(residual) > 0 and abs(res_c) > 0:
            chain["order"] = float(np.log2(abs(res_c) / abs(residual)))

    # Hamiltonian gap profile of the configured policy
    gaps = hamiltonian_gap_profile(v, scenario.policy, traj, scenario)
    gap = {"min": float(gaps.min()), "max": float(gaps.max()),
           "integrated": integrated_gap(gaps, traj, scenario.obj)}

    # transversality over extended horizons, each run cut from the longest
    tv = transversality_check(v, [_head(longest, n) for n in steps], scenario.obj.rho)
    transversality = {"horizons": [float(x) for x in tv.horizons],
                      "weighted_values": [float(x) for x in tv.weighted_values],
                      "exponent": tv.exponent, "decaying": tv.decaying}

    payload = {"adjoint_identity": adjoint, "chain_rule_identity": chain,
               "hamiltonian_gap": gap, "transversality": transversality}
    return {"check.json": _json_text("check.json", payload)}, _table([
        ("adjoint max residual", _fmt(adjoint["max_rel_residual"])),
        ("adjoint bound (5 da)", _fmt(adjoint["bound_5da"])),
        ("chain-rule residual", _fmt(chain["residual"])),
        ("gap min", _fmt(gap["min"])),
        ("gap integrated", _fmt(gap["integrated"])),
        ("transversality decaying", transversality["decaying"]),
    ])


def _head(traj, n_steps: int):
    """The first ``n_steps`` steps of a run, as far as the checks read one: its
    states, its capital and its time grid."""
    return dataclasses.replace(traj, X=traj.X[:n_steps + 1], K=traj.K[:n_steps + 1],
                               time_grid=dataclasses.replace(traj.time_grid, n_steps=n_steps))


def _coarsen_tables(node) -> None:
    """Restrict the config's per-cell tables to the half grid by 2-cell (2x2) block means."""
    if not isinstance(node, dict):
        return
    if node.get("type") == "table":
        v = np.asarray(node["values"], dtype=np.float64)
        halves = tuple(d for n in v.shape for d in (n // 2, 2))
        node["values"] = v.reshape(halves).mean(axis=tuple(range(1, 2 * v.ndim, 2))).tolist()
    for child in node.values():
        _coarsen_tables(child)


def _set_by_path(cfg: dict, path: str, value) -> None:
    """Set ``path`` in ``cfg``; each dict on the path is replaced by a shallow copy first."""
    keys = path.split(".")
    node = cfg
    for key in keys[:-1]:
        if not isinstance(node, dict) or key not in node:
            raise ConfigurationError(f"sweep path {path!r} not found in config")
        if isinstance(node[key], dict):
            node[key] = dict(node[key])
        node = node[key]
    if not isinstance(node, dict) or keys[-1] not in node:
        raise ConfigurationError(f"sweep path {path!r} not found in config")
    node[keys[-1]] = value


def _sweep_point(cfg, overrides):
    """The config of one sweep point, schema-checked where it overrides ``cfg``."""
    # the point shares every node of cfg off its override paths: the builders only read
    point = dict(cfg)
    for path, value in overrides:
        _set_by_path(point, path, value)
    # a swept number may land where the schema wants another type; the builders check values
    sections = {path.split(".")[0] for path, _ in overrides}
    cfgmod.validate_config(point, sections)
    if "optimizer" in sections:  # a section that no scenario builder reads
        cfgmod._build("optimizer", point["optimizer"], optimizer.OptimizerConfig)
    return point


def _score_group(scenario, blocks) -> list:
    """The rows of a group's (B, 3, n_time_blocks, n_age_blocks) policy block stack:
    each point's score, or its model error."""
    return [{"value": None, "feasible": False, "violation": None, "error": str(report)}
            if isinstance(report, ModelError) else
            {"value": report.value, "feasible": report.feasible,
             "violation": report.violation, "error": None}
            for report in scenario.score(blocks)]


def _worker_count(jobs: int, n_points: int) -> int:
    """Processes for ``--jobs jobs`` over ``n_points``: no more than the points or the cores."""
    if jobs < 1:
        raise ConfigurationError(f"--jobs must be >= 1, got {jobs}")
    return min(jobs, n_points, os.cpu_count() or 1)


def _sweep_results(cfg, tasks, jobs: int) -> list:
    """One row per sweep point, each task the point's (path, value) overrides.

    Points that differ only in their policy share one scenario: they group by
    their other overrides (by repr, so 1, 1.0 and -0.0 stay apart) and their
    block shape, and each group's policies are scored as one batch.  Points
    are checked and built in order, as a loop over them would, so a rejected
    point raises that loop's error.  ``--jobs`` spreads the groups.
    """
    workers = _worker_count(jobs, len(tasks))
    groups = {}  # key -> (scenario, point indices, policy blocks)
    for k, overrides in enumerate(tasks):
        point = _sweep_point(cfg, overrides)
        key = (tuple((path, repr(value)) for path, value in overrides
                     if not path.startswith("policy.")),
               point["policy"]["n_time_blocks"], point["policy"]["n_age_blocks"])
        if key not in groups:
            groups[key] = (cfgmod.build_scenario(point), [], [])
        groups[key][1].append(k)
        groups[key][2].append(cfgmod.policy_blocks(point))
    scenarios = [scenario for scenario, _, _ in groups.values()]
    stacks = [np.stack(blocks) for _, _, blocks in groups.values()]
    workers = min(workers, len(groups))
    if workers > 1:  # a task carries its group's scenario and blocks
        from concurrent.futures import ProcessPoolExecutor  # loaded only when used
        with ProcessPoolExecutor(max_workers=workers) as pool:
            scored = list(pool.map(_score_group, scenarios, stacks))
    else:
        scored = list(map(_score_group, scenarios, stacks))
    results = [None] * len(tasks)
    for (_, indices, _), rows in zip(groups.values(), scored):
        for k, row in zip(indices, rows):
            results[k] = row
    return results


def _sweep_files(cfg, points, results) -> dict:
    """The sweep tables of ``points`` (value pairs) and their rows, by file name."""
    axes = cfg["sweep"]["axes"]
    values0 = axes[0]["values"]
    values1 = axes[1]["values"] if len(axes) > 1 else [None]
    grid_vals = np.array([[r["value"] if r["value"] is not None else np.nan
                           for r in results[i * len(values1):(i + 1) * len(values1)]]
                          for i in range(len(values0))])

    header = [f"{axes[0]['path']}\\{axes[1]['path'] if len(axes) > 1 else ''}"]
    header += [("" if v is None else _fmt(v)) for v in values1]
    rows = [[_fmt(v0)] + [_fmt(grid_vals[i, j]) for j in range(len(values1))]
            for i, v0 in enumerate(values0)]
    detail_rows = [[_fmt(v0), "" if v1 is None else _fmt(v1),
                    "" if r["value"] is None else _fmt(r["value"]), str(r["feasible"]),
                    "" if r["violation"] is None else _fmt(r["violation"]),
                    r["error"] or ""]
                   for (v0, v1), r in zip(points, results)]
    return {"sweep.csv": _csv_text(header, rows),
            "sweep_details.csv": _csv_text(
                ["axis0", "axis1", "value", "feasible", "violation", "error"], detail_rows)}


def cmd_sweep(cfg, out: Path, jobs=1) -> tuple[dict, str]:
    if "sweep" not in cfg:
        raise ConfigurationError("config field sweep: required for the sweep command")
    axes = cfg["sweep"]["axes"]
    points = [(v0, v1) for v0 in axes[0]["values"]
              for v1 in (axes[1]["values"] if len(axes) > 1 else [None])]
    paths = [axis["path"] for axis in axes]
    results = _sweep_results(cfg, [list(zip(paths, point)) for point in points], jobs)
    return _sweep_files(cfg, points, results), f"swept {len(points)} points -> {out}"


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

@functools.cache  # one parser per process: main may run many commands
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epiecon",
        description="Age-structured epidemic-economy simulator and optimizer")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("simulate", cmd_simulate), ("evaluate", cmd_evaluate),
                     ("optimize", cmd_optimize), ("check", cmd_check),
                     ("sweep", cmd_sweep)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output directory override")
        if name == "sweep":
            p.add_argument("--jobs", type=int, default=1,
                           help="worker processes for the sweep grid")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        level = os.environ.get("EPIECON_LOG", "WARNING")
        if not isinstance(logging.getLevelName(level.upper()), int):
            raise ConfigurationError(f"EPIECON_LOG {level!r} is not a logging level")
        logging.basicConfig(level=level.upper())
        cfg = cfgmod.load_config(args.config)
        out = Path(args.out or cfg["output"]["dir"])
        files, text = args.fn(cfg, out, **({"jobs": args.jobs} if "jobs" in args else {}))
        try:  # every file is rendered: a command that raised has written nothing
            out.mkdir(parents=True, exist_ok=True)
            for name, body in files.items():
                with open(out / name, "w", newline="", encoding="utf-8") as fh:
                    fh.write(body)
            cfgmod.dump_config(cfg, out / "resolved_config.json")
        except OSError as err:
            raise ConfigurationError(f"cannot write outputs to {out}: {err.strerror}") from err
        print(text)
        return 0
    except ConfigurationError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:  # a grid or horizon too large for this machine
        print(f"configuration error: the run does not fit in memory: {err}", file=sys.stderr)
        return 2
    except InfeasibleStart as err:
        print(f"optimizer error: {err}", file=sys.stderr)
        return 4
    except ModelError as err:
        where = "" if err.step_index is None else f" at step {err.step_index}"
        print(f"model error{where}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
