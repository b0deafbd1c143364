import copy
import csv
import dataclasses
import errno
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import typing
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

import epiecon as ee
from epiecon import cli, config as cfgmod, epi
from epiecon.errors import ConfigurationError
from epiecon.hamiltonian import validate_gradient
from epiecon.objectives import ShiftedCRRAUtility
from epiecon.optimizer import OptimizerConfig
from util import (MOVED_RULES, jsonschema_field, looped_horizon_runs, looped_sweep,
                  reference_nonfinite_path, schema_with_rules)


def small_config(**grid_overrides):
    cfg = {
        "grid": {"a_max": 8.0, "n_age": 16, "t0": 0.0, "n_steps": 8},
        "epidemic": {
            "mu_S": {"type": "constant", "value": 0.02},
            "mu_R": {"type": "constant", "value": 0.02},
            "mu_I_base": {"type": "constant", "value": 0.15},
            "gamma": {"type": "constant", "value": 0.5},
            "beta": {"type": "constant", "value": 0.05},
            "xi": {"type": "constant", "value": 0.2},
            "contact": {"type": "constant", "m0": 1.8},
            "initial": {
                "s": {"type": "constant", "value": 1.0},
                "i": {"type": "band", "lo_age": 1.0, "hi_age": 4.0,
                      "value": 0.02, "background": 0.0},
                "r": {"type": "constant", "value": 0.0},
            },
        },
        "economy": {
            "alpha": {"type": "constant", "value": 1.0},
            "e": {"type": "constant", "value": 1.0},
            "delta": 0.05,
            "production": {"type": "linear", "a_k": 0.04, "a_l": 1.0},
            "K0": 100.0,
        },
        "objective": {"which": "J1", "rho": 0.08},
        "policy": {"preset": "laissez_faire", "c_level": 0.1},
        "output": {"dir": "out", "snapshot_times": [0.0, 2.0]},
    }
    cfg["grid"].update(grid_overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_missing_delta_names_field(tmp_path, capsys):
    cfg = small_config()
    del cfg["economy"]["delta"]
    code = cli.main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "economy.delta" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = small_config()
    cfg["economy"]["unknown_knob"] = 3.0
    code = cli.main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "unknown_knob" in capsys.readouterr().err


def test_invalid_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = cli.main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")])
    assert code == 2


@pytest.mark.parametrize("name", ["nosuch.json", "."], ids=["missing", "directory"])
def test_unreadable_config_names_path(tmp_path, capsys, name):
    path = tmp_path / name
    code = cli.main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"cannot read config {path}" in capsys.readouterr().err


def test_non_utf8_config_is_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{")
    code = cli.main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")])
    assert code == 2


@pytest.mark.parametrize("field, table", [
    ("epidemic.contact.values", [[1.0, 2.0], [3.0]]),
    ("epidemic.contact.values", [["x"] * 16] * 16),
    ("policy.c", [["x"]]),
    ("policy.theta", [[0.5, 0.5], [0.5]]),
    ("policy.c", [[None]]),
    ("epidemic.contact.values", [[1.0] * 16] * 15 + [[None] * 16]),
    ("epidemic.contact.values", [["2.5"] * 16] * 16),
    ("epidemic.contact.values", [[2.5] * 16] * 15 + [[2.5] * 15 + [True]]),
    ("epidemic.contact.values", [[False] + [2.5] * 15] + [[2.5] * 16] * 15),
    ("policy.theta", [[0.5, True]]),
], ids=["ragged_kernel", "text_kernel", "text_policy", "ragged_policy", "null_policy",
        "null_kernel", "quoted_kernel", "true_kernel", "false_kernel", "true_policy"])
def test_malformed_table_names_field(tmp_path, capsys, field, table):
    cfg = small_config()
    if field.startswith("policy"):
        cfg["policy"] = {"preset": "blocks", "n_time_blocks": len(table),
                         "n_age_blocks": len(table[0]), field.split(".")[1]: table}
    else:
        cfg["epidemic"]["contact"] = {"type": "table", "values": table}
    code = cli.main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"config field {field}" in capsys.readouterr().err


@pytest.mark.parametrize("contact, field", [
    ({"type": "table", "values": [[1.0] * 16] * 15 + [[1.0] * 15 + [-1.0]]},
     "epidemic.contact.values"),
    ({"type": "separable", "m0": 1.8, "shape": {"type": "linear", "v0": 1.0, "v1": -0.2}},
     "epidemic.contact.shape"),
], ids=["negative_table_cell", "sign_changing_shape"])
def test_negative_contact_rate_names_field(tmp_path, capsys, monkeypatch, contact, field):
    # the paper's contact kernel is nonnegative; the kernel is checked before any step
    cfg = small_config()
    cfg["epidemic"]["contact"] = contact

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the contact kernel was checked")

    monkeypatch.setattr(epi, "simulate", no_simulation)
    code = cli.main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"config field {field}: contact" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    *((f"epidemic.{key}", -0.1)
      for key in ("mu_S", "mu_R", "mu_I_base", "gamma", "beta", "xi")),
    ("epidemic.xi", 1.5),
    *((f"epidemic.initial.{key}", -0.1) for key in ("s", "i", "r")),
    ("economy.alpha", -0.1), ("economy.e", -0.1),
])
def test_out_of_range_age_profile_names_field(tmp_path, capsys, field, value):
    # the coefficient and state dataclasses reject the profile; the message names its field
    cfg = small_config()
    *path, key = field.split(".")
    node = cfg
    for part in path:
        node = node[part]
    node[key] = {"type": "constant", "value": value}
    code = cli.main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"config field {field}: " in capsys.readouterr().err


def test_out_of_box_policy_block_names_field(tmp_path, capsys):
    # optimize starts from the block means, so the schema must reject the surface it never runs
    cfg = small_config()
    cfg["policy"] = {"preset": "blocks", "theta": [[1.5]]}
    code = cli.main(["optimize", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config field policy.theta" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["epidemic.beta", "epidemic.initial.i", "economy.alpha",
                                   "verification.value_function.w2"])
def test_wrong_length_table_family_names_field(tmp_path, capsys, field):
    cfg = small_config()
    cfg["verification"] = {"value_function": {"type": "linear"}}
    *path, key = field.split(".")
    node = cfg
    for part in path:
        node = node[part]
    node[key] = {"type": "table", "values": [0.1, 0.2, 0.3]}
    code = cli.main(["optimize", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert (f"config field {field}: table family has 3 values, grid needs 16"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command, field", [
    ("simulate", "policy.n_age_blocks"), ("simulate", "policy.n_time_blocks"),
    ("optimize", "optimizer.n_age_blocks"), ("optimize", "optimizer.n_time_blocks"),
])
def test_block_counts_that_do_not_divide_name_field(tmp_path, capsys, command, field):
    # 3 blocks divide neither n_age = 16 nor n_steps = 8
    cfg = small_config()
    cfg["policy"]["preset"] = "blocks"
    section, key = field.split(".")
    cfg.setdefault(section, {})[key] = 3
    code = cli.main([command, "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"{field}: 3 " in capsys.readouterr().err


def test_zero_step_grid_optimizer_time_blocks_name_field(tmp_path, capsys, monkeypatch):
    # a 0-step grid has one policy row: only n_time_blocks = 1 divides it
    cfg = small_config(n_steps=0)
    cfg["optimizer"] = {"n_time_blocks": 2}

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the config check")

    monkeypatch.setattr(epi, "simulate", no_simulation)
    code = cli.main(["optimize", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert ("optimizer.n_time_blocks: 2 time blocks do not divide the single policy "
            "row of a 0-step grid" in capsys.readouterr().err)


def test_defaults_match_dataclass_defaults():
    # a config without an optimizer section or a utility takes the classes' own defaults
    cfg = cfgmod.resolve_config(small_config())
    assert cfgmod.build_optimizer_config(cfg) == OptimizerConfig()
    assert cfgmod.build_scenario(cfg).obj.utility == ShiftedCRRAUtility()


def test_simulate_writes_expected_files(tmp_path):
    cfg = small_config()
    out = tmp_path / "out"
    code = cli.main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)])
    assert code == 0
    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    assert rows[0].split(",")[:4] == ["t", "S", "I", "R"]
    assert len(rows) == 1 + cfg["grid"]["n_steps"] + 1
    snap = (out / "snapshots.csv").read_text().strip().splitlines()
    assert len(snap) == 1 + 2 * cfg["grid"]["n_age"]
    assert (out / "resolved_config.json").exists()


def test_snapshots_equal_an_independent_writer(tmp_path, capsys):
    # each time takes its nearest node, clipped to [t0, t_end]: a time whose step
    # offset overflows to +-inf lands on the first or the last node
    cfg = small_config()
    cfg["output"]["snapshot_times"] = [-1e308, 0.0, 2.0, 1e308]
    path, out = write_config(tmp_path, cfg), tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["simulate", "--config", str(path), "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    scenario = cfgmod.build_scenario(cfgmod.load_config(path))
    traj = scenario.simulate()
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["t", "a", "s", "i", "r"])
    for k in (0, 0, 4, cfg["grid"]["n_steps"]):
        for j, a in enumerate(scenario.age_grid.nodes):
            writer.writerow(["%.17g" % v for v in (traj.times[k], a, *traj.X[k, :, j])])
    assert (out / "snapshots.csv").read_bytes() == want.getvalue().encode("utf-8")


def test_simulate_zero_steps_single_row(tmp_path):
    cfg = small_config(n_steps=0)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 0
    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    assert len(rows) == 2


def test_model_error_exit_code(tmp_path, capsys):
    cfg = small_config()
    cfg["epidemic"]["mu_S"] = {"type": "constant", "value": 50.0}
    cfg["epidemic"]["mu_R"] = {"type": "constant", "value": 50.0}
    cfg["epidemic"]["mu_I_base"] = {"type": "constant", "value": 50.0}
    code = cli.main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "out")])
    assert code == 3
    assert "step" in capsys.readouterr().err


def test_optimizer_infeasible_start_exit_code(tmp_path):
    cfg = small_config()
    cfg["epidemic"]["mu_S"] = {"type": "constant", "value": 50.0}
    cfg["epidemic"]["mu_R"] = {"type": "constant", "value": 50.0}
    cfg["epidemic"]["mu_I_base"] = {"type": "constant", "value": 50.0}
    code = cli.main(["optimize", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "out")])
    assert code == 4


def test_optimizer_infeasible_start_names_the_model_error(tmp_path, capsys):
    # the population dies out without births: optimize exits 4 and says so,
    # with the step that simulate names
    cfg = small_config()
    for key in ("mu_S", "mu_R", "mu_I_base"):
        cfg["epidemic"][key] = {"type": "constant", "value": 50.0}
    cfg["epidemic"]["beta"] = {"type": "constant", "value": 0.0}
    path = str(write_config(tmp_path, cfg))
    assert cli.main(["simulate", "--config", path, "--out", str(tmp_path / "sim")]) == 3
    model_error = capsys.readouterr().err.strip()
    assert model_error.startswith("model error at step ")
    assert "total population" in model_error
    assert cli.main(["optimize", "--config", path, "--out", str(tmp_path / "opt")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("optimizer error: objective undefined at the initial policy")
    assert model_error in err
    # negative capital is penalized, not raised: no K0 or consumption level cures this
    assert "K0" not in err and "consumption" not in err


def test_evaluate_matches_library_bitwise(tmp_path):
    cfg = small_config()
    out = tmp_path / "out"
    assert cli.main(["evaluate", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 0
    payload = json.loads((out / "evaluation.json").read_text())

    scenario = cfgmod.build_scenario(cfgmod.resolve_config(cfg))
    report = scenario.evaluate()
    assert payload["value"] == report.value
    assert payload["feasible"] == report.feasible
    assert payload["violation"] == report.violation


def test_composite_target_through_cli(tmp_path):
    cfg = small_config()
    cfg["objective"]["composite"] = {"J5": 1.0, "J6": -2.0}
    out = tmp_path / "out"
    assert cli.main(["evaluate", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 0
    payload = json.loads((out / "evaluation.json").read_text())
    assert set(payload["components"]) == {"J5", "J6"}
    expected = payload["components"]["J5"] * 1.0 + payload["components"]["J6"] * (-2.0)
    assert payload["value"] == pytest.approx(expected, rel=1e-15)


def test_optimize_writes_report_and_policy(tmp_path):
    cfg = small_config()
    cfg["optimizer"] = {"initial_step": 1e-4, "max_iters": 2,
                        "max_backtracks": 20, "seed": 1}
    out = tmp_path / "out"
    assert cli.main(["optimize", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 0
    report = json.loads((out / "optim_report.json").read_text())
    trace = report["objective_trace"]
    assert len(trace) >= 1
    assert all(b > a for a, b in zip(trace, trace[1:]))
    policy_rows = (out / "best_policy.csv").read_text().strip().splitlines()
    assert policy_rows[0] == "t_block,a_block,t_start,a_start,c,theta,eta"
    assert len(policy_rows) == 2  # 1x1 blocks by default


def test_check_writes_diagnostics(tmp_path):
    # fine enough (and rates mild enough) that the two-point order estimate
    # sits in the asymptotic regime; bump weights decay to ~1e-6 at the
    # birth boundary
    cfg = small_config(n_age=128, n_steps=64)
    cfg["epidemic"]["gamma"] = {"type": "constant", "value": 0.25}
    cfg["epidemic"]["contact"] = {"type": "constant", "m0": 0.9}
    cfg["epidemic"]["mu_I_base"] = {"type": "constant", "value": 0.075}
    cfg["verification"] = {
        "value_function": {
            "type": "linear",
            "w1": {"type": "bump", "center": 4.0, "width": 1.0, "height": 1.0},
            "w2": {"type": "bump", "center": 4.0, "width": 1.0, "height": 0.5},
            "w3": {"type": "bump", "center": 4.0, "width": 1.0, "height": 1.0},
            "q": 0.2,
        },
        "adjoint_pairs": 10,
    }
    out = tmp_path / "out"
    assert cli.main(["check", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 0
    payload = json.loads((out / "check.json").read_text())
    adj = payload["adjoint_identity"]
    assert adj["max_rel_residual"] <= adj["bound_5da"]
    assert payload["chain_rule_identity"]["order"] >= 0.9
    assert payload["hamiltonian_gap"]["min"] >= -1e-10


def looped_adjoint_residuals(space, rng, n_pairs):
    """Reference for the adjoint block of ``check``: one (h, p) pair at a time,
    each component's three mode coefficients drawn in its own call."""
    a = space.grid.nodes / space.grid.a_max
    env = np.zeros_like(a)
    inside = np.abs(a - 0.5) < 0.3
    env[inside] = np.exp(-1.0 / (1.0 - ((a[inside] - 0.5) / 0.3) ** 2))

    def triple():
        return tuple(env * sum(c * np.sin((k + 1) * np.pi * a)
                               for k, c in enumerate(rng.standard_normal(3)))
                     for _ in range(3))

    pairs, residuals = [], []
    for _ in range(n_pairs):
        h, p = triple(), triple()
        lhs = space.inner(space.apply_A(h), p)
        rhs = space.inner(h, space.apply_A_star(p))
        residuals.append(abs(lhs - rhs) / (space.norm(h) * space.norm(p)))
        pairs.append((h, p))
    return pairs, residuals


@pytest.mark.parametrize("seed", [0, 1, 7919, 2**31 - 1])
def test_check_adjoint_block_equals_looped_pairs(tmp_path, seed):
    # the stacked pairs and check.json's max residual equal the per-pair loop's bit for bit
    cfg = small_config(n_age=24, n_steps=4)
    cfg["verification"] = {"adjoint_pairs": 7, "seed": seed}
    scenario = cfgmod.build_scenario(cfgmod.resolve_config(cfg))
    pairs, residuals = looped_adjoint_residuals(scenario.space,
                                                np.random.default_rng(seed), 7)
    h, p = cli._smooth_pairs(scenario.space, np.random.default_rng(seed), 7)
    assert h.tobytes() == np.array([pair[0] for pair in pairs]).tobytes()
    assert p.tobytes() == np.array([pair[1] for pair in pairs]).tobytes()
    out = tmp_path / "out"
    assert cli.main(["check", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 0
    adjoint = json.loads((out / "check.json").read_text())["adjoint_identity"]
    assert adjoint["max_rel_residual"] == float(max(residuals))


def test_check_table_kernel_coarse_companion(tmp_path):
    # the coarse companion grid restricts per-cell tables by block means
    cfg = _table_config()
    cfg["epidemic"]["initial"]["s"] = {"type": "table",
                                       "values": [1.0 + 0.05 * j for j in range(16)]}
    cfg["verification"] = {"adjoint_pairs": 2, "horizon_multipliers": [1.0, 2.0]}
    out = tmp_path / "out"
    assert cli.main(["check", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 0
    chain = json.loads((out / "check.json").read_text())["chain_rule_identity"]
    assert chain["coarse_dt"] == 2 * chain["dt"]
    assert abs(chain["coarse_residual"]) > 0.0

    node = {"m": {"type": "table", "values": [[0.0, 1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0],
                                              [8.0, 9.0, 10.0, 11.0],
                                              [12.0, 13.0, 14.0, 15.0]]},
            "s": {"type": "table", "values": [1.0, 3.0, 5.0, 7.0]}}
    cli._coarsen_tables(node)
    assert node["m"]["values"] == [[2.5, 4.5], [10.5, 12.5]]
    assert node["s"]["values"] == [2.0, 6.0]


@pytest.mark.parametrize("blocks", [{"n_age_blocks": 16}, {"n_time_blocks": 8}])
def test_check_skips_coarse_companion_for_fine_policy_blocks(tmp_path, blocks):
    # the half grid cannot hold one policy block per cell: no order estimate, no error
    cfg = small_config()
    cfg["policy"] = {"preset": "blocks", **blocks}
    path = write_config(tmp_path, cfg)
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "sim")]) == 0
    out = tmp_path / "out"
    assert cli.main(["check", "--config", str(path), "--out", str(out)]) == 0
    chain = json.loads((out / "check.json").read_text())["chain_rule_identity"]
    assert "coarse_residual" not in chain and "order" not in chain
    assert np.isfinite(chain["residual"])


def test_optimize_rejects_search_blocks_before_simulating(tmp_path, capsys, monkeypatch):
    cfg = small_config()
    cfg["search"] = {"n_age_blocks": 3}
    cfg["optimizer"] = {"max_iters": 5}
    calls = []
    monkeypatch.setattr(epi, "simulate", lambda *args: calls.append(args))
    assert cli.main(["optimize", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "out")]) == 2
    assert calls == []
    assert "3 age blocks do not divide n_age = 16" in capsys.readouterr().err


def test_check_coarse_companion_ignores_search_blocks(tmp_path):
    # 16 search blocks divide n_age = 16 but not the companion's 8, which runs no search
    cfg = small_config()
    cfg["search"] = {"n_age_blocks": 16, "max_sweeps": 2}
    cfg["verification"] = {"adjoint_pairs": 2, "horizon_multipliers": [1.0]}
    out = tmp_path / "out"
    assert cli.main(["check", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 0
    chain = json.loads((out / "check.json").read_text())["chain_rule_identity"]
    assert np.isfinite(chain["residual"]) and np.isfinite(chain["coarse_residual"])


def _table_config():
    cfg = small_config()
    cfg["epidemic"]["contact"] = {
        "type": "table",
        "values": [[1.8 * (1.0 + 0.2 * ((j + 2 * k) % 3)) for k in range(16)]
                   for j in range(16)]}
    return cfg


def _assert_builders_read_only(cfg):
    """build_scenario, build_value_function and validate_config leave cfg as it was."""
    before = copy.deepcopy(cfg)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfgmod.validate_config(cfg)
            cfgmod.build_value_function(cfg, cfgmod.build_scenario(cfg))
    except ConfigurationError:
        pass  # a rejected config must not have been written either
    finally:
        assert cfg == before


@pytest.mark.parametrize("make", [
    lambda: cfgmod.load_config(Path(__file__).parents[1] / "configs" / "demo_covid.json"),
    lambda: cfgmod.resolve_config(_table_config()),
], ids=["demo_covid", "table_kernel"])
def test_builders_leave_config_unchanged(make):
    _assert_builders_read_only(make())


def test_table_kernel_is_read_only():
    scenario = cfgmod.build_scenario(cfgmod.resolve_config(_table_config()))
    with pytest.raises(ValueError, match="read-only"):
        scenario.epi.m[0, 0] = 0.0


@pytest.mark.parametrize("preset, theta", [("laissez_faire", 1.0), ("full_lockdown", 0.0),
                                           ("blocks", 0.5)])
def test_scenario_policy_is_one_read_only_array(tmp_path, capsys, preset, theta):
    cfg = small_config()
    cfg["policy"] = {"preset": preset, "c_level": 0.1, "theta_level": 0.5}
    if preset != "blocks":  # a preset fixes its theta level: setting one exits 2
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                         "--out", str(out)]) == 2
        assert "config field policy.theta_level: " in capsys.readouterr().err
        assert not out.exists()
        del cfg["policy"]["theta_level"]
    resolved = cfgmod.resolve_config(cfg)
    assert cfgmod.resolve_config(resolved) == resolved  # the echo of each default loads again
    policy = cfgmod.build_scenario(resolved).policy
    assert policy.shape == (3, 9, 16)
    assert np.array_equal(policy, np.broadcast_to([[[0.1]], [[theta]], [[1.0]]], (3, 9, 16)))
    with pytest.raises(ValueError, match="read-only"):
        policy[1, 0, 0] = 0.25


@pytest.mark.parametrize("preset", ["laissez_faire", "full_lockdown"])
@pytest.mark.parametrize("key, value", [
    ("eta_level", 0.5), ("n_time_blocks", 2), ("n_age_blocks", 2), ("c", [[0.1]]),
    ("theta", [[1.0]]), ("eta", [[1.0]]), ("sweep", "policy.theta_level"),
    ("sweep", "policy.eta_level")])
def test_preset_rejects_the_block_settings_it_ignores(tmp_path, capsys, preset, key, value):
    # a preset is one block at fixed levels; a block setting or sweep axis it would
    # ignore exits 2 naming the field, before any output
    cfg = small_config()
    cfg["policy"]["preset"] = preset
    if key == "sweep":
        key = value.split(".")[1]
        cfg["sweep"] = {"axes": [{"path": value, "values": [0.5, 1.0]}]}
    else:
        cfg["policy"][key] = value
    out = tmp_path / "out"
    assert cli.main(["sweep" if "sweep" in cfg else "simulate", "--config",
                     str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
    assert f"config field policy.{key}: the {preset} preset" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mu_s", [2.0, 5.0])
def test_check_accepts_exact_gradient_under_large_weights(tmp_path, mu_s):
    # survival weights 1/pi^2 reach ~1e13..1e16 here, so |v| does too; the
    # K-difference of the exact linear value function must not cancel away
    cfg = small_config()
    cfg["epidemic"]["mu_S"] = {"type": "constant", "value": mu_s}
    out = tmp_path / "out"
    assert cli.main(["check", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 0
    chain = json.loads((out / "check.json").read_text())["chain_rule_identity"]
    assert chain["gradient_check"] <= 1e-6

    scenario = cfgmod.build_scenario(cfgmod.resolve_config(cfg))
    v = cfgmod.build_value_function(cfgmod.resolve_config(cfg), scenario)
    probes = [(scenario.initial.as_triple(), scenario.K0)]
    assert abs(v.value(*probes[0])) > 1e12

    class OnePercentOff(type(v)):
        def grad_K(self, h, K):
            return 1.01 * self.q

    off = OnePercentOff(scenario.space, v.w, v.q)
    with pytest.raises(ConfigurationError, match="gradient mismatch"):
        validate_gradient(off, probes)


def test_sweep_matrix_shape(tmp_path):
    cfg = small_config()
    cfg["policy"] = {"preset": "blocks", "c_level": 0.1,
                     "theta_level": 1.0, "eta_level": 1.0}
    cfg["sweep"] = {"axes": [
        {"path": "policy.theta_level", "values": [0.5, 1.0]},
        {"path": "policy.eta_level", "values": [0.25, 0.5, 1.0]},
    ]}
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(rows) == 3  # header + 2 theta rows
    assert len(rows[1].split(",")) == 4  # label + 3 eta columns
    details = (out / "sweep_details.csv").read_text().strip().splitlines()
    assert len(details) == 1 + 6


def test_sweep_parallel_matches_serial(tmp_path):
    cfg = small_config()
    cfg["policy"] = {"preset": "blocks", "c_level": 0.1,
                     "theta_level": 1.0, "eta_level": 1.0}
    cfg["sweep"] = {"axes": [
        {"path": "policy.theta_level", "values": [0.5, 1.0]},
        {"path": "policy.eta_level", "values": [0.5, 1.0]},
    ]}
    path = write_config(tmp_path, cfg)
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert cli.main(["sweep", "--config", str(path), "--out", str(serial)]) == 0
    assert cli.main(["sweep", "--config", str(path), "--out", str(parallel),
                     "--jobs", "2"]) == 0
    assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()


def test_sweep_worker_count_is_bounded(monkeypatch):
    # the arithmetic only: no pool is started here
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    assert cli._worker_count(10**9, 16) == 16
    assert cli._worker_count(10**9, 1000) == 64
    assert cli._worker_count(3, 16) == 3
    assert cli._worker_count(1, 16) == 1
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._worker_count(10**9, 16) == 1


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_sweep_jobs_below_one_exits_2(tmp_path, capsys, jobs):
    cfg = small_config()
    cfg["sweep"] = {"axes": [{"path": "policy.c_level", "values": [0.1, 0.2]}]}
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out), "--jobs", jobs]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_shares_config_read_only(tmp_path, monkeypatch):
    # two axes under one section: each point sees both of its own values, and
    # the base config the points share is left as it was
    cfg = small_config()
    cfg["policy"] = {"preset": "blocks", "c_level": 0.1,
                     "theta_level": 1.0, "eta_level": 1.0}
    cfg["sweep"] = {"axes": [
        {"path": "policy.theta_level", "values": [0.25, 0.5, 1.0]},
        {"path": "policy.eta_level", "values": [0.0, 0.75]},
    ]}
    cfg = cfgmod.resolve_config(cfg)
    before = copy.deepcopy(cfg)
    seen = []
    blocks = cfgmod.policy_blocks

    def recording_blocks(point):
        seen.append((point["policy"]["theta_level"], point["policy"]["eta_level"]))
        assert point["epidemic"] is cfg["epidemic"]  # off the override paths: shared
        return blocks(point)

    monkeypatch.setattr(cfgmod, "policy_blocks", recording_blocks)
    files, _ = cli.cmd_sweep(cfg, tmp_path / "out")
    assert set(files) == {"sweep.csv", "sweep_details.csv"}
    assert not (tmp_path / "out").exists()  # the command renders; main writes
    # the one scenario is built from the first point (its policy too), then each
    # point's policy blocks are built
    assert seen == [(0.25, 0.0)] + [(th, et) for th in (0.25, 0.5, 1.0) for et in (0.0, 0.75)]
    assert cfg == before


# a swept axis's values, and a value its point rejects (schema, constructor or block count)
_SWEEP_AXES = {
    "policy.theta_level": ([0.0, 0.5, 1.0], 1.5),
    "policy.eta_level": ([0.25, 1.0], -0.5),
    "policy.c_level": ([0.1, 2.0, 8.0], -1.0),
    "policy.n_time_blocks": ([1, 2, 4], 3),
    "epidemic.contact.m0": ([0.5, 1.8, 4.0], -1.0),
    "economy.K0": ([0.0, 100.0, 20.0], -1.0),
    "objective.rho": ([0.08, 0.3], -0.1),
}


@st.composite
def sweep_cases(draw):
    """A resolved sweep config: policy-only, mixed or non-policy axes, a rank-one or
    table kernel, one of J1 (truncated), J3, J5/J6 and a composite; floors that some
    points reach (theta 1), capital that consumption 8 drives negative, and maybe
    a rejected value at one point."""
    cfg = small_config()
    cfg["policy"] = {"preset": "blocks", "c_level": 0.1, "theta_level": 1.0, "eta_level": 1.0}
    table = draw(st.booleans())
    if table:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        cfg["epidemic"]["contact"] = {"type": "table",
                                      "values": rng.uniform(0.9, 2.7, (16, 16)).tolist()}
    cfg["epidemic"]["n_floor_rel"] = draw(st.sampled_from([1e-9, 0.62]))
    cfg["objective"] = draw(st.sampled_from([
        {"which": "J1", "rho": 0.08, "T_num": 2.5}, {"which": "J3", "rho": 0.08},
        {"which": "J6", "rho": 0.03, "composite": {"J5": 1.0, "J6": -20.0}},
        {"which": "J1", "rho": 0.08, "composite": {"J1": 0.5, "J4": 1.0, "J6": -5.0}}]))
    kind = draw(st.sampled_from(["policy", "mixed", "other"]))
    policy_paths = [p for p in _SWEEP_AXES if p.startswith("policy.")]
    other_paths = [p for p in _SWEEP_AXES if not p.startswith("policy.")
                   and not (table and p == "epidemic.contact.m0")]
    pools = {"policy": (policy_paths, policy_paths), "other": (other_paths, other_paths),
             "mixed": (policy_paths, other_paths)}[kind]
    paths = [draw(st.sampled_from(pool)) for pool in pools]
    if draw(st.booleans()):
        paths.reverse()
    if paths[0] == paths[1]:
        paths = paths[:1]
    axes = [{"path": p, "values": list(_SWEEP_AXES[p][0])} for p in paths]
    if draw(st.integers(0, 3)) == 0:
        axis = draw(st.sampled_from(axes))
        at = draw(st.integers(0, len(axis["values"]) - 1))
        axis["values"][at] = _SWEEP_AXES[axis["path"]][1]
    cfg["sweep"] = {"axes": axes}
    return cfgmod.resolve_config(cfg)


def _sweep_outcome(run, cfg):
    """The error message of a rejected sweep, else its two tables as text."""
    try:
        files = run(copy.deepcopy(cfg))
    except ConfigurationError as err:
        return str(err)
    return [files[name] for name in ("sweep.csv", "sweep_details.csv")]


@settings(max_examples=40, deadline=None)
@given(cfg=sweep_cases())
def test_grouped_sweep_equals_looped_points(cfg):
    # grouping points by scenario and scoring each group as one batch renders the
    # per-point loop's tables character for character, and a rejected point raises
    # its message
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        grouped = _sweep_outcome(lambda c: cli.cmd_sweep(c, Path("out"))[0], cfg)
        looped = _sweep_outcome(looped_sweep, cfg)
    assert grouped == looped


@pytest.mark.parametrize("n_floor_rel", [1e-9, 0.7])
def test_consumption_sweep_rides_one_epidemic(monkeypatch, n_floor_rel):
    # every point of a sweep over the consumption level shares the first point's
    # theta and eta, so it rides that point's epidemic: the kernel steps one row a
    # node, and each point equals its own evaluate, capital that consumption 8 drives
    # negative and 1e308 makes infinite, and a floor all points meet, included
    cfg = small_config()
    cfg["policy"] = {"preset": "blocks", "c_level": 0.1, "theta_level": 0.5,
                     "eta_level": 1.0, "n_time_blocks": 2}
    cfg["epidemic"]["n_floor_rel"] = n_floor_rel
    cfg["objective"] = {"which": "J1", "rho": 0.08, "composite": {"J1": 0.5, "J4": 1.0,
                                                                   "J6": -5.0}}
    cfg["sweep"] = {"axes": [{"path": "policy.c_level", "values": [0.1, 2.0, 8.0, 1e308]}]}
    cfg = cfgmod.resolve_config(cfg)
    rows = []
    node = epi._node
    monkeypatch.setattr(epi, "_node", lambda x, *a, **k: rows.append(
        1 if x.ndim == 2 else x.shape[1]) or node(x, *a, **k))
    grouped = _sweep_outcome(lambda c: cli.cmd_sweep(c, Path("out"))[0], cfg)
    assert set(rows) == {1}
    monkeypatch.setattr(epi, "_node", node)
    assert grouped == _sweep_outcome(looped_sweep, cfg)
    details = grouped[1]
    assert ("capital update produced" in details) and (
        ("at or below the floor" in details) == (n_floor_rel > 0.5))


def test_mixed_sweep_parallel_matches_serial(tmp_path):
    # a policy axis against an epidemic axis: one group per m0, spread over two workers
    cfg = small_config()
    cfg["policy"] = {"preset": "blocks", "c_level": 0.1, "theta_level": 1.0, "eta_level": 1.0}
    cfg["sweep"] = {"axes": [{"path": "policy.theta_level", "values": [0.5, 1.0]},
                             {"path": "epidemic.contact.m0", "values": [1.0, 2.0, 3.0]}]}
    path = write_config(tmp_path, cfg)
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert cli.main(["sweep", "--config", str(path), "--out", str(serial)]) == 0
    assert cli.main(["sweep", "--config", str(path), "--out", str(parallel),
                     "--jobs", "2"]) == 0
    for name in ("sweep.csv", "sweep_details.csv"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


def test_sweep_requires_sweep_block(tmp_path, capsys):
    cfg = small_config()
    code = cli.main(["sweep", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "out")])
    assert code == 2


def test_byte_determinism(tmp_path):
    cfg = small_config()
    cfg["optimizer"] = {"max_iters": 2, "n_age_blocks": 2, "n_time_blocks": 2,
                        "jitter": 0.05, "seed": 11}
    cfg["verification"] = {"adjoint_pairs": 2, "horizon_multipliers": [1.0, 2.0]}
    path = write_config(tmp_path, cfg)
    for command, names in (("simulate", {"trajectory.csv", "snapshots.csv"}),
                           ("optimize", {"optim_report.json", "best_policy.csv"}),
                           ("check", {"check.json"})):
        out1, out2 = tmp_path / f"{command}1", tmp_path / f"{command}2"
        assert cli.main([command, "--config", str(path), "--out", str(out1)]) == 0
        assert cli.main([command, "--config", str(path), "--out", str(out2)]) == 0
        files = {p.name for p in out1.iterdir()}
        assert files == {p.name for p in out2.iterdir()}
        assert names | {"resolved_config.json"} <= files
        for name in files:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), (command, name)


def test_config_round_trip(tmp_path):
    cfg = small_config()
    path = write_config(tmp_path, cfg)
    out1 = tmp_path / "r1"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out1)]) == 0
    echoed = out1 / "resolved_config.json"
    out2 = tmp_path / "r2"
    assert cli.main(["simulate", "--config", str(echoed), "--out", str(out2)]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    first = json.loads(echoed.read_text())
    second = json.loads((out2 / "resolved_config.json").read_text())
    assert first == second


_FLOAT = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-0.0, 5e-324, 1e-310, 1e308, -1e308]))
_JSON_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-10**40, 10**40), _FLOAT,
    st.text(max_size=8), st.sampled_from(["a, b", "[1, 2], 3", "Zürich, Genève", "\u2603, x"]))


def _long_row(seed, n):
    """``n`` finite floats of every magnitude, with signed zeros, subnormals and the
    extremes among them, drawn from ``seed`` (a row of a contact table)."""
    rng = np.random.default_rng(seed)
    row = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    special = rng.random(n) < 0.1
    row[special] = rng.choice([0.0, -0.0, 5e-324, -1e-310, 1.7976931348623157e308, -1e308,
                               0.1, 1.0, 100.0], special.sum())
    return row.tolist()


_LONG_ROW = st.builds(_long_row, st.integers(0, 2**32 - 1), st.integers(200, 260))
_JSON = st.recursive(_JSON_LEAF, lambda children: st.one_of(
    st.lists(children, max_size=4), st.dictionaries(st.text(max_size=6), children, max_size=4),
    st.lists(st.one_of(st.integers(), _FLOAT), max_size=6),  # the C encoder's lists
    st.lists(st.one_of(st.integers(), _FLOAT, st.booleans()), max_size=6),
    st.lists(_FLOAT, min_size=1, max_size=6), _LONG_ROW), max_leaves=40)  # the repr rows


@settings(max_examples=200, deadline=None)
@given(cfg=st.dictionaries(st.text(max_size=6), _JSON, max_size=6))
def test_dump_config_writes_what_json_dump_writes(cfg, tmp_path_factory):
    # the echo writer against the encoder it replaces: nested and empty lists and
    # dicts, number lists with and without bools, separators and non-ASCII text in
    # strings, signed zeros, subnormals, extreme and big numbers, and float rows of
    # table length
    path = tmp_path_factory.mktemp("echo") / "resolved_config.json"
    cfgmod.dump_config(cfg, path)
    want = json.dumps(cfg, indent=2, sort_keys=True, allow_nan=False) + "\n"
    assert path.read_bytes() == want.encode("utf-8")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("where", ["number_list", "mixed_list", "value", "long_row"])
def test_dump_config_rejects_non_finite_numbers(tmp_path, bad, where):
    cfg = {"number_list": {"a": [1.0, bad]}, "mixed_list": {"a": [True, bad]},
           "value": {"a": bad}, "long_row": {"a": [0.5] * 150 + [bad] + [0.25] * 49}}[where]
    with pytest.raises(ValueError):
        cfgmod.dump_config(cfg, tmp_path / "resolved_config.json")


def test_result_writer_writes_what_json_dumps_writes():
    # the result files go through the echo writer: numpy scalars, tuples, nested and
    # empty containers, bools and null, as json.dumps renders them
    payload = {"b": {"x": np.float64(0.1), "n": 3, "t": (1, 2.5),
                     "row": [0.5] * 3, "empty": [], "none": None, "flag": True},
               "a": [{"k": -0.0, "z": {}}, 1e-310, "é,: x"], "J": 19763.9}
    want = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    assert cli._json_text("evaluation.json", payload) == want


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("where", ["value", "number_list", "mixed_list", "long_row",
                                   "numpy_scalar", "nested", "tuple"])
def test_result_writer_rejects_non_finite_numbers_and_writes_nothing(bad, where):
    # the renderer raises before main makes the output directory (see
    # test_non_finite_result_exits_3_and_writes_nothing)
    payload = {"value": {"a": bad}, "number_list": {"a": [1.0, bad]},
               "mixed_list": {"a": [True, 2, bad]},
               "long_row": {"a": [0.5] * 150 + [bad] + [0.25] * 49},
               "numpy_scalar": {"a": np.float64(bad)},
               "nested": {"a": [{"b": {"c": [0.0, bad]}}], "z": 1.0},
               "tuple": {"a": (0.5, bad)}}[where]
    field = {"value": "a", "number_list": "a.1", "mixed_list": "a.2", "long_row": "a.150",
             "numpy_scalar": "a", "nested": "a.0.b.c.1", "tuple": "a.1"}[where]
    with pytest.raises(ee.NonFiniteState,
                       match=rf"^check\.json: non-finite result \({field}: "):
        cli._json_text("check.json", payload)


_BAD = st.sampled_from([float("nan"), float("inf"), -float("inf"), 10**400, -(10**400)])


@st.composite
def _number_tree(draw):
    """A JSON tree of number rows: long float rows with NaN, infinities or ints beyond
    the float range at drawn positions, rows mixing ints, floats and bools, and rows
    nested in rows and objects."""
    def row(depth=0):
        kind = draw(st.sampled_from(["floats", "mixed"] + ["nested", "object"] * (depth < 2)))
        if kind == "nested":
            return [row(depth + 1) for _ in range(draw(st.integers(0, 3)))]
        if kind == "object":
            return {"k": row(depth + 1), "n": draw(st.sampled_from([1, 2.5, "x", None]))}
        values = _long_row(draw(st.integers(0, 2**32 - 1)), draw(st.integers(200, 240)))
        if kind == "mixed":
            values = [draw(st.sampled_from([v, int(v), True, False, 0, 1]))
                      if j % 7 == 0 and abs(v) < 2**53 else v for j, v in enumerate(values)]
        for _ in range(draw(st.integers(0, 2))):
            values[draw(st.integers(0, len(values) - 1))] = draw(_BAD)
        return values
    return {draw(st.text(max_size=4)): row() for _ in range(draw(st.integers(1, 3)))}


@settings(max_examples=150, deadline=None)
@given(tree=_number_tree())
def test_nonfinite_path_names_what_the_element_walk_names(tree):
    # the row-at-a-time check against the walk that looks at every element
    assert cfgmod._nonfinite_path(tree) == reference_nonfinite_path(tree)


def test_load_config_equals_resolve_config():
    # load_config fills the tree json.load built for it; resolve_config fills a copy
    root = Path(__file__).resolve().parent.parent / "configs"
    for name in ("demo_covid.json", "demo_sweep.json"):
        raw = json.loads((root / name).read_text(encoding="utf-8"))
        assert cfgmod.load_config(root / name) == cfgmod.resolve_config(raw)
        assert raw == json.loads((root / name).read_text(encoding="utf-8"))


@pytest.mark.parametrize("section, key", [("output", "snapshot_times"),
                                          ("verification", "horizon_multipliers")])
def test_resolve_config_rejects_nonfinite_numbers_as_load_config(tmp_path, section, key):
    # the API path accepted these: simulate then ended in a bare ValueError from
    # json.dumps, and check named "nan steps"
    demo = Path(__file__).resolve().parent.parent / "configs" / "demo_covid.json"
    cfg = json.loads(demo.read_text(encoding="utf-8"))
    cfg[section][key] = [float("nan")]
    with pytest.raises(ConfigurationError) as resolved:
        cfgmod.resolve_config(cfg)
    assert str(resolved.value) == f"config field {section}.{key}.0: numbers must be finite"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")  # NaN, as json.dumps writes it
    with pytest.raises(ConfigurationError) as loaded:
        cfgmod.load_config(path)
    assert str(loaded.value) == str(resolved.value)


def test_variant_branches_follow_their_classes(monkeypatch):
    # each oneOf branch of a variant section is its type and then its class's
    # fields in field order, numbers, nullable exactly where the annotation allows
    # None, required exactly without a default
    props = cfgmod.SCHEMA["properties"]
    homes = {"production": "economy", "phi": "economy", "congestion": "economy",
             "utility": "objective"}
    assert set(cfgmod._CLASSES) == set(homes)

    def expected(kind, cls):
        hints, fields = typing.get_type_hints(cls), dataclasses.fields(cls)
        want = {"type": {"const": kind}}
        for f in fields:
            nullable = type(None) in typing.get_args(hints[f.name])
            want[f.name] = {"type": ["number", "null"] if nullable else "number"}
        required = ["type"] + [f.name for f in fields if f.default is dataclasses.MISSING]
        return want, required

    for section, classes in cfgmod._CLASSES.items():
        branches = props[homes[section]]["properties"][section]["oneOf"]
        assert len(branches) == len(classes)
        for branch, (kind, cls) in zip(branches, classes.items()):
            want, required = expected(kind, cls)
            assert list(branch["properties"]) == list(want)
            assert branch["properties"] == want
            assert branch["required"] == required
            assert branch["additionalProperties"] is False
    assert props["economy"]["properties"]["production"]["oneOf"][1]["properties"][
        "mpk_cap"] == {"type": ["number", "null"]}
    assert props["epidemic"]["properties"]["saturation"]["properties"] == {
        f.name: {"type": "number"} for f in dataclasses.fields(ee.SaturationSpec)}

    # a field added to a form's class enters its branch with no schema edit
    @dataclasses.dataclass(frozen=True)
    class Extended:
        scale: float
        cap: float | None = None
        floor: float = 0.0

    monkeypatch.setitem(cfgmod._CLASSES, "production", {"extended": Extended})
    branch, = cfgmod._variants("production")["oneOf"]
    assert branch == {"properties": {"type": {"const": "extended"},
                                     "scale": {"type": "number"},
                                     "cap": {"type": ["number", "null"]},
                                     "floor": {"type": "number"}},
                      "required": ["type", "scale"], "additionalProperties": False}


def test_family_branches_follow_their_samplers(monkeypatch):
    # each oneOf branch of an age profile is its type and then its sampler's parameters
    # after (grid, a), numbers but for a table's list and the three bounds no
    # constructor checks, required exactly without a default
    rules = {("table", "values"): {"type": "array", "items": {"type": "number"}},
             ("logistic", "width"): {"type": "number", "exclusiveMinimum": 0},
             ("gompertz", "base"): {"type": "number", "minimum": 0},
             ("bump", "width"): {"type": "number", "exclusiveMinimum": 0}}
    assert list(cfgmod._FAMILIES) == ["constant", "table", "linear", "logistic", "gompertz",
                                      "band", "bump"]
    branches = cfgmod._FAMILY["oneOf"]
    assert len(branches) == len(cfgmod._FAMILIES)
    for branch, (kind, sampler) in zip(branches, cfgmod._FAMILIES.items()):
        params = list(inspect.signature(sampler).parameters.values())
        assert [p.name for p in params[:2]] == ["grid", "a"]
        want = {"type": {"const": kind}, **{p.name: rules.get((kind, p.name), {"type": "number"})
                                           for p in params[2:]}}
        assert list(branch["properties"]) == list(want)
        assert branch["properties"] == want
        assert branch["required"] == ["type"] + [p.name for p in params[2:]
                                                 if p.default is p.empty]
        assert branch["additionalProperties"] is False
    assert [name for b in branches for name in b["properties"]
            if name not in b["required"]] == ["background"]
    props = cfgmod.SCHEMA["properties"]
    assert props["epidemic"]["properties"]["mu_S"] is cfgmod._FAMILY
    assert props["epidemic"]["properties"]["contact"]["oneOf"][1]["properties"][
        "shape"] is cfgmod._FAMILY

    # a sampler added to the table gets its own branch, and samples
    grid = ee.AgeGrid(a_max=8.0, n_age=8)
    monkeypatch.setitem(cfgmod._FAMILIES, "step",
                        lambda grid, a, at, lo=0.0: np.where(a < at, lo, 1.0))
    assert cfgmod._families()["oneOf"][-1] == {
        "properties": {"type": {"const": "step"}, "at": {"type": "number"},
                       "lo": {"type": "number"}},
        "required": ["type", "at"], "additionalProperties": False}
    spec = {"type": "step", "at": 4.0, "lo": 0.5}
    assert cfgmod.sample_family(spec, grid, "x").tolist() == [0.5] * 4 + [1.0] * 4

    # an API caller reaches the samplers without the schema: an unknown type is a
    # config error still
    for kind in ("cubic", ["constant"], None):
        with pytest.raises(ConfigurationError, match="unknown coefficient family"):
            cfgmod.sample_family({"type": kind, "value": 1.0}, grid, "x")


def test_search_properties_follow_control_search_grid():
    props = cfgmod.SCHEMA["properties"]["search"]["properties"]
    levels = {"type": "array", "items": {"type": "number"}}
    assert list(props) == [f.name for f in dataclasses.fields(ee.ControlSearchGrid)]
    assert props == {"theta_levels": levels, "eta_levels": levels,
                     "n_age_blocks": {"type": "integer"}, "c_max": {"type": "number"},
                     "max_sweeps": {"type": "integer"}}


def _written_sample(spec: dict, grid) -> np.ndarray:
    """The seven families as their samples were first written, one expression each."""
    kind, a = spec["type"], grid.nodes
    if kind == "constant":
        return np.full(grid.n_age, float(spec["value"]))
    if kind == "table":
        return np.asarray(spec["values"], dtype=np.float64)
    if kind == "linear":
        return spec["v0"] + (spec["v1"] - spec["v0"]) * a / grid.a_max
    if kind == "logistic":
        z = (a - spec["midpoint"]) / spec["width"]
        return spec["lo"] + (spec["hi"] - spec["lo"]) / (1.0 + np.exp(-z))
    if kind == "gompertz":
        return spec["base"] * np.exp(spec["rate"] * a)
    if kind == "band":
        return np.where((a >= spec["lo_age"]) & (a < spec["hi_age"]), spec["value"],
                        spec.get("background", 0.0))
    assert kind == "bump"
    return spec["height"] * np.exp(-(((a - spec["center"]) / spec["width"]) ** 2))


_NUMBER = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.floats(-100.0, 100.0), st.integers(-10**6, 10**6))
_POSITIVE = st.one_of(st.floats(0.0, 1e300, exclude_min=True), st.integers(1, 10**6))


@st.composite
def _family_spec(draw, n_age: int):
    """A schema-valid spec of each family: any numbers, the bounded ones within
    bounds, a band with and without its background."""
    kind = draw(st.sampled_from(["constant", "table", "linear", "logistic", "gompertz",
                                 "band", "bump"]))
    names = {"constant": ["value"], "linear": ["v0", "v1"],
             "logistic": ["lo", "hi", "midpoint"], "gompertz": ["rate"],
             "band": ["lo_age", "hi_age", "value"], "bump": ["center", "height"]}
    spec = {"type": kind, **{name: draw(_NUMBER) for name in names.get(kind, [])}}
    if kind == "table":
        spec["values"] = draw(st.lists(_NUMBER, min_size=n_age, max_size=n_age))
    if kind in ("logistic", "bump"):
        spec["width"] = draw(_POSITIVE)
    if kind == "gompertz":
        spec["base"] = draw(st.one_of(st.just(0.0), _POSITIVE))
    if kind == "band" and draw(st.booleans()):
        spec["background"] = draw(_NUMBER)
    return spec


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n_age=st.sampled_from([8, 9, 16, 40]),
       a_max=st.one_of(st.floats(0.5, 200.0), st.just(100.0)))
def test_family_samples_are_the_written_expressions(data, n_age, a_max):
    # bit for bit, dtype included, overflow and all
    grid = ee.AgeGrid(a_max=a_max, n_age=n_age)
    spec = data.draw(_family_spec(n_age))
    assert not list(cfgmod._walk(spec, cfgmod._FAMILY))
    with np.errstate(all="ignore"):
        want = _written_sample(spec, grid)
    got = cfgmod.sample_family(spec, grid, "epidemic.mu_S")
    assert got.dtype == want.dtype and got.shape == (n_age,)
    assert got.tobytes() == want.tobytes()


def test_shipped_demo_configs_validate():
    root = Path(__file__).resolve().parent.parent / "configs"
    for name in ("demo_covid.json", "demo_sweep.json"):
        cfg = cfgmod.load_config(root / name)
        scenario = cfgmod.build_scenario(cfg)
        assert scenario.age_grid.n_age >= 8


def test_demo_covid_smoke(tmp_path):
    root = Path(__file__).resolve().parent.parent / "configs"
    out = tmp_path / "demo"
    code = cli.main(["simulate", "--config", str(root / "demo_covid.json"),
                     "--out", str(out)])
    assert code == 0
    assert (out / "trajectory.csv").exists()


# ----------------------------------------------------------------------
# robust boundary: documented exit codes, strict JSON outputs
# ----------------------------------------------------------------------

@pytest.mark.parametrize("command, section, key, literal", [
    ("evaluate", "objective", "rho", "Infinity"),
    ("simulate", "economy", "K0", "NaN"),
    ("simulate", "economy", "delta", "1e400"),
    # a 400-digit int, beyond the float range
    *(pytest.param("simulate", section, key, "1" + "0" * 399, id=f"simulate-{key}-int400")
      for section, key in (("economy", "delta"), ("economy", "K0"), ("grid", "n_age"))),
])
def test_nonfinite_config_number_names_field(tmp_path, capsys, command, section, key,
                                             literal):
    cfg = small_config()
    cfg[section][key] = "@"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg).replace('"@"', literal))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, section, key, value", [
    ("evaluate", "objective", "T_num", -1),
    ("check", "verification", "horizon_multipliers", []),
    ("evaluate", "objective", "composite", {}),
    ("check", "verification", "horizon_multipliers", [1.0, 1e300]),
    ("check", "verification", "horizon_multipliers", [1e18]),
    ("simulate", "grid", "n_steps", 10**30),
    ("optimize", "optimizer", "seed", -1),
    ("optimize", "optimizer", "jitter", -0.5),
], ids=["negative_T_num", "no_horizons", "empty_composite", "horizon_1e300", "horizon_1e18",
        "n_steps_1e30", "negative_seed", "negative_jitter"])
def test_demo_config_out_of_range_names_field(tmp_path, capsys, command, section, key,
                                              value):
    # evaluate would sum a negative T_num's reward rows from the end; check needs a horizon;
    # an empty composite would evaluate to 0.0 under the name J1; a step count whose
    # trajectory numpy cannot address ended in a traceback
    demo = Path(__file__).resolve().parent.parent / "configs" / "demo_covid.json"
    cfg = json.loads(demo.read_text())
    cfg[section][key] = value
    out = tmp_path / "out"
    code = cli.main([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 2
    assert f"config field {section}.{key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, section, key, value", [
    ("simulate", "grid", "n_steps", 10**14),
    ("simulate", "grid", "n_age", 10**14),
    ("check", "verification", "horizon_multipliers", [1.0, 1e12]),
    ("check", "verification", "adjoint_pairs", 10**13),
], ids=["n_steps_1e14", "n_age_1e14", "horizon_1e12", "adjoint_pairs_1e13"])
def test_run_too_large_for_memory_exits_2(tmp_path, capsys, command, section, key, value):
    # each run asks numpy for an array larger than the 128 TiB a process can
    # address, so the allocation fails at once whatever the overcommit setting;
    # the one line of stderr quotes numpy's message, and nothing is written
    demo = Path(__file__).resolve().parent.parent / "configs" / "demo_covid.json"
    cfg = json.loads(demo.read_text())
    cfg[section][key] = value
    out = tmp_path / "out"
    code = cli.main([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: the run does not fit in memory: "
                          "Unable to allocate ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("section, key, value, field", [
    ("economy", "production", {"type": "ces", "scale": 1.0, "omega": 2.0,
                               "substitution": -0.5}, "economy.production.omega"),
    ("economy", "production", {"type": "ces", "scale": 1.0, "omega": 0.5,
                               "substitution": 0.5}, "economy.production.mpk_cap"),
    ("economy", "phi", {"type": "power", "q": 0.0}, "economy.phi.q"),
    ("economy", "phi", {"type": "affine", "ell": 2.0}, "economy.phi.ell"),
    ("economy", "congestion", {"type": "concave_power", "d1": 0.5, "p": 2.0},
     "economy.congestion.p"),
    ("objective", "utility", {"type": "shifted_crra", "sigma": 2.0}, "objective.utility.sigma"),
    ("objective", "utility", {"type": "separable", "b": -1.0}, "objective.utility.b"),
    ("objective", "composite", {"J1": -1.0, "J6": 1.0}, "objective.composite"),
    ("economy", "delta", 0.0, "economy.delta"),
    ("epidemic", "saturation", {"xi_cap": 1.0, "psi": 2.0, "smooth": 0.0},
     "epidemic.saturation.smooth"),
    # the gompertz death rate overflows to inf on ages up to 1e300
    ("grid", "a_max", 1e300, "epidemic.mu_S"),
], ids=["ces_omega", "ces_no_mpk_cap", "power_q", "affine_ell", "concave_power_p", "crra_sigma",
        "separable_b", "composite_j1", "delta", "smooth", "a_max_1e300"])
def test_constructor_rejection_names_field_and_writes_nothing(tmp_path, capsys, recwarn,
                                                              section, key, value, field):
    # the constructors check these values, and the config error names the field in
    # the one line of stderr, with no warning before it
    demo = Path(__file__).resolve().parent.parent / "configs" / "demo_covid.json"
    cfg = json.loads(demo.read_text())
    cfg[section][key] = value
    out = tmp_path / "out"
    code = cli.main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: config field {field}: ")
    assert err.count("\n") == 1
    assert not recwarn.list
    assert not out.exists()


def test_non_finite_result_exits_3_and_writes_nothing(tmp_path, capsys):
    # a discount rate of 1e-320 overflows the truncation tail bound to inf: the
    # result is rejected before any output, the config echo included, is written
    demo = Path(__file__).resolve().parent.parent / "configs" / "demo_covid.json"
    cfg = json.loads(demo.read_text())
    cfg["objective"]["rho"] = 1e-320
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.main(["evaluate", "--config", str(write_config(tmp_path, cfg)),
                         "--out", str(out)])
    assert code == 3
    last = capsys.readouterr().err.splitlines()[-1]
    assert re.fullmatch(r"model error: evaluation\.json: non-finite result \(.+\)", last)
    assert not out.exists()


def test_tiny_discount_rate_names_the_infinite_tail_bound(tmp_path, capsys):
    # the truncation tail bound exp(-rho T) max|u| / rho overflows for rho 1e-320:
    # evaluate exits 3 with one line naming tail_bound, and numpy warns of nothing
    demo = Path(__file__).resolve().parent.parent / "configs" / "demo_covid.json"
    cfg = json.loads(demo.read_text())
    cfg["objective"]["rho"] = 1e-320
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["evaluate", "--config", str(write_config(tmp_path, cfg)),
                         "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("model error: evaluation.json: non-finite result (tail_bound: ")


@pytest.mark.parametrize("command, renderer", [
    ("optimize", "_csv_text"),  # after optim_report.json has rendered
    ("check", "_json_text"), ("simulate", "_csv_text"), ("sweep", "_csv_text")])
def test_render_failure_after_compute_writes_nothing(tmp_path, capsys, monkeypatch,
                                                     command, renderer):
    cfg = small_config()
    cfg["optimizer"] = {"max_iters": 1}
    cfg["verification"] = {"adjoint_pairs": 2, "horizon_multipliers": [1.0, 2.0]}
    cfg["sweep"] = {"axes": [{"path": "policy.c_level", "values": [0.1, 0.2]}]}
    path = write_config(tmp_path, cfg)
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "ok")]) == 0
    capsys.readouterr()

    def failing(*args):
        raise ee.NonFiniteState("rendered.csv: non-finite result (injected)")

    monkeypatch.setattr(cli, renderer, failing)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "model error: rendered.csv: non-finite result (injected)\n"
    assert not out.exists()


@pytest.mark.parametrize("where, errno_name", [("file", "EEXIST"), ("file/sub", "ENOTDIR")])
def test_unwritable_out_exits_2_naming_it(tmp_path, capsys, where, errno_name):
    # an --out that is a file, or lies under one, is a configuration error in one
    # line of stderr, as an unreadable --config is
    (tmp_path / "file").write_text("kept")
    out = tmp_path / where
    code = cli.main(["simulate", "--config", str(write_config(tmp_path, small_config())),
                     "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    strerror = os.strerror(getattr(errno, errno_name))
    assert captured.err == f"configuration error: cannot write outputs to {out}: {strerror}\n"
    assert captured.out == ""
    assert (tmp_path / "file").read_text() == "kept"


def test_sweep_non_numeric_value_names_field(tmp_path, capsys):
    cfg = small_config()
    cfg["sweep"] = {"axes": [{"path": "economy.K0", "values": ["high", 10.0]}]}
    code = cli.main(["sweep", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "sweep.axes.0.values.0" in capsys.readouterr().err


@pytest.mark.parametrize("section, key", [("grid", "n_age"), ("policy", "n_time_blocks")])
def test_integral_float_in_integer_field_names_field(tmp_path, capsys, section, key):
    cfg = small_config()
    cfg["policy"]["preset"] = "blocks"
    cfg[section][key] = 16.0 if key == "n_age" else 2.0
    code = cli.main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"{section}.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("path, value", [("objective.composite", 1.0),
                                         ("economy.production", 1.0),
                                         ("grid.n_steps", 2.5)])
def test_sweep_path_to_non_number_names_field(tmp_path, capsys, path, value):
    cfg = small_config()
    cfg["sweep"] = {"axes": [{"path": path, "values": [value]}]}
    code = cli.main(["sweep", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"config field {path}" in capsys.readouterr().err


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")
    return json.loads(text, parse_constant=reject)


_NUMBER = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, 1e-12, 1e6, -1e6]))
_RATE = st.one_of(st.floats(0.0, 2.0), st.sampled_from([0.0, 50.0]))


def _family(values=_NUMBER):
    return st.one_of(
        st.builds(lambda v: {"type": "constant", "value": v}, values),
        st.builds(lambda v0, v1: {"type": "linear", "v0": v0, "v1": v1}, values, values),
        st.builds(lambda lo, hi, mid, w: {"type": "logistic", "lo": lo, "hi": hi,
                                          "midpoint": mid, "width": w},
                  values, values, _NUMBER, st.floats(0.1, 10.0)),
        st.builds(lambda b, r: {"type": "gompertz", "base": b, "rate": r},
                  st.floats(0.0, 1.0), st.floats(-1.0, 1.0)),
        st.builds(lambda lo, hi, v: {"type": "band", "lo_age": lo, "hi_age": hi,
                                     "value": v}, _NUMBER, _NUMBER, values),
        st.builds(lambda c, w, h: {"type": "bump", "center": c, "width": w, "height": h},
                  _NUMBER, st.floats(0.1, 10.0), values),
    )


@st.composite
def cli_cases(draw):
    """A schema-valid config on a small grid and the command to run on it."""
    n_age = draw(st.sampled_from([8, 16]))
    rate = _family(_RATE)
    cfg = {
        "grid": {"a_max": draw(st.floats(1.0, 100.0)), "n_age": n_age,
                 "n_steps": draw(st.sampled_from([0, 1, 2, 4, 6, 8, 4.0]))},
        "epidemic": {
            "mu_S": draw(rate), "mu_R": draw(rate), "mu_I_base": draw(rate),
            "gamma": draw(rate), "beta": draw(rate),
            "xi": draw(_family(st.floats(0.0, 1.0))),
            "contact": draw(st.one_of(
                st.builds(lambda m0: {"type": "constant", "m0": m0}, _RATE),
                st.builds(lambda m0, g: {"type": "separable", "m0": m0, "shape": g},
                          _RATE, _family()),
                st.builds(lambda v: {"type": "table", "values": v},
                          st.lists(st.lists(_RATE, min_size=n_age, max_size=n_age),
                                   min_size=n_age, max_size=n_age)))),
            "saturation": {"xi_cap": draw(_NUMBER), "psi": draw(_RATE),
                           "smooth": draw(st.floats(0.01, 10.0))},
            "initial": {"s": draw(_family(st.floats(0.1, 2.0))), "i": draw(_family(_RATE)),
                        "r": draw(_family(_RATE))},
        },
        "economy": {
            "alpha": draw(_family(_RATE)), "e": draw(_family(_RATE)),
            "delta": draw(st.floats(0.001, 1.0)),
            "production": draw(st.one_of(
                st.builds(lambda k, l: {"type": "linear", "a_k": k, "a_l": l},
                          _RATE, _RATE),
                st.builds(lambda sc, om, sub, cap: {"type": "ces", "scale": sc,
                                                    "omega": om, "substitution": sub,
                                                    "mpk_cap": cap},
                          st.floats(0.1, 10.0), st.floats(0.05, 0.95),
                          st.sampled_from([-2.0, -0.5, 0.5]),
                          st.one_of(st.none(), st.floats(0.1, 10.0))))),
            "congestion": draw(st.one_of(
                st.builds(lambda d1: {"type": "linear", "d1": d1}, _RATE),
                st.builds(lambda d1, p: {"type": "concave_power", "d1": d1, "p": p},
                          _RATE, st.floats(0.1, 1.0)))),
            "K0": draw(st.floats(0.0, 1e3)),
        },
        "objective": {
            "which": draw(st.sampled_from(["J1", "J2", "J3", "J4", "J5", "J6"])),
            "rho": draw(st.floats(0.001, 1.0)), "nu": draw(st.floats(0.0, 1.0)),
            "composite": draw(st.one_of(st.none(), st.dictionaries(
                st.sampled_from(["J1", "J2", "J3", "J4", "J5", "J6"]), _NUMBER,
                min_size=1))),
        },
        "policy": draw(st.one_of(
            st.builds(lambda pre, c: {"preset": pre, "c_level": c},
                      st.sampled_from(["laissez_faire", "full_lockdown"]), _RATE),
            st.builds(lambda th, et: {"preset": "blocks", "theta_level": th,
                                      "eta_level": et},
                      st.floats(0.0, 1.0), st.floats(0.0, 1.0)))),
        "search": {"n_age_blocks": draw(st.sampled_from([1, 2, 3])),
                   "c_max": draw(st.floats(0.1, 10.0)), "max_sweeps": 3},
        "optimizer": {"max_iters": draw(st.integers(0, 1)),
                      "n_time_blocks": draw(st.sampled_from([1, 2])),
                      "penalty": draw(st.floats(1.0, 1e6))},
        "verification": {"adjoint_pairs": 2, "horizon_multipliers": [1.0, 2.0]},
        "sweep": {"axes": [{"path": draw(st.sampled_from(
            ["economy.K0", "economy.delta", "objective.rho", "policy.c_level",
             "objective.composite", "economy.production", "grid.n_steps"])),
            "values": draw(st.lists(_RATE, min_size=1, max_size=2))}]},
    }
    if draw(st.integers(0, 7)) == 0:  # a non-finite number where a finite one was valid
        cfg["economy"]["K0"] = draw(st.sampled_from([float("nan"), float("inf")]))
    command = draw(st.sampled_from(["simulate", "evaluate", "optimize", "check", "sweep"]))
    return command, cfg


@settings(max_examples=60, deadline=None)
@given(case=cli_cases())
def test_cli_boundary_exit_codes_and_strict_json(case):
    command, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = cli.main([command, "--config", str(path), "--out", str(out)])
        assert code in (0, 2, 3, 4)
        assert out.exists() == (code == 0)  # a command that fails writes nothing
        if not np.isfinite(cfg["economy"]["K0"]):
            assert code == 2
        for produced in out.glob("*.json"):
            _strict_json(produced.read_text())


@settings(max_examples=60, deadline=None)
@given(case=cli_cases())
def test_resolved_config_is_schema_valid(case):
    # resolving rejects exactly what the schema rejects, with its message, and
    # filling the defaults keeps a valid document valid; a non-finite number is
    # rejected first, as load_config rejects it
    _, cfg = case
    if not np.isfinite(cfg["economy"]["K0"]):
        with pytest.raises(ConfigurationError,
                           match="^config field economy.K0: numbers must be finite$"):
            cfgmod.resolve_config(cfg)
        return
    try:
        cfgmod.validate_config(cfg)
    except ConfigurationError as err:
        with pytest.raises(ConfigurationError) as again:
            cfgmod.resolve_config(cfg)
        assert str(again.value) == str(err)
        return
    cfgmod.validate_config(cfgmod.resolve_config(cfg))


@settings(max_examples=60, deadline=None)
@given(case=cli_cases())
def test_builders_leave_cli_cases_unchanged(case):
    # sweep points share every node off their override paths, so no builder may write
    _, cfg = case
    if cfgmod._nonfinite_path(cfg) is None:  # NaN != NaN; load_config rejects those
        try:
            cfg = cfgmod.resolve_config(cfg)
        except ConfigurationError:
            return
        _assert_builders_read_only(cfg)


# the schema that also checked MOVED_RULES' values, as it did before the constructors
# became the one check of each
_RULES_SCHEMA = schema_with_rules(cfgmod.SCHEMA, MOVED_RULES)
# a small valid variant to hold a moved field of that variant
_VARIANTS = {"epidemic.contact[constant]": {"type": "constant", "m0": 1.0},
             "epidemic.contact[separable]": {"type": "separable", "m0": 1.0,
                                             "shape": {"type": "constant", "value": 1.0}},
             "economy.production[linear]": {"type": "linear", "a_k": 0.04, "a_l": 1.0}}


def _probes(rules):
    """Values at, just inside, just past and far past each bound in ``rules``, the
    members of an enum and some non-members, and the bools."""
    values = [True, False]
    for key, out in (("minimum", -1), ("exclusiveMinimum", -1), ("maximum", 1),
                     ("exclusiveMaximum", 1)):
        if key in rules:
            bound = rules[key]
            values += [bound, bound - out * 1e-9, bound + out * 1e-9, bound + out,
                       bound + out * 10**6]
    if "enum" in rules:
        values += rules["enum"] + ["J7", "", 0, 2, 0.5]
    if "items" in rules:
        values += [[]] + [[v] for v in _probes(rules["items"])] + [[0.5, 1.5]]
    if "properties" in rules:
        values += [{}, {"J7": 1.0}] + [{t: v} for t in rules["properties"]
                                       for v in (1.0, -1.0, True)]
    return values


def _set_field(cfg, path, value):
    """Set config field ``path``, a variant on the path replaced by a small valid one."""
    *parents, key = path.split(".")
    node = cfg
    for i, part in enumerate(parents):
        name, variant, _ = part.partition("[")
        if variant:
            node[name] = copy.deepcopy(_VARIANTS[".".join(parents[:i + 1])])
        node = node.setdefault(name, {})
    node[key] = value


def _rejection(cfg, schema):
    """The message rejecting ``cfg`` under ``schema`` and the builders, else None."""
    with mock.patch.object(cfgmod, "SCHEMA", schema), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            cfgmod.build_scenario(cfgmod.resolve_config(cfg))
        except ConfigurationError as err:
            return str(err)
    return None


@pytest.mark.parametrize("path", sorted(MOVED_RULES))
@settings(max_examples=4, deadline=None)
@given(case=cli_cases())
def test_constructors_reject_what_the_schema_rules_rejected(path, case):
    # oracle: the schema that held the moved value rules, then the builders, rejects
    # the same configs as the builders alone, and names the same field; but the
    # schema named a list's entry where the constructor names the list, and a
    # oneOf's variant where the constructor names the field in it
    _, cfg = case
    assume(_rejection(cfg, _RULES_SCHEMA) is None and _rejection(cfg, cfgmod.SCHEMA) is None)
    for value in _probes(MOVED_RULES[path]):
        _set_field(cfg, path, value)
        before, after = _rejection(cfg, _RULES_SCHEMA), _rejection(cfg, cfgmod.SCHEMA)
        assert (before is None) == (after is None), (value, before, after)
        if before is not None:
            field, named = (re.match(r"config field (\S+): ", m).group(1)
                            for m in (before, after))
            assert (named == field or re.fullmatch(rf"{re.escape(named)}\.\d+", field)
                    or "[" in path and named.startswith(f"{field}.")), (value, before, after)


# ----------------------------------------------------------------------
# the schema walker against jsonschema
# ----------------------------------------------------------------------

_ODD = [True, False, None, 16.0, 16, 0, -1, -1e-9, 0.5, 2, "x", "", [], [1.0], [True],
        [[0.5, True]], {}, {"J7": 1.0}, {"type": "cubic"}, {"type": "constant"},
        {"type": "constant", "value": True}]
_ODD_VALUES = st.sampled_from(_ODD)


def _schema_keys(node):
    """Every key that a ``properties`` in schema ``node`` names, at any depth."""
    if isinstance(node, dict):
        yield from node.get("properties", ())
    for child in node.values() if isinstance(node, dict) else node:
        if isinstance(child, (dict, list)):
            yield from _schema_keys(child)


_ADDED_KEYS = st.sampled_from(sorted(set(_schema_keys(_RULES_SCHEMA))) + ["unknown_knob"])


def _schema_fields(schema, path=""):
    """Each field path of ``schema`` outside its oneOfs, with its subschema."""
    for key, sub in schema.get("properties", {}).items():
        field = f"{path}.{key}" if path else key
        yield field, sub
        yield from _schema_fields(sub, field)


# the fields with a rule past their type and keys
_RULED_FIELDS = [(field, sub) for field, sub in _schema_fields(_RULES_SCHEMA)
                 if sub.keys() - {"type", "properties", "additionalProperties", "required"}]
_FIELDS = st.sampled_from(_RULED_FIELDS)


@st.composite
def mutated_cli_cases(draw):
    """A ``cli_cases`` config with some edits, and the top-level sections to check
    (None: all).  First up to two ruled fields are set to values at or near their
    bounds; then up to two nodes are set to odd values, deleted, or joined by an odd
    value under a schema key or an unknown one."""
    _, cfg = draw(cli_cases())
    for field, sub in draw(st.lists(_FIELDS, max_size=2)):
        _set_field(cfg, field, copy.deepcopy(draw(st.sampled_from(_probes(sub)))))
    for _ in range(draw(st.integers(0, 2))):
        node = cfg
        while node:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else
                                       range(len(node))))
            if isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
                node = node[key]
                continue
            action = draw(st.sampled_from(["set", "delete", "add"]))
            if action == "set" or isinstance(node, list):
                node[key] = copy.deepcopy(draw(_ODD_VALUES))
            elif action == "delete":
                del node[key]
            else:
                node[draw(_ADDED_KEYS)] = copy.deepcopy(draw(_ODD_VALUES))
            break
    sections = draw(st.none() | st.sets(st.sampled_from(sorted(cfgmod.SCHEMA["properties"]))))
    return cfg, sections


def _walker_field(cfg, schema, sections=None):
    """The field ``config.validate_config`` rejects ``cfg`` at under ``schema``, else None."""
    with mock.patch.object(cfgmod, "SCHEMA", schema):
        try:
            cfgmod.validate_config(cfg, sections)
        except ConfigurationError as err:
            return re.match(r"config field (\S+): ", str(err)).group(1)
    return None


def _assert_walker_matches_jsonschema(cfg, schema, sections=None):
    # the same verdict, at the same field, or below it for a oneOf's object
    want = jsonschema_field(cfg, schema if sections is None else {
        "properties": {key: schema["properties"][key] for key in sections}})
    got = _walker_field(cfg, schema, sections)
    assert (want is None) == (got is None), (want, got)
    if want is not None:
        field, one_of = want
        assert got == field or one_of and got.startswith(f"{field}."), (want, got)


# no shrink phase: shrinking configs that carry 16 x 16 contact tables took
# about 5 minutes to report a failure, which the unshrunk example shows as well
@settings(max_examples=150, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
@given(case=mutated_cli_cases())
def test_schema_walker_matches_jsonschema(case):
    cfg, sections = case
    for schema in (cfgmod.SCHEMA, _RULES_SCHEMA):
        _assert_walker_matches_jsonschema(cfg, schema, sections)


@pytest.mark.parametrize("schema", [cfgmod.SCHEMA, _RULES_SCHEMA], ids=["schema", "rules"])
def test_schema_walker_matches_jsonschema_on_every_field(schema):
    # each ruled field outside a oneOf, set in a valid config to each value at or
    # near its bounds and to a few of the wrong type
    for field, sub in _RULED_FIELDS:
        for value in _probes(sub) + ["x", None, 16.0, {}]:
            cfg = small_config()
            _set_field(cfg, field, copy.deepcopy(value))
            _assert_walker_matches_jsonschema(cfg, schema)


_DELETE = object()


@pytest.mark.parametrize("edits, named, rules", [
    ({"grid.n_age": True}, "grid.n_age", False),
    ({"grid.n_age": 16.0}, "grid.n_age", False),
    ({"policy.theta": [[0.5, True]]}, "policy.theta.0.1", False),
    ({"objective.composite": {"J1": True}}, "objective.composite.J1", False),
    ({"objective.composite": {"J7": 1.0}}, "objective.composite", True),
    ({"objective.composite": {}}, "objective.composite", True),
    ({"objective.j6_sign": True}, "objective.j6_sign", True),
    ({"optimizer.penalty": 0}, "optimizer.penalty", False),
    ({"economy.delta": _DELETE}, "economy.delta", False),
    ({"economy.delta": _DELETE, "economy.alpha": "x"}, "economy.delta", False),
    ({"epidemic.mu_S": {"type": "cubic", "value": 0.02}}, "epidemic.mu_S.type", False),
    ({"epidemic.mu_S": {"type": "constant", "value": True}}, "epidemic.mu_S.value", False),
    ({"verification.horizon_multipliers": []}, "verification.horizon_multipliers", False),
    ({"sweep.axes": [{"path": "economy.K0", "values": [1.0]}] * 3}, "sweep.axes", False),
], ids=["true_integer", "float_integer", "true_in_table", "true_composite_weight",
        "unknown_composite_key", "empty_composite", "true_j6_sign", "zero_penalty",
        "missing_key", "missing_key_before_its_siblings", "unknown_family",
        "family_field", "empty_horizons", "three_axes"])
def test_schema_walker_names_the_field(edits, named, rules):
    # a missing key is named below its object, but ranks as the object itself
    cfg = small_config()
    cfg["policy"] = {"preset": "blocks", "n_time_blocks": 1, "n_age_blocks": 2}
    for field, value in edits.items():
        if value is _DELETE:
            section, key = field.split(".")
            del cfg[section][key]
        else:
            _set_field(cfg, field, value)
    schema = _RULES_SCHEMA if rules else cfgmod.SCHEMA
    assert _walker_field(cfg, schema) == named
    _assert_walker_matches_jsonschema(cfg, schema)


@pytest.mark.parametrize("rule, value, valid", [
    ({"enum": [1.0, -1]}, 1, True), ({"enum": [1.0, -1]}, -1.0, True),
    ({"enum": [1.0, -1]}, True, False), ({"enum": [1.0, -1]}, "1", False),
    ({"const": 1}, 1.0, True), ({"const": 1}, True, False), ({"const": True}, 1, False),
    ({"const": True}, True, True)])
def test_schema_walker_keeps_true_apart_from_one(rule, value, valid):
    # no enum or const of SCHEMA can meet a bool past its type check, so a small schema
    schema = {"properties": {"field": rule}}
    assert (_walker_field({"field": value}, schema) is None) == valid
    _assert_walker_matches_jsonschema({"field": value}, schema)


def test_runtime_never_imports_jsonschema(tmp_path):
    # numpy is the one runtime dependency: with jsonschema unimportable, a valid
    # config runs and a bad one is rejected at its field
    bad = small_config()
    bad["economy"]["delta"] = "0.05"
    script = textwrap.dedent("""
        import sys
        sys.modules["jsonschema"] = None  # any import of it raises ImportError
        from epiecon import cli
        codes = [cli.main(["simulate", "--config", sys.argv[k], "--out", sys.argv[k + 1]])
                 for k in (1, 3)]
        loaded = [name for name, module in sys.modules.items()
                  if name.split(".")[0] == "jsonschema" and module is not None]
        print(codes, loaded)
    """)
    proc = subprocess.run(
        [sys.executable, "-c", script, str(write_config(tmp_path, small_config())),
         str(tmp_path / "good"), str(write_config(tmp_path, bad, "bad.json")),
         str(tmp_path / "bad")],
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 2] []"
    assert "config field economy.delta: " in proc.stderr
    assert (tmp_path / "good" / "trajectory.csv").exists()


# ----------------------------------------------------------------------
# check's extended horizons: one run, cut to each horizon
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n_steps, multipliers", [
    (8, [1.0, 2.0, 4.0]), (8, [4.0, 2.0, 1.0]), (8, [0.5, 3.0, 0.5, 1.0]), (8, [0.25]),
    (8, [2.0, 2.0]), (0, [1.0, 3.0])])
def test_check_horizons_equal_looped_runs(tmp_path, n_steps, multipliers):
    cfg = small_config(n_steps=n_steps)
    cfg["verification"] = {"adjoint_pairs": 2, "horizon_multipliers": multipliers}
    out = tmp_path / "out"
    assert cli.main(["check", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 0
    resolved = cfgmod.resolve_config(cfg)
    scenario = cfgmod.build_scenario(resolved)
    tv = ee.transversality_check(cfgmod.build_value_function(resolved, scenario),
                                 looped_horizon_runs(scenario, multipliers), scenario.obj.rho)
    assert json.loads((out / "check.json").read_text())["transversality"] == {
        "horizons": tv.horizons.tolist(), "weighted_values": tv.weighted_values.tolist(),
        "exponent": tv.exponent, "decaying": tv.decaying}


@pytest.mark.parametrize("multipliers", [[1.5, 4.0], [4.0, 1.5], [2.0, 4.0], [3.0, 1.0, 0.5]])
def test_check_horizon_failure_equals_looped_runs(tmp_path, capsys, multipliers):
    # without births every cohort has aged off the 16-cell grid at step 16: the first
    # horizon that reaches it fails there, as its own run did
    cfg = small_config()
    cfg["epidemic"]["beta"] = {"type": "constant", "value": 0.0}
    cfg["verification"] = {"adjoint_pairs": 2, "horizon_multipliers": multipliers}
    scenario = cfgmod.build_scenario(cfgmod.resolve_config(cfg))
    with pytest.raises(ee.ModelError) as want:
        looped_horizon_runs(scenario, multipliers)
    assert want.value.step_index > scenario.time_grid.n_steps
    out = tmp_path / "out"
    assert cli.main(["check", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 3
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"model error at step {want.value.step_index}: {want.value}")
    assert not out.exists()


@pytest.mark.parametrize("multipliers", [[1.0, 2.0, 4.0], [0.5, 1.0], [4.0], [0.5]])
def test_check_runs_the_model_once_per_grid(tmp_path, monkeypatch, multipliers):
    # one run on the configured grid, to the longest horizon (the configured run and
    # every horizon cut from it), and one for the coarse companion; the chain rule
    # and the gap are those of a fresh configured run
    cfg = small_config()
    cfg["verification"] = {"adjoint_pairs": 2, "horizon_multipliers": multipliers}
    runs, run = [], epi._run

    def counted(initial, K0, controls, B, params, econ, time_grid, *args, **kwargs):
        runs.append(time_grid.n_steps)
        return run(initial, K0, controls, B, params, econ, time_grid, *args, **kwargs)

    monkeypatch.setattr(epi, "_run", counted)
    out = tmp_path / "out"
    assert cli.main(["check", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 0
    assert runs == [max(8, round(8 * max(multipliers))), 4]
    resolved = cfgmod.resolve_config(cfg)
    scenario = cfgmod.build_scenario(resolved)
    v = cfgmod.build_value_function(resolved, scenario)
    traj = scenario.simulate()
    payload = json.loads((out / "check.json").read_text())
    assert payload["chain_rule_identity"]["residual"] == ee.chain_rule_residual(
        v, scenario.policy, traj, scenario)
    gaps = ee.hamiltonian_gap_profile(v, scenario.policy, traj, scenario)
    assert payload["hamiltonian_gap"] == {"min": gaps.min(), "max": gaps.max(),
                                          "integrated": ee.integrated_gap(gaps, traj,
                                                                          scenario.obj)}


def test_a_table_in_a_number_field_names_it_in_a_short_message(tmp_path, capsys):
    # the message shows the offending value cut short: a 200 x 200 table's repr is
    # 240 KB; a value whose repr is under 80 characters is shown whole
    cfg = small_config()
    cfg["economy"]["delta"] = [[0.05] * 200 for _ in range(200)]
    assert cli.main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: config field economy.delta: [[0.05, 0.05")
    assert err.endswith(" ... is not of type 'number'\n")
    assert len(err.encode()) < 1024
    for value in ([0.05] * 12, [0.05] * 13):  # reprs of 72 and 78 characters
        cfg["economy"]["delta"] = value
        assert cli.main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (f"configuration error: config field economy.delta: "
                                           f"{value!r} is not of type 'number'\n")


def test_check_failing_configured_run_exits_as_simulate(tmp_path, capsys):
    # no births over 20 steps: every cohort has aged off the 16-cell grid at step 16,
    # inside the configured run; check reports the step and message simulate does
    cfg = small_config(n_steps=20)
    cfg["epidemic"]["beta"] = {"type": "constant", "value": 0.0}
    cfg["verification"] = {"adjoint_pairs": 2, "horizon_multipliers": [1.0, 2.0]}
    path = str(write_config(tmp_path, cfg))
    assert cli.main(["simulate", "--config", path, "--out", str(tmp_path / "sim")]) == 3
    want = capsys.readouterr().err
    assert "model error at step 16: " in want
    assert cli.main(["check", "--config", path, "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == want
    assert not (tmp_path / "out").exists()
