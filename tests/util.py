"""Shared fixtures: scenario builders, independent oracles, order fitting.

Oracles here are deliberately written without touching the package's
numerical kernels (plain loops, classic RK4, closed forms) so they stay
independent of the code paths they check.
"""

from __future__ import annotations

import copy
import dataclasses
import math

import jsonschema
import numpy as np

import epiecon as ee
from epiecon import cli, config as cfgmod, epi
from epiecon.optimizer import _project_blocks


# ----------------------------------------------------------------------
# the config schema's former value rules
# ----------------------------------------------------------------------

_LEVEL_RULES = {"minItems": 1, "items": {"type": "number", "minimum": 0, "maximum": 1}}

# The range and enum keywords the config schema carried for the rules that
# the constructors check, by config field (a variant as ``key[type]``).
# ``schema_with_rules(SCHEMA, MOVED_RULES)`` is the schema that checked them.
MOVED_RULES = {
    "grid.a_max": {"exclusiveMinimum": 0},
    "grid.n_age": {"minimum": 8},
    "grid.n_steps": {"minimum": 0},
    "epidemic.contact[constant].m0": {"minimum": 0},
    "epidemic.contact[separable].m0": {"minimum": 0},
    "epidemic.saturation.psi": {"minimum": 0},
    "epidemic.saturation.smooth": {"exclusiveMinimum": 0},
    "epidemic.weight_floor": {"exclusiveMinimum": 0},
    "economy.delta": {"exclusiveMinimum": 0},
    "economy.production[linear].a_k": {"minimum": 0},
    "economy.production[linear].a_l": {"minimum": 0},
    "objective.which": {"enum": ["J1", "J2", "J3", "J4", "J5", "J6"]},
    "objective.rho": {"exclusiveMinimum": 0},
    "objective.nu": {"minimum": 0, "maximum": 1},
    "objective.T_num": {"minimum": 0},
    "objective.j6_sign": {"enum": [1.0, -1.0, 1, -1]},
    "objective.composite": {"additionalProperties": False, "minProperties": 1,
                            "properties": {t: {"type": "number"}
                                           for t in ("J1", "J2", "J3", "J4", "J5", "J6")}},
    "search.theta_levels": _LEVEL_RULES,
    "search.eta_levels": _LEVEL_RULES,
    "search.n_age_blocks": {"minimum": 1},
    "search.c_max": {"exclusiveMinimum": 0},
    "search.max_sweeps": {"minimum": 1},
    "optimizer.initial_step": {"exclusiveMinimum": 0},
    "optimizer.backtrack": {"exclusiveMinimum": 0, "exclusiveMaximum": 1},
    "optimizer.max_backtracks": {"minimum": 0},
    "optimizer.max_iters": {"minimum": 0},
    "optimizer.grad_mode": {"enum": ["central", "forward"]},
    "optimizer.fd_eps_c": {"exclusiveMinimum": 0},
    "optimizer.fd_eps_theta": {"exclusiveMinimum": 0},
    "optimizer.fd_eps_eta": {"exclusiveMinimum": 0},
    "optimizer.penalty": {"exclusiveMinimum": 0},
    "optimizer.n_age_blocks": {"minimum": 1},
    "optimizer.n_time_blocks": {"minimum": 1},
    "optimizer.tol": {"exclusiveMinimum": 0},
    "optimizer.seed": {"minimum": 0},
    "optimizer.jitter": {"minimum": 0},
}


def schema_node(schema: dict, path: str) -> dict:
    """The subschema of config field ``path`` (a variant as ``key[type]``)."""
    node = schema
    for part in path.split("."):
        key, _, variant = part.partition("[")
        node = node["properties"][key]
        if variant:
            node = next(branch for branch in node["oneOf"]
                        if branch["properties"]["type"]["const"] == variant[:-1])
    return node


def schema_with_rules(schema: dict, rules: dict) -> dict:
    """A copy of ``schema`` with each field's ``rules`` keywords put back."""
    schema = copy.deepcopy(schema)
    for path, keywords in rules.items():
        schema_node(schema, path).update(copy.deepcopy(keywords))
    return schema


# JSON "integer" means an int, as the config walker reads it: jsonschema's own
# check would take 16.0
_JSONSCHEMA = jsonschema.validators.extend(
    jsonschema.Draft202012Validator, type_checker=jsonschema.Draft202012Validator
    .TYPE_CHECKER.redefine("integer", lambda _, value: type(value) is int))


def jsonschema_field(cfg, schema: dict):
    """Oracle for ``config.validate_config``: the field jsonschema rejects ``cfg`` at
    under ``schema`` (the error with the smallest path; a missing key named below its
    object), and whether that error is a ``oneOf``'s; None for a valid ``cfg``."""
    errors = sorted(_JSONSCHEMA(schema).iter_errors(cfg), key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    err = errors[0]
    path = [str(key) for key in err.absolute_path]
    if err.validator == "required":
        path.append(err.message.split("'")[1])
    return ".".join(path) or "<root>", err.validator == "oneOf"


# ----------------------------------------------------------------------
# independent numerical oracles
# ----------------------------------------------------------------------

def rk4_path(f, y0, t0, t_end, n_sub):
    """Classic fixed-step RK4; returns (times, states) including both ends."""
    y = np.array(y0, dtype=np.float64)
    h = (t_end - t0) / n_sub
    times = [t0]
    path = [y.copy()]
    t = t0
    for _ in range(n_sub):
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        times.append(t)
        path.append(y.copy())
    return np.array(times), np.array(path)


def fit_order(dts, errors, exact_floor=1e-12):
    """Least-squares convergence order from error samples.

    Errors at or below ``exact_floor`` mean the scheme is exact for the
    case at hand; order is then reported as infinity.
    """
    errors = np.asarray(errors, dtype=np.float64)
    if np.all(errors <= exact_floor):
        return np.inf
    safe = np.maximum(errors, 1e-300)
    return float(np.polyfit(np.log(np.asarray(dts)), np.log(safe), 1)[0])


def smooth_bump(x):
    """C-infinity bump supported on (-1, 1)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - x[inside] ** 2))
    return out


def compact_profile(grid, rng=None, lo=0.2, hi=0.8, n_modes=3):
    """Smooth random age profile supported well inside (0, a_max)."""
    a = grid.nodes / grid.a_max
    env = smooth_bump((a - 0.5 * (lo + hi)) / (0.5 * (hi - lo)))
    if rng is None:
        return env
    coef = rng.standard_normal(n_modes)
    wave = sum(c * np.sin((k + 1) * np.pi * a) for k, c in enumerate(coef))
    return env * wave


def compact_triple(grid, rng, **kw):
    return tuple(compact_profile(grid, rng, **kw) for _ in range(3))


# ----------------------------------------------------------------------
# the stepping kernel and the config walk as first written
# ----------------------------------------------------------------------

def reference_node(x, K, c_t, theta_t, eta_t, params, econ, da, dt, n_floor, out=None):
    """``epi._node`` as first written, with the aggregates it called inlined: age
    sums through ``ndarray.sum``, the outflow a sum of negated ``expm1`` terms,
    and exp(-mu_R dt) and the masked recovered share made at every node.  The
    contact kernel and the economy's forms are called as the kernel calls them."""
    s, i, r = x[..., 0, :], x[..., 1, :], x[..., 2, :]
    n = s + i + r
    n_total = da * n.sum(axis=-1)
    lam = epi.force_of_infection(i, n_total[..., None], theta_t, eta_t, params.m, da)
    Xi = da * (i * params.xi).sum(axis=-1)
    mu_i = params.mu_I_base * params.saturation.multiplier(Xi)[..., None]
    L = da * ((s + r) * econ.alpha * econ.phi(theta_t)).sum(axis=-1)
    C = da * (c_t * (s + i + r)).sum(axis=-1)
    level = (1.0 - eta_t) if econ.cost_complement else eta_t
    d_cost = econ.D(da * (level * i * econ.e).sum(axis=-1))
    Y = econ.F(K, L)
    aggregates = (n_total, Xi, da * (mu_i * i).sum(axis=-1), L, Y, C, d_cost)
    above = n_total > n_floor
    if out is None:
        return aggregates, None, _reference_failures(above, n_total, n_floor)

    gamma = params.gamma
    births = da * (params.beta * n).sum(axis=-1)
    s_dec = s * np.exp(-(lam + params.mu_S) * dt)
    new_inf = s * (-np.expm1(-lam * dt))
    out_rate = mu_i + gamma
    full_exp = -out_rate * dt
    half_exp = -out_rate * (0.5 * dt)
    i_dec = i * np.exp(full_exp) + new_inf * np.exp(half_exp)
    outflow = i * (-np.expm1(full_exp)) + new_inf * (-np.expm1(half_exp))
    recovered_share = np.divide(gamma, out_rate, out=np.zeros_like(out_rate),
                                where=out_rate > 0)
    r_dec = r * np.exp(-params.mu_R * dt) + recovered_share * outflow

    out[..., 0, 0] = births * dt / da
    out[..., 1:, 0] = 0.0
    out[..., 0, 1:] = s_dec[..., :-1]
    out[..., 1, 1:] = i_dec[..., :-1]
    out[..., 2, 1:] = r_dec[..., :-1]
    K1 = K + dt * (Y - C - econ.delta * K - d_cost)
    return aggregates, K1, _reference_failures(above, n_total, n_floor,
                                               np.isfinite(out).all(axis=(-2, -1)), K1)


def simulate_batch(initial, K0, policies, params, econ, time_grid, n_floor_rel=1e-9) -> list:
    """Run the controlled dynamics once per policy of a (B, 3, n_steps + 1, n_age) stack,
    all rows through the package's one stepping loop (``epi._run``) as one batch.

    Returns one entry per row: its Trajectory, whose arrays are views of the
    batch's, or the ModelError of its failing step, with ``step_index`` set.
    The policies are checked as ``simulate`` checks one.
    """
    u = np.asarray(policies, dtype=np.float64)
    if u.shape[1:] != (3, time_grid.n_steps + 1, initial.grid.n_age) or not len(u):
        raise ee.ConfigurationError("policy surfaces do not match the grids")
    epi._checked_run(initial, K0, u, econ, time_grid, n_floor_rel)
    by_node = u.transpose(1, 2, 0, 3)  # component-major: (3, n_steps + 1, B, n_age)
    run = epi._run(initial, K0, lambda k, x, K: by_node[:, k], len(u), params, econ, time_grid,
                   n_floor_rel, keep_states=True)
    N, Xi, deaths, L, Y, C, D_cost = run.agg
    return [run.errors[b] if b in run.errors else
            epi.Trajectory(X=run.X[b], initial=initial, K=run.K[b], time_grid=time_grid,
                           N=N[b], Xi=Xi[b], L=L[b], Y=Y[b], C=C[b], D_cost=D_cost[b],
                           deaths_flow=deaths[b], feasible=bool(run.feasible[b]),
                           k_violation=float(run.k_violation[b]), min_K=float(run.min_K[b]))
            for b in range(len(u))]


def _reference_failures(above, n_total, n_floor, state_ok=True, K1=0.0) -> dict:
    ok = above & state_ok & np.isfinite(K1)
    if ok.all():
        return {}
    failed = {}
    for b in np.flatnonzero(~np.ravel(ok)).tolist():
        if not np.ravel(above)[b]:
            failed[b] = ee.ExtinctPopulation(f"total population {np.ravel(n_total)[b]:.3e} "
                                             f"at or below the floor {n_floor:.3e}")
        elif not np.ravel(state_ok)[b]:
            failed[b] = ee.NonFiniteState("state update produced non-finite densities")
        else:
            failed[b] = ee.NonFiniteState(f"capital update produced {np.ravel(K1)[b]}")
    return failed


def reference_nonfinite_path(node, path=""):
    """The config's non-finite check as an element-by-element walk: the field path of
    the first NaN, infinite or float-overflowing number, else None."""
    if isinstance(node, float) and not math.isfinite(node):
        return path or "<root>"
    if type(node) is int:
        try:
            float(node)
        except OverflowError:
            return path or "<root>"
    for key, child in (node.items() if isinstance(node, dict) else
                       enumerate(node) if isinstance(node, list) else ()):
        found = reference_nonfinite_path(child, f"{path}.{key}" if path else str(key))
        if found is not None:
            return found
    return None


# ----------------------------------------------------------------------
# scenario builder
# ----------------------------------------------------------------------

def _field(grid, spec):
    """One value per age cell from a scalar, an array, or an age-callable."""
    if callable(spec):
        return np.asarray([spec(a) for a in grid.nodes])
    if np.isscalar(spec):
        return np.full(grid.n_age, float(spec))
    return np.asarray(spec, dtype=np.float64)


def build_scenario(
    n_age=16,
    a_max=8.0,
    n_steps=16,
    t0=0.0,
    mu_s=0.0,
    mu_r=0.0,
    mu_i=0.0,
    gamma=0.0,
    beta=0.0,
    xi=0.0,
    m0=0.0,
    kernel=None,
    xi_cap=1.0,
    psi=0.0,
    smooth=1.0,
    alpha=1.0,
    e_cost=1.0,
    delta=0.05,
    production=None,
    phi=None,
    congestion=None,
    s0=1.0,
    i0=0.0,
    r0=0.0,
    K0=100.0,
    c_level=0.0,
    theta_level=1.0,
    eta_level=1.0,
    rho=0.05,
    nu=1.0,
    which="J1",
    utility=None,
    composite=None,
    T_num=None,
    theta_levels=(0.0, 0.5, 1.0),
    eta_levels=(0.0, 0.5, 1.0),
    search_blocks=1,
    c_max=10.0,
    floor=1e-8,
    n_floor_rel=1e-9,
):
    """Assemble a Scenario from scalars, arrays, or age-callables."""
    grid = ee.AgeGrid(a_max=a_max, n_age=n_age)
    tg = ee.TimeGrid.aligned(grid, t0=t0, n_steps=n_steps)

    if kernel is None:
        kernel = ee.RankOneKernel(m0, np.ones(n_age))
    params = ee.EpiParams(
        grid=grid,
        mu_S=_field(grid, mu_s),
        mu_R=_field(grid, mu_r),
        mu_I_base=_field(grid, mu_i),
        gamma=_field(grid, gamma),
        beta=_field(grid, beta),
        xi=_field(grid, xi),
        m=kernel,
        saturation=ee.SaturationSpec(xi_cap=xi_cap, psi=psi, smooth=smooth),
    )
    econ = ee.EconParams(
        alpha=_field(grid, alpha),
        e=_field(grid, e_cost),
        delta=delta,
        F=production if production is not None else ee.LinearProduction(a_k=0.0, a_l=0.0),
        phi=phi if phi is not None else ee.PowerLockdown(q=1.0),
        D=congestion if congestion is not None else ee.LinearCongestion(d1=0.0),
    )
    obj = ee.ObjectiveParams(
        rho=rho,
        nu=nu,
        utility=utility if utility is not None else ee.ShiftedCRRAUtility(),
        which=which,
        T_num=T_num,
        composite=composite,
    )
    initial = ee.EpiState(grid, _field(grid, s0), _field(grid, i0), _field(grid, r0), time=t0)
    policy = (np.reshape([c_level, theta_level, eta_level], (3, 1, 1))
              * np.ones((tg.n_steps + 1, grid.n_age)))
    search = ee.ControlSearchGrid(theta_levels=tuple(theta_levels),
                                  eta_levels=tuple(eta_levels),
                                  n_age_blocks=search_blocks, c_max=c_max)
    space = ee.hilbert_space_for(params, floor=floor)
    return ee.Scenario(age_grid=grid, time_grid=tg, epi=params, econ=econ, obj=obj,
                       initial=initial, K0=K0, policy=policy, search=search,
                       space=space, n_floor_rel=n_floor_rel)


def band_profile(grid, lo_age, hi_age, value):
    """Constant value on [lo_age, hi_age), zero elsewhere."""
    a = grid.nodes
    return np.where((a >= lo_age) & (a < hi_age), float(value), 0.0)


def random_block_policy(scenario, rng, n_time_blocks=4, n_age_blocks=2,
                        theta_range=(0.3, 1.0), eta_range=(0.3, 1.0),
                        c_range=(0.0, 0.0)):
    """A feasible random piecewise-constant (3, n_steps + 1, n_age) policy."""
    shape = (n_time_blocks, n_age_blocks)
    blocks = np.stack([rng.uniform(*c_range, size=shape),
                       rng.uniform(*theta_range, size=shape),
                       rng.uniform(*eta_range, size=shape)])
    return ee.expand_blocks(blocks, scenario.time_grid, scenario.age_grid)


# ----------------------------------------------------------------------
# serial reference of the batched finite-difference gradient
# ----------------------------------------------------------------------

def looped_fd_gradient(blocks, scenario, config):
    """Reference for ``fd_gradient``: one ``penalized_objective`` run per probe,
    in block order, the up probe before the down probe."""
    def objective(trial):
        try:
            policy = ee.expand_blocks(trial, scenario.time_grid, scenario.age_grid)
            return ee.penalized_objective(policy, scenario, config.penalty)[0], None
        except ee.ModelError as err:
            return None, err

    grads = np.zeros_like(blocks)
    forward = config.grad_mode == "forward"
    f0 = None
    if forward:
        f0, err = objective(blocks)
        if f0 is None:
            return grads, [f"base point: probe failed: {err}"]
    names = ("c", "theta", "eta")
    hi = (scenario.search.c_max, 1.0, 1.0)
    eps = (config.fd_eps_c, config.fd_eps_theta, config.fd_eps_eta)
    warnings = []

    def probe(idx, value):
        trial = blocks.copy()
        trial[idx] = value
        f, err = objective(trial)
        if f is None:
            warnings.append(f"{names[idx[0]]}{list(idx[1:])}: probe failed: {err}")
        return f

    for idx in np.ndindex(blocks.shape):
        v, row = blocks[idx], idx[0]
        up, down = min(v + eps[row], hi[row]), max(v - eps[row], 0.0)
        if forward:
            up, down = (up, v) if up > v else (v, down)
        if up == down:
            continue
        f_up, f_down = (f0 if forward and x == v else probe(idx, x) for x in (up, down))
        if f_up is not None and f_down is not None:
            grads[idx] = (f_up - f_down) / (up - down)
    return grads, warnings


def looped_optimize(scenario, config, value_function=None) -> dict:
    """Reference for ``optimize``: the start simulated and evaluated alone, each
    gradient by ``looped_fd_gradient`` (each probe evaluate(simulate(row))), each
    line-search trial by ``penalized_objective``, and each integrated gap from a
    fresh ``hamiltonian_gap_profile``; returns the report's fields."""
    tg, ag, c_max = scenario.time_grid, scenario.age_grid, scenario.search.c_max
    blocks = ee.block_means(scenario.policy, config.n_time_blocks, config.n_age_blocks)
    if config.jitter > 0.0:
        rng = np.random.default_rng(config.seed)
        blocks = blocks + config.jitter * rng.standard_normal(blocks.shape)
    blocks = _project_blocks(blocks, c_max)
    policy = ee.expand_blocks(blocks, tg, ag)
    try:
        f, traj = ee.penalized_objective(policy, scenario, config.penalty)
    except ee.ModelError as err:
        raise ee.InfeasibleStart("objective undefined at the initial policy "
                                 f"(model error at step {err.step_index}: {err})") from err
    runs = [(policy, traj)]
    trace, violations, warnings, converged, n_iters = [f], [traj.k_violation], [], False, 0
    for _ in range(config.max_iters):
        grads, warns = looped_fd_gradient(blocks, scenario, config)
        warnings += warns
        if not grads.any():
            converged = True
            break
        step, ft = config.initial_step, None
        for _ in range(config.max_backtracks + 1):
            trial = _project_blocks(blocks + step * grads, c_max)
            trial_policy = ee.expand_blocks(trial, tg, ag)
            try:
                ft, trial_traj = ee.penalized_objective(trial_policy, scenario, config.penalty)
            except ee.ModelError:
                ft = None
            if ft is not None and ft > f:
                break
            step *= config.backtrack
        else:
            converged = True
            break
        n_iters += 1
        rel_change = abs(ft - f) / max(abs(f), 1.0)
        blocks, policy, f, traj = trial, trial_policy, ft, trial_traj
        trace.append(f)
        violations.append(traj.k_violation)
        if rel_change < config.tol:
            converged = True
            break
    runs.append((policy, traj))
    gaps = [None, None]
    if value_function is not None:
        gaps = [ee.integrated_gap(ee.hamiltonian_gap_profile(value_function, p, t, scenario), t,
                                  scenario.obj) for p, t in runs]
    return {"objective_trace": trace, "violation_trace": violations, "blocks": blocks,
            "policy": policy, "feasible": traj.feasible, "converged": converged,
            "n_iters": n_iters, "warnings": warnings, "integrated_gap_initial": gaps[0],
            "integrated_gap_final": gaps[1]}


# ----------------------------------------------------------------------
# serial reference of the grouped sweep
# ----------------------------------------------------------------------

def looped_sweep(cfg):
    """Reference for ``cli.cmd_sweep``: one scenario built, simulated and evaluated
    per point, in point order; renders the same tables."""
    axes = cfg["sweep"]["axes"]
    points = [(v0, v1) for v0 in axes[0]["values"]
              for v1 in (axes[1]["values"] if len(axes) > 1 else [None])]
    results = []
    for point in points:
        overrides = [(axis["path"], value) for axis, value in zip(axes, point)]
        scenario = cfgmod.build_scenario(cli._sweep_point(cfg, overrides))
        try:
            report = scenario.evaluate()
            results.append({"value": report.value, "feasible": report.feasible,
                            "violation": report.violation, "error": None})
        except ee.ModelError as err:
            results.append({"value": None, "feasible": False, "violation": None,
                            "error": str(err)})
    return cli._sweep_files(cfg, points, results)


def looped_horizon_runs(scenario, multipliers):
    """Reference for ``cli.cmd_check``'s transversality runs: one simulation per horizon
    multiplier, in order, each holding the scenario policy's last row."""
    n_steps = scenario.time_grid.n_steps
    runs = []
    for mult in multipliers:
        n = int(round(n_steps * mult))
        tg = ee.TimeGrid.aligned(scenario.age_grid, t0=scenario.time_grid.t0, n_steps=n)
        runs.append(dataclasses.replace(scenario, time_grid=tg).simulate(
            scenario.policy[:, np.minimum(np.arange(n + 1), n_steps)]))
    return runs
