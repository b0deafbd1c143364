import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epiecon as ee
from epiecon import epi, objectives, optimizer
from epiecon.optimizer import _project_blocks

from util import build_scenario, looped_fd_gradient


TOY_AK, TOY_AL, TOY_DELTA = 0.03, 3.0, 0.06


def foc_toy_scenario(n_steps=20, weight_j4=0.5, c_start=0.5):
    """Consumption-savings toy with a closed-form interior optimum.

    Replacement fertility (beta = 1/a_max with a uniform profile) holds the
    population exactly stationary, so the composite target J1 + w * J4 over
    a constant consumption level is separable: the utility flow is concave
    in c and final capital is linear in c.  The discrete first-order
    condition u'(c*) * G = w * Z has the closed form
    c* = (G / (w Z))^{1/sigma} - eps_c with G the discounted population-mass
    sum and Z the accumulated marginal cost of consumption in final capital.
    """
    return build_scenario(
        n_age=10, a_max=10.0, n_steps=n_steps,
        s0=1.0, i0=0.0, r0=0.0, beta=1.0 / 10.0,
        production=ee.LinearProduction(a_k=TOY_AK, a_l=TOY_AL), delta=TOY_DELTA,
        K0=400.0, c_level=c_start,
        rho=0.05, nu=1.0,
        utility=ee.ShiftedCRRAUtility(u0=0.1, sigma=0.5, eps_c=0.02, w0=1.0),
        composite={"J1": 1.0, "J4": weight_j4},
        c_max=6.0,
    )


def foc_toy_optimum(scen, weight_j4):
    """Closed-form discrete optimum of the toy (independent arithmetic)."""
    tg = scen.time_grid
    dt = tg.dt
    u = scen.obj.utility
    rho = scen.obj.rho
    growth = 1.0 + dt * (TOY_AK - TOY_DELTA)
    N = scen.initial.total_population()  # stationary

    G = sum(np.exp(-rho * k * dt) * N * dt for k in range(tg.n_steps))
    Z = sum(growth ** (tg.n_steps - 1 - k) * N * dt for k in range(tg.n_steps))
    return (G / (weight_j4 * Z)) ** (1.0 / u.sigma) - u.eps_c


def test_project_examples():
    # the optimizer clamps block values into the control box
    shape = (3, 8)
    raw = np.stack([np.full(shape, 2.0), np.full(shape, 1.0), np.full(shape, 0.5)])
    inside = _project_blocks(raw, c_max=5.0)
    assert np.array_equal(inside, raw)

    # out-of-box values clamp samplewise; simulate rejects them in a policy,
    # so projection operates on raw block values
    clipped = _project_blocks(
        np.stack([np.full(shape, -3.0), np.full(shape, 1.7), np.full(shape, 0.5)]),
        c_max=5.0)
    assert np.all(clipped[0] == 0.0)
    assert np.all(clipped[1] == 1.0)
    assert np.all(_project_blocks(np.stack([np.full(shape, 7.0), raw[1], raw[2]]),
                                  c_max=5.0)[0] == 5.0)
    scen = build_scenario(n_age=8, n_steps=3)
    with pytest.raises(ee.ConfigurationError):
        scen.simulate(ee.expand_blocks(np.stack([np.full(shape, -3.0), raw[1], raw[2]]),
                                       scen.time_grid, scen.age_grid))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_projection_idempotent(seed):
    rng = np.random.default_rng(seed)
    raw = np.stack([rng.uniform(-1.0, 8.0, (3, 8)), rng.uniform(-0.5, 1.5, (3, 8)),
                    rng.uniform(-0.5, 1.5, (3, 8))])
    once = _project_blocks(raw, c_max=5.0)
    twice = _project_blocks(once, c_max=5.0)
    assert np.array_equal(once, twice)


def test_penalized_objective_feasible_equals_target():
    scen = foc_toy_scenario()
    value, _ = ee.penalized_objective(scen.policy, scen, penalty=1e6)
    assert value == pytest.approx(scen.evaluate().value, rel=1e-14)


def test_penalized_objective_constructed_violation():
    # consumption pulse drives K from 1 to -1 in one step; the expected
    # violation integral is recomputed by an independent scalar recursion
    delta = 0.05
    scen = build_scenario(
        n_age=16, a_max=4.0, n_steps=4,  # dt = 0.25
        s0=1.0, K0=1.0, delta=delta,
        production=ee.LinearProduction(a_k=0.0, a_l=0.0),
        which="J4",
    )
    tg = scen.time_grid
    dt = tg.dt
    N = scen.initial.total_population()
    pulse_C = (1.0 + 1.0) / dt - delta * 1.0  # lands exactly on K = -1
    c_surface = np.zeros((5, 16))
    c_surface[0, :] = pulse_C / N
    policy = np.stack([c_surface, np.ones((5, 16)), np.ones((5, 16))])
    traj = scen.simulate(policy)

    K_oracle = [1.0, -1.0]
    for _ in range(3):
        K_oracle.append(K_oracle[-1] * (1.0 - delta * dt))
    expected_violation = dt * sum(min(K, 0.0) ** 2 for K in K_oracle[1:])
    assert np.allclose(traj.K, K_oracle, rtol=1e-12)
    assert traj.k_violation == pytest.approx(expected_violation, rel=1e-12)
    rep = scen.evaluate(policy, traj)
    value, ran = ee.penalized_objective(policy, scen, penalty=1e6)
    assert value == pytest.approx(rep.value - 1e6 * expected_violation, rel=1e-12)
    assert ran.k_violation == traj.k_violation


def test_penalty_smooth_at_boundary():
    # zero value and zero slope at K = 0: tiny violations cost O(violation^2)
    eps = 1e-6
    assert max(0.0, -(-eps)) ** 2 == pytest.approx(eps**2)
    assert max(0.0, -0.0) ** 2 == 0.0


def test_fd_gradient_flat_objective_zero():
    # terminal capital with lockdown/testing unable to affect it: with no
    # infections, zero productivity, and zero congestion slope, theta and
    # eta change nothing
    scen = build_scenario(
        n_age=8, n_steps=4, s0=0.0, i0=0.0, r0=1.0, m0=0.0, alpha=0.0,
        production=ee.LinearProduction(a_k=0.0, a_l=0.0), K0=10.0,
        which="J4", c_level=0.0,
    )
    blocks = ee.block_means(scen.policy, 1, 1)
    cfg = ee.OptimizerConfig(grad_mode="central")
    grads, warns = ee.fd_gradient(blocks, scen, cfg)
    assert np.all(grads[1] == 0.0)
    assert np.all(grads[2] == 0.0)
    assert warns == []


def test_fd_gradient_linear_slope_oracle():
    # J4 is linear in the consumption level; the slope is the accumulated
    # marginal cost of consumption computed by explicit recursion
    scen = build_scenario(
        n_age=10, a_max=10.0, n_steps=10, s0=1.0, beta=1.0 / 10.0,
        production=ee.LinearProduction(a_k=0.03, a_l=1.0), delta=0.06,
        K0=300.0, c_level=0.5, which="J4", c_max=6.0,
    )
    tg = scen.time_grid
    dt = tg.dt
    growth = 1.0 + dt * (0.03 - 0.06)
    N = scen.initial.total_population()  # stationary under replacement births
    slope = -sum(growth ** (tg.n_steps - 1 - k) * N * dt
                 for k in range(tg.n_steps))
    blocks = ee.block_means(scen.policy, 1, 1)
    for mode in ("central", "forward"):
        cfg = ee.OptimizerConfig(grad_mode=mode, fd_eps_c=1e-5)
        grads, _ = ee.fd_gradient(blocks, scen, cfg)
        assert grads[0, 0, 0] == pytest.approx(slope, rel=1e-6)


def test_fd_gradient_central_vs_forward():
    scen = foc_toy_scenario()
    blocks = ee.block_means(scen.policy, 1, 1)
    central = ee.fd_gradient(blocks, scen,
                             ee.OptimizerConfig(grad_mode="central", fd_eps_c=1e-5))[0]
    forward = ee.fd_gradient(blocks, scen,
                             ee.OptimizerConfig(grad_mode="forward", fd_eps_c=1e-5))[0]
    rel = abs(central[0, 0, 0] - forward[0, 0, 0]) / abs(central[0, 0, 0])
    assert rel <= 1e-3


@settings(max_examples=30, deadline=None)
@given(ntb=st.sampled_from([1, 2, 4]), nab=st.sampled_from([1, 2, 8]),
       steps_per_block=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_block_means_recovers_block_constant_values(ntb, nab, steps_per_block, seed):
    # dyadic block values keep every block sum exact, so the means must be too
    scen = build_scenario(n_age=8, n_steps=ntb * steps_per_block)
    blocks = np.random.default_rng(seed).integers(0, 65, (3, ntb, nab)) / 64.0
    policy = ee.expand_blocks(blocks, scen.time_grid, scen.age_grid)
    assert np.array_equal(ee.block_means(policy, ntb, nab), blocks)


def _epidemic_scenario():
    # every control moves the objective: infections, contact, and productive labor
    return build_scenario(
        n_age=8, a_max=8.0, n_steps=4, mu_i=0.2, gamma=0.4, m0=2.5, xi=0.2,
        i0=0.02, s0=1.0, production=ee.LinearProduction(a_k=0.03, a_l=1.0),
        K0=50.0, c_level=0.5, theta_level=1.0, eta_level=0.5, which="J1",
    )


def _objective_at(blocks, scen):
    policy = ee.expand_blocks(blocks, scen.time_grid, scen.age_grid)
    return ee.penalized_objective(policy, scen)[0]


@pytest.mark.parametrize("mode", ["central", "forward"])
def test_fd_gradient_multi_block_matches_direct_quotients(mode):
    # 2x2 blocks with theta at its upper bound 1, so each theta probe is one-sided
    scen = _epidemic_scenario()
    blocks = ee.block_means(scen.policy, 2, 2)
    assert np.all(blocks[1] == 1.0)
    eps = (1e-4, 1e-3, 1e-3)
    cfg = ee.OptimizerConfig(grad_mode=mode, fd_eps_c=eps[0], fd_eps_theta=eps[1],
                             fd_eps_eta=eps[2])
    grads, warns = ee.fd_gradient(blocks, scen, cfg)
    assert warns == []
    hi = (scen.search.c_max, 1.0, 1.0)
    f0 = _objective_at(blocks, scen)
    for row in range(3):
        for tb in range(2):
            for ab in range(2):
                v = blocks[row, tb, ab]

                def f(x):
                    trial = blocks.copy()
                    trial[row, tb, ab] = x
                    return _objective_at(trial, scen)

                top, bottom = min(v + eps[row], hi[row]), max(v - eps[row], 0.0)
                if row == 1:
                    assert top == v == 1.0  # no room above: the quotient is one-sided
                if mode == "central":
                    expected = (f(top) - f(bottom)) / (top - bottom)
                elif top > v:
                    expected = (f(top) - f0) / (top - v)
                else:
                    expected = (f0 - f(bottom)) / (v - bottom)
                assert grads[row, tb, ab] == expected
                assert expected != 0.0


@pytest.mark.parametrize("mode", ["central", "forward"])
def test_fd_gradient_failed_probe_zero_component_and_warning(mode, monkeypatch):
    # the downward theta probe of block (0, 1) fails; the upward one is clamped to 1
    scen = _epidemic_scenario()
    blocks = ee.block_means(scen.policy, 2, 2)
    real = ee.Scenario.score

    def failing(scenario, blocks):
        return [ee.ModelError("boom") if row[1, 0, -1] != 1.0 else report
                for row, report in zip(blocks, real(scenario, blocks))]

    monkeypatch.setattr(ee.Scenario, "score", failing)
    grads, warns = ee.fd_gradient(blocks, scen, ee.OptimizerConfig(grad_mode=mode))
    assert warns == ["theta[0, 1]: probe failed: boom"]
    assert grads[1, 0, 1] == 0.0
    assert np.count_nonzero(grads) == grads.size - 1


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(["central", "forward"]),
       ntb=st.sampled_from([1, 2, 4]), nab=st.sampled_from([1, 2]),
       chunk=st.sampled_from([None, 1, 3]))
def test_fd_gradient_equals_looped_probes(seed, mode, ntb, nab, chunk):
    # the scored probes give the per-probe loop's gradient and warnings bit for
    # bit; ``chunk`` caps the rows per batch (None: the scorer's budget), so an
    # odd probe count spans batch boundaries
    rng = np.random.default_rng(seed)
    scen = _epidemic_scenario()
    blocks = _project_blocks(np.stack([rng.uniform(0.0, 1.0, (ntb, nab)),
                                       rng.choice([0.0, 0.5, 1.0], (ntb, nab)),
                                       rng.uniform(0.0, 1.0, (ntb, nab))]),
                             scen.search.c_max)
    cfg = ee.OptimizerConfig(grad_mode=mode, fd_eps_theta=1e-3, fd_eps_eta=1e-3)
    cells = objectives._BATCH_CELLS
    if chunk is not None:
        objectives._BATCH_CELLS = chunk * scen.age_grid.n_age
    try:
        grads, warns = ee.fd_gradient(blocks, scen, cfg)
    finally:
        objectives._BATCH_CELLS = cells
    want, want_warns = looped_fd_gradient(blocks, scen, cfg)
    assert grads.tobytes() == want.tobytes()
    assert warns == want_warns


def _long_scenario():
    # the epidemic scenario over 20 steps, with births to keep the population
    return build_scenario(
        n_age=8, a_max=8.0, n_steps=20, mu_i=0.2, gamma=0.4, m0=2.5, xi=0.2, beta=0.125,
        i0=0.02, s0=1.0, production=ee.LinearProduction(a_k=0.03, a_l=1.0),
        K0=50.0, c_level=0.5, theta_level=1.0, eta_level=0.5, which="J1",
    )


@pytest.mark.parametrize("ntb", [4, 5])
@pytest.mark.parametrize("mode", ["central", "forward"])
def test_fd_gradient_equals_looped_probes_over_time_blocks(mode, ntb):
    # probes join the base point's run at their time block (5 or 4 steps a block);
    # theta at the box's edges in some blocks makes ends that are the base point
    rng = np.random.default_rng(ntb)
    scen = _long_scenario()
    blocks = np.stack([rng.uniform(0.0, 1.0, (ntb, 2)), rng.choice([0.0, 0.5, 1.0], (ntb, 2)),
                       rng.uniform(0.0, 1.0, (ntb, 2))])
    cfg = ee.OptimizerConfig(grad_mode=mode, fd_eps_theta=1e-3, fd_eps_eta=1e-3)
    grads, warns = ee.fd_gradient(blocks, scen, cfg)
    want, want_warns = looped_fd_gradient(blocks, scen, cfg)
    assert grads.tobytes() == want.tobytes()
    assert warns == want_warns
    assert np.count_nonzero(grads) > 0


@pytest.mark.parametrize("mode, row_steps", [("central", 21 + 12 * (21 + 16 + 11 + 6)),
                                             ("forward", 21 + 6 * (21 + 16 + 11 + 6))])
def test_fd_gradient_steps_each_probe_from_its_time_block(monkeypatch, mode, row_steps):
    # 4 x 2 interior blocks over 20 steps: the base point runs all 21 nodes, and a
    # probe of time block j joins it at node 5 j (669 row-steps in central mode,
    # where a probe per node would take 48 x 21 = 1008)
    scen = _long_scenario()
    blocks = np.full((3, 4, 2), 0.5)
    rows = []
    node = epi._node
    monkeypatch.setattr(epi, "_node", lambda x, *a, **k: rows.append(
        1 if x.ndim == 2 else x.shape[1]) or node(x, *a, **k))
    ee.fd_gradient(blocks, scen, ee.OptimizerConfig(grad_mode=mode))
    assert sum(rows) == row_steps


@pytest.mark.parametrize("theta, mode, rows", [(0.5, "central", 12), (1.0, "central", 12),
                                               (0.5, "forward", 7), (1.0, "forward", 7)])
def test_fd_gradient_at_one_time_block_steps_no_more_rows_than_probes(monkeypatch, theta,
                                                                      mode, rows):
    # at one time block no probe joins late: central mode scores the base point only
    # where an end is at it (theta at the box's edge), so the rows are those of a
    # probe per end, 2 x 3 x 2 in central mode and the base point + 3 x 2 forward
    scen = _long_scenario()
    blocks = np.full((3, 1, 2), 0.5)
    blocks[1, 0, 1] = theta
    steps = []
    node = epi._node
    monkeypatch.setattr(epi, "_node", lambda x, *a, **k: steps.append(
        1 if x.ndim == 2 else x.shape[1]) or node(x, *a, **k))
    cfg = ee.OptimizerConfig(grad_mode=mode)
    grads, _ = ee.fd_gradient(blocks, scen, cfg)
    assert sum(steps) == rows * 21
    want, _ = looped_fd_gradient(blocks, scen, cfg)
    assert grads.tobytes() == want.tobytes()


@pytest.mark.parametrize("mode", ["central", "forward"])
def test_fd_gradient_floor_fails_some_probes(mode):
    # an extinction floor at the base point's smallest population: probes that
    # lower it fail (a zero component and a warning), the others give quotients
    base = _epidemic_scenario()
    blocks = ee.block_means(base.policy, 2, 2)
    cfg = ee.OptimizerConfig(grad_mode=mode, fd_eps_theta=1e-2, fd_eps_eta=1e-2)
    n_min = base.simulate().N.min() / base.initial.total_population()
    scen = dataclasses.replace(base, n_floor_rel=float(np.nextafter(n_min, 0.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grads, warns = ee.fd_gradient(blocks, scen, cfg)
    want, want_warns = looped_fd_gradient(blocks, scen, cfg)
    assert grads.tobytes() == want.tobytes()
    assert warns == want_warns
    assert warns and all("at or below the floor" in w for w in warns)
    assert np.count_nonzero(grads) > 0


def test_optimize_recovers_analytic_foc():
    weight = 0.5
    scen = foc_toy_scenario(weight_j4=weight, c_start=0.5)
    cfg = ee.OptimizerConfig(initial_step=50.0, max_iters=60, tol=1e-12,
                             fd_eps_c=1e-6, seed=0)
    report = ee.optimize(scen, cfg)
    c_star = foc_toy_optimum(scen, weight)
    assert 0.0 < c_star < scen.search.c_max  # interior optimum
    assert report.blocks[0, 0, 0] == pytest.approx(c_star, rel=1e-3)
    # monotone ascent trace
    trace = np.asarray(report.objective_trace)
    assert np.all(np.diff(trace) > 0.0)
    assert report.feasible


def test_optimize_seed_determinism():
    scen = foc_toy_scenario()
    cfg = ee.OptimizerConfig(initial_step=20.0, max_iters=8, seed=7, jitter=0.05)
    r1 = ee.optimize(scen, cfg)
    r2 = ee.optimize(scen, cfg)
    assert r1.objective_trace == r2.objective_trace
    assert np.array_equal(r1.blocks, r2.blocks)


def test_optimize_zero_iterations_identity():
    scen = foc_toy_scenario()
    cfg = ee.OptimizerConfig(max_iters=0)
    report = ee.optimize(scen, cfg)
    assert len(report.objective_trace) == 1
    assert report.objective_trace[0] == pytest.approx(scen.evaluate().value, rel=1e-14)
    assert np.array_equal(report.policy[0], scen.policy[0])


def test_optimize_reduces_deaths():
    # deaths-minimization (maximize -J6) weakly improves on laissez-faire
    scen = build_scenario(
        n_age=16, a_max=8.0, n_steps=12,
        mu_i=0.2, gamma=0.4, m0=2.5, xi=0.2, i0=0.02, s0=1.0,
        K0=1e6,  # capital never binds
        which="J6",
        c_level=0.0, theta_level=1.0, eta_level=1.0,
    )
    flipped = ee.ObjectiveParams(rho=scen.obj.rho, nu=scen.obj.nu,
                                 utility=scen.obj.utility, which="J6",
                                 j6_sign=-1.0)
    scen = ee.Scenario(**{**scen.__dict__, "obj": flipped})
    baseline = scen.evaluate().value
    cfg = ee.OptimizerConfig(initial_step=1.0, max_iters=10, seed=3,
                             fd_eps_theta=1e-4, fd_eps_eta=1e-4)
    report = ee.optimize(scen, cfg)
    assert report.objective_trace[-1] >= baseline
    deaths_after = -report.objective_trace[-1]
    deaths_before = -baseline
    assert deaths_after <= deaths_before


def test_infeasible_start_raises():
    # no population at all: the force of infection guard trips immediately
    scen = build_scenario(n_age=8, n_steps=4, s0=0.0, i0=0.0, r0=0.0, m0=1.0)
    with pytest.raises(ee.InfeasibleStart):
        ee.optimize(scen, ee.OptimizerConfig(max_iters=1))


def test_gap_certificate_improves():
    # with a near-value-function certificate, the optimized policy's
    # integrated gap does not exceed the starting policy's
    weight = 0.02
    scen = foc_toy_scenario(weight_j4=weight, c_start=0.2)
    tg = scen.time_grid
    growth = 1.0 + tg.dt * (0.03 - 0.06)
    q_guess = weight * growth ** tg.n_steps
    v = ee.LinearValue(scen.space, tuple(np.zeros(10) for _ in range(3)), q=q_guess)
    cfg = ee.OptimizerConfig(initial_step=50.0, max_iters=40, tol=1e-12,
                             fd_eps_c=1e-6)
    report = ee.optimize(scen, cfg, value_function=v)
    assert report.integrated_gap_initial is not None
    assert report.integrated_gap_final <= report.integrated_gap_initial


def test_optimizer_config_validation():
    with pytest.raises(ee.ConfigurationError):
        ee.OptimizerConfig(grad_mode="secant")
    with pytest.raises(ee.ConfigurationError):
        ee.OptimizerConfig(backtrack=1.5)
    with pytest.raises(ee.ConfigurationError):
        ee.OptimizerConfig(n_age_blocks=0)


@pytest.mark.parametrize("field, value", [("seed", -1), ("seed", 1.5), ("jitter", -0.5),
                                          ("jitter", float("nan"))])
def test_optimizer_config_rejects_negative_seed_and_jitter(field, value):
    # through the API a negative seed reached numpy's generator as a bare ValueError
    # and a negative jitter was ignored
    with pytest.raises(ee.ConfigurationError, match=f"^{field} must be"):
        ee.OptimizerConfig(**{field: value})


def test_optimize_gaps_equal_gaps_of_fresh_runs():
    # the certificate reads the trajectories the search already ran (the start and
    # the last accepted trial), both in one node stack: the same gaps as fresh runs
    weight = 0.02
    scen = foc_toy_scenario(weight_j4=weight, c_start=0.2)
    v = ee.LinearValue(scen.space, tuple(np.linspace(0.1, 0.3, 10) for _ in range(3)), q=0.01)
    cfg = ee.OptimizerConfig(initial_step=50.0, max_iters=5, tol=1e-12, fd_eps_c=1e-6,
                             n_time_blocks=2)
    report = ee.optimize(scen, cfg, value_function=v)
    assert report.n_iters > 0
    start = ee.expand_blocks(_project_blocks(ee.block_means(scen.policy, 2, 1),
                                             scen.search.c_max), scen.time_grid, scen.age_grid)
    for policy, gap in ((start, report.integrated_gap_initial),
                        (report.policy, report.integrated_gap_final)):
        traj = scen.simulate(policy)
        fresh = ee.integrated_gap(ee.hamiltonian_gap_profile(v, policy, traj, scen), traj,
                                  scen.obj)
        assert np.float64(gap).tobytes() == np.float64(fresh).tobytes()
    assert report.integrated_gap_initial != report.integrated_gap_final


def test_a_failed_line_search_trial_backtracks(monkeypatch):
    # a trial that fails as a model error is not taken: the search halves the step,
    # as if it had started from half the step
    scen = _epidemic_scenario()
    cfg = ee.OptimizerConfig(max_iters=1, n_time_blocks=2)
    want = ee.optimize(scen, dataclasses.replace(cfg, initial_step=0.5))
    real, calls = optimizer.penalized_objective, []

    def failing(policy, scenario, penalty):
        calls.append(policy)
        if len(calls) == 2:  # the first trial, after the start
            raise ee.ModelError("boom")
        return real(policy, scenario, penalty)

    monkeypatch.setattr(optimizer, "penalized_objective", failing)
    report = ee.optimize(scen, cfg)
    assert report.n_iters == want.n_iters == 1
    assert report.objective_trace == want.objective_trace
    assert report.blocks.tobytes() == want.blocks.tobytes()
