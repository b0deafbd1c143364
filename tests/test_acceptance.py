"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Criteria run at desk scale (n_age <= 256, horizons <= 50 model
years).
"""

import numpy as np

import epiecon as ee

from test_epi import mckendrick_error, sir_peak_error, sir_scenario
from test_hamiltonian import interior_triple, residual_for, verification_scenario
from test_optimizer import foc_toy_optimum, foc_toy_scenario
from util import build_scenario, fit_order, random_block_policy, smooth_bump


def report(num, description, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"PASS criterion {num}: {description}{suffix}")


# ----------------------------------------------------------------------
# 1. McKendrick analytic solution
# ----------------------------------------------------------------------

def test_c1_mckendrick_analytic():
    mu0 = 0.08
    refinements = (32, 64, 128)
    errors, dts = [], []
    for n_age in refinements:
        errors.append(mckendrick_error(n_age, lambda a: mu0))
        dts.append(8.0 / n_age)
    for err, dt in zip(errors, dts):
        assert err <= 2.0 * dt
    order = fit_order(dts, errors)
    assert order >= 0.9  # infinite when the scheme is exact to roundoff

    # age-dependent companion where the truncation error is nonzero, so the
    # first-order convergence is actually measurable
    errors_ad = [mckendrick_error(n, lambda a: 0.05 + 0.02 * a) for n in refinements]
    order_ad = fit_order(dts, errors_ad)
    assert order_ad >= 0.9
    report(1, "McKendrick analytic solution",
           f"constant-mu max rel err {max(errors):.2e} (exact transport), "
           f"age-dependent order {order_ad:.2f}")


# ----------------------------------------------------------------------
# 2. Homogeneous-SIR reduction
# ----------------------------------------------------------------------

def test_c2_homogeneous_sir_reduction():
    err = sir_peak_error(sir_scenario(n_age=256))
    assert err < 0.01
    report(2, "homogeneous-SIR reduction vs RK4 oracle",
           f"peak rel err {err:.2%}")


# ----------------------------------------------------------------------
# 3. Positivity and conservation
# ----------------------------------------------------------------------

def test_c3_positivity_and_conservation():
    rng = np.random.default_rng(2024)
    n_general, n_conserving = 160, 40

    for trial in range(n_general):
        scen = build_scenario(
            n_age=int(rng.integers(8, 25)),
            a_max=float(rng.uniform(4.0, 12.0)),
            n_steps=int(rng.integers(1, 12)),
            mu_s=float(rng.uniform(0.0, 0.3)),
            mu_r=float(rng.uniform(0.0, 0.3)),
            mu_i=float(rng.uniform(0.0, 0.5)),
            gamma=float(rng.uniform(0.0, 1.0)),
            beta=float(rng.uniform(0.0, 0.1)),
            xi=float(rng.uniform(0.0, 1.0)),
            m0=float(rng.uniform(0.0, 4.0)),
            psi=float(rng.uniform(0.0, 2.0)),
            s0=float(rng.uniform(0.1, 2.0)),
            i0=float(rng.uniform(0.001, 0.5)),
            r0=float(rng.uniform(0.0, 0.5)),
            theta_level=float(rng.uniform(0.0, 1.0)),
            eta_level=float(rng.uniform(0.0, 1.0)),
            c_level=float(rng.uniform(0.0, 0.2)),
        )
        assert np.all(scen.simulate().X >= 0.0)

    for trial in range(n_conserving):
        n_age = int(rng.integers(10, 25))
        n_steps = int(rng.integers(1, n_age // 2))
        a_max = float(rng.uniform(4.0, 12.0))
        cut = a_max * (n_age - n_steps - 1) / n_age  # nothing reaches the exit
        scen = build_scenario(
            n_age=n_age, a_max=a_max, n_steps=n_steps,
            gamma=float(rng.uniform(0.0, 1.0)),  # recovery allowed
            m0=float(rng.uniform(0.0, 3.0)),     # infections conserve mass
            s0=lambda a: 1.0 if a < cut else 0.0,
            i0=lambda a: 0.1 if a < cut else 0.0,
        )
        traj = scen.simulate()
        assert np.all(np.abs(traj.N - traj.N[0]) <= 1e-12 * traj.N[0])

    report(3, "positivity and conservation",
           f"{n_general} random scenarios positive, "
           f"{n_conserving} zero-rate scenarios conserve N to 1e-12")


# ----------------------------------------------------------------------
# 4. Adjoint identity
# ----------------------------------------------------------------------

def _weighted_space(n_age):
    grid = ee.AgeGrid(a_max=10.0, n_age=n_age)
    a = grid.nodes
    return grid, ee.HilbertSpace(grid, mu_S=0.02 + 0.01 * a,
                                 mu_R=0.03 + 0.005 * a,
                                 gamma=np.full(n_age, 0.3),
                                 beta=np.full(n_age, 0.05))


def _compact_triple(grid, rng):
    a = grid.nodes / grid.a_max
    env = smooth_bump((a - 0.5) / 0.3)
    return tuple(env * sum(c * np.sin((k + 1) * np.pi * a)
                           for k, c in enumerate(rng.standard_normal(3)))
                 for _ in range(3))


def test_c4_adjoint_identity():
    rng = np.random.default_rng(7)
    grid, space = _weighted_space(64)
    worst = 0.0
    for _ in range(50):
        h = _compact_triple(grid, rng)
        p = _compact_triple(grid, rng)
        lhs = space.inner(space.apply_A(h), p)
        rhs = space.inner(h, space.apply_A_star(p))
        rel = abs(lhs - rhs) / (space.norm(h) * space.norm(p))
        worst = max(worst, rel)
        assert rel <= 5.0 * grid.da

    # refinement order for fixed smooth test functions
    coef_rng = np.random.default_rng(3)
    coefs = coef_rng.standard_normal((2, 3, 3))
    residuals, dts = [], []
    for n_age in (32, 64, 128):
        g, sp = _weighted_space(n_age)
        a = g.nodes / g.a_max
        env = smooth_bump((a - 0.5) / 0.3)

        def sample(rows):
            return tuple(env * sum(c * np.sin((k + 1) * np.pi * a)
                                   for k, c in enumerate(row)) for row in rows)

        h, p = sample(coefs[0]), sample(coefs[1])
        lhs = sp.inner(sp.apply_A(h), p)
        rhs = sp.inner(h, sp.apply_A_star(p))
        residuals.append(abs(lhs - rhs) / (sp.norm(h) * sp.norm(p)))
        dts.append(g.da)
    order = fit_order(dts, residuals)
    assert order >= 0.9
    report(4, "adjoint identity in the weighted space",
           f"max rel residual {worst:.2e} <= 5*da = {5 * grid.da:.2e}, "
           f"order {order:.2f}")


# ----------------------------------------------------------------------
# 5. Chain-rule / fundamental-identity residual
# ----------------------------------------------------------------------

def test_c5_chain_rule_residual_order():
    n_policies = 20
    worst_order = np.inf
    for v_kind in ("linear", "quadratic"):
        for seed in range(n_policies):
            errs = [abs(residual_for(n, v_kind, seed)) for n in (16, 32, 64)]
            dts = [8.0 / n for n in (16, 32, 64)]
            order = fit_order(dts, errs)
            worst_order = min(worst_order, order)
            assert order >= 0.9
    report(5, "chain-rule identity residual is O(dt)",
           f"20 random policies x linear/quadratic, worst order {worst_order:.2f}")


# ----------------------------------------------------------------------
# 6. Hamiltonian gap certificate
# ----------------------------------------------------------------------

def test_c6_hamiltonian_gap_certificate():
    scen = verification_scenario(n_age=16, horizon=3.0)
    v = ee.LinearValue(scen.space, interior_triple(scen.age_grid), q=0.4)

    greedy_policy, greedy_traj = ee.greedy_policy(v, scen)
    gaps_greedy = ee.hamiltonian_gap_profile(v, greedy_policy, greedy_traj, scen)

    rng = np.random.default_rng(99)
    random_policy = random_block_policy(scen, rng, n_time_blocks=3,
                                        n_age_blocks=2, c_range=(0.0, 0.3))
    random_traj = scen.simulate(random_policy)
    gaps_random = ee.hamiltonian_gap_profile(v, random_policy, random_traj, scen)

    preset_traj = scen.simulate()
    gaps_preset = ee.hamiltonian_gap_profile(v, scen.policy, preset_traj, scen)

    for gaps in (gaps_greedy, gaps_random, gaps_preset):
        assert np.all(gaps >= -1e-10)

    int_greedy = ee.integrated_gap(gaps_greedy, greedy_traj, scen.obj)
    int_random = ee.integrated_gap(gaps_random, random_traj, scen.obj)
    assert int_random > 0.0
    assert int_greedy <= 1e-8 * int_random
    report(6, "Hamiltonian gap certificate",
           f"greedy integrated gap {int_greedy:.2e} <= 1e-8 x random "
           f"({int_random:.3e})")


# ----------------------------------------------------------------------
# 7. Optimizer sanity on the concave toy
# ----------------------------------------------------------------------

def test_c7_optimizer_foc_toy():
    weight = 0.5
    scen = foc_toy_scenario(weight_j4=weight, c_start=0.5)
    cfg = ee.OptimizerConfig(initial_step=50.0, max_iters=60, tol=1e-12,
                             fd_eps_c=1e-6, seed=0)
    report_a = ee.optimize(scen, cfg)
    report_b = ee.optimize(scen, cfg)

    c_star = foc_toy_optimum(scen, weight)
    assert 0.0 < c_star < scen.search.c_max
    rel = abs(report_a.blocks[0, 0, 0] - c_star) / c_star
    assert rel <= 1e-3
    trace = np.asarray(report_a.objective_trace)
    assert np.all(np.diff(trace) > 0.0)
    assert report_a.objective_trace == report_b.objective_trace
    assert np.array_equal(report_a.blocks, report_b.blocks)
    report(7, "optimizer recovers the analytic first-order condition",
           f"c* rel err {rel:.2e}, monotone trace, bitwise reproducible")


# ----------------------------------------------------------------------
# 8. Budget identity
# ----------------------------------------------------------------------

def test_c8_budget_identity():
    rng = np.random.default_rng(11)
    scenarios = [
        verification_scenario(n_age=16, horizon=4.0),
        sir_scenario(n_age=64),
        foc_toy_scenario(),
        build_scenario(n_age=16, n_steps=12, mu_i=0.1, gamma=0.4, beta=0.04,
                       m0=2.0, xi=0.3, i0=0.05, psi=1.0,
                       production=ee.CESProduction(scale=2.0, omega=0.4,
                                                   substitution=-0.5),
                       congestion=ee.ConcavePowerCongestion(d1=0.3, p=0.7),
                       K0=80.0, c_level=0.1),
    ]
    checked = 0
    for scen in scenarios:
        policy = random_block_policy(scen, rng, n_time_blocks=1, n_age_blocks=1,
                                     c_range=(0.0, 0.1))
        for pol in (scen.policy, policy):
            traj = scen.simulate(pol)
            dt = scen.time_grid.dt
            for k in range(scen.time_grid.n_steps):
                lhs = dt * (traj.Y[k] - traj.C[k] - traj.D_cost[k]
                            - scen.econ.delta * traj.K[k])
                rhs = traj.K[k + 1] - traj.K[k]
                scale = max(abs(traj.K[k]), abs(traj.K[k + 1]), 1.0)
                assert abs(lhs - rhs) <= 1e-12 * scale
                checked += 1
    report(8, "closed-economy budget identity per step",
           f"{checked} steps across {len(scenarios)} scenarios at 1e-12")


# ----------------------------------------------------------------------
# 9. Gradient validity
# ----------------------------------------------------------------------

def test_c9_gradient_validity():
    scen = foc_toy_scenario()
    blocks = ee.block_means(scen.policy, 1, 1)
    eps = 1e-5
    central = ee.fd_gradient(blocks, scen,
                             ee.OptimizerConfig(grad_mode="central",
                                                fd_eps_c=eps, fd_eps_theta=eps,
                                                fd_eps_eta=eps))[0]
    forward = ee.fd_gradient(blocks, scen,
                             ee.OptimizerConfig(grad_mode="forward",
                                                fd_eps_c=eps, fd_eps_theta=eps,
                                                fd_eps_eta=eps))[0]
    rel = abs(central[0, 0, 0] - forward[0, 0, 0]) / abs(central[0, 0, 0])
    assert rel <= 1e-3
    report(9, "central vs forward finite differences agree",
           f"rel discrepancy {rel:.2e} at eps = 1e-5")
