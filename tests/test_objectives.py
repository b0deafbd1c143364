import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epiecon as ee
from epiecon import objectives
from epiecon.economy import labor_supply
from epiecon.hilbert import components

from util import build_scenario


def static_population_scenario(n_steps, rho=0.05, nu=1.0, utility=None, **kw):
    """Uniform population held exactly stationary by replacement fertility.

    With beta = 1/a_max the birth inflow refills the first cell with the
    uniform density each step, so the profile is a fixed point of the aging
    shift and N is constant to machine precision.
    """
    a_max = kw.pop("a_max", 10.0)
    n_age = kw.pop("n_age", 20)
    return build_scenario(
        n_age=n_age, a_max=a_max, n_steps=n_steps,
        beta=1.0 / a_max, s0=1.0, i0=0.0, r0=0.0,
        rho=rho, nu=nu,
        utility=utility or ee.ShiftedCRRAUtility(u0=1.0, sigma=0.5, eps_c=0.0, w0=1.0),
        **kw,
    )


def test_static_population_is_stationary():
    scen = static_population_scenario(n_steps=30)
    traj = scen.simulate()
    assert np.all(np.abs(traj.N - traj.N[0]) <= 1e-12 * traj.N[0])


def node_reward(x, K, c_t, theta_t, scen):
    """Running reward of the scenario's target at state ``x``, as ``h1_evaluator``
    makes it: ``node_reward`` on the output F(K, L_theta)."""
    x = components(x)
    Y = scen.econ.F(K, labor_supply(x, theta_t, scen.econ, scen.age_grid.da))
    return objectives.node_reward(x, scen.epi, scen.obj)(c_t, theta_t, Y)


def reward(scen, c_t, theta_t, K=0.0):
    """Running reward of the scenario's target at its initial state."""
    return node_reward(scen.initial.as_triple(), K, c_t, theta_t, scen)


def test_u1_constant_utility_oracle():
    # u = u0 (CRRA part vanishes at c = 0 with eps_c = 0), nu = 1 -> u0 * N
    scen = static_population_scenario(n_steps=0)
    got = reward(scen, np.zeros(20), np.ones(20))
    assert got == pytest.approx(1.0 * scen.initial.total_population(), rel=1e-12)


def test_u1_zero_population():
    scen = build_scenario(s0=0.0, i0=0.0, r0=0.0, nu=1.0)
    assert reward(scen, np.zeros(16), np.ones(16)) == 0.0


def test_u1_separable_zero_case():
    scen = build_scenario(nu=0.0, utility=ee.SeparableUtility(b=2.0))
    got = reward(scen, np.zeros(16), np.zeros(16))
    assert got == pytest.approx(0.0, abs=1e-14)


def test_u3_examples():
    scen = build_scenario(mu_i=0.3, psi=0.0, i0=0.0, which="J6")
    assert reward(scen, np.zeros(16), np.ones(16)) == 0.0

    scen = build_scenario(mu_i=0.3, psi=0.0, i0=0.5, s0=0.0, which="J6")
    I = scen.initial.total_population()
    assert reward(scen, np.zeros(16), np.ones(16)) == pytest.approx(0.3 * I, rel=1e-12)

    # overload regime: Xi exactly at capacity with psi = 1 gives 1 + log 2
    xi_cap = 0.5 * 8.0  # i0 = 0.5 over a_max = 8 with xi = 1 -> Xi = 4
    scen = build_scenario(mu_i=0.3, psi=1.0, xi=1.0, xi_cap=4.0, smooth=1.0,
                          i0=0.5, s0=0.0, which="J6")
    I = scen.initial.total_population()
    expected = (1.0 + np.log(2.0)) * 0.3 * I
    assert reward(scen, np.zeros(16), np.ones(16)) == pytest.approx(expected, rel=1e-12)


def test_u2_composition():
    scen = build_scenario(production=ee.LinearProduction(a_k=0.1, a_l=2.0),
                          s0=1.0, r0=0.5, which="J2")
    theta = np.full(16, 0.5)
    L = ee.labor_supply(scen.initial.as_triple(), theta, scen.econ, scen.age_grid.da)
    assert reward(scen, np.zeros(16), theta, K=30.0) == pytest.approx(
        0.1 * 30.0 + 2.0 * L, rel=1e-12)


def test_j4_zero_dynamics_returns_K0():
    # balanced flows: F = delta K exactly, no consumption, no testing cost
    scen = build_scenario(n_steps=10, K0=42.0, delta=0.05,
                          production=ee.LinearProduction(a_k=0.05, a_l=0.0),
                          which="J4")
    rep = scen.evaluate()
    assert rep.value == 42.0
    assert rep.feasible


def test_j1_static_population_geometric_sum():
    # u = 1 and N constant: J1 = N0 * dt * (1 - e^{-rho T}) / (1 - e^{-rho dt}),
    # which tends to N0 / rho within the truncation tail
    rho = 0.05
    n_steps = 100
    scen = static_population_scenario(n_steps=n_steps, rho=rho, which="J1")
    rep = scen.evaluate()
    N0 = scen.initial.total_population()
    dt = scen.time_grid.dt
    T = scen.time_grid.t_end
    geometric = N0 * dt * (1.0 - np.exp(-rho * T)) / (1.0 - np.exp(-rho * dt))
    assert rep.value == pytest.approx(geometric, rel=1e-10)
    # left-endpoint sum approaches N0/rho from above as dt -> 0, T -> inf
    assert abs(rep.value - N0 / rho) <= N0 / rho * (rho * dt) + np.exp(-rho * T) * N0 / rho


def test_j1_truncation_tail_bound():
    rho = 0.1
    scen = static_population_scenario(n_steps=120, rho=rho, which="J1", T_num=30.0)
    scen2 = static_population_scenario(n_steps=120, rho=rho, which="J1", T_num=60.0)
    r1, r2 = scen.evaluate(), scen2.evaluate()
    assert abs(r2.value - r1.value) <= r1.tail_bound + 1e-12
    assert r1.tail_bound is not None


def test_j6_frozen_epidemic_decay_oracle():
    # gamma = 0, lambda = 0, constant mu_I: J6 -> I0 (1 - e^{-mu T}) as dt -> 0
    mu1 = 0.25
    horizon = 2.0

    def run(n_age):
        scen = build_scenario(
            n_age=n_age, a_max=8.0, n_steps=int(round(horizon * n_age / 8.0)),
            mu_i=mu1, gamma=0.0, psi=0.0, m0=0.0,
            s0=0.0, i0=lambda a: 1.0 if a < 4.0 else 0.0,
            which="J6",
        )
        return scen, scen.evaluate().value

    scen, coarse = run(32)
    I0 = scen.initial.total_population()
    closed_form = I0 * (1.0 - np.exp(-mu1 * horizon))
    _, fine = run(256)
    # fine-grid run approaches the closed form; coarse within O(dt)
    assert abs(fine - closed_form) < abs(coarse - closed_form)
    assert abs(fine - closed_form) / closed_form < 0.01
    # exact discrete oracle: left-endpoint geometric sum of the decaying flow
    dt = scen.time_grid.dt
    n = scen.time_grid.n_steps
    geometric = mu1 * I0 * dt * (1.0 - np.exp(-mu1 * n * dt)) / (1.0 - np.exp(-mu1 * dt))
    assert coarse == pytest.approx(geometric, rel=1e-10)


def test_j6_sign_and_discount_options():
    scen = build_scenario(n_steps=8, mu_i=0.3, i0=0.2, m0=0.0, which="J6")
    base = scen.evaluate().value
    assert base > 0.0

    flipped = ee.ObjectiveParams(rho=scen.obj.rho, nu=scen.obj.nu,
                                 utility=scen.obj.utility, which="J6", j6_sign=-1.0)
    scen_neg = ee.Scenario(**{**scen.__dict__, "obj": flipped})
    assert scen_neg.evaluate().value == pytest.approx(-base, rel=1e-14)

    discounted = ee.ObjectiveParams(rho=scen.obj.rho, nu=scen.obj.nu,
                                    utility=scen.obj.utility, which="J6",
                                    j6_discounted=True)
    scen_disc = ee.Scenario(**{**scen.__dict__, "obj": discounted})
    assert 0.0 < scen_disc.evaluate().value < base


def test_j5_equals_j2_on_scenario_horizon():
    scen = build_scenario(n_steps=12, production=ee.LinearProduction(a_k=0.02, a_l=1.0),
                          K0=50.0, which="J2")
    v2 = scen.evaluate().value
    scen5 = ee.Scenario(**{**scen.__dict__,
                           "obj": ee.ObjectiveParams(rho=scen.obj.rho, nu=scen.obj.nu,
                                                     utility=scen.obj.utility,
                                                     which="J5")})
    assert scen5.evaluate().value == pytest.approx(v2, rel=1e-14)


def test_composite_is_linear_in_weights():
    scen = build_scenario(n_steps=10, mu_i=0.2, i0=0.1, m0=1.0, gamma=0.3,
                          production=ee.LinearProduction(a_k=0.02, a_l=1.0), K0=50.0)
    traj = scen.simulate()

    def composite_value(wa, wb):
        obj = ee.ObjectiveParams(rho=scen.obj.rho, nu=scen.obj.nu,
                                 utility=scen.obj.utility,
                                 composite={"J5": wa, "J6": -wb})
        return ee.evaluate(traj, scen.policy, scen.epi, scen.econ, obj).value

    j5 = composite_value(1.0, 0.0)
    j6 = -composite_value(0.0, 1.0)
    for wa, wb in ((2.0, 3.0), (0.5, 10.0)):
        assert composite_value(wa, wb) == pytest.approx(wa * j5 - wb * j6, rel=1e-12)


def test_j_values_finite_and_positive_where_required():
    scen = build_scenario(n_steps=10, mu_i=0.2, i0=0.1, m0=1.0, gamma=0.3,
                          production=ee.LinearProduction(a_k=0.02, a_l=1.0),
                          K0=50.0, c_level=0.1)
    traj = scen.simulate()
    for which in ("J1", "J2", "J3", "J4", "J5", "J6"):
        obj = ee.ObjectiveParams(rho=0.05, nu=1.0, utility=ee.ShiftedCRRAUtility(),
                                 which=which)
        rep = ee.evaluate(traj, scen.policy, scen.epi, scen.econ, obj)
        assert np.isfinite(rep.value)
        if which in ("J1", "J6"):
            assert rep.value >= 0.0


def test_j1_monotone_in_utility():
    scen = build_scenario(n_steps=10, c_level=0.5)
    lo = ee.ObjectiveParams(rho=0.05, nu=1.0,
                            utility=ee.ShiftedCRRAUtility(u0=0.1), which="J1")
    hi = ee.ObjectiveParams(rho=0.05, nu=1.0,
                            utility=ee.ShiftedCRRAUtility(u0=0.4), which="J1")
    traj = scen.simulate()
    v_lo = ee.evaluate(traj, scen.policy, scen.epi, scen.econ, lo).value
    v_hi = ee.evaluate(traj, scen.policy, scen.epi, scen.econ, hi).value
    assert v_hi > v_lo


def test_infeasible_run_reports_violation():
    scen = build_scenario(n_steps=6, K0=0.5, c_level=2.0, which="J4")
    rep = scen.evaluate()
    assert not rep.feasible
    assert rep.violation > 0.0


def test_objective_params_reject_negative_truncation():
    # a negative T_num would make evaluate sum the reward rows from the end
    with pytest.raises(ee.ConfigurationError, match="T_num"):
        ee.ObjectiveParams(rho=0.1, nu=1.0, utility=ee.ShiftedCRRAUtility(), T_num=-1.0)
    for t_num in (None, 0.0, 2.5):
        assert ee.ObjectiveParams(rho=0.1, nu=1.0, utility=ee.ShiftedCRRAUtility(),
                                  T_num=t_num).T_num == t_num


def test_objective_params_reject_empty_composite():
    # an empty composite would evaluate to 0.0 under the name of ``which``
    with pytest.raises(ee.ConfigurationError, match="at least one"):
        ee.ObjectiveParams(rho=0.1, nu=1.0, utility=ee.ShiftedCRRAUtility(), composite={})
    obj = ee.ObjectiveParams(rho=0.1, nu=1.0, utility=ee.ShiftedCRRAUtility(),
                             composite={"J6": 0.0})
    assert obj.target_weights() == {"J6": 0.0}


def test_utility_validation():
    with pytest.raises(ee.ConfigurationError):
        ee.ShiftedCRRAUtility(sigma=1.5)
    with pytest.raises(ee.ConfigurationError):
        ee.SeparableUtility(b=-1.0)
    with pytest.raises(ee.ConfigurationError):
        ee.ObjectiveParams(rho=-0.1, nu=1.0, utility=ee.ShiftedCRRAUtility())
    with pytest.raises(ee.ConfigurationError):
        ee.ObjectiveParams(rho=0.1, nu=1.0, utility=ee.ShiftedCRRAUtility(),
                           composite={"J1": -1.0})


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(0, 5),
       target=st.sampled_from(["J6", "composite"]), nu=st.sampled_from([0.0, 0.5, 1.0]))
def test_running_reward_stack_rows_equal_single_node_calls(seed, n_nodes, target, nu):
    # a (n_nodes, 3, n_age) stack with one K and one control slice per node gives
    # each node's reward bit for bit, the J6 deaths flow with the overload on
    rng = np.random.default_rng(seed)
    composite = ({"J1": float(rng.uniform(0.0, 2.0)), "J2": float(rng.uniform(-1.0, 1.0)),
                  "J6": float(rng.uniform(-5.0, 5.0))} if target == "composite" else None)
    scen = build_scenario(mu_i=0.2, xi=lambda a: 0.05 * a, psi=1.5, xi_cap=0.5, smooth=0.1,
                          nu=nu, which="J6", composite=composite,
                          production=ee.LinearProduction(a_k=0.04, a_l=1.0))
    X = rng.uniform(0.0, 2.0, (n_nodes, 3, 16))
    K = rng.uniform(0.0, 50.0, n_nodes)
    c, theta = rng.uniform(0.0, 1.0, (2, n_nodes, 16))
    got = node_reward(X, K, c, theta, scen)
    want = np.array([node_reward(X[k], float(K[k]), c[k], theta[k], scen)
                     for k in range(n_nodes)])
    assert got.shape == (n_nodes,)
    assert got.tobytes() == want.tobytes()
