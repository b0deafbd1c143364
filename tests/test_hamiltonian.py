import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import epiecon as ee
from epiecon import config as cfgmod, epi, hamiltonian, objectives
from epiecon.hamiltonian import _costate_at, _optimal_c

from util import build_scenario, fit_order, smooth_bump


def verification_scenario(n_age=16, horizon=4.0, a_max=8.0, **kw):
    """Generic feasible scenario with epidemic, economy, and births active."""
    defaults = dict(
        n_age=n_age, a_max=a_max,
        n_steps=int(round(horizon * n_age / a_max)),
        mu_s=lambda a: 0.02 + 0.004 * a,
        mu_r=lambda a: 0.02 + 0.004 * a,
        mu_i=0.15, gamma=0.5, beta=0.05, xi=0.2, m0=1.8,
        psi=0.8, xi_cap=50.0, smooth=10.0,
        s0=lambda a: 1.0 + 0.3 * np.sin(0.8 * a), i0=0.02,
        production=ee.LinearProduction(a_k=0.04, a_l=1.0),
        congestion=ee.LinearCongestion(d1=0.1),
        K0=100.0, c_level=0.1, rho=0.08, nu=1.0, which="J1",
        utility=ee.ShiftedCRRAUtility(u0=0.2, sigma=0.5, eps_c=0.05, w0=0.6),
        theta_levels=(0.0, 0.25, 0.5, 0.75, 1.0), eta_levels=(0.0, 0.5, 1.0),
        search_blocks=2, c_max=5.0,
    )
    defaults.update(kw)
    return build_scenario(**defaults)


def interior_triple(grid, scales=(1.0, 1.0, 1.0)):
    """Smooth weight fields vanishing near both age boundaries."""
    a = grid.nodes / grid.a_max
    env = smooth_bump((a - 0.5) / 0.35)
    return tuple(s * env * (1.0 + 0.4 * np.sin((k + 1) * 2.0 * a))
                 for k, s in enumerate(scales))


def make_costate(scen, seed=0, scale=1.0, Q=0.5):
    rng = np.random.default_rng(seed)
    n = scen.age_grid.n_age
    return ee.CostateField(p1=scale * rng.standard_normal(n),
                           p2=scale * rng.standard_normal(n),
                           p3=scale * rng.standard_normal(n), Q=Q)


# ----------------------------------------------------------------------
# H0 and the decomposition
# ----------------------------------------------------------------------

def test_h0_zero_costate():
    scen = verification_scenario()
    zero = ee.CostateField(*(np.zeros(16) for _ in range(3)), Q=0.0)
    assert ee.h0_part(scen.initial.as_triple(), 10.0, zero, scen) == 0.0


def test_h0_pure_capital_term():
    scen = verification_scenario(delta=0.05)
    zero_state = np.zeros((3, 16))
    costate = ee.CostateField(*(np.zeros(16) for _ in range(3)), Q=2.0)
    got = ee.h0_part(zero_state, 1.0, costate, scen)
    assert got == pytest.approx(-0.1, rel=1e-12)


def test_h0_matches_displayed_terms():
    # oracle: the five displayed terms assembled with explicit stencils
    scen = verification_scenario()
    space = scen.space
    grid = scen.age_grid
    da = grid.da
    state = scen.initial.as_triple()
    K = 80.0
    costate = make_costate(scen, seed=3, Q=0.7)
    s, i, r = state
    p1, p2, p3 = costate.p1, costate.p2, costate.p3

    def dda(p):
        return (np.concatenate((p[1:], [0.0])) - p) / da

    term1 = da * (s * (dda(p1) + space.mu_S * p1) / space.pi_S**2).sum()
    term2 = da * (i * (dda(p2) - space.gamma * p2
                       + space.gamma * p3 / space.pi_R**2)).sum()
    term3 = da * (r * (dda(p3) + space.mu_R * p3) / space.pi_R**2).sum()
    Xi = da * (i * scen.epi.xi).sum()
    mu_i = ee.infection_mortality(scen.epi, Xi)
    term5 = -da * (mu_i * i * p2).sum()
    oracle = term1 + term2 + term3 - scen.econ.delta * K * costate.Q + term5

    got = ee.h0_part(state, K, costate, scen)
    assert got == pytest.approx(oracle, rel=1e-12)


def test_hamiltonian_decomposition():
    # independent full evaluation: <h, A* p> + <B^z(h), p> + drift*Q + U
    scen = verification_scenario()
    x = np.stack(scen.initial.as_triple())
    s, i, _ = x
    K = 60.0
    costate = make_costate(scen, seed=5, Q=0.4)
    rng = np.random.default_rng(6)
    space = scen.space
    da = scen.age_grid.da
    n = x.sum(axis=0)
    N = da * n.sum()
    m = scen.epi.m.m0 * np.outer(scen.epi.m.g, scen.epi.m.g)
    for _ in range(10):
        c_t = rng.uniform(0.0, 1.0, 16)
        th_t = rng.uniform(0.0, 1.0, 16)
        et_t = rng.uniform(0.0, 1.0, 16)
        total = (ee.h0_part(x, K, costate, scen)
                 + ee.h1_part(x, K, costate, c_t, th_t, et_t, scen))

        astar = space.apply_A_star(costate.triple())
        lam = th_t * da * (m @ (th_t * et_t * i)) / N
        lam_s = lam * s
        Xi = da * (i * scen.epi.xi).sum()
        mu_i = ee.infection_mortality(scen.epi, Xi)
        b_pair = (-da * (lam_s * costate.p1 / space.pi_S**2).sum()
                  + da * ((lam_s - mu_i * i) * costate.p2).sum())
        L = da * ((x[0] + x[2]) * scen.econ.alpha * scen.econ.phi(th_t)).sum()
        D = scen.econ.D(da * (et_t * i * scen.econ.e).sum())
        drift = (scen.econ.F(K, L) - da * (c_t * n).sum() - D - scen.econ.delta * K)
        U = da * (n ** scen.obj.nu * scen.obj.utility(c_t, th_t)).sum()  # J1
        oracle = space.inner(x, astar) + b_pair + drift * costate.Q + U
        assert total == pytest.approx(oracle, rel=1e-11)


# ----------------------------------------------------------------------
# H1 and its maximization
# ----------------------------------------------------------------------

def test_maximize_h1_argmax_dominates_baseline():
    scen = verification_scenario(i0=0.05)
    x = scen.initial.as_triple()
    costate = make_costate(scen, seed=21, scale=0.2, Q=0.6)
    c_t = np.full(16, 0.2)
    th_t = np.full(16, 0.5)
    et_t = np.full(16, 0.5)
    res = ee.maximize_h1(x, 40.0, costate, scen, baseline=(c_t, th_t, et_t))
    best = ee.h1_part(x, 40.0, costate, res.c, res.theta, res.eta, scen)
    assert best == res.value
    assert best >= ee.h1_part(x, 40.0, costate, c_t, th_t, et_t, scen) - 1e-10


def test_h1_zero_case():
    scen = verification_scenario(congestion=ee.LinearCongestion(d1=0.0),
                                 production=ee.LinearProduction(a_k=0.0, a_l=0.0))
    zero = ee.CostateField(*(np.zeros(16) for _ in range(3)), Q=0.0)
    null_utility = ee.ObjectiveParams(rho=0.08, nu=1.0,
                                      utility=ee.ShiftedCRRAUtility(u0=0.0, eps_c=0.0),
                                      which="J4")  # terminal target: zero running reward
    got = ee.h1_part(scen.initial.as_triple(), 10.0, zero, np.zeros(16), np.ones(16),
                     np.ones(16), dataclasses.replace(scen, obj=null_utility))
    assert got == 0.0


def test_h1_decreasing_in_eta_argmax_zero():
    # p = 0, Q > 0, linear congestion, utility eta-free: eta* = 0
    scen = verification_scenario(congestion=ee.LinearCongestion(d1=0.5), i0=0.1)
    costate = ee.CostateField(*(np.zeros(16) for _ in range(3)), Q=1.0)
    c_t = np.full(16, 0.2)
    th_t = np.ones(16)
    vals = []
    for level in np.linspace(0.0, 1.0, 11):
        vals.append(ee.h1_part(scen.initial.as_triple(), 10.0, costate, c_t, th_t,
                               np.full(16, level), scen))
    assert np.all(np.diff(vals) < 0.0)
    search = ee.ControlSearchGrid(theta_levels=(1.0,),
                                  eta_levels=tuple(np.linspace(0.0, 1.0, 11)),
                                  n_age_blocks=1, c_max=5.0)
    res = ee.maximize_h1(scen.initial.as_triple(), 10.0, costate,
                         dataclasses.replace(scen, search=search))
    assert np.all(res.eta == 0.0)


def test_consumption_foc_against_golden_section():
    scen = verification_scenario()
    state = scen.initial.as_triple()
    n = sum(state)
    da = scen.age_grid.da
    obj = scen.obj
    theta = np.full(16, 0.7)
    for Q in (0.05, 0.5, 3.0):
        costate = ee.CostateField(*(np.zeros(16) for _ in range(3)), Q=Q)
        search = ee.ControlSearchGrid(theta_levels=(0.7,), eta_levels=(1.0,),
                                      n_age_blocks=1, c_max=5.0)
        res = ee.maximize_h1(state, 10.0, costate, dataclasses.replace(scen, search=search))
        for j in range(16):
            def neg_cell_value(c):
                return -(-c * n[j] * Q + n[j] ** obj.nu * obj.utility(c, 0.7))
            gold = minimize_scalar(neg_cell_value, bounds=(0.0, 5.0),
                                   method="bounded",
                                   options={"xatol": 1e-10}).x
            assert res.c[j] == pytest.approx(gold, abs=1e-6)


def test_maximize_no_epidemic_opens_up():
    # i = 0: force and congestion vanish; Q > 0 and utility increasing in theta
    scen = verification_scenario(i0=0.0)
    costate = ee.CostateField(*(np.zeros(16) for _ in range(3)), Q=0.5)
    res = ee.maximize_h1(scen.initial.as_triple(), 50.0, costate, scen)
    assert np.all(res.theta == 1.0)


def test_maximize_positive_infection_value_opens_up():
    # Q = 0, p1 = 0, p2 > 0: transmission term rewards contact, so theta = eta = 1
    scen = verification_scenario(i0=0.1)
    costate = ee.CostateField(p1=np.zeros(16), p2=np.full(16, 2.0),
                              p3=np.zeros(16), Q=0.0)
    null_obj = ee.ObjectiveParams(rho=0.08, nu=1.0,
                                  utility=ee.ShiftedCRRAUtility(), which="J4")
    res = ee.maximize_h1(scen.initial.as_triple(), 50.0, costate,
                         dataclasses.replace(scen, obj=null_obj))
    assert np.all(res.theta == 1.0)
    assert np.all(res.eta == 1.0)


def test_maximize_single_block_matches_exhaustive():
    scen = verification_scenario(i0=0.05)
    state = scen.initial.as_triple()
    K = 70.0
    costate = make_costate(scen, seed=11, scale=0.3, Q=0.6)
    levels = (0.0, 0.5, 1.0)
    search = ee.ControlSearchGrid(theta_levels=levels, eta_levels=levels,
                                  n_age_blocks=1, c_max=5.0)
    res = ee.maximize_h1(state, K, costate, dataclasses.replace(scen, search=search))

    best_val, best_pair = -np.inf, None
    n = sum(scen.initial.as_triple())
    for th in levels:
        for et in levels:
            th_t = np.full(16, th)
            et_t = np.full(16, et)
            c_t = scen.obj.utility.optimal_c(n, costate.Q, th_t, scen.obj.nu, 5.0)
            val = ee.h1_part(state, K, costate, c_t, th_t, et_t, scen)
            if val > best_val:
                best_val, best_pair = val, (th, et)
    assert res.value == pytest.approx(best_val, rel=1e-12)
    assert (res.theta[0], res.eta[0]) == best_pair


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_age=st.sampled_from([8, 12, 16]),
       table=st.booleans(), composite=st.booleans(), blocks=st.sampled_from([1, 2, 4]))
def test_maximize_h1_value_is_h1_at_argmax(seed, n_age, table, composite, blocks):
    # one evaluator serves the search and h1_part: the reported value is H1 at the argmax
    rng = np.random.default_rng(seed)
    g = rng.uniform(0.1, 2.0, n_age)
    m0 = float(rng.uniform(0.0, 3.0))
    kernel = m0 * np.outer(g, rng.uniform(0.1, 2.0, n_age)) if table \
        else ee.RankOneKernel(m0, g)
    weights = {"J1": float(rng.uniform(0.0, 2.0)), "J2": float(rng.uniform(-1.0, 1.0)),
               "J6": float(rng.uniform(-5.0, 5.0))} if composite else None
    scen = verification_scenario(n_age=n_age, kernel=kernel, i0=0.05, composite=weights,
                                 search_blocks=blocks)
    x = np.stack(scen.initial.as_triple())
    K = float(rng.uniform(1.0, 100.0))
    costate = ee.CostateField(*(rng.standard_normal((3, n_age))),
                              Q=float(rng.uniform(-1.0, 1.0)))
    baseline = (rng.uniform(0.0, 1.0, n_age), rng.uniform(0.0, 1.0, n_age),
                rng.uniform(0.0, 1.0, n_age))
    res = ee.maximize_h1(x, K, costate, scen, baseline=baseline)
    assert res.value == ee.h1_part(x, K, costate, res.c, res.theta, res.eta, scen)


PRODUCTIONS = {
    "linear": lambda: ee.LinearProduction(a_k=0.04, a_l=1.0),
    "ces_complements": lambda: ee.CESProduction(scale=1.5, omega=0.4, substitution=-1.5),
    "ces_capped": lambda: ee.CESProduction(scale=1.5, omega=0.4, substitution=0.5,
                                           mpk_cap=0.3),
    "cobb_douglas": lambda: ee.CobbDouglasProduction(scale=1.2, omega=0.35),
}
CONGESTIONS = {
    "linear": lambda: ee.LinearCongestion(d1=0.3),
    "concave": lambda: ee.ConcavePowerCongestion(d1=0.3, p=0.6),
}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_age=st.sampled_from([8, 16, 40, 80]),
       table=st.booleans(), production=st.sampled_from(sorted(PRODUCTIONS)),
       congestion=st.sampled_from(sorted(CONGESTIONS)), cost_complement=st.booleans(),
       targets=st.sets(st.sampled_from(["J1", "J2", "J5", "J6"]), min_size=1),
       stacked=st.sampled_from(["theta", "eta", "both"]), n_rows=st.integers(1, 5))
def test_h1_stack_rows_equal_h1_part_exactly(seed, n_age, table, production, congestion,
                                            cost_complement, targets, stacked, n_rows):
    # each row of a (L, n_age) stack is H1 at that slice alone, bit for bit
    rng = np.random.default_rng(seed)
    g = rng.uniform(0.1, 2.0, n_age)
    m0 = float(rng.uniform(0.0, 3.0))
    kernel = m0 * np.outer(g, rng.uniform(0.1, 2.0, n_age)) if table \
        else ee.RankOneKernel(m0, g)
    weights = {t: float(rng.uniform(0.0 if t == "J1" else -5.0, 5.0)) for t in targets}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # Cobb-Douglas warns that it is not Lipschitz
        F = PRODUCTIONS[production]()
    scen = verification_scenario(n_age=n_age, kernel=kernel, composite=weights,
                                 production=F, congestion=CONGESTIONS[congestion](),
                                 phi=ee.PowerLockdown(q=float(rng.uniform(0.5, 2.0))))
    scen = dataclasses.replace(
        scen, econ=dataclasses.replace(scen.econ, cost_complement=cost_complement))
    x = rng.uniform(0.0, 2.0, (3, n_age))
    K = float(rng.uniform(0.0, 100.0))
    # infection terms of any size against the rest, so a 1-ulp slip in them shows
    costate = ee.CostateField(*(10.0 ** rng.uniform(-2.0, 3.0)
                                * rng.standard_normal((3, n_age))),
                              Q=float(rng.uniform(-1.0, 1.0)))
    c = rng.uniform(0.0, 2.0, n_age)
    theta, eta = rng.uniform(0.0, 1.0, (2, n_age))
    th_rows = rng.uniform(0.0, 1.0, (n_rows, n_age)) if stacked != "eta" else None
    et_rows = rng.uniform(0.0, 1.0, (n_rows, n_age)) if stacked != "theta" else None

    vals = ee.h1_evaluator(x, K, costate, scen)(
        c, theta if th_rows is None else th_rows, eta if et_rows is None else et_rows)
    assert vals.shape == (n_rows,)
    for row in range(n_rows):
        one = ee.h1_part(x, K, costate, c, theta if th_rows is None else th_rows[row],
                         eta if et_rows is None else et_rows[row], scen)
        assert vals[row] == one


def termwise_h1(x, K, p1, p2, Q, c, theta, eta, scen, reward):
    """Reference for one node and one slice: each term of H1 computed afresh on
    (n_age,) arrays and added in the order of the formula."""
    s, i, r = x
    params, econ, da = scen.epi, scen.econ, scen.age_grid.da
    lam_s = ee.force_of_infection(i, da * (s + i + r).sum(), theta, eta, params.m, da) * s
    val = -(da * (lam_s * p1 * scen.space.w1).sum())
    val += da * (lam_s * p2).sum()
    Y = econ.F(K, ee.labor_supply(x, theta, econ, da))
    val += Y * Q
    val -= ee.consumption_total(x, c, da) * Q
    val -= ee.testing_cost(x, eta, econ, da) * Q
    return val + objectives.node_reward(x, params, scen.obj)(c, theta, Y) if reward else val


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_age=st.sampled_from([8, 16, 40, 80]),
       n_nodes=st.integers(1, 4), table=st.booleans(),
       production=st.sampled_from(sorted(PRODUCTIONS)),
       congestion=st.sampled_from(sorted(CONGESTIONS)), cost_complement=st.booleans(),
       target=st.sampled_from(["J1", "J2", "J5", "J6", "composite"]), reward=st.booleans(),
       shared_p=st.booleans(), n_rows=st.integers(1, 5))
def test_scan_passes_equal_termwise_h1_exactly(seed, n_age, n_nodes, table, production,
                                               congestion, cost_complement, target, reward,
                                               shared_p, n_rows):
    # the exact scores of a search pass, a theta stack with eta held or an eta
    # stack with theta held: each equals H1 at that node and slice computed
    # afresh, bit for bit
    rng = np.random.default_rng(seed)
    g = rng.uniform(0.1, 2.0, n_age)
    m0 = float(rng.uniform(0.0, 3.0))
    kernel = m0 * np.outer(g, rng.uniform(0.1, 2.0, n_age)) if table \
        else ee.RankOneKernel(m0, g)
    weights = ({t: float(rng.uniform(0.0 if t == "J1" else -5.0, 5.0))
                for t in ("J1", "J2", "J5", "J6")} if target == "composite" else None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # Cobb-Douglas warns that it is not Lipschitz
        F = PRODUCTIONS[production]()
    scen = verification_scenario(n_age=n_age, kernel=kernel, composite=weights,
                                 which="J1" if weights else target,
                                 production=F, congestion=CONGESTIONS[congestion](),
                                 phi=ee.PowerLockdown(q=float(rng.uniform(0.5, 2.0))))
    scen = dataclasses.replace(
        scen, econ=dataclasses.replace(scen.econ, cost_complement=cost_complement))
    x = rng.uniform(0.0, 2.0, (n_nodes, 3, n_age))
    K = rng.uniform(0.0, 100.0, n_nodes)
    Q = rng.uniform(-1.0, 1.0, n_nodes)
    # infection terms of any size against the rest, so a 1-ulp slip in them shows
    p1, p2 = 10.0 ** rng.uniform(-2.0, 3.0) * rng.standard_normal(
        (2, n_age) if shared_p else (2, n_nodes, n_age))
    costate = ee.CostateField(p1, p2, np.zeros(n_age), Q=Q)
    c = rng.uniform(0.0, 2.0, (n_nodes, n_age))
    theta, eta = rng.uniform(0.0, 1.0, (2, n_nodes, n_age))
    stack = rng.uniform(0.0, 1.0, (n_nodes, n_rows, n_age))

    h1 = ee.h1_evaluator(x, K, costate, scen, reward=reward)
    th_scores, et_scores = h1(c, stack, eta), h1(c, theta, stack)
    assert th_scores.shape == et_scores.shape == (n_nodes, n_rows)
    for k in range(n_nodes):
        pk = (p1, p2) if shared_p else (p1[k], p2[k])
        for row in range(n_rows):
            want = [termwise_h1(x[k], K[k], *pk, Q[k], c[k], th, et, scen, reward)
                    for th, et in ((stack[k, row], eta[k]), (theta[k], stack[k, row]))]
            assert np.array([th_scores[k, row], et_scores[k, row]]).tobytes() \
                == np.array(want).tobytes()


def looped_maximize_h1(x, K, costate, scen, baseline):
    """Reference for maximize_h1: the same sweep, scoring one level per H1 call."""
    search, obj = scen.search, scen.obj
    n_age = scen.age_grid.n_age
    bs = n_age // search.n_age_blocks
    th_levels = np.asarray(search.theta_levels, dtype=np.float64)
    et_levels = np.asarray(search.eta_levels, dtype=np.float64)
    n = x[0] + x[1] + x[2]
    h1 = ee.h1_evaluator(x, K, costate, scen)

    def optimal_c(theta):
        return _optimal_c(n, costate.Q, theta, obj, search.c_max)

    def ascend(start):
        theta = np.repeat(th_levels[start(th_levels)], n_age)
        eta = np.repeat(et_levels[start(et_levels)], n_age)
        c = optimal_c(theta)
        best = h1(c, theta, eta)
        for _ in range(search.max_sweeps):
            changed = False
            for levels, ctrl in ((th_levels, theta), (et_levels, eta)):
                for lo in range(0, n_age, bs):
                    current = ctrl[lo]
                    vals = []
                    for lev in levels:
                        ctrl[lo:lo + bs] = lev
                        vals.append(h1(c, theta, eta))
                    ctrl[lo:lo + bs] = levels[int(np.argmax(vals))]
                    changed |= bool(ctrl[lo] != current)
            c_new = optimal_c(theta)
            c_shift = float(np.max(np.abs(c_new - c)))
            c = c_new
            best = h1(c, theta, eta)
            if not changed and c_shift <= 1e-12 * (1.0 + float(np.max(np.abs(c)))):
                break
        return best, c, theta, eta

    best = ascend(lambda levels: len(levels) - 1)
    alt = ascend(lambda levels: 0)
    if alt[0] > best[0]:
        best = alt
    c_b = optimal_c(baseline[1])
    val_b = h1(c_b, baseline[1], baseline[2])
    return (val_b, c_b, *baseline[1:]) if val_b > best[0] else best


LEVELS = (0.0, 0.1, 0.25, 0.4, 0.5, 0.75, 0.9, 1.0)


@st.composite
def search_cases(draw):
    """A node stack to search and its problem, drawn over the forms H1 takes: the
    utilities, productions, lockdown and congestion forms, targets, signs of Q, age
    blocks without infected cells, theta = 0 with d1 = 0 (eta then has no effect,
    a tie) and level lists with duplicates in any order.  Returns the scenario and
    the stack (x, K, costate, baseline)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_age, blocks = draw(st.sampled_from([8, 16, 40])), draw(st.sampled_from([1, 2, 4, 8]))
    n_nodes = draw(st.integers(1, 3))
    g = rng.uniform(0.1, 2.0, n_age)
    m0 = float(rng.uniform(0.0, 3.0))
    kernel = m0 * np.outer(g, rng.uniform(0.1, 2.0, n_age)) if draw(st.booleans()) \
        else ee.RankOneKernel(m0, g)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # Cobb-Douglas warns that it is not Lipschitz
        F = PRODUCTIONS[draw(st.sampled_from(sorted(PRODUCTIONS)))]()
    phi = draw(st.sampled_from([ee.PowerLockdown(q=0.6), ee.PowerLockdown(q=1.7),
                                ee.AffineLockdown(ell=0.7)]))
    D = draw(st.sampled_from([ee.LinearCongestion(d1=0.0), ee.LinearCongestion(d1=0.1),
                              ee.ConcavePowerCongestion(d1=0.2, p=0.6)]))
    utility = draw(st.sampled_from([ee.ShiftedCRRAUtility(u0=0.2, sigma=0.5, eps_c=0.05,
                                                          w0=0.6),
                                    ee.SeparableUtility(b=0.7)]))
    target = draw(st.sampled_from(["J1", "J2", "J6", "composite"]))
    composite = {"J1": 0.8, "J5": 1.3, "J6": -4.0} if target == "composite" else None
    levels = [tuple(draw(st.lists(st.sampled_from(LEVELS), min_size=1, max_size=6)))
              for _ in range(2)]
    scen = verification_scenario(n_age=n_age, kernel=kernel, i0=0.05, production=F, phi=phi,
                                 congestion=D, utility=utility, composite=composite,
                                 which="J1" if composite else target, search_blocks=blocks,
                                 theta_levels=levels[0], eta_levels=levels[1])
    scen = dataclasses.replace(
        scen, econ=dataclasses.replace(scen.econ, cost_complement=draw(st.booleans())),
        search=dataclasses.replace(scen.search, max_sweeps=draw(st.sampled_from([1, 2, 30]))))
    x = np.stack(scen.initial.as_triple()) * rng.uniform(0.5, 1.5, (n_nodes, 3, 1))
    idle = rng.random((n_nodes, blocks)) < 0.4  # blocks without infected cells
    x[:, 1] *= ~np.repeat(idle, n_age // blocks, axis=1)
    K = rng.uniform(1.0, 100.0, n_nodes)
    Q = 10.0 ** rng.uniform(-1.5, 1.5, n_nodes) * rng.choice([-1.0, 0.0, 1.0], n_nodes)
    # infection terms of any size against the rest
    p1, p2, p3 = 10.0 ** rng.uniform(-3.0, 2.0) * rng.standard_normal((3, n_nodes, n_age))
    baseline = rng.uniform(0.0, 1.0, (3, n_nodes, n_age))
    return scen, (x, K, ee.CostateField(p1, p2, p3, Q=Q), baseline)


def search(scen, case, margin=None):
    """maximize_h1 on a drawn stack under a certified ``_MARGIN`` (None: the module's)."""
    saved = hamiltonian._MARGIN
    try:
        hamiltonian._MARGIN = saved if margin is None else margin
        return ee.maximize_h1(*case[:3], scen, baseline=case[3])
    finally:
        hamiltonian._MARGIN = saved


@settings(max_examples=150, deadline=None)
@given(drawn=search_cases())
def test_maximize_h1_equals_looped_reference(drawn):
    # each node gets the result of the same sweep order, starts, baseline and
    # lowest-index tie rule with one exact H1 call per level, bit for bit; a
    # sweep cut short shows the order of the blocks
    scen, case = drawn
    res = search(scen, case)
    x, K, costate, baseline = case
    for k in range(len(x)):
        one = ee.CostateField(costate.p1[k], costate.p2[k], costate.p3[k], Q=costate.Q[k])
        val, c, theta, eta = looped_maximize_h1(x[k], K[k], one, scen, baseline[:, k])
        assert res.value[k].tobytes() == np.float64(val).tobytes()
        for got, want in ((res.c, c), (res.theta, theta), (res.eta, eta)):
            assert got[k].tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(drawn=search_cases())
def test_maximize_h1_with_every_pick_exact_is_unchanged(drawn):
    # an infinite margin certifies no pick from block sums, so every block's
    # levels go to the exact evaluator (bar the eta blocks without infected
    # cells, whose levels all score the same): the same picks and values
    scen, case = drawn
    res, exact = search(scen, case), search(scen, case, np.inf)
    for name in ("value", "c", "theta", "eta"):
        assert getattr(res, name).tobytes() == getattr(exact, name).tobytes()


@pytest.mark.parametrize("near", [False, True])
def test_ties_and_near_ties_reach_the_exact_evaluator(monkeypatch, near):
    # theta held at 0 with d1 = 0 leaves eta without effect: every eta pick is an
    # exact tie, which the block sums cannot certify.  With infected cells 1e-13 of
    # the rest on the first block, eta moves H1 there by far less than the margin:
    # a near tie.  Both go to the exact evaluator, with an eta stack, and the
    # search still equals the looped one.
    scen = verification_scenario(i0=0.05, congestion=ee.LinearCongestion(d1=0.1 if near else 0.0),
                                 theta_levels=(1.0,) if near else (0.0,),
                                 eta_levels=(0.0, 0.5, 1.0), search_blocks=4)
    x = np.stack(scen.initial.as_triple())
    if near:
        x[1, :4] *= 1e-13
    costate = make_costate(scen, seed=3, scale=5.0)
    baseline = tuple(np.full((3, 16), 0.5))
    scored, evaluator = [], hamiltonian.h1_evaluator

    def counting(*args, **kwargs):
        h1 = evaluator(*args, **kwargs)

        def call(c, theta, eta):
            scored.append(np.ndim(eta) == 3)
            return h1(c, theta, eta)
        call.running = getattr(h1, "running", None)
        return call

    monkeypatch.setattr(hamiltonian, "h1_evaluator", counting)
    res = ee.maximize_h1(x, 50.0, costate, scen, baseline=baseline)
    assert sum(scored) >= (1 if near else 4)  # at least one sweep's tied blocks
    monkeypatch.undo()
    val, c, theta, eta = looped_maximize_h1(x, 50.0, costate, scen, baseline)
    assert np.float64(res.value).tobytes() == np.float64(val).tobytes()
    for got, want in ((res.c, c), (res.theta, theta), (res.eta, eta)):
        assert got.tobytes() == want.tobytes()


def test_demo_gap_profile_with_every_pick_exact_is_unchanged(monkeypatch):
    # the gap profile that ``check`` reports on the demo, at the certified margin
    # and with every block scored by the exact evaluator
    demo = cfgmod.load_config(Path(__file__).resolve().parent.parent / "configs"
                              / "demo_covid.json")
    scen = cfgmod.build_scenario(demo)
    v, traj = cfgmod.build_value_function(demo, scen), scen.simulate()
    gaps = ee.hamiltonian_gap_profile(v, scen.policy, traj, scen)
    monkeypatch.setattr(hamiltonian, "_MARGIN", np.inf)
    assert gaps.tobytes() == ee.hamiltonian_gap_profile(v, scen.policy, traj, scen).tobytes()


def test_maximize_rejects_nondividing_blocks():
    scen = verification_scenario()  # n_age = 16
    costate = make_costate(scen, seed=1)
    bad = ee.ControlSearchGrid(theta_levels=(0.0, 1.0), eta_levels=(0.0, 1.0),
                               n_age_blocks=3, c_max=5.0)
    with pytest.raises(ee.ConfigurationError):
        ee.maximize_h1(scen.initial.as_triple(), 10.0, costate,
                       dataclasses.replace(scen, search=bad))


def test_maximize_dominates_search_set():
    scen = verification_scenario(i0=0.05)
    costate = make_costate(scen, seed=13, scale=0.2, Q=0.8)
    res = ee.maximize_h1(scen.initial.as_triple(), 40.0, costate, scen)
    rng = np.random.default_rng(14)
    bs = 16 // scen.search.n_age_blocks
    for _ in range(30):
        th = np.repeat(rng.choice(scen.search.theta_levels, scen.search.n_age_blocks), bs)
        et = np.repeat(rng.choice(scen.search.eta_levels, scen.search.n_age_blocks), bs)
        c = scen.obj.utility.optimal_c(sum(scen.initial.as_triple()), costate.Q, th,
                                       scen.obj.nu, scen.search.c_max)
        val = ee.h1_part(scen.initial.as_triple(), 40.0, costate, c, th, et, scen)
        assert res.value >= val - 1e-10


def test_h1_shares_the_simulation_extinction_floor():
    # the floor is n_floor_rel x N0 in simulate and in H1 alike; at
    # n_floor_rel = 1 the initial state sits exactly on it
    scen = verification_scenario(n_floor_rel=1.0)
    x = scen.initial.as_triple()
    costate = make_costate(scen, seed=2)
    with pytest.raises(ee.ExtinctPopulation):
        scen.simulate()
    with pytest.raises(ee.ExtinctPopulation):
        ee.h1_part(x, 10.0, costate, *scen.policy[:, 0], scen)
    with pytest.raises(ee.ExtinctPopulation):
        ee.maximize_h1(x, 10.0, costate, scen)

    # default floor 1e-9 x N0: a state with 1e-10 of the initial population is below it
    scen = verification_scenario()
    tiny = 1e-10 * np.stack(x)
    with pytest.raises(ee.ExtinctPopulation):
        ee.h1_part(tiny, 10.0, costate, *scen.policy[:, 0], scen)
    with pytest.raises(ee.ExtinctPopulation):
        ee.maximize_h1(tiny, 10.0, costate, scen)
    assert np.isfinite(ee.h1_part(1e-8 * np.stack(x), 10.0, costate, *scen.policy[:, 0],
                                  scen))


# ----------------------------------------------------------------------
# gap profile and greedy policy
# ----------------------------------------------------------------------

def test_gap_profile_nonnegative_and_zero_at_argmax():
    scen = verification_scenario(n_age=16, horizon=3.0)
    v = ee.LinearValue(scen.space, interior_triple(scen.age_grid), q=0.4)
    policy, traj = ee.greedy_policy(v, scen)
    gaps = ee.hamiltonian_gap_profile(v, policy, traj, scen)
    assert np.all(gaps >= -1e-10)
    assert np.max(np.abs(gaps)) <= 1e-10
    assert ee.integrated_gap(gaps, traj, scen.obj) <= 1e-10


def test_gap_profile_positive_for_random_policy():
    scen = verification_scenario(n_age=16, horizon=3.0)
    v = ee.LinearValue(scen.space, interior_triple(scen.age_grid), q=0.4)
    traj = scen.simulate()
    gaps = ee.hamiltonian_gap_profile(v, scen.policy, traj, scen)
    assert np.all(gaps >= -1e-10)
    assert ee.integrated_gap(gaps, traj, scen.obj) > 0.0


@pytest.mark.parametrize("table", [False, True])
@pytest.mark.parametrize("target", ["J1", "composite"])
def test_greedy_rollout_is_one_run(monkeypatch, table, target):
    # the search is the feedback law of one run of the stepping loop, whose
    # trajectory is the policy's own, bit for bit; no second simulation
    g = np.linspace(0.5, 1.5, 16)
    kernel = 1.8 * np.outer(g, g[::-1]) if table else ee.RankOneKernel(1.8, g)
    composite = {"J1": 1.0, "J2": 0.3, "J6": -2.0} if target == "composite" else None
    # (eta > 0 keeps transmission on; the large value of the susceptible share
    # makes the search pick interior theta levels)
    scen = verification_scenario(kernel=kernel, composite=composite, horizon=3.0, i0=0.1,
                                 eta_levels=(0.5, 1.0))
    v = ee.LinearValue(scen.space, interior_triple(scen.age_grid, (300.0, 1.0, 1.0)), q=0.4)
    runs, sims, run, simulate = [], [], epi._run, epi.simulate
    monkeypatch.setattr(epi, "_run", lambda *a, **kw: runs.append(1) or run(*a, **kw))
    monkeypatch.setattr(epi, "simulate", lambda *a, **kw: sims.append(1) or simulate(*a, **kw))
    policy, traj = ee.greedy_policy(v, scen)
    assert (len(runs), len(sims)) == (1, 0)
    assert len(np.unique(policy[1])) > 2
    again = scen.simulate(policy)
    for name in ("X", "K", "N", "Xi", "L", "Y", "C", "D_cost", "deaths_flow"):
        assert getattr(traj, name).tobytes() == getattr(again, name).tobytes(), name
    for k in range(scen.time_grid.n_steps + 1):  # each slice is the search at its node
        x, K = traj.X[k], traj.K[k]
        res = ee.maximize_h1(x, K, _costate_at(v, x, K), scen)
        assert np.stack([res.c, res.theta, res.eta]).tobytes() == policy[:, k].tobytes()


def test_greedy_rollout_failure_names_its_step():
    # J2 with a negative capital price takes c = c_max, and 1e308 overflows capital
    scen = verification_scenario(which="J2")
    scen = dataclasses.replace(scen, search=dataclasses.replace(scen.search, c_max=1e308))
    v = ee.LinearValue(scen.space, interior_triple(scen.age_grid), q=-0.5)
    with np.errstate(all="ignore"), pytest.raises(ee.NonFiniteState,
                                                  match="capital update produced") as err:
        ee.greedy_policy(v, scen)
    assert err.value.step_index == 0


def test_greedy_rollout_extinct_node_names_its_step():
    # the search's floor test meets an extinct node before the kernel's does: the
    # error still names the node's step, as simulate names it
    scen = verification_scenario(n_floor_rel=0.9, mu_s=3.0, mu_r=3.0, mu_i=3.0, beta=0.0)
    v = ee.LinearValue(scen.space, interior_triple(scen.age_grid), q=0.4)
    with pytest.raises(ee.ExtinctPopulation) as simulated:
        scen.simulate(scen.policy)
    with pytest.raises(ee.ExtinctPopulation) as err:
        ee.greedy_policy(v, scen)
    assert err.value.step_index == simulated.value.step_index == 1


def test_greedy_feedback_keeps_the_callers_error_state(monkeypatch):
    # the stepping loop ignores numpy errors; the search runs as its caller set them
    scen = verification_scenario(horizon=2.0)
    v = ee.LinearValue(scen.space, interior_triple(scen.age_grid), q=0.4)
    seen, maximize = [], hamiltonian.maximize_h1

    def recording(*args, **kwargs):
        seen.append(np.geterr())
        return maximize(*args, **kwargs)

    monkeypatch.setattr(hamiltonian, "maximize_h1", recording)
    with np.errstate(over="raise"):
        caller = np.geterr()
        ee.greedy_policy(v, scen)
    assert caller["over"] == "raise"
    assert seen == [caller] * (scen.time_grid.n_steps + 1)


def looped_gap_profile(v, policy, traj, scen):
    """Reference for hamiltonian_gap_profile: the looped single-node search at one
    node at a time.  Returns the gaps and each node's search result."""
    gaps, results = np.empty(traj.n_steps + 1), []
    for k in range(traj.n_steps + 1):
        x, K = traj.X[k], float(traj.K[k])
        costate = _costate_at(v, x, K)
        results.append(ee.H1Result(*looped_maximize_h1(x, K, costate, scen, policy[:, k])))
        gaps[k] = results[-1].value - ee.h1_part(x, K, costate, *policy[:, k], scen)
    return gaps, results


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_age=st.sampled_from([8, 16]),
       table=st.booleans(), target=st.sampled_from(["J1", "J2", "J6", "composite"]),
       quadratic=st.booleans(), max_sweeps=st.sampled_from([1, 2, 30]),
       d1=st.sampled_from([0.0, 0.1]), blocks=st.sampled_from([1, 2, 4]))
def test_gap_profile_equals_looped_single_node_search(seed, n_age, table, target, quadratic,
                                                      max_sweeps, d1, blocks):
    # the lockstep search over all nodes gives each node its single-node result
    # bit for bit: same sweep order, starts, baseline, tie rule (d1 = 0 leaves
    # eta without effect where theta = 0) and stop test, a sweep cut short
    # included; consumption far above output drives capital below zero, so the
    # quadratic value's Q = q K takes both signs in one batch.
    rng = np.random.default_rng(seed)
    g = rng.uniform(0.1, 2.0, n_age)
    m0 = float(rng.uniform(0.0, 3.0))
    kernel = m0 * np.outer(g, rng.uniform(0.1, 2.0, n_age)) if table \
        else ee.RankOneKernel(m0, g)
    composite = ({"J1": float(rng.uniform(0.0, 2.0)), "J2": float(rng.uniform(-1.0, 1.0)),
                  "J6": float(rng.uniform(-5.0, 5.0))} if target == "composite" else None)
    scen = verification_scenario(n_age=n_age, kernel=kernel, i0=0.05, K0=5.0,
                                 which="J1" if composite else target, composite=composite,
                                 congestion=ee.LinearCongestion(d1=d1), search_blocks=blocks)
    scen = dataclasses.replace(scen, search=dataclasses.replace(scen.search,
                                                                max_sweeps=max_sweeps))
    shape = (scen.time_grid.n_steps + 1, n_age)
    policy = np.stack([rng.uniform(2.0, 6.0, shape), rng.uniform(0.0, 1.0, shape),
                       rng.uniform(0.0, 1.0, shape)])
    traj = scen.simulate(policy)
    w = interior_triple(scen.age_grid)
    if quadratic:
        v = ee.QuadraticValue(scen.space, w, q=float(rng.uniform(0.01, 1.0)))
        assert traj.K.max() > 0.0 > traj.K.min()
    else:
        v = ee.LinearValue(scen.space, w, q=float(rng.uniform(-1.0, 1.0)))

    gaps = ee.hamiltonian_gap_profile(v, policy, traj, scen)
    want, singles = looped_gap_profile(v, policy, traj, scen)
    assert gaps.tobytes() == want.tobytes()
    res = ee.maximize_h1(traj.X, traj.K, _costate_at(v, traj.X, traj.K), scen,
                         baseline=policy)
    assert res.value.tobytes() == np.array([one.value for one in singles]).tobytes()
    for name in ("c", "theta", "eta"):
        assert np.array_equal(getattr(res, name),
                              np.stack([getattr(one, name) for one in singles]))


def count_h1_calls(monkeypatch) -> list:
    """Patch the module's evaluator to count every scoring call, of the whole
    stack or of the rows that a search scores exactly, into the last entry of
    the returned list."""
    calls, evaluator = [], hamiltonian.h1_evaluator

    def counting(*args, **kwargs):
        h1 = evaluator(*args, **kwargs)

        def counted(score):
            def call(*z):
                calls[-1] += 1
                return score(*z)
            return call
        wrapped = counted(h1)
        wrapped.running = getattr(h1, "running", None)  # a single node's has none
        return wrapped

    monkeypatch.setattr(hamiltonian, "h1_evaluator", counting)
    return calls


def count_sweeps(monkeypatch, thetas=None) -> list:
    """Patch the module's consumption argmax, solved once at the start and once
    per sweep that moved a level, to count into the last entry of the returned
    list (and append each call's theta stack to ``thetas``)."""
    calls, optimal_c = [], hamiltonian._optimal_c

    def counting(*args):
        calls[-1] += 1
        if thetas is not None:
            thetas.append(args[2])
        return optimal_c(*args)

    monkeypatch.setattr(hamiltonian, "_optimal_c", counting)
    return calls


def healthy_and_epidemic(theta_levels=None, max_sweeps=30):
    """A problem with eta fixed at 1 and two nodes: one without epidemic and a
    zero costate, at its optimum at theta = 1, and one whose infections are
    costly (p1 = 10), which sweeps longer.  Returns the scenario, X, K and the
    costate of the stack."""
    scen = verification_scenario(i0=0.1)
    scen = dataclasses.replace(scen, search=dataclasses.replace(
        scen.search, eta_levels=(1.0,), max_sweeps=max_sweeps,
        theta_levels=theta_levels or scen.search.theta_levels))
    epidemic = np.stack(scen.initial.as_triple())
    healthy = epidemic.copy()
    healthy[0] += healthy[1]
    healthy[1] = 0.0
    p1, zero = np.stack([np.zeros(16), np.full(16, 10.0)]), np.zeros((2, 16))
    return (scen, np.stack([healthy, epidemic]), np.array([50.0, 50.0]),
            ee.CostateField(p1, zero, zero, Q=np.array([0.5, 0.5])))


@pytest.mark.parametrize("node, theta_levels, max_sweeps, want_calls",
                         [(0, (1.0,), 30, 1), (0, None, 30, 2), (0, None, 1, 2),
                          (1, None, 30, 6), (1, None, 3, 4)],
                         ids=["one_level", "healthy", "healthy_cut", "epidemic", "epidemic_cut"])
def test_consumption_is_solved_once_per_sweep_that_moved(monkeypatch, node, theta_levels,
                                                         max_sweeps, want_calls):
    # c is the argmax of the theta levels alone, so a sweep that moves no level
    # leaves it as it is: the search solves it at the start and after each sweep
    # that moved a level, and the sweep that finds the fixed point solves none.
    # With one theta level nothing moves; from the bottom start the healthy node
    # moves to theta = 1 in its first sweep and the second confirms it; the
    # epidemic node moves in five sweeps, or in each of three when cut short.
    # eta is fixed, so each re-solve sees a new theta, and the search equals
    # the looped one, which re-solves c after every sweep.  The baseline's c
    # is one more call, the last.
    scen, X, K, costate = healthy_and_epidemic(theta_levels, max_sweeps)
    one = ee.CostateField(*(p[node] for p in costate.triple()), Q=0.5)
    baseline = scen.policy[:, 0]
    thetas = []
    calls = count_sweeps(monkeypatch, thetas)
    calls.append(0)
    res = ee.maximize_h1(X[node], 50.0, one, scen, baseline=baseline)
    assert calls == [want_calls + 1]
    assert all(not np.array_equal(a, b) for a, b in zip(thetas, thetas[1:-1]))
    monkeypatch.undo()
    val, c, theta, eta = looped_maximize_h1(X[node], 50.0, one, scen, baseline)
    assert np.float64(res.value).tobytes() == np.float64(val).tobytes()
    for got, want in ((res.c, c), (res.theta, theta), (res.eta, eta)):
        assert got.tobytes() == want.tobytes()


def test_lockstep_nodes_stop_at_different_sweeps(monkeypatch):
    # the healthy node stops after its second sweep, the epidemic one sweeps
    # longer.  In the lockstep search the first repeats its last sweep while the
    # second goes on, and each gets its lone result.  A lone node runs both
    # starts in one pass and sweeps as long as its slower start.
    scen, X, K, costate = healthy_and_epidemic()
    calls = count_sweeps(monkeypatch)
    singles = []
    for k in range(2):
        calls.append(0)
        singles.append(ee.maximize_h1(X[k], 50.0, ee.CostateField(
            *(p[k] for p in costate.triple()), Q=0.5), scen))
    assert calls[0] < calls[1]
    calls.append(0)
    res = ee.maximize_h1(X, K, costate, scen)
    assert calls[2] == calls[1]  # the stack sweeps as long as its slowest node
    assert np.all(res.theta[0] == 1.0) and not np.all(res.theta[1] == 1.0)
    for k, one in enumerate(singles):
        assert res.value[k] == one.value
        for name in ("c", "theta", "eta"):
            assert np.array_equal(getattr(res, name)[k], getattr(one, name))


@pytest.mark.parametrize("table, want_calls", [(False, 2), (True, 10)])
def test_two_starts_share_one_pass(monkeypatch, table, want_calls):
    # both starts run as one lockstep pass over 9 nodes taken twice.  On the
    # rank-one kernel the block sums certify every pick, so the evaluator scores
    # only the search's result and the baseline: 1 + 1 calls.  A table's blocks
    # are all scored exactly: two sweeps of 2 + 2 blocks and a final score,
    # 2 x 4 + 1 calls, plus one for the baseline.  Each node gets the bytes of
    # the looped single-node search.
    rng = np.random.default_rng(5)
    g = rng.uniform(0.1, 2.0, 16)
    kernel = 1.8 * np.outer(g, rng.uniform(0.1, 2.0, 16)) if table \
        else ee.RankOneKernel(1.8, g)
    scen = verification_scenario(n_age=16, horizon=4.0, i0=0.05, kernel=kernel)
    traj = scen.simulate()
    v = ee.LinearValue(scen.space, interior_triple(scen.age_grid), q=0.4)
    costate = _costate_at(v, traj.X, traj.K)
    calls = count_h1_calls(monkeypatch)
    calls.append(0)
    res = ee.maximize_h1(traj.X, traj.K, costate, scen, baseline=scen.policy)
    assert calls == [want_calls]
    _, singles = looped_gap_profile(v, scen.policy, traj, scen)
    assert res.value.tobytes() == np.array([one.value for one in singles]).tobytes()
    for name in ("c", "theta", "eta"):
        assert getattr(res, name).tobytes() == np.stack([getattr(one, name)
                                                         for one in singles]).tobytes()


def test_each_start_wins_where_it_should():
    # the corners of a (0, 1) x (0, 1) lattice on one age block.  With costly
    # infections and testing priced on 1 - eta, the top start drops theta and sticks
    # at (0, 1), while the bottom start raises theta and reaches the better (1, 0).
    # With infections valued, costly testing and no labor, theta is idle where
    # eta = 0: after one sweep the top start sits at (1, 0) and the bottom one at
    # (0, 0), with the same value, and the top start wins the tie.
    corners = dict(i0=0.1, which="J6", theta_levels=(0.0, 1.0), eta_levels=(0.0, 1.0),
                   search_blocks=1)
    sticky = verification_scenario(congestion=ee.LinearCongestion(d1=2.0), **corners)
    sticky = dataclasses.replace(sticky, econ=dataclasses.replace(sticky.econ,
                                                                  cost_complement=True))
    tied = verification_scenario(alpha=0.0, congestion=ee.LinearCongestion(d1=5.0), **corners)
    tied = dataclasses.replace(tied, search=dataclasses.replace(tied.search, max_sweeps=1))
    zero, one = np.zeros(16), np.ones(16)
    for scen, costate, other, beaten in (
            (sticky, ee.CostateField(np.full(16, 10.0), zero, zero, Q=1.0), (zero, one), True),
            (tied, ee.CostateField(zero, one, zero, Q=1.0), (zero, zero), False)):
        x = np.stack(scen.initial.as_triple())
        res = ee.maximize_h1(x, 50.0, costate, scen)
        assert np.array_equal(res.theta, one) and np.array_equal(res.eta, zero)
        assert res.value == ee.h1_part(x, 50.0, costate, res.c, one, zero, scen)
        other_value = ee.h1_part(x, 50.0, costate, res.c, *other, scen)
        assert other_value < res.value if beaten else other_value == res.value


def test_gap_profile_extinct_node_raises_like_the_loop():
    # nodes 2 and 4 fall below the floor (1e-9 N0); both searches name node 2's
    # population, the first the node-by-node loop reaches
    scen = verification_scenario(n_age=8, horizon=4.0)
    traj = scen.simulate()
    X = traj.X.copy()
    X[2] *= 1e-12
    X[4] *= 1e-13
    traj = dataclasses.replace(traj, X=X)
    v = ee.LinearValue(scen.space, interior_triple(scen.age_grid), q=0.4)
    with pytest.raises(ee.ExtinctPopulation) as batched:
        ee.hamiltonian_gap_profile(v, scen.policy, traj, scen)
    with pytest.raises(ee.ExtinctPopulation) as looped:
        looped_gap_profile(v, scen.policy, traj, scen)
    assert str(batched.value) == str(looped.value)
    assert f"{scen.age_grid.da * X[2].sum():.3e}" in str(batched.value)


# ----------------------------------------------------------------------
# chain-rule identity
# ----------------------------------------------------------------------

def residual_for(n_age, v_kind, policy_seed):
    # birth-free with compact smooth initial data: the state stays regular
    # enough that W h remains in the adjoint domain for quadratic v (birth
    # inflow would inject a discontinuous front and break that requirement)
    horizon, a_max = 4.0, 8.0
    scen = verification_scenario(
        n_age=n_age, horizon=horizon, a_max=a_max, beta=0.0,
        s0=lambda a: float(smooth_bump(np.array((a - 2.1) / 1.4))),
        i0=lambda a: 0.05 * float(smooth_bump(np.array((a - 2.1) / 1.4))),
    )
    rng = np.random.default_rng(policy_seed)
    blocks_c = rng.uniform(0.0, 0.2, (4, 2))
    blocks_th = rng.uniform(0.3, 1.0, (4, 2))
    blocks_et = rng.uniform(0.3, 1.0, (4, 2))
    tg, ag = scen.time_grid, scen.age_grid
    policy = ee.expand_blocks(np.stack([blocks_c, blocks_th, blocks_et]), tg, ag)
    traj = scen.simulate(policy)
    assert traj.feasible
    w = interior_triple(ag, scales=(1.0, 0.7, 1.3))
    if v_kind == "linear":
        v = ee.LinearValue(scen.space, w, q=0.5)
    else:
        v = ee.QuadraticValue(scen.space, w, q=0.002)
    return ee.chain_rule_residual(v, policy, traj, scen)


@pytest.mark.parametrize("v_kind", ["linear", "quadratic"])
def test_chain_rule_residual_first_order(v_kind):
    orders = []
    for seed in range(5):
        errs = [abs(residual_for(n, v_kind, seed)) for n in (16, 32, 64)]
        dts = [8.0 / n for n in (16, 32, 64)]
        orders.append(fit_order(dts, errs))
    assert min(orders) >= 0.9


def test_chain_rule_residual_trivial_zero():
    scen = verification_scenario(n_age=16, horizon=2.0)
    v = ee.LinearValue(scen.space, tuple(np.zeros(16) for _ in range(3)), q=0.0)
    traj = scen.simulate()
    assert ee.chain_rule_residual(v, scen.policy, traj, scen) == 0.0


def looped_chain_rule_residual(v, policy, traj, scen):
    """Reference for chain_rule_residual: H0, the drift and v at one node at a
    time, the discounted terms added one by one in node order."""
    tg, obj = traj.time_grid, scen.obj
    acc = 0.0
    for k in range(tg.n_steps):
        x, K = traj.X[k], float(traj.K[k])
        costate = _costate_at(v, x, K)
        drift = (ee.h0_part(x, K, costate, scen)
                 + hamiltonian.h1_evaluator(x, K, costate, scen, reward=False)(*policy[:, k]))
        acc += (np.exp(-obj.rho * (tg.times[k] - tg.t0))
                * (obj.rho * v.value(x, K) - drift))
    acc *= tg.dt
    terminal = np.exp(-obj.rho * (tg.t_end - tg.t0)) * v.value(traj.X[-1],
                                                               float(traj.K[-1]))
    return float(v.value(traj.X[0], float(traj.K[0])) - terminal - acc)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_age=st.sampled_from([8, 16]),
       table=st.booleans(), quadratic=st.booleans(), n_steps=st.sampled_from([0, 1, 5, 16]),
       target=st.sampled_from(["J1", "J2", "J6", "composite"]))
def test_chain_rule_residual_equals_looped_single_node_terms(seed, n_age, table, quadratic,
                                                             n_steps, target):
    # one stacked pass over traj.X[:n_steps] gives the per-node loop's residual
    # bit for bit, with the overload multiplier active (the load straddles the
    # capacity) and n_steps = 0 an empty stack
    rng = np.random.default_rng(seed)
    g = rng.uniform(0.1, 2.0, n_age)
    m0 = float(rng.uniform(0.0, 3.0))
    kernel = m0 * np.outer(g, rng.uniform(0.1, 2.0, n_age)) if table \
        else ee.RankOneKernel(m0, g)
    composite = ({"J1": float(rng.uniform(0.0, 2.0)), "J2": float(rng.uniform(-1.0, 1.0)),
                  "J6": float(rng.uniform(-5.0, 5.0))} if target == "composite" else None)
    scen = verification_scenario(n_age=n_age, kernel=kernel, i0=0.05, psi=1.5,
                                 xi_cap=float(rng.uniform(0.0, 0.2)), smooth=0.02,
                                 which="J1" if composite else target, composite=composite)
    scen = dataclasses.replace(scen, time_grid=ee.TimeGrid.aligned(scen.age_grid,
                                                                   n_steps=n_steps))
    shape = (n_steps + 1, n_age)
    policy = np.stack([rng.uniform(0.0, 6.0, shape), rng.uniform(0.0, 1.0, shape),
                       rng.uniform(0.0, 1.0, shape)])
    traj = scen.simulate(policy)
    w = interior_triple(scen.age_grid, scales=tuple(rng.uniform(-1.0, 1.0, 3)))
    q = float(rng.uniform(-1.0, 1.0))
    v = ee.QuadraticValue(scen.space, w, q) if quadratic else ee.LinearValue(scen.space, w, q)

    got = ee.chain_rule_residual(v, policy, traj, scen)
    want = looped_chain_rule_residual(v, policy, traj, scen)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def degenerate_scalar_setup():
    """Age-constant stationary problem whose fields collapse to scalars."""
    a_max, n_age, n_steps = 8.0, 8, 6
    c_pol = 0.3
    scen = build_scenario(
        n_age=n_age, a_max=a_max, n_steps=n_steps,
        beta=1.0 / a_max, s0=1.0,
        production=ee.LinearProduction(a_k=0.03, a_l=1.0), delta=0.05,
        phi=ee.AffineLockdown(ell=0.0),
        congestion=ee.LinearCongestion(d1=0.0),
        utility=ee.ShiftedCRRAUtility(u0=0.5, sigma=0.5, eps_c=0.01, w0=1.0),
        rho=0.05, nu=0.7, which="J1",
        K0=20.0, c_level=c_pol,
        theta_levels=(0.0, 1.0), eta_levels=(0.0, 1.0),
        search_blocks=1, c_max=5.0,
    )
    w = (0.4, 0.2, 0.3)
    q = 0.6
    v = ee.LinearValue(scen.space,
                       tuple(np.full(n_age, val) for val in w), q=q)
    return scen, v, w, q, c_pol


def scalar_harness(scen, w, q, c_pol):
    """Independent scalar implementation of the chain-rule residual.

    With age-constant coefficients, stationary uniform population, no
    epidemic terms, and constant costate, every field quantity collapses to
    a closed scalar recursion.
    """
    a_max = scen.age_grid.a_max
    dt = scen.time_grid.dt
    n_steps = scen.time_grid.n_steps
    rho = scen.obj.rho
    n0 = 1.0
    N = n0 * a_max
    L = N
    a_k, a_l, delta = 0.03, 1.0, 0.05

    K = [20.0]
    for _ in range(n_steps):
        K.append(K[-1] + dt * (a_k * K[-1] + a_l * L - c_pol * N - delta * K[-1]))

    def v_of(k):
        return w[0] * n0 * a_max + q * K[k]

    chain_acc = 0.0
    for k in range(n_steps):
        t = k * dt
        disc = np.exp(-rho * t)
        aterm = -n0 * w[0] - delta * K[k] * q
        bterm = (a_k * K[k] + a_l * L - c_pol * N) * q
        chain_acc += disc * (rho * v_of(k) - aterm - bterm) * dt
    T = n_steps * dt
    return v_of(0) - np.exp(-rho * T) * v_of(n_steps) - chain_acc


def test_degenerate_scalar_harness_match():
    scen, v, w, q, c_pol = degenerate_scalar_setup()
    traj = scen.simulate()
    chain_pkg = ee.chain_rule_residual(v, scen.policy, traj, scen)
    chain_ref = scalar_harness(scen, w, q, c_pol)
    assert abs(chain_pkg - chain_ref) / max(1.0, abs(chain_ref)) < 1e-6


# ----------------------------------------------------------------------
# transversality
# ----------------------------------------------------------------------

def trajectories_over_horizons(scen_fn, horizons):
    return [scen_fn(T).simulate() for T in horizons]


def test_transversality_bounded_trajectory():
    def scen_fn(T):
        return build_scenario(
            n_age=16, a_max=8.0, n_steps=int(round(T * 2.0)),
            beta=1.0 / 8.0, s0=1.0,
            production=ee.LinearProduction(a_k=0.02, a_l=0.5), delta=0.1,
            K0=30.0, c_level=0.1, rho=0.08,
        )
    trajs = trajectories_over_horizons(scen_fn, (10.0, 20.0, 40.0))
    scen = scen_fn(10.0)
    v = ee.LinearValue(scen.space, tuple(np.full(16, 0.3) for _ in range(3)), q=0.5)
    report = ee.transversality_check(v, trajs, rho=0.08)
    assert report.decaying
    assert report.exponent == pytest.approx(0.08, rel=0.05)


def test_transversality_single_horizon_has_no_exponent():
    # zero-step trajectories all end at t0: no decay rate is measurable
    scen = build_scenario(n_age=16, n_steps=0, K0=10.0)
    v = ee.LinearValue(scen.space, tuple(np.full(16, 0.3) for _ in range(3)), q=0.5)
    report = ee.transversality_check(v, [scen.simulate(), scen.simulate()], rho=0.05)
    assert report.exponent is None
    assert np.all(report.horizons == 0.0)


def test_transversality_zero_value_function():
    scen = build_scenario(n_age=16, n_steps=8)
    v = ee.LinearValue(scen.space, tuple(np.zeros(16) for _ in range(3)), q=0.0)
    trajs = [scen.simulate()]
    report = ee.transversality_check(v, trajs, rho=0.05)
    assert report.decaying
    assert np.all(report.weighted_values == 0.0)
    assert report.exponent is None


def test_transversality_flags_exploding_capital():
    def scen_fn(T):
        return build_scenario(
            n_age=16, a_max=8.0, n_steps=int(round(T * 2.0)),
            beta=1.0 / 8.0, s0=1.0,
            production=ee.LinearProduction(a_k=0.30, a_l=0.0), delta=0.05,
            K0=10.0, c_level=0.0, rho=0.05,
        )
    trajs = trajectories_over_horizons(scen_fn, (10.0, 20.0, 40.0))
    scen = scen_fn(10.0)
    v = ee.LinearValue(scen.space, tuple(np.zeros(16) for _ in range(3)), q=1.0)
    report = ee.transversality_check(v, trajs, rho=0.05)
    assert not report.decaying


# ----------------------------------------------------------------------
# value-function gradient checks
# ----------------------------------------------------------------------

def test_builtin_value_function_gradients():
    scen = verification_scenario()
    rng = np.random.default_rng(2)
    probes = [(tuple(np.abs(rng.standard_normal(16)) for _ in range(3)),
               float(rng.uniform(1.0, 50.0))) for _ in range(5)]
    w = interior_triple(scen.age_grid)
    for v in (ee.LinearValue(scen.space, w, q=0.7),
              ee.QuadraticValue(scen.space, w, q=0.01)):
        worst = ee.validate_gradient(v, probes, rel_tol=1e-6)
        assert worst <= 1e-6


def test_validate_gradient_catches_wrong_gradient():
    scen = verification_scenario()

    class Broken(ee.LinearValue):
        def grad_K(self, h, K):
            return self.q + 0.1

    v = Broken(scen.space, interior_triple(scen.age_grid), q=0.5)
    probes = [(scen.initial.as_triple(), 10.0)]
    with pytest.raises(ee.ConfigurationError):
        ee.validate_gradient(v, probes)


@pytest.mark.parametrize("seed", [0, 1, 3, 7])
def test_one_search_over_two_runs_equals_two_profiles(seed):
    # the optimizer's certificate: the nodes of two runs in one stack give each
    # run's profile bit for bit; the second run, under a random policy, is cut
    # short, so the runs differ in length
    scen = verification_scenario(n_age=8, horizon=16.0)
    rng = np.random.default_rng(seed)
    shape = (scen.time_grid.n_steps + 1, 8)
    policies = [scen.policy, np.stack([rng.uniform(0.0, 2.0, shape), rng.uniform(0.0, 1.0, shape),
                                       rng.uniform(0.0, 1.0, shape)])]
    trajs = [scen.simulate(policy) for policy in policies]
    trajs[1] = dataclasses.replace(trajs[1], X=trajs[1].X[:12], K=trajs[1].K[:12],
                                   time_grid=dataclasses.replace(scen.time_grid, n_steps=11))
    policies[1] = policies[1][:, :12]
    v = ee.QuadraticValue(scen.space, interior_triple(scen.age_grid), q=0.3)
    want = [ee.hamiltonian_gap_profile(v, p, t, scen) for p, t in zip(policies, trajs)]
    gaps = hamiltonian._gap_profiles(v, policies, trajs, scen)
    assert [g.tobytes() for g in gaps] == [g.tobytes() for g in want]
    assert [len(g) for g in gaps] == [17, 12]


def test_gap_profile_is_entered_once_per_call(monkeypatch):
    # a wrapper patched over the module's name, as a tracer installs one, sees one
    # entry per call: the function does not call itself through that name
    scen = verification_scenario(n_age=8, horizon=4.0)
    v = ee.QuadraticValue(scen.space, interior_triple(scen.age_grid), q=0.3)
    traj = scen.simulate()
    real, calls = hamiltonian.hamiltonian_gap_profile, []

    def wrapper(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(hamiltonian, "hamiltonian_gap_profile", wrapper)
    want = real(v, scen.policy, traj, scen)
    gaps = hamiltonian.hamiltonian_gap_profile(v, scen.policy, traj, scen)
    assert calls == [1]
    assert gaps.tobytes() == want.tobytes()
