import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epiecon as ee
from epiecon import epi, objectives

from util import (build_scenario, fit_order, random_block_policy, reference_node, rk4_path,
                  simulate_batch as batch_runs, smooth_bump)


# ----------------------------------------------------------------------
# pointwise operations
# ----------------------------------------------------------------------

def critical_load(scen):
    return ee.critical_load(scen.initial.i, scen.epi, scen.age_grid.da)


def test_critical_load_examples():
    scen = build_scenario(n_age=20, a_max=100.0, xi=1.0, i0=0.0)
    assert critical_load(scen) == 0.0

    scen = build_scenario(n_age=20, a_max=100.0, xi=1.0, i0=0.3, s0=0.0)
    total_infected = scen.initial.total_population()
    assert critical_load(scen) == pytest.approx(total_infected)

    # COVID-like uniform hospitalization share: 2.9% of 1000 infected -> 29
    scen = build_scenario(n_age=20, a_max=100.0, xi=0.029, i0=10.0, s0=0.0)
    assert scen.initial.total_population() == pytest.approx(1000.0)
    assert critical_load(scen) == pytest.approx(29.0, rel=1e-12)


def test_infection_mortality_saturation():
    scen = build_scenario(mu_i=0.2, psi=0.0, xi_cap=5.0, smooth=1.0)
    assert np.allclose(ee.infection_mortality(scen.epi, 1e9), 0.2)

    scen = build_scenario(mu_i=0.2, psi=1.5, xi_cap=5.0, smooth=1.0)
    # far below capacity the multiplier is within e^{(Xi - cap)/smooth} of 1
    Xi = -20.0
    mult = ee.infection_mortality(scen.epi, Xi)[0] / 0.2
    assert abs(mult - 1.0) <= 1.5 * np.exp((Xi - 5.0) / 1.0) + 1e-15
    # at capacity the softplus evaluates to log 2 exactly
    at_cap = ee.infection_mortality(scen.epi, 5.0)[0]
    assert at_cap == pytest.approx(0.2 * (1.0 + 1.5 * np.log(2.0)), rel=1e-12)


def test_infection_mortality_increasing_lipschitz():
    scen = build_scenario(mu_i=0.3, psi=2.0, xi_cap=3.0, smooth=0.5)
    xs = np.linspace(-10.0, 20.0, 200)
    vals = np.array([ee.infection_mortality(scen.epi, x)[0] for x in xs])
    assert np.all(np.diff(vals) >= 0.0)
    lip = 0.3 * 2.0 / 0.5
    slopes = np.abs(np.diff(vals)) / np.diff(xs)
    assert np.all(slopes <= lip + 1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(0, 5),
       psi=st.sampled_from([0.0, 1.5]))
def test_aggregate_stack_rows_equal_single_node_calls(seed, n_nodes, psi):
    # critical load, overload multiplier, mortality field and deaths flow of a
    # (n_nodes, n_age) stack of infected densities equal the one-node calls
    # bit for bit, with loads from far below to far above the capacity
    rng = np.random.default_rng(seed)
    scen = build_scenario(n_age=16, mu_i=lambda a: 0.1 + 0.02 * a, xi=lambda a: 0.05 * a,
                          psi=psi, xi_cap=1.0, smooth=0.05)
    params, da = scen.epi, scen.age_grid.da
    i = rng.uniform(0.0, 1.0, (n_nodes, 16)) * 10.0 ** rng.uniform(-3.0, 1.0, (n_nodes, 1))

    def looped(f, *args):
        return np.array([f(*(a[k] for a in args)) for k in range(n_nodes)])

    Xi = ee.critical_load(i, params, da)
    assert Xi.tobytes() == looped(lambda i_k: ee.critical_load(i_k, params, da), i).tobytes()
    mult = params.saturation.multiplier(Xi)
    assert mult.tobytes() == looped(lambda x: params.saturation.multiplier(float(x)),
                                    Xi).tobytes()
    mu_i = ee.infection_mortality(params, Xi)
    assert mu_i.tobytes() == looped(lambda x: ee.infection_mortality(params, float(x)),
                                    Xi).reshape(n_nodes, 16).tobytes()
    deaths = ee.deaths_flow(i, mu_i, da)
    assert deaths.tobytes() == looped(lambda i_k, mu_k: ee.deaths_flow(i_k, mu_k, da),
                                      i, mu_i).tobytes()


def force_of_infection(state, theta_t, eta_t, params):
    return ee.force_of_infection(state.i, state.total_population(), theta_t,
                                 eta_t, params.m, state.grid.da)


def test_force_of_infection_zero_cases():
    scen = build_scenario(m0=5.0, i0=0.0)
    lam = force_of_infection(scen.initial, np.ones(16), np.ones(16), scen.epi)
    assert np.all(lam == 0.0)

    scen = build_scenario(m0=5.0, i0=0.1)
    lam = force_of_infection(scen.initial, np.zeros(16), np.ones(16), scen.epi)
    assert np.all(lam == 0.0)


def test_force_of_infection_constant_kernel():
    # m = 10/yr, I/N = 0.01 -> lambda = 0.1/yr everywhere
    scen = build_scenario(n_age=16, m0=10.0, s0=0.99, i0=0.01)
    lam = force_of_infection(scen.initial, np.ones(16), np.ones(16), scen.epi)
    assert np.allclose(lam, 0.1, rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_age=st.sampled_from([8, 16, 40, 80]),
       table=st.booleans(), stacked=st.sampled_from(["theta", "eta", "both"]),
       n_rows=st.integers(1, 5))
def test_force_of_infection_stack_rows_equal_single_slices(seed, n_age, table, stacked,
                                                           n_rows):
    # a (L, n_age) stack gives each row the bits of that slice alone: one dot
    # (rank-one) or one gemv (table) per row, never a gemv or gemm over the stack
    rng = np.random.default_rng(seed)
    g = rng.uniform(0.1, 2.0, n_age)
    m = (np.outer(g, rng.uniform(0.1, 2.0, n_age)) if table
         else ee.RankOneKernel(float(rng.uniform(0.5, 3.0)), g))
    i = rng.uniform(0.0, 1.0, n_age)
    theta, eta = rng.uniform(0.0, 1.0, (2, n_age))
    th = rng.uniform(0.0, 1.0, (n_rows, n_age)) if stacked != "eta" else None
    et = rng.uniform(0.0, 1.0, (n_rows, n_age)) if stacked != "theta" else None
    lam = ee.force_of_infection(i, 7.0, theta if th is None else th,
                                eta if et is None else et, m, 0.5)
    assert lam.shape == (n_rows, n_age)
    for row in range(n_rows):
        one = ee.force_of_infection(i, 7.0, theta if th is None else th[row],
                                    eta if et is None else et[row], m, 0.5)
        assert np.array_equal(lam[row], one)


# ----------------------------------------------------------------------
# stepping
# ----------------------------------------------------------------------

def test_step_mckendrick_constant_mortality_exact():
    # i = 0, beta = 0, constant mu_S: transport and decay are both exact
    mu0 = 0.08
    scen = build_scenario(n_age=32, a_max=8.0, n_steps=12, mu_s=mu0,
                          s0=lambda a: 1.0 + 0.5 * np.sin(a))
    traj = scen.simulate()
    k = 12
    dt = scen.time_grid.dt
    s0 = scen.initial.s
    expected = np.zeros(32)
    expected[k:] = s0[:-k] * np.exp(-mu0 * k * dt)
    assert np.allclose(traj.X[k, 0], expected, rtol=1e-12, atol=1e-15)


def test_step_pure_infected_decay_with_shift():
    mu1 = 0.4
    scen = build_scenario(n_age=16, n_steps=5, mu_i=mu1, gamma=0.0, psi=0.0,
                          s0=0.0, i0=1.0, theta_level=0.0)
    traj = scen.simulate()
    dt = scen.time_grid.dt
    i5 = traj.X[5, 1]
    expected = np.zeros(16)
    expected[5:] = 1.0 * np.exp(-mu1 * 5 * dt)
    assert np.allclose(i5, expected, rtol=1e-12)


def test_zero_rate_conservation():
    # gamma arbitrary, everything else zero: N exactly conserved before exit
    scen = build_scenario(n_age=24, n_steps=8, gamma=0.5, m0=2.0,
                          s0=lambda a: 1.0 if a < 5.0 else 0.0,
                          i0=lambda a: 0.2 if a < 5.0 else 0.0)
    traj = scen.simulate()
    N0 = traj.N[0]
    assert np.all(np.abs(traj.N - N0) <= 1e-12 * N0)


def test_simulate_zero_steps_identity():
    scen = build_scenario(n_steps=0)
    traj = scen.simulate()
    assert traj.X.shape == (1, 3, 16)
    assert np.array_equal(traj.X[0], np.stack(scen.initial.as_triple()))


def test_laissez_faire_unit_controls_bitwise():
    scen = build_scenario(n_age=16, n_steps=10, mu_s=0.01, mu_i=0.2, gamma=0.3,
                          beta=0.02, m0=1.5, i0=0.01, s0=1.0)
    explicit = np.reshape([0.0, 1.0, 1.0], (3, 1, 1)) * np.ones((11, 16))
    t1 = scen.simulate()
    t2 = scen.simulate(explicit)
    assert t1.X.shape == (11, 3, 16)
    assert np.array_equal(t1.X, t2.X)


SIR_BETA, SIR_GAMMA = 1.2, 0.4  # contact rate and recovery: R0-like ratio 3


def sir_scenario(n_age=256, horizon=5.0, band=1.2, i_share=0.05):
    """Age-constant epidemic with no demography; aggregates follow scalar SIR.

    The population sits in a young band so no cohort reaches the maximum age
    within the horizon; the aggregate (S, I, R) system is then closed.
    """
    a_max = band + horizon + 0.1
    n0 = 1000.0 / band
    return build_scenario(
        n_age=n_age, a_max=a_max, n_steps=int(round(horizon / (a_max / n_age))),
        gamma=SIR_GAMMA, m0=SIR_BETA,
        s0=lambda a: (1 - i_share) * n0 if a < band else 0.0,
        i0=lambda a: i_share * n0 if a < band else 0.0,
    )


def sir_peak_error(scen):
    """Relative peak mismatch of aggregate I against a fine RK4 oracle."""
    traj = scen.simulate()
    da = scen.age_grid.da
    S = da * traj.X[:, 0].sum(axis=1)
    I = da * traj.X[:, 1].sum(axis=1)
    N = traj.N[0]

    def rhs(t, y):
        s, i, r = y
        return np.array([-SIR_BETA * s * i / N,
                         SIR_BETA * s * i / N - SIR_GAMMA * i,
                         SIR_GAMMA * i])

    n_sub = 100 * scen.time_grid.n_steps
    _, path = rk4_path(rhs, [S[0], I[0], N - S[0] - I[0]], 0.0,
                       scen.time_grid.t_end, n_sub)
    I_oracle = path[::100, 1]
    assert 0 < I_oracle.argmax() < len(I_oracle) - 1  # interior epidemic peak
    assert S[-1] < S[0]
    return abs(I.max() - I_oracle.max()) / I_oracle.max()


def test_homogeneous_sir_against_rk4():
    assert sir_peak_error(sir_scenario(n_age=128)) < 0.02


def test_transmission_shutdown():
    # population confined to young cells so no cohort exits within the horizon
    scen = build_scenario(n_age=16, a_max=8.0, n_steps=5, gamma=0.2, m0=3.0,
                          s0=lambda a: 1.0 if a < 5.0 else 0.0,
                          i0=lambda a: 0.05 if a < 5.0 else 0.0,
                          theta_level=0.0)
    traj = scen.simulate()
    da = scen.age_grid.da
    I = da * traj.X[:, 1].sum(axis=1)
    S = da * traj.X[:, 0].sum(axis=1)
    assert np.all(np.diff(I) <= 1e-14)
    assert S[-1] == pytest.approx(S[0], rel=1e-12)  # no new infections


def test_positivity_random_scenarios():
    rng = np.random.default_rng(100)
    for _ in range(25):
        n_age = int(rng.integers(8, 25))
        scen = build_scenario(
            n_age=n_age,
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
            i0=float(rng.uniform(0.0, 0.5)),
            r0=float(rng.uniform(0.0, 0.5)),
            theta_level=float(rng.uniform(0.0, 1.0)),
            eta_level=float(rng.uniform(0.0, 1.0)),
            c_level=float(rng.uniform(0.0, 0.2)),
        )
        assert np.all(scen.simulate().X >= 0.0)

    # positivity rests on m >= 0 alone: dense tables with zero cells, profiles of
    # either sign (zeros included) and random block policies over the control box
    def divisors(n):
        return [d for d in range(1, n + 1) if n % d == 0]

    rng = np.random.default_rng(101)
    for trial in range(30):
        n_age, n_steps = int(rng.choice([8, 12, 16, 24])), int(rng.choice([4, 6, 8, 12]))
        kind = trial % 3
        if kind == 0:
            kernel = rng.uniform(0.0, 4.0 / n_age, (n_age, n_age))
            kernel[rng.uniform(size=kernel.shape) < 0.3] = 0.0
        else:
            g = rng.uniform(0.0, 2.0, n_age)
            g[rng.uniform(size=n_age) < 0.2] = 0.0
            kernel = ee.RankOneKernel(float(rng.uniform(0.0, 4.0)), g if kind == 1 else -g)
        scen = build_scenario(
            n_age=n_age, a_max=float(rng.uniform(4.0, 12.0)), n_steps=n_steps,
            mu_s=float(rng.uniform(0.0, 0.3)), mu_r=float(rng.uniform(0.0, 0.3)),
            mu_i=float(rng.uniform(0.0, 0.5)), gamma=float(rng.uniform(0.0, 1.0)),
            beta=float(rng.uniform(0.0, 0.1)), xi=float(rng.uniform(0.0, 1.0)),
            kernel=kernel, psi=float(rng.uniform(0.0, 2.0)),
            s0=float(rng.uniform(0.1, 2.0)), i0=lambda a: float(rng.uniform(0.0, 0.5)),
            r0=float(rng.uniform(0.0, 0.5)))
        policy = random_block_policy(
            scen, rng, n_time_blocks=int(rng.choice(divisors(n_steps))),
            n_age_blocks=int(rng.choice(divisors(n_age))), theta_range=(0.0, 1.0),
            eta_range=(0.0, 1.0), c_range=(0.0, 0.2))
        assert np.all(scen.simulate(policy).X >= 0.0)


def mckendrick_error(n_age, mu_fn, horizon=2.0, a_max=8.0):
    """Normalized sup error against the closed-form aging solution."""
    scen = build_scenario(
        n_age=n_age, a_max=a_max,
        n_steps=int(round(horizon / (a_max / n_age))),
        mu_s=mu_fn,
        s0=lambda a: smooth_bump(np.array((a - 2.5) / 1.5))[()],
    )
    traj = scen.simulate()
    grid = scen.age_grid
    t_end = scen.time_grid.t_end
    a = grid.nodes
    s0_fn = lambda x: smooth_bump(np.array((x - 2.5) / 1.5))[()]

    from scipy.integrate import quad
    exact = np.zeros(grid.n_age)
    for j, aj in enumerate(a):
        born = aj - t_end
        if born < 0:
            continue
        integral = quad(mu_fn, born, aj)[0]
        exact[j] = s0_fn(born) * np.exp(-integral)

    err = np.max(np.abs(traj.X[-1, 0] - exact))
    return err / np.max(np.abs(exact))


def test_mckendrick_age_dependent_convergence_order():
    mu_fn = lambda age: 0.05 + 0.02 * age
    dts, errs = [], []
    for n_age in (32, 64, 128):
        errs.append(mckendrick_error(n_age, mu_fn))
        dts.append(8.0 / n_age)
    assert errs[0] < 0.05
    assert fit_order(dts, errs) >= 0.9


def test_grid_refinement_aggregate_consistency():
    # controlled run: aggregates at (da, da/2) differ by O(da)
    def run(n_age):
        scen = build_scenario(
            n_age=n_age, a_max=8.0, n_steps=n_age,  # horizon 8 years
            mu_s=0.01, mu_i=0.1, gamma=0.6, beta=0.05, m0=2.0, xi=0.1,
            s0=lambda a: 1.0 + 0.2 * np.cos(a), i0=0.01,
            theta_level=0.7, eta_level=0.8, c_level=0.05,
            production=ee.LinearProduction(a_k=0.04, a_l=1.0), K0=50.0,
        )
        traj = scen.simulate()
        return np.array([traj.N[-1], traj.Xi[-1], traj.K[-1]])

    coarse, mid, fine = run(32), run(64), run(128)
    d1 = np.abs(mid - coarse)
    d2 = np.abs(fine - mid)
    assert np.all(d2 <= 0.75 * d1 + 1e-12)


def test_simulate_extinction_carries_step_index():
    # catastrophic mortality pushes N below the extinction floor
    scen = build_scenario(n_age=8, n_steps=6, mu_s=50.0, mu_r=50.0,
                          s0=1.0, i0=0.0, m0=1.0)
    with pytest.raises(ee.ExtinctPopulation) as exc_info:
        scen.simulate()
    assert exc_info.value.step_index == 1


def test_simulate_overflow_raises_nonfinite():
    scen = build_scenario(n_age=8, n_steps=6, K0=1e308,
                          production=ee.LinearProduction(a_k=200.0, a_l=0.0))
    with np.errstate(over="ignore"):
        with pytest.raises(ee.NonFiniteState) as exc_info:
            scen.simulate()
    assert exc_info.value.step_index == 0


def test_trajectory_aggregates_recomputable():
    rng = np.random.default_rng(31)
    scen = build_scenario(
        n_age=16, n_steps=10, mu_s=0.02, mu_r=0.02, mu_i=0.15, gamma=0.4,
        beta=0.04, xi=0.3, m0=2.0, psi=1.0, i0=0.05,
        production=ee.LinearProduction(a_k=0.03, a_l=1.0),
        congestion=ee.LinearCongestion(d1=0.2), K0=60.0, c_level=0.1,
    )
    from util import random_block_policy
    policy = random_block_policy(scen, rng, n_time_blocks=5, n_age_blocks=2,
                                 c_range=(0.0, 0.2))
    traj = scen.simulate(policy)
    da = scen.age_grid.da
    for k in range(scen.time_grid.n_steps + 1):
        x = traj.X[k]
        c_t, th_t, et_t = policy[:, k]
        N = da * x.sum()
        assert traj.N[k] == pytest.approx(N, rel=1e-10)
        Xi = ee.critical_load(x[1], scen.epi, da)
        assert traj.Xi[k] == pytest.approx(Xi, rel=1e-10)
        assert traj.L[k] == pytest.approx(ee.labor_supply(x, th_t, scen.econ, da),
                                          rel=1e-10)
        assert traj.Y[k] == pytest.approx(scen.econ.F(traj.K[k], traj.L[k]),
                                          rel=1e-10)
        assert traj.C[k] == pytest.approx(ee.consumption_total(x, c_t, da), rel=1e-10)
        assert traj.D_cost[k] == pytest.approx(
            ee.testing_cost(x, et_t, scen.econ, da), rel=1e-10, abs=1e-14)
        assert traj.deaths_flow[k] == pytest.approx(
            ee.deaths_flow(x[1], ee.infection_mortality(scen.epi, Xi), da),
            rel=1e-10, abs=1e-14)


def test_policy_box_validation():
    # simulate checks the policy array: c >= 0, theta and eta in [0, 1]
    scen = build_scenario(n_age=8, a_max=8.0, n_steps=2)
    for row, value, text in ((0, -1.0, "consumption control must be nonnegative"),
                             (1, 1.4, "theta control must lie in"),
                             (2, -0.1, "eta control must lie in")):
        bad = np.array(scen.policy)
        bad[row] = value
        with pytest.raises(ee.ConfigurationError, match=text):
            scen.simulate(bad)


def test_simulate_rejects_mismatched_grids():
    scen = build_scenario(n_age=16, n_steps=4)
    short_tg = ee.TimeGrid.aligned(scen.age_grid, n_steps=2)
    short_policy = np.reshape([0.0, 1.0, 1.0], (3, 1, 1)) * np.ones((short_tg.n_steps + 1, 16))
    with pytest.raises(ee.ConfigurationError):
        ee.simulate(scen.initial, scen.K0, short_policy, scen.epi, scen.econ,
                    scen.time_grid)
    misaligned = ee.TimeGrid(t0=0.0, dt=0.3, n_steps=4)
    with pytest.raises(ee.ConfigurationError):
        ee.simulate(scen.initial, scen.K0, scen.policy, scen.epi, scen.econ,
                    misaligned)


def test_simulate_rejects_wrong_length_economy_profiles():
    scen = build_scenario(n_age=16, n_steps=4)
    short = dataclasses.replace(scen.econ, alpha=np.ones(8), e=np.ones(8))
    with pytest.raises(ee.ConfigurationError, match="alpha and e"):
        dataclasses.replace(scen, econ=short).simulate()


# ----------------------------------------------------------------------
# the array-native trajectory core
# ----------------------------------------------------------------------

def core_scenario(kernel=None, n_age=16, **kw):
    """Every coupling active: overload mortality, births, production, testing cost."""
    args = dict(
        n_age=n_age, n_steps=8, mu_s=0.02, mu_r=0.02, mu_i=0.15, gamma=0.4,
        beta=0.04, xi=0.3, m0=2.0, kernel=kernel, psi=1.0, xi_cap=0.5, smooth=0.2,
        i0=0.05, production=ee.LinearProduction(a_k=0.03, a_l=1.0),
        congestion=ee.LinearCongestion(d1=0.2), K0=60.0)
    return build_scenario(**{**args, **kw})


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m0=st.one_of(st.just(0.0), st.floats(1e-6, 4.0)),
       n_age=st.sampled_from([8, 12, 16, 24]))
def test_rank_one_kernel_matches_dense_table(seed, m0, n_age):
    rng = np.random.default_rng(seed)
    g = rng.uniform(0.1, 2.0, n_age)
    dense = m0 * np.outer(g, g)
    scen_f = core_scenario(ee.RankOneKernel(m0, g), n_age=n_age)
    scen_d = core_scenario(dense, n_age=n_age)
    policy = random_block_policy(scen_f, rng, n_time_blocks=4, n_age_blocks=2)
    tf, td = scen_f.simulate(policy), scen_d.simulate(policy)
    for name in ("X", "K", "N", "Xi", "deaths_flow", "L", "D_cost"):
        np.testing.assert_allclose(getattr(tf, name), getattr(td, name), rtol=1e-12,
                                   atol=0.0, err_msg=name)

    # costate signs chosen so that no term of H1 cancels another
    costate = ee.CostateField(p1=-rng.uniform(0.1, 1.0, n_age),
                              p2=rng.uniform(0.1, 1.0, n_age),
                              p3=rng.uniform(-1.0, 1.0, n_age), Q=0.5)
    for k in (0, 4, 8):
        h1 = [ee.h1_part(t.X[k], float(t.K[k]), costate, *policy[:, k], s)
              for s, t in ((scen_f, tf), (scen_d, td))]
        assert h1[0] == pytest.approx(h1[1], rel=1e-12, abs=0.0)


def test_dense_kernel_is_read_only():
    # EpiParams keeps one frozen copy of a dense table: the caller's array stays writable
    g = np.linspace(0.5, 1.5, 16)
    dense = 2.0 * np.outer(g, g)
    scen = core_scenario(dense)
    with pytest.raises(ValueError, match="read-only"):
        scen.epi.m[0, 0] = 0.0
    dense[0, 0] = 7.0
    assert scen.epi.m[0, 0] == 2.0 * g[0] ** 2

    table = ee.table_kernel(scen.age_grid, dense.tolist())
    params = dataclasses.replace(scen.epi, m=table)
    assert params.m is table and not table.flags.writeable
    with pytest.raises(ee.ConfigurationError, match="contact kernel table: values must be finite"):
        dataclasses.replace(scen.epi, m=np.full((16, 16), np.nan))


@pytest.mark.parametrize("rank_one", [True, False])
def test_repeated_step_reproduces_simulate_bitwise(rank_one):
    g = np.linspace(0.5, 1.5, 16)
    kernel = ee.RankOneKernel(2.0, g) if rank_one else 2.0 * np.outer(g, g)
    scen = core_scenario(kernel)
    policy = random_block_policy(scen, np.random.default_rng(5), n_time_blocks=4,
                                 n_age_blocks=2, c_range=(0.0, 0.2))
    traj = scen.simulate(policy)
    n_floor = scen.n_floor_rel * scen.initial.total_population()
    state, K = scen.initial, scen.K0
    for k in range(scen.time_grid.n_steps):
        state, K = ee.step(state, K, *policy[:, k], scen.epi, scen.econ,
                           scen.time_grid.dt, n_floor)
        assert np.array_equal(np.stack(state.as_triple()), traj.X[k + 1])
        assert K == traj.K[k + 1]


def test_simulate_rejects_negative_densities():
    # only a negative contact rate could make a density negative, and the kernel
    # rejects one where it is built: a sign-changing profile, m0 < 0, a negative cell
    g = np.where(np.arange(16) < 8, 1.0, -1.0)
    with pytest.raises(ee.ConfigurationError, match="contact rates must be nonnegative"):
        ee.RankOneKernel(5.0, g)
    with pytest.raises(ee.ConfigurationError, match="contact rates must be nonnegative"):
        ee.RankOneKernel(-5.0, np.ones(16))
    dense = np.ones((16, 16))
    dense[3, 12] = -1e-3
    with pytest.raises(ee.ConfigurationError, match="contact kernel table must be nonnegative"):
        core_scenario(dense)
    with pytest.raises(ee.ConfigurationError, match="contact kernel table must be nonnegative"):
        ee.table_kernel(ee.AgeGrid(a_max=8.0, n_age=16), dense)
    # a profile of one sign gives rates >= 0, whatever that sign
    assert np.all(ee.RankOneKernel(5.0, -np.abs(g)) @ np.ones(16) >= 0.0)


# ----------------------------------------------------------------------
# the batch axis: each row of a batched run is its single run
# ----------------------------------------------------------------------

TRAJECTORY_ARRAYS = ("X", "K", "N", "Xi", "L", "Y", "C", "D_cost", "deaths_flow")


def simulate_batch(scen, policies):
    return batch_runs(scen.initial, scen.K0, policies, scen.epi, scen.econ,
                      scen.time_grid, scen.n_floor_rel)


def assert_same_run(row, single):
    """``row`` is ``single`` bit for bit: states, capital, the seven aggregates and
    the feasibility summary."""
    for name in TRAJECTORY_ARRAYS:
        assert getattr(row, name).tobytes() == getattr(single, name).tobytes(), name
    assert row.feasible == single.feasible
    for name in ("k_violation", "min_K"):
        assert np.float64(getattr(row, name)).tobytes() == \
            np.float64(getattr(single, name)).tobytes(), name


def _production(kind):
    if kind == "linear":
        return ee.LinearProduction(a_k=0.03, a_l=1.0)
    if kind == "ces":
        return ee.CESProduction(scale=1.2, omega=0.3, substitution=0.5, mpk_cap=0.4)
    with pytest.warns(UserWarning, match="not globally Lipschitz"):
        return ee.CobbDouglasProduction(scale=1.0, omega=0.35)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), table=st.booleans(),
       production=st.sampled_from(["linear", "ces", "cobb_douglas"]),
       power_phi=st.booleans(), concave=st.booleans(), complement=st.booleans(),
       batch=st.sampled_from([1, 2, 5]))
def test_simulate_batch_rows_equal_single_runs(seed, table, production, power_phi, concave,
                                               complement, batch):
    rng = np.random.default_rng(seed)
    g = rng.uniform(0.2, 1.5, 16)
    m0 = float(rng.uniform(0.5, 3.0))
    kernel = m0 * np.outer(g, rng.uniform(0.2, 1.5, 16)) if table else ee.RankOneKernel(m0, g)
    scen = core_scenario(
        kernel, production=_production(production),
        phi=ee.PowerLockdown(q=0.7) if power_phi else ee.AffineLockdown(ell=0.6),
        congestion=(ee.ConcavePowerCongestion(d1=0.3, p=0.5) if concave
                    else ee.LinearCongestion(d1=0.3)))
    if complement:
        scen = dataclasses.replace(scen, econ=dataclasses.replace(scen.econ,
                                                                  cost_complement=True))
    # consumption up to 3 drives capital below zero in some rows
    policies = np.stack([random_block_policy(scen, rng, n_time_blocks=4, n_age_blocks=2,
                                             theta_range=(0.0, 1.0), eta_range=(0.0, 1.0),
                                             c_range=(0.0, 3.0)) for _ in range(batch)])
    rows = simulate_batch(scen, policies)
    assert len(rows) == batch
    for policy, row in zip(policies, rows):
        assert_same_run(row, scen.simulate(policy))
        assert row.X.base is not None  # a view of the batch's states, not a copy


def _failing_rows():
    """A scenario and a policy stack whose rows fail in different ways at different steps.

    No births and a raised extinction floor: the more infection (theta), the
    sooner a row's population reaches the floor.  An overload slope of 1e308
    with zero baseline mortality in every other cell: at high infection the
    multiplier overflows, 0 * inf turns the state non-finite.  Consumption of
    1e308 at one time node makes that step's capital -inf.
    """
    scen = build_scenario(n_age=8, a_max=8.0, n_steps=6, mu_i=np.array([0.0, 2.0] * 4),
                          gamma=0.2, m0=3.0, xi=0.5, i0=0.05, psi=1e308, xi_cap=-1.35,
                          production=ee.LinearProduction(a_k=0.03, a_l=1.0), K0=5.0,
                          c_level=0.1, n_floor_rel=0.23)
    rows = ((0.1, None), (0.4, None), (0.6, None), (0.8, None), (1.0, None),
            (1.0, 1), (0.8, 5), (0.1, 2))  # (theta, the node of the consumption spike)
    policies = np.repeat(scen.policy[None], len(rows), axis=0)
    for policy, (theta, spike) in zip(policies, rows):
        policy[1] = theta
        if spike is not None:
            policy[0, spike] = 1e308
    return scen, policies


def test_simulate_batch_failed_rows_match_single_runs():
    scen, policies = _failing_rows()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = simulate_batch(scen, policies)
        singles = []
        for policy in policies:
            try:
                singles.append(scen.simulate(policy))
            except ee.ModelError as err:
                singles.append(err)
    for row, single in zip(rows, singles):
        if isinstance(single, ee.ModelError):
            assert type(row) is type(single)
            assert (str(row), row.step_index) == (str(single), single.step_index)
        else:
            assert_same_run(row, single)
    outcomes = [(type(r).__name__, r.step_index) if isinstance(r, ee.ModelError) else None
                for r in rows]
    floor, state = "ExtinctPopulation", "NonFiniteState"
    # the design: a success, the floor at two steps (the last node among them),
    # a non-finite state, a non-finite capital, and the two ties of one step
    assert outcomes == [None, (floor, 6), (floor, 6), (floor, 5), (state, 1),
                        (state, 1), (floor, 5), (state, 2)]
    assert str(rows[4]) == str(rows[5]) == "state update produced non-finite densities"
    assert str(rows[7]) == "capital update produced -inf"


def _signed_zeros(rng, values, share=0.25):
    """``values`` with about ``share`` of the entries set to 0.0 or -0.0."""
    zero = rng.random(values.shape) < share
    return np.where(zero, np.where(rng.random(values.shape) < 0.5, 0.0, -0.0), values)


def _same_bits(a, b):
    """Equal bit for bit, but for the sign of a NaN (meaningless in a failed row)."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), batch=st.sampled_from([None, 1, 4]),
       table=st.booleans(), gamma_zeros=st.booleans(), overflow=st.booleans(),
       step=st.booleans(), fixed=st.booleans(), shared=st.booleans(),
       complement=st.booleans(), a_max=st.sampled_from([8.0, 3.0]))
def test_node_equals_reference_kernel_bitwise(seed, batch, table, gamma_zeros, overflow, step,
                                              fixed, shared, complement, a_max):
    # the stepping kernel against its arithmetic as first written (tests/util.py):
    # aggregates, next states, capitals and each failed row's error, for one state
    # or a batch, with signed zeros everywhere (a cell whose s, i and r are all
    # zeros of drawn signs tells a negated sum from a sum of negated terms), zero
    # recovery rates or none, overflow rows whose critical load is infinite and whose
    # mortality is 0 * inf = NaN, a floor some rows fail and a capital that overflows
    rng = np.random.default_rng(seed)
    n_age, rows = 8, batch or 1
    grid = ee.AgeGrid(a_max=a_max, n_age=n_age)
    da = grid.da

    def coef(lo, hi, shape=n_age):
        return _signed_zeros(rng, rng.uniform(lo, hi, shape))

    g = rng.uniform(0.2, 1.5, n_age)
    gamma = coef(0.1, 0.5) if gamma_zeros else rng.uniform(0.1, 0.5, n_age)
    params = ee.EpiParams(
        grid=grid, mu_S=coef(0.0, 0.1), mu_R=coef(0.0, 0.1), mu_I_base=coef(0.0, 0.3),
        gamma=gamma, beta=coef(0.0, 0.1), xi=rng.uniform(0.3, 1.0, n_age),
        m=coef(0.0, 3.0, (n_age, n_age)) if table else ee.RankOneKernel(2.0, g),
        saturation=ee.SaturationSpec(xi_cap=0.5, psi=1.0, smooth=0.2))
    econ = ee.EconParams(alpha=coef(0.5, 1.0), e=coef(0.5, 1.0), delta=0.05,
                         F=ee.CESProduction(scale=1.2, omega=0.3, substitution=0.5,
                                            mpk_cap=0.4),
                         phi=ee.AffineLockdown(ell=0.6), D=ee.LinearCongestion(d1=0.3),
                         cost_complement=complement)
    x = _signed_zeros(rng, rng.uniform(0.0, 1.0, (rows, 3, n_age)), share=0.15)
    cells = rng.random((rows, n_age)) < 0.25  # cells whose s, i and r are all zeros
    x = np.where(cells[:, None], np.where(rng.random(x.shape) < 0.5, 0.0, -0.0), x)
    n_floor = rng.choice([0.0, 0.5, 1.0]) * da * (x[0, 0] + x[0, 1] + x[0, 2]).sum()
    if overflow:
        x[rng.integers(rows), 1] = 1e308
    n_slices = 1 if shared else rows
    c = coef(0.0, 2.0, (n_slices, n_age))
    c[rng.random(n_slices) < 0.2] = 1e308  # drives a capital to -inf
    theta, eta = coef(0.0, 1.0, (n_slices, n_age)), coef(0.0, 1.0, (n_slices, n_age))
    K = rng.uniform(0.0, 100.0, rows)
    if batch is None:
        x, K, c, theta, eta = x[0], K[0], c[0], theta[0], eta[0]
    elif shared:
        c, theta, eta = c[0], theta[0], eta[0]
    # the kernel takes a batch component-major, (3, B, n_age); the reference (B, 3, n_age)
    x_node = x if batch is None else np.ascontiguousarray(x.swapaxes(0, 1))
    got_out, want_out = ((np.full(x_node.shape, 7.0), np.full(x.shape, 7.0)) if step
                         else (None, None))
    with np.errstate(all="ignore"):
        got = epi._node(x_node, K, c, theta, eta, params, econ, da, da, n_floor, got_out,
                        epi._fixed(params, da) if fixed else None)
        want = reference_node(x, K, c, theta, eta, params, econ, da, da, n_floor, want_out)
    for have, expect in zip(got[0], want[0]):
        assert np.asarray(have).tobytes() == np.asarray(expect).tobytes()
    assert (got[1] is None) == (want[1] is None)
    if step:
        got_rows = got_out if batch is None else got_out.swapaxes(0, 1)
        assert np.asarray(got[1]).tobytes() == np.asarray(want[1]).tobytes()
        assert _same_bits(got_rows, want_out)
        stepped = [b for b in range(rows) if b not in want[2]]  # every bit, NaN signs too
        assert got_rows.reshape(rows, 3, n_age)[stepped].tobytes() == \
            want_out.reshape(rows, 3, n_age)[stepped].tobytes()
    assert got[2].keys() == want[2].keys()
    for b, err in want[2].items():
        assert (type(got[2][b]), str(got[2][b])) == (type(err), str(err))


@pytest.mark.parametrize("run", ["simulate", "simulate_batch", "score"])
@pytest.mark.parametrize("field, value", [("K0", np.nan), ("K0", np.inf), ("K0", -1.0),
                                          ("n_floor_rel", np.nan),
                                          ("n_floor_rel", -1e-9)])
def test_run_rejects_bad_start_arguments(run, field, value):
    # checked once where a run enters, not met later as a model error (or not at all)
    scen = dataclasses.replace(build_scenario(n_age=8, a_max=8.0, n_steps=4), **{field: value})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ee.ConfigurationError, match=field):
            if run == "simulate":
                scen.simulate()
            elif run == "simulate_batch":
                simulate_batch(scen, scen.policy[None])
            else:
                scen.score(np.ones((1, 3, 1, 1)))


# ----------------------------------------------------------------------
# scoring without trajectories: each row of Scenario.score is evaluate on its run
# ----------------------------------------------------------------------

def report_bytes(report):
    """A score as bytes: an EvalReport's numbers (with their types) and flag, or a
    ModelError's class, text and step."""
    if isinstance(report, ee.ModelError):
        return type(report).__name__, str(report), report.step_index

    def exact(x):
        return None if x is None else (type(x), np.float64(x).tobytes())

    return (exact(report.value), report.feasible, exact(report.violation),
            exact(report.tail_bound), {k: exact(v) for k, v in report.components.items()})


def looped_scores(scen, blocks):
    """Reference for ``Scenario.score``: evaluate(simulate(row)) for each expanded row."""
    scores = []
    for row in blocks:
        policy = ee.expand_blocks(row, scen.time_grid, scen.age_grid)
        try:
            scores.append(scen.evaluate(policy, scen.simulate(policy)))
        except ee.ModelError as err:
            scores.append(err)
    return scores


def assert_scores_equal(scen, blocks, batch_rows=None):
    """``scen.score(blocks)`` is the looped reference as bytes; ``batch_rows`` caps
    the rows of one batch (None: the module's budget)."""
    cells = objectives._BATCH_CELLS
    if batch_rows is not None:
        objectives._BATCH_CELLS = batch_rows * scen.age_grid.n_age
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = scen.score(blocks)
    finally:
        objectives._BATCH_CELLS = cells
    want = looped_scores(scen, blocks)
    assert [report_bytes(r) for r in scores] == [report_bytes(r) for r in want]
    return scores


_TARGETS = ("J1", "J2", "J3", "J4", "J5", "J6")


@st.composite
def objective_params(draw):
    """One of the six targets or a composite, with the options that change their sums."""
    which = draw(st.sampled_from(_TARGETS + ("composite",)))
    composite = None
    if which == "composite":
        composite = draw(st.dictionaries(st.sampled_from(_TARGETS), st.floats(-5.0, 5.0),
                                         min_size=2))
        composite = {k: abs(w) if k == "J1" else w for k, w in composite.items()}
        which = "J1"
    utility = draw(st.one_of(
        st.builds(ee.ShiftedCRRAUtility, u0=st.floats(0.0, 1.0), sigma=st.floats(0.1, 0.9),
                  eps_c=st.floats(0.0, 0.1), w0=st.floats(0.1, 1.0)),
        st.builds(ee.SeparableUtility, b=st.floats(0.0, 2.0))))
    return ee.ObjectiveParams(
        rho=draw(st.floats(0.01, 0.5)), utility=utility, which=which,
        nu=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.05, 0.95)),
        T_num=draw(st.one_of(st.none(), st.floats(0.0, 6.0))),
        j6_discounted=draw(st.booleans()), j6_sign=draw(st.sampled_from([1.0, -1.0])),
        composite=composite)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), table=st.booleans(),
       production=st.sampled_from(["linear", "ces", "cobb_douglas"]),
       power_phi=st.booleans(), concave=st.booleans(), complement=st.booleans(),
       batch=st.sampled_from([1, 2, 5]), shape=st.sampled_from([(1, 1), (2, 2), (4, 2), (8, 4)]),
       obj=objective_params(), n_floor_rel=st.sampled_from([1e-9, 0.575, 0.5805]),
       batch_rows=st.sampled_from([None, 1, 3]))
def test_score_rows_equal_evaluate_on_single_runs(seed, table, production, power_phi,
                                                  concave, complement, batch, shape, obj,
                                                  n_floor_rel, batch_rows):
    # the families of the batch test and every target; consumption up to 4.5
    # drives capital below zero in about a quarter of the rows, and the raised
    # floors (N falls to 0.57-0.58 of N0 as cohorts age out) stop some rows
    rng = np.random.default_rng(seed)
    g = rng.uniform(0.2, 1.5, 16)
    m0 = float(rng.uniform(0.5, 3.0))
    kernel = m0 * np.outer(g, rng.uniform(0.2, 1.5, 16)) if table else ee.RankOneKernel(m0, g)
    scen = core_scenario(
        kernel, production=_production(production),
        phi=ee.PowerLockdown(q=0.7) if power_phi else ee.AffineLockdown(ell=0.6),
        congestion=(ee.ConcavePowerCongestion(d1=0.3, p=0.5) if concave
                    else ee.LinearCongestion(d1=0.3)), n_floor_rel=n_floor_rel)
    scen = dataclasses.replace(scen, obj=obj, econ=dataclasses.replace(
        scen.econ, cost_complement=complement))
    blocks = rng.uniform(0.0, 1.0, (batch, 3, *shape)) * np.array([4.5, 1.0, 1.0])[:, None, None]
    assert_scores_equal(scen, blocks, batch_rows)


@pytest.mark.parametrize("batch_rows", [None, 1, 3])
@pytest.mark.parametrize("which", _TARGETS)
def test_score_failed_rows_match_single_runs(which, batch_rows):
    # the failures of the batch test, one time block per step: the floor at two
    # steps, a non-finite state and a non-finite capital, among rows that succeed
    scen, policies = _failing_rows()
    scen = dataclasses.replace(scen, obj=dataclasses.replace(scen.obj, which=which))
    blocks = np.ascontiguousarray(policies[:, :, :-1, :1])
    scores = assert_scores_equal(scen, blocks, batch_rows)
    kinds = [type(r).__name__ for r in scores]
    assert kinds.count("EvalReport") >= 1
    assert {"ExtinctPopulation", "NonFiniteState"} <= set(kinds)


@pytest.mark.parametrize("row, value", [(0, -1.0), (1, 1.5), (2, -0.5), (1, np.nan)])
def test_score_checks_the_box_on_the_blocks(row, value):
    # the blocks hold the values their policy expands to: the same rejection
    scen = core_scenario()
    blocks = np.full((2, 3, 2, 2), 0.5)
    blocks[1, row, 1, 0] = value
    policy = ee.expand_blocks(blocks[1], scen.time_grid, scen.age_grid)
    with pytest.raises(ee.ConfigurationError) as single:
        scen.simulate(policy)
    with pytest.raises(ee.ConfigurationError) as scored:
        scen.score(blocks)
    assert str(scored.value) == str(single.value)


# ----------------------------------------------------------------------
# late joins: a scored row that copies row 0 up to a time block joins the batch there
# ----------------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), table=st.booleans(), obj=objective_params(),
       ntb=st.sampled_from([1, 2, 4, 8]), batch=st.integers(1, 6),
       n_floor_rel=st.sampled_from([1e-9, 0.5805, 0.63, 0.6815]),
       batch_rows=st.sampled_from([None, 1, 3]), data=st.data())
def test_rows_joining_row_0_equal_evaluate_on_single_runs(seed, table, obj, ntb, batch,
                                                          n_floor_rel, batch_rows, data):
    # each row after row 0 copies row 0's blocks before a drawn time block (all of
    # them: the row is row 0) and joins the batch at that block's first node; the
    # raised floors (N falls to 0.63-0.68 of N0 at steps 6 and 7, 0.58 at step 8)
    # fail rows, row 0 among them, before and after the others join
    rng = np.random.default_rng(seed)
    g = rng.uniform(0.2, 1.5, 16)
    m0 = float(rng.uniform(0.5, 3.0))
    kernel = m0 * np.outer(g, rng.uniform(0.2, 1.5, 16)) if table else ee.RankOneKernel(m0, g)
    scen = dataclasses.replace(core_scenario(kernel, n_floor_rel=n_floor_rel), obj=obj)
    blocks = rng.uniform(0.0, 1.0, (batch + 1, 3, ntb, 2)) * np.array([4.5, 1.0, 1.0])[:, None,
                                                                                       None]
    for b in range(1, batch + 1):
        j = data.draw(st.integers(0, ntb), label=f"row {b} copies row 0 before block")
        blocks[b, :, :j] = blocks[0, :, :j]
    assert_scores_equal(scen, blocks, batch_rows)


@pytest.mark.parametrize("batch_rows", [None, 1, 3])
def test_rows_joining_after_row_0_failed_carry_its_error(batch_rows):
    # one time block per step; row 0 turns non-finite at step 1, and row b copies it
    # before block b, then runs the batch test's feasible row: rows 2-6 join after
    # row 0 failed (row 6 is row 0) and fail as their own runs do, at step 1
    scen, policies = _failing_rows()
    blocks = np.ascontiguousarray(policies[:, :, :-1, :1])
    stack = np.repeat(blocks[[4]], 7, axis=0)
    for b in range(1, 7):
        stack[b, :, b:] = blocks[0, :, b:]
    scores = assert_scores_equal(scen, stack, batch_rows)
    assert all(str(r) == str(scores[0]) and r.step_index == 1 for r in scores[2:])
    assert len({id(r) for r in scores}) == len(scores)  # each row its own error


@pytest.mark.parametrize("batch_rows", [None, 1, 3])
@pytest.mark.parametrize("which", ["J1", "J3", "J6"])
@pytest.mark.parametrize("base", range(8))
def test_riders_fail_where_row_0s_epidemic_fails(base, which, batch_rows):
    # each failing row of the batch test as row 0, with riders (its theta and eta,
    # other consumption: lower, higher, a spike of 1e308 at node 3) and a row of
    # its own: the riders carry row 0's floor or non-finite state, as their own runs
    # do, fail alone on capital, and take row 0's final state (J3)
    scen, policies = _failing_rows()
    scen = dataclasses.replace(scen, obj=dataclasses.replace(scen.obj, which=which))
    blocks = np.ascontiguousarray(policies[:, :, :-1, :1])
    stack = np.repeat(blocks[[base]], 5, axis=0)
    stack[1, 0] = 0.05
    stack[2, 0] = 0.3
    stack[3, 0, 3] = 1e308
    stack[4] = blocks[(base + 3) % len(blocks)]
    scores = assert_scores_equal(scen, stack, batch_rows)
    if isinstance(scores[0], ee.ModelError) and "capital" not in str(scores[0]):
        assert all(str(r) == str(scores[0]) for r in scores[1:3])


def test_joined_rows_step_only_from_their_node(monkeypatch):
    # rows that copy row 0 before time block j are stepped from j's first node on
    # (one block per 2 steps); a copy of row 0 is not stepped at all
    scen = core_scenario()
    blocks = np.repeat(np.full((1, 3, 4, 2), 0.5), 6, axis=0)
    for b, j in enumerate([None, 0, 1, 3, 2, 4]):
        if j is not None and j < 4:
            blocks[b, 1, j, 0] = 0.25
    want = [report_bytes(r) for r in looped_scores(scen, blocks)]
    rows = []  # the rows of each kernel call
    node = epi._node
    monkeypatch.setattr(epi, "_node", lambda x, *a, **k: rows.append(
        1 if x.ndim == 2 else x.shape[1]) or node(x, *a, **k))
    assert [report_bytes(r) for r in scen.score(blocks)] == want
    assert rows == [2, 2, 3, 3, 4, 4, 5, 5, 5]


# ----------------------------------------------------------------------
# the terms of the controls alone: made once per control slice of a run
# ----------------------------------------------------------------------

class _Counted:
    """A callable that counts its calls."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, *args):
        self.calls += 1
        return self.f(*args)


@pytest.mark.parametrize("batch_rows, n_batches", [(None, 1), (2, 3)])
def test_control_terms_are_made_once_per_time_block_and_batch(monkeypatch, batch_rows,
                                                              n_batches):
    # phi(theta) and the J1 utility u(c, theta) depend on the controls alone: a scored
    # batch makes them once per time block (a row that joins late included), a
    # simulation once per node, and evaluate once on the whole trajectory
    scen = core_scenario(phi=ee.PowerLockdown(q=0.7))
    phi, utility = _Counted(scen.econ.phi), _Counted(scen.obj.utility)
    scen = dataclasses.replace(scen, econ=dataclasses.replace(scen.econ, phi=phi),
                               obj=dataclasses.replace(scen.obj, utility=utility))
    ntb = 4
    blocks = np.random.default_rng(0).uniform(0.2, 0.8, (5, 3, ntb, 2))
    blocks[2, :, :2] = blocks[0, :, :2]  # joins row 0's batch at time block 2
    if batch_rows is not None:
        monkeypatch.setattr(objectives, "_BATCH_CELLS", batch_rows * scen.age_grid.n_age)
    scores = scen.score(blocks)
    assert (phi.calls, utility.calls) == (ntb * n_batches, ntb * n_batches)
    phi.calls = utility.calls = 0
    want = looped_scores(scen, blocks)  # a simulate and an evaluate per row
    assert (phi.calls, utility.calls) == (len(blocks) * (scen.time_grid.n_steps + 1),
                                          len(blocks))
    assert [report_bytes(r) for r in scores] == [report_bytes(r) for r in want]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), table=st.booleans(),
       targets=st.sampled_from([{"J1": 1.0}, {"J2": 1.0}, {"J6": 1.0},
                                {"J1": 1.0, "J6": -2.0}]),
       phi=st.sampled_from([ee.PowerLockdown(q=0.6), ee.PowerLockdown(q=1.7),
                            ee.AffineLockdown(ell=0.6)]),
       crra=st.booleans(), ntb=st.sampled_from([2, 4, 8]), batch=st.integers(4, 9),
       batch_rows=st.sampled_from([2, 3]), n_floor_rel=st.sampled_from([1e-9, 0.63]),
       data=st.data())
def test_score_with_terms_per_time_block_equals_looped_runs(seed, table, targets, phi, crra,
                                                            ntb, batch, batch_rows,
                                                            n_floor_rel, data):
    # the terms of the controls alone are made once per time block and batch, and again
    # when the running rows change: rows joining row 0 late, rows failing (a raised
    # floor, and a consumption of 1e308 that makes one capital -inf mid-run) and
    # batches of 2 or 3 rows leave every score evaluate(simulate(row)) as bytes
    rng = np.random.default_rng(seed)
    g = rng.uniform(0.2, 1.5, 16)
    m0 = float(rng.uniform(0.5, 3.0))
    kernel = m0 * np.outer(g, rng.uniform(0.2, 1.5, 16)) if table else ee.RankOneKernel(m0, g)
    scen = core_scenario(kernel, phi=phi, n_floor_rel=n_floor_rel)
    utility = ee.ShiftedCRRAUtility() if crra else ee.SeparableUtility(b=0.7)
    scen = dataclasses.replace(scen, obj=dataclasses.replace(
        scen.obj, utility=utility, which=next(iter(targets)),
        composite=targets if len(targets) > 1 else None))
    blocks = rng.uniform(0.0, 1.0, (batch, 3, ntb, 2)) * np.array([4.5, 1.0, 1.0])[:, None, None]
    for b in range(1, batch):
        j = data.draw(st.integers(0, ntb), label=f"row {b} copies row 0 before block")
        blocks[b, :, :j] = blocks[0, :, :j]
    spike = data.draw(st.integers(0, batch - 1), label="row with a consumption of 1e308")
    blocks[spike, 0, data.draw(st.integers(0, ntb - 1), label="its time block")] = 1e308
    assert_scores_equal(scen, blocks, batch_rows)
