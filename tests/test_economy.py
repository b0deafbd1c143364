import numpy as np
import pytest

import epiecon as ee

from util import build_scenario, random_block_policy


def make_state(grid, s=1.0, i=0.0, r=0.0):
    return ee.EpiState(grid, np.full(grid.n_age, s),
                       np.full(grid.n_age, i), np.full(grid.n_age, r))


def make_econ(grid, **kw):
    defaults = dict(
        alpha=np.ones(grid.n_age),
        e=np.ones(grid.n_age),
        delta=0.05,
        F=ee.LinearProduction(a_k=0.0, a_l=0.0),
        phi=ee.PowerLockdown(q=1.0),
        D=ee.LinearCongestion(d1=0.0),
    )
    defaults.update(kw)
    return ee.EconParams(**defaults)


def test_labor_laissez_faire_identity():
    grid = ee.AgeGrid(a_max=10.0, n_age=20)
    state = make_state(grid, s=3.0, i=1.0, r=2.0)
    econ = make_econ(grid)
    theta = np.ones(20)
    # phi(1) = 1 so L = int (s + r) alpha da
    L = ee.labor_supply(state.as_triple(), theta, econ, grid.da)
    assert L == pytest.approx((3.0 + 2.0) * 10.0)


def test_labor_zero_when_all_infected():
    grid = ee.AgeGrid(a_max=10.0, n_age=20)
    state = make_state(grid, s=0.0, i=5.0, r=0.0)
    econ = make_econ(grid)
    assert ee.labor_supply(state.as_triple(), np.ones(20), econ, grid.da) == 0.0


def test_labor_half_lockdown_arithmetic():
    # alpha = 1, phi(theta) = theta, S + R = 1000, theta = 0.5 -> L = 500
    grid = ee.AgeGrid(a_max=100.0, n_age=50)
    state = make_state(grid, s=6.0, i=0.0, r=4.0)  # S + R = 1000
    econ = make_econ(grid)
    L = ee.labor_supply(state.as_triple(), np.full(50, 0.5), econ, grid.da)
    assert L == pytest.approx(500.0, rel=1e-12)


def test_labor_monotone_in_theta():
    grid = ee.AgeGrid(a_max=10.0, n_age=16)
    state = make_state(grid, s=1.0, r=0.5)
    econ = make_econ(grid, phi=ee.AffineLockdown(ell=0.8))
    rng = np.random.default_rng(2)
    x = state.as_triple()
    for _ in range(20):
        lo = rng.uniform(0.0, 1.0, 16)
        hi = np.clip(lo + rng.uniform(0.0, 0.5, 16), 0.0, 1.0)
        assert ee.labor_supply(x, hi, econ, grid.da) >= ee.labor_supply(x, lo, econ, grid.da)


def test_consumption_examples():
    grid = ee.AgeGrid(a_max=10.0, n_age=20)
    state = make_state(grid, s=2.0, i=1.0, r=1.0)
    assert ee.consumption_total(state.as_triple(), np.zeros(20), grid.da) == 0.0
    c0 = 0.7
    N = state.total_population()
    C = ee.consumption_total(state.as_triple(), np.full(20, c0), grid.da)
    assert C == pytest.approx(c0 * N)
    # consumption supported only where nobody lives
    sv = np.zeros(20)
    sv[:10] = 1.0
    state2 = ee.EpiState(grid, sv, np.zeros(20), np.zeros(20))
    c = np.zeros(20)
    c[10:] = 5.0
    assert ee.consumption_total(state2.as_triple(), c, grid.da) == 0.0


def test_consumption_stack_rows_equal_slices_exactly():
    # like labor and the testing cost, C sums along the last axis: each row of a
    # (L, n_age) stack, and each node of a node stack, is that slice alone bit
    # for bit, and one slice is the former scalar sum the simulator records
    rng = np.random.default_rng(23)
    n_age, da = 37, 0.3
    x = rng.uniform(0.0, 3.0, (3, n_age))
    stack = rng.uniform(0.0, 2.0, (5, n_age))
    rows = ee.consumption_total(x, stack, da)
    assert rows.shape == (5,)
    for row, c in zip(rows, stack):
        one = ee.consumption_total(x, c, da)
        assert one == row
        assert one == float(da * (c * (x[0] + x[1] + x[2])).sum())
    nodes = rng.uniform(0.0, 3.0, (4, 3, n_age))
    per_node = ee.consumption_total(tuple(nodes[:, k, None] for k in range(3)),
                                    stack[:4, None], da)
    assert per_node.shape == (4, 1)
    for k in range(4):
        assert per_node[k, 0] == ee.consumption_total(nodes[k], stack[k], da)


def test_testing_cost_examples():
    grid = ee.AgeGrid(a_max=10.0, n_age=20)
    econ_lin = make_econ(grid, D=ee.LinearCongestion(d1=2.0))
    state0 = make_state(grid, s=1.0, i=0.0)
    assert ee.testing_cost(state0.as_triple(), np.ones(20), econ_lin, grid.da) == 0.0
    # linear: d1 = 2, int eta i e = 5 -> 10
    state = make_state(grid, s=0.0, i=0.5)  # I = 5 with e = 1, eta = 1
    D = ee.testing_cost(state.as_triple(), np.ones(20), econ_lin, grid.da)
    assert D == pytest.approx(10.0)
    # concave power: d1 = 1, p = 0.5, argument 4 -> 2
    econ_cp = make_econ(grid, D=ee.ConcavePowerCongestion(d1=1.0, p=0.5))
    state4 = make_state(grid, s=0.0, i=0.4)  # I = 4
    D = ee.testing_cost(state4.as_triple(), np.ones(20), econ_cp, grid.da)
    assert D == pytest.approx(2.0)


def test_testing_cost_monotone_and_concave():
    grid = ee.AgeGrid(a_max=10.0, n_age=16)
    econ = make_econ(grid, D=ee.ConcavePowerCongestion(d1=1.5, p=0.7))
    state = make_state(grid, s=0.0, i=1.0)
    rng = np.random.default_rng(4)
    x = state.as_triple()
    for _ in range(20):
        lo = rng.uniform(0.0, 1.0, 16)
        hi = np.clip(lo + rng.uniform(0.0, 0.5, 16), 0.0, 1.0)
        assert ee.testing_cost(x, hi, econ, grid.da) >= ee.testing_cost(x, lo, econ, grid.da)
    # concavity of the scalar map x -> D(x)
    D = econ.D
    for _ in range(20):
        x, y = rng.uniform(0.0, 10.0, 2)
        lam = rng.uniform()
        assert D(lam * x + (1 - lam) * y) >= lam * D(x) + (1 - lam) * D(y) - 1e-12


def test_testing_cost_complement_switch():
    grid = ee.AgeGrid(a_max=10.0, n_age=16)
    econ = make_econ(grid, D=ee.LinearCongestion(d1=1.0), cost_complement=True)
    state = make_state(grid, s=0.0, i=1.0)
    eta = np.full(16, 0.25)
    expected = econ.D(grid.da * ((1 - eta) * state.i).sum())
    assert ee.testing_cost(state.as_triple(), eta, econ, grid.da) == pytest.approx(expected)


def test_capital_step_exponential_decay():
    # Y = C = D = 0, delta = 0.05: 20 Euler steps of dt = 0.05 track e^{-0.05}
    grid = ee.AgeGrid(a_max=10.0, n_age=16)
    econ = make_econ(grid)
    K = 1.0
    for _ in range(20):
        K = ee.capital_step(K, 0.0, 0.0, 0.0, econ, dt=0.05)
    assert K == pytest.approx(np.exp(-0.05), abs=0.003)


def test_capital_steady_state_exact():
    grid = ee.AgeGrid(a_max=10.0, n_age=16)
    econ = make_econ(grid, F=ee.LinearProduction(a_k=0.05, a_l=2.0), delta=0.05)
    L = 7.0
    C = 2.0 * L
    K = 13.0
    assert ee.capital_step(K, econ.F(K, L), C, 0.0, econ, dt=0.25) == K


def test_overconsumption_flags_infeasible():
    scen = build_scenario(n_age=8, n_steps=4, K0=1.0, c_level=5.0, delta=0.05)
    traj = scen.simulate()
    assert not traj.feasible
    assert traj.min_K < 0.0
    assert traj.k_violation > 0.0


def test_budget_identity_random_scenarios():
    rng = np.random.default_rng(21)
    for trial in range(10):
        scen = build_scenario(
            n_age=16, n_steps=12,
            mu_s=0.02, mu_r=0.02, mu_i=0.1, gamma=0.4, beta=0.03,
            xi=0.1, m0=1.0, psi=0.5, xi_cap=2.0,
            production=ee.LinearProduction(a_k=0.03, a_l=1.0),
            congestion=ee.LinearCongestion(d1=0.2),
            i0=0.05, K0=200.0, c_level=0.2,
        )
        policy = random_block_policy(scen, rng, n_time_blocks=4, n_age_blocks=2,
                                     c_range=(0.0, 0.3))
        traj = scen.simulate(policy)
        dt = scen.time_grid.dt
        for k in range(scen.time_grid.n_steps):
            lhs = dt * (traj.Y[k] - traj.C[k] - traj.D_cost[k]
                        - scen.econ.delta * traj.K[k])
            rhs = traj.K[k + 1] - traj.K[k]
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_production_lipschitz_sampled():
    # each F is Lipschitz in K with the constant beside it: a_k for linear F; for
    # CES with s < 0, scale * omega^(1/s) (the marginal product's bound), or the cap
    lin = (ee.LinearProduction(a_k=0.7, a_l=1.0), 0.7)
    ces_complements = (ee.CESProduction(scale=2.0, omega=0.4, substitution=-1.0),
                       2.0 * 0.4 ** (1.0 / -1.0))
    ces_capped = (ee.CESProduction(scale=2.0, omega=0.4, substitution=0.5, mpk_cap=3.0), 3.0)
    rng = np.random.default_rng(8)
    for F, c_f in (lin, ces_complements, ces_capped):
        for _ in range(200):
            K1, K2 = rng.uniform(0.0, 50.0, 2)
            L = rng.uniform(0.0, 20.0)
            assert abs(F(K1, L) - F(K2, L)) <= c_f * abs(K1 - K2) + 1e-10


def test_ces_positive_substitution_requires_cap():
    with pytest.raises(ee.ConfigurationError):
        ee.CESProduction(scale=1.0, omega=0.5, substitution=0.5)


def test_ces_negative_substitution_edges():
    F = ee.CESProduction(scale=1.0, omega=0.5, substitution=-1.0)
    assert F(0.0, 5.0) == 0.0
    assert F(5.0, 0.0) == 0.0
    assert F(2.0, 2.0) == pytest.approx(2.0)


def test_ces_negative_substitution_near_zero_inputs():
    # K^s overflows a float for K this small: F takes its limit 0, not an exception
    F = ee.CESProduction(scale=1.0, omega=0.5, substitution=-2.0)
    assert F(1e-200, 5.0) == 0.0
    assert F(5.0, 1e-200) == 0.0


def test_cobb_douglas_warns():
    with pytest.warns(UserWarning, match="Lipschitz"):
        F = ee.CobbDouglasProduction(scale=1.0, omega=0.3)
    assert F(4.0, 9.0) == pytest.approx(4.0**0.3 * 9.0**0.7)


def test_phi_validation():
    with pytest.raises(ee.ConfigurationError):
        ee.PowerLockdown(q=0.0)
    with pytest.raises(ee.ConfigurationError):
        ee.AffineLockdown(ell=1.5)
    assert ee.PowerLockdown(q=2.0)(1.0) == 1.0
    assert ee.AffineLockdown(ell=0.3)(1.0) == 1.0


def test_congestion_validation():
    with pytest.raises(ee.ConfigurationError):
        ee.ConcavePowerCongestion(d1=1.0, p=1.5)
    with pytest.raises(ee.ConfigurationError):
        ee.LinearCongestion(d1=-1.0)


# ----------------------------------------------------------------------
# array calls of F and D
# ----------------------------------------------------------------------

EDGE_INPUTS = np.array([0.0, 1e-300, 1e-200, -1.0, -1e-3, 0.25, 1.0, 3.7, 1e150, 1e300])


def _former_ces(F, K, L):
    """CES as it was written for Python floats, with the OverflowError -> F = 0 limit."""
    K, L, s = max(K, 0.0), max(L, 0.0), F.substitution
    try:
        raw = F.scale * (F.omega * K**s + (1.0 - F.omega) * L**s) ** (1.0 / s)
    except (ZeroDivisionError, OverflowError):
        raw = 0.0
    if F.mpk_cap is None:
        return raw
    zero_capital = 0.0 if s < 0.0 else F.scale * (1.0 - F.omega) ** (1.0 / s) * L
    return min(raw, zero_capital + F.mpk_cap * K)


def _same_bits(a, b):
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


def _productions():
    with pytest.warns(UserWarning, match="Lipschitz"):
        cobb_douglas = ee.CobbDouglasProduction(scale=1.3, omega=0.35)
    return {
        "linear": (ee.LinearProduction(a_k=0.04, a_l=1.0), None),
        "ces_complements": (ee.CESProduction(scale=2.0, omega=0.4, substitution=-2.0),
                            _former_ces),
        "ces_capped": (ee.CESProduction(scale=2.0, omega=0.4, substitution=0.5, mpk_cap=3.0),
                       _former_ces),
        "cobb_douglas": (cobb_douglas, lambda F, K, L: (
            F.scale * max(K, 0.0) ** F.omega * max(L, 0.0) ** (1.0 - F.omega))),
    }


@pytest.mark.parametrize("name", ["linear", "ces_complements", "ces_capped", "cobb_douglas"])
def test_production_array_call_equals_scalar_calls(name):
    # one array call equals the elementwise scalar calls bit for bit, and the
    # scalar calls equal the Python-float formula
    F, former = _productions()[name]
    rng = np.random.default_rng(17)
    K, L = (np.concatenate([np.repeat(EDGE_INPUTS, EDGE_INPUTS.size),
                            rng.uniform(0.0, 50.0, 200)]),
            np.concatenate([np.tile(EDGE_INPUTS, EDGE_INPUTS.size),
                            rng.uniform(0.0, 20.0, 200)]))
    scalar = [F(float(k), float(l)) for k, l in zip(K, L)]
    assert _same_bits(F(K, L), scalar)
    # the Hamiltonian's stacks call F with scalar capital and one labor value per row
    assert _same_bits(F(3.7, L), [F(3.7, float(l)) for l in L])
    if former is not None:
        assert _same_bits(scalar, [former(F, float(k), float(l)) for k, l in zip(K, L)])


@pytest.mark.parametrize("D, former", [
    (ee.LinearCongestion(d1=0.7), lambda D, x: D.d1 * x),
    (ee.ConcavePowerCongestion(d1=0.7, p=0.6), lambda D, x: D.d1 * max(x, 0.0) ** D.p),
    (ee.ConcavePowerCongestion(d1=0.7, p=1.0), lambda D, x: D.d1 * max(x, 0.0) ** D.p),
])
def test_congestion_array_call_equals_scalar_calls(D, former):
    x = np.concatenate([EDGE_INPUTS, np.random.default_rng(18).uniform(0.0, 30.0, 200)])
    scalar = [D(float(v)) for v in x]
    assert _same_bits(D(x), scalar)
    assert _same_bits(scalar, [former(D, float(v)) for v in x])
