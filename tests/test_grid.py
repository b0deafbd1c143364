import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epiecon as ee

from util import build_scenario


def test_integrate_zero_field():
    grid = ee.AgeGrid(a_max=100.0, n_age=50)
    assert ee.integrate(ee.Field1D.constant(grid, 0.0)) == 0.0


def test_integrate_constant_is_exact():
    grid = ee.AgeGrid(a_max=100.0, n_age=64)
    assert ee.integrate(ee.Field1D.constant(grid, 1.0)) == pytest.approx(100.0, abs=1e-12)


def test_integrate_linear_matches_antiderivative():
    # closed-form oracle: int_0^100 a da = 100^2 / 2
    grid = ee.AgeGrid(a_max=100.0, n_age=200)
    f = ee.Field1D(grid, grid.nodes.copy())
    assert abs(ee.integrate(f) - 5000.0) < 0.01


def test_integrate_nonnegative_fields():
    rng = np.random.default_rng(3)
    grid = ee.AgeGrid(a_max=10.0, n_age=32)
    for _ in range(20):
        f = ee.Field1D(grid, rng.uniform(0.0, 5.0, grid.n_age))
        assert ee.integrate(f) >= 0.0


@settings(max_examples=50, deadline=None)
@given(alpha=st.floats(-10, 10), beta=st.floats(-10, 10), seed=st.integers(0, 1000))
def test_integrate_linearity(alpha, beta, seed):
    rng = np.random.default_rng(seed)
    grid = ee.AgeGrid(a_max=10.0, n_age=24)
    fv = rng.standard_normal(grid.n_age)
    gv = rng.standard_normal(grid.n_age)
    lhs = ee.integrate(ee.Field1D(grid, alpha * fv + beta * gv))
    rhs = alpha * ee.integrate(ee.Field1D(grid, fv)) + beta * ee.integrate(ee.Field1D(grid, gv))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_kernel_zero_field():
    grid = ee.AgeGrid(a_max=10.0, n_age=16)
    m = ee.constant_kernel(grid, 4.0)
    out = ee.integrate_kernel(m, ee.Field1D.constant(grid, 0.0))
    assert np.all(out.values == 0.0)


def test_kernel_constant_reduces_to_integrate():
    rng = np.random.default_rng(7)
    grid = ee.AgeGrid(a_max=10.0, n_age=16)
    f = ee.Field1D(grid, rng.uniform(0.0, 2.0, grid.n_age))
    m0 = 3.5
    out = ee.integrate_kernel(ee.constant_kernel(grid, m0), f)
    expected = m0 * ee.integrate(f)
    assert np.allclose(out.values, expected, rtol=1e-12)


def test_kernel_discrete_delta_brute_force():
    # m(a_j, a_k) = delta_{jk} / da reproduces f; oracle is the explicit double sum
    rng = np.random.default_rng(11)
    grid = ee.AgeGrid(a_max=8.0, n_age=16)
    f = ee.Field1D(grid, rng.uniform(0.0, 1.0, grid.n_age))
    m = np.eye(grid.n_age) / grid.da
    out = ee.integrate_kernel(m, f)
    oracle = np.array([
        sum(grid.da * m[j, k] * f.values[k] for k in range(grid.n_age))
        for j in range(grid.n_age)
    ])
    assert np.allclose(out.values, oracle, rtol=1e-13)
    assert np.allclose(out.values, f.values, rtol=1e-12)


def test_kernel_symmetric_is_self_adjoint_unweighted():
    rng = np.random.default_rng(13)
    grid = ee.AgeGrid(a_max=5.0, n_age=20)
    raw = rng.standard_normal((grid.n_age, grid.n_age))
    m = 0.5 * (raw + raw.T)
    f = rng.standard_normal(grid.n_age)
    g = rng.standard_normal(grid.n_age)
    kf = ee.integrate_kernel(m, ee.Field1D(grid, f)).values
    kg = ee.integrate_kernel(m, ee.Field1D(grid, g)).values
    lhs = grid.da * (kf * g).sum()
    rhs = grid.da * (f * kg).sum()
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_kernel_dimension_mismatch():
    grid = ee.AgeGrid(a_max=8.0, n_age=16)
    with pytest.raises(ee.ConfigurationError):
        ee.integrate_kernel(np.ones((4, 4)), ee.Field1D.constant(grid, 1.0))


def test_age_grid_invariants():
    grid = ee.AgeGrid(a_max=80.0, n_age=40)
    nodes = grid.nodes
    assert np.all(np.diff(nodes) > 0)
    assert nodes[0] > 0.0 and nodes[-1] < grid.a_max
    assert grid.da == pytest.approx(2.0)
    with pytest.raises(ee.ConfigurationError):
        ee.AgeGrid(a_max=80.0, n_age=4)
    with pytest.raises(ee.ConfigurationError):
        ee.AgeGrid(a_max=-1.0, n_age=16)


def test_time_grid_alignment():
    grid = ee.AgeGrid(a_max=10.0, n_age=20)
    tg = ee.TimeGrid.aligned(grid, t0=1.0, n_steps=6)
    assert tg.dt == grid.da
    assert tg.t_end == pytest.approx(1.0 + 6 * 0.5)
    assert len(tg.times) == 7


def test_field_validation():
    grid = ee.AgeGrid(a_max=10.0, n_age=16)
    with pytest.raises(ee.ConfigurationError):
        ee.Field1D(grid, np.ones(8))
    with pytest.raises(ee.ConfigurationError):
        ee.Field1D(grid, np.full(16, np.nan))


def test_expand_blocks_shapes_and_divisibility():
    grid = ee.AgeGrid(a_max=8.0, n_age=16)
    tg = ee.TimeGrid.aligned(grid, n_steps=8)
    blocks = np.arange(8.0).reshape(4, 2)
    full = ee.expand_blocks(blocks, tg, grid)
    assert full.shape == (9, 16)
    # block value constant within each patch, terminal row repeats the last block
    assert np.all(full[0, :8] == blocks[0, 0])
    assert np.all(full[-1, 8:] == blocks[-1, 1])
    with pytest.raises(ee.ConfigurationError):
        ee.expand_blocks(np.ones((3, 2)), tg, grid)
    with pytest.raises(ee.ConfigurationError):
        ee.expand_blocks(np.ones((2, 3)), tg, grid)


def test_scenario_builder_smoke():
    scen = build_scenario(n_age=8, n_steps=4)
    traj = scen.simulate()
    assert traj.X.shape == (5, 3, 8)
