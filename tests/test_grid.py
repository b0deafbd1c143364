import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epiecon as ee

from util import build_scenario


# Age integrals are the midpoint rule da * sum, as in EpiState.total_population;
# the kernel integral da * sum_k m(a_j, a_k) f(a_k) is the force of infection
# with theta = eta = 1 and N = 1.

def _population(grid, s):
    zero = np.zeros(grid.n_age)
    return ee.EpiState(grid, s, zero, zero).total_population()


def _kernel_integral(m, grid, f):
    return ee.force_of_infection(f, 1.0, 1.0, 1.0, m, grid.da)


def test_integrate_zero_field():
    grid = ee.AgeGrid(a_max=100.0, n_age=50)
    assert _population(grid, np.zeros(grid.n_age)) == 0.0


def test_integrate_constant_is_exact():
    grid = ee.AgeGrid(a_max=100.0, n_age=64)
    assert _population(grid, np.ones(grid.n_age)) == pytest.approx(100.0, abs=1e-12)


def test_integrate_linear_matches_antiderivative():
    # closed-form oracle: int_0^100 a da = 100^2 / 2
    grid = ee.AgeGrid(a_max=100.0, n_age=200)
    assert abs(_population(grid, grid.nodes) - 5000.0) < 0.01


def test_integrate_nonnegative_fields():
    rng = np.random.default_rng(3)
    grid = ee.AgeGrid(a_max=10.0, n_age=32)
    for _ in range(20):
        assert _population(grid, rng.uniform(0.0, 5.0, grid.n_age)) >= 0.0


@settings(max_examples=50, deadline=None)
@given(alpha=st.floats(0, 10), beta=st.floats(0, 10), seed=st.integers(0, 1000))
def test_integrate_linearity(alpha, beta, seed):
    # densities are nonnegative, so the combination is a conic one
    rng = np.random.default_rng(seed)
    grid = ee.AgeGrid(a_max=10.0, n_age=24)
    fv = rng.uniform(0.0, 1.0, grid.n_age)
    gv = rng.uniform(0.0, 1.0, grid.n_age)
    lhs = _population(grid, alpha * fv + beta * gv)
    rhs = alpha * _population(grid, fv) + beta * _population(grid, gv)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_kernel_zero_field():
    grid = ee.AgeGrid(a_max=10.0, n_age=16)
    m = ee.RankOneKernel(4.0, np.ones(grid.n_age))
    out = _kernel_integral(m, grid, np.zeros(grid.n_age))
    assert np.all(out == 0.0)


def test_kernel_constant_reduces_to_integrate():
    rng = np.random.default_rng(7)
    grid = ee.AgeGrid(a_max=10.0, n_age=16)
    f = rng.uniform(0.0, 2.0, grid.n_age)
    m0 = 3.5
    out = _kernel_integral(ee.RankOneKernel(m0, np.ones(grid.n_age)), grid, f)
    expected = m0 * _population(grid, f)
    assert np.allclose(out, expected, rtol=1e-12)


def test_kernel_discrete_delta_brute_force():
    # m(a_j, a_k) = delta_{jk} / da reproduces f; oracle is the explicit double sum
    rng = np.random.default_rng(11)
    grid = ee.AgeGrid(a_max=8.0, n_age=16)
    f = rng.uniform(0.0, 1.0, grid.n_age)
    m = np.eye(grid.n_age) / grid.da
    out = _kernel_integral(m, grid, f)
    oracle = np.array([
        sum(grid.da * m[j, k] * f[k] for k in range(grid.n_age))
        for j in range(grid.n_age)
    ])
    assert np.allclose(out, oracle, rtol=1e-13)
    assert np.allclose(out, f, rtol=1e-12)


def test_kernel_symmetric_is_self_adjoint_unweighted():
    rng = np.random.default_rng(13)
    grid = ee.AgeGrid(a_max=5.0, n_age=20)
    raw = rng.standard_normal((grid.n_age, grid.n_age))
    m = 0.5 * (raw + raw.T)
    f = rng.standard_normal(grid.n_age)
    g = rng.standard_normal(grid.n_age)
    kf = _kernel_integral(m, grid, f)
    kg = _kernel_integral(m, grid, g)
    lhs = grid.da * (kf * g).sum()
    rhs = grid.da * (f * kg).sum()
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_kernel_dimension_mismatch():
    scen = build_scenario(n_age=16)
    with pytest.raises(ee.ConfigurationError):
        dataclasses.replace(scen.epi, m=np.ones((4, 4)))
    with pytest.raises(ee.ConfigurationError):
        ee.separable_kernel(scen.age_grid, 1.0, np.ones(8))


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
    # each constructor checks its arrays' length against the grid, and finiteness
    scen = build_scenario(n_age=16, n_steps=4)
    short, nan = np.ones(8), np.full(16, np.nan)
    for bad in (short, nan):
        with pytest.raises(ee.ConfigurationError):
            dataclasses.replace(scen.epi, mu_S=bad)
        with pytest.raises(ee.ConfigurationError):
            dataclasses.replace(scen.econ, alpha=bad)
        with pytest.raises(ee.ConfigurationError):
            ee.EpiState(scen.age_grid, bad, np.zeros(16), np.zeros(16))
    # simulate checks the policy array's shape, and finiteness
    with pytest.raises(ee.ConfigurationError):
        scen.simulate(scen.policy[:, :, :8])
    # a NaN surface passes every bounds comparison; finiteness must catch it
    for row, name, value in ((1, "theta", np.nan), (0, "c", np.inf), (2, "eta", -np.inf)):
        bad = np.array(scen.policy)
        bad[row, 2, 3] = value
        with pytest.raises(ee.ConfigurationError, match=f"^{name} control: values must be finite"):
            scen.simulate(bad)


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


def _repeat_and_concatenate(blocks, tg, grid):
    """Reference expansion: repeat along both axes, then append the terminal row."""
    ntb, nab = blocks.shape[-2:]
    rows = np.repeat(blocks, grid.n_age // nab, axis=-1)
    if tg.n_steps == 0:
        return rows[..., -1:, :]
    full = np.repeat(rows, tg.n_steps // ntb, axis=-2)
    return np.concatenate([full, full[..., -1:, :]], axis=-2)


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
@pytest.mark.parametrize("ntb, nab, n_steps", [(1, 1, 0), (4, 2, 0), (1, 4, 3), (4, 2, 8),
                                               (2, 16, 6)])
def test_expand_blocks_matches_repeat_and_concatenate(lead, ntb, nab, n_steps):
    # n_steps = 0 with several time blocks: the single (terminal) row takes the last block
    grid = ee.AgeGrid(a_max=8.0, n_age=16)
    tg = ee.TimeGrid.aligned(grid, n_steps=n_steps)
    blocks = np.random.default_rng(n_steps).uniform(size=(*lead, ntb, nab))
    surface = ee.expand_blocks(blocks, tg, grid)
    assert surface.shape == (*lead, n_steps + 1, 16) and surface.flags.c_contiguous
    assert np.array_equal(surface, _repeat_and_concatenate(blocks, tg, grid))


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 4), ntb=st.sampled_from([1, 2, 4]), nab=st.sampled_from([1, 2, 4, 16]),
       steps_per_block=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_expand_blocks_stacked_equals_slices(k, ntb, nab, steps_per_block, seed):
    # leading axes ride along: a (k, ntb, nab) stack expands slice by slice
    grid = ee.AgeGrid(a_max=8.0, n_age=16)
    tg = ee.TimeGrid.aligned(grid, n_steps=ntb * steps_per_block)
    blocks = np.random.default_rng(seed).uniform(-1.0, 1.0, (k, ntb, nab))
    stacked = ee.expand_blocks(blocks, tg, grid)
    assert stacked.shape == (k, tg.n_steps + 1, grid.n_age)
    assert np.array_equal(stacked, np.stack([ee.expand_blocks(b, tg, grid) for b in blocks]))


def test_scenario_builder_smoke():
    scen = build_scenario(n_age=8, n_steps=4)
    traj = scen.simulate()
    assert traj.X.shape == (5, 3, 8)
