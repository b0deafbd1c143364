import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epiecon as ee

from util import compact_triple, fit_order


def make_space(n_age=64, a_max=10.0, mu_slope=0.01, gamma0=0.3, beta0=0.05):
    grid = ee.AgeGrid(a_max=a_max, n_age=n_age)
    a = grid.nodes
    return grid, ee.HilbertSpace(
        grid,
        mu_S=0.02 + mu_slope * a,
        mu_R=0.03 + 0.5 * mu_slope * a,
        gamma=np.full(n_age, gamma0),
        beta=np.full(n_age, beta0),
    )


def test_inner_zero():
    grid, space = make_space()
    h = tuple(np.random.default_rng(0).standard_normal(grid.n_age) for _ in range(3))
    zero = tuple(np.zeros(grid.n_age) for _ in range(3))
    assert space.inner(h, zero) == 0.0


def test_inner_weights_cancel():
    # h = g = (pi_S, 1, pi_R) makes every weighted term integrate to a_max
    grid = ee.AgeGrid(a_max=100.0, n_age=100)
    space = ee.HilbertSpace(grid, mu_S=np.full(100, 0.01), mu_R=np.full(100, 0.02),
                            gamma=np.zeros(100), beta=np.zeros(100))
    h = (space.pi_S, np.ones(100), space.pi_R)
    assert space.inner(h, h) == pytest.approx(300.0, rel=1e-12)


def test_inner_symmetric_bilinear_positive():
    grid, space = make_space(n_age=32)
    rng = np.random.default_rng(5)
    for _ in range(10):
        h = tuple(rng.standard_normal(grid.n_age) for _ in range(3))
        g = tuple(rng.standard_normal(grid.n_age) for _ in range(3))
        w = tuple(rng.standard_normal(grid.n_age) for _ in range(3))
        assert space.inner(h, g) == space.inner(g, h)
        a, b = rng.standard_normal(2)
        lin = tuple(a * hc + b * wc for hc, wc in zip(h, w))
        assert space.inner(lin, g) == pytest.approx(
            a * space.inner(h, g) + b * space.inner(w, g), rel=1e-12, abs=1e-9)
        assert space.inner(h, h) > 0.0


def test_survival_weights_monotone():
    grid, space = make_space()
    assert np.all(np.diff(space.pi_S) <= 0)
    assert np.all(np.diff(space.pi_R) <= 0)
    assert space.pi_S[0] <= 1.0


def test_survival_weight_floor_under_divergent_tail():
    # steep mortality tail emulating a divergent integral pins pi near the floor
    grid = ee.AgeGrid(a_max=10.0, n_age=64)
    a = grid.nodes
    mu = 0.05 + 40.0 / np.maximum(grid.a_max - a, 0.5 * grid.da)
    floor = 1e-8
    space = ee.HilbertSpace(grid, mu, mu, np.zeros(64), np.zeros(64), floor=floor)
    assert space.pi_S[-1] <= 10.0 * floor


def test_apply_A_constant_field_interior_zero():
    grid = ee.AgeGrid(a_max=10.0, n_age=64)
    space = ee.HilbertSpace(grid, mu_S=np.zeros(64), mu_R=np.zeros(64),
                            gamma=np.zeros(64), beta=np.zeros(64))
    h = tuple(np.full(64, 2.0) for _ in range(3))
    out = space.apply_A(h)
    for comp in out:
        assert np.allclose(comp[1:], 0.0, atol=1e-13)
        # boundary cell carries the O(1/da) inflow mismatch
        assert abs(comp[0]) > 0.0


def test_apply_A_exponential_derivative():
    grid = ee.AgeGrid(a_max=10.0, n_age=256)
    space = ee.HilbertSpace(grid, mu_S=np.zeros(256), mu_R=np.zeros(256),
                            gamma=np.zeros(256), beta=np.zeros(256))
    h2 = np.exp(-grid.nodes)
    out = space.apply_A((np.zeros(256), h2, np.zeros(256)))
    # -(d/da) e^{-a} = e^{-a}; first-order upwind error O(da)
    assert np.max(np.abs(out[1][1:] - h2[1:])) < 2.0 * grid.da


def test_apply_A_recovery_coupling():
    grid = ee.AgeGrid(a_max=10.0, n_age=64)
    g0 = 0.7
    space = ee.HilbertSpace(grid, mu_S=np.zeros(64), mu_R=np.zeros(64),
                            gamma=np.full(64, g0), beta=np.zeros(64))
    h = (np.zeros(64), np.ones(64), np.zeros(64))
    out = space.apply_A(h)
    assert np.allclose(out[2][1:], g0, atol=1e-12)


def test_apply_A_star_zero():
    grid, space = make_space(n_age=32)
    zero = tuple(np.zeros(32) for _ in range(3))
    out = space.apply_A_star(zero)
    for comp in out:
        assert np.all(comp == 0.0)


def test_apply_A_star_pure_derivative():
    grid = ee.AgeGrid(a_max=10.0, n_age=256)
    space = ee.HilbertSpace(grid, mu_S=np.zeros(256), mu_R=np.zeros(256),
                            gamma=np.zeros(256), beta=np.zeros(256))
    p = np.sin(grid.nodes)
    out = space.apply_A_star((p, np.zeros(256), np.zeros(256)))
    interior = slice(0, 200)  # away from the downwind ghost row at a_max
    assert np.max(np.abs(out[0][interior] - np.cos(grid.nodes)[interior])) < 2.0 * grid.da


def test_adjoint_identity_random_compact_pairs():
    rng = np.random.default_rng(42)
    grid, space = make_space(n_age=64)
    bound = 5.0 * grid.da
    for _ in range(50):
        h = compact_triple(grid, rng)
        p = compact_triple(grid, rng)
        lhs = space.inner(space.apply_A(h), p)
        rhs = space.inner(h, space.apply_A_star(p))
        rel = abs(lhs - rhs) / (space.norm(h) * space.norm(p))
        assert rel <= bound


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(0, 5),
       n_age=st.sampled_from([8, 33, 64]))
def test_node_stack_rows_equal_single_node_calls(seed, n_nodes, n_age):
    # a (n_nodes, 3, n_age) stack gets, row by row and bit for bit, what each
    # node gets alone; so does a triple of stacked components paired with one
    # node's (3, n_age) array
    _, space = make_space(n_age=n_age)
    rng = np.random.default_rng(seed)
    h, p = rng.standard_normal((2, n_nodes, 3, n_age))

    def looped(f, *args):
        return np.array([f(*(a[k] for a in args)) for k in range(n_nodes)])

    assert space.inner(h, p).tobytes() == looped(space.inner, h, p).tobytes()
    assert space.norm(h).tobytes() == looped(space.norm, h).tobytes()
    for op in (space.apply_A, space.apply_A_star):
        got = np.stack(op(h), axis=1)
        want = looped(lambda x: np.stack(op(x)), h).reshape(n_nodes, 3, n_age)
        assert got.tobytes() == want.tobytes()
    triple = tuple(np.moveaxis(h, 1, 0))
    one = rng.standard_normal((3, n_age))
    assert (space.inner(triple, one).tobytes()
            == looped(lambda x: space.inner(x, one), h).tobytes())


def test_adjoint_identity_refinement_order():
    rng = np.random.default_rng(9)
    coef = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))

    def sample_triple(grid, coefs):
        a = grid.nodes / grid.a_max
        env = np.exp(-1.0 / np.maximum(1.0 - ((a - 0.5) / 0.3) ** 2, 1e-12))
        env[np.abs(a - 0.5) >= 0.3] = 0.0
        return tuple(
            env * sum(c * np.sin((k + 1) * np.pi * a) for k, c in enumerate(row))
            for row in coefs
        )

    residuals, dts = [], []
    for n_age in (32, 64, 128):
        grid, space = make_space(n_age=n_age)
        h = sample_triple(grid, coef[0])
        p = sample_triple(grid, coef[1])
        lhs = space.inner(space.apply_A(h), p)
        rhs = space.inner(h, space.apply_A_star(p))
        residuals.append(abs(lhs - rhs) / (space.norm(h) * space.norm(p)))
        dts.append(grid.da)
    assert fit_order(dts, residuals) >= 0.9


@pytest.mark.parametrize("name, value, text", [
    ("mu_S", np.full(64, -0.01), "mu_S must be nonnegative"),
    ("gamma", np.full(64, np.nan), "gamma: values must be finite"),
    ("beta", np.ones(8), r"beta: expected shape \(64,\)"),
])
def test_space_checks_coefficients_once_at_construction(name, value, text):
    # the space keeps frozen, checked copies: shape, finiteness and sign
    grid = ee.AgeGrid(a_max=10.0, n_age=64)
    coeffs = {key: np.full(64, 0.02) for key in ("mu_S", "mu_R", "gamma", "beta")}
    space = ee.HilbertSpace(grid, **coeffs)
    assert not space.mu_S.flags.writeable
    coeffs[name] = value
    with pytest.raises(ee.ConfigurationError, match=text):
        ee.HilbertSpace(grid, **coeffs)
