"""Controlled age-structured SIR dynamics.

State representation, force of infection, saturation-dependent infected
mortality, the one-step update, and full trajectory simulation.

The stepper follows characteristics on the cohort-aligned grid (dt = da):
within a step every cohort decays by exact exponentials with rates frozen
at the step's start, then all cohorts shift one cell older and newborns
enter the first cell.  Aging is therefore exact and free of numerical
diffusion; all truncation error comes from freezing the reaction rates,
which is first order in dt.  Positivity of (s, i, r) holds exactly by
construction, given contact rates m >= 0 (checked when the kernel is built).

The aggregates take one node's infected density or a (n_nodes, n_age) stack:
age sums run along the last axis, so a stack gives one value per node, bit
for bit that node's alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import economy
from .errors import ConfigurationError, ExtinctPopulation, ModelError, NonFiniteState
from .grid import AgeGrid, RankOneKernel, TimeGrid, _nonnegative
from .hilbert import DEFAULT_WEIGHT_FLOOR, HilbertSpace


@dataclass(frozen=True)
class SaturationSpec:
    """Hospital-overload response of infected mortality.

    The multiplier applied to the baseline rate is
    1 + psi * softplus((Xi - xi_cap) / smooth), an increasing, globally
    Lipschitz function of the critical load Xi that tends to 1 for small
    epidemics and grows with slope psi / smooth past capacity.  psi = 0
    recovers load-independent mortality.
    """

    xi_cap: float
    psi: float
    smooth: float

    def __post_init__(self):
        if self.psi < 0:
            raise ConfigurationError("overload slope psi must be >= 0")
        if not self.smooth > 0:
            raise ConfigurationError("overload softening width smooth must be > 0")

    def multiplier(self, Xi):
        # softplus log(1 + e^x) without overflow
        return 1.0 + self.psi * np.logaddexp(0.0, (Xi - self.xi_cap) / self.smooth)


@dataclass(frozen=True, eq=False)
class EpiParams:
    """Demographic and epidemiological coefficients, one value per age cell;
    ``m`` is a dense table or RankOneKernel, whose contact rates are >= 0."""

    grid: AgeGrid
    mu_S: np.ndarray
    mu_R: np.ndarray
    mu_I_base: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    xi: np.ndarray
    m: np.ndarray
    saturation: SaturationSpec

    def __post_init__(self):
        n = self.grid.n_age
        for name in ("mu_S", "mu_R", "mu_I_base", "gamma", "beta", "xi"):
            object.__setattr__(self, name, _nonnegative(getattr(self, name), (n,), name))
        if np.any(self.xi > 1.0):
            raise ConfigurationError("critical-care prevalence xi must lie in [0, 1]")
        if isinstance(self.m, RankOneKernel):
            if self.m.shape != (n, n):
                raise ConfigurationError("contact kernel must be a finite (n_age, n_age) table")
        else:
            object.__setattr__(self, "m", _nonnegative(self.m, (n, n), "contact kernel table"))


@dataclass(frozen=True, eq=False)
class EpiState:
    """Age densities of the three compartments at one time instant."""

    grid: AgeGrid
    s: np.ndarray
    i: np.ndarray
    r: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        for name in ("s", "i", "r"):
            object.__setattr__(self, name, _nonnegative(
                getattr(self, name), (self.grid.n_age,), f"state component {name}"))

    def as_triple(self):
        return (self.s, self.i, self.r)

    def total_population(self) -> float:
        return float(self.grid.da * (self.s + self.i + self.r).sum())


# ----------------------------------------------------------------------
# pointwise operations
# ----------------------------------------------------------------------

def critical_load(i: np.ndarray, params: EpiParams, da: float):
    """Hospital-demand aggregate Xi = int i * xi da."""
    return da * (i * params.xi).sum(axis=-1)


def infection_mortality(params: EpiParams, Xi) -> np.ndarray:
    """Infected mortality field mu_I(., Xi) including the overload multiplier;
    one row per load when ``Xi`` has one per node."""
    return params.mu_I_base * params.saturation.multiplier(Xi)[..., None]


def deaths_flow(i: np.ndarray, mu_i: np.ndarray, da: float):
    """Disease deaths flow int mu_I(., Xi) i da, given the mortality field mu_i."""
    return da * (mu_i * i).sum(axis=-1)


def extinction_check(n_total, n_floor: float) -> None:
    """Raise ExtinctPopulation for the first total population at or below the floor.

    ``n_total`` is one total, or an array of them with one per time node.
    """
    low = np.flatnonzero(np.ravel(n_total) <= n_floor)
    if low.size:
        raise ExtinctPopulation(f"total population {np.ravel(n_total)[low[0]]:.3e} "
                                f"at or below the floor {n_floor:.3e}")


def force_of_infection(i: np.ndarray, n_total: float, theta_t, eta_t, m, da: float,
                       n_floor: float | None = 0.0) -> np.ndarray:
    """Age-specific infection hazard of the controlled dynamics.

    lambda(a) = theta(a)/N * int m(a, tau) theta(tau) eta(tau) i(tau) dtau, with
    N = ``n_total`` the total population and ``m`` the contact kernel.  With
    theta = eta = 1 this is the uncontrolled force of infection.  theta or
    eta may be a (L, n_age) stack of slices; each row of the result equals
    the hazard of that slice alone.  A node stack puts the node axis first,
    with i and ``n_total`` shaped to broadcast against the rows; its caller
    passes ``n_floor=None`` and makes the floor test once per node
    (:func:`extinction_check`).
    """
    if n_floor is not None and n_total <= n_floor:
        extinction_check(n_total, n_floor)
    u = theta_t * eta_t * i
    if isinstance(m, RankOneKernel):
        contact = m @ u
    else:  # a table: one gemv per row, as for a single slice (a gemm rounds differently)
        contact = (m @ u[..., None])[..., 0]
    return theta_t * contact * (da / n_total)


# ----------------------------------------------------------------------
# time stepping
# ----------------------------------------------------------------------

def _node(x, K, c_t, theta_t, eta_t, params: EpiParams, econ: economy.EconParams,
          da: float, dt: float, n_floor: float, out=None):
    """The fused kernel: one time node of the coupled dynamics on plain arrays.

    Computes the aggregates of ``x`` (rows s, i, r) once; with ``out`` it also
    writes the next state there and returns the next capital (else None).
    New infections decay for half a step (midpoint correction), the decayed
    share split between recovery and death, so mass is accounted exactly.
    """
    s, i, r = x
    n = s + i + r
    n_total = float(da * n.sum())
    lam = force_of_infection(i, n_total, theta_t, eta_t, params.m, da, n_floor)
    Xi = critical_load(i, params, da)
    mu_i = infection_mortality(params, Xi)
    L = economy.labor_supply(x, theta_t, econ, da)
    C = economy.consumption_total(x, c_t, da)
    d_cost = economy.testing_cost(x, eta_t, econ, da)
    Y = econ.F(K, L)
    aggregates = (n_total, Xi, deaths_flow(i, mu_i, da), L, Y, C, d_cost)
    if out is None:
        return aggregates, None

    gamma = params.gamma
    births = float(da * (params.beta * n).sum())
    s_dec = s * np.exp(-(lam + params.mu_S) * dt)
    new_inf = s * (-np.expm1(-lam * dt))
    out_rate = mu_i + gamma
    full_exp = -out_rate * dt
    half_exp = -out_rate * (0.5 * dt)
    i_dec = i * np.exp(full_exp) + new_inf * np.exp(half_exp)
    outflow = i * (-np.expm1(full_exp)) + new_inf * (-np.expm1(half_exp))
    recovered_share = np.divide(gamma, out_rate, out=np.zeros_like(gamma), where=out_rate > 0)
    r_dec = r * np.exp(-params.mu_R * dt) + recovered_share * outflow

    out[:, 0] = (births * dt / da, 0.0, 0.0)
    out[0, 1:] = s_dec[:-1]
    out[1, 1:] = i_dec[:-1]
    out[2, 1:] = r_dec[:-1]
    if not np.isfinite(out).all():
        raise NonFiniteState("state update produced non-finite densities")
    return aggregates, economy.capital_step(K, Y, C, d_cost, econ, dt)


def step(state: EpiState, K: float, c_t: np.ndarray, theta_t: np.ndarray,
         eta_t: np.ndarray, params: EpiParams, econ: economy.EconParams,
         dt: float, n_floor: float = 0.0):
    """Advance the coupled state one step; the simulation kernel on one node."""
    x1 = np.empty((3, state.grid.n_age))
    _, K1 = _node(np.stack(state.as_triple()), K, c_t, theta_t, eta_t, params, econ,
                  state.grid.da, dt, n_floor, x1)
    return EpiState(state.grid, *x1, state.time + dt), K1


@dataclass(eq=False)
class Trajectory:
    """Simulated path: ``X`` of shape (n_steps + 1, 3, n_age) with (s, i, r) at t_k
    in X[k], capital, and the per-node aggregates, computed at t_k so
    K[k+1] - K[k] = dt * (Y[k] - C[k] - delta*K[k] - D_cost[k]).
    """

    X: np.ndarray
    initial: EpiState
    K: np.ndarray
    time_grid: TimeGrid
    N: np.ndarray
    Xi: np.ndarray
    L: np.ndarray
    Y: np.ndarray
    C: np.ndarray
    D_cost: np.ndarray
    deaths_flow: np.ndarray
    feasible: bool
    k_violation: float
    min_K: float

    @property
    def n_steps(self) -> int:
        return self.time_grid.n_steps

    @property
    def times(self) -> np.ndarray:
        return self.time_grid.times


def _checked_policy(policy, n_nodes: int, n_age: int) -> np.ndarray:
    """``policy`` as a float array of shape (3, n_nodes, n_age), checked for the control box."""
    u = np.asarray(policy, dtype=np.float64)
    if u.shape != (3, n_nodes, n_age):
        raise ConfigurationError("policy surfaces do not match the grids")
    lo, hi = u.min(axis=(1, 2)), u.max(axis=(1, 2))  # per row; a NaN reaches both
    for name, finite in zip(("c", "theta", "eta"), np.isfinite(lo) & np.isfinite(hi)):
        if not finite:
            raise ConfigurationError(f"{name} control: values must be finite")
    if lo[0] < 0:
        raise ConfigurationError("consumption control must be nonnegative")
    for name, low, high in zip(("theta", "eta"), lo[1:], hi[1:]):
        if low < 0 or high > 1.0:
            raise ConfigurationError(f"{name} control must lie in [0, 1]")
    return u


def simulate(initial: EpiState, K0: float, policy: np.ndarray, params: EpiParams,
             econ: economy.EconParams, time_grid: TimeGrid,
             n_floor_rel: float = 1e-9) -> Trajectory:
    """Run the controlled dynamics over the whole time grid.

    ``policy`` is one (3, n_steps + 1, n_age) array, rows c >= 0, theta and
    eta in [0, 1], one control slice per time node; it is checked here, the
    one place a policy is.  Positivity of (s, i, r) is automatic, so the run
    is flagged infeasible only if capital goes negative; negative capital is
    recorded, not clamped, and the squared violation integral is reported
    for the optimizer's penalty.  Model errors are re-raised with the
    failing step index attached.
    """
    grid = initial.grid
    if abs(time_grid.dt - grid.da) > 1e-15 * max(1.0, grid.da):
        raise ConfigurationError(
            f"time step {time_grid.dt} must equal the age cell width {grid.da}")
    n_steps = time_grid.n_steps
    u = _checked_policy(policy, n_steps + 1, grid.n_age)
    if econ.alpha.shape != (grid.n_age,):  # EconParams checks e against alpha
        raise ConfigurationError("economy profiles alpha and e do not match the age grid")
    if K0 < 0:
        raise ConfigurationError(f"initial capital must be >= 0, got {K0}")

    n_floor = n_floor_rel * initial.total_population()
    da, dt = grid.da, time_grid.dt

    X = np.empty((n_steps + 1, 3, grid.n_age))
    X[0] = initial.as_triple()
    K = np.empty(n_steps + 1)
    K[0] = K0
    N, Xi, deaths, L, Y, C, D_cost = np.empty((7, n_steps + 1))

    for k in range(n_steps + 1):
        try:
            (N[k], Xi[k], deaths[k], L[k], Y[k], C[k], D_cost[k]), K1 = _node(
                X[k], K[k], *u[:, k], params, econ, da, dt, n_floor,
                X[k + 1] if k < n_steps else None)
        except ModelError as err:
            err.step_index = k
            raise
        if k < n_steps:
            K[k + 1] = K1

    neg = np.maximum(0.0, -K[1:])
    k_violation = float(dt * (neg * neg).sum())
    return Trajectory(X=X, initial=initial, K=K, time_grid=time_grid, N=N, Xi=Xi,
                      L=L, Y=Y, C=C, D_cost=D_cost, deaths_flow=deaths,
                      feasible=bool(np.all(K >= 0.0)), k_violation=k_violation,
                      min_K=float(K.min()))


def hilbert_space_for(params: EpiParams, floor: float = DEFAULT_WEIGHT_FLOOR) -> HilbertSpace:
    """Weighted state space induced by the demographic coefficients."""
    return HilbertSpace(params.grid, params.mu_S, params.mu_R,
                        params.gamma, params.beta, floor)
