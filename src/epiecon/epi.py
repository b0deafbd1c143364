"""Controlled age-structured SIR dynamics.

State representation, force of infection, saturation-dependent infected
mortality, the one-step update, and the one stepping loop: one policy or
feedback law, or a stack of policies stepped together as a batch whose rows
fail apart, keeping every state (trajectory simulation) or only per-node
scalars (scoring).  A feedback law makes each node's slices from its state.  A
batch is held component-major, (3, B, n_age) a node, so the kernel works on
plain (B, n_age) arrays, and the terms of the controls alone are made once
per control slice, so once per time block when scoring blocks.  A scored
row that shares row 0's controls up to some node joins the batch there,
from row 0's state, so a shared head is stepped once.

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

import copy
from dataclasses import dataclass

import numpy as np

from . import economy
from .errors import ConfigurationError, ExtinctPopulation, ModelError, NonFiniteState
from .grid import AgeGrid, RankOneKernel, TimeGrid, _nonnegative, block_layout
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
    return da * np.add.reduce(i * params.xi, -1)


def infection_mortality(params: EpiParams, Xi) -> np.ndarray:
    """Infected mortality field mu_I(., Xi) including the overload multiplier;
    one row per load when ``Xi`` has one per node."""
    return params.mu_I_base * params.saturation.multiplier(Xi)[..., None]


def deaths_flow(i: np.ndarray, mu_i: np.ndarray, da: float):
    """Disease deaths flow int mu_I(., Xi) i da, given the mortality field mu_i."""
    return da * np.add.reduce(mu_i * i, -1)


def _extinct(n_total, n_floor: float) -> ExtinctPopulation:
    return ExtinctPopulation(f"total population {n_total:.3e} "
                             f"at or below the floor {n_floor:.3e}")


def extinction_check(n_total, n_floor: float) -> None:
    """Raise ExtinctPopulation for the first total population at or below the floor.

    ``n_total`` is one total, or an array of them with one per time node.
    """
    low = np.flatnonzero(np.ravel(n_total) <= n_floor)
    if low.size:
        raise _extinct(np.ravel(n_total)[low[0]], n_floor)


def force_of_infection(i: np.ndarray, n_total, theta_t, eta_t, m, da: float,
                       theta_eta=None) -> np.ndarray:
    """Age-specific infection hazard of the controlled dynamics.

    lambda(a) = theta(a)/N * int m(a, tau) theta(tau) eta(tau) i(tau) dtau, with
    N = ``n_total`` the total population and ``m`` the contact kernel.  With
    theta = eta = 1 this is the uncontrolled force of infection.  theta or
    eta may be a (L, n_age) stack of slices; each row of the result equals
    the hazard of that slice alone.  A node stack puts the node axis first,
    with i and ``n_total`` shaped to broadcast against the rows.
    ``theta_eta``, when given, is the product theta * eta already made (the
    stepping loop makes it once per control slice), and stands for it.  The
    extinction floor is its callers' test, made once per node
    (:func:`extinction_check`, or the stepping kernel's failure report).
    """
    u = (theta_t * eta_t if theta_eta is None else theta_eta) * i
    if isinstance(m, RankOneKernel):
        contact = m @ u
    else:  # a table: one gemv per row, as for a single slice (a gemm rounds differently)
        contact = (m @ u[..., None])[..., 0]
    return theta_t * contact * (da / n_total)


# ----------------------------------------------------------------------
# time stepping
# ----------------------------------------------------------------------

def _node(x, K, c_t, theta_t, eta_t, params: EpiParams, econ: economy.EconParams,
          da: float, dt: float, n_floor: float, out=None, fixed=None, terms=None):
    """The fused kernel: one time node of the coupled dynamics, for one state or a batch.

    ``x`` is one (3, n_age) state (rows s, i, r) or a component-major
    (3, B, n_age) batch, so each component is one plain (B, n_age) array,
    with ``K`` one capital or B of them and each control one (n_age,) slice
    or B of them.  Computes the aggregates of ``x`` once, one value per
    state; with ``out`` shaped like ``x`` it also writes the next states
    there and returns the next capitals (else None).  New infections decay
    for half a step (midpoint correction), the decayed share split between
    recovery and death, so mass is accounted exactly.  Every age sum runs
    along the last axis and the contact kernel is applied row by row, so
    each batch row is bit for bit that state alone.  ``terms`` are the
    control slices' own terms (:func:`_control_terms`), made here when not
    given; with a flow hook's function among them, its value at the node's
    population n is an eighth aggregate.

    The third result maps each failed row (0 for one state) to its
    ModelError: the first of the floor test, a non-finite state and a
    non-finite capital, the order in which one state's step meets them.  A
    failed row's other results are meaningless; callers run the kernel under
    ``np.errstate(all="ignore")`` and report the failures instead.
    """
    s, i, r = x[0], x[1], x[2]  # indexed: unpacking iterates, which costs more
    n = s + i + r
    n_total = da * np.add.reduce(n, -1)
    phi, theta_eta, node_flow = terms or _control_terms(c_t, theta_t, eta_t, econ)
    lam = force_of_infection(i, n_total[..., None], theta_t, eta_t, params.m, da, theta_eta)
    Xi = critical_load(i, params, da)
    mu_i = infection_mortality(params, Xi)
    L = economy.labor_supply((s, i, r), theta_t, econ, da, phi)
    C = economy.consumption_total((s, i, r), c_t, da, n)
    d_cost = economy.testing_cost((s, i, r), eta_t, econ, da)
    Y = econ.F(K, L)
    aggregates = (n_total, Xi, deaths_flow(i, mu_i, da), L, Y, C, d_cost)
    if node_flow is not None:
        aggregates += (node_flow(n),)
    above = n_total > n_floor
    if out is None:
        return aggregates, None, _failures(above, n_total, n_floor)

    keep_r, gamma_pos = fixed or _fixed(params, dt)  # the run's, else made here
    gamma = params.gamma
    births = da * np.add.reduce(params.beta * n, -1)
    # -dt rides on the scalar and gain = -(new infections): no array is negated, same bits
    s_dec = s * np.exp((lam + params.mu_S) * -dt)
    gain = s * np.expm1(lam * -dt)
    out_rate = mu_i + gamma
    full_exp = out_rate * -dt
    half_exp = out_rate * (-0.5 * dt)
    i_dec = i * np.exp(full_exp) - gain * np.exp(half_exp)
    outflow = gain * np.expm1(half_exp) - i * np.expm1(full_exp)
    recovered_share = (gamma / out_rate if gamma_pos else  # then out_rate >= gamma > 0
                       np.divide(gamma, out_rate, out=np.zeros_like(out_rate), where=out_rate > 0))
    r_dec = r * keep_r + recovered_share * outflow

    out[0, ..., 0] = births * dt / da
    out[1:, ..., 0] = 0.0
    out[0, ..., 1:] = s_dec[..., :-1]
    out[1, ..., 1:] = i_dec[..., :-1]
    out[2, ..., 1:] = r_dec[..., :-1]
    K1 = economy.capital_step(K, Y, C, d_cost, econ, dt)
    finite = np.isfinite(out)  # reduced per row only when some entry is not finite
    return aggregates, K1, _failures(above, n_total, n_floor,
                                     np.logical_and.reduce(finite, None)
                                     or np.logical_and.reduce(finite, (0, -1)), K1)


def _control_terms(c_t, theta_t, eta_t, econ: economy.EconParams, flow=None):
    """What a node takes from its control slices alone: phi(theta), theta * eta, and
    the node function ``flow(c, theta)`` of a flow hook (see :func:`_run`), or None."""
    return econ.phi(theta_t), theta_t * eta_t, None if flow is None else flow(c_t, theta_t)


def _fixed(params: EpiParams, dt: float):
    """The constants every node of a run shares: exp(-mu_R dt), and whether every gamma > 0."""
    return np.exp(-params.mu_R * dt), bool((params.gamma > 0).all())


def _failures(above, n_total, n_floor, state_ok=True, K1=0.0) -> dict:
    """Each failed row of a node (0 for one state) and its ModelError, the
    first of: the total population at or below the floor, a non-finite
    state, a non-finite capital."""
    ok = above & state_ok & np.isfinite(K1)
    if np.logical_and.reduce(ok) if ok.ndim else ok:  # a numpy bool for one state
        return {}
    failed, state_ok = {}, np.ravel(np.broadcast_to(state_ok, np.shape(ok)))
    for b in np.flatnonzero(~ok).tolist():
        if not np.ravel(above)[b]:
            failed[b] = _extinct(np.ravel(n_total)[b], n_floor)
        elif not state_ok[b]:
            failed[b] = NonFiniteState("state update produced non-finite densities")
        else:
            failed[b] = NonFiniteState(f"capital update produced {np.ravel(K1)[b]}")
    return failed


def step(state: EpiState, K: float, c_t: np.ndarray, theta_t: np.ndarray,
         eta_t: np.ndarray, params: EpiParams, econ: economy.EconParams,
         dt: float, n_floor: float = 0.0):
    """Advance the coupled state one step: :func:`_node` on one state, raising its failure."""
    x1 = np.empty((3, state.grid.n_age))
    with np.errstate(all="ignore"):
        _, K1, failed = _node(np.stack(state.as_triple()), K, c_t, theta_t, eta_t, params,
                              econ, state.grid.da, dt, n_floor, x1)
    if failed:
        raise failed[0]
    return EpiState(state.grid, *x1, state.time + dt), float(K1)


@dataclass(eq=False)
class Trajectory:
    """Simulated path: ``X`` of shape (n_steps + 1, 3, n_age) with (s, i, r) at t_k
    in X[k], capital, and the per-node aggregates, computed at t_k so
    K[k+1] - K[k] = dt * (Y[k] - C[k] - delta*K[k] - D_cost[k]); the arrays
    are views of those of the stepping loop.
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


def _checked_run(initial: EpiState, K0, u: np.ndarray, econ: economy.EconParams,
                 time_grid: TimeGrid, n_floor_rel) -> None:
    """The arguments of a run, checked once.

    ``u`` is the float (B, 3, ., .) stack of policies or blocks, checked for the
    control box (blocks hold the values they expand to), or None for a feedback law.
    """
    grid = initial.grid
    if abs(time_grid.dt - grid.da) > 1e-15 * max(1.0, grid.da):
        raise ConfigurationError(
            f"time step {time_grid.dt} must equal the age cell width {grid.da}")
    if u is not None:
        lo, hi = u.min(axis=(0, 2, 3)), u.max(axis=(0, 2, 3))  # per control; a NaN reaches both
        for name, finite in zip(("c", "theta", "eta"), np.isfinite(lo) & np.isfinite(hi)):
            if not finite:
                raise ConfigurationError(f"{name} control: values must be finite")
        if lo[0] < 0:
            raise ConfigurationError("consumption control must be nonnegative")
        for name, low, high in zip(("theta", "eta"), lo[1:], hi[1:]):
            if low < 0 or high > 1.0:
                raise ConfigurationError(f"{name} control must lie in [0, 1]")
    if econ.alpha.shape != (grid.n_age,):  # EconParams checks e against alpha
        raise ConfigurationError("economy profiles alpha and e do not match the age grid")
    if not (np.isfinite(K0) and K0 >= 0):
        raise ConfigurationError(f"initial capital K0 must be finite and >= 0, got {K0}")
    if not (np.isfinite(n_floor_rel) and n_floor_rel >= 0):
        raise ConfigurationError(
            f"extinction floor n_floor_rel must be finite and >= 0, got {n_floor_rel}")


@dataclass(eq=False)
class BatchRun:
    """What one stepping loop keeps of B runs, one row per run.

    ``X`` holds every state, (B, n_steps + 1, 3, n_age), or only the last
    one stepped, (B, 3, n_age), as a view of the loop's component-major
    states; ``K`` (B, n_steps + 1); ``agg`` the seven aggregates N, Xi,
    deaths flow, L, Y, C, D_cost, (7, B, n_steps + 1); ``flow`` the per-node
    values of the caller's ``flow`` hook, or None; ``errors`` maps each
    failed row to its ModelError (its values are meaningless); and the
    capital summary per row.
    """

    X: np.ndarray
    K: np.ndarray
    agg: np.ndarray
    flow: np.ndarray | None
    errors: dict
    feasible: np.ndarray
    k_violation: np.ndarray
    min_K: np.ndarray


def _run(initial: EpiState, K0: float, controls, B: int, params: EpiParams,
         econ: economy.EconParams, time_grid: TimeGrid, n_floor_rel: float,
         keep_states: bool, flow=None, joins=None) -> BatchRun:
    """The stepping loop: B runs from ``initial`` and ``K0`` stepped together through
    :func:`_node`, ``controls(k, x, K)`` giving the (3, B, n_age) control slices at node k,
    x and K the running rows' states and capitals there (a feedback law's input).

    The states are held component-major, (3, B, n_age) a node, so the kernel
    reads and writes each component of the running rows as one plain array;
    ``keep_states`` keeps every node's, else only two nodes' are held.  The
    terms of the controls alone (:func:`_control_terms`) are made once per
    control slice object: ``controls`` that return one object for several
    nodes share them.  ``flow(c, theta)``, if given, returns a node's flow
    as a function of its population n = s + i + r, evaluated on each node's
    running rows and kept per node.  A failed row leaves the batch at its
    failing step, its ModelError with ``step_index`` set; the others go on,
    each bit for bit its single run, and a batch of one steps its row as
    one (3, n_age) state.

    Rows join late when only the last states are kept: ``joins[b]`` is the
    node at which row b joins the batch (0 for row 0), and its controls must
    equal row 0's at every earlier node.  Until then it is not stepped; at
    its node it takes row 0's state and K there, and row 0's earlier K,
    aggregates and flow values.  A row that joins at n_steps + 1 is row 0's
    whole run, and one that joins after row 0 failed carries a copy of row
    0's ModelError.  Rows in the order of their nodes keep the running rows
    a prefix of the batch, which the kernel steps in place.
    """
    grid, n_steps = initial.grid, time_grid.n_steps
    n_floor = n_floor_rel * initial.total_population()
    da, dt, fixed = grid.da, time_grid.dt, _fixed(params, time_grid.dt)

    X = np.empty((n_steps + 1 if keep_states else 2, 3, B, grid.n_age))
    state = (lambda k: X[k]) if keep_states else (lambda k: X[k % 2])
    X[0] = np.stack(initial.as_triple())[:, None]
    K = np.empty((B, n_steps + 1))
    K[:, 0] = K0
    # N, Xi, deaths, L, Y, C, D_cost, and the flow hook's values
    agg = np.empty((7 if flow is None else 8, B, n_steps + 1))
    errors = {}
    rows = np.arange(B)  # the rows still running
    later = {}  # node -> the rows that join there
    if joins is not None:
        for b, k in enumerate(joins):
            if k:
                later.setdefault(int(k), []).append(b)
        rows = np.array([b for b in range(B) if not joins[b]])

    def join(new, k):  # rows ``new`` take row 0's run up to node k, or its error
        if 0 in errors:
            errors.update((b, copy.copy(errors[0])) for b in new)
            return
        K[new, :k + 1] = K[0, :k + 1]
        agg[:, new, :k] = agg[:, :1, :k]
        state(min(k, n_steps))[:, new] = state(min(k, n_steps))[:, :1]

    def address(rows):  # one state for a batch of one, a prefix as views, else the rows
        if int(rows[-1]) == len(rows) - 1:
            return (0 if B == 1 else slice(0, len(rows))), True
        return rows, False

    at, prefix = address(rows)
    held = None  # the control slices whose terms are made, for the rows ``at``
    with np.errstate(all="ignore"):
        for k in range(n_steps + 1):
            if k in later:
                new = later.pop(k)
                join(new, k)
                if 0 not in errors:
                    running = np.zeros(B, dtype=bool)
                    running[rows] = running[new] = True
                    rows = np.flatnonzero(running)
                    at, prefix = address(rows)
                    held = None
            x, out = state(k)[:, at], None
            try:  # a feedback law that fails at node k fails the run at step k
                u = controls(k, x, K[at, k])
            except ModelError as err:
                err.step_index = k
                raise
            if u is not held:
                held, c, theta, eta = u, u[0, at], u[1, at], u[2, at]
                terms = _control_terms(c, theta, eta, econ, flow)
            if k < n_steps:
                out = state(k + 1)[:, at] if prefix else np.empty(x.shape)
            agg[:, at, k], K1, failed = _node(x, K[at, k], c, theta, eta, params, econ, da,
                                              dt, n_floor, out, fixed, terms)
            if out is not None:
                K[at, k + 1] = K1
                if not prefix:
                    state(k + 1)[:, rows] = out
            if failed:
                for j, err in failed.items():
                    err.step_index = k
                    errors[int(rows[j])] = err
                rows = np.delete(rows, list(failed))
                if not len(rows):
                    break
                at, prefix = address(rows)
                held = None
        for k, new in later.items():  # after row 0 failed, or equal to row 0 throughout
            join(new, k)
        neg = np.maximum(0.0, -K[:, 1:])
        kept = X.transpose(2, 0, 1, 3) if keep_states else state(n_steps).swapaxes(0, 1)
        return BatchRun(X=kept, K=K, agg=agg[:7], flow=None if flow is None else agg[7],
                        errors=errors, feasible=np.all(K >= 0.0, axis=-1),
                        k_violation=dt * (neg * neg).sum(axis=-1), min_K=K.min(axis=-1))


def run_blocks(initial: EpiState, K0: float, blocks: np.ndarray, params: EpiParams,
               econ: economy.EconParams, time_grid: TimeGrid, n_floor_rel: float = 1e-9,
               flow=None) -> BatchRun:
    """Run each policy of a (B, 3, n_time_blocks, n_age_blocks) block stack, keeping
    no trajectory: :func:`_run` with only the last states held.

    Each time block's (3, B, n_age) control slices are expanded from the
    blocks once, as :func:`grid.expand_blocks` places them, and are the one
    object every node of the block is given, so the (B, 3, n_steps + 1,
    n_age) policy stack is never built and the terms of the controls alone
    are made once per time block; each row is bit for bit the run of its
    expanded policy.  A row whose blocks equal row 0's, bit for bit, before
    time block j joins the batch at j's first node (see :func:`_run`); a row
    equal to row 0 is not stepped at all.  The blocks are checked as
    :func:`simulate` checks a policy.
    """
    u = np.asarray(blocks, dtype=np.float64)
    if u.ndim != 4 or u.shape[1] != 3 or not len(u):
        raise ConfigurationError("policy blocks must be a (B, 3, n_time_blocks, "
                                 "n_age_blocks) stack")
    nodes, width = block_layout(*u.shape[2:], time_grid, initial.grid)
    _checked_run(initial, K0, u, econ, time_grid, n_floor_rel)
    # each row joins at the first node of its first time block that differs from
    # row 0's, bit for bit (compared as bytes: a row unlike row 0 costs one compare)
    firsts = {}
    for k, j in enumerate(nodes.tolist()):
        firsts.setdefault(j, k)
    heads = [u[0, :, j].tobytes() for j in range(u.shape[2])]
    joins = [0]
    for row in u[1:]:
        j = 0
        while j < len(heads) and row[:, j].tobytes() == heads[j]:
            j += 1
        joins.append(firsts.get(j, len(nodes)))
    by_component = u.transpose(1, 0, 2, 3)
    held = [None, None]  # the time block whose slices are expanded, and those slices

    def controls(k, x, K):
        if held[0] != nodes[k]:
            held[:] = nodes[k], np.repeat(by_component[:, :, nodes[k]], width, axis=-1)
        return held[1]

    return _run(initial, K0, controls, len(u), params, econ, time_grid, n_floor_rel,
                keep_states=False, flow=flow, joins=joins)


def simulate(initial: EpiState, K0: float, policy: np.ndarray, params: EpiParams,
             econ: economy.EconParams, time_grid: TimeGrid,
             n_floor_rel: float = 1e-9) -> Trajectory:
    """Run the controlled dynamics over the whole time grid.

    ``policy`` is one (3, n_steps + 1, n_age) array, rows c >= 0, theta and
    eta in [0, 1], one control slice per time node, checked with ``K0`` >= 0
    and ``n_floor_rel`` >= 0 (both finite) by :func:`_checked_run`, the one
    check of a run's inputs; :func:`_run` steps it as a batch of one.
    Positivity of (s, i, r) is automatic, so the run is flagged infeasible
    only if capital goes negative; negative capital is recorded, not
    clamped, and the squared violation integral is reported for the
    optimizer's penalty.  Model errors are raised with the failing step
    index attached.
    """
    u = np.asarray(policy, dtype=np.float64)[None]
    if u.shape[1:] != (3, time_grid.n_steps + 1, initial.grid.n_age):
        raise ConfigurationError("policy surfaces do not match the grids")
    by_node = u.transpose(1, 2, 0, 3)  # (3, n_steps + 1, 1, n_age)
    return _simulate(initial, K0, lambda k, x, K: by_node[:, k], params, econ, time_grid,
                     n_floor_rel, u)


def _simulate(initial: EpiState, K0: float, controls, params: EpiParams,
              econ: economy.EconParams, time_grid: TimeGrid, n_floor_rel: float,
              u: np.ndarray | None = None) -> Trajectory:
    """:func:`simulate` on ``controls(k, x, K)`` (:func:`_run`'s): a policy's with ``u`` its
    (1, 3, ., .) stack, or with ``u`` None a feedback law, which must keep the control box."""
    _checked_run(initial, K0, u, econ, time_grid, n_floor_rel)
    run = _run(initial, K0, controls, 1, params, econ, time_grid, n_floor_rel,
               keep_states=True)
    if run.errors:
        raise run.errors[0]
    N, Xi, deaths, L, Y, C, D_cost = run.agg[:, 0]
    return Trajectory(X=run.X[0], initial=initial, K=run.K[0], time_grid=time_grid, N=N, Xi=Xi,
                      L=L, Y=Y, C=C, D_cost=D_cost, deaths_flow=deaths,
                      feasible=bool(run.feasible[0]), k_violation=float(run.k_violation[0]),
                      min_K=float(run.min_K[0]))


def hilbert_space_for(params: EpiParams, floor: float = DEFAULT_WEIGHT_FLOOR) -> HilbertSpace:
    """Weighted state space induced by the demographic coefficients."""
    return HilbertSpace(params.grid, params.mu_S, params.mu_R,
                        params.gamma, params.beta, floor)
