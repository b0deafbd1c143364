"""Running rewards and the welfare targets J1..J6 evaluated on trajectories.

J1: discounted altruism-weighted utility flow (infinite horizon, truncated).
J2: discounted production flow (infinite horizon, truncated).
J3: final production capacity with everyone productive.
J4: final capital.
J5: discounted production flow over the scenario horizon.
J6: cumulative disease deaths (undiscounted as printed; discount optional).

A composite target is a weighted sum of the above; the canonical use is
w_a * J_econ - w_b * J6 to trade off output against deaths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import epi
from .errors import ConfigurationError
from .hilbert import components

TARGETS = ("J1", "J2", "J3", "J4", "J5", "J6")


# ----------------------------------------------------------------------
# per-capita utility families
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ShiftedCRRAUtility:
    """u(c, theta) = u0 + (c + eps_c)^(1-sigma)/(1-sigma) * (w0 + (1-w0) theta).

    Positive for u0 > 0 and increasing in both arguments for
    sigma in (0, 1) and w0 in (0, 1].
    """

    u0: float = 0.1
    sigma: float = 0.5
    eps_c: float = 0.01
    w0: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.sigma < 1.0:
            raise ConfigurationError("CRRA exponent sigma must be in (0, 1)")
        for name in ("u0", "eps_c"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"utility shift {name} must be >= 0")
        if not 0.0 < self.w0 <= 1.0:
            raise ConfigurationError("mobility weight w0 must be in (0, 1]")

    def theta_weight(self, theta):
        return self.w0 + (1.0 - self.w0) * np.asarray(theta, dtype=np.float64)

    def __call__(self, c, theta):
        c = np.asarray(c, dtype=np.float64)
        base = (c + self.eps_c) ** (1.0 - self.sigma) / (1.0 - self.sigma)
        return self.u0 + base * self.theta_weight(theta)

    def optimal_c(self, n, Q, theta, nu, c_max):
        def foc(price, pos):
            theta_w = self.theta_weight(np.broadcast_to(theta, pos.shape))
            return (theta_w[pos] / price) ** (1.0 / self.sigma) - self.eps_c
        return _consumption_argmax(n, Q, nu, c_max, foc)


@dataclass(frozen=True)
class SeparableUtility:
    """u(c, theta) = log(1 + c) + b * theta."""

    b: float = 1.0

    def __post_init__(self):
        if self.b < 0:
            raise ConfigurationError("mobility utility slope b must be >= 0")

    def __call__(self, c, theta):
        return np.log1p(np.asarray(c, dtype=np.float64)) + self.b * np.asarray(theta)

    def optimal_c(self, n, Q, theta, nu, c_max):
        return _consumption_argmax(n, Q, nu, c_max, lambda price, pos: 1.0 / price - 1.0)


def _consumption_argmax(n, Q, nu, c_max, foc):
    """Pointwise maximizer of n^nu u(c, theta) - c n Q over [0, c_max].

    ``foc(price, pos)`` solves the first-order condition u_c = price, with
    price = n^(1-nu) Q, on the cells ``pos`` (populated, with Q > 0); the
    corner c_max is taken when marginal utility never meets the price, and
    on populated cells with Q <= 0.  Empty cells take c = 0, except that for
    nu = 0 the utility weight n^nu is 1 there (0^0 convention) and the
    argmax is the cap.  ``n`` may be a (n_nodes, n_age) stack with one Q
    per node.
    """
    n = np.asarray(n, dtype=np.float64)
    price = np.broadcast_to(np.expand_dims(Q, -1), n.shape)
    out = np.zeros_like(n)
    pos = n > 0.0
    if nu == 0.0:
        out[~pos] = c_max
    corner = pos & (price <= 0.0)
    out[corner] = c_max
    pos &= ~corner
    out[pos] = np.clip(foc(n[pos] ** (1.0 - nu) * price[pos], pos), 0.0, c_max)
    return out


@dataclass(frozen=True)
class ObjectiveParams:
    """Discounting, altruism, truncation horizon, and target selection.

    ``T_num`` truncates the infinite-horizon targets J1/J2 (None means the
    scenario horizon).  ``composite`` maps target names (at least one) to
    weights and overrides ``which`` when present; the J1 weight must be
    nonnegative so the consumption subproblem stays concave.
    """

    rho: float
    nu: float
    utility: object
    which: str = "J1"
    T_num: float | None = None
    j6_discounted: bool = False
    j6_sign: float = 1.0
    composite: dict | None = None

    def __post_init__(self):
        if not self.rho > 0:
            raise ConfigurationError("discount rate rho must be > 0")
        if not 0.0 <= self.nu <= 1.0:
            raise ConfigurationError("altruism exponent nu must be in [0, 1]")
        if self.T_num is not None and not self.T_num >= 0:
            raise ConfigurationError(f"truncation horizon T_num must be >= 0, got {self.T_num}")
        if self.which not in TARGETS:
            raise ConfigurationError(f"which must name a target in {TARGETS}, "
                                     f"got {self.which!r}")
        if self.j6_sign not in (1.0, -1.0):
            raise ConfigurationError("j6_sign must be +1 or -1")
        if self.composite is not None:
            if not self.composite:
                raise ConfigurationError("composite target needs at least one weight")
            for key, w in self.composite.items():
                if key not in TARGETS:
                    raise ConfigurationError(f"unknown composite target {key!r}")
                if key == "J1" and w < 0:
                    raise ConfigurationError("composite weight on J1 must be >= 0")

    def target_weights(self) -> dict:
        return dict(self.composite) if self.composite is not None else {self.which: 1.0}


# ----------------------------------------------------------------------
# running rewards
# ----------------------------------------------------------------------

def _utility_flow(n, utility, obj: ObjectiveParams, da: float):
    """int n^nu u da along the last (age) axis, given the utility values u = u(c, theta);
    leading axes are time nodes."""
    return da * (np.power(n, obj.nu) * utility).sum(axis=-1)


def node_reward(x, params: epi.EpiParams, obj: ObjectiveParams):
    """Running reward of the configured target at one state, as ``reward(c, theta, Y)``.

    ``x`` is the state (s, i, r): (3, n_age), a node stack or a triple (see
    ``hilbert``); Y is the output F(K, L_theta), which callers already hold.
    The state-only terms (n^nu for J1, the deaths flow for J6) are computed
    once here, one per node, and kept with the nonzero weights as
    ``reward.terms``.  Terminal targets J3 and J4 contribute nothing.
    ``theta`` may be a (L, n_age) stack with Y one value per row; the reward
    then has one entry per row.  A triple of node stacks, each component
    (n_nodes, 1, n_age), gives one reward per node and row.
    """
    s, i, r = components(x)
    da = params.grid.da
    active = {which: w for which, w in obj.target_weights().items()
              if w != 0.0 and which not in ("J3", "J4")}
    n_nu = np.power(s + i + r, obj.nu) if "J1" in active else None
    deaths = None
    if "J6" in active:
        deaths = epi.deaths_flow(
            i, epi.infection_mortality(params, epi.critical_load(i, params, da)), da)

    def reward(c, theta, Y):
        total = 0.0
        for which, w in active.items():
            if which == "J1":
                total = total + w * (da * (n_nu * obj.utility(c, theta)).sum(axis=-1))
            elif which == "J6":
                total = total + w * obj.j6_sign * deaths
            else:  # J2 and J5: the production flow
                total = total + w * Y
        return total

    reward.terms = active, n_nu, deaths
    return reward


# ----------------------------------------------------------------------
# target evaluation
# ----------------------------------------------------------------------

@dataclass
class EvalReport:
    """Target value with feasibility information for the optimizer."""

    value: float
    feasible: bool
    violation: float
    tail_bound: float | None
    components: dict


def evaluate(traj: epi.Trajectory, policy: np.ndarray, params: epi.EpiParams,
             econ, obj: ObjectiveParams) -> EvalReport:
    """Evaluate the configured target (or composite) on a simulated trajectory.

    Integral targets use the discounted left-endpoint Riemann sum on the
    trajectory's grid; terminal targets evaluate the final node.  For the
    truncated infinite-horizon targets the report carries the frozen-tail
    bound exp(-rho T) * max|U| / rho.
    """
    da, flow = traj.initial.grid.da, None
    if "J1" in obj.target_weights():
        flow = _utility_flow(traj.X.sum(axis=1), obj.utility(policy[0], policy[1]), obj,
                             da)[None]
    return _reports(traj.K[None], traj.Y[None], traj.deaths_flow[None], flow, traj.X[-1][None],
                    [traj.feasible], [traj.k_violation], traj.time_grid, da, econ, obj)[0]


# Most rows x n_age cells stepped as one batch.  Each batch steps its own row 0 (a
# gradient's base point) and a row joins only its own batch's row 0, so fewer batches
# step fewer rows; the cap bounds the working set, each (rows, n_age) temporary of the
# kernel within 320 KB.  fd_gradient in central mode (interleaved in-process medians of
# 5-15, shared 2-vCPU Xeon host, 2 MiB L2 a core) at caps of 10,240 / 20,480 / 40,960 /
# 81,920 cells: 192 probes at n_age 200 over 40 steps 36 / 34 / 30 / 30 ms, 192 at 800
# over 80 steps 263 / 235 / 226 / 212 ms, 48 at 1600 over 160 steps 300 / 271 / 232 /
# 271 ms.
_BATCH_CELLS = 40_960


def score_blocks(blocks: np.ndarray, initial: epi.EpiState, K0: float,
                 params: epi.EpiParams, econ, time_grid, n_floor_rel: float,
                 obj: ObjectiveParams) -> list:
    """Run and score each policy of a (B, 3, n_time_blocks, n_age_blocks) block
    stack, keeping no trajectory (:func:`epi.run_blocks`, on batches of rows
    within ``_BATCH_CELLS``).

    Returns one entry per row: its EvalReport, bit for bit :func:`evaluate`
    on the simulated trajectory of its expanded policy, or the ModelError
    that simulation raises.  The loop keeps per-node scalars only, plus the
    J1 utility flow of each node when a target needs it and the final
    states; the targets are summed over all rows of a batch at once.  The
    flow hook makes u(c, theta) once per time block, and each node's flow
    from it and the population n the kernel has made.
    """
    da, flow = initial.grid.da, None
    if "J1" in obj.target_weights():
        def flow(c, theta):
            utility = obj.utility(c, theta)
            return lambda n: _utility_flow(n, utility, obj, da)
    rows, scores = max(1, _BATCH_CELLS // initial.grid.n_age), []
    for lo in range(0, len(blocks), rows):
        run = epi.run_blocks(initial, K0, blocks[lo:lo + rows], params, econ, time_grid,
                             n_floor_rel, flow)
        with np.errstate(all="ignore"):  # a failed row's values are meaningless
            reports = _reports(run.K, run.agg[4], run.agg[2], run.flow, run.X, run.feasible,
                               run.k_violation, time_grid, da, econ, obj)
        scores += [run.errors.get(b, report) for b, report in enumerate(reports)]
    return scores


def _reports(K, Y, deaths, flow, final, feasible, violation, tg, da, econ,
             obj: ObjectiveParams) -> list:
    """The EvalReports of B runs from their per-node series (K, Y, the deaths flow
    and the J1 utility flow or None, each (B, n_steps + 1)) and final states
    (B, 3, n_age).  Every sum runs along the last axis, so each row's value is
    bit for bit that run's alone."""
    weights = obj.target_weights()
    values, tails = {}, {}
    for which in weights:
        values[which], tails[which] = _target_rows(which, K, Y, deaths, flow, final, tg,
                                                   da, econ, obj)
    values = {which: v.tolist() for which, v in values.items()}
    tail = tails[obj.which] if obj.composite is None else None
    reports = []
    for b in range(len(K)):
        components = {which: v[b] for which, v in values.items()}
        total = sum(weights[k] * components[k] for k in weights)
        reports.append(EvalReport(value=float(total), feasible=bool(feasible[b]),
                                  violation=float(violation[b]),
                                  tail_bound=None if tail is None else float(tail[b]),
                                  components=components))
    return reports


def _target_rows(which, K, Y, deaths, flow, final, tg, da, econ, obj):
    """One target's value per row, and its frozen-tail bound per row (or None)."""
    dt, n_steps = tg.dt, tg.n_steps
    elapsed = tg.times - tg.t0
    if which == "J4":
        return K[:, -1], None
    if which == "J3":
        labor_all = da * (final.sum(axis=-2) * econ.alpha).sum(axis=-1)
        return econ.F(K[:, -1], labor_all), None
    if which == "J6":
        disc = np.exp(-obj.rho * elapsed[:n_steps]) if obj.j6_discounted else 1.0
        return obj.j6_sign * ((disc * deaths[:, :n_steps]).sum(axis=-1) * dt), None
    m = n_steps if which == "J5" or obj.T_num is None else min(n_steps,
                                                                int(round(obj.T_num / dt)))
    u_vals = flow[:, :m] if which == "J1" else Y[:, :m]
    value = (np.exp(-obj.rho * elapsed[:m]) * u_vals).sum(axis=-1) * dt
    tail = None
    if which in ("J1", "J2") and m > 0:
        tail = np.exp(-obj.rho * (m * dt)) * np.abs(u_vals).max(axis=-1) / obj.rho
    return value, tail
