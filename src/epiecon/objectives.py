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

from . import economy, epi
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

def _utility_flow(n, c, theta, obj: ObjectiveParams, da: float):
    """int n^nu u(c, theta) da along the last (age) axis; leading axes are time nodes."""
    return da * (np.power(n, obj.nu) * obj.utility(c, theta)).sum(axis=-1)


def node_reward(x, params: epi.EpiParams, obj: ObjectiveParams):
    """Running reward of the configured target at one state, as ``reward(c, theta, Y)``.

    ``x`` is the state (s, i, r): (3, n_age), a node stack or a triple (see
    ``hilbert``); Y is the output F(K, L_theta), which callers already hold.
    The state-only terms (n^nu for J1, the deaths flow for J6) are computed
    once here, one per node.  Terminal targets J3 and J4 contribute nothing.
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

    return reward


def running_reward(x, K, c_t, theta_t, eta_t, params, econ, obj: ObjectiveParams):
    """Reward integrand of the configured target at state ``x`` and controls (c, theta);
    on a node stack (K and each control with one value or slice per node), one per node."""
    x = components(x)
    Y = econ.F(K, economy.labor_supply(x, theta_t, econ, params.grid.da))
    return node_reward(x, params, obj)(c_t, theta_t, Y)


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
    weights = obj.target_weights()
    components = {}
    tail_bound = None
    for which in weights:
        value, tail = _single_target(traj, policy, params, econ, obj, which)
        components[which] = value
        if which == obj.which and obj.composite is None:
            tail_bound = tail
    total = sum(weights[k] * components[k] for k in weights)
    return EvalReport(value=float(total), feasible=traj.feasible,
                      violation=traj.k_violation, tail_bound=tail_bound,
                      components=components)


def _single_target(traj, policy, params, econ, obj, which):
    tg = traj.time_grid
    dt = tg.dt
    n_steps = tg.n_steps
    elapsed = tg.times - tg.t0
    da = traj.initial.grid.da

    if which == "J4":
        return float(traj.K[-1]), None
    if which == "J3":
        labor_all = float(da * (traj.X[-1].sum(axis=0) * econ.alpha).sum())
        return float(econ.F(traj.K[-1], labor_all)), None

    if which in ("J1", "J2", "J5"):
        if which == "J5" or obj.T_num is None:
            m = n_steps
        else:
            m = min(n_steps, int(round(obj.T_num / dt)))
        if which == "J1":
            u_vals = _utility_flow(traj.X[:m].sum(axis=1), policy[0, :m],
                                   policy[1, :m], obj, da)
        else:
            u_vals = traj.Y[:m]
        disc = np.exp(-obj.rho * elapsed[:m])
        value = float((disc * u_vals).sum() * dt)
        tail = None
        if which in ("J1", "J2") and m > 0:
            sup_u = float(np.max(np.abs(u_vals)))
            tail = float(np.exp(-obj.rho * (m * dt)) * sup_u / obj.rho)
        return value, tail

    if which == "J6":
        disc = np.exp(-obj.rho * elapsed[:n_steps]) if obj.j6_discounted else 1.0
        value = float((disc * traj.deaths_flow[:n_steps]).sum() * dt)
        return obj.j6_sign * value, None
