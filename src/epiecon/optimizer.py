"""Direct policy search: projected finite-difference ascent over control blocks.

The policy is parameterized by piecewise-constant blocks over the age-time
grid.  Gradients are finite differences of the penalized objective at block
granularity (one simulation per probe), the ascent is projected onto the
control box with backtracking line search, and the capital positivity
constraint enters through a smooth quadratic penalty.  Everything is
deterministic given the configuration and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import epi
from .errors import ConfigurationError, InfeasibleStart, ModelError
from .grid import expand_blocks
from .hamiltonian import hamiltonian_gap_profile, integrated_gap
from .scenario import Scenario


@dataclass(frozen=True)
class OptimizerConfig:
    initial_step: float = 1.0
    backtrack: float = 0.5
    max_backtracks: int = 12
    max_iters: int = 50
    grad_mode: str = "central"
    fd_eps_c: float = 1e-4
    fd_eps_theta: float = 1e-4
    fd_eps_eta: float = 1e-4
    penalty: float = 1e6
    n_age_blocks: int = 1
    n_time_blocks: int = 1
    tol: float = 1e-8
    seed: int = 0
    jitter: float = 0.0

    def __post_init__(self):
        if self.grad_mode not in ("central", "forward"):
            raise ConfigurationError(f"unknown gradient mode {self.grad_mode!r}")
        for name in ("initial_step", "backtrack", "fd_eps_c", "fd_eps_theta",
                     "fd_eps_eta", "penalty", "tol"):
            if not getattr(self, name) > 0:
                raise ConfigurationError(f"{name} must be > 0")
        if self.backtrack >= 1.0:
            raise ConfigurationError("backtrack factor must be < 1")
        for name in ("max_backtracks", "max_iters", "n_age_blocks", "n_time_blocks"):
            if getattr(self, name) < 0 or int(getattr(self, name)) != getattr(self, name):
                raise ConfigurationError(f"{name} must be a nonnegative integer")
        if self.n_age_blocks < 1 or self.n_time_blocks < 1:
            raise ConfigurationError("block counts must be >= 1")


@dataclass
class PolicyBlocks:
    """Block-level control values, shape (n_time_blocks, n_age_blocks) each."""

    c: np.ndarray
    theta: np.ndarray
    eta: np.ndarray

    def copy(self) -> "PolicyBlocks":
        return PolicyBlocks(self.c.copy(), self.theta.copy(), self.eta.copy())

    def expand(self, scenario: Scenario) -> epi.PolicyField:
        tg, ag = scenario.time_grid, scenario.age_grid
        return epi.PolicyField(expand_blocks(self.c, tg, ag),
                               expand_blocks(self.theta, tg, ag),
                               expand_blocks(self.eta, tg, ag))

    @classmethod
    def from_policy(cls, policy: epi.PolicyField, n_time_blocks: int,
                    n_age_blocks: int) -> "PolicyBlocks":
        """Block means of an existing policy surface (exact for block-constant ones)."""
        def reduce(values):
            rows = values[:-1] if values.shape[0] > 1 else values
            nt, na = rows.shape
            if nt % n_time_blocks != 0 or na % n_age_blocks != 0:
                raise ConfigurationError("block structure does not divide the policy grid")
            blocked = rows.reshape(n_time_blocks, nt // n_time_blocks,
                                   n_age_blocks, na // n_age_blocks)
            return blocked.mean(axis=(1, 3))

        return cls(reduce(policy.c), reduce(policy.theta), reduce(policy.eta))


def _project_blocks(blocks: PolicyBlocks, c_max: float) -> PolicyBlocks:
    return PolicyBlocks(np.clip(blocks.c, 0.0, c_max),
                        np.clip(blocks.theta, 0.0, 1.0),
                        np.clip(blocks.eta, 0.0, 1.0))


def penalized_objective(policy: epi.PolicyField, scenario: Scenario,
                        penalty: float = 1e6):
    """Target value minus the quadratic capital-negativity penalty, and the trajectory.

    Feasible trajectories return the target exactly; the penalty term
    penalty * sum_k max(0, -K_k)^2 dt has zero value and slope at K = 0.
    Returns (value, trajectory); the violation is ``trajectory.k_violation``.
    """
    traj = scenario.simulate(policy)
    report = scenario.evaluate(policy, traj)
    return report.value - penalty * report.violation, traj


@dataclass
class OptimReport:
    objective_trace: list
    violation_trace: list
    blocks: PolicyBlocks
    policy: epi.PolicyField
    feasible: bool
    converged: bool
    n_iters: int
    warnings: list = field(default_factory=list)
    integrated_gap_initial: float | None = None
    integrated_gap_final: float | None = None
    seed: int = 0


def _safe_objective(blocks: PolicyBlocks, scenario: Scenario,
                    config: OptimizerConfig):
    """(objective, trajectory, None) at block values; (None, None, message) on model failure."""
    try:
        policy = blocks.expand(scenario)
        return (*penalized_objective(policy, scenario, config.penalty), None)
    except ModelError as err:
        return None, None, f"probe failed: {err}"


_CHANNELS = ("c", "theta", "eta")


def _box(channel: str, scenario: Scenario):
    return (0.0, scenario.search.c_max) if channel == "c" else (0.0, 1.0)


def fd_gradient(blocks: PolicyBlocks, scenario: Scenario, config: OptimizerConfig):
    """Per-block finite-difference gradient of the penalized objective.

    Probes are clamped to the control box and the difference quotient uses
    the realized parameter displacement, so one-sided steps are taken at
    active bounds.  Failed probes contribute a zero component and a
    recorded warning.
    """
    grads = PolicyBlocks(np.zeros_like(blocks.c), np.zeros_like(blocks.theta),
                         np.zeros_like(blocks.eta))
    warnings = []
    f0 = None
    if config.grad_mode == "forward":
        f0, _, msg = _safe_objective(blocks, scenario, config)
        if f0 is None:
            warnings.append(f"base point: {msg}")

    eps_by_channel = {"c": config.fd_eps_c, "theta": config.fd_eps_theta,
                      "eta": config.fd_eps_eta}
    for channel in _CHANNELS:
        values = getattr(blocks, channel)
        grad = getattr(grads, channel)
        lo, hi = _box(channel, scenario)
        eps = eps_by_channel[channel]
        for idx in np.ndindex(values.shape):
            v = values[idx]
            if config.grad_mode == "central":
                vp, vm = min(v + eps, hi), max(v - eps, lo)
                if vp == vm:
                    continue
                fp = _probe(blocks, scenario, config, channel, idx, vp, warnings)
                fm = _probe(blocks, scenario, config, channel, idx, vm, warnings)
                if fp is None or fm is None:
                    continue
                grad[idx] = (fp - fm) / (vp - vm)
            else:
                vp = min(v + eps, hi)
                if vp > v and f0 is not None:
                    fp = _probe(blocks, scenario, config, channel, idx, vp, warnings)
                    if fp is None:
                        continue
                    grad[idx] = (fp - f0) / (vp - v)
                else:
                    vm = max(v - eps, lo)
                    if vm == v or f0 is None:
                        continue
                    fm = _probe(blocks, scenario, config, channel, idx, vm, warnings)
                    if fm is None:
                        continue
                    grad[idx] = (f0 - fm) / (v - vm)
    return grads, warnings


def _probe(blocks, scenario, config, channel, idx, value, warnings):
    trial = blocks.copy()
    getattr(trial, channel)[idx] = value
    f, _, msg = _safe_objective(trial, scenario, config)
    if f is None:
        warnings.append(f"{channel}{list(idx)}: {msg}")
    return f


def optimize(scenario: Scenario, config: OptimizerConfig,
             value_function=None) -> OptimReport:
    """Projected-gradient ascent over the block-structured policy.

    Starts from the scenario's policy (block means) with optional seeded
    jitter; accepted iterates strictly improve the penalized objective and
    the loop stops on the relative-change tolerance, a failed line search,
    or the iteration budget.  When a candidate value function is supplied
    the report carries the integrated Hamiltonian gap of the initial and
    final policies as an optimality certificate.
    """
    rng = np.random.default_rng(config.seed)
    blocks = PolicyBlocks.from_policy(scenario.policy, config.n_time_blocks,
                                      config.n_age_blocks)
    if config.jitter > 0.0:
        blocks.c = blocks.c + config.jitter * rng.standard_normal(blocks.c.shape)
        blocks.theta = blocks.theta + config.jitter * rng.standard_normal(blocks.theta.shape)
        blocks.eta = blocks.eta + config.jitter * rng.standard_normal(blocks.eta.shape)
    blocks = _project_blocks(blocks, scenario.search.c_max)
    all_warnings = []

    f, traj, _ = _safe_objective(blocks, scenario, config)
    if f is None:
        raise InfeasibleStart(
            "objective undefined at the initial policy; "
            "increase K0 or reduce the consumption level")

    initial_blocks, initial_traj = blocks.copy(), traj
    trace = [f]
    viol_trace = [traj.k_violation]
    converged = False
    n_iters = 0

    for _ in range(config.max_iters):
        grads, warns = fd_gradient(blocks, scenario, config)
        all_warnings.extend(warns)
        gnorm = float(np.sqrt(sum(np.sum(getattr(grads, ch) ** 2) for ch in _CHANNELS)))
        if gnorm == 0.0:
            converged = True
            break
        step_size = config.initial_step
        accepted = False
        for _bt in range(config.max_backtracks + 1):
            trial = PolicyBlocks(blocks.c + step_size * grads.c,
                                 blocks.theta + step_size * grads.theta,
                                 blocks.eta + step_size * grads.eta)
            trial = _project_blocks(trial, scenario.search.c_max)
            ft, trial_traj, _ = _safe_objective(trial, scenario, config)
            if ft is not None and ft > f:
                accepted = True
                break
            step_size *= config.backtrack
        if not accepted:
            converged = True
            break
        n_iters += 1
        rel_change = abs(ft - f) / max(abs(f), 1.0)
        blocks, f, traj = trial, ft, trial_traj
        trace.append(f)
        viol_trace.append(traj.k_violation)
        if rel_change < config.tol:
            converged = True
            break

    final_policy = blocks.expand(scenario)
    gap_initial = gap_final = None
    if value_function is not None:
        initial_policy = initial_blocks.expand(scenario)
        gaps0 = hamiltonian_gap_profile(value_function, initial_policy, initial_traj,
                                        scenario)
        gaps1 = hamiltonian_gap_profile(value_function, final_policy, traj, scenario)
        gap_initial = integrated_gap(gaps0, initial_traj, scenario.obj)
        gap_final = integrated_gap(gaps1, traj, scenario.obj)

    return OptimReport(objective_trace=trace, violation_trace=viol_trace,
                       blocks=blocks, policy=final_policy,
                       feasible=traj.feasible, converged=converged,
                       n_iters=n_iters, warnings=all_warnings,
                       integrated_gap_initial=gap_initial,
                       integrated_gap_final=gap_final, seed=config.seed)
