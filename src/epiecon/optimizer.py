"""Direct policy search: projected finite-difference ascent over control blocks.

The policy is parameterized by piecewise-constant blocks over the age-time
grid.  Gradients are finite differences of the penalized objective at block
granularity.  The probes of one gradient are scored from their block
values without keeping a trajectory (``Scenario.score``; one row per probe,
each bit for bit its single run); the base point is row 0, a probe joins
its run at the probe's time block, so a shared head is stepped once, and a
consumption probe rides its epidemic, which c does not move.  The first
gradient's row 0 is the start: its score and its trajectory, kept by the
stepping loop, are the search's start value and the certificate's start
run, so the start is not simulated on its own.  Each line-search trial is
simulated with its trajectory, which the gap certificate reads, so it
simulates nothing.  The ascent is projected onto the control box with
backtracking line search, and the capital positivity constraint enters
through a smooth quadratic penalty.  Everything is deterministic given the
configuration and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InfeasibleStart, ModelError
from .grid import expand_blocks
from .hamiltonian import _gap_profiles, integrated_gap
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

    def __post_init__(self):  # the one statement of each optimizer value rule
        if self.grad_mode not in ("central", "forward"):
            raise ConfigurationError(f"grad_mode must be 'central' or 'forward', "
                                     f"got {self.grad_mode!r}")
        for name in ("initial_step", "backtrack", "fd_eps_c", "fd_eps_theta",
                     "fd_eps_eta", "penalty", "tol"):
            if not getattr(self, name) > 0:
                raise ConfigurationError(f"{name} must be > 0")
        if self.backtrack >= 1.0:
            raise ConfigurationError("backtrack must be < 1")
        for name, least in (("max_backtracks", 0), ("max_iters", 0), ("n_age_blocks", 1),
                            ("n_time_blocks", 1), ("seed", 0)):
            value = getattr(self, name)
            if not (value >= least and value % 1 == 0):  # NaN and infinity fail too
                raise ConfigurationError(f"{name} must be an integer >= {least}")
        if not self.jitter >= 0.0:
            raise ConfigurationError("jitter must be >= 0")


def block_means(policy: np.ndarray, n_time_blocks: int,
                n_age_blocks: int) -> np.ndarray:
    """Block means of a (3, n_steps + 1, n_age) policy, shape (3, n_time_blocks, n_age_blocks).

    Rows are c, theta, eta.  A block-constant surface gives back its block
    values, exactly when the block sums are exact.
    """
    rows = policy[:, :-1] if policy.shape[1] > 1 else policy
    _, nt, na = rows.shape
    if nt % n_time_blocks != 0 or na % n_age_blocks != 0:
        raise ConfigurationError("block structure does not divide the policy grid")
    return rows.reshape(3, n_time_blocks, nt // n_time_blocks,
                        n_age_blocks, na // n_age_blocks).mean(axis=(2, 4))


def _project_blocks(blocks: np.ndarray, c_max: float) -> np.ndarray:
    """Clip block values into the control box: c to [0, c_max], theta and eta to [0, 1]."""
    return np.clip(blocks, 0.0, np.array([c_max, 1.0, 1.0])[:, None, None])


def _penalized(report, penalty: float):
    """The objective the search ascends: the target value minus penalty times the
    capital violation, from an EvalReport; a ModelError is passed through."""
    if isinstance(report, ModelError):
        return report
    return report.value - penalty * report.violation


def penalized_objective(policy: np.ndarray, scenario: Scenario,
                        penalty: float = 1e6):
    """Target value minus the quadratic capital-negativity penalty, and the trajectory.

    Feasible trajectories return the target exactly; the penalty term
    penalty * sum_k max(0, -K_k)^2 dt has zero value and slope at K = 0.
    Returns (value, trajectory); the violation is ``trajectory.k_violation``.
    A model error is raised with its step.  :func:`optimize` runs each
    line-search trial here and keeps the trajectory for the gap certificate;
    the gradient's probes keep none but the base point's (``Scenario.score``,
    the same value bit for bit).
    """
    traj = scenario.simulate(policy)
    return _penalized(scenario.evaluate(policy, traj), penalty), traj


@dataclass
class OptimReport:
    objective_trace: list
    violation_trace: list
    blocks: np.ndarray
    policy: np.ndarray
    feasible: bool
    converged: bool
    n_iters: int
    warnings: list = field(default_factory=list)
    integrated_gap_initial: float | None = None
    integrated_gap_final: float | None = None
    seed: int = 0


class Gradient(tuple):
    """What :func:`fd_gradient` returns: it unpacks as ``(grads, warnings)``, and
    ``scores`` is the scored probe stack, row 0 the base point, with the base
    point's trajectory as ``scores.start`` (see ``Scenario.score``)."""

    def __new__(cls, grads, warnings, scores):
        self = super().__new__(cls, (grads, warnings))
        self.scores = scores
        return self


def fd_gradient(blocks: np.ndarray, scenario: Scenario, config: OptimizerConfig) -> Gradient:
    """Per-block finite-difference gradient of the penalized objective.

    ``blocks`` has shape (3, n_time_blocks, n_age_blocks) with rows c, theta,
    eta.  Probes are clamped to the control box and the difference quotient
    uses the realized parameter displacement, so one-sided steps are taken at
    active bounds.  Forward mode probes upward unless the box blocks it and
    takes the base point as the other end.  The base point and the probes
    form one (P, 3, n_time_blocks, n_age_blocks) stack, the base point
    first and the probes by time block, scored by ``Scenario.score`` in
    batches of rows, which keeps no trajectory but the base point's; each
    row's score is bit for bit its single run's.  A probe runs the base
    point's run until its time block, so it joins the batch there; a
    consumption probe shares the base point's epidemic and makes only its
    own capital and utility (``epi.run_blocks``); and an end at the base
    point (a one-sided step) is the base point's row.  Failed probes
    contribute a zero component and a recorded warning naming the block,
    as ``theta[0, 1]``.
    """
    grads = np.zeros_like(blocks)
    forward = config.grad_mode == "forward"
    names = ("c", "theta", "eta")
    hi = (scenario.search.c_max, 1.0, 1.0)
    eps = (config.fd_eps_c, config.fd_eps_theta, config.fd_eps_eta)

    probes, plan = [blocks], []  # the probe stack's rows, row 0 the base point
    # in time-block order: a probe of time block j joins the base point's run at
    # j's first node (``epi.run_blocks``), and the running rows stay a prefix
    for idx in sorted(np.ndindex(blocks.shape), key=lambda idx: idx[1]):
        v, row = blocks[idx], idx[0]
        up, down = min(v + eps[row], hi[row]), max(v - eps[row], 0.0)
        if forward:
            up, down = (up, v) if up > v else (v, down)
        if up == down:
            continue
        ends = []  # the probe rows of f(up) and f(down)
        for x in (up, down):
            if x == v:
                ends.append(0)
            else:
                ends.append(len(probes))
                probes.append(blocks.copy())
                probes[-1][idx] = x
        plan.append((idx, up, down, ends))

    scored = scenario.score(np.stack(probes))
    # the penalized objective of each probe row, or its ModelError
    scores = [_penalized(report, config.penalty) for report in scored]
    if forward and isinstance(scores[0], ModelError):
        return Gradient(grads, [f"base point: probe failed: {scores[0]}"], scored)

    warnings = []
    for idx, up, down, ends in sorted(plan):  # in block order
        f_up, f_down = (scores[p] for p in ends)
        failed = [f for f in (f_up, f_down) if isinstance(f, ModelError)]
        warnings.extend(f"{names[idx[0]]}{list(idx[1:])}: probe failed: {err}" for err in failed)
        if not failed:
            grads[idx] = (f_up - f_down) / (up - down)
    return Gradient(grads, warnings, scored)


def optimize(scenario: Scenario, config: OptimizerConfig,
             value_function=None) -> OptimReport:
    """Projected-gradient ascent over the block-structured policy.

    Starts from the scenario's policy (block means) with optional seeded
    jitter; accepted iterates strictly improve the penalized objective and
    the loop stops on the relative-change tolerance, a failed line search,
    or the iteration budget.  The start's value and trajectory come from
    the first gradient's batch, whose row 0 it is (a batch of the start
    alone when the budget is 0 iterations).  When a candidate value
    function is supplied the report carries the integrated Hamiltonian gap
    of the initial and final policies as an optimality certificate, read
    from the trajectories of the start and the last accepted trial and
    searched as one stack.
    """
    rng = np.random.default_rng(config.seed)
    blocks = block_means(scenario.policy, config.n_time_blocks, config.n_age_blocks)
    if config.jitter > 0.0:
        blocks = blocks + config.jitter * rng.standard_normal(blocks.shape)
    blocks = _project_blocks(blocks, scenario.search.c_max)
    tg, ag = scenario.time_grid, scenario.age_grid
    all_warnings = []

    gradient = fd_gradient(blocks, scenario, config) if config.max_iters else None
    scored = scenario.score(blocks[None]) if gradient is None else gradient.scores
    if isinstance(scored[0], ModelError):
        err = scored[0]
        raise InfeasibleStart("objective undefined at the initial policy "
                              f"(model error at step {err.step_index}: {err})") from err

    policy = expand_blocks(blocks, tg, ag)
    f, traj = _penalized(scored[0], config.penalty), scored.start
    initial_policy, initial_traj = policy, traj
    trace = [f]
    viol_trace = [traj.k_violation]
    converged = False
    n_iters = 0

    for it in range(config.max_iters):
        if it:  # the first gradient's is the start's batch
            gradient = fd_gradient(blocks, scenario, config)
        grads, warns = gradient
        all_warnings.extend(warns)
        if not grads.any():
            converged = True
            break
        step_size = config.initial_step
        accepted = False
        for _bt in range(config.max_backtracks + 1):
            trial = _project_blocks(blocks + step_size * grads, scenario.search.c_max)
            trial_policy = expand_blocks(trial, tg, ag)
            try:
                ft, trial_traj = penalized_objective(trial_policy, scenario, config.penalty)
            except ModelError:
                ft = None
            if ft is not None and ft > f:
                accepted = True
                break
            step_size *= config.backtrack
        if not accepted:
            converged = True
            break
        n_iters += 1
        rel_change = abs(ft - f) / max(abs(f), 1.0)
        blocks, policy, f, traj = trial, trial_policy, ft, trial_traj
        trace.append(f)
        viol_trace.append(traj.k_violation)
        if rel_change < config.tol:
            converged = True
            break

    gap_initial = gap_final = None
    if value_function is not None:  # both runs' trajectories searched as one node stack
        gaps = _gap_profiles(value_function, [initial_policy, policy],
                             [initial_traj, traj], scenario)
        gap_initial = integrated_gap(gaps[0], initial_traj, scenario.obj)
        gap_final = integrated_gap(gaps[1], traj, scenario.obj)

    return OptimReport(objective_trace=trace, violation_trace=viol_trace,
                       blocks=blocks, policy=policy,
                       feasible=traj.feasible, converged=converged,
                       n_iters=n_iters, warnings=all_warnings,
                       integrated_gap_initial=gap_initial,
                       integrated_gap_final=gap_final, seed=config.seed)
