"""Current-value Hamiltonian, pointwise control maximization, and the
verification diagnostics.

The Hamiltonian splits as H_CV = H0 + H1 where H0 collects the terms that
do not depend on the controls (the adjoint pairing, capital depreciation,
and the infected-mortality sink) and H1 the control-dependent part.  A
candidate pair (value function v, policy) is certified by residuals: the
per-step gap between sup_z H1 and H1 at the policy, the chain-rule
identity along the trajectory, and the transversality decay of the
discounted terminal value.  Nothing here solves the dynamic-programming
equation; the module only measures how far a candidate is from satisfying
it.  The Hamiltonian pieces and diagnostics take the control problem as one
``Scenario``; states enter as (3, n_age) arrays or (s, i, r) triples, like
traj.X[k], or as a node stack like traj.X with one K per node (see ``hilbert``),
which gives one value per node, so the diagnostics need no loop over nodes.
``transversality_check`` keeps its loop, as its trajectories differ in length;
``greedy_policy``'s search is the feedback law of one run of the stepping loop.
The force of infection has the extinction floor of ``simulate``
(n_floor_rel times the initial population): ``ExtinctPopulation`` at or below it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import economy, epi, objectives
from .errors import ConfigurationError
from .grid import RankOneKernel, _as_readonly
from .hilbert import CostateField, HilbertSpace, components

if TYPE_CHECKING:  # scenario.py imports this module
    from .scenario import Scenario


# ----------------------------------------------------------------------
# candidate value functions
# ----------------------------------------------------------------------

def _weights(space: HilbertSpace, w) -> tuple:
    return tuple(_as_readonly(c, (space.grid.n_age,), "value-function weight") for c in w)


class LinearValue:
    """v(h, K) = <h, w>_H + q K with constant gradient (w, q); one value per node of a stack."""

    def __init__(self, space: HilbertSpace, w, q: float):
        self.space = space
        self.w = _weights(space, w)
        self.q = float(q)

    def value(self, h, K):
        return self.space.inner(h, self.w) + self.q * K

    def grad_h(self, h, K):
        return self.w

    def grad_K(self, h, K) -> float:
        return self.q


class QuadraticValue:
    """v(h, K) = 1/2 <h, W h>_H + 1/2 q K^2 with W pointwise multiplication."""

    def __init__(self, space: HilbertSpace, w, q: float):
        self.space = space
        self.w = _weights(space, w)
        self.q = float(q)

    def _wh(self, h):
        return tuple(wc * hc for wc, hc in zip(self.w, components(h)))

    def value(self, h, K):
        return 0.5 * self.space.inner(h, self._wh(h)) + 0.5 * self.q * K * K

    def grad_h(self, h, K):
        return self._wh(h)

    def grad_K(self, h, K) -> float:
        return self.q * K


def validate_gradient(v, probes, rel_tol: float = 1e-6) -> float:
    """Check the supplied gradient against central differences of v in ``v.space``.

    Probes are (h, K) pairs; seeded random directions are drawn per probe.
    Returns the worst relative discrepancy and raises if it exceeds ``rel_tol``.
    """
    space = v.space
    rng = np.random.default_rng(0)
    worst = 0.0
    for h, K in probes:
        g = tuple(rng.standard_normal(space.grid.n_age) for _ in range(3))
        scale = max(space.norm(h), 1.0)
        eps = 1e-4 * scale / max(space.norm(g), 1e-12)
        hp = tuple(hc + eps * gc for hc, gc in zip(h, g))
        hm = tuple(hc - eps * gc for hc, gc in zip(h, g))
        fd = (v.value(hp, K) - v.value(hm, K)) / (2.0 * eps)
        an = space.inner(v.grad_h(h, K), g)
        worst = max(worst, abs(fd - an) / max(abs(an), 1.0))
        ank = v.grad_K(h, K)
        # v(h, K +- epsk) carries round-off of about eps |v|, so the quotient is
        # off by about eps |v| / epsk: widen the step to keep that 100x below rel_tol
        roundoff = np.finfo(np.float64).eps * abs(v.value(h, K))
        epsk = max(1e-4 * max(abs(K), 1.0),
                   100.0 * roundoff / (rel_tol * max(abs(ank), 1.0)))
        fdk = (v.value(h, K + epsk) - v.value(h, K - epsk)) / (2.0 * epsk)
        worst = max(worst, abs(fdk - ank) / max(abs(ank), 1.0))
    if worst > rel_tol:
        raise ConfigurationError(
            f"value-function gradient mismatch {worst:.3e} exceeds {rel_tol:.1e}")
    return worst


# ----------------------------------------------------------------------
# Hamiltonian pieces
# ----------------------------------------------------------------------

def h0_part(x, K, costate: CostateField, scenario: Scenario):
    """Control-independent Hamiltonian part, one value per node of a node stack.

    <h, A* p>_H - delta K Q - <mu_I(., Xi(h)) h2, p2>_L2.
    """
    space, params = scenario.space, scenario.epi
    i = components(x)[1]
    da = space.grid.da
    astar = space.apply_A_star(costate.triple())
    mu_i = epi.infection_mortality(params, epi.critical_load(i, params, da))
    sink = da * (mu_i * i * costate.p2).sum(axis=-1)
    return space.inner(x, astar) - scenario.econ.delta * K * costate.Q - sink


def h1_evaluator(x, K, costate: CostateField, scenario: Scenario, reward: bool = True):
    """H1 at one node, or at each node of a node stack, as a function
    ``h1(c, theta, eta)`` of the control slices.

    -<Lam h1, p1>_{pi_S} + <Lam h1, p2> + F(K, L_theta) Q - C Q - D Q
    plus the running reward of the configured target; ``reward=False`` leaves
    the reward out (the controlled drift paired with the costate).  The
    state-only terms (N, and n^nu and the deaths flow of the reward) are
    computed once here, one value per node, and so is the extinction-floor
    test, which raises for the first node at or below the floor.

    One node: ``x`` is (3, n_age) or a triple, K and Q are scalars; theta and
    eta are (n_age,) slices or (L, n_age) stacks of L slices (c is one
    slice), and a stack gives L values.  A node stack puts the node axis
    first: x is (n_nodes, 3, n_age), K and Q have one value per node, p1 and
    p2 are (n_age,) or (n_nodes, n_age), and every control carries one slice
    or one (L, n_age) stack per node, giving (n_nodes,) or (n_nodes, L)
    values.  Each value equals H1 at that node and slice alone, bit for bit,
    since every age sum runs along the last axis row by row.

    The evaluator keeps the state's running reward as ``h1.running``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2:  # one node: a node stack of one
        h1 = h1_evaluator(x[None], K, costate, scenario, reward)
        return lambda *z: h1(*(np.asarray(u)[None] for u in z))[0]
    space, params, econ = scenario.space, scenario.epi, scenario.econ
    da = space.grid.da
    # each state component as (n_nodes, 1, n_age), per-node scalars as
    # (n_nodes, 1): both broadcast against (n_nodes, L, n_age) control rows
    state = s, i, r = tuple(x[:, k, None] for k in range(3))
    n_total = da * (s + i + r).sum(axis=-1)
    epi.extinction_check(n_total, scenario.n_floor_rel * scenario.initial.total_population())
    n_total = n_total[..., None]
    K, Q = np.reshape(K, (-1, 1)), np.reshape(costate.Q, (-1, 1))
    p1, p2 = (np.expand_dims(p, -2) for p in (costate.p1, costate.p2))
    running = objectives.node_reward(state, params, scenario.obj) if reward else None

    def rows(u):  # one slice per node as (n_nodes, 1, n_age); a stack stays
        return u if np.ndim(u) == 3 else u[:, None]

    def h1(c_t, theta_t, eta_t):
        stacked = max(np.ndim(theta_t), np.ndim(eta_t)) == 3
        c_t, theta_t, eta_t = rows(c_t), rows(theta_t), rows(eta_t)
        lam_s = epi.force_of_infection(i, n_total, theta_t, eta_t, params.m, da) * s
        val = -(da * (lam_s * p1 * space.w1).sum(axis=-1))
        val += da * (lam_s * p2).sum(axis=-1)
        Y = econ.F(K, economy.labor_supply(state, theta_t, econ, da))
        val += Y * Q
        val -= economy.consumption_total(state, c_t, da) * Q
        val -= economy.testing_cost(state, eta_t, econ, da) * Q
        if running is not None:
            val = val + running(c_t, theta_t, Y)
        return val if stacked else val[:, 0]

    h1.running = running
    return h1


def h1_part(x, K, costate: CostateField, c_t, theta_t, eta_t, scenario: Scenario):
    """Control-dependent Hamiltonian part at the control slice (c, theta, eta):
    the evaluator on a batch of one, a float; on a node stack, one per node."""
    val = h1_evaluator(x, K, costate, scenario)(c_t, theta_t, eta_t)
    return float(val) if np.ndim(val) == 0 else val


# ----------------------------------------------------------------------
# control maximization
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ControlSearchGrid:
    """Finite candidate lattice for the (theta, eta) search.

    theta and eta are piecewise constant over ``n_age_blocks`` equal age
    blocks with values restricted to the given level lists; consumption is
    maximized exactly per cell on [0, c_max].
    """

    theta_levels: tuple
    eta_levels: tuple
    n_age_blocks: int
    c_max: float
    max_sweeps: int = 30

    def __post_init__(self):
        for name in ("theta_levels", "eta_levels"):
            levels = getattr(self, name)
            if len(levels) == 0 or any(not 0.0 <= x <= 1.0 for x in levels):
                raise ConfigurationError(f"{name} must be a nonempty subset of [0, 1]")
        for name in ("n_age_blocks", "max_sweeps"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if not self.c_max > 0:
            raise ConfigurationError("c_max must be > 0")


@dataclass
class H1Result:
    value: float
    c: np.ndarray
    theta: np.ndarray
    eta: np.ndarray


def _optimal_c(n: np.ndarray, Q, theta_t: np.ndarray,
               obj: objectives.ObjectiveParams, c_max: float) -> np.ndarray:
    """Exact per-cell consumption argmax of H1 given (theta, eta).

    Only a J1 component makes H1 depend on c through the utility; other
    targets leave the linear capital price -c n Q, so the argmax is a
    corner decided by the sign of Q.  Cells without population take c = 0.
    ``n`` and ``theta_t`` may be (n_nodes, n_age) stacks with one Q per node.
    """
    w_u = obj.target_weights().get("J1", 0.0)
    if w_u > 0.0:
        return obj.utility.optimal_c(n, Q / w_u, theta_t, obj.nu, c_max)
    out = np.zeros_like(n)
    out[(n > 0.0) & (np.expand_dims(Q, -1) < 0.0)] = c_max
    return out


# A pick scored from block sums stands when it beats the runner-up by more than
# _MARGIN M (see maximize_h1).  Either score of a level, from block sums or from
# the exact evaluator, lies within about (2 n_age + 20) ulps of M of the true
# value, so below 10^5 age cells the margin is over ten times both roundings.
_MARGIN = 1e-9


def maximize_h1(x, K, costate, scenario: Scenario, baseline=None) -> H1Result:
    """Blockwise-exhaustive maximization of H1 over ``scenario.search``.

    Alternates (i) the exact per-cell consumption argmax with (ii) a
    coordinate sweep over the (theta, eta) age blocks, each block set to
    its best level with all others held fixed, until a fixed point.  The
    force of infection couples ages through the contact kernel, so the
    sweep is repeated rather than decoupled.  Deterministic: the
    lowest-index level wins ties.

    A sweep holds c, and theta and eta are constant on each block, so H1 at
    each level of a block follows from per-block sums: of labor, of testing,
    of the J1 utility (evaluated once per sweep at every level), and, for a
    rank-one kernel m0 g g, of the infection term coef S W, with
    S = sum g theta eta i and W = sum theta g s (p2 - p1 w1).  A pass scores
    a block's levels on (rows, levels) arrays.  A pick stands only where the
    best level beats the runner-up by more than ``_MARGIN`` M, with M the sum
    of the magnitudes that bound each term's rounding: there the exact
    evaluator (:func:`h1_evaluator`) picks the same level.  It scores every
    other row itself, and every row of a dense ``table`` kernel, except at
    an eta block without infected cells, where all levels score the same and
    the first wins.  So every pick and every value returned is the exact
    evaluator's, bit for bit.  The block sums raise no numpy warnings.

    There are two starts, the top and the bottom corner of the lattice, and
    the better result wins (the top one on a tie).  Both run as one lockstep
    search over the node stack taken twice.  A search stops when a sweep
    moves no theta or eta level: c is the argmax of the theta levels alone,
    so it is re-solved only after a sweep that moved one.

    ``baseline``, when given as a (c, theta, eta) slice, is also entered as
    a candidate (with its consumption re-solved exactly), so the returned
    value dominates H1 at that slice up to the consumption argmax.

    A node stack (x, K and the costate as :func:`h1_evaluator` takes them,
    ``baseline`` one (3, n_nodes, n_age) array) is searched in lockstep.
    Each node keeps its own stop test; a node that has passed it only
    repeats its last sweep while the others go on, so its result is, bit
    for bit, the one it gets alone, and so is each start's.  ``value`` is
    then one per node, and c, theta and eta are (n_nodes, n_age).  One node
    is a stack of one, with a float ``value``.
    """
    search, obj, econ = scenario.search, scenario.obj, scenario.econ
    grid, nb, m = scenario.space.grid, search.n_age_blocks, scenario.epi.m
    n_age, da = grid.n_age, grid.da
    if n_age % nb != 0:
        raise ConfigurationError(f"{nb} age blocks do not divide n_age = {n_age}")
    bs = n_age // nb
    th_levels = np.asarray(search.theta_levels, dtype=np.float64)
    et_levels = np.asarray(search.eta_levels, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 2
    nodes = x[None] if single else x
    n_nodes = nodes.shape[0]
    rows = np.tile(np.arange(n_nodes), 2)  # the rows searched: the nodes, once per start
    nodes = nodes[rows]
    K = np.broadcast_to(np.asarray(K, dtype=np.float64), (n_nodes,))[rows]
    Q = np.broadcast_to(np.asarray(costate.Q, dtype=np.float64), (n_nodes,))[rows]
    p1, p2 = (p[rows] if np.ndim(p) == 2 else p for p in (costate.p1, costate.p2))
    caller = np.geterr()

    def evaluator(sub=slice(None)):  # the exact evaluator of the rows ``sub``
        return h1_evaluator(nodes[sub], K[sub], CostateField(
            *(p[sub] if np.ndim(p) == 2 else p for p in (p1, p2)), costate.p3, Q[sub]),
            scenario)

    evaluate = evaluator()
    s, i, r = nodes[:, 0], nodes[:, 1], nodes[:, 2]
    n = s + i + r
    R = len(n)

    def blocks(cells):  # the sum over each age block, along the last axis
        return np.add.reduce(cells.reshape(*cells.shape[:-1], nb, bs), -1)

    # the per-block sums and per-row terms of the block-sum scores
    with np.errstate(all="ignore"):
        idle = ~(i.reshape(R, nb, bs) != 0).any(-1)
        # a table, or a grid too fine for the margin, scores exactly
        rank_one, infection = isinstance(m, RankOneKernel) and n_age < 10**5, 0.0
        if rank_one:
            coef, w1 = (m.m0 * da / n.sum(-1))[:, None], scenario.space.w1
            # S and W per unit of theta eta and of theta on each block
            GI, GSP = blocks(m.g * i), blocks(m.g * s * (p2 - p1 * w1))
            infection = coef[:, 0] * (np.abs(m.g) * i).sum(-1) * (np.abs(m.g) * s * (
                np.abs(p1 * w1) + np.abs(p2))).sum(-1)
        active, n_nu, deaths = evaluate.running.terms
        w_u, w_y = active.get("J1", 0.0), [w for k, w in active.items() if k in ("J2", "J5")]
        j6 = active["J6"] * obj.j6_sign * deaths[:, 0] if "J6" in active else 0.0
        Kc, Qc = K[:, None], Q[:, None]
        QY, Y0 = Qc + sum(w_y), econ.F(Kc, 0.0)
        # F rounds within a few ulps of |Y| per ulp of L (CES within 1/|s| ulps), and
        # Y - F(K, 0) bounds L dF/dL for F concave in L
        y_mag = (1.0 + 1.0 / abs(getattr(econ.F, "substitution", 1.0))) * (
            np.abs(Qc) + sum(map(abs, w_y)))
        LB, E = da * blocks((s + r) * econ.alpha), da * blocks(i * econ.e)
    others, ar, blk = 1.0 - np.eye(nb), np.arange(R), np.arange(nb)

    def level(eta):  # the testing expenditure's argument
        return 1.0 - eta if econ.cost_complement else eta

    def parts(th, et, U):  # S, W, L, U and X of each block at each level
        return np.stack(np.broadcast_arrays(th * et * GI[..., None], th * GSP[..., None],
                                            econ.phi(th) * LB[..., None], U,
                                            level(et) * E[..., None]))

    def approx(S, W, L, U, X, base, bound):  # the scores, and M per row
        Y, DQ = econ.F(Kc, L), econ.D(X) * Qc
        mag = (y_mag * (np.abs(Y) + np.abs(Y - Y0)) + U + np.abs(DQ)).max(-1) + bound
        return coef * S * W + QY * Y + U - DQ + base, mag

    def exact(sub, b, c, ti, ei, theta):  # the exact evaluator's picks of block b
        th, et = th_levels[ti[sub]].repeat(bs, -1), et_levels[ei[sub]].repeat(bs, -1)
        levels = th_levels if theta else et_levels
        stack = np.repeat((th if theta else et)[:, None], levels.size, axis=1)
        stack[:, :, b * bs:(b + 1) * bs] = levels[:, None]
        with np.errstate(**caller):
            h1 = evaluate if sub.size == R else evaluator(sub)
            return (h1(c[sub], stack, et) if theta else h1(c[sub], th, stack)).argmax(-1)

    def scan(CP, base, c, ti, ei, theta):  # one pass over a control's blocks, in place
        idx = ti if theta else ei
        P = None if CP is None else CP[:, ar[:, None], blk, idx]  # the current parts
        for b in range(nb):
            ok, pick = np.zeros(R, dtype=bool), np.zeros(R, dtype=np.intp)
            if P is not None:
                score, mag = approx(*((P @ others[b])[..., None] + CP[:, :, b]), *base)
                pick, top = score.argmax(-1), np.sort(score, -1)
                runner_up = top[:, -2] if top.shape[-1] > 1 else -np.inf
                ok = np.isfinite(top[:, -1]) & (top[:, -1] - runner_up > _MARGIN * mag)
            if not theta:
                ok |= idle[:, b]
                pick[idle[:, b]] = 0
            if not ok.all():
                sub = np.flatnonzero(~ok)
                pick[sub] = exact(sub, b, c, ti, ei, theta)
            idx[:, b] = pick
            if P is not None:
                P[:, :, b] = CP[:, ar, b, pick]

    def ascend(ti, ei):  # from the level indices (R, nb) of a start
        c = _optimal_c(n, Q, th_levels[ti].repeat(bs, -1), obj, search.c_max)
        for _ in range(search.max_sweeps):
            before = th_levels[ti], et_levels[ei]
            with np.errstate(all="ignore"):
                CQ = economy.consumption_total((s, i, r), c, da) * Q
                base = (j6 - CQ)[:, None], infection + np.abs(j6) + np.abs(CQ)
                # the J1 utility of each block at each theta level, >= 0
                U = (w_u * da * blocks(n_nu * obj.utility(c[:, None], th_levels[:, None]))
                     ).swapaxes(1, 2) if w_u else np.zeros((R, nb, th_levels.size))
                scan(parts(th_levels, et_levels[ei][..., None], U) if rank_one else None,
                     base, c, ti, ei, True)
                scan(parts(th_levels[ti][..., None], et_levels, U[ar[:, None], blk, ti, None])
                     if rank_one else None, base, c, ti, ei, False)
            # a row whose sweep moved no level keeps its c, and every later sweep
            # repeats this one exactly: the search stops once no row moved, each
            # where it would alone
            if all(map(np.array_equal, (th_levels[ti], et_levels[ei]), before)):
                break
            c = _optimal_c(n, Q, th_levels[ti].repeat(bs, -1), obj, search.c_max)
        theta, eta = th_levels[ti].repeat(bs, -1), et_levels[ei].repeat(bs, -1)
        return evaluate(c, theta, eta), c, theta, eta

    def keep_better(current, candidate):
        better = candidate[0] > current[0]
        return tuple(np.where(better if new.ndim == 1 else better[:, None], new, old)
                     for old, new in zip(current, candidate))

    def nodes_of(result, start=0):  # a start's own rows of a search's result
        return tuple(a[start * n_nodes:(start + 1) * n_nodes] for a in result)

    # two deterministic starts: the top corner avoids the degenerate tie at
    # theta = 0 or eta = 0 where the transmission channel is switched off
    top = (np.arange(R) < n_nodes)[:, None].repeat(nb, 1)
    both = ascend(np.where(top, th_levels.size - 1, 0), np.where(top, et_levels.size - 1, 0))
    best = keep_better(nodes_of(both), nodes_of(both, 1))
    if baseline is not None:  # scored on the first copy of the node stack
        th_b, et_b = (np.array(z, dtype=np.float64).reshape(n_nodes, n_age)
                      for z in baseline[1:])
        c_b = _optimal_c(n[:n_nodes], Q[:n_nodes], th_b, obj, search.c_max)
        h1 = evaluator(slice(0, n_nodes))
        best = keep_better(best, (h1(c_b, th_b, et_b), c_b, th_b, et_b))

    value, c, theta, eta = best
    if single:
        return H1Result(value=float(value[0]), c=c[0], theta=theta[0], eta=eta[0])
    return H1Result(value=value, c=c, theta=theta, eta=eta)


# ----------------------------------------------------------------------
# verification diagnostics
# ----------------------------------------------------------------------

def _costate_at(v, x, K) -> CostateField:
    """v's gradients at one node, or at each node of a node stack (Q one per node)."""
    return CostateField(*map(np.asarray, v.grad_h(x, K)),
                        Q=np.broadcast_to(np.asarray(v.grad_K(x, K), dtype=np.float64),
                                          np.shape(K)))


def hamiltonian_gap_profile(v, policy: np.ndarray, traj: epi.Trajectory,
                            scenario: Scenario) -> np.ndarray:
    """Per-node gap sup_z H1 - H1(policy) along a trajectory, using v's gradients.

    The policy's own slice is included in the search candidates, so gaps are
    nonnegative up to the tolerance of the consumption argmax.  The nodes go
    through one lockstep :func:`maximize_h1` call and one :func:`h1_part` call
    on the whole node stack: the search's sweeps cost the same Python work at
    any stack size, so chunks of nodes only repeat it (on demo_covid, 41 nodes
    in chunks of 16 took 9.5 ms against 5.3 in one stack, and 81 x 5 x 400
    cells 50 against 17).  An extinct node raises for the first one.
    """
    return _gap_profiles(v, [policy], [traj], scenario)[0]


def _gap_profiles(v, policies: list, trajs: list, scenario: Scenario) -> list:
    """The gap profiles of several runs, as :func:`hamiltonian_gap_profile` gives
    each: the nodes of all runs form one stack, and each profile is bit for bit
    the one of its run alone."""
    def stack(arrays, axis=0):  # one run's arrays are read in place
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=axis)

    X, K = stack([t.X for t in trajs]), stack([t.K for t in trajs])
    Z = stack(policies, axis=1)
    costate = _costate_at(v, X, K)
    gaps = (maximize_h1(X, K, costate, scenario, baseline=Z).value
            - h1_part(X, K, costate, *Z, scenario))
    return np.split(gaps, np.cumsum([len(t.X) for t in trajs[:-1]]))


def integrated_gap(gaps: np.ndarray, traj: epi.Trajectory, obj) -> float:
    """Discounted time integral of the per-node gaps (left endpoint)."""
    tg = traj.time_grid
    disc = np.exp(-obj.rho * (tg.times[:tg.n_steps] - tg.t0))
    return float((disc * gaps[:tg.n_steps]).sum() * tg.dt)


def _discounted_sum(terms, tg, rho: float):
    """sum_k e^{-rho (t_k - t0)} terms[k] over the first len(terms) nodes, added
    one by one from 0.0 in node order (np.sum adds pairwise, with other bits)."""
    disc = np.exp(-rho * (tg.times[:len(terms)] - tg.t0))
    return np.cumsum(np.append(0.0, disc * terms))[-1]


def chain_rule_residual(v, policy, traj, scenario: Scenario) -> float:
    """Discrete chain-rule identity residual for an arbitrary smooth v.

    v(x_0) - e^{-rho T} v(x_T)
      - sum_k e^{-rho t_k} [rho v - <x, A~* grad v> - <B~^z(x), grad v>] dt

    vanishes at rate O(dt) for any feasible policy and any smooth v whose
    gradient is compatible with the adjoint domain.
    """
    tg, obj, n = traj.time_grid, scenario.obj, traj.n_steps
    X, K = traj.X[:n], traj.K[:n]
    costate = _costate_at(v, X, K)
    drift = (h0_part(X, K, costate, scenario)
             + h1_evaluator(X, K, costate, scenario, reward=False)(*policy[:, :n]))
    acc = _discounted_sum(obj.rho * v.value(X, K) - drift, tg, obj.rho) * tg.dt
    terminal = np.exp(-obj.rho * (tg.t_end - tg.t0)) * v.value(traj.X[-1], traj.K[-1])
    return float(v.value(traj.X[0], float(traj.K[0])) - terminal - acc)


@dataclass
class TransversalityReport:
    horizons: np.ndarray
    weighted_values: np.ndarray
    exponent: float | None
    decaying: bool


def transversality_check(v, trajectories, rho: float) -> TransversalityReport:
    """Decay of e^{-rho T} |v(x_T)| over trajectories of increasing horizon.

    Fits the decay exponent of the discounted terminal values and flags the
    candidate when they fail to decrease.
    """
    horizons = np.array([t.time_grid.t_end - t.time_grid.t0 for t in trajectories])
    vals = np.array([
        np.exp(-rho * T) * abs(v.value(t.X[-1], float(t.K[-1])))
        for T, t in zip(horizons, trajectories)
    ])
    pos = (vals > 0.0) & np.isfinite(vals)
    exponent = None
    if pos.sum() >= 2 and np.ptp(horizons[pos]) > 0.0:  # two distinct horizons
        slope = np.polyfit(horizons[pos], np.log(vals[pos]), 1)[0]
        exponent = float(-slope)
    decaying = bool(vals[-1] <= vals[0] or np.all(vals == 0.0))
    return TransversalityReport(horizons=horizons, weighted_values=vals,
                                exponent=exponent, decaying=decaying)


def greedy_policy(v, scenario: Scenario):
    """Roll out the policy that maximizes H1 step by step under v's gradients.

    Starts from the scenario's initial state and capital on its time grid, one
    run of the stepping loop whose feedback law is :func:`maximize_h1` at each
    node's state (under the caller's numpy error state).  Returns the (3,
    n_steps + 1, n_age) policy and the trajectory of that run.  By construction the
    Hamiltonian gap of the result vanishes on its own trajectory, which is
    the constructive side of the sufficiency argument on the control
    lattice.
    """
    tg = scenario.time_grid
    policy = np.zeros((3, tg.n_steps + 1, scenario.space.grid.n_age))
    caller = np.geterr()

    def feedback(k, x, K):
        with np.errstate(**caller):
            res = maximize_h1(x, K, _costate_at(v, x, K), scenario)
        policy[:, k] = res.c, res.theta, res.eta
        return policy[:, k, None]

    return policy, epi._simulate(scenario.initial, scenario.K0, feedback, scenario.epi,
                                 scenario.econ, tg, scenario.n_floor_rel)
