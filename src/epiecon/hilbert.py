"""Survival-weighted state space: inner products, generator, and adjoint.

The state (s, i, r) lives in a weighted L2 space where the susceptible and
recovered components are weighted by the reciprocal squared survival
probabilities 1/pi_S^2 and 1/pi_R^2 (no weight on the infected component).
The transport-plus-reaction generator A and its adjoint A* are discretized
with mirrored upwind/downwind stencils so that discrete adjointness holds
up to O(da) without assembling matrices.

A state or costate is a triple of components, or an array with them on its
second-to-last axis: (3, n_age) like traj.X[k], or a (n_nodes, 3, n_age)
node stack like traj.X.  Age sums run along the last axis, so a stack gives
one value per node, bit for bit that node's alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grid import AgeGrid, _nonnegative

DEFAULT_WEIGHT_FLOOR = 1e-8


def components(h) -> tuple:
    """The three components of a state or costate ``h`` (see the module docstring)."""
    return h if isinstance(h, tuple) else tuple(np.moveaxis(h, -2, 0))


@dataclass(frozen=True, eq=False)
class CostateField:
    """Sampled costate (p1, p2, p3, Q) paired against (s, i, r, K)."""

    p1: np.ndarray
    p2: np.ndarray
    p3: np.ndarray
    Q: float

    def triple(self):
        return (self.p1, self.p2, self.p3)


class HilbertSpace:
    """Weighted space for (s, i, r) triples plus the transport generator.

    Bundles the grid, the demographic coefficients entering the linear
    dynamics (mu_S, mu_R, gamma, beta) and the survival weights pi_S, pi_R,
    and provides the weighted inner product, the discrete generator A and
    its adjoint A*.

    pi(a_j) = max(exp(-int_0^{a_j} mu), floor), the integral accumulated by
    the midpoint rule.  The floor keeps 1/pi^2 finite where the mortality
    integral diverges; it perturbs weighted norms only for cohorts that are
    almost surely dead.
    """

    def __init__(self, grid: AgeGrid, mu_S, mu_R, gamma, beta,
                 floor: float = DEFAULT_WEIGHT_FLOOR):
        self.grid = grid
        self.mu_S, self.mu_R, self.gamma, self.beta = (
            _nonnegative(v, (grid.n_age,), name) for name, v in
            (("mu_S", mu_S), ("mu_R", mu_R), ("gamma", gamma), ("beta", beta)))
        if not floor > 0.0:
            raise ConfigurationError(f"weight floor must be > 0, got {floor}")
        self.pi_S = _survival(grid.da, self.mu_S, floor)
        self.pi_R = _survival(grid.da, self.mu_R, floor)
        # reciprocal squared weights used by every weighted product
        self.w1 = 1.0 / self.pi_S**2
        self.w3 = 1.0 / self.pi_R**2

    # ------------------------------------------------------------------
    # inner products and norms
    # ------------------------------------------------------------------

    def inner(self, h, g):
        """Weighted inner product <h, g>_H, one per node of a node stack."""
        h1, h2, h3 = components(h)
        g1, g2, g3 = components(g)
        return self.grid.da * ((h1 * g1 * self.w1).sum(axis=-1)
                               + (h2 * g2).sum(axis=-1)
                               + (h3 * g3 * self.w3).sum(axis=-1))

    def norm(self, h):
        return np.sqrt(np.maximum(self.inner(h, h), 0.0))

    # ------------------------------------------------------------------
    # generator and adjoint
    # ------------------------------------------------------------------

    def apply_A(self, h):
        """Discrete generator: transport -d/da with reaction and birth fold.

        Upwind differencing; the birth boundary value s(0) = int beta n da
        enters the first cell of the susceptible component, zero inflow for
        the other components.
        """
        h1, h2, h3 = components(h)
        da = self.grid.da
        births = da * (self.beta * (h1 + h2 + h3)).sum(axis=-1)
        out1 = -_upwind(h1, births, da) - self.mu_S * h1
        out2 = -_upwind(h2, 0.0, da) - self.gamma * h2
        out3 = self.gamma * h2 - _upwind(h3, 0.0, da) - self.mu_R * h3
        return (out1, out2, out3)

    def apply_A_star(self, p):
        """Discrete adjoint: +d/da downwind with mirrored reaction terms.

        The downwind ghost value zero at a_max encodes the adjoint-domain
        boundary conditions (p1/pi_S, p2, p3/pi_R vanish at a_max) and the
        cohort exit flux of the forward dynamics.
        """
        p1, p2, p3 = components(p)
        da = self.grid.da
        out1 = _downwind(p1, da) + self.mu_S * p1
        out2 = _downwind(p2, da) - self.gamma * p2 + self.gamma * self.w3 * p3
        out3 = _downwind(p3, da) + self.mu_R * p3
        return (out1, out2, out3)


def _survival(da: float, mu: np.ndarray, floor: float) -> np.ndarray:
    # cumulative midpoint integral up to node a_j: full cells below j plus half of cell j
    cum = da * np.cumsum(mu) - 0.5 * da * mu
    return np.maximum(np.exp(-cum), floor)


def _upwind(values: np.ndarray, inflow, da: float) -> np.ndarray:
    shifted = np.empty_like(values)
    shifted[..., 0] = inflow
    shifted[..., 1:] = values[..., :-1]
    return (values - shifted) / da


def _downwind(values: np.ndarray, da: float) -> np.ndarray:
    shifted = np.empty_like(values)
    shifted[..., -1] = 0.0
    shifted[..., :-1] = values[..., 1:]
    return (shifted - values) / da
