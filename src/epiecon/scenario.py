"""Scenario bundle: grids, parameters, initial data, and default policy."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import epi, objectives
from .economy import EconParams
from .grid import AgeGrid, TimeGrid
from .hamiltonian import ControlSearchGrid
from .hilbert import HilbertSpace


@dataclass
class Scenario:
    """Everything needed to simulate and score one policy problem."""

    age_grid: AgeGrid
    time_grid: TimeGrid
    epi: epi.EpiParams
    econ: EconParams
    obj: objectives.ObjectiveParams
    initial: epi.EpiState
    K0: float
    policy: np.ndarray  # (3, n_steps + 1, n_age), rows c, theta, eta
    search: ControlSearchGrid
    space: HilbertSpace
    n_floor_rel: float = 1e-9

    def simulate(self, policy: np.ndarray | None = None) -> epi.Trajectory:
        if policy is None:
            policy = self.policy
        return epi.simulate(self.initial, self.K0, policy, self.epi, self.econ,
                            self.time_grid, self.n_floor_rel)

    def score(self, blocks: np.ndarray) -> objectives.Scores:
        """Each policy of a (B, 3, n_time_blocks, n_age_blocks) block stack run from this
        scenario's start and scored, keeping no trajectory but row 0's: one EvalReport
        or ModelError per row (see :func:`objectives.score_blocks`)."""
        return objectives.score_blocks(blocks, self.initial, self.K0, self.epi, self.econ,
                                       self.time_grid, self.n_floor_rel, self.obj)

    def evaluate(self, policy: np.ndarray | None = None,
                 traj: epi.Trajectory | None = None) -> objectives.EvalReport:
        if policy is None:
            policy = self.policy
        if traj is None:
            traj = self.simulate(policy)
        return objectives.evaluate(traj, policy, self.epi, self.econ, self.obj)
