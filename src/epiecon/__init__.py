"""Age-structured SIR epidemic coupled to a one-sector growth economy.

Simulation on a cohort-aligned age/time grid, welfare-target evaluation,
direct policy search, and numerical verification diagnostics (adjoint
consistency, Hamiltonian gaps, chain-rule identity, transversality).
"""

from .errors import (
    ConfigurationError,
    EpieconError,
    ExtinctPopulation,
    InfeasibleStart,
    ModelError,
    NonFiniteState,
)
from .grid import (
    AgeGrid,
    RankOneKernel,
    TimeGrid,
    expand_blocks,
    separable_kernel,
    table_kernel,
)
from .hilbert import CostateField, HilbertSpace
from .economy import (
    AffineLockdown,
    CESProduction,
    CobbDouglasProduction,
    ConcavePowerCongestion,
    EconParams,
    LinearCongestion,
    LinearProduction,
    PowerLockdown,
    capital_step,
    consumption_total,
    labor_supply,
    testing_cost,
)
from .epi import (
    EpiParams,
    EpiState,
    SaturationSpec,
    Trajectory,
    critical_load,
    deaths_flow,
    force_of_infection,
    hilbert_space_for,
    infection_mortality,
    simulate,
    step,
)
from .objectives import (
    EvalReport,
    ObjectiveParams,
    SeparableUtility,
    ShiftedCRRAUtility,
    evaluate,
)
from .hamiltonian import (
    ControlSearchGrid,
    H1Result,
    LinearValue,
    QuadraticValue,
    TransversalityReport,
    chain_rule_residual,
    greedy_policy,
    h0_part,
    h1_evaluator,
    h1_part,
    hamiltonian_gap_profile,
    integrated_gap,
    maximize_h1,
    transversality_check,
    validate_gradient,
)
from .optimizer import (
    OptimReport,
    OptimizerConfig,
    block_means,
    fd_gradient,
    optimize,
    penalized_objective,
)
from .scenario import Scenario

__version__ = "0.1.0"
