"""Set-valued cost-to-travel analysis, storage certificates, and tube MPC on interval boxes."""

from .interval_sets import IntervalBox, boxes_intersect, contains, hausdorff, subset
from .problem import ConfigError, ProblemSpec, dynamics, is_rci, stage_cost, transition_feasible
from .qp_solver import QpStatus, SolverFailure
from .cost_to_travel import CostToTravelResult, RciNotFound, eval_v, optimal_rci
from .dissipativity import (
    SeparabilityReport,
    StorageFunction,
    StrictnessSummary,
    check_strictness,
    eval_storage,
    storage_min_on_domain,
    verify_separability,
)
from .tube_mpc import TubeMpcConfig, TubeSolution, solve_tmpc, sweep_feedback
from .closed_loop import (
    AdversarialPolicy,
    EnclosureStabilityReport,
    ExtremePolicy,
    SimulationTrace,
    TraceStep,
    UniformRandomPolicy,
    check_enclosure_stability,
    rotated_cost,
    simulate,
)

__version__ = "0.1.0"
