"""Spatial birth-death population dynamics on continuous habitats.

Individuals immigrate at a spatial rate b(x), die at a baseline rate m(x),
and suppress each other through a pairwise competition kernel a(x - y).  The
package provides the exact non-interacting flow, weighted-norm existence
bounds with a global continuation schedule, factorial-moment envelopes, a
truncated correlation hierarchy with pluggable closures, an exact stochastic
simulator over replica ensembles, and estimators connecting the two.
"""

__version__ = "0.1.0"

from .bounds import (EffectiveMortalityUnavailable, MomentBoundResult,
                     OperatorNormBound, Schedule, ScheduleHorizonError,
                     StationaryDensityBound, continuation_schedule,
                     existence_time, kappa_from_factorial_moments,
                     moment_bound_system, operator_norm_bound,
                     stationary_density_bound, surgailis_theta_growth,
                     theta_norm, unit_existence_time)
from .config import (ConfigError, build_initial, build_params, config_sha256,
                     hierarchy_options, load_config)
from .estimators import (CellPartition, CorrelationGrid, MomentSeries,
                         SnapshotEnsemble, density_estimate, mean_density,
                         moment_series, pair_correlation_estimate,
                         raw_moment_from_factorials, read_csv_columns,
                         stirling, write_csv, write_k1_csv, write_k2_csv,
                         write_moments_csv)
from .hierarchy import (CLOSURES, ClipBudgetError, DivergenceError,
                        HierarchyState, HierarchyTrajectory, StepSizeError,
                        integrate, rhs_order1, rhs_order2)
from .model import (Box, CompetitionKernel, ModelParams, RateField, Window,
                    cell_infimum)
from .simulator import (CappedRunError, ReplicaPlan, RunStats,
                        SimulationState, run_replicas)
from .surgailis import (SurgailisFlow, box_quadrature, expected_count,
                        poisson_density_flow, propagate_correlation, subsets)

__all__ = [
    "__version__",
    "Box", "Window", "CompetitionKernel", "RateField", "ModelParams",
    "cell_infimum",
    "SurgailisFlow", "subsets", "propagate_correlation", "poisson_density_flow",
    "expected_count", "box_quadrature",
    "theta_norm", "OperatorNormBound", "operator_norm_bound",
    "existence_time", "unit_existence_time", "surgailis_theta_growth",
    "Schedule", "ScheduleHorizonError", "continuation_schedule",
    "MomentBoundResult", "moment_bound_system",
    "kappa_from_factorial_moments", "EffectiveMortalityUnavailable",
    "StationaryDensityBound", "stationary_density_bound",
    "SnapshotEnsemble", "CellPartition", "CorrelationGrid", "MomentSeries",
    "stirling", "raw_moment_from_factorials", "density_estimate",
    "mean_density", "pair_correlation_estimate", "moment_series",
    "write_csv", "write_k1_csv", "write_k2_csv", "write_moments_csv",
    "read_csv_columns",
    "CLOSURES", "HierarchyState", "HierarchyTrajectory", "StepSizeError",
    "ClipBudgetError", "DivergenceError", "rhs_order1", "rhs_order2",
    "integrate",
    "ReplicaPlan", "RunStats", "CappedRunError", "SimulationState",
    "run_replicas",
    "ConfigError", "load_config", "config_sha256", "build_params",
    "build_initial", "hierarchy_options",
]
