"""Online adaptive parameter identification for SIS epidemic models."""

__version__ = "0.1.0"

from .config import ConfigError, EstimatorSettings, ExperimentConfig, bundled_config_path, load_config
from .dynamics import NoiseSpec, SisParams, Trajectory, reproduction_number, simulate, sis_step
from .estimators import (
    GrlsState,
    IeMmaiConfig,
    IeMmaiState,
    WeightedCostSpec,
    batch_oracle,
    cost_weight,
    ef_rls_step,
    grls_step,
    ie_mmai_step,
    limiting_cost_weights,
    pure_gd_step,
    run_grls,
)
from .excitation import (
    SIS_REGRESSOR,
    FisherInfo,
    GreedySet,
    Regressor,
    build_greedy_set,
    greedy_offer,
    is_initially_exciting,
    optimal_excitation_set,
    residual,
    sis_regressor,
    sliding_fim,
)
from .harness import MetricsRow, RunResult, empirical_cost, fim_condition_trace, run_experiment
from .linalg import (
    ConditioningError,
    condition_number,
    covariance_update,
    min_eigenvalue_sym,
    solve_spd,
)
