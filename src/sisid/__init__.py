"""Online adaptive parameter identification for SIS epidemic models."""

__version__ = "0.1.0"

from .config import ConfigError, EstimatorSettings, ExperimentConfig, bundled_config_path, load_config
from .dynamics import NoiseSpec, SisParams, Trajectory, simulate, sis_step
from .estimators import (
    GrlsState,
    WeightedCostSpec,
    batch_oracle,
    cost_weight,
    ef_rls_step,
    grls_step,
    ie_mmai_init,
    ie_mmai_kernel,
    pure_gd_kernel,
    run_grls,
)
from .excitation import (
    SIS_REGRESSOR,
    GreedySet,
    build_greedy_set,
    greedy_offer,
    is_initially_exciting,
    optimal_excitation_set,
    sis_regressor,
    sliding_fim,
)
from .harness import MetricsRow, RunResult, fim_condition_trace, run_experiment
from .linalg import (
    ConditioningError,
    condition_number,
    solve_spd,
)
