"""Collocation-network solver for ordinary and time-fractional Black-Scholes equations."""

from .config import ConfigError, RunConfig, config_from_mapping, load_config
from .exprs import ExpressionError, compile_expression
from .mapping import DomainMap, make_arctan_map, truncated_map
from .network import NetworkParams, NetEval, forward, init_params, param_grad
from .problems import (
    CollocationSet,
    ProblemSpec,
    collocation_points,
    european_call,
    european_put,
    fractional_manufactured,
)
from .solver import (
    SolveResult,
    error_metrics,
    history_at,
    read_csv,
    read_numeric_csv,
    solve,
    sweep_alpha,
    write_solution_outputs,
)
from .stepper import StepHistory, TimeGrid, b_weights, caputo_residual, make_time_grid
from .trainer import (
    CostBreakdown,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    cost_gradient,
    lr_grid_search,
    probe_first_step,
    rmsprop_step,
    sgd_step,
    step_cost,
    train_step_network,
)

__version__ = "0.1.0"
