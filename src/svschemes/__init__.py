"""Discretization schemes and multilevel Monte Carlo for stochastic volatility models."""

from .errors import (
    BudgetExceededError,
    ConfigError,
    FlowDomainError,
    InvalidParameterError,
    NumericalError,
    SvSchemesError,
)
from .models import (
    OUParams,
    ScottParams,
    VolModelSpec,
    make_spec,
    benchmark_scott_params,
    scott_model,
    spec_from_config,
    validate_spec,
)
from .rng import RngStream
from .schemes import GridPath, SchemeKind, simulate_paths, weak2_terminal
from .coupling import (
    CoupledPaths,
    LevelSample,
    TerminalCoupling,
    bridge_min,
    coupled_lookback_levels,
    lookback_single_level,
)
from .pricing import PriceEstimate, bs_call, plain_call, romano_touzi_call
from .mlmc import (
    MlmcConfig,
    MlmcResult,
    call_level_sampler,
    lookback_level_sampler,
    mlmc_estimate,
)
from .analysis import (
    ExperimentConfig,
    ExperimentRow,
    RegressionResult,
    loglog_slope,
    run_mlmc_cost,
    run_strong_conv,
    run_terminal_conv,
    run_traj_conv,
    run_weak_call,
    rows_slope,
    write_rows_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError", "ConfigError", "FlowDomainError", "InvalidParameterError",
    "NumericalError", "SvSchemesError",
    "OUParams", "ScottParams", "VolModelSpec", "make_spec", "benchmark_scott_params",
    "scott_model", "spec_from_config", "validate_spec",
    "RngStream",
    "GridPath", "SchemeKind", "simulate_paths", "weak2_terminal",
    "CoupledPaths", "LevelSample", "TerminalCoupling", "bridge_min",
    "coupled_lookback_levels", "lookback_single_level",
    "PriceEstimate", "bs_call", "plain_call", "romano_touzi_call",
    "MlmcConfig", "MlmcResult", "call_level_sampler", "lookback_level_sampler",
    "mlmc_estimate",
    "ExperimentConfig", "ExperimentRow", "RegressionResult", "loglog_slope",
    "run_mlmc_cost", "run_strong_conv", "run_terminal_conv", "run_traj_conv",
    "run_weak_call", "rows_slope", "write_rows_csv",
]
