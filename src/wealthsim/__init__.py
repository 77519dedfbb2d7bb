"""Simulation and analytics for a stochastic wealth-distribution economy.

Households invest in and work for overlapping subsets of firms whose
productivity is noisy; prices clear each instant through a concave
technology, flat taxes are redistributed equally, and the resulting
wealth distribution is either stationary or riding a sustained-growth
path.  The package simulates the household panel, evaluates every
closed-form equilibrium density and tail index, and checks the two
against each other.
"""

from .analytics import (
    GaussianDensity,
    InverseGammaDensity,
    MeanFieldCoeffs,
    PearsonType4Density,
    PointMassDensity,
    log_log_slope,
    mean_field_coeffs,
    relative_wealth_density,
    stationary_density,
    tail_exponent_growth,
    tail_exponent_stationary,
    write_density_table,
)
from .errors import (
    ConfigError,
    DegenerateDiscriminantError,
    DegenerateDynamicsError,
    DegenerateTailError,
    DomainError,
    InsufficientDataError,
    KnifeEdgeError,
    NetworkBuildError,
    NonFiniteError,
    NonPositiveThresholdError,
    NoStationaryStateError,
    PriceUndefinedError,
    RegimeMismatchError,
    WealthsimError,
)
from .market import (
    CONDITIONAL_GROWTH,
    ENDOGENOUS_GROWTH,
    STATIONARY,
    MarketState,
    RegimeReport,
    classify_regime,
    clear,
    stationary_roots,
)
from .network import (
    AllocationNetwork,
    build_heterogeneous,
    build_regular,
    load_network,
    save_network,
)
from .params import CES, CobbDouglas, EconomyParams, ProductionFunction, validate_params
from .runconfig import RunConfig, config_from_dict, load_config
from .scenarios import run_scenario, validate_checks
from .simulate import (
    SimulationConfig,
    WealthPanel,
    analytic_noise_covariance,
    empirical_noise_covariance,
    integrate_mean_field,
    run_absolute,
    run_relative_growth,
    sample_firm_shocks,
    step_absolute,
)
from .tails import (
    TailEstimate,
    ccdf_loglog,
    hill,
    ks_distance,
    moments,
    write_ccdf_table,
)

__all__ = [
    # analytics
    "GaussianDensity", "InverseGammaDensity", "MeanFieldCoeffs",
    "PearsonType4Density", "PointMassDensity", "log_log_slope",
    "mean_field_coeffs", "relative_wealth_density", "stationary_density",
    "tail_exponent_growth", "tail_exponent_stationary", "write_density_table",
    # errors
    "ConfigError", "DegenerateDiscriminantError", "DegenerateDynamicsError",
    "DegenerateTailError", "DomainError", "InsufficientDataError",
    "KnifeEdgeError", "NetworkBuildError", "NonFiniteError",
    "NonPositiveThresholdError", "NoStationaryStateError",
    "PriceUndefinedError", "RegimeMismatchError", "WealthsimError",
    # market
    "CONDITIONAL_GROWTH", "ENDOGENOUS_GROWTH", "STATIONARY", "MarketState",
    "RegimeReport", "classify_regime", "clear", "stationary_roots",
    # network
    "AllocationNetwork", "build_heterogeneous", "build_regular",
    "load_network", "save_network",
    # params
    "CES", "CobbDouglas", "EconomyParams", "ProductionFunction",
    "validate_params",
    # run configuration and scenarios
    "RunConfig", "config_from_dict", "load_config", "run_scenario",
    "validate_checks",
    # simulation
    "SimulationConfig", "WealthPanel", "analytic_noise_covariance",
    "empirical_noise_covariance", "integrate_mean_field", "run_absolute",
    "run_relative_growth", "sample_firm_shocks", "step_absolute",
    # sample statistics
    "TailEstimate", "ccdf_loglog", "hill", "ks_distance",
    "moments", "write_ccdf_table",
]

__version__ = "0.1.0"
