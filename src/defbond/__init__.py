"""Pricing of defaultable zero-coupon bonds under discrete default
information: barrier tests at announcing dates plus a piecewise-constant
jump-default intensity.  Closed forms are assembled from higher-order binary
options and their time-integrals; independent PDE and Monte Carlo engines
verify them."""

from .binaries import BinarySpec, BsCoefficients, price_binary, shift_coefficients
from .errors import (
    DefbondError,
    DomainError,
    ScenarioError,
    ScheduleError,
)
from .integrals import WeightedIntegralSpec, integral_binary
from .montecarlo import McResult, SimConfig, simulate_price
from .normal import (
    CorrelationStructure,
    bivariate_cdf,
    build_correlation,
    mvn_cdf,
    std_normal_cdf,
)
from .pde import (
    CascadeSolution,
    GridSpec,
    sample,
    solve_endogenous_cascade,
    solve_exogenous_cascade,
)
from .pricing import (
    DefaultSchedule,
    MarketParams,
    PriceReport,
    RecoveryModel,
    credit_spread,
    locate_interval,
    price_endogenous,
    price_exogenous,
    relative_price_endogenous,
    survival_probability,
)
from .scenario import Scenario, apply_sweep_value, load_scenario, parse_scenario

__version__ = "0.1.0"

__all__ = [
    "BinarySpec",
    "BsCoefficients",
    "CascadeSolution",
    "CorrelationStructure",
    "DefaultSchedule",
    "DefbondError",
    "DomainError",
    "GridSpec",
    "MarketParams",
    "McResult",
    "PriceReport",
    "RecoveryModel",
    "Scenario",
    "ScenarioError",
    "ScheduleError",
    "SimConfig",
    "WeightedIntegralSpec",
    "apply_sweep_value",
    "bivariate_cdf",
    "build_correlation",
    "credit_spread",
    "integral_binary",
    "load_scenario",
    "locate_interval",
    "mvn_cdf",
    "parse_scenario",
    "price_binary",
    "price_endogenous",
    "price_exogenous",
    "relative_price_endogenous",
    "sample",
    "shift_coefficients",
    "simulate_price",
    "solve_endogenous_cascade",
    "solve_exogenous_cascade",
    "std_normal_cdf",
    "survival_probability",
]
