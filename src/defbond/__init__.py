"""Pricing of defaultable zero-coupon bonds under discrete default
information: barrier tests at announcing dates plus a piecewise-constant
jump-default intensity.  Closed forms are assembled from higher-order binary
options and their time-integrals; independent PDE and Monte Carlo engines
verify them.

The PDE and Monte Carlo names (``GridSpec``, ``simulate_prices`` and the
rest of their modules' public names here) are bound on first use, so
importing the package and pricing in closed form loads no numpy.
"""

import importlib

from .binaries import BinarySpec, BsCoefficients, price_binary, shift_coefficients
from .errors import (
    DefbondError,
    DomainError,
    ScenarioError,
    ScheduleError,
)
from .integrals import WeightedIntegralSpec, integral_binary
from .normal import (
    CorrelationStructure,
    bivariate_cdf,
    mvn_cdf,
    std_normal_cdf,
)
from .pricing import (
    DefaultSchedule,
    MarketParams,
    PriceReport,
    RecoveryModel,
    price_endogenous,
    price_exogenous,
    survival_probability,
)
from .scenario import Scenario, apply_sweep_value, load_scenario, parse_scenario

__version__ = "0.1.0"

# name -> module of the engines that load numpy, imported on first use (PEP 562)
_ENGINES = {
    "CascadeSolution": "pde",
    "GridSpec": "pde",
    "sample": "pde",
    "solve_endogenous_cascade": "pde",
    "solve_exogenous_cascade": "pde",
    "McResult": "montecarlo",
    "SimConfig": "montecarlo",
    "simulate_price": "montecarlo",
    "simulate_prices": "montecarlo",
}


def __getattr__(name):
    if name not in _ENGINES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_ENGINES[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


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
    "integral_binary",
    "load_scenario",
    "mvn_cdf",
    "parse_scenario",
    "price_binary",
    "price_endogenous",
    "price_exogenous",
    "sample",
    "shift_coefficients",
    "simulate_price",
    "simulate_prices",
    "solve_endogenous_cascade",
    "solve_exogenous_cascade",
    "std_normal_cdf",
    "survival_probability",
]
