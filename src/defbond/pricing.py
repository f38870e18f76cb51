"""Closed-form prices for defaultable zero-coupon bonds with discrete default
information.

The firm value is observed only at a set of announcing dates, where default
occurs if it falls under a barrier; between dates default can also arrive as
the first jump of a Poisson clock with a per-interval constant intensity.
After a change of numeraire to the default-free bond, the price per unit face
value is one weighted sum of terms, all priced at coefficients (0, dividend
rate, firm volatility): chained binaries for barrier survival and barrier
default, and exponentially weighted time-integrals of binaries for jump
default.  Each weight carries the probability of no jump default from the
evaluation time to where its term starts.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .binaries import BinarySpec, BsCoefficients, price_binary_with_error
from .errors import DomainError, ScheduleError
from .integrals import WeightedIntegralSpec, integral_binary

__all__ = [
    "MarketParams",
    "DefaultSchedule",
    "RecoveryModel",
    "PriceReport",
    "locate_interval",
    "relative_price_endogenous",
    "price_endogenous",
    "survival_probability",
    "price_exogenous",
    "credit_spread",
]


@dataclass(frozen=True)
class MarketParams:
    """Constant short rate, firm dividend rate and firm volatility."""

    r: float
    b: float
    s_V: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and math.isfinite(self.b)):
            raise DomainError("MarketParams: rates must be finite")
        if not (math.isfinite(self.s_V) and self.s_V > 0.0):
            raise DomainError("MarketParams: firm volatility must be positive")


@dataclass(frozen=True)
class DefaultSchedule:
    """Announcing dates ``0 = t_0 < ... < t_N = T`` with barrier ``barriers[j]``
    tested at ``dates[j + 1]`` and intensity ``intensities[j]`` on
    ``(t_j, t_{j+1})``.  Face value is 1."""

    dates: tuple[float, ...]
    intensities: tuple[float, ...]
    barriers: tuple[float, ...]

    def __post_init__(self):
        if len(self.dates) < 2:
            raise ScheduleError("DefaultSchedule: need at least (0, T)")
        if any(not math.isfinite(v) for v in self.dates):
            raise ScheduleError("DefaultSchedule: non-finite dates")
        if self.dates[0] != 0.0:
            raise ScheduleError("DefaultSchedule: first date must be 0")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise ScheduleError(f"DefaultSchedule: dates not strictly increasing: {self.dates}")
        n = len(self.dates) - 1
        if len(self.intensities) != n:
            raise ScheduleError(
                f"DefaultSchedule: expected {n} intensities, got {len(self.intensities)}"
            )
        if len(self.barriers) != n:
            raise ScheduleError(f"DefaultSchedule: expected {n} barriers, got {len(self.barriers)}")
        if any(not (math.isfinite(v) and v >= 0.0) for v in self.intensities):
            raise DomainError("DefaultSchedule: intensities must be >= 0 and finite")
        if any(not (math.isfinite(v) and v > 0.0) for v in self.barriers):
            raise DomainError("DefaultSchedule: barriers must be positive and finite")

    @property
    def maturity(self) -> float:
        return self.dates[-1]

    @property
    def n_intervals(self) -> int:
        return len(self.dates) - 1


@dataclass(frozen=True)
class RecoveryModel:
    """Recovery paid at default: a fraction of firm value capped at the
    default-free bond (endogenous) or a fixed fraction of it (exogenous)."""

    mode: Literal["endogenous", "exogenous"]
    R: float
    n: float | None = None

    def __post_init__(self):
        if self.mode not in ("endogenous", "exogenous"):
            raise DomainError(f"RecoveryModel: unknown mode {self.mode!r}")
        if not (0.0 <= self.R <= 1.0):
            raise DomainError(f"RecoveryModel: recovery rate {self.R} outside [0, 1]")
        if self.mode == "endogenous":
            if self.n is None or not (math.isfinite(self.n) and self.n > 0.0):
                raise DomainError("RecoveryModel: endogenous mode needs a bond count n > 0")

    @property
    def cap(self) -> float:
        """Relative firm value n/R above which endogenous recovery is full."""
        if self.mode != "endogenous":
            raise DomainError("RecoveryModel.cap: only defined for endogenous recovery")
        return math.inf if self.R == 0.0 else self.n / self.R

    def paid(self, x):
        """Relative recovery a default pays at relative firm value ``x`` (a
        float or an array): min(1, x / cap) endogenous, R exogenous."""
        if self.mode == "endogenous":
            return np.minimum(1.0, x / self.cap)
        return np.full_like(x, self.R, dtype=float)


@dataclass(frozen=True)
class PriceReport:
    """Bond price with its relative price, survival probability (exogenous
    mode), credit spread and numerical-error diagnostics."""

    price: float
    relative_price: float
    survival_prob: float | None
    credit_spread: float
    interval_index: int
    diagnostics: dict[str, float]


def locate_interval(schedule: DefaultSchedule, t: float) -> int:
    """Index i with ``t_i <= t < t_{i+1}``."""
    if math.isnan(t) or t < 0.0 or t >= schedule.maturity:
        raise DomainError(f"locate_interval: t={t} outside [0, {schedule.maturity})")
    return bisect_right(schedule.dates, t) - 1


def _jump_survival(schedule: DefaultSchedule, i: int, t: float, m: int) -> float:
    """Probability of no jump default on (t, t_{m+1}] for t in interval i <= m."""
    lam, dates = schedule.intensities, schedule.dates
    hazard = sum(lam[k] * (dates[k + 1] - dates[k]) for k in range(i + 1, m + 1))
    return math.exp(-lam[i] * (dates[i + 1] - t) - hazard)


def _barrier_cascade_spec(market: MarketParams, schedule: DefaultSchedule, i: int) -> BinarySpec:
    n = schedule.n_intervals
    return BinarySpec(
        "bond",
        (1,) * (n - i),
        schedule.barriers[i:],
        schedule.dates[i + 1 :],
        BsCoefficients(0.0, market.b, market.s_V),
    )


def survival_probability(
    market: MarketParams,
    schedule: DefaultSchedule,
    x: float,
    t: float,
) -> float:
    """Probability of surviving both default channels on (t, T]."""
    w, _, _ = _survival_with_error(market, schedule, x, t)
    return w


def _survival_with_error(market, schedule, x, t):
    """Survival probability, its CDF error and the interval index of t."""
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"survival_probability: spot must be positive, got {x}")
    i = locate_interval(schedule, t)
    value, err = price_binary_with_error(_barrier_cascade_spec(market, schedule, i), x, t)
    factor = _jump_survival(schedule, i, t, schedule.n_intervals - 1)
    return min(max(factor * value, 0.0), 1.0), factor * err, i


def _endogenous_terms(
    market: MarketParams,
    schedule: DefaultSchedule,
    recovery: RecoveryModel,
    i: int,
    t: float,
) -> list[tuple[float, BinarySpec | WeightedIntegralSpec]]:
    """The interval-i closed form, endogenous recovery, as (weight, spec)
    pairs: the relative price is the sum of weight times the spec's value,
    and every weight includes the jump survival from t.

    Besides the survival binary, each date m >= i adds its barrier default
    and each interval m >= i its jump default, both recovering
    min(1, x/cap).  With c = min(K_m, cap) the barrier default is
    asset(-, c)/cap, plus bond(+, cap) - bond(+, K_m) for the full recovery
    on (cap, K_m] when K_m > cap.  The jump default is bond(+, cap) +
    asset(-, cap)/cap integrated over the jump time from max(t, t_m) to
    t_{m+1}.  With R = 0 the cap is infinite and nothing is recovered, so
    only the survival binary is left.
    """
    cap = recovery.cap
    inv_cap = 1.0 / cap
    coeffs = BsCoefficients(0.0, market.b, market.s_V)
    dates = schedule.dates
    barriers = schedule.barriers
    lam = schedule.intensities
    n = schedule.n_intervals

    terms: list[tuple[float, BinarySpec | WeightedIntegralSpec]] = []
    # Survival to maturity.  When K_N > cap it cancels against the last
    # date's -bond(+, K_N), so neither is emitted.
    if barriers[-1] <= cap:
        survival = _jump_survival(schedule, i, t, n - 1)
        terms.append((survival, _barrier_cascade_spec(market, schedule, i)))
    if recovery.R == 0.0:
        return terms
    for m in range(i, n):
        ups = (1,) * (m - i)
        expiries = dates[i + 1 : m + 2]
        strikes = barriers[i:m] + (min(barriers[m], cap),)
        w = _jump_survival(schedule, i, t, m)
        terms.append((w * inv_cap, BinarySpec("asset", ups + (-1,), strikes, expiries, coeffs)))
        if barriers[m] > cap:
            terms.append((w, BinarySpec("bond", ups + (1,), strikes, expiries, coeffs)))
            if m < n - 1:
                at_barrier = barriers[i : m + 1]
                terms.append((-w, BinarySpec("bond", ups + (1,), at_barrier, expiries, coeffs)))
        if lam[m] > 0.0:
            common = dict(
                strikes=barriers[i:m] + (cap,),
                fixed_expiries=dates[i + 1 : m + 1],
                coeffs=coeffs,
                weight_rate=lam[m],
                lower=dates[m] if m > i else t,
                upper=dates[m + 1],
            )
            w = _jump_survival(schedule, i, t, m - 1) if m > i else 1.0
            terms.append((w, WeightedIntegralSpec("bond", ups + (1,), **common)))
            terms.append((w * inv_cap, WeightedIntegralSpec("asset", ups + (-1,), **common)))
    return terms


def _endogenous_value(
    market: MarketParams,
    schedule: DefaultSchedule,
    recovery: RecoveryModel,
    x: float,
    t: float,
):
    """Relative price u_i plus accumulated (cdf_error, quadrature_error)."""
    if recovery.mode != "endogenous":
        raise DomainError("relative_price_endogenous: recovery model must be endogenous")
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"relative_price_endogenous: spot must be positive, got {x}")
    i = locate_interval(schedule, t)
    u = cdf_err = quad_err = 0.0
    for w, spec in _endogenous_terms(market, schedule, recovery, i, t):
        if isinstance(spec, BinarySpec):
            value, err = price_binary_with_error(spec, x, t)
            cdf_err += abs(w) * err
        else:
            value, err = integral_binary(spec, x, t)
            quad_err += abs(w) * err
        u += w * value
    return max(u, 0.0), cdf_err, quad_err, i


def relative_price_endogenous(
    market: MarketParams,
    schedule: DefaultSchedule,
    recovery: RecoveryModel,
    x: float,
    t: float,
) -> float:
    """Bond price per unit of the default-free bond, endogenous recovery."""
    u, _, _, _ = _endogenous_value(market, schedule, recovery, x, t)
    return u


def _discount(market: MarketParams, schedule: DefaultSchedule, t: float) -> float:
    return math.exp(-market.r * (schedule.maturity - t))


def price_endogenous(
    market: MarketParams,
    schedule: DefaultSchedule,
    recovery: RecoveryModel,
    V: float,
    t: float,
) -> PriceReport:
    """Bond price at firm value ``V``, endogenous recovery."""
    if not (math.isfinite(V) and V > 0.0):
        raise DomainError(f"price_endogenous: firm value must be positive, got {V}")
    df = _discount(market, schedule, t)
    x = V / df
    u, cdf_err, quad_err, i = _endogenous_value(market, schedule, recovery, x, t)
    remaining = schedule.maturity - t
    spread = max(0.0, -math.log(u) / remaining) if u > 0.0 else math.inf
    return PriceReport(
        price=df * u,
        relative_price=u,
        survival_prob=None,
        credit_spread=spread,
        interval_index=i,
        diagnostics={"cdf_error": df * cdf_err, "quadrature_error": df * quad_err},
    )


def price_exogenous(
    market: MarketParams,
    schedule: DefaultSchedule,
    recovery: RecoveryModel,
    V: float,
    t: float,
) -> PriceReport:
    """Bond price at firm value ``V``, exogenous recovery: the recovery floor
    plus the survival-weighted allowance."""
    if recovery.mode != "exogenous":
        raise DomainError("price_exogenous: recovery model must be exogenous")
    if not (math.isfinite(V) and V > 0.0):
        raise DomainError(f"price_exogenous: firm value must be positive, got {V}")
    df = _discount(market, schedule, t)
    x = V / df
    w, err, i = _survival_with_error(market, schedule, x, t)
    R = recovery.R
    price = R * df + (1.0 - R) * w * df
    u = R + (1.0 - R) * w
    remaining = schedule.maturity - t
    spread = max(0.0, -math.log(u) / remaining) if u > 0.0 else math.inf
    return PriceReport(
        price=price,
        relative_price=u,
        survival_prob=w,
        credit_spread=spread,
        interval_index=i,
        diagnostics={"cdf_error": (1.0 - R) * df * err, "quadrature_error": 0.0},
    )


def credit_spread(
    market: MarketParams,
    schedule: DefaultSchedule,
    recovery: RecoveryModel,
    V: float,
    t: float,
) -> float:
    """Yield pickup of the defaultable bond over the default-free bond."""
    if t >= schedule.maturity:
        raise DomainError("credit_spread: undefined at or past maturity")
    if recovery.mode == "exogenous":
        return price_exogenous(market, schedule, recovery, V, t).credit_spread
    return price_endogenous(market, schedule, recovery, V, t).credit_spread
