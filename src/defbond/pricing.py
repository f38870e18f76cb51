"""Closed-form prices for defaultable zero-coupon bonds with discrete default
information.

The firm value is observed only at a set of announcing dates, where default
occurs if it falls under a barrier; between dates default can also arrive as
the first jump of a Poisson clock with a per-interval constant intensity.
After a change of numeraire to the default-free bond, the price per unit face
value is a sum of chained binaries (barrier survival) and exponentially
weighted time-integrals of binaries (jump-default recovery), all priced at
coefficients (0, dividend rate, firm volatility).
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
from .normal import DEFAULT_QMC, QmcConfig

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


def _cum_hazard(schedule: DefaultSchedule, lo: int, hi: int) -> float:
    """sum of lambda_k * (t_{k+1} - t_k) over k in [lo, hi]; empty when hi < lo."""
    total = 0.0
    for k in range(lo, hi + 1):
        total += schedule.intensities[k] * (schedule.dates[k + 1] - schedule.dates[k])
    return total


def _survival_factor(schedule: DefaultSchedule, i: int, t: float) -> float:
    n = schedule.n_intervals
    log_s = -schedule.intensities[i] * (schedule.dates[i + 1] - t) - _cum_hazard(schedule, i + 1, n - 1)
    return math.exp(log_s)


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
    config: QmcConfig = DEFAULT_QMC,
) -> float:
    """Probability of surviving both default channels on (t, T]."""
    w, _ = _survival_with_error(market, schedule, x, t, config)
    return w


def _survival_with_error(market, schedule, x, t, config):
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"survival_probability: spot must be positive, got {x}")
    i = locate_interval(schedule, t)
    value, err = price_binary_with_error(_barrier_cascade_spec(market, schedule, i), x, t, config)
    factor = _survival_factor(schedule, i, t)
    return min(max(factor * value, 0.0), 1.0), factor * err


def _endogenous_terms(
    market: MarketParams,
    schedule: DefaultSchedule,
    recovery: RecoveryModel,
    i: int,
    t: float,
):
    """Term lists of the interval-i closed form, endogenous recovery with
    R > 0: binaries and weighted integrals inside the intensity prefactor,
    plus the current-interval tail integrals added outside it.

    The default term of each announcing date depends only on how its barrier
    K_m compares with the cap n/R: at or below it, recovery is x/cap on all
    of {x <= K_m}; above it, recovery is x/cap under the cap and full on
    (cap, K_m].

    Returns (prefactor, closed, weighted, tail); each list entry is
    (weight, spec).
    """
    cap = recovery.cap
    inv_cap = 1.0 / cap
    coeffs = BsCoefficients(0.0, market.b, market.s_V)
    dates = schedule.dates
    barriers = schedule.barriers
    lam = schedule.intensities
    n = schedule.n_intervals

    closed: list[tuple[float, BinarySpec]] = []
    weighted: list[tuple[float, WeightedIntegralSpec]] = []
    tail: list[tuple[float, WeightedIntegralSpec]] = []

    # Survival to maturity.  When K_N > cap it cancels against the last
    # date's -bond(+ at K_N) term, so neither is emitted.
    if barriers[-1] <= cap:
        closed.append(
            (
                math.exp(-_cum_hazard(schedule, i + 1, n - 1)),
                _barrier_cascade_spec(market, schedule, i),
            )
        )
    for m in range(i, n):
        w = math.exp(-_cum_hazard(schedule, i + 1, m))
        ups = (1,) * (m - i)
        expiries = dates[i + 1 : m + 2]
        at_barrier = barriers[i : m + 1]
        if barriers[m] <= cap:
            asset = BinarySpec("asset", ups + (-1,), at_barrier, expiries, coeffs)
            closed.append((w * inv_cap, asset))
            continue
        at_cap = barriers[i:m] + (cap,)
        closed.append((w, BinarySpec("bond", ups + (1,), at_cap, expiries, coeffs)))
        closed.append((w * inv_cap, BinarySpec("asset", ups + (-1,), at_cap, expiries, coeffs)))
        if m < n - 1:
            closed.append((-w, BinarySpec("bond", ups + (1,), at_barrier, expiries, coeffs)))

    for m in range(i + 1, n):
        if lam[m] == 0.0:
            continue
        w = math.exp(-_cum_hazard(schedule, i + 1, m - 1))
        strikes = barriers[i:m] + (cap,)
        fixed = dates[i + 1 : m + 1]
        common = dict(
            strikes=strikes,
            fixed_expiries=fixed,
            coeffs=coeffs,
            weight_rate=lam[m],
            weight_anchor=dates[m],
            lower=dates[m],
            upper=dates[m + 1],
        )
        weighted.append((w, WeightedIntegralSpec("bond", (1,) * (m - i + 1), **common)))
        weighted.append(
            (w * inv_cap, WeightedIntegralSpec("asset", (1,) * (m - i) + (-1,), **common))
        )

    if lam[i] > 0.0:
        common = dict(
            strikes=(cap,),
            fixed_expiries=(),
            coeffs=coeffs,
            weight_rate=lam[i],
            weight_anchor=t,
            lower=t,
            upper=dates[i + 1],
        )
        tail.append((1.0, WeightedIntegralSpec("bond", (1,), **common)))
        tail.append((inv_cap, WeightedIntegralSpec("asset", (-1,), **common)))

    prefactor = math.exp(-lam[i] * (dates[i + 1] - t))
    return prefactor, closed, weighted, tail


def _endogenous_value(
    market: MarketParams,
    schedule: DefaultSchedule,
    recovery: RecoveryModel,
    x: float,
    t: float,
    config: QmcConfig,
):
    """Relative price u_i plus accumulated (cdf_error, quadrature_error)."""
    if recovery.mode != "endogenous":
        raise DomainError("relative_price_endogenous: recovery model must be endogenous")
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"relative_price_endogenous: spot must be positive, got {x}")
    i = locate_interval(schedule, t)
    if recovery.R == 0.0:
        # n/R -> inf: every recovery term carries a vanishing factor, leaving
        # the bare survival cascade.
        w, err = _survival_with_error(market, schedule, x, t, config)
        return w, err, 0.0, i

    prefactor, closed, weighted, tail = _endogenous_terms(market, schedule, recovery, i, t)
    cdf_err = 0.0
    quad_err = 0.0
    total = 0.0
    for w, spec in closed:
        value, err = price_binary_with_error(spec, x, t, config)
        total += w * value
        cdf_err += abs(w) * err
    for w, spec in weighted:
        value, err = integral_binary(spec, x, t, config)
        total += w * value
        quad_err += abs(w) * err
    u = prefactor * total
    cdf_err *= prefactor
    quad_err *= prefactor

    for w, spec in tail:
        value, err = integral_binary(spec, x, t, config)
        u += w * value
        quad_err += w * err

    return max(u, 0.0), cdf_err, quad_err, i


def relative_price_endogenous(
    market: MarketParams,
    schedule: DefaultSchedule,
    recovery: RecoveryModel,
    x: float,
    t: float,
    config: QmcConfig = DEFAULT_QMC,
) -> float:
    """Bond price per unit of the default-free bond, endogenous recovery."""
    u, _, _, _ = _endogenous_value(market, schedule, recovery, x, t, config)
    return u


def _discount(market: MarketParams, schedule: DefaultSchedule, t: float) -> float:
    return math.exp(-market.r * (schedule.maturity - t))


def price_endogenous(
    market: MarketParams,
    schedule: DefaultSchedule,
    recovery: RecoveryModel,
    V: float,
    t: float,
    config: QmcConfig = DEFAULT_QMC,
) -> PriceReport:
    """Bond price at firm value ``V``, endogenous recovery."""
    if not (math.isfinite(V) and V > 0.0):
        raise DomainError(f"price_endogenous: firm value must be positive, got {V}")
    df = _discount(market, schedule, t)
    x = V / df
    u, cdf_err, quad_err, i = _endogenous_value(market, schedule, recovery, x, t, config)
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
    config: QmcConfig = DEFAULT_QMC,
) -> PriceReport:
    """Bond price at firm value ``V``, exogenous recovery: the recovery floor
    plus the survival-weighted allowance."""
    if recovery.mode != "exogenous":
        raise DomainError("price_exogenous: recovery model must be exogenous")
    if not (math.isfinite(V) and V > 0.0):
        raise DomainError(f"price_exogenous: firm value must be positive, got {V}")
    df = _discount(market, schedule, t)
    x = V / df
    w, err = _survival_with_error(market, schedule, x, t, config)
    i = locate_interval(schedule, t)
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
    config: QmcConfig = DEFAULT_QMC,
) -> float:
    """Yield pickup of the defaultable bond over the default-free bond."""
    if t >= schedule.maturity:
        raise DomainError("credit_spread: undefined at or past maturity")
    if recovery.mode == "exogenous":
        return price_exogenous(market, schedule, recovery, V, t, config).credit_spread
    return price_endogenous(market, schedule, recovery, V, t, config).credit_spread
