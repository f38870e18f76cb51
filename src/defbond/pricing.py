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
import sys
from bisect import bisect_right
from dataclasses import dataclass
from typing import Literal

from .binaries import BinarySpec, BsCoefficients, price_binary_with_error
from .errors import DomainError, ScheduleError
from .integrals import WeightedIntegralSpec, integral_binary

__all__ = [
    "MarketParams",
    "DefaultSchedule",
    "RecoveryModel",
    "PriceReport",
    "price_endogenous",
    "survival_probability",
    "price_exogenous",
]

# the largest exponent math.exp takes without overflow
_LOG_MAX = math.log(sys.float_info.max)


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
        """Relative firm value n/R above which endogenous recovery is full;
        infinite for a recovery that does not grow with the firm value
        (exogenous, or endogenous with R = 0)."""
        return self.n / self.R if self.mode == "endogenous" and self.R > 0.0 else math.inf

    def paid(self, x):
        """Relative recovery a default pays at relative firm value ``x`` (a
        float or an array): min(1, x / cap) endogenous, R exogenous.  The
        closed form never calls it, so numpy is imported here."""
        import numpy as np

        if self.mode == "endogenous":
            return np.minimum(1.0, x / self.cap)
        return np.full_like(x, self.R, dtype=float)


@dataclass(frozen=True)
class PriceReport:
    """Bond price with its relative price u (the price per unit of the
    default-free bond), survival probability (exogenous mode), credit spread
    -log(u) / (T - t) and numerical-error diagnostics."""

    price: float
    relative_price: float
    survival_prob: float | None
    credit_spread: float
    interval_index: int
    diagnostics: dict[str, float]


def _interval(schedule: DefaultSchedule, t: float, caller: str) -> int:
    """Index i with ``t_i <= t < t_{i+1}``; a t outside [0, T), NaN included,
    raises naming ``caller``."""
    if not 0.0 <= t < schedule.maturity:
        raise DomainError(f"{caller}: t={t} outside [0, {schedule.maturity})")
    return bisect_right(schedule.dates, t) - 1


def _jump_survival(schedule: DefaultSchedule, i: int, t: float, m: int) -> float:
    """Probability of no jump default on (t, t_{m+1}] for t in interval i <= m."""
    lam, dates = schedule.intensities, schedule.dates
    hazard = sum(lam[k] * (dates[k + 1] - dates[k]) for k in range(i + 1, m + 1))
    return math.exp(-lam[i] * (dates[i + 1] - t) - hazard)


def survival_probability(
    market: MarketParams,
    schedule: DefaultSchedule,
    x: float,
    t: float,
) -> float:
    """Probability of surviving both default channels on (t, T]."""
    i = _interval(schedule, t, "survival_probability")
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"survival_probability: spot must be positive, got {x}")
    w, _, _ = _sum_terms(market, schedule, math.inf, x, i, t)
    return w


def _terms(
    market: MarketParams,
    schedule: DefaultSchedule,
    cap: float,
    i: int,
    t: float,
) -> list[tuple[float, BinarySpec | WeightedIntegralSpec]]:
    """The interval-i closed form for a default that recovers min(1, x/cap)
    as (weight, spec) pairs: the relative price is the sum of weight times
    the spec's value, and every weight includes the jump survival from t.

    Besides the survival binary, each date m >= i adds its barrier default
    and each interval m >= i its jump default.  With c = min(K_m, cap) the
    barrier default is asset(-, c)/cap, plus bond(+, cap) - bond(+, K_m) for
    the full recovery on (cap, K_m] when K_m > cap.  The jump default is
    bond(+, cap) + asset(-, cap)/cap integrated over the jump time from
    max(t, t_m) to t_{m+1}.  A recovery that does not grow with the firm
    value (exogenous, or endogenous with R = 0) has an infinite cap and
    recovers nothing here, so only the survival binary is left.
    """
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
        cascade = BinarySpec("bond", (1,) * (n - i), barriers[i:], dates[i + 1 :], coeffs)
        terms.append((survival, cascade))
    if math.isinf(cap):
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


def _sum_terms(market, schedule, cap: float, x: float, i: int, t: float):
    """The sum of the interval-i terms at a positive finite spot x, clamped
    to [0, 1], plus the accumulated (cdf_error, quadrature_error)."""
    u = cdf_err = quad_err = 0.0
    for w, spec in _terms(market, schedule, cap, i, t):
        if isinstance(spec, BinarySpec):
            value, err = price_binary_with_error(spec, x, t)
            cdf_err += abs(w) * err
        else:
            value, err = integral_binary(spec, x, t)
            quad_err += abs(w) * err
        u += w * value
    return min(max(u, 0.0), 1.0), cdf_err, quad_err


def _discount(r: float, remaining: float, caller: str) -> float:
    """The default-free bond exp(-r remaining); one past the largest float
    raises naming ``caller``."""
    if -r * remaining > _LOG_MAX:
        raise DomainError(f"{caller}: discount factor exp({-r * remaining:g}) past the float range")
    return math.exp(-r * remaining)


def _relative_spot(V: float, df: float) -> float:
    """The relative firm value V / df, clamped to the positive floats.  It
    overflows for V near the largest float, and for every V once df
    underflows to 0; it underflows to 0 for a subnormal V when r < 0.  Far
    above every barrier and the cap, and far below them, the relative price
    is flat in x, so the largest or the smallest positive float prices it."""
    return max(V / df, math.ulp(0.0)) if V < df * sys.float_info.max else sys.float_info.max


def _report(market, schedule, recovery, V: float, t: float, caller: str) -> PriceReport:
    """Price report at firm value ``V``.  The relative price is a floor plus
    a share of the term sum: R plus 1 - R of the survival probability for
    exogenous recovery, 0 plus all of it for endogenous recovery."""
    if not (math.isfinite(V) and V > 0.0):
        raise DomainError(f"{caller}: firm value must be positive, got {V}")
    i = _interval(schedule, t, caller)
    remaining = schedule.maturity - t
    df = _discount(market.r, remaining, caller)
    x = _relative_spot(V, df)
    w, cdf_err, quad_err = _sum_terms(market, schedule, recovery.cap, x, i, t)
    exogenous = recovery.mode == "exogenous"
    floor = recovery.R if exogenous else 0.0
    share = 1.0 - floor
    u = floor + share * w
    spread = max(0.0, -math.log(u) / remaining) if u > 0.0 else math.inf
    return PriceReport(
        price=floor * df + share * w * df,
        relative_price=u,
        survival_prob=w if exogenous else None,
        credit_spread=spread,
        interval_index=i,
        diagnostics={"cdf_error": share * df * cdf_err, "quadrature_error": share * df * quad_err},
    )


def price_endogenous(
    market: MarketParams,
    schedule: DefaultSchedule,
    recovery: RecoveryModel,
    V: float,
    t: float,
) -> PriceReport:
    """Bond price at firm value ``V``, endogenous recovery."""
    if recovery.mode != "endogenous":
        raise DomainError("price_endogenous: recovery model must be endogenous")
    return _report(market, schedule, recovery, V, t, "price_endogenous")


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
    return _report(market, schedule, recovery, V, t, "price_exogenous")
