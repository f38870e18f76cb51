"""Closed-form prices of chained asset-or-nothing / cash-or-nothing options.

An order-m binary pays at the last of m increasing dates, conditional on the
spot clearing (sign +) or undercutting (sign -) a strike at every date in the
chain.  Its price is an m-variate normal CDF with the square-root-of-time
correlation structure, discounted from the last date.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Literal

from .errors import DomainError, ScheduleError
from .normal import DEFAULT_QMC, CorrelationStructure, mvn_cdf

__all__ = [
    "BsCoefficients",
    "BinarySpec",
    "price_binary",
    "price_binary_with_error",
    "shift_coefficients",
]

# Phi is exactly 0 below about -37.68 (where scipy's ndtr underflows, and
# the scalar Phi of normal.py with it) and exactly 1 above about 8.3, so
# saturating at |d| = 38 changes no CDF and keeps near-expiry limits finite.
_D_CLAMP = 38.0


@dataclass(frozen=True)
class BsCoefficients:
    """Coefficient triple (risk-free rate, dividend rate, volatility) of the
    pricing equation a binary solves."""

    r: float
    q: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and math.isfinite(self.q)):
            raise DomainError("BsCoefficients: rates must be finite")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise DomainError("BsCoefficients: sigma must be positive")


def check_payoff(owner: str, kind: str, signs: tuple, strikes: tuple) -> None:
    """The kind, sign and strike checks of every chained payoff; ``owner``
    names the spec in the error."""
    if kind not in ("asset", "bond"):
        raise DomainError(f"{owner}: unknown kind {kind!r}")
    for sign in signs:
        if sign not in (-1, 1):
            raise DomainError(f"{owner}: signs must be +-1")
    for strike in strikes:
        if not (math.isfinite(strike) and strike > 0.0):
            raise DomainError(f"{owner}: strikes must be positive and finite")


@dataclass(frozen=True)
class BinarySpec:
    """An order-m binary: payoff kind, per-date signs, strikes and expiries."""

    kind: Literal["asset", "bond"]
    signs: tuple[int, ...]
    strikes: tuple[float, ...]
    expiries: tuple[float, ...]
    coeffs: BsCoefficients

    def __post_init__(self):
        m = len(self.signs)
        if m < 1 or len(self.strikes) != m or len(self.expiries) != m:
            raise DomainError("BinarySpec: signs, strikes and expiries must share a length >= 1")
        check_payoff("BinarySpec", self.kind, self.signs, self.strikes)
        for a, b in zip(self.expiries, self.expiries[1:]):
            if b <= a:
                raise ScheduleError(f"BinarySpec: expiries not strictly increasing: {self.expiries}")

    @property
    def order(self) -> int:
        return len(self.signs)


def _log_moneyness(x: float, strike: float) -> float:
    moneyness = x / strike
    return math.log(moneyness) if moneyness > 0.0 else -math.inf  # x/K underflowed


def _signed_limit(sign: int, log_m: float, drift: float, sigma: float, tau: float) -> float:
    """Signed CDF limit s * d^(+/-) of one date tau ahead, saturated at
    +-_D_CLAMP."""
    d = (log_m + drift * tau) / (sigma * math.sqrt(tau))
    if d > _D_CLAMP:
        d = _D_CLAMP
    elif d < -_D_CLAMP:
        d = -_D_CLAMP
    return sign * d


def last_expiry_pricer(
    kind: str, signs: tuple, strikes: tuple, fixed_expiries: tuple, coeffs: BsCoefficients,
    x: float, t: float,
) -> Callable[[float], tuple[float, float]]:
    """Price and CDF error bound of an order-m binary as a function of its
    last expiry tau.

    ``f(tau)`` prices ``BinarySpec(kind, signs, strikes, fixed_expiries +
    (tau,), coeffs)`` at (x, t).  The drift, the m - 1 limits of the fixed
    expiries and log(x / K_m) are computed once; each tau costs one limit,
    one correlation chain and one CDF call, so a weighted integral prices
    its nodes from one call here.  The caller has checked the payoff,
    ``x > 0``, ``t`` before the first expiry and ``tau`` after the last
    fixed one.
    """
    plus = kind == "asset"
    sigma = coeffs.sigma
    drift = coeffs.r - coeffs.q + (0.5 if plus else -0.5) * sigma**2
    t = float(t)
    fixed = tuple(map(float, fixed_expiries))
    head = [
        _signed_limit(sign, _log_moneyness(x, strike), drift, sigma, expiry - t)
        for sign, strike, expiry in zip(signs, strikes, fixed)
    ]
    sign, log_m = signs[-1], _log_moneyness(x, strikes[-1])
    level, decay = (x, coeffs.q) if plus else (1.0, coeffs.r)

    def price(tau: float) -> tuple[float, float]:
        limits = head + [_signed_limit(sign, log_m, drift, sigma, tau - t)]
        # mvn_cdf is looked up in this module, and bench/tracing.py reads
        # target_error from its fourth positional argument
        prob, cdf_err = mvn_cdf(limits, CorrelationStructure(t, fixed + (tau,)), signs, DEFAULT_QMC)
        scale = level * math.exp(-decay * (tau - t))
        return scale * prob, scale * cdf_err

    return price


def price_binary_with_error(spec: BinarySpec, x: float, t: float) -> tuple[float, float]:
    """Binary price plus a bound on the CDF-evaluation error it inherits."""
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"price_binary: spot must be positive, got {x}")
    if not (math.isfinite(t) and t < spec.expiries[0]):
        raise ScheduleError(
            f"price_binary: evaluation time {t} is not before the first expiry {spec.expiries[0]}"
        )
    pricer = last_expiry_pricer(
        spec.kind, spec.signs, spec.strikes, spec.expiries[:-1], spec.coeffs, x, t
    )
    return pricer(float(spec.expiries[-1]))


def price_binary(spec: BinarySpec, x: float, t: float) -> float:
    """Price of the binary at spot ``x`` and time ``t < T_1``."""
    return price_binary_with_error(spec, x, t)[0]


def shift_coefficients(spec: BinarySpec, new_r: float, t: float) -> tuple[float, BinarySpec]:
    """Re-express a binary at a different risk-free rate.

    Keeping the carry ``q - r`` and the volatility fixed, the price at the
    original coefficients equals ``scale`` times the price at
    ``(new_r, new_r + (q - r), sigma)`` with
    ``scale = exp(-(r - new_r) * (T_m - t))``.
    """
    if not math.isfinite(new_r):
        raise DomainError("shift_coefficients: new rate must be finite")
    old = spec.coeffs
    scale = math.exp(-(old.r - new_r) * (spec.expiries[-1] - t))
    shifted = replace(
        spec, coeffs=BsCoefficients(new_r, new_r + (old.q - old.r), old.sigma)
    )
    return scale, shifted
