"""Closed-form prices of chained asset-or-nothing / cash-or-nothing options.

An order-m binary pays at the last of m increasing dates, conditional on the
spot clearing (sign +) or undercutting (sign -) a strike at every date in the
chain.  Its price is an m-variate normal CDF with the square-root-of-time
correlation structure, discounted from the last date.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal

from .errors import DomainError, ScheduleError
from .normal import DEFAULT_QMC, QmcConfig, build_correlation, mvn_cdf

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


@dataclass(frozen=True)
class BinarySpec:
    """An order-m binary: payoff kind, per-date signs, strikes and expiries."""

    kind: Literal["asset", "bond"]
    signs: tuple[int, ...]
    strikes: tuple[float, ...]
    expiries: tuple[float, ...]
    coeffs: BsCoefficients

    def __post_init__(self):
        if self.kind not in ("asset", "bond"):
            raise DomainError(f"BinarySpec: unknown kind {self.kind!r}")
        m = len(self.signs)
        if m < 1 or len(self.strikes) != m or len(self.expiries) != m:
            raise DomainError("BinarySpec: signs, strikes and expiries must share a length >= 1")
        for sign in self.signs:
            if sign not in (-1, 1):
                raise DomainError("BinarySpec: signs must be +-1")
        for strike in self.strikes:
            if not (math.isfinite(strike) and strike > 0.0):
                raise DomainError("BinarySpec: strikes must be positive and finite")
        for a, b in zip(self.expiries, self.expiries[1:]):
            if b <= a:
                raise ScheduleError(f"BinarySpec: expiries not strictly increasing: {self.expiries}")

    @property
    def order(self) -> int:
        return len(self.signs)


def _signed_limits(spec: BinarySpec, x: float, t: float, plus: bool) -> list[float]:
    """Signed CDF limits s_i * d_i^(+/-), saturated at +-_D_CLAMP."""
    coeffs = spec.coeffs
    sigma = coeffs.sigma
    drift = coeffs.r - coeffs.q + (0.5 if plus else -0.5) * sigma**2
    limits = []
    for sign, strike, expiry in zip(spec.signs, spec.strikes, spec.expiries):
        tau = expiry - t
        moneyness = x / strike
        log_m = math.log(moneyness) if moneyness > 0.0 else -math.inf  # x/K underflowed
        d = (log_m + drift * tau) / (sigma * math.sqrt(tau))
        if d > _D_CLAMP:
            d = _D_CLAMP
        elif d < -_D_CLAMP:
            d = -_D_CLAMP
        limits.append(sign * d)
    return limits


def price_binary_with_error(
    spec: BinarySpec, x: float, t: float, config: QmcConfig = DEFAULT_QMC
) -> tuple[float, float]:
    """Binary price plus a bound on the CDF-evaluation error it inherits."""
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"price_binary: spot must be positive, got {x}")
    if not (math.isfinite(t) and t < spec.expiries[0]):
        raise ScheduleError(
            f"price_binary: evaluation time {t} is not before the first expiry {spec.expiries[0]}"
        )
    corr = build_correlation(t, spec.expiries)
    limits = _signed_limits(spec, x, t, plus=(spec.kind == "asset"))
    prob, cdf_err = mvn_cdf(limits, corr, spec.signs, config)
    horizon = spec.expiries[-1] - t
    if spec.kind == "asset":
        scale = x * math.exp(-spec.coeffs.q * horizon)
    else:
        scale = math.exp(-spec.coeffs.r * horizon)
    return scale * prob, scale * cdf_err


def price_binary(spec: BinarySpec, x: float, t: float, config: QmcConfig = DEFAULT_QMC) -> float:
    """Price of the binary at spot ``x`` and time ``t < T_1``."""
    return price_binary_with_error(spec, x, t, config)[0]


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
