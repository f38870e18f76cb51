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

# Beyond |d| = 38 the normal CDF is 0 or 1 to double precision; saturating
# keeps near-expiry evaluations finite.
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
        if any(s not in (-1, 1) for s in self.signs):
            raise DomainError("BinarySpec: signs must be +-1")
        if any(not (math.isfinite(k) and k > 0.0) for k in self.strikes):
            raise DomainError("BinarySpec: strikes must be positive and finite")
        if any(b <= a for a, b in zip(self.expiries, self.expiries[1:])):
            raise ScheduleError(f"BinarySpec: expiries not strictly increasing: {self.expiries}")

    @property
    def order(self) -> int:
        return len(self.signs)


def _signed_limits(spec: BinarySpec, x: float, t: float, plus: bool) -> list[float]:
    """Signed CDF limits s_i * d_i^(+/-), saturated at +-_D_CLAMP."""
    coeffs = spec.coeffs
    drift = coeffs.r - coeffs.q + (0.5 if plus else -0.5) * coeffs.sigma**2
    limits = []
    for sign, strike, expiry in zip(spec.signs, spec.strikes, spec.expiries):
        tau = expiry - t
        moneyness = x / strike
        log_m = math.log(moneyness) if moneyness > 0.0 else -math.inf  # x/K underflowed
        d = (log_m + drift * tau) / (coeffs.sigma * math.sqrt(tau))
        limits.append(sign * min(max(d, -_D_CLAMP), _D_CLAMP))
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
