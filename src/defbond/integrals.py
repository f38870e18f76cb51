"""Exponentially weighted time-integrals of binary prices.

Evaluates ``int_C^D lam * exp(-lam * (tau - anchor)) * price(tau) dtau`` where
``price(tau)`` is a binary whose last expiry runs over the integration
variable.  The integrand is smooth on the open interval; the quadrature is
adaptive 7-15 Gauss-Kronrod whose nodes never touch the endpoints, so the
degenerate limits (tau meeting the previous date, or the evaluation time)
are never evaluated directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Literal

import numpy as np

from .binaries import BinarySpec, BsCoefficients, price_binary
from .errors import DomainError, ScheduleError
from .normal import DEFAULT_QMC, QmcConfig

__all__ = ["WeightedIntegralSpec", "integral_binary"]

QUAD_ABS_TOL = 1e-8
QUAD_MAX_INTERVALS = 2**12

# 7-15 Gauss-Kronrod nodes/weights on (-1, 1); all nodes are interior.
_XGK = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
_WG = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
    ]
)

_NODES = np.concatenate((-_XGK[:-1], _XGK[::-1]))  # ascending, 15 points
_W_KRONROD = np.concatenate((_WGK[:-1], _WGK[::-1]))
_W_GAUSS = np.zeros(15)
_W_GAUSS[1:-1:2] = np.concatenate((_WG[:-1], _WG[::-1]))


def _kronrod_panel(f: Callable[[float], float], a: float, b: float):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fv = np.array([f(mid + half * xi) for xi in _NODES.tolist()])
    resk = half * float(_W_KRONROD @ fv)
    resg = half * float(_W_GAUSS @ fv)
    diff = abs(resk - resg)
    err = min(diff, (200.0 * diff) ** 1.5) if diff > 0.0 else 0.0
    return resk, err


def _adaptive_quad(
    f: Callable[[float], float],
    a: float,
    b: float,
    abs_tol: float = QUAD_ABS_TOL,
    max_intervals: int = QUAD_MAX_INTERVALS,
):
    """Adaptive Gauss-Kronrod with worst-interval-first subdivision.

    Returns (value, error_estimate); the value is the fixed-order sum over
    final panels accumulated in ascending position for reproducibility.
    """
    val, err = _kronrod_panel(f, a, b)
    heap = [(-err, a, b, val, err)]
    count = 1
    while count < max_intervals:
        total_err = -sum(item[0] for item in heap)
        if total_err <= abs_tol:
            break
        worst = heappop(heap)
        neg, lo, hi = worst[0], worst[1], worst[2]
        if -neg <= 1e-300:
            heappush(heap, worst)
            break
        mid = 0.5 * (lo + hi)
        v1, e1 = _kronrod_panel(f, lo, mid)
        v2, e2 = _kronrod_panel(f, mid, hi)
        heappush(heap, (-e1, lo, mid, v1, e1))
        heappush(heap, (-e2, mid, hi, v2, e2))
        count += 1
    panels = sorted(heap, key=lambda item: item[1])
    value = math.fsum(p[3] for p in panels)
    error = math.fsum(p[4] for p in panels)
    return value, error


@dataclass(frozen=True)
class WeightedIntegralSpec:
    """Integral of an order-m binary over its last expiry.

    The fixed part of the chain (signs/strikes for the first m-1 dates plus
    the running last slot) is stored explicitly; ``binary_at(tau)`` realizes
    the chain at a concrete last expiry.  The weight is
    ``weight_rate * exp(-weight_rate * (tau - weight_anchor))`` with
    ``weight_anchor <= lower`` so the weight never exceeds the rate.
    """

    kind: Literal["asset", "bond"]
    signs: tuple[int, ...]
    strikes: tuple[float, ...]
    fixed_expiries: tuple[float, ...]
    coeffs: BsCoefficients
    weight_rate: float
    weight_anchor: float
    lower: float
    upper: float

    def __post_init__(self):
        m = len(self.signs)
        if m < 1 or len(self.strikes) != m or len(self.fixed_expiries) != m - 1:
            raise DomainError(
                "WeightedIntegralSpec: need m signs, m strikes and m-1 fixed expiries"
            )
        if self.weight_rate < 0.0 or not math.isfinite(self.weight_rate):
            raise DomainError("WeightedIntegralSpec: weight rate must be >= 0")
        if self.lower > self.upper:
            raise ScheduleError(
                f"WeightedIntegralSpec: bounds reversed: [{self.lower}, {self.upper}]"
            )
        if self.weight_anchor > self.lower:
            raise ScheduleError("WeightedIntegralSpec: anchor must not exceed the lower bound")
        if any(b <= a for a, b in zip(self.fixed_expiries, self.fixed_expiries[1:])):
            raise ScheduleError("WeightedIntegralSpec: fixed expiries not increasing")
        if self.fixed_expiries and self.lower < self.fixed_expiries[-1]:
            raise ScheduleError(
                "WeightedIntegralSpec: integration interval starts before the last fixed expiry"
            )

    @property
    def order(self) -> int:
        return len(self.signs)

    def binary_at(self, tau: float) -> BinarySpec:
        return BinarySpec(
            self.kind,
            self.signs,
            self.strikes,
            self.fixed_expiries + (tau,),
            self.coeffs,
        )


def integral_binary(
    spec: WeightedIntegralSpec,
    x: float,
    t: float,
    config: QmcConfig = DEFAULT_QMC,
) -> tuple[float, float]:
    """Weighted integral value and the quadrature error estimate."""
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"integral_binary: spot must be positive, got {x}")
    if spec.fixed_expiries:
        if t >= spec.fixed_expiries[0]:
            raise ScheduleError(
                "integral_binary: evaluation time must precede the first fixed expiry"
            )
    elif t > spec.lower:
        raise ScheduleError("integral_binary: evaluation time past the integration interval")
    if spec.weight_rate == 0.0 or spec.lower == spec.upper:
        return 0.0, 0.0

    rate, anchor = spec.weight_rate, spec.weight_anchor

    def integrand(tau: float) -> float:
        w = rate * math.exp(-rate * (tau - anchor))
        return w * price_binary(spec.binary_at(tau), x, t, config)

    value, err = _adaptive_quad(integrand, spec.lower, spec.upper)
    return max(value, 0.0), err
