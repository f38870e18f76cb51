"""Exponentially weighted time-integrals of binary prices.

Evaluates ``int_C^D lam * exp(-lam * (tau - C)) * price(tau) dtau`` where
``price(tau)`` is a binary whose last expiry runs over the integration
variable, by adaptive 7-15 Gauss-Kronrod (abs tol 1e-8, at most 2^12 panels).
As in QUADPACK, no panel reports an error below 50 eps times the integral of
|integrand| over it, what rounding alone can leave.  Only the last expiry
moves from node to node, so each integral sets up the rest of the chain once
(``binaries.last_expiry_pricer``, which ``price_binary`` also goes through)
and a node costs one CDF limit, one correlation chain and one CDF call.

The integrand is smooth inside the interval, but when the interval starts on
the previous expiry of the chain (the evaluation time for order 1, the last
fixed expiry for order >= 2) the binary leaves its limit there like
sqrt(tau - C), over a boundary layer of width ub^2 (D - C) with
``ub = dist / (sigma * sqrt(D - C))``; ``dist`` is the log-distance from the
last strike to where the previous coordinate can lie.  Seen from (x, t) that
coordinate, the log-spot at the previous expiry prev, has mean
ln x + drift (prev - t), with the binary's drift r - q +- sigma^2/2 (+ for
an asset binary), and deviation sigma sqrt(prev - t); it can lie on its
half-line (the whole line for order 1) within ``_LAYER_SDS`` (8) deviations
of that mean, or anywhere on the half-line when that window misses it.  For
order 1, prev is t: the window is the spot and ``dist`` is |ln x - ln K|.
With ub >= 1 that end is flat and the rule runs in tau itself.  Otherwise
it runs in v on (0, 1) with ``tau = C + (D - C) v^2``, which makes the
square root smooth, starting from panels that break at ub * 4^k so that
each panel holds one scale of the layer.  Nodes never touch the endpoints,
and any that round onto C are moved to the next float above it, so the
degenerate limits are never evaluated.

Each panel's Kronrod and Gauss sums are ``math.fsum`` over the weighted
node values: exactly rounded, so a panel's value depends on neither a BLAS
nor the summation order, and the module needs no numpy.

Measured against tight references, near-the-money prices are within their
reported quadrature error and within about 1e-10 absolute; the 1e-8
tolerance bounds the error estimate, not the error itself.  Just before an
announcing date the window shrinks onto the spot, so an order >= 2 integral
whose half-line holds the last strike still gets the breaks of a spot just
under it: a 6-interval endogenous price 1e-6 before a date is 2.9e-12 off,
reporting 2.9e-10 (measured from the half-line alone it was 4.2e-9 off,
reporting 1.1e-9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import mul
from typing import Callable, Literal

from .binaries import BsCoefficients, _drift, check_payoff, last_expiry_pricer
# Nodes are priced by last_expiry_pricer; the name price_binary stays bound
# because the benchmark tracer (bench/tracing.py) patches this attribute.
from .binaries import price_binary  # noqa: F401
from .errors import DomainError, ScheduleError

__all__ = ["WeightedIntegralSpec", "integral_binary"]

QUAD_ABS_TOL = 1e-8
QUAD_MAX_INTERVALS = 2**12
# The previous coordinate of a chain is taken to lie within this many
# standard deviations of its mean when ``_layer_width`` measures ``dist``.
_LAYER_SDS = 8.0
# Double-precision machine epsilon.  A layer narrower than ub^2 < eps of the
# span is below the span's float resolution and gets no breakpoints of its
# own; eps also sets each panel's rounding floor.
_EPS = 2.0**-52

# 7-15 Gauss-Kronrod nodes/weights on (-1, 1); all nodes are interior.
_XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)

_NODES = tuple(-x for x in _XGK[:-1]) + _XGK[::-1]  # ascending, 15 points
_W_KRONROD = _WGK[:-1] + _WGK[::-1]
_W_GAUSS = _WG[:-1] + _WG[::-1]  # at the odd-indexed nodes, the 7 Gauss points


def _kronrod_panel(f: Callable[[float], float], a: float, b: float):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fv = [f(mid + half * xi) for xi in _NODES]
    resk = half * math.fsum(map(mul, _W_KRONROD, fv))
    resg = half * math.fsum(map(mul, _W_GAUSS, fv[1::2]))
    diff = abs(resk - resg)
    err = min(diff, (200.0 * diff) ** 1.5) if diff > 0.0 else 0.0
    # QUADPACK's rounding floor (qk15): 50 eps times int |f| over the panel
    floor = 50.0 * _EPS * half * math.fsum(map(mul, _W_KRONROD, map(abs, fv)))
    return resk, max(err, floor), err <= floor


def _adaptive_quad(
    f: Callable[[float], float],
    a: float,
    b: float,
    abs_tol: float = QUAD_ABS_TOL,
    max_intervals: int = QUAD_MAX_INTERVALS,
    breaks: tuple[float, ...] = (),
):
    """Adaptive Gauss-Kronrod with worst-interval-first subdivision.

    Starts from the panels that ``breaks`` (increasing, inside (a, b)) cut
    [a, b] into.  Stops once the worst panel's error is its rounding floor:
    halving it cannot lower the total.  Returns (value, error_estimate); the
    value is the fixed-order sum over final panels accumulated in ascending
    position for reproducibility.
    """
    edges = (a, *breaks, b)
    heap = []
    for lo, hi in zip(edges, edges[1:]):
        val, err, rounded = _kronrod_panel(f, lo, hi)
        heap.append((-err, lo, hi, val, err, rounded))
    heapify(heap)
    count = len(heap)
    while count < max_intervals:
        total_err = -sum(item[0] for item in heap)
        if total_err <= abs_tol:
            break
        worst = heappop(heap)
        neg, lo, hi = worst[0], worst[1], worst[2]
        if -neg <= 1e-300 or worst[5]:
            heappush(heap, worst)
            break
        mid = 0.5 * (lo + hi)
        v1, e1, r1 = _kronrod_panel(f, lo, mid)
        v2, e2, r2 = _kronrod_panel(f, mid, hi)
        heappush(heap, (-e1, lo, mid, v1, e1, r1))
        heappush(heap, (-e2, mid, hi, v2, e2, r2))
        count += 1
    panels = sorted(heap, key=lambda item: item[1])
    value = math.fsum(p[3] for p in panels)
    error = math.fsum(p[4] for p in panels)
    return value, error


@dataclass(frozen=True)
class WeightedIntegralSpec:
    """Integral of an order-m binary over its last expiry.

    The chain is stored as m signs and strikes and the m - 1 fixed expiries
    before the running last one; at a last expiry tau the integrand is the
    binary ``BinarySpec(kind, signs, strikes, fixed_expiries + (tau,),
    coeffs)``.  The weight is
    ``weight_rate * exp(-weight_rate * (tau - lower))``, the density of a
    first jump at tau given none before ``lower``.
    """

    kind: Literal["asset", "bond"]
    signs: tuple[int, ...]
    strikes: tuple[float, ...]
    fixed_expiries: tuple[float, ...]
    coeffs: BsCoefficients
    weight_rate: float
    lower: float
    upper: float

    def __post_init__(self):
        m = len(self.signs)
        if m < 1 or len(self.strikes) != m or len(self.fixed_expiries) != m - 1:
            raise DomainError(
                "WeightedIntegralSpec: need m signs, m strikes and m-1 fixed expiries"
            )
        check_payoff("WeightedIntegralSpec", self.kind, self.signs, self.strikes)
        if self.weight_rate < 0.0 or not math.isfinite(self.weight_rate):
            raise DomainError("WeightedIntegralSpec: weight rate must be >= 0")
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ScheduleError(
                f"WeightedIntegralSpec: bounds must be finite: [{self.lower}, {self.upper}]"
            )
        if self.lower > self.upper:
            raise ScheduleError(
                f"WeightedIntegralSpec: bounds reversed: [{self.lower}, {self.upper}]"
            )
        if any(b <= a for a, b in zip(self.fixed_expiries, self.fixed_expiries[1:])):
            raise ScheduleError("WeightedIntegralSpec: fixed expiries not increasing")
        if self.fixed_expiries and self.lower < self.fixed_expiries[-1]:
            raise ScheduleError(
                "WeightedIntegralSpec: integration interval starts before the last fixed expiry"
            )

    @property
    def order(self) -> int:
        return len(self.signs)


def _layer_width(spec: WeightedIntegralSpec, x: float, t: float) -> float:
    """Boundary-layer width ``ub`` at the lower end (module docstring); inf
    when the running expiry starts after the previous expiry of the chain,
    which leaves that end smooth."""
    c = spec.coeffs
    if spec.fixed_expiries:
        prev = spec.fixed_expiries[-1]
        edge = math.log(spec.strikes[-2])
        lo, hi = (edge, math.inf) if spec.signs[-2] > 0 else (-math.inf, edge)
    else:
        prev, lo, hi = t, -math.inf, math.inf
    if spec.lower > prev:
        return math.inf
    # where the previous coordinate can lie: its half-line within
    # _LAYER_SDS deviations of its mean, or the half-line if that misses
    mean = math.log(x) + _drift(spec.kind, c) * (prev - t)
    dev = _LAYER_SDS * c.sigma * math.sqrt(prev - t)
    window = max(lo, mean - dev), min(hi, mean + dev)
    if window[0] <= window[1]:
        lo, hi = window
    strike = math.log(spec.strikes[-1])
    dist = max(lo - strike, strike - hi, 0.0)
    return dist / (c.sigma * math.sqrt(spec.upper - spec.lower))


def integral_binary(spec: WeightedIntegralSpec, x: float, t: float) -> tuple[float, float]:
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

    rate, lower, upper = spec.weight_rate, spec.lower, spec.upper
    # the first float above lower stands in for nodes that round onto it
    above_lower = math.nextafter(lower, math.inf)
    binary = last_expiry_pricer(
        spec.kind, spec.signs, spec.strikes, spec.fixed_expiries, spec.coeffs, x, t
    )

    def integrand(tau: float) -> float:
        if tau <= lower:
            tau = above_lower
        w = rate * math.exp(-rate * (tau - lower))
        return w * binary(tau)[0]

    ub = _layer_width(spec, x, t)
    if ub >= 1.0:
        value, err = _adaptive_quad(integrand, lower, upper)
    else:
        span = upper - lower

        def integrand_v(v: float) -> float:
            return 2.0 * span * v * integrand(lower + span * v * v)

        breaks = []
        if ub * ub > _EPS:
            edge = ub
            while edge < 1.0:
                breaks.append(edge)
                edge *= 4.0
        value, err = _adaptive_quad(integrand_v, 0.0, 1.0, breaks=tuple(breaks))
    return max(value, 0.0), err
