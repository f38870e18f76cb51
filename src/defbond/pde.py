"""Finite-difference verification engine for the bond-price cascade.

Solves the relative-price equation backward interval by interval on a uniform
log-spot grid: Crank-Nicolson in time with an implicit-Euler (Rannacher)
start-up after every discontinuous terminal or gluing condition.  Every
recovery model runs through one cascade whose data all come from the
recovery a default pays, p = ``RecoveryModel.paid``: the gluing values, the
source lam * p, the large-spot boundary p(x_max) + (1 - p(x_max)) S_i(t)
with S_i the jump survival to maturity, and the small-spot boundary
p(0) + (p(x_min) - p(0)) c_i(t), exact while p is affine on [0, x_min].
When every barrier sits far under the grid both edges take the far-field
value, which needs the same recovery at both edges once a jump channel is
live.  Each interval factors its step matrix M = I - (dt/2) A once, held by
a per-interval stepper, and solves every step in place over two rolling row
buffers.  While the cell Peclet number is below 1, a diagonal scaling makes M
a symmetric positive definite tridiagonal matrix, which LAPACK factors and
solves without pivoting (``dpttrf``/``dpttrs``); other grids take the
pivoted LU (``dgttrf``/``dgttrs``).  The explicit half of a Crank-Nicolson
step is folded into the solve, whose result less the old row is the new
row.  A stepper imports its LAPACK routines from ``scipy.linalg`` when it
is built, so importing this module loads no scipy.  Only every s-th row is
kept, s = isqrt(steps per interval), plus the glued terminal row; ``sample``
re-marches the rows it needs from the nearest kept row above them with the
same stepper, so it reads the values a full history would hold.  This engine shares no code path with the
closed forms it checks.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.linalg import LinAlgError

from .errors import DomainError
from .pricing import DefaultSchedule, MarketParams, RecoveryModel

__all__ = [
    "GridSpec",
    "CascadeSolution",
    "solve_endogenous_cascade",
    "solve_exogenous_cascade",
    "sample",
]

# Grid edges sit at least this factor past every barrier, the recovery cap and
# the spot (GridSpec.auto); barriers this far under x_min are unreachable.
_MARGIN = 50.0

# A stepper symmetrises its matrix only while the diagonal scaling P stays
# within e^(+-_MAX_LOG_P), so P, P^-1 and the scaled rows stay normal floats.
_MAX_LOG_P = 600.0


@dataclass(frozen=True)
class GridSpec:
    """Spatial/temporal resolution for the cascade solver."""

    x_min: float
    x_max: float
    n_space: int = 2048
    n_time_per_interval: int = 2048

    def __post_init__(self):
        if not (0.0 < self.x_min < self.x_max) or not math.isfinite(self.x_max):
            raise DomainError("GridSpec: need 0 < x_min < x_max < inf")
        if self.n_space < 64:
            raise DomainError("GridSpec: n_space must be >= 64")
        if self.n_time_per_interval < 16:
            raise DomainError("GridSpec: n_time_per_interval must be >= 16")

    @classmethod
    def auto(
        cls,
        market: MarketParams,
        schedule: DefaultSchedule,
        x_eval: float,
        recovery: RecoveryModel,
        n_space: int = 2048,
        n_time_per_interval: int = 2048,
    ) -> "GridSpec":
        """Domain sized so the analytic boundary values hold to verification
        tolerances: at least ``_MARGIN`` (50) times past every barrier, the
        recovery cap and the evaluation spot, widened further when the
        lognormal drift plus four standard deviations over the full horizon
        reaches past that (the relative spot drifts down at rate
        b + s_V^2/2, so high volatility pushes the far field out a lot)."""
        refs = list(schedule.barriers) + [x_eval]
        if math.isfinite(recovery.cap):
            refs.append(recovery.cap)
        horizon = schedule.maturity
        drift = (market.b + 0.5 * market.s_V**2) * horizon
        spread = 4.0 * market.s_V * math.sqrt(horizon)
        log_hi = max(math.log(_MARGIN), drift + spread)
        log_lo = max(math.log(_MARGIN), spread - drift)
        return cls(
            min(refs) * math.exp(-log_lo),
            max(refs) * math.exp(log_hi),
            n_space,
            n_time_per_interval,
        )


@dataclass
class CascadeSolution:
    """Per-interval grids of the relative price u on (log-spot, time).

    ``times[i]`` is interval i's full step grid t_i + k dt, k = 0..n.
    ``values[i]`` keeps only the rows k = 0, s, 2s, ... below n, with
    s = ``stride``, and last the glued terminal row k = n.  ``sample``
    re-marches any other row with ``steppers[i]`` from the nearest kept row
    above it, bit for bit as the solve computed it.  ``accuracy_warning`` is
    set when a Richardson check exceeds its tolerance.
    """

    dates: tuple[float, ...]
    y: np.ndarray
    times: list[np.ndarray]
    values: list[np.ndarray]
    stride: int
    steppers: list["_Stepper"]
    accuracy_warning: str | None = None


class _Stepper:
    """Backward Crank-Nicolson for u_t + (sigma^2/2) u_yy + mu u_y - rho u + f = 0
    on n_steps steps of [t_lo, t_hi]; row k is the solution at t_lo + k dt.

    The first transition after the (possibly discontinuous) terminal row is
    taken as two implicit-Euler half-steps.  Both schemes solve with
    M = I - (dt/2) A, factored once; the explicit half of a Crank-Nicolson
    step is folded through (I - (dt/2) A)^-1 (I + (dt/2) A) = 2 M^-1 - I, so a
    step is one solve of 2u + dt f plus the boundary halves, less u.

    M has sub-diagonal -lo and super-diagonal -up.  While both are negative
    (cell Peclet number |mu| h / sigma^2 < 1), M = P S P^-1 with
    P = diag(r^(j - (m-2)/2)), r = sqrt(lo / up), and S symmetric tridiagonal
    with off-diagonal -sqrt(lo up).  sqrt(lo up) <= (dt/2) alpha, so for
    rho >= 0 S is diagonally dominant by at least 1 and positive definite: it
    is factored with LAPACK ``dpttrf`` and every solve is a scaling by P^-1,
    one ``dpttrs`` and a scaling by P.  When S does not exist, or P would
    leave e^(+-_MAX_LOG_P), M is LU-factored with partial pivoting
    (``dgttrf``/``dgttrs``) and P is the identity.
    """

    def __init__(
        self,
        y: np.ndarray,
        sigma: float,
        mu: float,
        rho: float,
        source: np.ndarray,
        bc_lo: Callable[[float], float],
        bc_hi: Callable[[float], float],
        t_lo: float,
        t_hi: float,
        n_steps: int,
    ):
        h = y[1] - y[0]
        m = len(y) - 1
        alpha = sigma * sigma / (2.0 * h * h)
        self.dt = (t_hi - t_lo) / n_steps
        self.half = half = 0.5 * self.dt
        lo = half * (alpha - mu / (2.0 * h))
        up = half * (alpha + mu / (2.0 * h))
        diag = 1.0 + half * (2.0 * alpha + rho)
        self.half_f = half * source
        self.bc_lo, self.bc_hi = bc_lo, bc_hi
        self.t_lo, self.t_hi, self.n_steps = t_lo, t_hi, n_steps
        # rows a march keeps: every stride-th, then the terminal row
        self.stride = math.isqrt(n_steps)
        from scipy.linalg import lapack

        if lo > 0.0 and up > 0.0 and 0.25 * (m - 2) * abs(math.log(lo / up)) <= _MAX_LOG_P:
            # powers of one rounded r keep every ratio p[j + 1] / p[j] within
            # a few ulps of r, which the similarity needs, at any exponent
            r = math.sqrt(lo / up)
            j = np.arange(m - 1) - 0.5 * (m - 2)
            self.p = np.power(r, j)
            q = np.power(r, -j)
            *self.lu, info = lapack.dpttrf(
                np.full(m - 1, diag), np.full(m - 2, -math.sqrt(lo * up))
            )
            self.trs = lapack.dpttrs
        else:
            self.p = q = np.ones(m - 1)
            *self.lu, info = lapack.dgttrf(
                np.full(m - 2, -lo), np.full(m - 1, diag), np.full(m - 2, -up)
            )
            self.trs = lapack.dgttrs
        if info != 0:
            raise LinAlgError("singular matrix")
        self.q = q
        self.two_q = 2.0 * q
        self.dt_fq = self.dt * source * q
        # the boundary weights of the end rows, pre-scaled by P^-1
        self.lo_q = lo * q[0]
        self.up_q = up * q[-1]

    def _solve(self, row: np.ndarray, old_lo: float, old_hi: float, t: float) -> None:
        """Overwrite row[1:-1], which holds P^-1 times the right-hand side
        without its boundary halves, with the solution at time t; old_lo and
        old_hi are the old-time boundary values the right side carries."""
        lo, hi = self.bc_lo(t), self.bc_hi(t)
        row[1] += self.lo_q * (old_lo + lo)
        row[-2] += self.up_q * (old_hi + hi)
        inner = row[1:-1]
        _, info = self.trs(*self.lu, inner, overwrite_b=True)
        if info != 0:
            raise ValueError(f"illegal value in {-info}-th argument of the tridiagonal solve")
        inner *= self.p
        row[0] = lo
        row[-1] = hi

    def step(self, k: int, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write row k into ``out`` from row k + 1 in ``u`` (a different array)."""
        inner = out[1:-1]
        if k == self.n_steps - 1:
            # Rannacher start-up: two implicit-Euler half-steps
            np.add(u[1:-1], self.half_f, out=inner)
            inner *= self.q
            self._solve(out, 0.0, 0.0, self.t_hi - self.half)
            inner += self.half_f
            inner *= self.q
            self._solve(out, 0.0, 0.0, self.t_lo + k * self.dt)
        else:
            # M^-1 (2u + dt f + the old- and new-time boundary halves) - u
            np.multiply(u[1:-1], self.two_q, out=inner)
            inner += self.dt_fq
            self._solve(out, float(u[0]), float(u[-1]), self.t_lo + k * self.dt)
            inner -= u[1:-1]
        return out


def _march(stepper: _Stepper, terminal: np.ndarray) -> np.ndarray:
    """Run ``stepper`` down from ``terminal`` over two rolling row buffers.

    Returns the kept rows: k = 0, s, 2s, ... below n_steps, then the
    terminal row, with s = ``stepper.stride``.
    """
    n, s = stepper.n_steps, stepper.stride
    kept = np.empty((-(-n // s) + 1, len(terminal)))
    kept[-1] = terminal
    spare = np.empty((2, len(terminal)))
    u = kept[-1]
    for k in range(n - 1, -1, -1):
        u = stepper.step(k, u, kept[k // s] if k % s == 0 else spare[k & 1])
    # a non-finite value anywhere spreads through every later solve
    if not np.isfinite(kept[0]).all():
        raise ValueError("array must not contain infs or NaNs")
    return kept


def _edges(
    b: float, lam: float, t_hi: float, tail: float, p_0: float, p_lo: float, p_hi: float
) -> tuple[Callable[[float], float], Callable[[float], float]]:
    """Small- and large-spot boundary values of one interval as functions of t;
    ``tail`` is the jump hazard from t_hi to maturity.  The interval's stepper
    keeps them for re-marching on ``sample``, so each binds its own values."""
    g = b + lam

    def near(t):
        # u = p(0) + (p(x_min) - p(0)) c x / x_min while p is affine on
        # [0, x_min]: dc/dt = (b + lam) c - lam, c(t_{i+1}) = 1
        if g == 0.0:
            c = 1.0 + lam * (t_hi - t)
        else:
            c = 1.0 + (1.0 - lam / g) * math.expm1(-g * (t_hi - t))
        return p_0 + (p_lo - p_0) * c

    def far(t):
        # no barrier triggers; a jump default pays p(x_max)
        return p_hi + (1.0 - p_hi) * math.exp(-(lam * (t_hi - t) + tail))

    return near, far


def _cascade(
    market: MarketParams,
    schedule: DefaultSchedule,
    recovery: RecoveryModel,
    grid: GridSpec,
    check_tolerance: float | None,
) -> CascadeSolution:
    """Backward induction for every recovery model: glue at each announcing
    date, march each interval with the source lam * paid.

    The gluing indicator is projected onto the grid by its cell average, so
    the discontinuity sits at the exact barrier with second-order accuracy
    no matter how the nodes align.  With ``check_tolerance`` the cascade is
    solved again on a grid halved in both directions, and a Richardson
    estimate above the tolerance sets ``accuracy_warning``."""
    p_0, p_lo, p_hi = (float(recovery.paid(v)) for v in (0.0, grid.x_min, grid.x_max))
    # the far-field value needs the recovery flat over the top of the grid
    if float(recovery.paid(0.5 * grid.x_max)) != p_hi:
        raise DomainError(
            f"GridSpec x_max {grid.x_max} does not clear the recovery cap with margin"
        )
    # barriers far under the grid trigger no expected default on it (the
    # vanishing-barrier limit): both edges take the far-field value, which
    # holds only when every jump default on the grid pays the same
    unreachable = max(schedule.barriers) * _MARGIN <= grid.x_min
    if unreachable:
        if p_lo != p_hi and any(v > 0.0 for v in schedule.intensities):
            raise DomainError(
                "PDE cascade: barriers below the grid combined with a live jump channel "
                "and a recovery that varies on the grid have no analytic boundary value; "
                "widen the grid"
            )
    elif grid.x_min >= min(schedule.barriers) or grid.x_max <= max(schedule.barriers):
        raise DomainError(
            f"GridSpec [{grid.x_min}, {grid.x_max}] does not span the barriers with margin"
        )

    grids = [grid]
    if check_tolerance is not None:
        grids.append(GridSpec(
            grid.x_min,
            grid.x_max,
            max(grid.n_space // 2, 64),
            max(grid.n_time_per_interval // 2, 16),
        ))
    sigma = market.s_V
    mu = -(market.b + 0.5 * sigma * sigma)
    n = schedule.n_intervals
    solutions = []
    for spec in grids:
        y = np.linspace(math.log(spec.x_min), math.log(spec.x_max), spec.n_space + 1)
        dy = y[1] - y[0]
        rec = recovery.paid(np.exp(y))
        times: list[np.ndarray] = [None] * n  # type: ignore[list-item]
        values: list[np.ndarray] = [None] * n  # type: ignore[list-item]
        steppers: list[_Stepper] = [None] * n  # type: ignore[list-item]
        nxt = np.ones_like(y)
        for i in range(n - 1, -1, -1):
            lam = schedule.intensities[i]
            t_lo, t_hi = schedule.dates[i], schedule.dates[i + 1]
            # jump hazard from t_{i+1} to maturity, constant over the interval
            tail = sum(
                schedule.intensities[k] * (schedule.dates[k + 1] - schedule.dates[k])
                for k in range(i + 1, n)
            )
            near, far = _edges(market.b, lam, t_hi, tail, p_0, p_lo, p_hi)
            above = np.clip((y - math.log(schedule.barriers[i])) / dy + 0.5, 0.0, 1.0)
            terminal = above * nxt + (1.0 - above) * rec
            steppers[i] = _Stepper(
                y,
                sigma,
                mu,
                lam,
                lam * rec[1:-1],
                far if unreachable else near,
                far,
                t_lo,
                t_hi,
                spec.n_time_per_interval,
            )
            values[i] = _march(steppers[i], terminal)
            times[i] = np.linspace(t_lo, t_hi, spec.n_time_per_interval + 1)
            nxt = values[i][0]
        solutions.append(
            CascadeSolution(schedule.dates, y, times, values, steppers[0].stride, steppers)
        )

    fine = solutions[0]
    if check_tolerance is not None:
        coarse = solutions[1]
        probe = slice(len(fine.y) // 4, 3 * len(fine.y) // 4)
        coarse_on_fine = np.interp(fine.y[probe], coarse.y, coarse.values[0][0])
        est = float(np.max(np.abs(fine.values[0][0][probe] - coarse_on_fine))) / 3.0
        if est > check_tolerance:
            fine.accuracy_warning = (
                f"Richardson error estimate {est:.3e} exceeds requested tolerance "
                f"{check_tolerance:.3e}"
            )
    return fine


def solve_endogenous_cascade(
    market: MarketParams,
    schedule: DefaultSchedule,
    recovery: RecoveryModel,
    grid: GridSpec,
    check_tolerance: float | None = None,
) -> CascadeSolution:
    """Backward cascade with firm-value recovery min(1, x / (n/R))."""
    if recovery.mode != "endogenous":
        raise DomainError("solve_endogenous_cascade: recovery model must be endogenous")
    return _cascade(market, schedule, recovery, grid, check_tolerance)


def solve_exogenous_cascade(
    market: MarketParams,
    schedule: DefaultSchedule,
    recovery: RecoveryModel,
    grid: GridSpec,
    check_tolerance: float | None = None,
) -> CascadeSolution:
    """Backward cascade with fixed fractional recovery R; at R = 0 it is the
    survival probability W."""
    if recovery.mode != "exogenous":
        raise DomainError("solve_exogenous_cascade: recovery model must be exogenous")
    return _cascade(market, schedule, recovery, grid, check_tolerance)


def sample(solution: CascadeSolution, x: float, t: float) -> float:
    """Bilinear interpolation of the cascade on (log x, t).

    Announcing dates belong to the interval on their right; ``t`` equal to
    maturity returns the glued terminal data of the last interval.  A
    bracketing row that is not kept is re-marched from the nearest kept row
    above it, so the value is the one the full history would give.
    """
    y = math.log(x) if x > 0.0 else -math.inf
    if not (solution.y[0] <= y <= solution.y[-1]):
        raise DomainError(f"sample: spot {x} outside the grid hull")
    if not (solution.dates[0] <= t <= solution.dates[-1]):
        raise DomainError(f"sample: time {t} outside the grid hull")
    i = min(bisect_right(solution.dates, t) - 1, len(solution.values) - 1)
    times = solution.times[i]
    k = min(max(bisect_right(times, t) - 1, 0), len(times) - 2)
    w = (t - times[k]) / (times[k + 1] - times[k])
    lower, upper = _bracket(solution, i, k)
    row = (1.0 - w) * lower + w * upper
    return float(np.interp(y, solution.y, row))


def _bracket(solution: CascadeSolution, i: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows k and k + 1 of interval i."""
    s = solution.stride
    kept = solution.values[i]
    r = -(-(k + 1) // s)  # the nearest kept row at or above k + 1
    upper = kept[r]
    spare = np.empty((2, len(upper)))
    for j in range(min(r * s, len(solution.times[i]) - 1) - 1, k, -1):
        upper = solution.steppers[i].step(j, upper, spare[j & 1])
    if k % s == 0:
        return kept[k // s], upper
    return solution.steppers[i].step(k, upper, spare[k & 1]), upper
