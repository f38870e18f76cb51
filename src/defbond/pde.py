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
live.  Each interval factors the tridiagonal step matrix once (LAPACK
``dgttrf``) and solves every step in place in its row of the stored
solution (``dgttrs``).  This engine shares no code path with the closed
forms it checks.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import dgttrf, dgttrs

from .binaries import BsCoefficients
from .errors import DomainError
from .pricing import DefaultSchedule, MarketParams, RecoveryModel

__all__ = [
    "GridSpec",
    "CascadeSolution",
    "solve_endogenous_cascade",
    "solve_exogenous_cascade",
    "sample",
    "propagate_terminal",
]


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
        margin: float = 50.0,
    ) -> "GridSpec":
        """Domain sized so the analytic boundary values hold to verification
        tolerances: at least ``margin`` times past every barrier, the
        recovery cap and the evaluation spot, widened further when the
        lognormal drift plus four standard deviations over the full horizon
        reaches past that (the relative spot drifts down at rate
        b + s_V^2/2, so high volatility pushes the far field out a lot)."""
        refs = list(schedule.barriers) + [x_eval]
        if recovery.mode == "endogenous" and math.isfinite(recovery.cap):
            refs.append(recovery.cap)
        horizon = schedule.maturity
        drift = (market.b + 0.5 * market.s_V**2) * horizon
        spread = 4.0 * market.s_V * math.sqrt(horizon)
        log_hi = max(math.log(margin), drift + spread)
        log_lo = max(math.log(margin), spread - drift)
        return cls(
            min(refs) * math.exp(-log_lo),
            max(refs) * math.exp(log_hi),
            n_space,
            n_time_per_interval,
        )


@dataclass
class CascadeSolution:
    """Per-interval grids of the relative price u on (log-spot, time)."""

    dates: tuple[float, ...]
    y: np.ndarray
    times: list[np.ndarray]
    values: list[np.ndarray]
    accuracy_warning: str | None = None


def _march(
    y: np.ndarray,
    terminal: np.ndarray,
    sigma: float,
    mu: float,
    rho: float,
    source: np.ndarray | None,
    bc_lo: Callable[[float], float],
    bc_hi: Callable[[float], float],
    t_lo: float,
    t_hi: float,
    n_steps: int,
) -> np.ndarray:
    """Backward Crank-Nicolson for u_t + (sigma^2/2) u_yy + mu u_y - rho u + f = 0.

    Returns (n_steps + 1, len(y)) with row k the solution at t_lo + k dt; the
    first transition after the (possibly discontinuous) terminal row is taken
    as two implicit-Euler half-steps.  Both schemes solve with I - (dt/2) A,
    so it is LU-factored once and every step is a triangular solve written
    in place into its row of the output.
    """
    h = y[1] - y[0]
    m = len(y) - 1
    alpha = sigma * sigma / (2.0 * h * h)
    lo_c = alpha - mu / (2.0 * h)
    di_c = -2.0 * alpha - rho
    up_c = alpha + mu / (2.0 * h)
    dt = (t_hi - t_lo) / n_steps
    half = 0.5 * dt
    f = np.zeros(m - 1) if source is None else source
    half_f = half * f
    dt_f = dt * f
    lo_w = half * lo_c
    up_w = half * up_c

    *lu, info = dgttrf(
        np.full(m - 2, -lo_w), np.full(m - 1, 1.0 - half * di_c), np.full(m - 2, -up_w)
    )
    if info != 0:
        raise LinAlgError("singular matrix")
    out = np.empty((n_steps + 1, m + 1))
    out[n_steps] = terminal

    def solve(k, t):
        # row k holds the explicit part of the right-hand side; add the
        # implicit (new-time) boundary halves and solve: the interior is a
        # contiguous float64 view, which dgttrs overwrites with the solution
        lo, hi = bc_lo(t), bc_hi(t)
        row = out[k]
        row[1] += lo_w * lo
        row[-2] += up_w * hi
        _, info = dgttrs(*lu, row[1:-1], overwrite_b=True)
        if info != 0:
            raise ValueError(f"illegal value in {-info}-th argument of internal gttrs")
        row[0] = lo
        row[-1] = hi

    # Rannacher start-up: two implicit-Euler half-steps
    k = n_steps - 1
    np.add(terminal[1:-1], half_f, out=out[k, 1:-1])
    solve(k, t_hi - half)
    out[k, 1:-1] += half_f
    solve(k, t_lo + k * dt)
    for k in range(n_steps - 2, -1, -1):
        # A u already carries the old-time boundary values u[0] and u[-1]
        u = out[k + 1]
        out[k, 1:-1] = u[1:-1] + half * (lo_c * u[:-2] + di_c * u[1:-1] + up_c * u[2:]) + dt_f
        solve(k, t_lo + k * dt)
    # a non-finite value anywhere spreads through every later solve
    if not np.isfinite(out[0]).all():
        raise ValueError("array must not contain infs or NaNs")
    return out


def propagate_terminal(
    y: np.ndarray,
    terminal: np.ndarray,
    coeffs: BsCoefficients,
    t_start: float,
    t_end: float,
    n_steps: int,
    bc_lo: Callable[[float], float],
    bc_hi: Callable[[float], float],
) -> np.ndarray:
    """Solve the plain pricing equation backward from arbitrary terminal data
    on a log-spot grid; returns the slice at ``t_start``.  Verification hook
    for nesting identities."""
    mu = coeffs.r - coeffs.q - 0.5 * coeffs.sigma**2
    full = _march(
        y, terminal, coeffs.sigma, mu, coeffs.r, None, bc_lo, bc_hi, t_start, t_end, n_steps
    )
    return full[0]


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
    unreachable = max(schedule.barriers) * 50.0 <= grid.x_min
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
        nxt = np.ones_like(y)
        for i in range(n - 1, -1, -1):
            lam = schedule.intensities[i]
            g = market.b + lam
            t_lo, t_hi = schedule.dates[i], schedule.dates[i + 1]
            # jump hazard from t_{i+1} to maturity, constant over the interval
            tail = sum(
                schedule.intensities[k] * (schedule.dates[k + 1] - schedule.dates[k])
                for k in range(i + 1, n)
            )

            def far(t):
                # no barrier triggers; a jump default pays p(x_max)
                return p_hi + (1.0 - p_hi) * math.exp(-(lam * (t_hi - t) + tail))

            def near(t):
                # u = p(0) + (p(x_min) - p(0)) c x / x_min while p is affine on
                # [0, x_min]: dc/dt = (b + lam) c - lam, c(t_{i+1}) = 1
                if g == 0.0:
                    c = 1.0 + lam * (t_hi - t)
                else:
                    c = 1.0 + (1.0 - lam / g) * math.expm1(-g * (t_hi - t))
                return p_0 + (p_lo - p_0) * c

            above = np.clip((y - math.log(schedule.barriers[i])) / dy + 0.5, 0.0, 1.0)
            terminal = above * nxt + (1.0 - above) * rec
            values[i] = _march(
                y,
                terminal,
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
            times[i] = np.linspace(t_lo, t_hi, spec.n_time_per_interval + 1)
            nxt = values[i][0]
        solutions.append(CascadeSolution(schedule.dates, y, times, values))

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
    """Bilinear interpolation of the stored cascade on (log x, t).

    Announcing dates belong to the interval on their right; ``t`` equal to
    maturity returns the glued terminal data of the last interval.
    """
    y = math.log(x) if x > 0.0 else -math.inf
    if not (solution.y[0] <= y <= solution.y[-1]):
        raise DomainError(f"sample: spot {x} outside the grid hull")
    if not (solution.dates[0] <= t <= solution.dates[-1]):
        raise DomainError(f"sample: time {t} outside the grid hull")
    i = min(bisect_right(solution.dates, t) - 1, len(solution.values) - 1)
    times = solution.times[i]
    grid = solution.values[i]
    k = min(max(bisect_right(times, t) - 1, 0), len(times) - 2)
    w = (t - times[k]) / (times[k + 1] - times[k])
    row = (1.0 - w) * grid[k] + w * grid[k + 1]
    return float(np.interp(y, solution.y, row))
