"""Finite-difference verification engine for the bond-price cascade.

Solves the relative-price equation backward interval by interval on a uniform
log-spot grid: Crank-Nicolson in time with an implicit-Euler (Rannacher)
start-up after every discontinuous terminal or gluing condition.  Boundary
values come from the analytic small- and large-spot limits of the solution.
This engine shares no code path with the closed forms it checks.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import solve_banded

from .binaries import BsCoefficients
from .errors import DomainError
from .pricing import DefaultSchedule, MarketParams, RecoveryModel

__all__ = [
    "GridSpec",
    "CascadeSolution",
    "solve_endogenous_cascade",
    "solve_exogenous_cascade",
    "solve_survival_cascade",
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
        recovery: RecoveryModel | None = None,
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
        if recovery is not None and recovery.mode == "endogenous" and recovery.R > 0.0:
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
    as two implicit-Euler half-steps.
    """
    h = y[1] - y[0]
    m = len(y) - 1
    alpha = sigma * sigma / (2.0 * h * h)
    lo_c = alpha - mu / (2.0 * h)
    di_c = -2.0 * alpha - rho
    up_c = alpha + mu / (2.0 * h)
    dt = (t_hi - t_lo) / n_steps
    f = np.zeros(m - 1) if source is None else source

    ab = np.zeros((3, m - 1))
    ab[0, 1:] = -0.5 * dt * up_c
    ab[1, :] = 1.0 - 0.5 * dt * di_c
    ab[2, :-1] = -0.5 * dt * lo_c

    def apply_a(u):
        return lo_c * u[:-2] + di_c * u[1:-1] + up_c * u[2:]

    out = np.empty((n_steps + 1, m + 1))
    out[n_steps] = terminal
    u = terminal.copy()
    t = t_hi
    for k in range(n_steps - 1, -1, -1):
        t_new = t_lo + k * dt
        if k == n_steps - 1:
            # Rannacher start-up: two implicit-Euler half-steps
            for t_half in (t - 0.5 * dt, t_new):
                rhs = u[1:-1] + 0.5 * dt * f
                rhs[0] += 0.5 * dt * lo_c * bc_lo(t_half)
                rhs[-1] += 0.5 * dt * up_c * bc_hi(t_half)
                interior = solve_banded((1, 1), ab, rhs)
                u = np.concatenate(([bc_lo(t_half)], interior, [bc_hi(t_half)]))
        else:
            # apply_a(u) already carries the old-time boundary values held in
            # u[0] and u[-1]; only the implicit (new-time) halves are added.
            rhs = u[1:-1] + 0.5 * dt * apply_a(u) + dt * f
            rhs[0] += 0.5 * dt * lo_c * bc_lo(t_new)
            rhs[-1] += 0.5 * dt * up_c * bc_hi(t_new)
            interior = solve_banded((1, 1), ab, rhs)
            u = np.concatenate(([bc_lo(t_new)], interior, [bc_hi(t_new)]))
        out[k] = u
        t = t_new
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


def _log_survival(schedule: DefaultSchedule, i: int, t: float) -> float:
    total = schedule.intensities[i] * (schedule.dates[i + 1] - t)
    for k in range(i + 1, schedule.n_intervals):
        total += schedule.intensities[k] * (schedule.dates[k + 1] - schedule.dates[k])
    return -total


def _barriers_below_grid(schedule: DefaultSchedule, grid: GridSpec) -> bool:
    """Degenerate configuration where every barrier sits far under the grid,
    so no path on the grid can plausibly trigger an expected default (used by
    vanishing-barrier limit checks)."""
    return max(schedule.barriers) * 50.0 <= grid.x_min


def _check_domain(schedule: DefaultSchedule, grid: GridSpec, cap: float | None) -> None:
    if cap is not None and math.isfinite(cap) and grid.x_max <= 2.0 * cap:
        raise DomainError(
            f"GridSpec x_max {grid.x_max} does not clear the recovery cap {cap} with margin"
        )
    if _barriers_below_grid(schedule, grid):
        return
    if grid.x_min >= min(schedule.barriers) or grid.x_max <= max(schedule.barriers):
        raise DomainError(
            f"GridSpec [{grid.x_min}, {grid.x_max}] does not span the barriers with margin"
        )


def _solve_cascade(
    market: MarketParams,
    schedule: DefaultSchedule,
    grid: GridSpec,
    recovery_profile: Callable[[np.ndarray], np.ndarray],
    source_scale_with_lambda: bool,
    bc_lo_factory,
    bc_hi_factory,
) -> CascadeSolution:
    """Shared backward induction: glue at each announcing date, march each
    interval.  ``recovery_profile`` maps grid spots to the relative recovery
    paid there (also the inhomogeneous source when scaled by the intensity).

    The gluing indicator is projected onto the grid by its cell average, so
    the discontinuity sits at the exact barrier with second-order accuracy
    no matter how the nodes align."""
    y = np.linspace(math.log(grid.x_min), math.log(grid.x_max), grid.n_space + 1)
    x = np.exp(y)
    dy = y[1] - y[0]
    rec = recovery_profile(x)
    sigma = market.s_V
    mu = -(market.b + 0.5 * sigma * sigma)
    n = schedule.n_intervals

    times: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    values: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    nxt = np.ones_like(x)
    for i in range(n - 1, -1, -1):
        above = np.clip((y - math.log(schedule.barriers[i])) / dy + 0.5, 0.0, 1.0)
        terminal = above * nxt + (1.0 - above) * rec
        lam = schedule.intensities[i]
        source = lam * rec[1:-1] if source_scale_with_lambda else None
        t_lo, t_hi = schedule.dates[i], schedule.dates[i + 1]
        full = _march(
            y,
            terminal,
            sigma,
            mu,
            lam,
            source,
            bc_lo_factory(i),
            bc_hi_factory(i),
            t_lo,
            t_hi,
            grid.n_time_per_interval,
        )
        times[i] = np.linspace(t_lo, t_hi, grid.n_time_per_interval + 1)
        values[i] = full
        nxt = full[0]
    return CascadeSolution(schedule.dates, y, times, values)


def _with_richardson(solve, grid: GridSpec, check_tolerance: float | None) -> CascadeSolution:
    fine = solve(grid)
    if check_tolerance is None:
        return fine
    coarse_grid = GridSpec(
        grid.x_min,
        grid.x_max,
        max(grid.n_space // 2, 64),
        max(grid.n_time_per_interval // 2, 16),
    )
    coarse = solve(coarse_grid)
    probe = slice(len(fine.y) // 4, 3 * len(fine.y) // 4)
    coarse_on_fine = np.interp(fine.y[probe], coarse.y, coarse.values[0][0])
    est = float(np.max(np.abs(fine.values[0][0][probe] - coarse_on_fine))) / 3.0
    if est > check_tolerance:
        fine.accuracy_warning = (
            f"Richardson error estimate {est:.3e} exceeds requested tolerance {check_tolerance:.3e}"
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
    cap = recovery.cap
    _check_domain(schedule, grid, cap if recovery.R > 0.0 else None)
    unreachable = _barriers_below_grid(schedule, grid)

    if recovery.R == 0.0:
        def profile(x):
            return np.zeros_like(x)

        def bc_hi(i):
            return lambda t: math.exp(_log_survival(schedule, i, t))

        def bc_lo(i):
            return bc_hi(i) if unreachable else (lambda t: 0.0)

    else:
        if unreachable and grid.x_min < cap and any(v > 0.0 for v in schedule.intensities):
            raise DomainError(
                "solve_endogenous_cascade: barriers below the grid combined with a live "
                "jump channel have no analytic boundary value; widen the grid"
            )

        def profile(x):
            return np.minimum(1.0, x / cap)

        def bc_hi(i):
            return lambda t: 1.0

        def bc_lo(i):
            if unreachable:
                # no default can pay less than full recovery on this grid
                return lambda t: 1.0
            # small-spot asymptote u ~ c(t) x: dc/dt = (b + lam) c - lam / cap,
            # c(t_{i+1}) = 1/cap
            lam = schedule.intensities[i]
            g = market.b + lam
            t_next = schedule.dates[i + 1]
            x_min = grid.x_min

            def value(t: float) -> float:
                delta = t_next - t
                if g <= 0.0:
                    c = (1.0 + lam * delta) / cap
                else:
                    decay = math.exp(-g * delta)
                    c = decay / cap + lam / (g * cap) * (1.0 - decay)
                return c * x_min

            return value

    def run(g):
        return _solve_cascade(market, schedule, g, profile, True, bc_lo, bc_hi)

    return _with_richardson(run, grid, check_tolerance)


def solve_survival_cascade(
    market: MarketParams,
    schedule: DefaultSchedule,
    grid: GridSpec,
    check_tolerance: float | None = None,
) -> CascadeSolution:
    """Homogeneous cascade for the survival probability W (zero recovery at
    every gluing, no source)."""
    _check_domain(schedule, grid, None)
    unreachable = _barriers_below_grid(schedule, grid)

    def profile(x):
        return np.zeros_like(x)

    def bc_hi(i):
        return lambda t: math.exp(_log_survival(schedule, i, t))

    def bc_lo(i):
        return bc_hi(i) if unreachable else (lambda t: 0.0)

    def run(g):
        return _solve_cascade(market, schedule, g, profile, False, bc_lo, bc_hi)

    return _with_richardson(run, grid, check_tolerance)


def solve_exogenous_cascade(
    market: MarketParams,
    schedule: DefaultSchedule,
    recovery: RecoveryModel,
    grid: GridSpec,
    w_form: bool = False,
    check_tolerance: float | None = None,
) -> CascadeSolution:
    """Backward cascade with fixed fractional recovery R.

    With ``w_form=True`` the homogeneous survival equation is solved instead
    and the price is reconstructed as R + (1 - R) W.
    """
    if recovery.mode != "exogenous":
        raise DomainError("solve_exogenous_cascade: recovery model must be exogenous")
    R = recovery.R
    if w_form:
        sol = solve_survival_cascade(market, schedule, grid, check_tolerance)
        sol.values = [R + (1.0 - R) * v for v in sol.values]
        return sol

    _check_domain(schedule, grid, None)
    unreachable = _barriers_below_grid(schedule, grid)

    def profile(x):
        return np.full_like(x, R)

    def bc_hi(i):
        return lambda t: R + (1.0 - R) * math.exp(_log_survival(schedule, i, t))

    def bc_lo(i):
        return bc_hi(i) if unreachable else (lambda t: R)

    def run(g):
        return _solve_cascade(market, schedule, g, profile, True, bc_lo, bc_hi)

    return _with_richardson(run, grid, check_tolerance)


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
