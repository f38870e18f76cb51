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
live.  Each interval has constant coefficients, so its step matrix
M = I - (dt/2) A is tridiagonal Toeplitz.  While the cell Peclet number is
below 1, a diagonal scaling makes M symmetric, and the orthonormal discrete
sine transform diagonalises it (the fast direct solver of Buzbee, Golub &
Nielson, SIAM J. Numer. Anal. 1970): every step is then one scalar
recurrence per sine mode, and an interval's kept rows come in closed form
from a table of powers, one matrix product and one batched inverse
transform (``_SineStepper``).  Rounding in that basis grows with the range
of the scaling, so it runs while the scaling stays within e^(+-8); every
other interval takes the pivoted LU march, one LAPACK ``dgttrs`` solve per
step (``_Stepper``).  A stepper imports ``scipy.fft`` or
``scipy.linalg`` when it is built, so importing this module loads no scipy.
Only every s-th row is kept, s = isqrt(steps per interval), plus the glued
terminal row; ``sample`` recomputes the rows it needs from the nearest kept
row above them with the interval's own stepper.  This engine shares no code
path with the closed forms it checks.
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

# An interval marches in the sine basis only while its diagonal scaling P stays
# within e^(+-_MAX_LOG_P): the basis's rounding scales like eps e^(2 _MAX_LOG_P)
# toward the grid edge where P is largest and like eps e^_MAX_LOG_P mid-grid
# (a 2048^2 grid at e^(+-7.95) kept its rows within 7e-11 of the LU march).
_MAX_LOG_P = 8.0


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
    s = ``stride``, and last the glued terminal row k = n.  ``sample`` reads
    a kept row as it is and recomputes any other row with ``steppers[i]``
    from the nearest kept row above it.  ``accuracy_warning`` is set when a
    Richardson check exceeds its tolerance.
    """

    dates: tuple[float, ...]
    y: np.ndarray
    times: list[np.ndarray]
    values: list[np.ndarray]
    stride: int
    steppers: list["_Stepper | _SineStepper"]
    accuracy_warning: str | None = None


def _coefficients(y, sigma, mu, rho, t_lo, t_hi, n_steps):
    """dt and the magnitudes (lo, diag, up) of M = I - (dt/2) A for
    u_t + (sigma^2/2) u_yy + mu u_y - rho u + f = 0 on n_steps steps of
    [t_lo, t_hi]: M has sub-diagonal -lo, diagonal diag and super-diagonal -up."""
    h = y[1] - y[0]
    alpha = sigma * sigma / (2.0 * h * h)
    dt = (t_hi - t_lo) / n_steps
    half = 0.5 * dt
    return (
        dt,
        half * (alpha - mu / (2.0 * h)),
        1.0 + half * (2.0 * alpha + rho),
        half * (alpha + mu / (2.0 * h)),
    )


class _Stepper:
    """Backward Crank-Nicolson for u_t + (sigma^2/2) u_yy + mu u_y - rho u + f = 0
    on n_steps steps of [t_lo, t_hi]; row k is the solution at t_lo + k dt.

    The first transition after the (possibly discontinuous) terminal row is
    taken as two implicit-Euler half-steps.  Both schemes solve with
    M = I - (dt/2) A, LU-factored once with partial pivoting (LAPACK
    ``dgttrf``); the explicit half of a Crank-Nicolson step is folded through
    (I - (dt/2) A)^-1 (I + (dt/2) A) = 2 M^-1 - I, so a step is one
    ``dgttrs`` solve of 2u + dt f plus the boundary halves, less u.  It takes
    any grid; the cascade uses it where ``_SineStepper`` does not apply.
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
        self.dt, self.lo, diag, self.up = _coefficients(y, sigma, mu, rho, t_lo, t_hi, n_steps)
        self.half = 0.5 * self.dt
        self.half_f = self.half * source
        self.dt_f = self.dt * source
        self.bc_lo, self.bc_hi = bc_lo, bc_hi
        self.t_lo, self.t_hi, self.n_steps = t_lo, t_hi, n_steps
        # rows a march keeps: every stride-th, then the terminal row
        self.stride = math.isqrt(n_steps)
        from scipy.linalg import lapack

        m = len(y) - 1
        *self.lu, info = lapack.dgttrf(
            np.full(m - 2, -self.lo), np.full(m - 1, diag), np.full(m - 2, -self.up)
        )
        if info != 0:
            raise LinAlgError("singular matrix")
        self.trs = lapack.dgttrs

    def _solve(self, row: np.ndarray, old_lo: float, old_hi: float, t: float) -> None:
        """Overwrite row[1:-1], which holds the right-hand side without its
        boundary halves, with the solution at time t; old_lo and old_hi are
        the old-time boundary values the right side carries."""
        lo, hi = self.bc_lo(t), self.bc_hi(t)
        row[1] += self.lo * (old_lo + lo)
        row[-2] += self.up * (old_hi + hi)
        _, info = self.trs(*self.lu, row[1:-1], overwrite_b=True)
        if info != 0:
            raise ValueError(f"illegal value in {-info}-th argument of the tridiagonal solve")
        row[0] = lo
        row[-1] = hi

    def step(self, k: int, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write row k into ``out`` from row k + 1 in ``u`` (a different array)."""
        inner = out[1:-1]
        if k == self.n_steps - 1:
            # Rannacher start-up: two implicit-Euler half-steps
            np.add(u[1:-1], self.half_f, out=inner)
            self._solve(out, 0.0, 0.0, self.t_hi - self.half)
            inner += self.half_f
            self._solve(out, 0.0, 0.0, self.t_lo + k * self.dt)
        else:
            # M^-1 (2u + dt f + the old- and new-time boundary halves) - u
            np.multiply(u[1:-1], 2.0, out=inner)
            inner += self.dt_f
            self._solve(out, float(u[0]), float(u[-1]), self.t_lo + k * self.dt)
            inner -= u[1:-1]
        return out

    def march(self, terminal: np.ndarray) -> np.ndarray:
        """Run down from ``terminal`` over two rolling row buffers.

        Returns the kept rows: k = 0, s, 2s, ... below n_steps, then the
        terminal row, with s = ``stride``.
        """
        n, s = self.n_steps, self.stride
        kept = np.empty((-(-n // s) + 1, len(terminal)))
        kept[-1] = terminal
        spare = np.empty((2, len(terminal)))
        u = kept[-1]
        for k in range(n - 1, -1, -1):
            u = self.step(k, u, kept[k // s] if k % s == 0 else spare[k & 1])
        # a non-finite value anywhere spreads through every later solve
        if not np.isfinite(kept[0]).all():
            raise ValueError("array must not contain infs or NaNs")
        return kept

    def rows(self, row: np.ndarray, top: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows k and k + 1 re-marched from ``row``, row ``top`` > k, bit for
        bit as ``march`` computes them."""
        spare = np.empty((2, len(row)))
        upper = row
        for j in range(top - 1, k, -1):
            upper = self.step(j, upper, spare[j & 1])
        return self.step(k, upper, spare[k & 1]), upper


def _sine(x: np.ndarray) -> np.ndarray:
    """The orthonormal DST-I Q along the last axis; Q is symmetric and
    orthogonal, so it is its own inverse."""
    from scipy.fft import dst

    return dst(x, type=1, norm="ortho")


class _SineStepper:
    """The scheme of ``_Stepper`` in closed form, for an interval where both
    off-diagonals of M = I - (dt/2) A are negative (cell Peclet number
    |mu| h / sigma^2 < 1); ``_stepper`` picks it.

    Then M = P S P^-1 with P = diag(r^(j - (m-2)/2)), r = sqrt(lo / up), and
    S symmetric Toeplitz with diagonal d and off-diagonal -sqrt(lo up), so
    S = Q Lambda Q with Q the orthonormal DST-I and
    Lambda_k = d - 2 sqrt(lo up) cos(k pi / m), k = 1..m-1, at least 1 for
    rho >= 0.  In the modes w = Q P^-1 (u - p(0)), with the constant
    ``shift`` = p(0) taken out so that a recovery constant on the grid adds
    no rounding, a Crank-Nicolson step is

        w <- g w + (F + beta a + gamma c) / Lambda,   g = 2 / Lambda - 1,

    where F = Q P^-1 dt (f - rho p(0)) is the transformed source, beta and
    gamma are the sums of the old and new edge values less p(0), and a, c
    are Q times the end unit vectors weighted lo / p_0 and up / p_end.  The
    Rannacher start-up is two divisions by Lambda.  Kept rows s apart follow
    from one another by g^s and a sum over their block of steps, taken for
    all blocks as one matrix product with the table g^0..g^(s-1).
    """

    def __init__(
        self,
        y: np.ndarray,
        sigma: float,
        mu: float,
        rho: float,
        source: np.ndarray,
        bc_lo: Callable,
        bc_hi: Callable,
        t_lo: float,
        t_hi: float,
        n_steps: int,
        shift: float,
    ):
        self.dt, lo, diag, up = _coefficients(y, sigma, mu, rho, t_lo, t_hi, n_steps)
        self.half = 0.5 * self.dt
        self.bc_lo, self.bc_hi, self.shift = bc_lo, bc_hi, shift
        self.t_lo, self.t_hi, self.n_steps = t_lo, t_hi, n_steps
        self.stride = math.isqrt(n_steps)
        m = len(y) - 1
        # powers of one rounded r keep every ratio p[j + 1] / p[j] within a
        # few ulps of r, which the similarity needs
        r = math.sqrt(lo / up)
        j = np.arange(m - 1) - 0.5 * (m - 2)
        self.p = np.power(r, j)
        self.q = np.power(r, -j)
        # d - 2 sqrt(lo up) cos(theta) as (d - 2 sqrt(lo up)) + 4 sqrt(lo up)
        # sin(theta / 2)^2: the difference is exact while its terms are within
        # a factor 2 and at least d / 2 otherwise, and the rest adds positive
        # terms, so each Lambda_k is off by a few ulps of itself, not of d;
        # an error of d's ulps in the slow modes grows over the steps and
        # spreads across the grid
        off = 2.0 * math.sqrt(lo * up)
        lam = (diag - off) + 2.0 * off * np.sin(np.arange(1, m) * (0.5 * math.pi / m)) ** 2
        self.inv = 1.0 / lam
        self.g = 2.0 * self.inv - 1.0
        forcing = np.zeros((3, m - 1))
        forcing[0] = self.dt * (source - rho * shift) * self.q
        forcing[1, 0] = lo * self.q[0]
        forcing[2, -1] = up * self.q[-1]
        # F / Lambda, a / Lambda and c / Lambda
        self.f, self.a, self.c = _sine(forcing) * self.inv

    def _boundary(self, k0: int, k1: int) -> tuple[np.ndarray, np.ndarray]:
        """Boundary values of rows k0..k1-1."""
        t = self.t_lo + np.arange(k0, k1) * self.dt
        return self.bc_lo(t), self.bc_hi(t)

    def _start(self, w: np.ndarray, lo: float, hi: float) -> np.ndarray:
        """Modes of row n - 1 from those of the terminal row: two implicit-Euler
        half-steps, the first to the midpoint's edges; lo and hi are row
        n - 1's edge values less p(0)."""
        mid = self.t_hi - self.half
        w = w * self.inv + 0.5 * self.f
        w += (self.bc_lo(mid) - self.shift) * self.a + (self.bc_hi(mid) - self.shift) * self.c
        w *= self.inv
        w += 0.5 * self.f + lo * self.a + hi * self.c
        return w

    def _modes(self, row: np.ndarray) -> np.ndarray:
        """w = Q P^-1 (u - p(0)) of a row's interior."""
        return _sine(self.q * (row[1:-1] - self.shift))

    def _fill(self, out: np.ndarray, modes: np.ndarray) -> None:
        """Write the interiors of the rows with ``modes`` into ``out``."""
        inner = out[..., 1:-1]
        inner[...] = _sine(modes)
        inner *= self.p
        inner += self.shift

    def march(self, terminal: np.ndarray) -> np.ndarray:
        """The kept rows k = 0, s, 2s, ... below n_steps, then the terminal
        row, as ``_Stepper.march`` returns them."""
        n, s = self.n_steps, self.stride
        blocks = -(-n // s)
        lo, hi = self._boundary(0, n)
        a, c = lo - self.shift, hi - self.shift
        w = self._start(self._modes(terminal), a[-1], c[-1])
        # each step's weights of F, a and c, padded to whole blocks of s
        weights = np.zeros((3, blocks * s))
        weights[0, : n - 1] = 1.0
        np.add(a[1:], a[:-1], out=weights[1, : n - 1])
        np.add(c[1:], c[:-1], out=weights[2, : n - 1])
        powers = np.empty((s + 1, len(w)))
        powers[0] = 1.0
        for i in range(1, s + 1):
            np.multiply(powers[i - 1], self.g, out=powers[i])
        # block b's sum over its steps k = bs + i of g^i times their forcing
        weights = weights.reshape(3, blocks, s)
        modes = weights[0] @ powers[:s]
        modes *= self.f
        part = np.empty_like(modes)
        for weight, vector in zip(weights[1:], (self.a, self.c)):
            np.matmul(weight, powers[:s], out=part)
            part *= vector
            modes += part
        # the top block runs from row n - 1 down to row (blocks - 1) s
        modes[-1] += powers[n - 1 - (blocks - 1) * s] * w
        for b in range(blocks - 2, -1, -1):
            modes[b] += powers[s] * modes[b + 1]
        del part, powers  # before the transform allocates its own
        kept = np.empty((blocks + 1, len(terminal)))
        self._fill(kept[:-1], modes)
        kept[:-1, 0], kept[:-1, -1] = lo[::s], hi[::s]
        kept[-1] = terminal
        # a non-finite value anywhere spreads through every mode
        if not np.isfinite(kept[0]).all():
            raise ValueError("array must not contain infs or NaNs")
        return kept

    def rows(self, row: np.ndarray, top: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows k and k + 1 from ``row``, row ``top`` > k: its modes advanced
        top - k steps by the recurrence, and one inverse transform.  Row
        ``top`` itself is returned as it is."""
        n = self.n_steps
        lo, hi = self._boundary(k, min(top + 1, n))
        a, c = lo - self.shift, hi - self.shift
        # row top's own modes stand in for row k + 1 when top is k + 1; that
        # row is then returned as it is
        modes = np.empty((2, len(row) - 2))
        modes[1] = w = self._modes(row)
        for j in range(top - 1, k - 1, -1):
            if j == n - 1:
                w = self._start(w, a[j - k], c[j - k])
            else:
                beta, gamma = a[j + 1 - k] + a[j - k], c[j + 1 - k] + c[j - k]
                w = self.g * w + self.f + beta * self.a + gamma * self.c
            if j <= k + 1:
                modes[j - k] = w
        out = np.empty((2, len(row)))
        self._fill(out, modes)
        out[0, 0], out[0, -1] = lo[0], hi[0]
        if top == k + 1:
            out[1] = row
        else:
            out[1, 0], out[1, -1] = lo[1], hi[1]
        return out[0], out[1]


def _stepper(y, sigma, mu, rho, source, bc_lo, bc_hi, t_lo, t_hi, n_steps, shift):
    """The interval's stepper: ``_SineStepper`` while both off-diagonals of M
    are negative and P stays within e^(+-_MAX_LOG_P), else ``_Stepper``."""
    _, lo, _, up = _coefficients(y, sigma, mu, rho, t_lo, t_hi, n_steps)
    if lo > 0.0 and up > 0.0 and 0.25 * (len(y) - 3) * abs(math.log(lo / up)) <= _MAX_LOG_P:
        return _SineStepper(y, sigma, mu, rho, source, bc_lo, bc_hi, t_lo, t_hi, n_steps, shift)
    return _Stepper(y, sigma, mu, rho, source, bc_lo, bc_hi, t_lo, t_hi, n_steps)


def _edges(
    b: float, lam: float, t_hi: float, tail: float, p_0: float, p_lo: float, p_hi: float
) -> tuple[Callable, Callable]:
    """Small- and large-spot boundary values of one interval as functions of t,
    a float or an array of times; ``tail`` is the jump hazard from t_hi to
    maturity.  The interval's stepper keeps them for ``sample``, so each
    binds its own values."""
    g = b + lam

    def near(t):
        # u = p(0) + (p(x_min) - p(0)) c x / x_min while p is affine on
        # [0, x_min]: dc/dt = (b + lam) c - lam, c(t_{i+1}) = 1
        if g == 0.0:
            c = 1.0 + lam * (t_hi - t)
        else:
            c = 1.0 + (1.0 - lam / g) * np.expm1(-g * (t_hi - t))
        return p_0 + (p_lo - p_0) * c

    def far(t):
        # no barrier triggers; a jump default pays p(x_max)
        return p_hi + (1.0 - p_hi) * np.exp(-(lam * (t_hi - t) + tail))

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
        steppers: list = [None] * n
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
            steppers[i] = _stepper(
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
                p_0,
            )
            values[i] = steppers[i].march(terminal)
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
    maturity returns the glued terminal data of the last interval.  A kept
    bracketing row is read as it is; any other is recomputed by the
    interval's stepper from the nearest kept row above it: re-marched bit
    for bit on an LU interval, advanced in closed form per sine mode on the
    others.
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
    top = min(r * s, len(solution.times[i]) - 1)
    if top == k + 1 and k % s == 0:
        return kept[k // s], kept[r]
    lower, upper = solution.steppers[i].rows(kept[r], top, k)
    return (kept[k // s] if k % s == 0 else lower), upper
