"""Finite-difference verification engine for the bond-price cascade.

Solves the relative-price equation backward interval by interval on a uniform
log-spot grid.  Every recovery model runs through one cascade whose data all
come from the recovery a default pays, p = ``RecoveryModel.paid``: the
gluing values, the source lam * p, the large-spot boundary
p(x_max) + (1 - p(x_max)) S_i(t) with S_i the jump survival to maturity, and
the small-spot boundary p(0) + (p(x_min) - p(0)) c_i(t), exact while p is
affine on [0, x_min] (``_edges``).  When every barrier sits far under the
grid both edges take the far-field value, which needs the same recovery at
both edges once a jump channel is live.  Each interval has constant
coefficients, so its spatial operator A is tridiagonal Toeplitz.  While the
cell Peclet number is below 1, a diagonal scaling makes A symmetric and the
orthonormal discrete sine transform diagonalises it: in its modes the
semi-discrete equation has a closed-form solution at any time, so an
interval takes one transform of its terminal row and one inverse transform
for any row (``_SineStepper``).  Rounding in that basis grows with the range
of the scaling, so it runs while the scaling stays within e^(+-8); every
other interval is solved exactly in time too, by a contour integral of its
Laplace transform, 16 complex tridiagonal solves per row, over pieces short
enough for the contour (``_ContourStepper``).  A stepper imports
``scipy.fft``, ``scipy.special`` or ``scipy.linalg`` when it first runs, so
importing this module loads no scipy.  This engine shares no code path with
the closed forms it checks.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

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

# An interval is solved in the sine basis only while its diagonal scaling P
# stays within e^(+-_MAX_LOG_P): the basis's rounding scales like
# eps e^(2 _MAX_LOG_P) toward the grid edge where P is largest and like
# eps e^_MAX_LOG_P mid-grid (on 2048 nodes at e^(+-7.95) the row at t_i stayed
# within 1.1e-12 of the contour).
_MAX_LOG_P = 8.0


@dataclass(frozen=True)
class GridSpec:
    """Spatial resolution for the cascade solver, which is exact in time.
    ``n_time_per_interval`` is checked but unread; it stays accepted until
    the benchmark stops passing it (ROADMAP item 1)."""

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
        b + s_V^2/2, so high volatility pushes the far field out a lot).
        The small-spot edge value needs default at the next barrier test
        under every measure that pays the recovery: one growing with x is paid
        under the asset measure, where ln x drifts up at s_V^2/2 - b, so x_min
        also sits that drift plus four deviations of the longest interval
        under the lowest barrier."""
        refs = list(schedule.barriers) + [x_eval]
        if math.isfinite(recovery.cap):
            refs.append(recovery.cap)
        horizon = schedule.maturity
        drift = (market.b + 0.5 * market.s_V**2) * horizon
        spread = 4.0 * market.s_V * math.sqrt(horizon)
        log_hi = max(math.log(_MARGIN), drift + spread)
        log_lo = max(math.log(_MARGIN), spread - drift)
        h = max(hi - lo for lo, hi in zip(schedule.dates, schedule.dates[1:]))
        rise = max(0.0, 0.5 * market.s_V**2 - market.b) * h
        edge = max(math.log(_MARGIN), rise + 4.0 * market.s_V * math.sqrt(h))
        return cls(
            min(min(refs) * math.exp(-log_lo), min(schedule.barriers) * math.exp(-edge)),
            max(refs) * math.exp(log_hi),
            n_space,
            n_time_per_interval,
        )


@dataclass(frozen=True)
class CascadeSolution:
    """Per-interval grids of the relative price u on (log-spot, time), solved
    on the one grid the cascade was given, exact in time.

    ``times[i]`` holds the ends of interval i's pieces: [t_i, t_{i+1}] in
    the sine basis, equal pieces under the contour.  ``values[i]`` holds the
    rows there, the last the glued terminal row.  ``sample`` takes the row
    at any t from ``steppers[i]``.
    """

    dates: tuple[float, ...]
    y: np.ndarray
    times: list[np.ndarray]
    values: list[np.ndarray]
    steppers: list[_ContourStepper | _SineStepper]


def _operator(y, sigma, mu):
    """alpha = sigma^2 / (2 h^2) and the off-diagonals (lo, up) of the spatial
    operator A of u_t + (sigma^2/2) u_yy + mu u_y - rho u + f = 0 on the grid
    y: A has sub-diagonal lo, diagonal -2 alpha - rho and super-diagonal up."""
    h = y[1] - y[0]
    alpha = sigma * sigma / (2.0 * h * h)
    return alpha, alpha - mu / (2.0 * h), alpha + mu / (2.0 * h)


class _ContourStepper:
    """The semi-discrete equation of an interval solved exactly in time on
    any grid, by the contour integral of in 't Hout & Weideman (SIAM J. Sci.
    Comput. 2011) on the parabolic contours of Weideman & Trefethen (Math.
    Comp. 2007); ``_stepper`` picks it where ``_SineStepper`` does not apply.

    In tau = t_top - t below a piece top t_top the interior row v has the
    Laplace transform

        V(z) = (zI - A)^-1 [v(0) + f/z + lo e_1 G_lo(z) + up e_n G_hi(z)],

    with G the edges' transforms (``_Edge.transform``), so
    v(tau) = sum_k w_k Im[e^(z tau) z'(u_k) V(z_k)] on z = (M/tau)(1 + iu)^2,
    M = 6, by the trapezoid rule at u_k = 0.16 k, k = 0..15, w_k = 0.16 / pi
    halved at k = 0, conjugate nodes implied: one complex tridiagonal solve
    (LAPACK ``zgtsv``) per node.  Rounding grows like e^M eps; the last
    node's e^(z tau) is e^-28.6.  The numerical range of tau A lies inside
    the parabola Re z <= -(Im z)^2 / (4p), p = mu^2 tau / (2 sigma^2), which
    the contour encloses while p <= 2.  An edge with a negative rate puts a
    pole at z = -rate > 0, which costs the trapezoid rule about
    e^(-2 pi (1 - sqrt(-rate tau / M)) / 0.16): 1e-12 at -rate tau = 0.5.
    So the interval is split into equal pieces that keep p <= 2 and
    -rate tau <= 0.5; ``times`` holds their ends, ``march`` the row at each.
    """

    def __init__(self, y, sigma, mu, rho, source, bc_lo, bc_hi, t_lo, t_hi):
        alpha, self.lo, self.up = _operator(y, sigma, mu)
        self.bc_lo, self.bc_hi, self.f = bc_lo, bc_hi, source
        m = len(y) - 1
        # zI - A has sub-diagonal -lo, diagonal z + diag and super-diagonal -up
        self.sub, self.sup = np.full(m - 2, -self.lo), np.full(m - 2, -self.up)
        self.diag = np.full(m - 1, 2.0 * alpha + rho)
        span = t_hi - t_lo
        peclet = mu * mu * span / (2.0 * sigma * sigma)
        growth = max(0.0, -bc_lo.rate, -bc_hi.rate) * span
        pieces = max(1, math.ceil(peclet / 2.0), math.ceil(2.0 * growth))
        self.times = np.linspace(t_lo, t_hi, pieces + 1)

    def _contour(self, top: np.ndarray, t_top: float, t: float) -> np.ndarray:
        """The row at t < t_top from the row ``top`` at t_top."""
        from scipy.linalg.lapack import zgtsv

        tau = t_top - t
        s = 1.0 + 0.16j * np.arange(16)
        z = (6.0 / tau) * s * s
        # w_k e^(z tau) z'(u_k), with z'(u) = (2 M / tau) i (1 + iu)
        scale = np.exp(z * tau) * (12.0 / tau * 0.16 / math.pi) * 1j * s
        scale[0] *= 0.5
        edge_lo = self.lo * self.bc_lo.transform(z, t_top)
        edge_hi = self.up * self.bc_hi.transform(z, t_top)
        out = np.zeros_like(top)
        for k in range(len(z)):
            rhs = top[1:-1] + self.f / z[k]
            rhs[0] += edge_lo[k]
            rhs[-1] += edge_hi[k]
            *_, v, info = zgtsv(self.sub, self.diag + z[k], self.sup, rhs, overwrite_b=True)
            if info != 0:
                raise LinAlgError("singular matrix")
            out[1:-1] += (scale[k] * v).imag
        out[0], out[-1] = self.bc_lo(t), self.bc_hi(t)
        return out

    def march(self, terminal: np.ndarray) -> np.ndarray:
        """The rows at the piece ends, the last ``terminal`` itself."""
        kept = np.empty((len(self.times), len(terminal)))
        kept[-1] = terminal
        for j in range(len(self.times) - 2, -1, -1):
            kept[j] = self._contour(kept[j + 1], self.times[j + 1], self.times[j])
        # a non-finite value anywhere spreads through every solve
        if not np.isfinite(kept[0]).all():
            raise ValueError("array must not contain infs or NaNs")
        return kept

    def row(self, kept: np.ndarray, t: float) -> np.ndarray:
        """The row at time t: a kept row, or one contour from the piece end
        above t."""
        j = bisect_left(self.times, t)
        if self.times[j] == t:
            return kept[j]
        return self._contour(kept[j], self.times[j], t)


def _sine(x: np.ndarray) -> np.ndarray:
    """The orthonormal DST-I Q along the last axis; Q is symmetric and
    orthogonal, so it is its own inverse."""
    from scipy.fft import dst

    return dst(x, type=1, norm="ortho")


def _phi(x, tau):
    """E_x(tau) = (1 - e^(-x tau)) / x elementwise, and tau where x = 0: the
    weight after tau of a unit source under decay at rate x."""
    from scipy.special import exprel

    return tau * exprel(-x * tau)


class _SineStepper:
    """The semi-discrete equation of an interval solved exactly in time, where
    both off-diagonals of the spatial operator A are positive (cell Peclet
    number |mu| h / sigma^2 < 1); ``_stepper`` picks it.

    With A's sub- and super-diagonals lo and up, A = -P Q K Q P^-1 with
    P = diag(r^(j - (m-2)/2)), r = sqrt(lo / up), Q the orthonormal DST-I and
    K = diag(kappa), kappa_k = 2 alpha + rho - 2 sqrt(lo up) cos(k pi / m) > 0.
    In the modes w = Q P^-1 (u - p(0)), with the constant ``shift`` = p(0)
    taken out so that a recovery constant on the grid adds no rounding, the
    equation in tau = t_hi - t is dw/dtau = -kappa w + F + a lo + c hi, where
    F = Q P^-1 (f - rho p(0)), a and c are Q times the end unit vectors
    weighted lo / p_0 and up / p_end, and lo, hi are the edge values less
    p(0).  So

        w(tau) = e^(-kappa tau) w(0) + E_kappa(tau) F + a I_lo + c I_hi,

    with I the edges' integrals against the modes' decay (``_Edge.integral``):
    one transform of the terminal row and one inverse give the row at any t.
    The basis is the fast direct solver of Buzbee, Golub & Nielson (SIAM J.
    Numer. Anal. 1970) and the integrals are the phi-functions of exponential
    integrators (Hochbruck & Ostermann, Acta Numerica 2010).
    """

    def __init__(
        self,
        y: np.ndarray,
        sigma: float,
        mu: float,
        rho: float,
        source: np.ndarray,
        bc_lo: _Edge,
        bc_hi: _Edge,
        t_lo: float,
        t_hi: float,
        shift: float,
    ):
        alpha, lo, up = _operator(y, sigma, mu)
        self.bc_lo, self.bc_hi, self.shift = bc_lo, bc_hi, shift
        self.t_hi = t_hi
        self.times = np.array([t_lo, t_hi])
        m = len(y) - 1
        # powers of one rounded r keep every ratio p[j + 1] / p[j] within a
        # few ulps of r, which the similarity needs
        r = math.sqrt(lo / up)
        j = np.arange(m - 1) - 0.5 * (m - 2)
        self.p = np.power(r, j)
        self.q = np.power(r, -j)
        # 2 alpha - 2 sqrt(lo up) = (mu / h)^2 / (2 alpha + 2 sqrt(lo up)):
        # with every term positive each kappa_k is off by a few ulps of
        # itself; the difference would leave an error of alpha's ulps in the
        # slow modes, which decay over the whole interval
        off = 2.0 * math.sqrt(lo * up)
        theta = np.arange(1, m) * (0.5 * math.pi / m)
        floor = rho + (mu / (y[1] - y[0])) ** 2 / (2.0 * alpha + off)
        self.kappa = floor + 2.0 * off * np.sin(theta) ** 2
        forcing = np.zeros((3, m - 1))
        forcing[0] = (source - rho * shift) * self.q
        forcing[1, 0] = lo * self.q[0]
        forcing[2, -1] = up * self.q[-1]
        self.f, self.a, self.c = _sine(forcing)

    def row(self, kept: np.ndarray, t: float) -> np.ndarray:
        """The row at time t from the terminal row's modes, which ``march``
        keeps."""
        tau, kappa = self.t_hi - t, self.kappa
        e_kappa = _phi(kappa, tau)
        w = self.modes * np.exp(-kappa * tau)
        w += e_kappa * self.f
        w += self.bc_lo.integral(kappa, e_kappa, tau, self.shift) * self.a
        w += self.bc_hi.integral(kappa, e_kappa, tau, self.shift) * self.c
        out = np.empty_like(kept[-1])
        out[1:-1] = _sine(w) * self.p + self.shift
        out[0], out[-1] = self.bc_lo(t), self.bc_hi(t)
        return out

    def march(self, terminal: np.ndarray) -> np.ndarray:
        """The rows at t_lo and t_hi, the latter ``terminal`` itself."""
        self.modes = _sine(self.q * (terminal[1:-1] - self.shift))
        kept = np.array([terminal, terminal])
        kept[0] = self.row(kept, self.times[0])
        # a non-finite value anywhere spreads through every mode
        if not np.isfinite(kept[0]).all():
            raise ValueError("array must not contain infs or NaNs")
        return kept


def _stepper(y, sigma, mu, rho, source, bc_lo, bc_hi, t_lo, t_hi, shift):
    """The interval's stepper: ``_SineStepper`` while both off-diagonals of A
    are positive and P stays within e^(+-_MAX_LOG_P), else
    ``_ContourStepper``, which costs 16 tridiagonal solves per row."""
    _, lo, up = _operator(y, sigma, mu)
    if lo > 0.0 and up > 0.0 and 0.25 * (len(y) - 3) * abs(math.log(lo / up)) <= _MAX_LOG_P:
        return _SineStepper(y, sigma, mu, rho, source, bc_lo, bc_hi, t_lo, t_hi, shift)
    return _ContourStepper(y, sigma, mu, rho, source, bc_lo, bc_hi, t_lo, t_hi)


@dataclass(frozen=True)
class _Edge:
    """A boundary value u(t) = base + jump e^(-rate tau) + drift E_rate(tau)
    at tau = t_hi - t, with E as in ``_phi``: the form both edges of an
    interval take.  ``_SineStepper`` integrates it exactly against its
    modes and ``_ContourStepper`` takes its Laplace transform."""

    base: float
    jump: float
    drift: float
    rate: float
    t_hi: float

    def __call__(self, t):
        tau = self.t_hi - t
        return self.base + self.jump * np.exp(-self.rate * tau) + self.drift * _phi(self.rate, tau)

    def integral(
        self, kappa: np.ndarray, e_kappa: np.ndarray, tau: float, shift: float
    ) -> np.ndarray:
        """The integral over s in [0, tau] of e^(-kappa (tau - s)) times
        u(t_hi - s) - shift, for each kappa > 0; ``e_kappa`` is
        E_kappa(tau)."""
        # e^(-rate s) and E_rate(s) against the decay: divided differences of
        # e^(-z tau) on (rate, kappa) and on (0, rate, kappa), formed so that
        # nothing divides by rate or by kappa - rate
        decay = np.exp(-self.rate * tau) * _phi(kappa - self.rate, tau)
        return (
            (self.base - shift) * e_kappa
            + self.jump * decay
            + self.drift * (_phi(self.rate, tau) - decay) / kappa
        )

    def transform(self, z: np.ndarray, t_top: float) -> np.ndarray:
        """The Laplace transform at z of u(t_top - s) in s >= 0, for t_top at
        or below t_hi: re-based to t_top, the edge keeps its form with
        base + drift E_rate(a), jump e^(-rate a) and drift e^(-rate a),
        a = t_hi - t_top."""
        a = self.t_hi - t_top
        decay = math.exp(-self.rate * a)
        base = self.base + self.drift * _phi(self.rate, a)
        return base / z + (self.jump + self.drift / z) * decay / (z + self.rate)


def _edges(
    b: float, lam: float, t_hi: float, tail: float, p_0: float, p_lo: float, p_hi: float
) -> tuple[_Edge, _Edge]:
    """Small- and large-spot boundary values of one interval; ``tail`` is the
    jump hazard from t_hi to maturity."""
    # u = p(0) + (p(x_min) - p(0)) c x / x_min while p is affine on [0, x_min]:
    # dc/dtau = lam - (b + lam) c with c = 1 at tau = 0, so
    # c = e^(-(b + lam) tau) + lam E_(b + lam)(tau) for any sign of b + lam
    near = _Edge(p_0, p_lo - p_0, lam * (p_lo - p_0), b + lam, t_hi)
    # no barrier triggers; a jump default pays p(x_max)
    far = _Edge(p_hi, (1.0 - p_hi) * math.exp(-tail), 0.0, lam, t_hi)
    return near, far


def _cascade(
    market: MarketParams,
    schedule: DefaultSchedule,
    recovery: RecoveryModel,
    grid: GridSpec,
) -> CascadeSolution:
    """Backward induction on ``grid`` for every recovery model: glue at each
    announcing date, solve each interval with the source lam * paid.

    The gluing indicator is projected onto the grid by its cell average, so
    the discontinuity sits at the exact barrier with second-order accuracy
    no matter how the nodes align.  The solution carries no error estimate
    of its own (ROADMAP item 8)."""
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

    sigma = market.s_V
    mu = -(market.b + 0.5 * sigma * sigma)
    n = schedule.n_intervals
    y = np.linspace(math.log(grid.x_min), math.log(grid.x_max), grid.n_space + 1)
    dy = y[1] - y[0]
    rec = recovery.paid(np.exp(y))
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
        edge_lo = far if unreachable else near
        steppers[i] = _stepper(y, sigma, mu, lam, lam * rec[1:-1], edge_lo, far, t_lo, t_hi, p_0)
        values[i] = steppers[i].march(terminal)
        nxt = values[i][0]
    times = [stepper.times for stepper in steppers]
    return CascadeSolution(schedule.dates, y, times, values, steppers)


def solve_endogenous_cascade(
    market: MarketParams,
    schedule: DefaultSchedule,
    recovery: RecoveryModel,
    grid: GridSpec,
) -> CascadeSolution:
    """Backward cascade with firm-value recovery min(1, x / (n/R))."""
    if recovery.mode != "endogenous":
        raise DomainError("solve_endogenous_cascade: recovery model must be endogenous")
    return _cascade(market, schedule, recovery, grid)


def solve_exogenous_cascade(
    market: MarketParams,
    schedule: DefaultSchedule,
    recovery: RecoveryModel,
    grid: GridSpec,
) -> CascadeSolution:
    """Backward cascade with fixed fractional recovery R; at R = 0 it is the
    survival probability W."""
    if recovery.mode != "exogenous":
        raise DomainError("solve_exogenous_cascade: recovery model must be exogenous")
    return _cascade(market, schedule, recovery, grid)


def sample(solution: CascadeSolution, x: float, t: float) -> float:
    """The cascade at spot x and time t, linear in log x between nodes.

    Announcing dates belong to the interval on their right; ``t`` equal to
    maturity takes the last interval's row there.  The row at t is exact in
    time, from the interval's stepper.
    """
    y = math.log(x) if x > 0.0 else -math.inf
    if not (solution.y[0] <= y <= solution.y[-1]):
        raise DomainError(f"sample: spot {x} outside the grid hull")
    if not (solution.dates[0] <= t <= solution.dates[-1]):
        raise DomainError(f"sample: time {t} outside the grid hull")
    i = min(bisect_right(solution.dates, t) - 1, len(solution.values) - 1)
    row = solution.steppers[i].row(solution.values[i], t)
    return float(np.interp(y, solution.y, row))
