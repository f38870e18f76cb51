"""Fourier verification engine for the bond-price cascade.

Solves the relative-price equation backward interval by interval on a uniform
log-spot grid y.  Every recovery model runs through one cascade whose data
all come from the recovery a default pays, p = ``RecoveryModel.paid``: the
gluing values and the source lam * p.  In tau = t_{i+1} - t an interval
solves u_tau = (s_V^2/2) u_yy + mu u_y - lam u + lam p, mu = -(b + s_V^2/2),
with constant coefficients on the whole line, so it is solved exactly in time
by Fourier space time-stepping (Jackson, Jaimungal & Surkov, J. Comp.
Finance 12(2), 2008), the scheme Feng & Linetsky (Math. Finance 18(3), 2008)
apply to discretely monitored defaultable bonds.  At each announcing date the
row is glued pointwise, the next row above ln B and the recovery at or below
it, and split into parts that each move exactly (``_Interval``):

- the barrier's jump J, carried in closed form as
  J e^(-lam tau) Phi((y + mu tau - ln B) / (s_V sqrt tau)), and every older
  jump whose transition lies wholly above ln B as a Phi term of its own (one
  wholly below joins J, one across goes onto the nodes);
- a linear lift through the end values of the continuous rest, and the same
  lift of the source;
- the remainder, periodic over the grid's n cells, whose Fourier modes move
  as e^(psi tau), psi(k) = -(s_V^2/2) k^2 + i mu k - lam.

The continuous rest keeps two kinks, of the glued row at ln B and of the
endogenous recovery at its cap; each gets the trapezoid rule's error in its
cell put back on two nodes (``_trapezoid``), and ``sample`` reads the row by
cubic interpolation, so neither adds an h^2 error.  The cubic at a spot is
taken once in Fourier space, one weight per mode (``_Space.spot``), so a
sample at t is one ``exp`` over the still-moving modes and one sum, and an
interval's row at its start is built only when the gluing before it or a
reader of ``values`` asks for it.  The periodic extension
joins the grid's two edges, so rows within reach of an edge carry the other
edge's data; ``GridSpec.auto`` keeps every barrier, the cap and the spot out
of that reach.  A cascade imports ``scipy.special`` when it first runs, so
importing this module loads no scipy.  This engine shares no code path with
the closed forms it checks.
"""

from __future__ import annotations

import math
import numbers
import sys
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
# the spot (GridSpec.auto).
_MARGIN = 50.0

# e^-40 and Phi(-40) both lie under double rounding: a Fourier mode decayed
# by e^-40 takes its settled value, and a Phi term is evaluated only within
# 40 standard deviations of its centre, outside which it is 0 or 1 exactly.
_TAIL = 40.0

@dataclass(frozen=True)
class GridSpec:
    """Spatial resolution for the cascade solver, which is exact in time.
    ``n_time_per_interval`` is checked but unread; it stays accepted until
    the benchmark stops passing it (ROADMAP item 1).

    A grid built by hand is checked only for holding every barrier strictly
    inside it and for clearing the recovery cap, so one that sits closer
    under the lowest barrier than ``auto`` puts it prices off: market
    (0.1, 0.05, 1.0), dates (0, 3, 6), lam (0.2, 0.3), barriers 100,
    endogenous cap 2, x = 200 and 4096 nodes sample 1.27e-2 off the closed
    form at x_min = 3, 10 and 50 alike, where the recovery is 1 over the
    whole grid, 2.0e-3 at x_min = 1 and 5.9e-5 at 0.3, against 2.2e-10 on
    the ``auto`` grid (x_min = 3.0e-3)."""

    x_min: float
    x_max: float
    n_space: int = 2048
    n_time_per_interval: int = 2048

    def __post_init__(self):
        if not (0.0 < self.x_min < self.x_max) or not math.isfinite(self.x_max):
            raise DomainError("GridSpec: need 0 < x_min < x_max < inf")
        for name in ("n_space", "n_time_per_interval"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise DomainError(f"GridSpec: {name} must be an integer, got {value!r}")
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
        """Domain sized so that the grid edges, which the periodic remainder
        joins, lie out of reach to verification tolerances: at least
        ``_MARGIN`` (50) times past every barrier, the recovery cap and the
        evaluation spot, widened further when the lognormal drift plus four
        standard deviations over the full horizon reaches past that (the
        relative spot drifts down at rate b + s_V^2/2, so high volatility
        pushes the far field out a lot).  A recovery growing with x is paid
        under the asset measure, where ln x drifts up at s_V^2/2 - b, so
        x_min also sits that drift plus four deviations of the longest
        interval under the lowest barrier.  The bounds stay within the
        positive floats, which hold every spot the closed form prices; the
        cascade carries the log grid on past a bound clamped there."""
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
        x_min = min(min(refs) * math.exp(-log_lo), min(schedule.barriers) * math.exp(-edge))
        # e^log_hi alone passes the largest float from s_V = 14 on the
        # low-barrier base, so whether the top bound does is decided in logs
        top, last = math.log(max(refs)) + log_hi, math.log(sys.float_info.max)
        x_max = (min(max(refs) * math.exp(log_hi), sys.float_info.max) if max(top, log_hi) < last
                 else math.exp(top) if top < last else sys.float_info.max)
        return cls(max(x_min, math.ulp(0.0)), x_max, n_space, n_time_per_interval)


@dataclass(frozen=True)
class CascadeSolution:
    """The relative price u on (log-spot, time), solved on the one grid the
    cascade was given, exact in time: ``steppers[i]`` is interval i, solved,
    and gives its row at any t.

    ``times[i]`` is [t_i, t_{i+1}] and ``values[i]`` the rows there, jump
    terms included: the row at t_i and the glued terminal row.  No gluing
    reads the row at t_0, so the first read of ``values`` builds it.
    """

    dates: tuple[float, ...]
    y: np.ndarray
    steppers: list[_Interval]

    @property
    def times(self) -> list[np.ndarray]:
        return [stepper.times for stepper in self.steppers]

    @property
    def values(self) -> list[np.ndarray]:
        return [stepper.kept for stepper in self.steppers]


def _on_nodes(y: np.ndarray, terms: list[tuple[float, float, float]]) -> np.ndarray:
    """The sum of the jump ``terms`` (K, c, v) at the sorted points y, with Phi
    evaluated only within ``_TAIL`` deviations of each centre."""
    from scipy.special import ndtr

    out = np.zeros_like(y)
    for amp, centre, var in terms:
        sd = math.sqrt(var)
        lo, hi = np.searchsorted(y, (centre - _TAIL * sd, centre + _TAIL * sd)).tolist()
        out[lo:hi] += amp * ndtr((y[lo:hi] - centre) / sd)
        out[hi:] += amp
    return out


def _cubic(nodes: np.ndarray, y: float) -> tuple[int, tuple[float, ...]]:
    """The cubic at y through four uniform ``nodes`` around it, y's cell and
    one more on each side, shifted inward at an edge: the first of them and
    the cubic's weights on the four."""
    j = min(max(int(nodes.searchsorted(y)), 2), len(nodes) - 2)
    u = (y - float(nodes[j - 2])) / float(nodes[1] - nodes[0])
    v = u - 1.0
    return j - 2, (-v * (u - 2.0) * (u - 3.0) / 6.0, 0.5 * u * (u - 2.0) * (u - 3.0),
                   -0.5 * u * v * (u - 3.0), u * v * (u - 2.0) / 6.0)


def _trapezoid(values: np.ndarray, y: np.ndarray, at: float, kink: float) -> np.ndarray:
    """``values`` on the nodes y of a function whose slope jumps by ``kink``
    at ``at``, with the trapezoid rule's error there taken back.  Against a
    smooth kernel G the node sum h sum G f misses the integral by
    kink G(at) (a (h - a) / 2 - h^2 / 12), a = y_j - at the distance to the
    node above; the opposite mass goes on the cell's two nodes, with zero
    first moment about ``at``."""
    j = int(np.searchsorted(y, at))
    if not 0 < j < len(y):
        return values
    h, a = y[j] - y[j - 1], y[j] - at
    mass = kink * (h * h / 12.0 - 0.5 * a * (h - a)) / (h * h)
    out = values.copy()
    out[j - 1] += mass * a
    out[j] += mass * (h - a)
    return out


class _Space:
    """What every interval of a cascade shares, since they differ only in
    their intensity lam: the nodes y, z = y - y_0, each Fourier mode's
    psi(k) + lam and (s_V^2/2) k^2, the recovery p on the nodes split by
    ``split``, and the cubic read of each spot sampled (``spot``)."""

    def __init__(self, y: np.ndarray, sigma: float, mu: float, paid: np.ndarray):
        self.y, self.sigma, self.mu = y, sigma, mu
        self.z = y - y[0]
        k = 2.0 * math.pi * np.fft.rfftfreq(len(y) - 1, y[1] - y[0])
        self.spread = 0.5 * sigma * sigma * k * k
        self.psi = 1j * mu * k - self.spread
        self.paid_lift, self.paid_modes = self.split(paid)
        self._spots = {}

    def split(self, row: np.ndarray):
        """The lift (c0, c1) of ``row``, the line c0 + c1 z through its end
        values, and the Fourier modes of the rest over the n cells: it is 0
        at both ends, so its periodic extension is continuous."""
        c0, c1 = float(row[0]), float((row[-1] - row[0]) / self.z[-1])
        return (c0, c1), np.fft.rfft(row[:-1] - (c0 + c1 * self.z[:-1]))

    def spot(self, y: float):
        """The cubic read at log-spot y (``_cubic``): the first node m it
        reads, its weights w_q on the nodes m + q, q = 0..3, their sum, the
        sum of w_q z_(m+q), and c_k = a_k sum_q w_q e^(2 pi i k (m + q) / n),
        the conjugate transform of the weights on the n cells, with irfft's
        a_k: 1/n at k = 0 and at the Nyquist mode of an even n, 2/n
        otherwise.  The cubic of irfft(w) at y is then Re sum_k c_k w_k.
        Made once per spot and kept for the life of the cascade."""
        read = self._spots.get(y)
        if read is None:
            m, weights = _cubic(self.y, y)
            n = len(self.y) - 1
            at = np.zeros(n)
            at[np.arange(m, m + 4) % n] = weights
            c = np.fft.rfft(at).conj()
            c *= 2.0 / n
            c[0] *= 0.5
            if n % 2 == 0:
                c[-1] *= 0.5
            read = m, weights, sum(weights), float(np.dot(weights, self.z[m : m + 4])), c
            self._spots[y] = read
        return read


class _Interval:
    """One interval [t_lo, t_hi] with intensity lam, solved exactly in time
    from its glued data at t_hi: the continuous part ``cont`` on the nodes
    and the jump ``terms``, float triples (K, c, v), each the term
    K Phi((y - c) / sqrt v), a step at v = 0; one with K = 0 is dropped.

    At tau = t_hi - t the row is A + B z + irfft(w) plus every term moved to
    tau (``_moved``), K e^(-lam tau) Phi((y + mu tau - c) / sqrt(v + s_V^2 tau)).
    With the lift (c0, c1) of ``cont``, (d0, d1) = lam times that of p, the
    recovery paid, e = e^(-lam tau) and E = (1 - e) / lam:

        B = e c1 + d1 E,   A = e c0 + d0 E + mu (c1 tau e + d1 (E - tau e) / lam),

    with E = tau and (E - tau e) / lam = tau^2 / 2 at lam = 0: the line moves
    exactly on the whole line.  The rest's modes w move as

        w(tau) = e^(psi tau) (w(0) - s) + s,   s = -g / psi,

    g = lam times the modes of p's rest and psi = psi(k) - lam; s = 0 at
    lam = 0, where only the mode k = 0 has psi = 0.  A mode with
    -Re(psi) tau > ``_TAIL`` has settled at s and pays no ``exp``.  ``row``
    gives the whole row at t; ``read`` gives its cubic at one spot from the
    spot's weights c_k (``_Space.spot``): it keeps, per spot, c_k times the
    moving part of w and the settled modes' share Re sum_k c_k s_k, so a
    read at t is one ``exp`` over the moving modes, one sum and the line.

    ``times`` holds [t_lo, t_hi] and ``kept`` the rows there, terms included,
    the last the glued ``terminal`` row.  The row at t_lo is ``start``'s,
    built the first time the gluing before the interval or a reader of
    ``kept`` asks for it, so a cascade's first interval builds none unless
    read.  The terms moved to t_lo are sorted there by where their
    transition (``_TAIL`` deviations each way) lies against ``barrier``, the
    log barrier glued at t_lo (-inf at t = 0): ``carried`` holds those
    wholly above it, ``below`` sums the amplitudes of those wholly below,
    and ``smooth`` is the row with those across it on the nodes.
    """

    def __init__(self, space: _Space, lam: float, t_lo: float, t_hi: float, terminal: np.ndarray,
                 cont: np.ndarray, terms: list[tuple[float, float, float]], barrier: float):
        # a non-finite value would spread through every mode
        if not (np.isfinite(terminal).all() and np.isfinite(cont).all()
                and all(math.isfinite(value) for term in terms for value in term)):
            raise ValueError("array must not contain infs or NaNs")
        self.space, self.lam, self.t_lo, self.t_hi = space, lam, t_lo, t_hi
        self.times = np.array([t_lo, t_hi])
        self.terminal, self.barrier = terminal, barrier
        self.terms = [term for term in terms if term[0] != 0.0]
        self.lift, modes = space.split(cont)
        self.psi = space.psi - lam
        self.settled = -lam * space.paid_modes / self.psi if lam else np.zeros_like(modes)
        self.modes = modes - self.settled
        self._reads = {}

    @cached_property
    def start(self) -> tuple[np.ndarray, np.ndarray, list, float]:
        """The row at t_lo, terms included, its ``smooth`` part, the
        ``carried`` terms and ``below``."""
        moved, across, carried, below = self._moved(self.t_hi - self.t_lo), [], [], 0.0
        for term in moved:
            gap = term[1] - self.barrier
            if abs(gap) < _TAIL * math.sqrt(term[2]):
                across.append(term)
            elif gap >= 0.0:
                carried.append(term)
            else:
                below += term[0]
        y = self.space.y
        smooth = self.row(self.t_lo) + _on_nodes(y, across)
        return smooth + _on_nodes(y, [t for t in moved if t not in across]), smooth, carried, below

    @cached_property
    def kept(self) -> np.ndarray:
        return np.array([self.start[0], self.terminal])

    def _moved(self, tau: float) -> list[tuple[float, float, float]]:
        """The terms at tau: (K e^(-lam tau), c - mu tau, v + s_V^2 tau)."""
        space = self.space
        decay, drift, spread = math.exp(-self.lam * tau), space.mu * tau, space.sigma**2 * tau
        return [(amp * decay, centre - drift, var + spread) for amp, centre, var in self.terms]

    def _moving(self, tau: float) -> int:
        """How many modes, from k = 0 up, have not settled by tau."""
        return int(self.space.spread.searchsorted(_TAIL / tau - self.lam))

    def _line(self, tau: float) -> tuple[float, float]:
        """The line's level A and slope B at tau."""
        (c0, c1), (p0, p1) = self.lift, self.space.paid_lift
        lam = self.lam
        e = math.exp(-lam * tau)
        big_e = -math.expm1(-lam * tau) / lam if lam else tau
        inner = (big_e - tau * e) / lam if lam else 0.5 * tau * tau
        slope = e * c1 + lam * p1 * big_e
        level = e * c0 + lam * p0 * big_e + self.space.mu * (c1 * tau * e + lam * p1 * inner)
        return level, slope

    def row(self, t: float) -> np.ndarray:
        """The row at t less its jump terms: A + B z + irfft(w).  At t_hi it
        is the glued terminal row, which holds them."""
        tau = self.t_hi - t
        if tau == 0.0:
            return self.terminal
        space = self.space
        moving = self._moving(tau)
        modes = self.settled.copy()
        modes[:moving] += np.exp(self.psi[:moving] * tau) * self.modes[:moving]
        rest = np.fft.irfft(modes, len(space.y) - 1)
        level, slope = self._line(tau)
        out = level + slope * space.z
        out[:-1] += rest
        out[-1] += rest[0]
        return out

    def read(self, y: float, t: float) -> float:
        """The cubic of ``row(t)`` at log-spot y."""
        m, weights, total, moment, c = self.space.spot(y)
        tau = self.t_hi - t
        if tau == 0.0:
            return float(np.dot(weights, self.terminal[m : m + 4]))
        kept = self._reads.get(y)
        if kept is None:
            kept = c * self.modes, float((c * self.settled).real.sum())
            self._reads[y] = kept
        waves, settled = kept
        moving = self._moving(tau)
        level, slope = self._line(tau)
        # a numpy sum, not a BLAS dot, whose threads would hinge on the width
        terms = self.psi[:moving] * tau
        np.exp(terms, out=terms)
        terms *= waves[:moving]
        return float(terms.real.sum()) + settled + level * total + slope * moment

    def jump(self, y: float, t: float) -> float:
        """The jump terms at log-spot y and time t, summed in the order and
        by the window rule of ``_on_nodes``; 0 at t_hi, whose row holds
        them."""
        tau = self.t_hi - t
        if tau == 0.0:
            return 0.0
        from scipy.special import ndtr

        out = 0.0
        for amp, centre, var in self._moved(tau):
            sd = math.sqrt(var)
            if y >= centre + _TAIL * sd:
                out += amp
            elif y >= centre - _TAIL * sd:
                out += amp * float(ndtr((y - centre) / sd))
        return out


def _cascade(
    market: MarketParams,
    schedule: DefaultSchedule,
    recovery: RecoveryModel,
    grid: GridSpec,
) -> CascadeSolution:
    """Backward induction on ``grid`` for every recovery model: glue at each
    announcing date, solve each interval with the source lam * paid.

    The glued row is the next row above ln B and the recovery p at or below
    it.  The new jump J is the next row's ``smooth`` part, read linearly
    between nodes at ln B, plus its terms wholly below ln B, less p(B); the
    continuous part is the glued row less J 1{y > ln B} and the carried terms.
    The solution carries no error estimate of its own (ROADMAP item 24)."""
    # a recovery still rising at the top of the grid would put its curve
    # across the remainder's wrap-around
    if float(recovery.paid(0.5 * grid.x_max)) != float(recovery.paid(grid.x_max)):
        raise DomainError(
            f"GridSpec x_max {grid.x_max} does not clear the recovery cap with margin"
        )
    if grid.x_min >= min(schedule.barriers) or grid.x_max <= max(schedule.barriers):
        raise DomainError(
            f"GridSpec [{grid.x_min}, {grid.x_max}] does not hold every barrier strictly inside it"
        )

    sigma = market.s_V
    mu = -(market.b + 0.5 * sigma * sigma)
    n = schedule.n_intervals
    lo, hi = math.log(grid.x_min), math.log(grid.x_max)
    # ``auto`` clamps its bounds to the positive floats, which leaves a spot
    # on a clamped bound no margin against the wrap-around; the log grid
    # runs on past such a bound by the horizon's drift plus four deviations,
    # with the recovery held at its value there
    h = (hi - lo) / grid.n_space
    reach = abs(mu) * schedule.maturity + 4.0 * sigma * math.sqrt(schedule.maturity)
    under = math.ceil(reach / h) if grid.x_min == math.ulp(0.0) else 0
    over = math.ceil(reach / h) if grid.x_max == sys.float_info.max else 0
    y = np.linspace(lo - under * h, hi + over * h, grid.n_space + under + over + 1)
    rec = recovery.paid(np.exp(np.clip(y, lo, hi)))
    # min(1, x / cap) has a kink of -1 in y at the cap
    paid = _trapezoid(rec, y, math.log(recovery.cap), -1.0) if math.isfinite(recovery.cap) else rec
    space = _Space(y, sigma, mu, paid)
    steppers: list[_Interval] = []
    # after maturity the row is 1, with no terms
    nxt = smooth = np.ones_like(y)
    carried, below = [], 0.0
    for i in range(n - 1, -1, -1):
        if steppers:
            nxt, smooth, carried, below = steppers[-1].start
        b = math.log(schedule.barriers[i])
        j = int(np.searchsorted(y, b))
        level = float(np.interp(b, y, smooth))
        paid_b = float(recovery.paid(schedule.barriers[i]))
        kink = (smooth[j] - smooth[j - 1] - rec[j] + rec[j - 1]) / (y[j] - y[j - 1])
        cont = _trapezoid(np.where(y > b, smooth - level + paid_b, paid), y, b, kink)
        terminal = np.where(y > b, nxt, rec)
        steppers.append(_Interval(
            space, schedule.intensities[i], schedule.dates[i], schedule.dates[i + 1],
            terminal, cont, [(level + below - paid_b, b, 0.0), *carried],
            math.log(schedule.barriers[i - 1]) if i else -math.inf,
        ))
    return CascadeSolution(schedule.dates, y, steppers[::-1])


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
    """The cascade at spot x and time t: the row less its jump terms, cubic
    in log x between nodes, plus the jump terms at log x itself.

    Announcing dates belong to the interval on their right; ``t`` equal to
    maturity takes the last interval's glued row there.  The row at t is
    exact in time, from the interval's stepper.
    """
    y = math.log(x) if x > 0.0 else -math.inf
    if not (solution.y[0] <= y <= solution.y[-1]):
        raise DomainError(f"sample: spot {x} outside the grid hull")
    if not (solution.dates[0] <= t <= solution.dates[-1]):
        raise DomainError(f"sample: time {t} outside the grid hull")
    i = min(bisect_right(solution.dates, t) - 1, len(solution.steppers) - 1)
    stepper = solution.steppers[i]
    return stepper.read(y, t) + stepper.jump(y, t)
