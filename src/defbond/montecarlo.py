"""Monte Carlo verification engine for the defaultable bond.

Simulation runs on the relative firm value x = V / (default-free bond), a
geometric Brownian motion with drift -b, so every discounted payoff is
exp(-r (T - t)) times a relative payoff: 1 on survival, the recovery fraction
otherwise.  Jump defaults are drawn exactly by inverting the piecewise-linear
cumulative hazard, and the firm value at the jump time is bridged with one
exact lognormal step, so the estimator carries no discretization bias.

Paths are generated in antithetic pairs, in fixed-size blocks.  Every draw
of a block comes from its own SFC64 stream keyed by (seed, block, key):
stream 0 gives the uniforms, then one bridge normal for each path that
either leg could see jump under the whole schedule's hazard, in path order;
stream j >= 1 gives the step normals to announcing date j.  Results are
bit-identical for a given (seed, n_paths) no matter how blocks would be
dispatched, and no draw depends on the starts that a call prices.  Only
paths whose exponential draw falls inside the total hazard can jump (about
2% at lambda = 0.01), so the jump time and the lognormal bridge run on that
subset alone.  The antithetic leg reuses the draws with a sign on the
volatility, which IEEE arithmetic makes exact: both legs read one product
z * vol and step by z * vol + drift and drift - z * vol.

Defaults are settled in time order by one forward pass over the dates, in
log space.  The pass carries w = log(x / cap), cap = n / R the relative firm
value from which endogenous recovery is full, so the barrier at date j is
the test w <= log(K_j / cap), and w cannot overflow.  A jump inside the
segment ending at date j comes first, then the barrier at date j.  Each
path books its w at default in one row d, 0 while it lives: w * hit at a
barrier, with no branching select, and w_{j-1} + g at a jump, g the log of
the bridge step.  After the pass a path pays exp(min(d, 0)), which is
min(1, x / cap) at a default and 1 to a survivor: one ``exp`` per path.  A
recovery that does not grow with x (exogenous, or endogenous at R = 0,
whose cap is infinite) keeps no d: w is log x, and a default pays the
constant, whichever came first.

``simulate_prices`` takes several starts (V0, t).  Each block draws once for
every start and sorts each leg's jump candidates by their exponential draw,
so a start's jumps (e < H(t)) are a prefix and each segment's a contiguous
run, cut by the start's hazard edges.  The steps to the dates after a
start's first are the same for every start, so a block forms them once,
both signs, the plus leg's in place of their normals: starts run latest
first, so none reads a date's normals after its steps are formed.  Every
start gets what it would get alone, bit for bit, and the starts share
common random numbers, as they would through one seed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .pricing import (DefaultSchedule, MarketParams, RecoveryModel, _discount, _interval,
                      _relative_spot)

__all__ = ["SimConfig", "McResult", "simulate_price", "simulate_prices"]

_BLOCK = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    """Path budget and seeding; payoffs are sampled exactly without a time
    grid, in antithetic pairs."""

    n_paths: int = 200_000
    seed: int = 0

    def __post_init__(self):
        for name in ("n_paths", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise DomainError(f"SimConfig: {name} must be an integer, got {value!r}")
        if self.n_paths < 2 or self.n_paths % 2:
            raise DomainError("SimConfig: n_paths must be even and >= 2 (antithetic pairs)")


@dataclass(frozen=True)
class McResult:
    price_estimate: float
    std_error: float
    survival_freq: float
    n_paths: int


def _stream(seed: int, block: int, key: int) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed % 2**64, block, key])))


def _start_legs(market, schedule, V0, t, log_cap, rate):
    """(discount factor, index of the first remaining date, the step's drift
    and volatility to it, leg pass) of one start.  ``log_cap`` is log cap,
    and 0 for a recovery that pays the constant ``rate`` (None otherwise)."""
    if not (math.isfinite(V0) and V0 > 0.0):
        raise DomainError(f"simulate_prices: firm value must be positive, got {V0}")
    first = _interval(schedule, t, "simulate_prices") + 1
    df = _discount(market.r, schedule.maturity - t, "simulate_prices")
    w0 = math.log(_relative_spot(V0, df)) - log_cap

    # remaining announcing dates (strictly after t; an evaluation exactly on a
    # date treats that date's barrier as already passed)
    levels = [math.log(K) - log_cap for K in schedule.barriers[first - 1 :]]
    seg_times = np.concatenate(([t], schedule.dates[first:]))
    seg_lambdas = np.asarray(schedule.intensities[first - 1 :], dtype=float)
    hazard_edges = np.concatenate(([0.0], np.cumsum(seg_lambdas * np.diff(seg_times))))
    b, s = market.b, market.s_V
    mu = -b - 0.5 * s * s
    dt = schedule.dates[first] - t

    def leg_pass(w, steps, jumps, sign, alive, hit, out, scratch):
        """Paths survived in one leg, and each path's relative payoff written
        to ``out``.  ``w`` holds the step to the first remaining date and
        ``steps[j - 1]`` the step to remaining date j, taken with ``sign``;
        ``jumps`` holds the leg's exponential draws of the jump candidates in
        ascending order, with their paths and bridge normals."""
        e, paths, bridge_z = jumps
        # the start's jumps (e < H) are a prefix, and segment j's the run
        # cut[j]:cut[j + 1]; one in a segment of intensity 0 is empty
        cut = np.searchsorted(e, hazard_edges).tolist()
        w += w0
        if rate is not None:
            # every default pays the same, whichever came first
            np.greater(w, levels[0], out=alive)
            alive[paths[: cut[-1]]] = False
            for j in range(1, len(levels)):
                w += steps[j - 1]
                alive &= np.greater(w, levels[j], out=hit)
            np.maximum(alive, rate, out=out)
            return int(np.count_nonzero(alive))

        # out holds each path's w at default, 0 while it lives.  Defaults
        # are settled in time order: a jump inside segment j ends its path
        # before the barrier at date j is tested, at w of date j - 1 (w0
        # before the first).  The first date's barrier is taken first and
        # starts both rows; a jump in segment 0 then overwrites what it set
        np.less_equal(w, levels[0], out=hit)
        np.multiply(w, hit, out=out)
        np.logical_not(hit, out=alive)
        for j, level in enumerate(levels):
            lo, hi = cut[j], cut[j + 1]
            if lo < hi:
                at = paths[lo:hi]
                # the jump time's offset into the segment, and the log of
                # the lognormal step to it
                start = seg_times[j]
                d_theta = start + (e[lo:hi] - hazard_edges[j]) / seg_lambdas[j] - start
                booked = mu * d_theta + sign * s * np.sqrt(d_theta) * bridge_z[lo:hi]
                if j:
                    # a path already dead books 0 onto its d
                    booked += w[at]
                    booked *= alive[at]
                    out[at] += booked
                else:
                    out[at] = w0 + booked
                alive[at] = False
            if j:
                w += steps[j - 1]
                np.less_equal(w, level, out=hit)
                hit &= alive
                # a hit path was alive, so its d is 0 and takes w; every
                # other path adds 0
                np.multiply(w, hit, out=scratch)
                out += scratch
                alive ^= hit
        np.minimum(out, 0.0, out=out)
        np.exp(out, out=out)
        return int(np.count_nonzero(alive))

    return df, first, mu * dt, s * math.sqrt(dt), leg_pass


def simulate_prices(
    market: MarketParams,
    schedule: DefaultSchedule,
    recovery: RecoveryModel,
    starts,
    config: SimConfig,
) -> list[McResult]:
    """One ``McResult`` per ``(V0, t)`` in ``starts``, in their order, each
    equal to what ``simulate_price`` gives for that start alone.

    ``V0`` is the firm value at the evaluation time ``t``.  Each block draws
    its normals and uniforms once for every start.
    """
    cap = recovery.cap
    if math.isfinite(cap):
        log_cap, rate = math.log(cap), None
    else:  # a recovery that does not grow with x pays what it pays at 0
        log_cap, rate = 0.0, float(recovery.paid(0.0))
    legs = [_start_legs(market, schedule, V0, t, log_cap, rate) for V0, t in starts]
    if not legs:
        return []
    n_pairs = config.n_paths // 2
    width = min(_BLOCK, n_pairs)
    dates = schedule.dates
    # the whole schedule's hazard bounds every start's: e = -log1p(-u) < H
    # exactly when u < 1 - exp(-H), and the widened bound keeps every such u
    # against rounding in either function
    hazard = sum(lam * (hi - lo) for lam, lo, hi in zip(schedule.intensities, dates, dates[1:]))
    u_bound = -math.expm1(-hazard) * (1.0 + 1e-6)
    # drift and volatility of the step to date j + 1 from date j
    b, s = market.b, market.s_V
    gap = np.diff(dates)
    drift, vol = (-b - 0.5 * s * s) * gap, s * np.sqrt(gap)
    # the step normals to the dates after the earliest start, date-major; the
    # plus leg's steps to every date after it replace them, and the minus
    # leg's go to rows of their own
    lead = min(first for _, first, _, _, _ in legs)
    n_rows = len(dates) - lead
    z_buf, down_buf = np.empty(n_rows * width), np.empty((n_rows - 1) * width)
    rows = tuple(np.empty(width) for _ in range(4)) + tuple(np.empty(width, bool) for _ in range(2))
    # latest first: a start reads the normals of its first date, which the
    # starts before it in this order have not turned into steps
    order = sorted(range(len(legs)), key=lambda i: -legs[i][1])
    sums = [[0.0, 0.0, 0] for _ in legs]  # sum v, sum v^2, survivors
    done = block = 0
    while done < n_pairs:
        count = min(_BLOCK, n_pairs - done)
        z = z_buf[: n_rows * count].reshape(n_rows, count)
        down = down_buf[: (n_rows - 1) * count].reshape(n_rows - 1, count)
        for j in range(lead, len(dates)):
            _stream(config.seed, block, j).standard_normal(out=z[j - lead])
        # vz is free once both legs' first steps are formed, and the plus
        # leg's w once it has paid; the pair's mean v and v^2 replace the
        # pays.  Before the starts run, the rows hold the uniforms
        vz, w_up, w_down, pay, alive, hit = (row[:count] for row in rows)
        rng = _stream(config.seed, block, 0)
        u, u_anti = rng.random(out=w_up), np.subtract(1.0, w_up, out=w_down)
        # a bridge normal for every path that either leg could see jump
        np.less(u, u_bound, out=alive)
        alive |= np.less(u_anti, u_bound, out=hit)
        cand = np.flatnonzero(alive)
        bridge_z = rng.standard_normal(len(cand))
        jumps = []
        for leg_u in (u, u_anti):
            e = -np.log1p(-np.clip(leg_u[cand], 0.0, 1.0 - 1e-16))
            by_e = np.argsort(e)
            jumps.append((e[by_e], cand[by_e], bridge_z[by_e]))
        formed = len(dates)
        for i in order:
            _, first, drift0, vol0, leg_pass = legs[i]
            for j in range(first + 1, formed):
                step = z[j - lead]
                np.multiply(step, vol[j - 1], out=step)
                np.subtract(drift[j - 1], step, out=down[j - lead - 1])
                step += drift[j - 1]
            formed = first + 1
            np.multiply(z[first - lead], vol0, out=vz)
            np.add(vz, drift0, out=w_up)
            np.subtract(drift0, vz, out=w_down)
            surv = leg_pass(w_up, z[first - lead + 1 :], jumps[0], 1.0, alive, hit, pay, vz)
            surv2 = leg_pass(w_down, down[first - lead :], jumps[1], -1.0, alive, hit, w_up, vz)
            np.add(pay, w_up, out=pay)
            np.multiply(pay, 0.5, out=pay)
            np.multiply(pay, pay, out=w_up)
            acc = sums[i]
            acc[0] += float(pay.sum())
            acc[1] += float(w_up.sum())
            acc[2] += surv + surv2
        done += count
        block += 1

    results = []
    for (df, _, _, _, _), (sum_v, sum_v2, survived) in zip(legs, sums):
        mean_rel = sum_v / n_pairs
        if n_pairs > 1:
            var = max(sum_v2 - n_pairs * mean_rel * mean_rel, 0.0) / (n_pairs - 1)
            std_err = df * math.sqrt(var / n_pairs)
        else:
            std_err = math.inf
        results.append(McResult(
            price_estimate=df * mean_rel,
            std_error=std_err,
            survival_freq=survived / config.n_paths,
            n_paths=config.n_paths,
        ))
    return results


def simulate_price(
    market: MarketParams,
    schedule: DefaultSchedule,
    recovery: RecoveryModel,
    V0: float,
    config: SimConfig,
    t: float = 0.0,
) -> McResult:
    """Discounted-payoff mean, its standard error and the survival frequency.

    ``V0`` is the firm value at the evaluation time ``t``.
    """
    return simulate_prices(market, schedule, recovery, [(V0, t)], config)[0]
