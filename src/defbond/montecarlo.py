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
subset alone.  Defaults are then settled in time order by one forward pass
over the dates that keeps a single row of x: a jump inside the segment
ending at date j comes first, then the barrier at date j.  The antithetic
leg reuses the draws with a sign on the volatility, which IEEE arithmetic
makes exact.

The pass settles barrier defaults without branching selects.  A path's
x_dead is 0 while it lives, so fmax(x_dead, x * hit) sets it to x at a hit
and keeps it elsewhere (fmax drops the NaN of inf * 0), and
maximum(paid(x_dead), alive) pays 1 to a survivor, since paid(0) <= 1, and
paid(x_dead) >= 0 to a default.  The pass allocates no full row: it works in
block-sized rows that every start of a call reuses, takes its jump
candidates from the paths that have bridge normals rather than from a test
over every path, and pays the recovery into a row that the caller passes.

``simulate_prices`` takes several starts (V0, t).  A start reads the streams
of its remaining dates, the block's candidates with their bridge normals and
each leg's exponential draws, computed once per block; so every start gets
what it would get alone, bit for bit, and the starts share common random
numbers, as they would through one seed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .pricing import DefaultSchedule, MarketParams, RecoveryModel, _discount, _relative_spot

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


def _start_legs(market, schedule, recovery, V0, t, rows):
    """(discount factor, index of the first remaining date, leg pass) of one
    start; the pass works in ``rows``, block-sized scratch rows that every
    start of a call shares."""
    if not (math.isfinite(V0) and V0 > 0.0):
        raise DomainError(f"simulate_prices: firm value must be positive, got {V0}")
    if not (0.0 <= t < schedule.maturity):
        raise DomainError(f"simulate_prices: t={t} outside [0, maturity)")
    first = next(j for j, d in enumerate(schedule.dates) if d > t)
    df = _discount(market.r, schedule.maturity - t, "simulate_prices")
    x0 = _relative_spot(V0, df)

    # remaining announcing dates (strictly after t; an evaluation exactly on a
    # date treats that date's barrier as already passed)
    rem_dates = np.asarray(schedule.dates[first:], dtype=float)
    barrier_levels = np.asarray(schedule.barriers[first - 1 :], dtype=float)
    seg_times = np.concatenate(([t], rem_dates))
    seg_lambdas = np.asarray(schedule.intensities[first - 1 :], dtype=float)
    seg_dt = np.diff(seg_times)
    hazard_edges = np.concatenate(([0.0], np.cumsum(seg_lambdas * seg_dt)))

    b, s = market.b, market.s_V
    n_dates = len(rem_dates)
    drift = (-b - 0.5 * s * s) * seg_dt
    vol = s * np.sqrt(seg_dt)
    log_x0 = math.log(x0)

    total_hazard = float(hazard_edges[-1])

    # x0 near the largest float overflows x to inf, far above every barrier
    # and the cap, where the payoff is flat in x; inf * 0 is settled below
    @np.errstate(over="ignore", invalid="ignore")
    def leg_payoff(z, cand, e_cand, bridge_z, sign, out):
        """Paths survived from one set of draws, taken with ``sign``, and
        each path's relative payoff written to ``out``.  Row j of the
        date-major ``z`` drives the step to date j; ``e_cand`` holds the
        leg's exponential draws and ``bridge_z`` the bridge normals at the
        paths ``cand``, a sorted superset of those that can jump."""
        n = z.shape[1]
        # jump defaults: the exact test keeps the draws that land inside
        # the hazard mass
        jumps = e_cand < total_hazard
        jidx = cand[jumps]
        e = e_cand[jumps]
        # edges[seg] <= e < edges[seg + 1], so the segment's intensity is > 0
        seg = np.searchsorted(hazard_edges, e, side="right") - 1
        theta = seg_times[seg] + (e - hazard_edges[seg]) / seg_lambdas[seg]
        d_theta = theta - seg_times[seg]
        # the lognormal step from the segment's start to the jump time
        z_theta = bridge_z[jumps]
        growth = np.exp((-b - 0.5 * s * s) * d_theta + sign * s * np.sqrt(d_theta) * z_theta)

        # one forward pass in time order: a jump inside segment j ends its
        # path before the barrier at date j is tested; x holds the previous
        # date's value (x0 before the first), x_dead each path's x at default
        # and 0 while it lives, run the sum of the steps so far
        alive, hit, x_dead, step, run, x = (row[:n] for row in rows)
        alive.fill(True)
        x_dead.fill(0.0)
        for j in range(n_dates):
            in_j = seg == j
            jumped = jidx[in_j]
            live = alive[jumped]
            jumped = jumped[live]
            x_dead[jumped] = (x[jumped] if j else x0) * growth[in_j][live]
            alive[jumped] = False
            # the first step is the sum, the rest add on in the order
            # np.cumsum takes them
            into = step if j else run
            np.multiply(z[j], sign * vol[j], out=into)
            into += drift[j]
            if j:
                run += step
            np.add(log_x0, run, out=x)
            np.exp(x, out=x)
            np.less_equal(x, barrier_levels[j], out=hit)
            hit &= alive
            # x_dead = x where hit, without a select that branches on every
            # element: a hit path was alive, so its x_dead is 0 and fmax
            # takes x >= 0; elsewhere x * 0 is 0 or the NaN of inf * 0,
            # which fmax drops (step is free until the next date)
            np.multiply(x, hit, out=step)
            np.fmax(x_dead, step, out=x_dead)
            alive ^= hit
        # a live path pays 1 >= paid(0), a dead one paid(x_dead) >= 0
        recovery.paid(x_dead, out=out)
        np.maximum(out, alive, out=out)
        return int(np.count_nonzero(alive))

    return df, first, leg_payoff


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
    n_pairs = config.n_paths // 2
    width = min(_BLOCK, n_pairs)
    rows = (np.empty(width, dtype=bool), np.empty(width, dtype=bool)) + tuple(
        np.empty(width) for _ in range(4)
    )
    legs = [_start_legs(market, schedule, recovery, V0, t, rows) for V0, t in starts]
    if not legs:
        return []
    dates = schedule.dates
    # the whole schedule's hazard bounds every start's: e = -log1p(-u) < H
    # exactly when u < 1 - exp(-H), and the widened bound keeps every such u
    # against rounding in either function
    hazard = sum(lam * (hi - lo) for lam, lo, hi in zip(schedule.intensities, dates, dates[1:]))
    u_bound = -math.expm1(-hazard) * (1.0 + 1e-6)
    # the step normals to the dates after the earliest start, date-major
    lead = min(first for _, first, _ in legs)
    n_rows = len(dates) - lead
    z_buf = np.empty(n_rows * width)
    # each leg pays into one row, then the pair's mean v and v^2 replace them
    v_buf, v2_buf = np.empty(width), np.empty(width)
    sums = [[0.0, 0.0, 0] for _ in legs]  # sum v, sum v^2, survivors
    done = block = 0
    while done < n_pairs:
        count = min(_BLOCK, n_pairs - done)
        z = z_buf[: n_rows * count].reshape(n_rows, count)
        for j in range(lead, len(dates)):
            _stream(config.seed, block, j).standard_normal(out=z[j - lead])
        rng = _stream(config.seed, block, 0)
        u = rng.random(count)
        u_anti = 1.0 - u
        # a bridge normal for every path that either leg could see jump
        cand = np.flatnonzero((u < u_bound) | (u_anti < u_bound))
        bridge_z = rng.standard_normal(len(cand))
        e_cand, e_anti = (-np.log1p(-np.clip(w[cand], 0.0, 1.0 - 1e-16)) for w in (u, u_anti))
        v, v2 = v_buf[:count], v2_buf[:count]
        for (_, first, leg_payoff), acc in zip(legs, sums):
            z_start = z[first - lead :]
            surv = leg_payoff(z_start, cand, e_cand, bridge_z, 1.0, v)
            surv2 = leg_payoff(z_start, cand, e_anti, bridge_z, -1.0, v2)
            np.add(v, v2, out=v)
            np.multiply(v, 0.5, out=v)
            np.multiply(v, v, out=v2)
            acc[0] += float(v.sum())
            acc[1] += float(v2.sum())
            acc[2] += surv + surv2
        done += count
        block += 1

    results = []
    for (df, _, _), (sum_v, sum_v2, survived) in zip(legs, sums):
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
