"""Monte Carlo verification engine for the defaultable bond.

Simulation runs on the relative firm value x = V / (default-free bond), a
geometric Brownian motion with drift -b, so every discounted payoff is
exp(-r (T - t)) times a relative payoff: 1 on survival, the recovery fraction
otherwise.  Jump defaults are drawn exactly by inverting the piecewise-linear
cumulative hazard, and the firm value at the jump time is bridged with one
exact lognormal step, so the estimator carries no discretization bias.

Paths are generated in fixed-size blocks, each keyed into a counter-based
generator by (seed, block index); results are bit-identical for a given
(seed, config) no matter how blocks would be dispatched.  A block's draws
are transposed once, so each announcing date is a contiguous row: log x
advances date by date in one forward pass that keeps a single row of x and
records each path's first barrier hit as it happens.  Only paths whose
exponential draw falls inside the total hazard can jump (about 2% at
lambda = 0.01), so the jump time, the test against the first hit and the
lognormal bridge run on that subset alone; every other path's payoff is 1
or the recovery at its hit.  The antithetic leg reuses the draws with a
sign on the volatility, which IEEE arithmetic makes exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .pricing import DefaultSchedule, MarketParams, RecoveryModel

__all__ = ["SimConfig", "McResult", "simulate_price"]

_BLOCK = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    """Path budget and seeding; payoffs are sampled exactly without a time
    grid."""

    n_paths: int = 200_000
    seed: int = 0
    antithetic: bool = True

    def __post_init__(self):
        if self.n_paths < 1:
            raise DomainError("SimConfig: n_paths must be >= 1")
        if self.antithetic and self.n_paths % 2:
            raise DomainError("SimConfig: antithetic pairing needs an even n_paths")


@dataclass(frozen=True)
class McResult:
    price_estimate: float
    std_error: float
    survival_freq: float
    n_paths: int


def _block_rng(seed: int, block: int) -> np.random.Generator:
    key = np.array([seed % 2**64, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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
    if not (math.isfinite(V0) and V0 > 0.0):
        raise DomainError(f"simulate_price: firm value must be positive, got {V0}")
    if not (0.0 <= t < schedule.maturity):
        raise DomainError(f"simulate_price: t={t} outside [0, maturity)")

    maturity = schedule.maturity
    df = math.exp(-market.r * (maturity - t))
    x0 = V0 / df

    # remaining announcing dates (strictly after t; an evaluation exactly on a
    # date treats that date's barrier as already passed)
    first = next(j for j, d in enumerate(schedule.dates) if d > t)
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
    # the time a path's first barrier hit ends it, indexed by the hit's date;
    # index n_dates means no hit
    hit_times = np.append(rem_dates, np.inf)

    total_hazard = float(hazard_edges[-1])
    # e = -log1p(-u) < H exactly when u < 1 - exp(-H); the widened bound
    # keeps every such u against rounding in either function
    u_bound = -math.expm1(-total_hazard) * (1.0 + 1e-6)

    def leg_payoff(z, e_unif, sign):
        """(relative payoff, paths survived) from one set of draws, taken with
        ``sign``; row j of the date-major ``z`` drives the step to date j, row
        n_dates the bridge to a jump time."""
        n = z.shape[1]
        # jump defaults: only draws below the bound can land inside the
        # hazard mass, and the exact test keeps those that do
        cand = np.flatnonzero(e_unif < u_bound)
        e = -np.log1p(-np.clip(e_unif[cand], 0.0, 1.0 - 1e-16))
        jumps = e < total_hazard
        jidx = cand[jumps]
        e = e[jumps]
        # edges[seg] <= e < edges[seg + 1], so the segment's intensity is > 0
        seg = np.searchsorted(hazard_edges, e, side="right") - 1
        theta = seg_times[seg] + (e - hazard_edges[seg]) / seg_lambdas[seg]
        # log x of the jumping paths at each date, for the bridge's start,
        # and the date of their first barrier hit
        log_x_jump = np.empty((n_dates, len(jidx)))
        jump_hit = np.full(len(jidx), n_dates)

        # barrier hits: one forward pass keeps x at each path's first hit; a
        # select, not a masked copy, which branches on every element
        alive = np.ones(n, dtype=bool)
        hit = np.empty(n, dtype=bool)
        x_hit = np.zeros(n)
        step = np.empty(n)
        run = np.zeros(n)
        log_x = np.empty(n)
        x = np.empty(n)
        for j in range(n_dates):
            np.multiply(z[j], sign * vol[j], out=step)
            step += drift[j]
            run += step  # the order np.cumsum takes them; 0 + step is exact
            np.add(log_x0, run, out=log_x)
            np.exp(log_x, out=x)
            log_x_jump[j] = log_x[jidx]
            np.less_equal(x, barrier_levels[j], out=hit)
            hit &= alive
            x_hit = np.where(hit, x, x_hit)
            jump_hit[hit[jidx]] = j
            alive ^= hit

        payoff = np.where(alive, 1.0, recovery.paid(x_hit))
        unexpected = theta < hit_times[jump_hit]
        uidx = jidx[unexpected]
        sc = seg[unexpected]
        d_theta = theta[unexpected] - seg_times[sc]
        x_base = np.where(
            sc == 0,
            x0,
            np.exp(log_x_jump[np.maximum(sc - 1, 0), np.flatnonzero(unexpected)]),
        )
        x_theta = x_base * np.exp(
            (-b - 0.5 * s * s) * d_theta + sign * s * np.sqrt(d_theta) * z[n_dates, uidx]
        )
        payoff[uidx] = recovery.paid(x_theta)
        return payoff, int(np.count_nonzero(alive)) - int(np.count_nonzero(alive[uidx]))

    antithetic = config.antithetic
    n_base = config.n_paths // 2 if antithetic else config.n_paths
    sum_v = 0.0
    sum_v2 = 0.0
    survived_total = 0
    done = 0
    block = 0
    while done < n_base:
        count = min(_BLOCK, n_base - done)
        rng = _block_rng(config.seed, block)
        # one transpose per block: each date's draws become a contiguous row
        z = np.ascontiguousarray(rng.standard_normal((count, n_dates + 1)).T)
        u = rng.random(count)
        pay, surv = leg_payoff(z, u, 1.0)
        survived_total += surv
        if antithetic:
            pay2, surv2 = leg_payoff(z, 1.0 - u, -1.0)
            v = 0.5 * (pay + pay2)
            survived_total += surv2
        else:
            v = pay
        sum_v += float(v.sum())
        sum_v2 += float((v * v).sum())
        done += count
        block += 1

    mean_rel = sum_v / n_base
    if n_base > 1:
        var = max(sum_v2 - n_base * mean_rel * mean_rel, 0.0) / (n_base - 1)
        std_err = df * math.sqrt(var / n_base)
    else:
        std_err = math.inf
    return McResult(
        price_estimate=df * mean_rel,
        std_error=std_err,
        survival_freq=survived_total / config.n_paths,
        n_paths=config.n_paths,
    )
