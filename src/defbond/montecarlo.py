"""Monte Carlo verification engine for the defaultable bond.

Simulation runs on the relative firm value x = V / (default-free bond), a
geometric Brownian motion with drift -b, so every discounted payoff is
exp(-r (T - t)) times a relative payoff: 1 on survival, the recovery fraction
otherwise.  Jump defaults are drawn exactly by inverting the piecewise-linear
cumulative hazard, and the firm value at the jump time is bridged with one
exact lognormal step, so the estimator carries no discretization bias.

Paths are generated in fixed-size blocks, each keyed into a counter-based
generator by (seed, block index); results are bit-identical for a given
(seed, config) no matter how blocks would be dispatched.
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

    def leg_payoff(z, e_unif):
        """(relative payoff, survived) from one set of draws."""
        n = z.shape[0]
        log_steps = drift[None, :] + s * np.sqrt(seg_dt)[None, :] * z[:, :n_dates]
        log_x = math.log(x0) + np.cumsum(log_steps, axis=1)
        x_at_dates = np.exp(log_x)

        hit = x_at_dates <= barrier_levels[None, :]
        any_hit = hit.any(axis=1)
        first_hit = np.where(any_hit, hit.argmax(axis=1), n_dates)
        barrier_time = np.where(any_hit, rem_dates[np.minimum(first_hit, n_dates - 1)], np.inf)

        e = -np.log1p(-np.clip(e_unif, 0.0, 1.0 - 1e-16))
        seg = np.searchsorted(hazard_edges, e, side="right") - 1
        jumps = seg < n_dates
        seg_c = np.minimum(seg, n_dates - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            offset = (e - hazard_edges[seg_c]) / seg_lambdas[seg_c]
        theta = np.where(jumps, seg_times[seg_c] + offset, np.inf)

        unexpected = theta < barrier_time
        expected = ~unexpected & any_hit
        survived = ~unexpected & ~any_hit

        payoff = np.ones(n)
        if expected.any():
            idx = first_hit[expected]
            payoff[expected] = recovery.paid(x_at_dates[expected, idx])
        if unexpected.any():
            sc = seg_c[unexpected]
            d_theta = theta[unexpected] - seg_times[sc]
            x_base = np.where(
                sc == 0,
                x0,
                np.exp(log_x[unexpected, np.maximum(sc - 1, 0)]),
            )
            x_theta = x_base * np.exp(
                (-b - 0.5 * s * s) * d_theta + s * np.sqrt(d_theta) * z[unexpected, n_dates]
            )
            payoff[unexpected] = recovery.paid(x_theta)
        return payoff, survived

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
        z = rng.standard_normal((count, n_dates + 1))
        u = rng.random(count)
        pay, surv = leg_payoff(z, u)
        if antithetic:
            pay2, surv2 = leg_payoff(-z, 1.0 - u)
            v = 0.5 * (pay + pay2)
            survived_total += int(surv.sum()) + int(surv2.sum())
        else:
            v = pay
            survived_total += int(surv.sum())
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
