"""A seeded property corpus over the model's input space: invariants of the
closed form that need no second engine.

Each case draws 1 to 4 announcing dates, with near-coincident and long gaps,
barriers on both sides of the endogenous cap, volatilities from 0.01 to 4,
spots from 1e-3 to 1e3 times the lowest barrier and evaluation on a date
30% of the time.  Every price must be finite and lie within its bounds, and
exogenous prices must move the right way when one input moves.  Endogenous
prices are checked only for bounds: with a barrier above the cap they can
fall as the firm value rises, and where every barrier is at or under the cap
their monotonicity is not proved.
"""

import math

import numpy as np
import pytest

import defbond as db

# each case prices both modes, plus the exogenous moves
CASES_PER_SEED = 150


def _error(report: db.PriceReport) -> float:
    """The absolute error a price carries: its reported errors and rounding."""
    return 1e-12 + report.diagnostics["cdf_error"] + report.diagnostics["quadrature_error"]


def _draw(rng):
    """One case: market, schedule, recovery rate, endogenous cap, relative
    spot and evaluation time."""
    m = int(rng.integers(1, 5))
    gaps = [10.0 ** rng.uniform(-4.0, 0.5) if rng.random() < 0.5 else rng.uniform(0.5, 3.0)
            for _ in range(m)]
    dates = tuple(float(d) for d in np.concatenate([[0.0], np.cumsum(gaps)]))
    lam = tuple(0.0 if rng.random() < 0.5 else float(10.0 ** rng.uniform(-3.0, 1.0))
                for _ in range(m))
    barriers = tuple(float(10.0 ** rng.uniform(1.0, 2.5)) for _ in range(m))
    market = db.MarketParams(
        float(rng.uniform(-0.05, 0.15)),
        float(rng.uniform(-0.2, 0.2)),
        float(10.0 ** rng.uniform(-2.0, math.log10(4.0))),
    )
    R = float(rng.uniform(0.0, 1.0))
    cap = float(rng.uniform(10.0, 300.0))
    x = min(barriers) * float(10.0 ** rng.uniform(-3.0, 3.0))
    if rng.random() < 0.3:
        t = dates[int(rng.integers(0, m))]
    else:
        t = float(rng.uniform(0.0, dates[-1]))
    return market, db.DefaultSchedule(dates, lam, barriers), R, cap, x, t


def _moves(schedule):
    """Schedules with one intensity raised (x1.2 + 1e-3) or one barrier
    raised (x1.05): each lowers the exogenous price."""
    dates, lam, barriers = schedule.dates, schedule.intensities, schedule.barriers
    for j in range(schedule.n_intervals):
        more = lam[:j] + (1.2 * lam[j] + 1e-3,) + lam[j + 1 :]
        yield f"lam{j} x1.2 +1e-3", db.DefaultSchedule(dates, more, barriers)
        higher = barriers[:j] + (1.05 * barriers[j],) + barriers[j + 1 :]
        yield f"K{j} x1.05", db.DefaultSchedule(dates, lam, higher)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_prices_stay_in_bounds_and_move_the_right_way(seed):
    rng = np.random.default_rng(seed)
    failures: list[str] = []
    for _ in range(CASES_PER_SEED):
        market, schedule, R, cap, x, t = _draw(rng)
        df = math.exp(-market.r * (schedule.maturity - t))
        V = x * df
        case = f"seed {seed}: {market}, {schedule}, R={R}, cap={cap}, x={x}, t={t}"

        def exogenous(schedule=schedule, R=R, V=V):
            return db.price_exogenous(market, schedule, db.RecoveryModel("exogenous", R), V, t)

        endo = db.price_endogenous(
            market, schedule, db.RecoveryModel("endogenous", R, n=cap * R), V, t
        )
        base = exogenous()
        for name, report, floor in (("endogenous", endo, 0.0), ("exogenous", base, R * df)):
            e = _error(report)
            if not (math.isfinite(report.price) and floor - e <= report.price <= df + e):
                failures.append(f"{name} price {report.price} outside [{floor}, {df}]: {case}")

        # (label, moved price, +1 where the move raises the price, -1 where it lowers it)
        moved = [
            ("V x1.05", exogenous(V=1.05 * V), 1.0),
            ("R +0.05", exogenous(R=min(1.0, R + 0.05)), 1.0),
        ]
        moved += [(label, exogenous(schedule=lower), -1.0) for label, lower in _moves(schedule)]
        for label, report, sign in moved:
            if sign * (report.price - base.price) < -(_error(report) + _error(base)):
                failures.append(
                    f"exogenous price {base.price} -> {report.price} under {label}: {case}"
                )
    assert not failures, "\n".join(failures)
