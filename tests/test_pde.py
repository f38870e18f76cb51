import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import defbond as db
from defbond import pde
from defbond.binaries import BinarySpec, BsCoefficients, price_binary
from defbond.errors import DomainError
from defbond.pde import CascadeSolution, GridSpec, _Interval, _Space, sample
from test_properties import _draw

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_grid_spec_validation():
    with pytest.raises(DomainError):
        GridSpec(10.0, 5.0)
    with pytest.raises(DomainError):
        GridSpec(1.0, 100.0, n_space=32)
    with pytest.raises(DomainError):
        GridSpec(1.0, 100.0, n_time_per_interval=4)
    with pytest.raises(DomainError):
        GridSpec(1e-3, 1e5, 100.5)
    with pytest.raises(DomainError):
        GridSpec(1e-3, 1e5, "2048")
    with pytest.raises(DomainError):
        GridSpec(1e-3, 1e5, n_time_per_interval=True)
    assert GridSpec(1e-3, 1e5, np.int64(128)).n_space == 128


def test_grid_auto_spans_inputs(market, schedule, endo_high_barrier):
    grid = GridSpec.auto(market, schedule, 200.0, endo_high_barrier)
    assert grid.x_min <= min(min(schedule.barriers), endo_high_barrier.cap) / 20.0
    assert grid.x_max >= 20.0 * max(max(schedule.barriers), endo_high_barrier.cap, 200.0)


def test_domain_check_rejects_non_spanning_grid(market, schedule, endo_high_barrier):
    with pytest.raises(DomainError):
        db.solve_endogenous_cascade(
            market, schedule, endo_high_barrier, GridSpec(150.0, 10000.0, 128, 32)
        )


def test_domain_check_rejects_grid_below_recovery_cap(market, schedule):
    rec = db.RecoveryModel("endogenous", 0.5, n=10_000.0)  # cap 20000
    with pytest.raises(DomainError):
        db.solve_endogenous_cascade(market, schedule, rec, GridSpec(1.0, 10000.0, 128, 32))


@pytest.mark.parametrize("lam", [0.1, 0.0])
def test_grid_wholly_above_every_barrier_rejected(market, lam):
    # gluing needs every barrier on the grid, with or without a live jump
    # channel
    schedule = db.DefaultSchedule((0.0, 3.0, 6.0), (lam, lam), (1e-10, 1e-10))
    rec = db.RecoveryModel("endogenous", 0.5, n=100.0)
    with pytest.raises(DomainError, match="strictly inside"):
        db.solve_endogenous_cascade(market, schedule, rec, GridSpec(1.0, 4000.0, 128, 32))


def test_constant_solution_no_default_channels(market):
    # no intensity and barriers far under the spot: from x = 1 up to the
    # spot the cascade is identically one.  Rows near the grid edges carry
    # the other edge's data through the remainder's wrap-around, so only
    # the span that ``auto`` keeps out of their reach is checked
    schedule = db.DefaultSchedule((0.0, 3.0, 6.0), (0.0, 0.0), (1e-10, 1e-10))
    for rec in (
        db.RecoveryModel("exogenous", 0.37),
        db.RecoveryModel("endogenous", 0.5, n=1.0),
        db.RecoveryModel("endogenous", 0.0, n=1.0),
    ):
        grid = GridSpec.auto(market, schedule, 200.0, rec, 128, 32)
        if rec.mode == "exogenous":
            sol = db.solve_exogenous_cascade(market, schedule, rec, grid)
        else:
            sol = db.solve_endogenous_cascade(market, schedule, rec, grid)
        upper = (sol.y >= 0.0) & (sol.y <= math.log(200.0))
        assert max(float(np.abs(v[:, upper] - 1.0).max()) for v in sol.values) <= 1e-10


def test_exogenous_full_recovery_constant(market, schedule):
    rec = db.RecoveryModel("exogenous", 1.0)
    grid = GridSpec.auto(market, schedule, 200.0, rec, n_space=128, n_time_per_interval=32)
    sol = db.solve_exogenous_cascade(market, schedule, rec, grid)
    assert max(float(np.abs(v - 1.0).max()) for v in sol.values) < 1e-10


def test_single_interval_matches_closed_form(market):
    # one date, no intensity: the cascade is a single binary pair
    schedule = db.DefaultSchedule((0.0, 4.0), (0.0,), (100.0,))
    rec = db.RecoveryModel("endogenous", 0.5, n=50.0)  # cap 100: recovery x/100 below barrier
    grid = GridSpec.auto(market, schedule, 150.0, rec, n_space=1024, n_time_per_interval=512)
    sol = db.solve_endogenous_cascade(market, schedule, rec, grid)
    co = BsCoefficients(0.0, market.b, market.s_V)
    for x in (60.0, 90.0, 110.0, 150.0, 300.0):
        closed = price_binary(BinarySpec("bond", (1,), (100.0,), (4.0,), co), x, 0.0)
        closed += 0.01 * price_binary(BinarySpec("asset", (-1,), (100.0,), (4.0,), co), x, 0.0)
        assert sample(sol, x, 0.0) == pytest.approx(closed, abs=5e-4)


def test_negative_growth_small_spot_boundary(market):
    # b + lam < 0: under the barrier the recovery x / cap grows backward in
    # time.  Spots from 5 x_min up; nearer the grid's lower edge the
    # wrap-around reaches them (3.8e-5 off at 1.5 x_min)
    market = db.MarketParams(market.r, -0.3, 0.3)
    schedule = db.DefaultSchedule((0.0, 2.0), (0.1,), (100.0,))
    rec = db.RecoveryModel("endogenous", 0.5, n=50.0)
    grid = GridSpec.auto(market, schedule, 150.0, rec, n_space=1024, n_time_per_interval=1024)
    sol = db.solve_endogenous_cascade(market, schedule, rec, grid)
    for x in (5.0 * grid.x_min, 10.0 * grid.x_min, 20.0 * grid.x_min):
        V = x * math.exp(-market.r * schedule.maturity)
        closed = db.price_endogenous(market, schedule, rec, V, 0.0).relative_price
        assert sample(sol, x, 0.0) == pytest.approx(closed, abs=2e-5), x


def test_zero_growth_small_spot_boundary(market):
    # b + lam = 0 exactly in every interval, where an affine recovery x / cap
    # under the barrier neither grows nor decays in the mean
    lam = 0.02
    market = db.MarketParams(market.r, -lam, market.s_V)
    schedule = db.DefaultSchedule((0.0, 3.0, 6.0), (lam, lam), (100.0, 100.0))
    rec = db.RecoveryModel("endogenous", 0.5, n=50.0)
    grid = GridSpec.auto(market, schedule, 200.0, rec, n_space=512, n_time_per_interval=256)
    sol = db.solve_endogenous_cascade(market, schedule, rec, grid)
    for x in (60.0, 100.0, 200.0, 400.0):
        V = x * math.exp(-market.r * schedule.maturity)
        closed = db.price_endogenous(market, schedule, rec, V, 0.0).relative_price
        assert sample(sol, x, 0.0) == pytest.approx(closed, abs=1e-3), x


def test_recovery_mode_mismatch_rejected(market, schedule, exo, endo_high_barrier):
    grid = GridSpec.auto(market, schedule, 200.0, exo, n_space=128, n_time_per_interval=32)
    with pytest.raises(DomainError):
        db.solve_endogenous_cascade(market, schedule, exo, grid)
    with pytest.raises(DomainError):
        db.solve_exogenous_cascade(market, schedule, endo_high_barrier, grid)


def test_survival_single_barrier_matches_binary(market):
    # zero exogenous recovery: the cascade is the survival probability W
    schedule = db.DefaultSchedule((0.0, 4.0), (0.0,), (100.0,))
    rec = db.RecoveryModel("exogenous", 0.0)
    grid = GridSpec.auto(market, schedule, 150.0, rec, n_space=1024, n_time_per_interval=512)
    sol = db.solve_exogenous_cascade(market, schedule, rec, grid)
    co = BsCoefficients(0.0, market.b, market.s_V)
    for x in (70.0, 120.0, 250.0):
        closed = price_binary(BinarySpec("bond", (1,), (100.0,), (4.0,), co), x, 0.0)
        assert sample(sol, x, 0.0) == pytest.approx(closed, abs=5e-4)


def test_exogenous_cascade_is_affine_in_recovery(market, schedule, exo):
    # u = R + (1 - R) W holds on the grid too: gluing, source and boundary
    # values are all affine in R
    grid = GridSpec.auto(market, schedule, 200.0, exo, n_space=512, n_time_per_interval=128)
    direct = db.solve_exogenous_cascade(market, schedule, exo, grid)
    zero = db.RecoveryModel("exogenous", 0.0)
    w = db.solve_exogenous_cascade(market, schedule, zero, grid)
    R = exo.R
    worst = max(
        float(np.abs(a - (R + (1.0 - R) * b)).max()) for a, b in zip(direct.values, w.values)
    )
    assert worst < 1e-10


def test_base_scenario_cross_oracle(market, schedule, exo, endo_high_barrier):
    x = 200.0
    grid = GridSpec.auto(market, schedule, x, endo_high_barrier, n_space=1024, n_time_per_interval=512)
    sol_e = db.solve_endogenous_cascade(market, schedule, endo_high_barrier, grid)
    sol_x = db.solve_exogenous_cascade(market, schedule, exo, GridSpec.auto(market, schedule, x, exo, 1024, 512))
    zero = db.RecoveryModel("exogenous", 0.0)
    sol_w = db.solve_exogenous_cascade(market, schedule, zero, GridSpec.auto(market, schedule, x, zero, 1024, 512))
    for t in (0.0, 2.0, 3.0, 5.0):
        V = x * math.exp(-market.r * (6.0 - t))
        u_closed = db.price_endogenous(market, schedule, endo_high_barrier, V, t).relative_price
        assert sample(sol_e, x, t) == pytest.approx(u_closed, abs=1e-4)
        rep = db.price_exogenous(market, schedule, exo, V, t)
        assert sample(sol_x, x, t) == pytest.approx(rep.relative_price, abs=1e-4)
        assert sample(sol_w, x, t) == pytest.approx(rep.survival_prob, abs=1e-4)


def test_solution_within_payoff_envelope(market, schedule, endo_high_barrier, exo):
    # checked between the lowest and highest of the barriers, the cap and
    # the spot, the span ``auto`` keeps out of the edges' reach: rows near
    # an edge carry the other edge's data through the wrap-around
    zero = db.RecoveryModel("exogenous", 0.0)
    for rec, solve, top in (
        (endo_high_barrier, db.solve_endogenous_cascade, 1e-8),
        (zero, db.solve_exogenous_cascade, 1e-10),
    ):
        sol = solve(market, schedule, rec, GridSpec.auto(market, schedule, 200.0, rec, 256, 64))
        refs = [*schedule.barriers, 200.0] + ([rec.cap] if math.isfinite(rec.cap) else [])
        inner = (sol.y >= math.log(min(refs))) & (sol.y <= math.log(max(refs)))
        for v in sol.values:
            assert np.all(np.isfinite(v))
            assert v[:, inner].min() >= -1e-10
            assert v[:, inner].max() <= 1.0 + top


def test_jumps_only_at_announcing_dates(market, schedule, exo):
    grid = GridSpec.auto(market, schedule, 200.0, exo, n_space=512, n_time_per_interval=256)
    sol = db.solve_exogenous_cascade(market, schedule, exo, grid)
    j_below = int(np.searchsorted(sol.y, math.log(50.0)))
    # gluing at t_1 cuts the sub-barrier value down to the recovery
    glued = sol.values[0][-1]
    continuation = sol.values[1][0]
    assert abs(glued[j_below] - exo.R) < 1e-12
    assert continuation[j_below] - glued[j_below] > 0.02
    # away from the gluing the solution moves smoothly in time
    interior = [sample(sol, 400.0, float(t)) for t in np.linspace(0.0, 3.0, 257)[1:-1]]
    step = np.abs(np.diff(interior)).max()
    assert step < 5e-3


def test_second_order_convergence(market):
    schedule = db.DefaultSchedule((0.0, 2.0), (0.3,), (100.0,))
    rec = db.RecoveryModel("endogenous", 0.5, n=1.0)
    probes = [65.0, 80.0, 120.0, 140.0, 170.0, 210.0, 260.0, 320.0, 400.0, 520.0]

    def errs(n):
        grid = GridSpec.auto(market, schedule, 200.0, rec, n_space=n, n_time_per_interval=n)
        sol = db.solve_endogenous_cascade(market, schedule, rec, grid)
        out = []
        df = math.exp(-market.r * schedule.maturity)
        for x in probes:
            closed = db.price_endogenous(market, schedule, rec, x * df, 0.0).relative_price
            out.append(sample(sol, x, 0.0) - closed)
        return np.linalg.norm(out)

    # the error falls 19 times from 256 to 512 nodes, and from 512 on at
    # second order: 3.7 to 4.2 times per doubling
    e_coarse = errs(512)
    e_fine = errs(1024)
    ratio = e_coarse / e_fine
    assert 2.5 <= ratio <= 8.0


def _space(m=256, sigma=0.4, mu=-0.13, paid=(0.3, 0.002)):
    """A Fourier grid on [0, 6] with the recovery p0 + p1 z paid."""
    y = np.linspace(0.0, 6.0, m + 1)
    return _Space(y, sigma, mu, paid[0] + paid[1] * (y - y[0]))


def test_non_finite_data_rejected():
    # a NaN in the glued data spreads through every mode; no interval is
    # built from it
    space = _space(64)
    cont = np.ones_like(space.y)
    cont[30] = np.nan
    with pytest.raises(ValueError):
        _Interval(space, 0.02, 0.0, 1.0, cont, cont, np.array([[0.5], [3.0], [0.0]]))


@pytest.mark.parametrize("lam", [0.0, 0.03, 7.0])
def test_interval_moves_each_part_exactly(lam):
    # glued data of a line, a periodic wave and a barrier jump, with a source
    # lam (p0 + p1 z): each part has an exact solution on the whole line, so
    # every row matches to rounding.  The line's coefficients come from the
    # exponential of their own linear system here; the wave moves as
    # e^(psi tau) cos(k (z + mu tau)) and the jump as a normal CDF
    from scipy.linalg import expm
    from scipy.special import ndtr

    sigma, mu, (p0, p1) = 0.4, -0.13, (0.3, 0.002)
    space = _space(256, sigma, mu, (p0, p1))
    y, z = space.y, space.z
    c0, c1, wave, k = 0.55, 0.04, 0.2, 2.0 * math.pi * 3 / z[-1]
    jump, barrier = 0.35, y[97] + 0.4 * (y[1] - y[0])
    cont = c0 + c1 * z + wave * np.cos(k * z)
    terminal = cont + jump * (y > barrier)
    step = _Interval(space, lam, 0.5, 2.0, terminal, cont, np.array([[jump], [barrier], [0.0]]))
    assert np.array_equal(step.kept[-1], terminal)
    system = np.array([[-lam, mu, lam * p0], [0.0, -lam, lam * p1], [0.0, 0.0, 0.0]])
    for t in (0.5, 0.9, 1.7, 2.0 - 1e-9):
        tau = 2.0 - t
        level, slope, _ = expm(tau * system) @ np.array([c0, c1, 1.0])
        want = (
            level + slope * z
            + wave * math.exp(-(0.5 * sigma**2 * k**2 + lam) * tau) * np.cos(k * (z + mu * tau))
            + jump * math.exp(-lam * tau) * ndtr((y + mu * tau - barrier) / (sigma * math.sqrt(tau)))
        )
        got = step.row(t) + np.array([step.jump(v, t) for v in y])
        assert np.max(np.abs(got - want)) <= 1e-13, (lam, t)
    # the row at t_lo, jump included on the nodes
    got = step.row(0.5) + np.array([step.jump(v, 0.5) for v in y])
    assert np.max(np.abs(step.kept[0] - got)) <= 1e-14


def test_gluing_is_pointwise():
    # each glued row is the next interval's row at its start (ones after the
    # last) above ln B and the recovery at or below it, bit for bit: on
    # hand-built grids with a barrier in the first cell, in the last cell and
    # exactly on a node, then on seeded random grids and barriers
    market = db.MarketParams(0.05, 0.03, 0.4)
    recoveries = (db.RecoveryModel("exogenous", 0.4), db.RecoveryModel("endogenous", 0.5, n=50.0))

    def check(sol, rec, barriers):
        paid = rec.paid(np.exp(sol.y))
        for i, barrier in enumerate(barriers):
            nxt = sol.values[i + 1][0] if i + 1 < len(barriers) else np.ones_like(sol.y)
            glued = np.where(sol.y > math.log(barrier), nxt, paid)
            assert np.array_equal(sol.values[i][-1], glued), (i, barrier)

    grid = GridSpec(10.0, 1000.0, 128, 16)
    y = np.linspace(math.log(grid.x_min), math.log(grid.x_max), grid.n_space + 1)
    dy = y[1] - y[0]
    barriers = (math.exp(y[0] + 0.3 * dy), math.exp(y[-1] - 0.4 * dy), math.exp(y[40]))
    schedule = db.DefaultSchedule((0.0, 1.0, 2.0, 3.0), (0.02,) * 3, barriers)
    for rec in recoveries:
        check(pde._cascade(market, schedule, rec, grid), rec, barriers)
    rng = np.random.default_rng(39)
    for case in range(100):
        x_min = 10.0 ** rng.uniform(-1.0, 1.5)
        x_max = x_min * 10.0 ** rng.uniform(2.5, 4.0)
        grid = GridSpec(x_min, x_max, int(rng.integers(64, 300)), 16)
        barriers = tuple(float(x_min * (x_max / x_min) ** rng.uniform(0.0, 1.0)) for _ in range(2))
        schedule = db.DefaultSchedule((0.0, 1.0, 2.0), (0.02, 0.02), barriers)
        # an endogenous cap mid-grid, where the recovery still varies
        cap = math.sqrt(x_min * x_max)
        rec = recoveries[0] if case % 2 else db.RecoveryModel("endogenous", 0.5, n=0.5 * cap)
        check(pde._cascade(market, schedule, rec, grid), rec, barriers)


def test_sharp_jumps_carried_across_a_short_interval():
    # the jump glued at 3.000001 is still under a cell wide at the gluing at
    # 3, 0.26 in log spot above that barrier, so it joins the new jump there
    # in closed form; put on the nodes instead it is 1.6e-5 off at t = 0
    market = db.MarketParams(0.1, 0.05, 1.0)
    schedule = db.DefaultSchedule(
        (0.0, 1.5, 3.0, 3.000001, 4.5, 6.0),
        (0.002, 0.004, 0.3, 0.005, 0.003),
        (80.0, 100.0, 130.0, 100.0, 90.0),
    )
    rec = db.RecoveryModel("exogenous", 0.5)
    sol = db.solve_exogenous_cascade(market, schedule, rec, GridSpec.auto(market, schedule, 200.0, rec))
    for t in (0.0, 1.0, 2.9999999999999996, 3.0000005):
        df = math.exp(-market.r * (schedule.maturity - t))
        closed = db.price_exogenous(market, schedule, rec, 200.0 * df, t).price
        assert df * sample(sol, 200.0, t) == pytest.approx(closed, rel=0.0, abs=1e-6), t


def test_cascade_matches_closed_form_over_the_property_box():
    # the seeded property corpus's first 125 cases at seeds 11 and 23, both
    # recovery modes, 2048-node auto grids: every PDE price within 5e-5 of
    # the closed form (4.8e-7 measured)
    failures = []
    for seed in (11, 23):
        rng = np.random.default_rng(seed)
        for case in range(125):
            market, schedule, R, cap, x, t = _draw(rng)
            df = math.exp(-market.r * (schedule.maturity - t))
            for rec in (db.RecoveryModel("exogenous", R), db.RecoveryModel("endogenous", R, n=cap * R)):
                grid = GridSpec.auto(market, schedule, x, rec)
                if rec.mode == "exogenous":
                    pde_price = sample(db.solve_exogenous_cascade(market, schedule, rec, grid), x, t)
                    closed = db.price_exogenous(market, schedule, rec, x * df, t)
                else:
                    pde_price = sample(db.solve_endogenous_cascade(market, schedule, rec, grid), x, t)
                    closed = db.price_endogenous(market, schedule, rec, x * df, t)
                gap = abs(closed.price - df * pde_price)
                if not gap <= 5e-5:
                    failures.append(f"seed {seed} case {case} {rec.mode}: |closed - pde| = {gap:.3e}")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("name", ["base_exogenous", "base_endogenous_low_barrier",
                                  "base_endogenous_high_barrier"])
def test_bundled_cascades_match_closed_form(name):
    # 15 times on [0, 5.9], on both sides of the interior date, from one
    # 2048-node cascade: within 1.1e-8 of the closed form (measured)
    scenario = db.load_scenario(SCENARIOS / f"{name}.yaml")
    market, schedule, rec = scenario.market, scenario.schedule, scenario.recovery
    grid = GridSpec.auto(market, schedule, 200.0, rec)
    if rec.mode == "exogenous":
        sol, price = db.solve_exogenous_cascade(market, schedule, rec, grid), db.price_exogenous
    else:
        sol, price = db.solve_endogenous_cascade(market, schedule, rec, grid), db.price_endogenous
    for t in np.linspace(0.0, 5.9, 15):
        df = math.exp(-market.r * (schedule.maturity - t))
        closed = price(market, schedule, rec, 200.0 * df, float(t)).price
        assert df * sample(sol, 200.0, float(t)) == pytest.approx(closed, rel=0.0, abs=5e-8), t


@pytest.mark.parametrize("name", ["base_exogenous", "base_endogenous_low_barrier"])
@pytest.mark.parametrize("s_v", [0.01, 0.02, 0.2, 2.0, 3.0])
def test_low_volatility_cascade_matches_closed_form(name, s_v):
    scenario = db.load_scenario(SCENARIOS / f"{name}.yaml")
    market = db.MarketParams(scenario.market.r, scenario.market.b, s_v)
    schedule, rec = scenario.schedule, scenario.recovery
    firm = scenario.firm_value(0.0)
    df = math.exp(-market.r * schedule.maturity)
    grid = GridSpec.auto(market, schedule, firm / df, rec)
    if rec.mode == "exogenous":
        sol = db.solve_exogenous_cascade(market, schedule, rec, grid)
        closed = db.price_exogenous(market, schedule, rec, firm, 0.0).price
    else:
        sol = db.solve_endogenous_cascade(market, schedule, rec, grid)
        closed = db.price_endogenous(market, schedule, rec, firm, 0.0).price
    assert df * sample(sol, firm / df, 0.0) == pytest.approx(closed, rel=0.0, abs=1e-6)


# ------------------------------------------------------------------ sampling


def test_cascade_at_maturity_is_the_terminal_payoff(market, schedule, exo, endo_high_barrier):
    # interval i spans [t_i, t_{i+1}] and keeps its two end rows; at t = T
    # the glued terminal row holds every jump: 1 above the last barrier and
    # the recovery below it, R or x / cap
    for rec in (exo, endo_high_barrier):
        grid = GridSpec.auto(market, schedule, 200.0, rec, 256, 64)
        solve = db.solve_exogenous_cascade if rec.mode == "exogenous" else db.solve_endogenous_cascade
        sol = solve(market, schedule, rec, grid)
        assert [times.tolist() for times in sol.times] == [[0.0, 3.0], [3.0, 6.0]]
        assert all(values.shape == (2, len(sol.y)) for values in sol.values)
        assert [sample(sol, x, 6.0) for x in (150.0, 400.0)] == [1.0, 1.0]
        below = (0.05, 0.3, 1.0)
        if rec.mode == "exogenous":
            assert [sample(sol, x, 6.0) for x in below] == [rec.R] * 3
        else:
            for x in below:
                assert sample(sol, x, 6.0) == pytest.approx(x / rec.cap, rel=0.0, abs=1e-6)


def test_recovery_cap_under_the_grid_pays_in_full(market, schedule, endo_high_barrier):
    # the cap 2 lies under x_min = 10, so the recovery is 1 on every node,
    # with no kink on the grid, and the bond is riskless
    grid = GridSpec(10.0, 1e5, 256, 64)
    sol = db.solve_endogenous_cascade(market, schedule, endo_high_barrier, grid)
    for x in (20.0, 80.0, 150.0, 1000.0):
        for t in (0.0, 1.3, 3.0, 4.5, 6.0):
            assert sample(sol, x, t) == pytest.approx(1.0, rel=0.0, abs=1e-12)


class _TwoRows:
    """A stepper on [0, 1] whose rows are linear in t between its two kept
    rows, with no jump terms."""

    times = np.array([0.0, 1.0])
    kept = np.array([[1.0, 3.0, 5.0, 7.0, 9.0], [2.0, 4.0, 6.0, 8.0, 10.0]])

    def row(self, t):
        return (1.0 - t) * self.kept[0] + t * self.kept[1]

    def jump(self, y, t):
        return 0.0


def _toy_solution():
    return CascadeSolution((0.0, 1.0), np.array([0.0, 1.0, 2.0, 3.0, 4.0]), [_TwoRows()])


def test_sample_exact_node():
    sol = _toy_solution()
    assert sample(sol, math.exp(1.0), 0.0) == 3.0
    assert sample(sol, math.exp(2.0), 1.0) == 6.0


def test_sample_bilinear_midpoint():
    sol = _toy_solution()
    assert sample(sol, math.exp(0.5), 0.5) == pytest.approx(2.5, abs=1e-14)


def test_sample_out_of_hull():
    sol = _toy_solution()
    with pytest.raises(DomainError):
        sample(sol, math.exp(4.5), 0.5)
    with pytest.raises(DomainError):
        sample(sol, 1.5, 1.5)


def test_sample_interpolation_against_finer_grid(market, schedule, exo):
    coarse = db.solve_exogenous_cascade(
        market, schedule, exo, GridSpec.auto(market, schedule, 200.0, exo, 512, 128)
    )
    fine = db.solve_exogenous_cascade(
        market, schedule, exo, GridSpec.auto(market, schedule, 200.0, exo, 2048, 512)
    )
    rng = np.random.default_rng(3)
    for _ in range(12):
        x = math.exp(rng.uniform(math.log(50.0), math.log(500.0)))
        t = rng.uniform(0.0, 5.99)
        # truncation of the coarse grid dominates near the gluing kinks
        assert sample(coarse, x, t) == pytest.approx(sample(fine, x, t), abs=1.5e-3)


# Values of the cascade on a 256-node grid, exact in time.  Rows: x = 80,
# 150, 400; columns: t = 0, 1.3, 3, 4.5.  They sit within 3.3e-7, 4.5e-6
# and 1.8e-6 of the closed form.
_PINNED = {
    "base_exogenous": (
        0.5230734627243201, 0.5278132342762277, 0.568832867926633, 0.5972938783695066,
        0.5421443966959509, 0.5562281081329563, 0.6163488577909566, 0.6816172304911495,
        0.5903388371237034, 0.6271296025932005, 0.716475725353867, 0.8357869878119023,
    ),
    "base_endogenous_low_barrier": (
        0.15041924795525877, 0.2003617376426559, 0.22949690016966662, 0.3283581658941224,
        0.21071651250606338, 0.2765362078061676, 0.3385027641813879, 0.49789042536415484,
        0.32567339651814214, 0.4113329950213529, 0.5405191422508395, 0.7630232303696903,
    ),
    "base_endogenous_high_barrier": (
        0.9403335948958769, 0.9902098739054721, 0.9434838581525609, 0.9971353027440545,
        0.9686257353349949, 0.9919616301994055, 0.9730184957025217, 0.9994207599785626,
        0.9867716306079778, 0.9907560633549621, 0.9931616598915718, 0.9999701833375843,
    ),
}


# The same grids at x = 80, 150, 400 (rows) and at five more times
# (columns), one of them the interior announcing date.
_PINNED_TIMES = (0.75, 2.0, 3.0, 3.5, 3.7)
_PINNED_STEPS = {
    "base_exogenous": (
        0.5258587206960053, 0.5295417925815236, 0.568832867926633, 0.5770641115702864, 0.5806838037167329,
        0.5495748108462272, 0.5671974445778515, 0.6163488577909566, 0.6332618307385462, 0.6410873537243472,
        0.6092973870670458, 0.6573869895000473, 0.716475725353867, 0.7483015967732274, 0.76289578465045,
    ),
    "base_endogenous_low_barrier": (
        0.1767655633310929, 0.23862859338861547, 0.22949690016966662, 0.25711194078142574, 0.26944436487886236,
        0.2460424180365976, 0.3216671937786958, 0.3385027641813879, 0.38155785001016035, 0.4010841026836879,
        0.37322426033238576, 0.46106006152918355, 0.5405191422508395, 0.6038951813224631, 0.6319684351290307,
    ),
    "base_endogenous_high_barrier": (
        0.9763210453586993, 0.9943720871253056, 0.9434838581525609, 0.9697618856323773, 0.9780281296614447,
        0.9873809802269947, 0.9906465138272579, 0.9730184957025217, 0.9878571164223002, 0.9919358770375117,
        0.9911277252384654, 0.9888828188207428, 0.9931616598915718, 0.9977655002268628, 0.9987439254190371,
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_pinned_bundled_cascades(name):
    scenario = db.load_scenario(SCENARIOS / f"{name}.yaml")
    market, schedule, rec = scenario.market, scenario.schedule, scenario.recovery
    grid = GridSpec.auto(market, schedule, 200.0, rec, n_space=256, n_time_per_interval=64)
    solve = db.solve_exogenous_cascade if rec.mode == "exogenous" else db.solve_endogenous_cascade
    sol = solve(market, schedule, rec, grid)
    got = [sample(sol, x, t) for x in (80.0, 150.0, 400.0) for t in (0.0, 1.3, 3.0, 4.5)]
    steps = [sample(sol, x, t) for x in (80.0, 150.0, 400.0) for t in _PINNED_TIMES]
    assert got == pytest.approx(_PINNED[name], rel=0.0, abs=1e-12)
    assert steps == list(_PINNED_STEPS[name])


def test_time_steps_are_unread():
    # every interval is exact in time, at s_V = 0.05 and at s_V = 1:
    # n_time_per_interval changes no sample
    scenario = db.load_scenario(SCENARIOS / "base_exogenous.yaml")
    schedule, rec = scenario.schedule, scenario.recovery
    for s_v in (0.05, 1.0):
        market = db.MarketParams(scenario.market.r, scenario.market.b, s_v)
        runs = []
        for n_time in (16, 2048):
            grid = GridSpec.auto(market, schedule, 200.0, rec, 256, n_time)
            sol = db.solve_exogenous_cascade(market, schedule, rec, grid)
            runs.append([sample(sol, x, t) for x in (80.0, 200.0) for t in (0.0, 1.3, 3.0, 4.5)])
        assert runs[0] == runs[1], s_v


# each interval keeps its two end rows, whatever s_V
_HISTORY_SCRIPT = """
import resource
import defbond as db
from defbond.pde import GridSpec, sample

n = 32
market = db.MarketParams(0.05, 0.02, 0.02)
schedule = db.DefaultSchedule(tuple(0.25 * k for k in range(n + 1)), (0.01,) * n, (80.0,) * n)
rec = db.RecoveryModel("exogenous", 0.4)
grid = GridSpec.auto(market, schedule, 100.0, rec)
sol = db.solve_exogenous_cascade(market, schedule, rec, grid)
print(sample(sol, 100.0, 1.3))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def test_cascade_history_memory_is_bounded():
    # a 32-interval cascade on the default 2048^2 grid peaks at no more than
    # 300 MB of resident memory in a fresh interpreter
    env = dict(os.environ, PYTHONPATH=str(Path(pde.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", _HISTORY_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    price, peak_mb = map(float, proc.stdout.split())
    assert 0.0 < price < 1.0
    assert peak_mb <= 300, f"peak RSS {peak_mb:.1f} MB exceeds 300 MB"
