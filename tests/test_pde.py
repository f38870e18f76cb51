import math
from pathlib import Path

import numpy as np
import pytest

import defbond as db
from defbond import pde
from defbond.binaries import BinarySpec, BsCoefficients, price_binary
from defbond.errors import DomainError
from defbond.pde import (
    CascadeSolution,
    GridSpec,
    _bracket,
    _edges,
    _SineStepper,
    _stepper,
    _Stepper,
    sample,
)

from oracles import propagate_terminal

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_grid_spec_validation():
    with pytest.raises(DomainError):
        GridSpec(10.0, 5.0)
    with pytest.raises(DomainError):
        GridSpec(1.0, 100.0, n_space=32)
    with pytest.raises(DomainError):
        GridSpec(1.0, 100.0, n_time_per_interval=4)


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


def test_unreachable_barriers_with_live_jump_channel_rejected(market):
    # barriers under the grid plus a live jump channel: the small-spot
    # boundary value has no closed form below the recovery cap
    schedule = db.DefaultSchedule((0.0, 3.0, 6.0), (0.1, 0.1), (1e-10, 1e-10))
    rec = db.RecoveryModel("endogenous", 0.5, n=100.0)  # cap 200 > x_min
    with pytest.raises(DomainError):
        db.solve_endogenous_cascade(market, schedule, rec, GridSpec(1.0, 4000.0, 128, 32))


def test_constant_solution_no_default_channels(market):
    # no intensity, barriers below the grid: the cascade is identically one
    schedule = db.DefaultSchedule((0.0, 3.0, 6.0), (0.0, 0.0), (1e-10, 1e-10))
    grid = GridSpec(1.0, 4000.0, 128, 32)
    for rec in (
        db.RecoveryModel("exogenous", 0.37),
        db.RecoveryModel("endogenous", 0.5, n=1.0),
        db.RecoveryModel("endogenous", 0.0, n=1.0),
    ):
        if rec.mode == "exogenous":
            sol = db.solve_exogenous_cascade(market, schedule, rec, grid)
        else:
            sol = db.solve_endogenous_cascade(market, schedule, rec, grid)
        assert max(float(np.abs(v - 1.0).max()) for v in sol.values) < 1e-10


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
    # b + lam < 0: the small-spot slope grows backward in time, which only
    # the exact boundary solution follows
    market = db.MarketParams(market.r, -0.3, 0.3)
    schedule = db.DefaultSchedule((0.0, 2.0), (0.1,), (100.0,))
    rec = db.RecoveryModel("endogenous", 0.5, n=50.0)
    grid = GridSpec.auto(market, schedule, 150.0, rec, n_space=1024, n_time_per_interval=1024)
    sol = db.solve_endogenous_cascade(market, schedule, rec, grid)
    x = 1.5 * grid.x_min
    V = x * math.exp(-market.r * schedule.maturity)
    closed = db.price_endogenous(market, schedule, rec, V, 0.0).relative_price
    assert sample(sol, x, 0.0) == pytest.approx(closed, abs=2e-5)


def test_zero_growth_small_spot_boundary(market):
    # b + lam = 0 exactly: the small-spot slope stays constant, c = 1 +
    # lam (t_{i+1} - t), the g -> 0 limit of the g != 0 solution; the
    # symmetric mean of g = +-1e-9 cancels the first-order term
    lam, t_hi = 0.02, 3.0

    def near(g):
        return _edges(g - lam, lam, t_hi, 0.01, 0.0, 0.25, 1.0)[0]

    for t in (0.0, 1.0, 2.9):
        limit = 0.5 * (near(1e-9)(t) + near(-1e-9)(t))
        assert abs(near(0.0)(t) - limit) <= 1e-12, t
    # a cascade with b = -lam in every interval against the closed form
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
    grid = GridSpec.auto(market, schedule, 200.0, endo_high_barrier, n_space=256, n_time_per_interval=64)
    sol = db.solve_endogenous_cascade(market, schedule, endo_high_barrier, grid)
    for v in sol.values:
        assert np.all(np.isfinite(v))
        assert v.min() >= -1e-10
        assert v.max() <= 1.0 + 1e-8
    zero = db.RecoveryModel("exogenous", 0.0)
    solw = db.solve_exogenous_cascade(market, schedule, zero, GridSpec.auto(market, schedule, 200.0, zero, 256, 64))
    for v in solw.values:
        assert v.min() >= -1e-10 and v.max() <= 1.0 + 1e-10


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
    interior = [sample(sol, 400.0, float(t)) for t in sol.times[0][1:-1]]
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

    e_coarse = errs(256)
    e_fine = errs(512)
    ratio = e_coarse / e_fine
    assert 2.5 <= ratio <= 8.0


def test_richardson_warning_on_coarse_grid(market, schedule, exo):
    grid = GridSpec.auto(market, schedule, 200.0, exo, n_space=128, n_time_per_interval=32)
    sol = db.solve_exogenous_cascade(market, schedule, exo, grid, check_tolerance=1e-9)
    assert sol.accuracy_warning is not None
    fine = GridSpec.auto(market, schedule, 200.0, exo, n_space=1024, n_time_per_interval=256)
    sol2 = db.solve_exogenous_cascade(market, schedule, exo, fine, check_tolerance=1e-2)
    assert sol2.accuracy_warning is None


def test_non_finite_data_rejected():
    # a NaN in the terminal row spreads through every solve; the march
    # refuses to return it
    y = np.linspace(0.0, 6.0, 65)
    terminal = np.ones_like(y)
    terminal[30] = np.nan
    coeffs = BsCoefficients(0.05, 0.0, 0.3)
    with pytest.raises(ValueError):
        propagate_terminal(y, terminal, coeffs, 0.0, 1.0, 16, lambda t: 0.0, lambda t: 1.0)


def test_step_matches_unfolded_formula():
    # step() folds the explicit half through (I - hA)^-1 (I + hA) = 2 (I - hA)^-1 - I,
    # so it solves for 2u + dt f and subtracts u; on random rows it must match
    # the solve of the unfolded right side u + (dt/2) A u + dt f to a few ulps
    # of that sum's terms.  The solve's matrix is diagonally dominant by at
    # least 1, so it does not amplify the difference.  The last step is the
    # Rannacher start-up.
    rng = np.random.default_rng(21)
    y = np.linspace(0.0, 6.0, 129)
    h = y[1] - y[0]
    sigma, mu, rho = 0.4, -0.13, 0.02
    alpha = sigma * sigma / (2.0 * h * h)
    lo_c, di_c, up_c = alpha - mu / (2.0 * h), -2.0 * alpha - rho, alpha + mu / (2.0 * h)
    f = rng.uniform(0.0, 0.05, len(y) - 2)
    stepper = _Stepper(y, sigma, mu, rho, f, lambda t: 0.2, lambda t: 0.9, 0.5, 2.0, 32)
    half, dt = stepper.half, stepper.dt
    for k in (7, stepper.n_steps - 1):
        u = rng.uniform(-1.0, 1.0, len(y))
        got = stepper.step(k, u, np.empty_like(u))
        want = np.empty_like(u)
        if k == stepper.n_steps - 1:
            want[1:-1] = u[1:-1] + half * f
            stepper._solve(want, 0.0, 0.0, stepper.t_hi - half)
            want[1:-1] += half * f
            terms = np.abs(want[1:-1]) + half * f
        else:
            parts = (
                u[1:-1],
                half * (lo_c * u[:-2]),
                half * (di_c * u[1:-1]),
                half * (up_c * u[2:]),
                dt * f,
            )
            want[1:-1] = u[1:-1] + half * (lo_c * u[:-2] + di_c * u[1:-1] + up_c * u[2:]) + dt * f
            terms = sum(np.abs(p) for p in parts)
        stepper._solve(want, 0.0, 0.0, stepper.t_lo + k * dt)
        assert np.max(np.abs(got - want)) <= 4.0 * np.finfo(float).eps * np.max(terms)


def _dense_step(y, sigma, mu, rho, f, bc_lo, bc_hi, t_lo, t_hi, n, k, u):
    """Row k from row k + 1 by np.linalg.solve on the dense Crank-Nicolson
    system (two implicit-Euler half-steps at k = n - 1), with the sum of the
    absolute terms of its right-hand side."""
    h = y[1] - y[0]
    alpha = sigma * sigma / (2.0 * h * h)
    lo_c, di_c, up_c = alpha - mu / (2.0 * h), -2.0 * alpha - rho, alpha + mu / (2.0 * h)
    size = len(y) - 2
    a = (np.diag(np.full(size, di_c)) + np.diag(np.full(size - 1, lo_c), -1)
         + np.diag(np.full(size - 1, up_c), 1))
    dt = (t_hi - t_lo) / n
    half = 0.5 * dt
    implicit = np.eye(size) - half * a

    def edges(lo, hi):
        e = np.zeros(size)
        e[0], e[-1] = half * lo_c * lo, half * up_c * hi
        return e

    t = t_lo + k * dt
    out = np.empty_like(u)
    out[0], out[-1] = bc_lo(t), bc_hi(t)
    if k == n - 1:
        mid = edges(bc_lo(t_hi - half), bc_hi(t_hi - half))
        first = np.linalg.solve(implicit, u[1:-1] + half * f + mid)
        out[1:-1] = np.linalg.solve(implicit, first + half * f + edges(out[0], out[-1]))
        terms = (np.abs(u[1:-1]) + np.abs(first) + dt * f + np.abs(mid)
                 + np.abs(edges(out[0], out[-1])))
    else:
        explicit = u[1:-1] + half * (a @ u[1:-1]) + edges(u[0], u[-1])
        out[1:-1] = np.linalg.solve(implicit, explicit + dt * f + edges(out[0], out[-1]))
        terms = (np.abs(u[1:-1]) + half * (np.abs(a) @ np.abs(u[1:-1]))
                 + np.abs(edges(u[0], u[-1])) + dt * f + np.abs(edges(out[0], out[-1])))
    return out, terms


# (sigma, mu, intervals of the grid): the cell Peclet number |mu| h / sigma^2
# is below 1 on the first grid, where M can be symmetrised, and above 1 on
# the second; ``_Stepper`` LU-factors both.
_STEPPER_GRIDS = {
    "symmetric": (0.4, -0.13, 128),
    "Peclet above 1": (0.01, -0.03, 128),
}


@pytest.mark.parametrize("name", sorted(_STEPPER_GRIDS))
def test_step_matches_dense_solve(name):
    # an interior step and the Rannacher start-up against the dense system
    sigma, mu, m = _STEPPER_GRIDS[name]
    rng = np.random.default_rng(17)
    y = np.linspace(0.0, 6.0, m + 1)
    rho, n = 0.02, 32
    f = rng.uniform(0.0, 0.05, m - 1)
    bc_lo, bc_hi = (lambda t: 0.2 + 0.1 * t), (lambda t: 0.9 - 0.05 * t)
    stepper = _Stepper(y, sigma, mu, rho, f, bc_lo, bc_hi, 0.5, 2.0, n)
    for k in (7, n - 1):
        u = rng.uniform(-1.0, 1.0, m + 1)
        got = stepper.step(k, u, np.empty_like(u))
        want, terms = _dense_step(y, sigma, mu, rho, f, bc_lo, bc_hi, 0.5, 2.0, n, k, u)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(terms), k


def _one_interval(stepper, y, terminal):
    """A cascade of one interval, [0.5, 2.0], marched by ``stepper``."""
    n = stepper.n_steps
    values = [stepper.march(terminal)]
    return CascadeSolution(
        (0.5, 2.0), y, [np.linspace(0.5, 2.0, n + 1)], values, stepper.stride, [stepper]
    )


def test_sine_march_matches_dense_steps():
    # a whole interval in the sine basis, with a source, time-varying edges,
    # the start-up and a shift p(0) that is not zero, against the dense
    # Crank-Nicolson system solved row by row: kept rows from the closed-form
    # march, the others from the per-mode recurrence, all to 1e-12 of the
    # dense steps' terms
    rng = np.random.default_rng(29)
    sigma, mu, rho, m, n = 0.4, -0.13, 0.02, 128, 32
    y = np.linspace(0.0, 6.0, m + 1)
    f = rng.uniform(0.0, 0.05, m - 1)
    bc_lo, bc_hi = (lambda t: 0.2 + 0.1 * t), (lambda t: 0.9 - 0.05 * t)
    stepper = _stepper(y, sigma, mu, rho, f, bc_lo, bc_hi, 0.5, 2.0, n, 0.3)
    assert type(stepper) is _SineStepper
    rows = [None] * n + [rng.uniform(-1.0, 1.0, m + 1)]
    scale = 0.0
    for k in range(n - 1, -1, -1):
        rows[k], terms = _dense_step(y, sigma, mu, rho, f, bc_lo, bc_hi, 0.5, 2.0, n, k, rows[k + 1])
        scale = max(scale, float(np.max(terms)))
    sol = _one_interval(stepper, y, rows[-1])
    for k in range(n):
        lower, upper = _bracket(sol, 0, k)
        assert np.max(np.abs(lower - rows[k])) <= 1e-12 * scale, k
        assert np.max(np.abs(upper - rows[k + 1])) <= 1e-12 * scale, k


@pytest.mark.parametrize("exponent", [7.95, 8.05])
def test_sine_basis_guard(exponent):
    # a 2048^2 grid whose scaling P reaches e^(+-exponent): under the guard
    # of e^(+-8) the sine basis runs and stays within 1e-8 of the LU march on
    # every kept row (rounding grows toward the edge where P is largest) and
    # within 1e-10 on samples inside the grid; over it the LU march runs
    m, n, sigma, lam, p_0 = 2048, 2048, 0.1, 0.02, 0.4
    y = np.linspace(0.0, 6.0, m + 1)
    mu = -math.tanh(exponent / (0.5 * (m - 2))) * sigma * sigma / (y[1] - y[0])
    near, far = _edges(0.05, lam, 2.0, 0.01, p_0, p_0, p_0)
    source = np.full(m - 1, lam * p_0)
    terminal = np.where(y > 2.5, 1.0, p_0)
    args = (y, sigma, mu, lam, source, near, far, 0.5, 2.0, n)
    stepper = _stepper(*args, p_0)
    if exponent > 8.0:
        assert type(stepper) is _Stepper
        return
    assert type(stepper) is _SineStepper
    sine, lu = _one_interval(stepper, y, terminal), _one_interval(_Stepper(*args), y, terminal)
    assert np.max(np.abs(sine.values[0] - lu.values[0])) <= 1e-8
    for x in (math.exp(1.0), math.exp(2.5), math.exp(3.0), math.exp(4.5)):
        for t in (0.5, 0.5 + 1.5 * 13.5 / n, 1.3, 2.0 - 1.5 * 0.5 / n):
            assert abs(sample(sine, x, t) - sample(lu, x, t)) <= 1e-10, (x, t)


@pytest.mark.parametrize("s_v, path", [(1.0, "sine"), (0.01, "dgttrs")])
def test_bracket_rows_equal_a_full_march(s_v, path, monkeypatch):
    # every pair of rows sample() reads against the pair a march that keeps
    # every row computes: bit for bit on LU intervals, which re-march from
    # the kept rows, and to rounding on sine-basis intervals, against the
    # same cascade with the sine basis switched off
    scenario = db.load_scenario(SCENARIOS / "base_exogenous.yaml")
    market = db.MarketParams(scenario.market.r, scenario.market.b, s_v)
    schedule, rec = scenario.schedule, scenario.recovery
    grid = GridSpec.auto(market, schedule, 200.0, rec, n_space=256, n_time_per_interval=64)
    sol = db.solve_exogenous_cascade(market, schedule, rec, grid)
    kind = _SineStepper if path == "sine" else _Stepper
    assert all(type(stepper) is kind for stepper in sol.steppers)
    if path == "sine":
        monkeypatch.setattr(pde, "_MAX_LOG_P", -1.0)
    reference = db.solve_exogenous_cascade(market, schedule, rec, grid)
    tolerance = 1e-12 if path == "sine" else 0.0
    for i, stepper in enumerate(reference.steppers):
        assert type(stepper) is _Stepper
        rows = [None] * 64 + [reference.values[i][-1]]
        for k in range(63, -1, -1):
            rows[k] = stepper.step(k, rows[k + 1], np.empty_like(rows[k + 1]))
        for k in range(64):
            lower, upper = _bracket(sol, i, k)
            assert np.max(np.abs(lower - rows[k])) <= tolerance, (i, k)
            assert np.max(np.abs(upper - rows[k + 1])) <= tolerance, (i, k)


@pytest.mark.parametrize("name", ["base_exogenous", "base_endogenous_low_barrier"])
@pytest.mark.parametrize("s_v, path", [(0.01, "dgttrs"), (0.02, "dgttrs"), (0.2, "sine")])
def test_low_volatility_cascade_matches_closed_form(name, s_v, path):
    # on the default grid s_V = 0.01 puts the cell Peclet number above 1; at
    # s_V = 0.02 the symmetrising scaling would reach e^592 and at 0.2 e^7.4,
    # so only the last marches in the sine basis (guard e^8) and the others pivot
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
    kind = _SineStepper if path == "sine" else _Stepper
    assert all(type(stepper) is kind for stepper in sol.steppers)
    assert df * sample(sol, firm / df, 0.0) == pytest.approx(closed, rel=0.0, abs=1e-6)


# ------------------------------------------------------------------ sampling


def _toy_solution():
    y = np.array([0.0, 1.0, 2.0])
    times = [np.array([0.0, 1.0])]
    values = [np.array([[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])]
    # stride 1 keeps every row, so sampling never re-marches
    return CascadeSolution((0.0, 1.0), y, times, values, stride=1, steppers=[])


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
        sample(sol, math.exp(2.5), 0.5)
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


# Reference values of the march that called a banded solver at every step.
# A factorisation per interval, pivoted or symmetrised, or the sine basis
# solves the same systems, so they reproduce to 1e-12.  Rows: x = 80, 150, 400;
# columns: t = 0, 1.3, 3, 4.5.
_PINNED = {
    "base_exogenous": (
        0.5230688219274277, 0.527812621470029, 0.5688477585478516, 0.5973445242755412,
        0.542142721548878, 0.5562369093431034, 0.6163818000709926, 0.6817052646875126,
        0.590369974684486, 0.6271861382617497, 0.7165494034203852, 0.835842217065938,
    ),
    "base_endogenous_low_barrier": (
        0.15046559834926884, 0.20044327865253464, 0.2295721888406795, 0.32852282140208644,
        0.2107903930026026, 0.2766549803417666, 0.3386264830108444, 0.4981325001782398,
        0.3258065821250653, 0.4115040804663974, 0.5407001501930228, 0.763151786241286,
    ),
    "base_endogenous_high_barrier": (
        0.9401999438335318, 0.9900617990139523, 0.9433694649270046, 0.9970452259485175,
        0.968466553290336, 0.991856535178611, 0.9728886230383161, 0.9993829175853581,
        0.9866498584158024, 0.9906909568221743, 0.9930817926364774, 0.9999651791469979,
    ),
}


# Values of the march in the sine basis, at five kinds of step time on the
# same grids (columns) and at x = x_min, 80, 150, 400, x_max (rows); the grid
# edges carry each interval's own boundary values.  They moved by up to
# 2.2e-14 from the symmetrised LAPACK march that the sine basis replaced.
_PINNED_STEPS = {
    "base_exogenous": (
        0.5, 0.5, 0.5, 0.5, 0.5,
        0.5102082371892377, 0.5769507181865962, 0.5807688392529988, 0.5258561284515728, 0.5688477585478431,
        0.6114361695830844, 0.6330197592502906, 0.6412673411839455, 0.5495775891254213, 0.6163818000709859,
        0.713899928340521, 0.7478420658483232, 0.7632132187927878, 0.6093405608841522, 0.7165494034203818,
        0.9925097948438474, 0.9937696153851978, 0.994290659355171, 0.990344447594333, 0.9925559698015314,
    ),
    "base_endogenous_low_barrier": (
        0.0007514921521447464, 0.0006650291454263296, 0.0006719898745931912, 0.0006732837577593748, 0.000649096448734653,
        0.36831728910895356, 0.2567481406851965, 0.26975107159301903, 0.1768283955397044, 0.22957218884068903,
        0.34423164218796465, 0.3809871684556227, 0.4015691800261817, 0.24613852402219893, 0.3386264830108582,
        0.5351686120562025, 0.6030294050387371, 0.6326050101487174, 0.3733783580600096, 0.5407001501930444,
        1.0, 1.0, 1.0, 1.0, 1.0,
    ),
    "base_endogenous_high_barrier": (
        0.0015029843042894929, 0.0013300582908526593, 0.0013439797491863823, 0.0013465675155187496, 0.001298192897469306,
        0.9956891082416247, 0.9692660487304265, 0.9780076412933161, 0.9761581119961495, 0.9433694649270089,
        0.9736863247782261, 0.9875495541106571, 0.9918830643026582, 0.9872388816333518, 0.9728886230383259,
        0.992450342716196, 0.9976625589925197, 0.9987158129195632, 0.9910412949008548, 0.9930817926365042,
        1.0, 1.0, 1.0, 1.0, 1.0,
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
    assert got == pytest.approx(_PINNED[name], rel=0.0, abs=1e-12)
    # 64 steps per interval keep every 8th row; the other rows are recomputed
    t0, t1 = sol.times
    steps = (
        t0[63],  # the Rannacher start-up row
        0.5 * (t1[10] + t1[11]),  # between two rows that are not kept
        t1[15],  # one step below the kept row 16
        t0[16],  # on a kept row
        3.0,  # on the interior announcing date
    )
    spots = (grid.x_min, 80.0, 150.0, 400.0, grid.x_max)
    got = [sample(sol, x, float(t)) for x in spots for t in steps]
    assert got == list(_PINNED_STEPS[name])


def test_history_memory_scales_with_root_of_steps(market):
    # 16 intervals at 512 steps each: the kept rows are a small share of the
    # 16 * 513 rows a full history would hold, and any step still samples
    n = 16
    schedule = db.DefaultSchedule(
        tuple(0.25 * k for k in range(n + 1)), (0.01,) * n, (80.0,) * n
    )
    rec = db.RecoveryModel("exogenous", 0.4)
    grid = GridSpec.auto(market, schedule, 100.0, rec, n_space=512, n_time_per_interval=512)
    sol = db.solve_exogenous_cascade(market, schedule, rec, grid)
    assert sum(v.nbytes for v in sol.values) <= n * 513 * 513 * 8 / 10
    assert math.isfinite(sample(sol, 100.0, 0.25 * 7 + 0.25 * 301 / 512))
