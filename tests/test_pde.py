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


def test_zero_growth_edge_forcing_matches_the_lu_march(monkeypatch):
    # the endogenous low-barrier base at b = -0.002 has b + lam = 0 exactly
    # in interval 0, and +-1e-12 beside it: the sine basis integrates that
    # small-spot edge with no division by b + lam, so all three sit within
    # 5e-10 of the LU march at 32768 steps per interval, whose own time
    # error there is about 2e-10
    scenario = db.load_scenario(SCENARIOS / "base_endogenous_low_barrier.yaml")
    schedule, rec = scenario.schedule, scenario.recovery

    def market(b):
        return db.MarketParams(scenario.market.r, b, scenario.market.s_V)

    assert market(-0.002).b + schedule.intensities[0] == 0.0
    grid = GridSpec.auto(market(-0.002), schedule, 200.0, rec, n_space=256, n_time_per_interval=64)
    probes = [(x, t) for x in (1.5 * grid.x_min, 80.0, 150.0, 400.0) for t in (0.0, 1.3, 2.5, 4.5)]
    exact = {}
    for b in (-0.002, -0.002 + 1e-12, -0.002 - 1e-12):
        sol = db.solve_endogenous_cascade(market(b), schedule, rec, grid)
        assert all(type(stepper) is _SineStepper for stepper in sol.steppers)
        exact[b] = [sample(sol, x, t) for x, t in probes]
    monkeypatch.setattr(pde, "_MAX_LOG_P", -1.0)
    fine = GridSpec(grid.x_min, grid.x_max, 256, 32768)
    lu = db.solve_endogenous_cascade(market(-0.002), schedule, rec, fine)
    assert all(type(stepper) is _Stepper for stepper in lu.steppers)
    want = [sample(lu, x, t) for x, t in probes]
    for b, got in exact.items():
        assert got == pytest.approx(want, rel=0.0, abs=5e-10), b


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

    e_coarse = errs(256)
    e_fine = errs(512)
    ratio = e_coarse / e_fine
    assert 2.5 <= ratio <= 8.0


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
    """A cascade of one interval, [0.5, 2.0], solved by ``stepper``."""
    return CascadeSolution((0.5, 2.0), y, [stepper.times], [stepper.march(terminal)], [stepper])


def test_sine_rows_match_dense_exponential():
    # an interval in the sine basis, with a source, both edge forms (the
    # small-spot edge at b + lam = 0 exactly) and a shift p(0) that is not
    # zero, against the exponential of the dense semi-discrete system whose
    # edge values come from three more states: 1, e^(-rate tau) and
    # E_rate(tau) of each edge, with d/dtau E_rate = e^(-rate tau)
    from scipy.linalg import expm

    rng = np.random.default_rng(29)
    sigma, mu, rho, m, lam = 0.4, -0.13, 0.02, 128, 0.03
    y = np.linspace(0.0, 6.0, m + 1)
    f = rng.uniform(0.0, 0.05, m - 1)
    near, far = _edges(-lam, lam, 2.0, 0.01, 0.3, 0.45, 0.6)
    stepper = _stepper(y, sigma, mu, rho, f, near, far, 0.5, 2.0, 32, 0.3)
    assert type(stepper) is _SineStepper
    h = y[1] - y[0]
    alpha = sigma * sigma / (2.0 * h * h)
    lo_c, up_c = alpha - mu / (2.0 * h), alpha + mu / (2.0 * h)
    size = m - 1
    gen = np.zeros((size + 5, size + 5))
    gen[:size, :size] = (np.diag(np.full(size, -2.0 * alpha - rho))
                         + np.diag(np.full(size - 1, lo_c), -1)
                         + np.diag(np.full(size - 1, up_c), 1))
    gen[:size, size] = f
    for row, weight, edge, k in ((0, lo_c, near, size + 1), (size - 1, up_c, far, size + 3)):
        gen[row, size] += weight * edge.base
        gen[row, k] = weight * edge.jump
        gen[row, k + 1] = weight * edge.drift
        gen[k, k] = -edge.rate
        gen[k + 1, k] = 1.0
    terminal = rng.uniform(-1.0, 1.0, m + 1)
    start = np.concatenate((terminal[1:-1], [1.0, 1.0, 0.0, 1.0, 0.0]))
    kept = stepper.march(terminal)
    assert np.array_equal(kept[-1], terminal)
    assert np.array_equal(kept[0], stepper.row(kept, 0.5))
    for t in (0.5, 0.9, 1.7, 2.0 - 1e-3, 2.0):
        want = expm((2.0 - t) * gen) @ start
        got = stepper.row(kept, t)
        assert np.max(np.abs(got[1:-1] - want[:size])) <= 1e-13, t
        for value, edge, k in ((got[0], near, size + 1), (got[-1], far, size + 3)):
            assert value == pytest.approx(
                edge.base + edge.jump * want[k] + edge.drift * want[k + 1], abs=1e-13
            ), t


@pytest.mark.parametrize("exponent", [7.95, 8.05])
def test_sine_basis_guard(exponent):
    # a 2048-node grid whose scaling P reaches e^(+-exponent): under the
    # guard of e^(+-8) the sine basis runs and stays within 1e-8 of the LU
    # march on the row at t_lo (rounding grows toward the edge where P is
    # largest) and within 1e-10 on samples inside the grid; over it the LU
    # march runs.  At 32768 steps the march's own time error, estimated
    # against 131072 steps, is 1.8e-11 on that row and at most 9.7e-12 on
    # these samples, under a tenth of each bound.
    m, n, sigma, lam, p_0 = 2048, 32768, 0.1, 0.02, 0.4
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
    assert np.max(np.abs(sine.values[0][0] - lu.values[0][0])) <= 1e-8
    for x in (math.exp(1.0), math.exp(2.5), math.exp(3.0), math.exp(4.5)):
        for t in (0.5, 0.8, 1.1):
            assert abs(sample(sine, x, t) - sample(lu, x, t)) <= 1e-10, (x, t)


@pytest.mark.parametrize("s_v, path", [(0.01, "dgttrs")])
def test_bracket_rows_equal_a_full_march(s_v, path):
    # every row sample() reads on an LU interval, at each step time and
    # halfway between two, against the rows of a march that keeps every
    # row: bit for bit, since it re-marches from the kept rows with the
    # same factorisation
    scenario = db.load_scenario(SCENARIOS / "base_exogenous.yaml")
    market = db.MarketParams(scenario.market.r, scenario.market.b, s_v)
    schedule, rec = scenario.schedule, scenario.recovery
    grid = GridSpec.auto(market, schedule, 200.0, rec, n_space=256, n_time_per_interval=64)
    sol = db.solve_exogenous_cascade(market, schedule, rec, grid)
    for i, stepper in enumerate(sol.steppers):
        assert type(stepper) is _Stepper
        rows = [None] * 64 + [sol.values[i][-1]]
        for k in range(63, -1, -1):
            rows[k] = stepper.step(k, rows[k + 1], np.empty_like(rows[k + 1]))
        times = sol.times[i]
        for k in range(64):
            mid = 0.5 * (times[k] + times[k + 1])
            w = (mid - times[k]) / (times[k + 1] - times[k])
            assert np.array_equal(stepper.row(sol.values[i], times[k]), rows[k]), (i, k)
            want = (1.0 - w) * rows[k] + w * rows[k + 1]
            assert np.array_equal(stepper.row(sol.values[i], mid), want), (i, k)
        assert np.array_equal(stepper.row(sol.values[i], times[-1]), rows[-1]), i


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
    y = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    # one LU step keeps both of its rows, so sampling never re-marches
    stepper = _Stepper(y, 0.3, 0.0, 0.0, np.zeros(3), None, None, 0.0, 1.0, 1)
    values = [np.array([[1.0, 3.0, 5.0, 7.0, 9.0], [2.0, 4.0, 6.0, 8.0, 10.0]])]
    return CascadeSolution((0.0, 1.0), y, [stepper.times], values, [stepper])


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


# Values of the cascade on a 256-node grid, exact in time on these sine-basis
# intervals.  Rows: x = 80, 150, 400; columns: t = 0, 1.3, 3, 4.5.
_PINNED = {
    "base_exogenous": (
        0.5230679478944539, 0.5278120355807968, 0.5688462405266148, 0.5973407922961328,
        0.5421410032139796, 0.5562331380790518, 0.6163793294991738, 0.6816969903680967,
        0.5903660047546608, 0.6271744391249041, 0.7165439958107233, 0.8358215201127069,
    ),
    "base_endogenous_low_barrier": (
        0.15046165022397712, 0.20043265328431026, 0.2295674556382622, 0.32851030683019367,
        0.21078431085730934, 0.276641300197331, 0.3386196211186559, 0.49811259511599687,
        0.3257969375095011, 0.4114904340996998, 0.5406887589112971, 0.7631220921599615,
    ),
    "base_endogenous_high_barrier": (
        0.9402082000841057, 0.9900950072862942, 0.9433758041652734, 0.9970682908665166,
        0.9684817516950037, 0.9918799268526569, 0.9729008115787415, 0.9993950109198322,
        0.9866677120076541, 0.9907033041308216, 0.9930945839987808, 0.9999673371134431,
    ),
}


# The same grids at x = x_min, 80, 150, 400, x_max (rows) and at five more
# times (columns), one of them the interior announcing date; the grid edges
# carry each interval's own boundary values.
_PINNED_TIMES = (0.75, 2.0, 3.0, 3.5, 3.7)
_PINNED_STEPS = {
    "base_exogenous": (
        0.5, 0.5, 0.5, 0.5, 0.5,
        0.5258551913547224, 0.5295457575025743, 0.5688462405266148, 0.5770849703938707, 0.5807084123256382,
        0.5495754043160244, 0.56721137198402, 0.6163793294991738, 0.6333040806852335, 0.6411353391672389,
        0.6093348103463938, 0.6574329374732151, 0.7165439958107233, 0.7483729877634504, 0.7629662844655564,
        0.990344447594333, 0.9915718423174549, 0.9925559698015314, 0.9937889002469407, 0.9942829361239565,
    ),
    "base_endogenous_low_barrier": (
        0.0006732837577593748, 0.0007165551495727316, 0.000649096448734653, 0.000665285035323323, 0.0006718861548634886,
        0.17682308219287013, 0.23871903753020807, 0.2295674556382622, 0.25720265280634375, 0.26954465805160244,
        0.24613032896146736, 0.32179657915187326, 0.3386196211186559, 0.38170232366872925, 0.4012413684996488,
        0.3733665314858331, 0.4612521747239591, 0.5406887589112971, 0.6040663478693079, 0.6321359663897483,
        1.0, 1.0, 1.0, 1.0, 1.0,
    ),
    "base_endogenous_high_barrier": (
        0.0013465675155187496, 0.0014331102991454632, 0.001298192897469306, 0.001330570070646646, 0.0013437723097269772,
        0.9761777437768255, 0.9943207146488182, 0.9433758041652734, 0.9696388994541917, 0.9779060044494958,
        0.987260326211677, 0.9905915051282606, 0.9729008115787415, 0.9877541265158244, 0.9918448215585695,
        0.9910570782761514, 0.988838931762529, 0.9930945839987808, 0.9977242738824557, 0.9987133357819876,
        1.0, 1.0, 1.0, 1.0, 1.0,
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_pinned_bundled_cascades(name, monkeypatch):
    scenario = db.load_scenario(SCENARIOS / f"{name}.yaml")
    market, schedule, rec = scenario.market, scenario.schedule, scenario.recovery
    grid = GridSpec.auto(market, schedule, 200.0, rec, n_space=256, n_time_per_interval=64)
    solve = db.solve_exogenous_cascade if rec.mode == "exogenous" else db.solve_endogenous_cascade
    spots = (grid.x_min, 80.0, 150.0, 400.0, grid.x_max)

    def samples(sol):
        return (
            [sample(sol, x, t) for x in (80.0, 150.0, 400.0) for t in (0.0, 1.3, 3.0, 4.5)],
            [sample(sol, x, t) for x in spots for t in _PINNED_TIMES],
        )

    sol = solve(market, schedule, rec, grid)
    assert all(type(stepper) is _SineStepper for stepper in sol.steppers)
    got, steps = samples(sol)
    assert got == pytest.approx(_PINNED[name], rel=0.0, abs=1e-12)
    assert steps == list(_PINNED_STEPS[name])
    # the LU march converges to the pins in time; 16384 steps per interval
    # sit within 5.1e-10 of them
    monkeypatch.setattr(pde, "_MAX_LOG_P", -1.0)
    fine = GridSpec(grid.x_min, grid.x_max, 256, 16384)
    got, steps = samples(solve(market, schedule, rec, fine))
    assert got == pytest.approx(_PINNED[name], rel=0.0, abs=1e-9)
    assert steps == pytest.approx(_PINNED_STEPS[name], rel=0.0, abs=1e-9)


def test_history_memory_scales_with_root_of_steps(market):
    # 16 intervals at 512 steps each on the LU march (at s_V = 0.02 the cell
    # Peclet number exceeds 1): the kept rows are a small share of the
    # 16 * 513 rows a full history would hold, and any step still samples
    n = 16
    market = db.MarketParams(market.r, market.b, 0.02)
    schedule = db.DefaultSchedule(
        tuple(0.25 * k for k in range(n + 1)), (0.01,) * n, (80.0,) * n
    )
    rec = db.RecoveryModel("exogenous", 0.4)
    grid = GridSpec.auto(market, schedule, 100.0, rec, n_space=512, n_time_per_interval=512)
    sol = db.solve_exogenous_cascade(market, schedule, rec, grid)
    assert all(type(stepper) is _Stepper for stepper in sol.steppers)
    assert sum(v.nbytes for v in sol.values) <= n * 513 * 513 * 8 / 10
    assert math.isfinite(sample(sol, 100.0, 0.25 * 7 + 0.25 * 301 / 512))
