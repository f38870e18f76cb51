import math
from pathlib import Path

import numpy as np
import pytest

import defbond as db
from defbond.binaries import BinarySpec, BsCoefficients, price_binary
from defbond.errors import DomainError
from defbond.pde import CascadeSolution, GridSpec, _Stepper, propagate_terminal, sample

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
    closed = db.relative_price_endogenous(market, schedule, rec, x, 0.0)
    assert sample(sol, x, 0.0) == pytest.approx(closed, abs=2e-5)


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
        u_closed = db.relative_price_endogenous(market, schedule, endo_high_barrier, x, t)
        assert sample(sol_e, x, t) == pytest.approx(u_closed, abs=1e-4)
        rep = db.price_exogenous(
            market, schedule, exo, x * math.exp(-market.r * (6.0 - t)), t
        )
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
        for x in probes:
            closed = db.relative_price_endogenous(market, schedule, rec, x, 0.0)
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
    # step() folds the explicit half u + (dt/2) A u + dt f into three
    # coefficients; on random rows it must match the unfolded sum to a few
    # ulps of its terms.  Both go through the same solve, whose matrix is
    # diagonally dominant by at least 1, so the solve does not amplify the
    # difference.  The last step is the Rannacher start-up.
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
            stepper._solve(want, stepper.t_hi - half)
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
        stepper._solve(want, stepper.t_lo + k * dt)
        assert np.max(np.abs(got - want)) <= 4.0 * np.finfo(float).eps * np.max(terms)


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
# One LU factorisation per interval with the same right-hand sides performs
# the same elimination, so they reproduce to 1e-12.  Rows: x = 80, 150, 400;
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


# Values of the march with the explicit half-step folded to three
# coefficients, at five kinds of step time on the same grids (columns) and
# at x = x_min, 80, 150, 400, x_max (rows); the grid edges carry each
# interval's own boundary values.  Re-marching reproduces them bit for bit.
_PINNED_STEPS = {
    "base_exogenous": (
        0.5, 0.5, 0.5, 0.5, 0.5,
        0.510208237189238, 0.5769507181866028, 0.5807688392530048, 0.5258561284515584, 0.5688477585478517,
        0.6114361695830904, 0.6330197592502956, 0.6412673411839499, 0.5495775891254074, 0.6163818000709926,
        0.7138999283405242, 0.7478420658483251, 0.7632132187927889, 0.6093405608841389, 0.7165494034203853,
        0.9925097948438474, 0.9937696153851978, 0.994290659355171, 0.990344447594333, 0.9925559698015314,
    ),
    "base_endogenous_low_barrier": (
        0.0007514921521447464, 0.0006650291454263296, 0.0006719898745931912, 0.0006732837577593748, 0.000649096448734653,
        0.368317289108952, 0.2567481406851874, 0.26975107159301026, 0.1768283955397005, 0.22957218884067937,
        0.34423164218795127, 0.3809871684556096, 0.40156918002616915, 0.24613852402219216, 0.3386264830108442,
        0.5351686120561808, 0.6030294050387168, 0.6326050101486979, 0.3733783580599961, 0.5407001501930228,
        1.0, 1.0, 1.0, 1.0, 1.0,
    ),
    "base_endogenous_high_barrier": (
        0.0015029843042894929, 0.0013300582908526593, 0.0013439797491863823, 0.0013465675155187496, 0.001298192897469306,
        0.9956891082416236, 0.9692660487304217, 0.9780076412933123, 0.9761581119961393, 0.943369464927005,
        0.973686324778217, 0.987549554110647, 0.991883064302649, 0.987238881633336, 0.9728886230383164,
        0.9924503427161705, 0.9976625589924933, 0.9987158129195388, 0.9910412949008185, 0.9930817926364782,
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
    # 64 steps per interval keep every 8th row; the other rows are re-marched
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
