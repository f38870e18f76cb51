import math
from pathlib import Path

import numpy as np
import pytest

import defbond as db
from defbond import pde
from defbond.binaries import BinarySpec, BsCoefficients, price_binary
from defbond.errors import DomainError
from oracles import all_modes_rows
from defbond.pde import (
    CascadeSolution,
    GridSpec,
    _ContourStepper,
    _edges,
    _sine_basis,
    _SineBasis,
    _SineStepper,
    sample,
)

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


@pytest.mark.parametrize("lam", [0.1, 0.0])
def test_grid_wholly_above_every_barrier_rejected(market, lam):
    # the small-spot edge value needs a barrier on the grid, with or without
    # a live jump channel
    schedule = db.DefaultSchedule((0.0, 3.0, 6.0), (lam, lam), (1e-10, 1e-10))
    rec = db.RecoveryModel("endogenous", 0.5, n=100.0)
    with pytest.raises(DomainError, match="strictly inside"):
        db.solve_endogenous_cascade(market, schedule, rec, GridSpec(1.0, 4000.0, 128, 32))


def test_constant_solution_no_default_channels(market):
    # no intensity and barriers far under the spot: from x = 1 up the
    # cascade is identically one
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
        upper = sol.y >= 0.0
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
    # 1e-11 of the contour, which takes the edge's Laplace transform
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
    contour = db.solve_endogenous_cascade(market(-0.002), schedule, rec, grid)
    assert all(type(stepper) is _ContourStepper for stepper in contour.steppers)
    want = [sample(contour, x, t) for x, t in probes]
    for b, got in exact.items():
        assert got == pytest.approx(want, rel=0.0, abs=1e-11), b


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
    # a NaN in the terminal row spreads through every mode and every solve;
    # neither stepper is built from it
    y = np.linspace(0.0, 6.0, 65)
    terminal = np.ones_like(y)
    terminal[30] = np.nan
    near, far = _edges(0.05, 0.02, 1.0, 0.0, 0.4, 0.4, 1.0)
    with pytest.raises(ValueError):
        _sine_stepper(y, 0.3, -0.095, 0.02, np.full(63, 0.4), near, far, 0.0, 1.0, 0.4, terminal)
    with pytest.raises(ValueError):
        _ContourStepper(y, 0.3, -0.095, 0.02, np.full(63, 0.008), near, far, 0.0, 1.0, terminal)


def _sine_stepper(y, sigma, mu, rho, paid, near, far, t_lo, t_hi, shift, terminal):
    """A sine-basis interval with the source rho ``paid`` and the basis's
    ``shift`` = p(0), on a grid that must take the sine basis."""
    basis = _sine_basis(y, sigma, mu, paid, shift)
    assert type(basis) is _SineBasis
    return _SineStepper(basis, rho, near, far, t_lo, t_hi, terminal)


def _one_interval(stepper, y):
    """A cascade of one interval, [0.5, 2.0], solved by ``stepper``."""
    return CascadeSolution((0.5, 2.0), y, [stepper])


def _random_terminal(rng, y, near, far):
    """A terminal row at t = 2.0 of uniform noise between the edge values."""
    terminal = rng.uniform(-1.0, 1.0, len(y))
    terminal[0], terminal[-1] = near(2.0), far(2.0)
    return terminal


def _dense_rows(stepper, terminal, y, sigma, mu, rho, f, near, far):
    """Largest gap between the stepper's interior rows on [0.5, 2.0] and the
    exponential of the dense semi-discrete system, whose edge values come
    from three more states: 1, e^(-rate tau) and E_rate(tau) of each edge,
    with d/dtau E_rate = e^(-rate tau); the edge values must match the
    same states to 1e-13."""
    from scipy.linalg import expm

    m = len(y) - 1
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
    start = np.concatenate((terminal[1:-1], [1.0, 1.0, 0.0, 1.0, 0.0]))
    assert np.array_equal(stepper.kept[-1], terminal)
    assert np.array_equal(stepper.kept[0], stepper.row(0.5))
    times = sorted({0.5, 0.9, 1.7, 2.0 - 1e-3, 2.0, *stepper.times})
    worst = 0.0
    for t in times:
        want = expm((2.0 - t) * gen) @ start
        got = stepper.row(t)
        worst = max(worst, np.max(np.abs(got[1:-1] - want[:size])))
        for value, edge, k in ((got[0], near, size + 1), (got[-1], far, size + 3)):
            assert value == pytest.approx(
                edge.base + edge.jump * want[k] + edge.drift * want[k + 1], abs=1e-13
            ), t
    return worst


def test_sine_rows_match_dense_exponential():
    # an interval in the sine basis, with a source, both edge forms (the
    # small-spot edge at b + lam = 0 exactly) and a shift p(0) that is not
    # zero, against the dense exponential
    rng = np.random.default_rng(29)
    sigma, mu, rho, m, lam = 0.4, -0.13, 0.02, 128, 0.03
    y = np.linspace(0.0, 6.0, m + 1)
    f = rng.uniform(0.0, 0.05, m - 1)
    near, far = _edges(-lam, lam, 2.0, 0.01, 0.3, 0.45, 0.6)
    terminal = _random_terminal(rng, y, near, far)
    stepper = _sine_stepper(y, sigma, mu, rho, f / rho, near, far, 0.5, 2.0, 0.3, terminal)
    assert _dense_rows(stepper, terminal, y, sigma, mu, rho, f, near, far) <= 1e-13


def test_sine_rows_match_the_all_modes_oracle():
    # seeded sine-basis intervals against the row with every mode in its
    # exact form: b in [-0.2, 0.2], among them b = s_V^2/2, where
    # kappa_0 - (b + lam) is smallest, and b + lam < 0; lam in [0, 50];
    # 256 to 4096 nodes; tau = 0, 1e-12, 1e-6, half the interval and all of
    # it.  Each grid keeps the scaling P within e^(+-1.5): the basis rounds
    # like eps e^(2E) at the end where P reaches e^E, in the oracle as in the
    # engine, so only there does 1e-14 separate the settled modes' forms from
    # that rounding (wider grids: test_sine_basis_guard and the pins)
    rng = np.random.default_rng(37)
    growing = 0
    for case in range(48):
        m = int(rng.integers(256, 4097))
        sigma = rng.uniform(0.2, 1.5)
        b = 0.5 * sigma * sigma if case % 4 == 0 else rng.uniform(-0.2, 0.2)
        lam = (0.0, rng.uniform(0.0, 0.2), rng.uniform(0.2, 50.0))[case % 3]
        if case % 8 == 3:
            b, lam = -0.15, rng.uniform(0.0, 0.1)
        growing += b + lam < 0.0
        mu = -(b + 0.5 * sigma * sigma)
        width = min(20.0, 2.0 * sigma * sigma * rng.uniform(0.05, 1.5) / abs(mu))
        y = np.linspace(-0.5 * width, 0.5 * width, m + 1) + rng.uniform(-2.0, 2.0)
        span = rng.uniform(0.05, 5.0)
        t_hi = span + rng.uniform(0.0, 5.0)
        p_0, p_lo, p_hi = np.sort(rng.uniform(0.0, 1.0, 3))
        near, far = _edges(b, lam, t_hi, rng.uniform(0.0, 1.0), p_0, p_lo, p_hi)
        rec = np.interp(y, (y[0], y[-1]), (p_lo, p_hi))
        terminal = np.where(y > rng.uniform(y[m // 4], y[3 * m // 4]), 1.0, rec)
        terminal[0], terminal[-1] = near(t_hi), far(t_hi)
        args = (y, sigma, mu, lam, lam * rec[1:-1], near, far)
        stepper = _sine_stepper(
            y, sigma, mu, lam, rec[1:-1], near, far, t_hi - span, t_hi, p_0, terminal
        )
        times = [t_hi - tau for tau in (0.0, 1e-12, 1e-6, 0.5 * span, span)]
        for t, want in zip(times, all_modes_rows(*args, t_hi, p_0, terminal, times)):
            got = stepper.row(t)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= 1e-14 * scale, (case, t_hi - t)
        scale = max(1.0, float(np.max(np.abs(terminal))))
        assert np.max(np.abs(stepper.row(t_hi) - terminal)) <= 1e-14 * scale, case
    assert growing >= 4


# (sigma, mu, b + lam of the small-spot edge, pieces): the sine basis's grid
# with b + lam = 0; a cell Peclet number |mu| h / sigma^2 of 14, whose
# interval Peclet number mu^2 (t_hi - t_lo) / (2 sigma^2) = 6.75 takes four
# pieces; and a growing edge, b + lam = -1.5 over 1.5 years, which takes five
_CONTOUR_CASES = {
    "sine grid": (0.4, -0.13, 0.0, 1),
    "Peclet above 1": (0.01, -0.03, 0.0, 4),
    "growing edge": (0.4, -0.13, -1.5, 5),
}


@pytest.mark.parametrize("name", sorted(_CONTOUR_CASES))
def test_contour_rows_match_dense_exponential(name):
    sigma, mu, growth, pieces = _CONTOUR_CASES[name]
    rng = np.random.default_rng(29)
    rho, m, lam = 0.02, 128, 0.03
    y = np.linspace(0.0, 6.0, m + 1)
    f = rng.uniform(0.0, 0.05, m - 1)
    near, far = _edges(growth - lam, lam, 2.0, 0.01, 0.3, 0.45, 0.6)
    terminal = _random_terminal(rng, y, near, far)
    stepper = _ContourStepper(y, sigma, mu, rho, f, near, far, 0.5, 2.0, terminal)
    assert len(stepper.times) == pieces + 1
    # the contour's rounding grows like e^6 eps: 1e-12 to 5.4e-12 here
    assert _dense_rows(stepper, terminal, y, sigma, mu, rho, f, near, far) <= 1e-11


@pytest.mark.parametrize("exponent", [7.95, 8.05])
def test_sine_basis_guard(exponent):
    # a 2048-node grid whose scaling P reaches e^(+-exponent): under the
    # guard of e^(+-8) the sine basis runs and stays within 1e-11 of the
    # contour on the row at t_lo (1.1e-12 measured; rounding grows toward the
    # edge where P is largest) and on samples inside the grid; over it the
    # contour runs
    m, sigma, lam, p_0 = 2048, 0.1, 0.02, 0.4
    y = np.linspace(0.0, 6.0, m + 1)
    mu = -math.tanh(exponent / (0.5 * (m - 2))) * sigma * sigma / (y[1] - y[0])
    near, far = _edges(0.05, lam, 2.0, 0.01, p_0, p_0, p_0)
    paid = np.full(m - 1, p_0)
    terminal = np.where(y > 2.5, 1.0, p_0)
    args = (y, sigma, mu, lam, lam * paid, near, far, 0.5, 2.0, terminal)
    if exponent > 8.0:
        assert _sine_basis(y, sigma, mu, paid, p_0) is None
        return
    stepper = _sine_stepper(y, sigma, mu, lam, paid, near, far, 0.5, 2.0, p_0, terminal)
    sine = _one_interval(stepper, y)
    contour = _one_interval(_ContourStepper(*args), y)
    assert np.max(np.abs(sine.values[0][0] - contour.values[0][0])) <= 1e-11
    for x in (math.exp(1.0), math.exp(2.5), math.exp(3.0), math.exp(4.5)):
        for t in (0.5, 0.8, 1.1):
            assert abs(sample(sine, x, t) - sample(contour, x, t)) <= 1e-11, (x, t)


def test_sine_cascade_builds_one_basis(monkeypatch):
    # an 8-interval sine-basis cascade transforms the basis's three rows
    # once, then per interval the terminal row's modes and the row at t_i:
    # at most 2n + 2 transforms, where a basis per interval made 3n
    calls = []
    transform = pde._sine

    def counted(x):
        calls.append(x)
        return transform(x)

    monkeypatch.setattr(pde, "_sine", counted)
    market = db.MarketParams(0.08, 0.03, 0.8)
    schedule = db.DefaultSchedule(tuple(0.75 * k for k in range(9)), (0.01,) * 8, (110.0,) * 8)
    rec = db.RecoveryModel("endogenous", 0.5, n=1.0)
    grid = GridSpec.auto(market, schedule, 200.0, rec, n_space=1024, n_time_per_interval=16)
    sol = db.solve_endogenous_cascade(market, schedule, rec, grid)
    assert all(type(stepper) is _SineStepper for stepper in sol.steppers)
    assert len(calls) <= 2 * 8 + 2


def _exact_log(v):
    """A float whose math.log is v exactly."""
    b = math.exp(v)
    while math.log(b) < v:
        b = math.nextafter(b, math.inf)
    while math.log(b) > v:
        b = math.nextafter(b, 0.0)
    assert math.log(b) == v
    return b


def _assert_glued_by_cell_average(sol, rec, barriers):
    """Each glued row is the full-row cell average of the next interval's
    row at its start (ones after the last) and the recovery, bit for bit."""
    y = sol.y
    dy = y[1] - y[0]
    paid = rec.paid(np.exp(y))
    for i, barrier in enumerate(barriers):
        nxt = sol.values[i + 1][0] if i + 1 < len(barriers) else np.ones_like(y)
        above = np.clip((y - math.log(barrier)) / dy + 0.5, 0.0, 1.0)
        assert np.array_equal(sol.values[i][-1], above * nxt + (1.0 - above) * paid), (i, barrier)


def test_gluing_averages_the_barrier_cell():
    # hand-built grids with a barrier in the first cell, in the last cell,
    # on a node and on a cell edge, then seeded random grids and barriers
    market = db.MarketParams(0.05, 0.03, 0.4)
    recoveries = (db.RecoveryModel("exogenous", 0.4), db.RecoveryModel("endogenous", 0.5, n=50.0))
    grid = GridSpec(10.0, 1000.0, 128, 16)
    y = np.linspace(math.log(grid.x_min), math.log(grid.x_max), grid.n_space + 1)
    dy = y[1] - y[0]
    barriers = (
        math.exp(y[0] + 0.3 * dy),
        math.exp(y[-1] - 0.4 * dy),
        _exact_log(y[40]),
        _exact_log(0.5 * (y[70] + y[71])),
    )
    schedule = db.DefaultSchedule((0.0, 1.0, 2.0, 3.0, 4.0), (0.02,) * 4, barriers)
    for rec in recoveries:
        sol = pde._cascade(market, schedule, rec, grid)
        _assert_glued_by_cell_average(sol, rec, barriers)
    rng = np.random.default_rng(39)
    for case in range(200):
        x_min = 10.0 ** rng.uniform(-1.0, 1.5)
        x_max = x_min * 10.0 ** rng.uniform(2.5, 4.0)
        grid = GridSpec(x_min, x_max, int(rng.integers(64, 300)), 16)
        barriers = tuple(float(x_min * (x_max / x_min) ** rng.uniform(0.0, 1.0)) for _ in range(2))
        schedule = db.DefaultSchedule((0.0, 1.0, 2.0), (0.02, 0.02), barriers)
        # an endogenous cap mid-grid, where the recovery still varies
        cap = math.sqrt(x_min * x_max)
        rec = recoveries[0] if case % 2 else db.RecoveryModel("endogenous", 0.5, n=0.5 * cap)
        _assert_glued_by_cell_average(pde._cascade(market, schedule, rec, grid), rec, barriers)


@pytest.mark.parametrize("name", ["base_exogenous", "base_endogenous_low_barrier"])
@pytest.mark.parametrize(
    "s_v, path",
    [(0.01, "contour"), (0.02, "contour"), (0.2, "sine"), (2.0, "contour"), (3.0, "contour")],
)
def test_low_volatility_cascade_matches_closed_form(name, s_v, path):
    # on the default grid s_V = 0.01 puts the cell Peclet number above 1; at
    # s_V = 0.02 the symmetrising scaling would reach e^592 and at 0.2 e^7.4,
    # so only the latter runs in the sine basis (guard e^8); the grids of
    # s_V = 2 and 3 are so wide that their scalings leave it too
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
    kind = _SineStepper if path == "sine" else _ContourStepper
    assert all(type(stepper) is kind for stepper in sol.steppers)
    assert df * sample(sol, firm / df, 0.0) == pytest.approx(closed, rel=0.0, abs=1e-6)


# ------------------------------------------------------------------ sampling


class _TwoRows:
    """A stepper on [0, 1] whose rows are linear in t between its two kept
    rows."""

    times = np.array([0.0, 1.0])
    kept = np.array([[1.0, 3.0, 5.0, 7.0, 9.0], [2.0, 4.0, 6.0, 8.0, 10.0]])

    def row(self, t):
        return (1.0 - t) * self.kept[0] + t * self.kept[1]


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


# Values of the cascade on a 256-node grid, exact in time on these sine-basis
# intervals.  Rows: x = 80, 150, 400; columns: t = 0, 1.3, 3, 4.5.
_PINNED = {
    "base_exogenous": (
        0.5230741536384875, 0.5278238231308231, 0.568863693809364, 0.5973792796810395,
        0.5421493232507038, 0.55624775244729, 0.6163990747777568, 0.6817292807497345,
        0.5903576563489956, 0.6271695808553407, 0.7165505327434527, 0.835858609161393,
    ),
    "base_endogenous_low_barrier": (
        0.15048150433270546, 0.20045695383718987, 0.2296059218399188, 0.3285761130205767,
        0.21080821914317388, 0.2766690643393988, 0.33866165732497744, 0.49816400094349483,
        0.3258093530956344, 0.41151051109639747, 0.5407248565155557, 0.7632064011230484,
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
        0.5258640145265168, 0.5295644277740337, 0.568863693809364, 0.577106972914448, 0.5807327069741073,
        0.5495868359009721, 0.5672316129956716, 0.6163990747777568, 0.6333275683707015, 0.6411604955099683,
        0.6093276834152744, 0.657434566212533, 0.7165505327434527, 0.7483859962051932, 0.762982695206587,
        0.990344447594333, 0.9915718423174549, 0.9925559698015314, 0.9937889002469407, 0.9942829361239565,
    ),
    "base_endogenous_low_barrier": (
        0.00011351359537454697, 0.00012080902052774118, 0.00010943568858088177, 0.00011216503508082934, 0.00011327796377377008,
        0.17684591849640258, 0.23874062720992711, 0.2296059218399188, 0.257247876186972, 0.2695930693364805,
        0.24615695407430038, 0.3218231171276079, 0.33866165732497744, 0.3817486805639278, 0.4012893496246598,
        0.3733838020456587, 0.46127084182396766, 0.5407248565155557, 0.6041147822131915, 0.6321903165899961,
        1.0, 1.0, 1.0, 1.0, 1.0,
    ),
    "base_endogenous_high_barrier": (
        0.0013465675155187496, 0.0014331102991454632, 0.001298192897469306, 0.001330570070646646, 0.0013437723097269772,
        0.9761777437768252, 0.9943207146488174, 0.9433758041652731, 0.9696388994541919, 0.9779060044494958,
        0.9872603262116766, 0.9905915051282593, 0.9729008115787411, 0.9877541265158247, 0.9918448215585692,
        0.9910570782761504, 0.988838931762527, 0.9930945839987803, 0.9977242738824562, 0.9987133357819876,
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
    # the contour, exact in time too, sits within 1.7e-12 of the pins
    monkeypatch.setattr(pde, "_MAX_LOG_P", -1.0)
    contour = solve(market, schedule, rec, grid)
    assert all(type(stepper) is _ContourStepper for stepper in contour.steppers)
    got, steps = samples(contour)
    assert got == pytest.approx(_PINNED[name], rel=0.0, abs=1e-11)
    assert steps == pytest.approx(_PINNED_STEPS[name], rel=0.0, abs=1e-11)


def test_time_steps_are_unread():
    # every interval is exact in time, on the contour at s_V = 0.05 and in
    # the sine basis at s_V = 1: n_time_per_interval changes no sample
    scenario = db.load_scenario(SCENARIOS / "base_exogenous.yaml")
    schedule, rec = scenario.schedule, scenario.recovery
    for s_v, kind in ((0.05, _ContourStepper), (1.0, _SineStepper)):
        market = db.MarketParams(scenario.market.r, scenario.market.b, s_v)
        runs = []
        for n_time in (16, 2048):
            grid = GridSpec.auto(market, schedule, 200.0, rec, 256, n_time)
            sol = db.solve_exogenous_cascade(market, schedule, rec, grid)
            assert all(type(stepper) is kind for stepper in sol.steppers)
            runs.append([sample(sol, x, t) for x in (80.0, 200.0) for t in (0.0, 1.3, 3.0, 4.5)])
        assert runs[0] == runs[1], s_v
