"""End-to-end acceptance suite.

One test per criterion, each printing a PASS/FAIL line (visible with -s).
Anchored on the base parameter set: r=0.1, b=0.05, s_V=1.0, x=200, dates
(0, 3, 6), intensities (0.002, 0.005), barriers (100, 100), R=0.5.
"""

import math

import numpy as np
import pytest

import defbond as db
from defbond.binaries import BinarySpec, BsCoefficients, price_binary, shift_coefficients
from defbond.cli import curve_rows
from defbond.figures import FIGURE_PRESETS
from defbond.integrals import WeightedIntegralSpec, _adaptive_quad, integral_binary
from defbond.pde import GridSpec, sample
from defbond.scenario import apply_sweep_value, parse_scenario

from oracles import gl_mvn_cdf, propagate_terminal, simpson_integral

PROBE_TIMES = (0.0, 1.5, 3.0, 4.5)
MC_SEED = 20240311
MC_PATHS = 10**6
PDE_TOL = 1e-3
GRID_N = 2048


def _report(num: int, name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {num} [{name}]: {status}")
    assert not failures, f"criterion {num} [{name}]: {failures[:6]}"


def _three_way(market, schedule, recovery, price_fn, solution, failures, tag):
    for t in PROBE_TIMES:
        df = math.exp(-market.r * (schedule.maturity - t))
        V = 200.0 * df
        closed = price_fn(market, schedule, recovery, V, t).price
        pde_price = df * sample(solution, 200.0, t)
        if abs(closed - pde_price) > PDE_TOL:
            failures.append(f"{tag} PDE t={t}: |{closed:.6f} - {pde_price:.6f}| > {PDE_TOL}")
        mc = db.simulate_price(
            market, schedule, recovery, V, db.SimConfig(n_paths=MC_PATHS, seed=MC_SEED), t
        )
        dist = abs(closed - mc.price_estimate)
        if dist > 3.0 * max(mc.std_error, 1e-9):
            failures.append(
                f"{tag} MC t={t}: |{closed:.6f} - {mc.price_estimate:.6f}| = "
                f"{dist / mc.std_error:.2f} sigma"
            )


@pytest.fixture(scope="module")
def grid_exo(market, schedule, exo):
    return GridSpec.auto(market, schedule, 200.0, exo, n_space=GRID_N, n_time_per_interval=GRID_N)


def test_criterion_1_three_way_exogenous(market, schedule, exo, grid_exo):
    solution = db.solve_exogenous_cascade(market, schedule, exo, grid_exo)
    failures: list[str] = []
    _three_way(market, schedule, exo, db.price_exogenous, solution, failures, "exo")
    _report(1, "three-way agreement, exogenous recovery", failures)


def test_criterion_2_three_way_endogenous(market, schedule, endo_low_barrier, endo_high_barrier):
    failures: list[str] = []
    cap_100 = db.RecoveryModel("endogenous", 0.5, n=50.0)
    cases = [
        ("case-low-barrier", schedule, endo_low_barrier),
        ("case-high-barrier", schedule, endo_high_barrier),
    ]
    for barriers in ((60.0, 150.0), (150.0, 60.0)):
        mixed = db.DefaultSchedule(schedule.dates, schedule.intensities, barriers)
        cases.append((f"case-mixed-{barriers[0]:g}-{barriers[1]:g}", mixed, cap_100))
    for tag, sched, rec in cases:
        grid = GridSpec.auto(market, sched, 200.0, rec, n_space=GRID_N, n_time_per_interval=GRID_N)
        solution = db.solve_endogenous_cascade(market, sched, rec, grid)
        _three_way(market, sched, rec, db.price_endogenous, solution, failures, tag)
    _report(2, "three-way agreement, endogenous recovery (both regimes and mixed)", failures)


def test_criterion_3_binary_calculus():
    failures: list[str] = []
    rng = np.random.default_rng(42)

    # last-sign parity, positivity and discount bounds on 10^4 random
    # first-order specs at 1e-12
    for _ in range(10_000):
        r, q = rng.uniform(-0.05, 0.2, 2)
        sigma = rng.uniform(0.05, 1.5)
        k = rng.uniform(10.0, 500.0)
        T = rng.uniform(0.1, 10.0)
        x = rng.uniform(10.0, 500.0)
        co = BsCoefficients(r, q, sigma)
        bonds = [price_binary(BinarySpec("bond", (s,), (k,), (T,), co), x, 0.0) for s in (1, -1)]
        assets = [price_binary(BinarySpec("asset", (s,), (k,), (T,), co), x, 0.0) for s in (1, -1)]
        if not all(0.0 <= v <= math.exp(-r * T) * (1 + 1e-12) for v in bonds):
            failures.append(f"bond bound violated at k={k:.3f} T={T:.3f}")
            break
        if not all(0.0 <= v <= x * math.exp(-q * T) * (1 + 1e-12) for v in assets):
            failures.append(f"asset bound violated at k={k:.3f} T={T:.3f}")
            break
        if abs(sum(bonds) - math.exp(-r * T)) > 1e-12:
            failures.append(f"bond parity off at k={k:.3f} T={T:.3f}")
            break
        if abs(sum(assets) - x * math.exp(-q * T)) > 1e-12 * max(1.0, x):
            failures.append(f"asset parity off at k={k:.3f} T={T:.3f}")
            break

    # coefficient-shift equality, random specs up to order 4, 1e-10 relative
    for order in (1, 2, 3, 4):
        for _ in range(3):
            expiries = tuple(np.cumsum(rng.uniform(0.3, 2.0, order)))
            strikes = tuple(rng.uniform(40.0, 250.0, order))
            signs = tuple(int(s) for s in rng.choice((1, -1), order))
            kind = str(rng.choice(("bond", "asset")))
            r1, r2 = rng.uniform(-0.02, 0.12, 2)
            spec = BinarySpec(kind, signs, strikes, expiries, BsCoefficients(r1, r1 + 0.05, 0.8))
            scale, shifted = shift_coefficients(spec, r2, 0.0)
            lhs = price_binary(spec, 150.0, 0.0)
            rhs = scale * price_binary(shifted, 150.0, 0.0)
            if lhs != pytest.approx(rhs, rel=1e-10):
                failures.append(f"shift mismatch order={order} kind={kind}")

    # nesting: order-2 binary equals PDE propagation of the order-1 terminal
    coeffs = BsCoefficients(0.03, 0.05, 0.6)
    k1, k2, t1, t2 = 100.0, 120.0, 2.0, 5.0
    dy = 2.0 * math.log(60.0) / 1600
    y = math.log(k1) + (np.arange(1601) - 800.5) * dy
    xg = np.exp(y)
    for kind in ("bond", "asset"):
        inner = np.array(
            [price_binary(BinarySpec(kind, (1,), (k2,), (t2,), coeffs), xx, t1) for xx in xg]
        )
        terminal = np.where(xg > k1, inner, 0.0)
        if kind == "bond":
            bc_hi = lambda t: math.exp(-coeffs.r * (t2 - t))
        else:
            bc_hi = lambda t: xg[-1] * math.exp(-coeffs.q * (t2 - t))
        slice0 = propagate_terminal(y, terminal, coeffs, 0.0, t1, 1600, lambda t: 0.0, bc_hi)
        spec2 = BinarySpec(kind, (1, 1), (k1, k2), (t1, t2), coeffs)
        for x in (80.0, 120.0, 200.0):
            direct = price_binary(spec2, x, 0.0)
            via_pde = float(np.interp(math.log(x), y, slice0))
            if abs(via_pde - direct) > 5e-4 * max(1.0, x / 100.0):
                failures.append(f"nesting {kind} x={x}: {via_pde:.6f} vs {direct:.6f}")

    _report(3, "binary-calculus identities", failures)


def test_criterion_4_mvn_engine():
    failures: list[str] = []
    rng = np.random.default_rng(7)

    # marginalization chain, m <= 6, tolerance 1e-9
    expiries = (0.7, 1.1, 2.0, 3.4, 5.0, 6.5)
    for m in range(2, 7):
        c_full = db.CorrelationStructure(0.0, expiries[:m])
        c_red = db.CorrelationStructure(0.0, expiries[: m - 1])
        a = rng.uniform(-1.2, 1.5, size=m - 1)
        p_full, _ = db.mvn_cdf(np.append(a, np.inf), c_full)
        if m - 1 == 1:
            p_red = db.std_normal_cdf(a[0])
        else:
            p_red, _ = db.mvn_cdf(a, c_red)
        if abs(p_full - p_red) > 1e-9:
            failures.append(f"marginalization m={m}: diff {abs(p_full - p_red):.2e}")

    # monotonicity in each limit, m <= 6 (error-aware: higher-dimensional
    # estimates carry their reported quadrature error)
    for m in (3, 4, 6):
        c = db.CorrelationStructure(0.0, expiries[:m])
        for _ in range(4):
            a = rng.uniform(-1.5, 1.5, size=m)
            i = int(rng.integers(0, m))
            lo, e_lo = db.mvn_cdf(a, c)
            a2 = a.copy()
            a2[i] += rng.uniform(0.05, 0.7)
            hi, e_hi = db.mvn_cdf(a2, c)
            if hi < lo - max(1e-9, e_lo + e_hi):
                failures.append(f"monotonicity m={m} i={i}: {hi:.2e} < {lo:.2e}")

    # dense-quadrature agreement at m=3, tolerance 1e-6
    c3 = db.CorrelationStructure(0.0, (1.0, 2.0, 3.0))
    p3, err3 = db.mvn_cdf([0.5, 0.2, -0.1], c3)
    oracle = gl_mvn_cdf([0.5, 0.2, -0.1], c3.covariance)
    if abs(p3 - oracle) > 1e-6:
        failures.append(f"m=3 brute force: |{p3:.8f} - {oracle:.8f}| > 1e-6")

    _report(4, "m-variate normal engine", failures)


def test_criterion_5_integral_of_binary():
    failures: list[str] = []
    co = BsCoefficients(0.0, 0.05, 1.0)

    # additivity at quadrature tolerance
    spec_all = WeightedIntegralSpec("bond", (1,), (150.0,), (), co, 0.2, 3.0, 6.0)
    spec_l = WeightedIntegralSpec("bond", (1,), (150.0,), (), co, 0.2, 3.0, 4.3)
    spec_r = WeightedIntegralSpec("bond", (1,), (150.0,), (), co, 0.2, 4.3, 6.0)
    whole, e0 = integral_binary(spec_all, 180.0, 0.0)
    left, e1 = integral_binary(spec_l, 180.0, 0.0)
    right, e2 = integral_binary(spec_r, 180.0, 0.0)
    # the right piece's weight starts at 4.3: scale it by the survival to 4.3
    joined = left + math.exp(-0.2 * (4.3 - 3.0)) * right
    if abs(whole - joined) > max(1e-9, 3 * (e0 + e1 + e2)):
        failures.append(f"additivity: {whole:.10f} vs {joined:.10f}")

    # constant-integrand closed form at 1e-12
    lam, c_lo, d_hi = 0.31, 3.0, 6.0
    mass, _ = _adaptive_quad(lambda tau: lam * math.exp(-lam * (tau - c_lo)), c_lo, d_hi)
    if abs(mass - (1.0 - math.exp(-lam * (d_hi - c_lo)))) > 1e-12:
        failures.append("constant-weight mass mismatch")

    # dense-Simpson agreement at 1e-6 (2^14 panels)
    lam = 0.005
    spec = WeightedIntegralSpec("bond", (1,), (200.0,), (), co, lam, 3.0, 6.0)
    val, _ = integral_binary(spec, 200.0, 0.0)

    def f(tau):
        w = lam * math.exp(-lam * (tau - 3.0))
        return w * price_binary(BinarySpec("bond", (1,), (200.0,), (tau,), co), 200.0, 0.0)

    oracle = simpson_integral(f, 3.0, 6.0, 2**14)
    if abs(val - oracle) > 1e-6:
        failures.append(f"Simpson: |{val:.10f} - {oracle:.10f}| > 1e-6")

    _report(5, "weighted integrals of binaries", failures)


def test_criterion_6_limit_checks(market):
    failures: list[str] = []
    schedule = db.DefaultSchedule((0.0, 3.0, 6.0), (0.002, 0.005), (100.0, 100.0))

    # full exogenous recovery reproduces the default-free bond at 1e-12
    riskless = db.RecoveryModel("exogenous", 1.0)
    for t in PROBE_TIMES:
        df = math.exp(-market.r * (6.0 - t))
        c = db.price_exogenous(market, schedule, riskless, 150.0 * df, t).price
        if abs(c - df) > 1e-12:
            failures.append(f"R=1 t={t}: {c} vs {df}")

    # no default channels: all three engines produce the default-free bond
    calm = db.DefaultSchedule((0.0, 3.0, 6.0), (0.0, 0.0), (1e-10, 1e-10))
    rec = db.RecoveryModel("exogenous", 0.4)
    df = math.exp(-market.r * 6.0)
    closed = db.price_exogenous(market, schedule=calm, recovery=rec, V=200.0 * df, t=0.0).price
    if abs(closed - df) > 1e-12:
        failures.append(f"calm closed: {closed} vs {df}")
    grid = GridSpec.auto(market, calm, 200.0, rec, 512, 128)
    sol = db.solve_exogenous_cascade(market, calm, rec, grid)
    pde_c = df * sample(sol, 200.0, 0.0)
    if abs(pde_c - df) > 1e-10:
        failures.append(f"calm pde: {pde_c} vs {df}")
    mc = db.simulate_price(
        market, calm, rec, 200.0 * df, db.SimConfig(n_paths=100_000, seed=MC_SEED)
    )
    if mc.price_estimate != df or mc.std_error != 0.0:
        failures.append(f"calm mc: {mc.price_estimate} vs {df}")

    # survival probability stays in [0, 1] across a wide parameter sweep
    rng = np.random.default_rng(123)
    for _ in range(60):
        m = db.MarketParams(rng.uniform(0, 0.2), rng.uniform(0, 0.2), rng.uniform(0.2, 1.5))
        s = db.DefaultSchedule(
            (0.0, 3.0, 6.0),
            tuple(rng.uniform(0, 0.5, 2)),
            tuple(rng.uniform(20.0, 300.0, 2)),
        )
        w = db.survival_probability(m, s, float(rng.uniform(1.0, 1000.0)), float(rng.uniform(0, 5.99)))
        if not 0.0 <= w <= 1.0:
            failures.append(f"W out of range: {w}")

    _report(6, "limit checks", failures)


def _series(scenario, preset, points=41):
    scn = scenario
    for parameter, value in preset.base_overrides:
        scn = apply_sweep_value(scn, parameter, value)
    header, rows = curve_rows(scn, preset.parameter, preset.values, preset.quantity, points)
    arr = np.array([[float(v) for v in row] for row in rows])
    return arr[:, 0], arr[:, 1:]


def test_criterion_7_figure_trends(base_doc):
    failures: list[str] = []
    scenario = parse_scenario(base_doc)

    # pointwise orderings; +1 means the next series is larger at every t
    clean_direction = {
        1: +1,   # recovery rate up -> price up
        2: -1,   # firm volatility up -> price down
        3: +1,   # relative firm value up -> price up
        4: -1,   # both barriers up -> price down
        6: -1,   # late barrier up -> price down
        7: -1,   # both intensities up -> price down
        9: -1,   # late intensity up -> price down
        10: -1, 11: +1, 12: -1, 13: +1, 15: +1, 16: +1, 18: +1,
    }
    for fig, direction in clean_direction.items():
        t, series = _series(scenario, FIGURE_PRESETS[fig])
        for j in range(series.shape[1] - 1):
            diff = direction * (series[:, j + 1] - series[:, j])
            if not np.all(diff > 0.0):
                failures.append(f"fig {fig}: series {j}->{j + 1} not ordered pointwise")

    # mixed barrier presets (5, 14): on [0, 3) the ordering follows the late
    # barrier, and the opposing early-barrier move compresses the fan
    # relative to the aligned sweep
    for fig, aligned, direction in ((5, 4, +1), (14, 13, -1)):
        t, series = _series(scenario, FIGURE_PRESETS[fig])
        _, base = _series(scenario, FIGURE_PRESETS[aligned])
        first = t < 3.0
        for j in range(series.shape[1] - 1):
            diff = direction * (series[first, j + 1] - series[first, j])
            if not np.all(diff > 0.0):
                failures.append(f"fig {fig}: late-barrier ordering fails on [0, 3)")
        width_mixed = series[first].max(axis=1) - series[first].min(axis=1)
        width_base = base[first].max(axis=1) - base[first].min(axis=1)
        if not np.all(width_mixed < width_base):
            failures.append(f"fig {fig}: mixed sweep does not compress the fan on [0, 3)")

    # mixed intensity presets (8, 17): the two balanced series swap order
    # inside [0, 3) (crossing near t = 2.4), while the late-interval ordering
    # holds on [3, 6)
    for fig in (8, 17):
        t, series = _series(scenario, FIGURE_PRESETS[fig])
        sign_start = np.sign(series[0, 2] - series[0, 1])
        near3 = int(np.searchsorted(t, 2.9))
        sign_end = np.sign(series[near3, 2] - series[near3, 1])
        if sign_start == sign_end:
            failures.append(f"fig {fig}: no crossing of the balanced series inside [0, 3)")
        late = t >= 3.0
        # the late intensity falls across the series: price rises, spread falls
        direction = +1 if fig == 8 else -1
        for j in range(series.shape[1] - 1):
            diff = direction * (series[late, j + 1] - series[late, j])
            if not np.all(diff > 0.0):
                failures.append(f"fig {fig}: late-interval ordering fails on [3, 6)")

    _report(7, "figure-trend regression (presets 1-18)", failures)


def test_criterion_8_gluing(market, schedule):
    failures: list[str] = []
    eps = 1e-9
    rng = np.random.default_rng(31)
    cases = [
        ("exogenous", db.RecoveryModel("exogenous", 0.5), db.price_exogenous),
        ("endo-high", db.RecoveryModel("endogenous", 0.5, n=1.0), db.price_endogenous),
        ("endo-low", db.RecoveryModel("endogenous", 0.5, n=100.0), db.price_endogenous),
    ]
    for tag, rec, price in cases:
        for t_next, k in ((3.0, 100.0), (6.0, 100.0)):
            df = math.exp(-market.r * (schedule.maturity - t_next))
            for _ in range(100):
                x = math.exp(rng.uniform(math.log(20.0), math.log(1000.0)))
                if abs(math.log(x / k)) < 1e-3:
                    x *= 1.01
                V = x * df
                left = price(market, schedule, rec, V, t_next - eps).price
                if t_next < schedule.maturity:
                    cont = price(market, schedule, rec, V, t_next).price
                else:
                    cont = 1.0  # face value
                if rec.mode == "exogenous":
                    recov = rec.R * df
                else:
                    recov = min(df, rec.R * V / rec.n)
                glued = cont if V > k * df else recov
                if abs(left - glued) > 1e-6:
                    failures.append(
                        f"{tag} t->{t_next}- x={x:.3f}: left {left:.9f} vs glued {glued:.9f}"
                    )
                    break
    _report(8, "announcing-date gluing of the closed forms", failures)
