import functools
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import defbond as db
from defbond.binaries import price_binary, shift_coefficients
from defbond.errors import DomainError, ScheduleError
from defbond import integrals
from defbond.integrals import _adaptive_quad
from defbond.pricing import _terms

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BASE_W0 = 0.107707772403  # exp(-0.021) * N2(d3, d6; sqrt(1/2)), checked below


# ------------------------------------------------------------- domain types


def test_schedule_validation():
    with pytest.raises(ScheduleError):
        db.DefaultSchedule((1.0, 3.0), (0.1,), (100.0,))
    with pytest.raises(ScheduleError):
        db.DefaultSchedule((0.0, 3.0, 2.0), (0.1, 0.1), (100.0, 100.0))
    with pytest.raises(ScheduleError):
        db.DefaultSchedule((0.0, 3.0), (0.1, 0.1), (100.0,))
    with pytest.raises(ScheduleError):
        db.DefaultSchedule((0.0, 3.0), (0.1,), (100.0, 100.0))
    with pytest.raises(ScheduleError):
        db.DefaultSchedule((0.0,), (), ())
    with pytest.raises(ScheduleError):
        db.DefaultSchedule((0.0, math.inf), (0.1,), (100.0,))
    with pytest.raises(DomainError):
        db.DefaultSchedule((0.0, 3.0), (-0.1,), (100.0,))
    with pytest.raises(DomainError):
        db.DefaultSchedule((0.0, 3.0), (0.1,), (0.0,))


def test_recovery_validation():
    with pytest.raises(DomainError):
        db.RecoveryModel("other", 0.5)
    with pytest.raises(DomainError):
        db.RecoveryModel("exogenous", 1.5)
    with pytest.raises(DomainError):
        db.RecoveryModel("endogenous", 0.5)
    assert db.RecoveryModel("endogenous", 0.0, n=2.0).cap == math.inf
    assert db.RecoveryModel("endogenous", 0.5, n=1.0).cap == 2.0


EXO = db.RecoveryModel("exogenous", 0.4)
ENDO = db.RecoveryModel("endogenous", 0.5, n=1.0)


@pytest.mark.parametrize(
    "name, recovery, spot, t, message",
    [
        ("price_exogenous", EXO, -1.0, 0.0, "firm value must be positive"),
        ("price_exogenous", ENDO, 100.0, 0.0, "recovery model must be exogenous"),
        ("price_endogenous", ENDO, math.inf, 0.0, "firm value must be positive"),
        ("price_endogenous", EXO, 100.0, 0.0, "recovery model must be endogenous"),
        ("survival_probability", None, math.nan, 0.0, "spot must be positive"),
    ] + [
        # an evaluation time outside [0, T) is named before any discounting
        (name, recovery, 100.0, t, f"t={t} outside [0, 6.0)")
        for name, recovery in (("price_exogenous", EXO), ("price_endogenous", ENDO),
                               ("survival_probability", None))
        for t in (6.0, -0.1, math.nan, math.inf, 1e4)
    ],
)
def test_input_errors_name_the_called_function(market, schedule, name, recovery, spot, t, message):
    # survival_probability takes no recovery model
    args = (market, schedule) if recovery is None else (market, schedule, recovery)
    with pytest.raises(DomainError, match="^" + re.escape(f"{name}: {message}")):
        getattr(db, name)(*args, spot, t)


def test_a_discount_past_the_float_range_names_the_called_function(schedule):
    # exp(200 * 6) overflows; from t = 5.99 the discount is exp(2)
    market = db.MarketParams(-200.0, 0.05, 1.0)
    for name, recovery in (("price_exogenous", EXO), ("price_endogenous", ENDO)):
        with pytest.raises(DomainError, match="^" + re.escape(f"{name}: discount factor exp(1200)")):
            getattr(db, name)(market, schedule, recovery, 100.0, 0.0)
        assert getattr(db, name)(market, schedule, recovery, 100.0, 5.99).price > 0.0


# ----------------------------------------------------------- interval index


def test_report_locates_the_interval(market, schedule, exo):
    # t_i <= t < t_{i+1}; test_input_errors_name_the_called_function rejects
    # a t outside [0, T)
    for t, index in ((0.0, 0), (3.0, 1), (5.9, 1)):
        assert db.price_exogenous(market, schedule, exo, 100.0, t).interval_index == index


# -------------------------------------------------------- survival / exo


def test_survival_base_value(market, schedule):
    d3 = (math.log(2.0) - 0.55 * 3.0) / math.sqrt(3.0)
    d6 = (math.log(2.0) - 0.55 * 6.0) / math.sqrt(6.0)
    direct = math.exp(-(0.002 * 3 + 0.005 * 3)) * db.bivariate_cdf(d3, d6, math.sqrt(0.5))
    assert direct == pytest.approx(BASE_W0, abs=1e-10)
    assert db.survival_probability(market, schedule, 200.0, 0.0) == pytest.approx(
        BASE_W0, abs=1e-9
    )


def test_survival_no_default_channels(market):
    schedule = db.DefaultSchedule((0.0, 3.0, 6.0), (0.0, 0.0), (1e-10, 1e-10))
    assert db.survival_probability(market, schedule, 200.0, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_survival_vanishing_firm(market, schedule):
    assert db.survival_probability(market, schedule, 1e-12, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_exogenous_identity_exact(market, schedule, exo):
    t = 1.25
    df = math.exp(-market.r * (schedule.maturity - t))
    V = 170.0 * df
    rep = db.price_exogenous(market, schedule, exo, V, t)
    w = rep.survival_prob
    assert rep.price == exo.R * df + (1.0 - exo.R) * w * df
    assert rep.relative_price == pytest.approx(exo.R + (1 - exo.R) * w, abs=1e-15)
    # rearranged form: survival-weighted mean of the riskless and recovery legs
    assert rep.price == pytest.approx(w * df + (1 - w) * exo.R * df, abs=1e-15)
    assert rep.interval_index == 0


def test_exogenous_full_recovery_is_riskless(market, schedule):
    rec = db.RecoveryModel("exogenous", 1.0)
    for t in (0.0, 2.9, 4.0):
        df = math.exp(-market.r * (schedule.maturity - t))
        rep = db.price_exogenous(market, schedule, rec, 150.0 * df, t)
        assert rep.price == pytest.approx(df, abs=1e-12)
        assert rep.credit_spread == pytest.approx(0.0, abs=1e-12)


def test_exogenous_vanishing_firm_pays_recovery(market, schedule, exo):
    df = math.exp(-market.r * schedule.maturity)
    rep = db.price_exogenous(market, schedule, exo, 1e-10 * df, 0.0)
    assert rep.price == pytest.approx(exo.R * df, abs=1e-12)


@given(
    r=st.floats(0.0, 0.2),
    b=st.floats(0.0, 0.2),
    s=st.floats(0.2, 1.5),
    R=st.floats(0.0, 1.0),
    lam0=st.floats(0.0, 0.3),
    lam1=st.floats(0.0, 0.3),
    k=st.floats(20.0, 400.0),
    x=st.floats(1.0, 1000.0),
    t=st.floats(0.0, 5.99),
)
@settings(deadline=None, max_examples=80)
def test_exogenous_bounds(r, b, s, R, lam0, lam1, k, x, t):
    market = db.MarketParams(r, b, s)
    schedule = db.DefaultSchedule((0.0, 3.0, 6.0), (lam0, lam1), (k, k))
    rec = db.RecoveryModel("exogenous", R)
    df = math.exp(-r * (6.0 - t))
    rep = db.price_exogenous(market, schedule, rec, x * df, t)
    assert 0.0 <= rep.survival_prob <= 1.0
    assert R * df - 1e-12 <= rep.price <= df + 1e-12


# ----------------------------------------------------------- endogenous


def test_mixed_regime_matches_capped_last_barrier(market, schedule):
    # once K_N >= n/R the payoff at T is min(1, x/cap) whatever K_N is, so the
    # mixed schedule (60, 150) prices as the uniform low-barrier (60, 100)
    rec = db.RecoveryModel("endogenous", 0.5, n=50.0)  # cap 100
    mixed = db.DefaultSchedule(schedule.dates, schedule.intensities, (60.0, 150.0))
    uniform = db.DefaultSchedule(schedule.dates, schedule.intensities, (60.0, 100.0))
    for t in (0.0, 1.5, 3.0, 4.5):
        V = 200.0 * math.exp(-market.r * (schedule.maturity - t))
        u_mixed = db.price_endogenous(market, mixed, rec, V, t).relative_price
        u_uniform = db.price_endogenous(market, uniform, rec, V, t).relative_price
        assert u_mixed == pytest.approx(u_uniform, abs=1e-12)


def test_regime_tie_is_accepted_and_continuous(market, schedule):
    # equality K = n/R takes the one-asset-binary form; the two per-date
    # forms agree across the boundary
    tie = db.RecoveryModel("endogenous", 0.5, n=50.0)  # cap exactly 100
    just_below = db.RecoveryModel("endogenous", 0.5, n=50.0 * (1 - 1e-9))  # cap < 100
    V = 200.0 * math.exp(-market.r * schedule.maturity)
    u_tie = db.price_endogenous(market, schedule, tie, V, 0.0).relative_price
    u_below = db.price_endogenous(market, schedule, just_below, V, 0.0).relative_price
    assert u_tie == pytest.approx(u_below, abs=1e-6)


@pytest.mark.parametrize(
    "rec, counts",
    [
        (db.RecoveryModel("endogenous", 0.5, n=150.0), (4, 3, 2)),
        (db.RecoveryModel("endogenous", 0.5, n=1.0), (8, 5, 2)),
        (db.RecoveryModel("endogenous", 0.5, n=50.0), (6, 3, 2)),
        (db.RecoveryModel("endogenous", 0.0, n=1.0), (1, 1, 1)),
        (db.RecoveryModel("exogenous", 0.4), (1, 1, 1)),
    ],
    ids=["cap_above_all", "cap_below_all", "mixed_regimes", "zero_recovery", "exogenous"],
)
def test_endogenous_binary_term_count(market, rec, counts):
    # Binaries in the term list.  Cap 300 clears every barrier: one asset
    # binary per date plus the survival cascade, N - i + 1.  Cap 2 sits under
    # all of them: asset, bond and -bond per date, less the last -bond, which
    # cancels the cascade, 3 (N - i) - 1.  Cap 100 lies between barriers 90
    # and 110/120: three binaries at dates above it, one at the date below,
    # and no cascade.  R = 0 and exogenous recovery have an infinite cap:
    # nothing grows with the firm value, and the cascade is left alone.
    schedule = db.DefaultSchedule((0.0, 1.5, 3.5, 7.0), (0.01, 0.02, 0.004), (120.0, 90.0, 110.0))
    for i, (t, count) in enumerate(zip((0.0, 2.0, 4.0), counts)):
        terms = _terms(market, schedule, rec.cap, i, t)
        assert sum(isinstance(spec, db.BinarySpec) for _, spec in terms) == count


def test_zero_recovery_equals_bare_survival(market, schedule):
    rec = db.RecoveryModel("endogenous", 0.0, n=1.0)
    exo = db.RecoveryModel("exogenous", 0.0)
    for t, x in ((0.0, 200.0), (4.0, 140.0)):
        df = math.exp(-market.r * (schedule.maturity - t))
        assert x * df / df == x  # both reports price at the same x
        u = db.price_endogenous(market, schedule, rec, x * df, t).relative_price
        w = db.survival_probability(market, schedule, x, t)
        assert u == w
        rep = db.price_exogenous(market, schedule, exo, x * df, t)
        assert rep.relative_price == u and rep.survival_prob == w


def test_zero_intensity_low_recovery_collapses_to_barrier_cascade(market):
    schedule = db.DefaultSchedule((0.0, 3.0, 6.0), (0.0, 0.0), (100.0, 100.0))
    cascade = db.BinarySpec(
        "bond", (1, 1), (100.0, 100.0), (3.0, 6.0), db.BsCoefficients(0.0, 0.05, 1.0)
    )
    pure = price_binary(cascade, 200.0, 0.0)
    V = 200.0 * math.exp(-market.r * schedule.maturity)
    u0 = db.price_endogenous(
        market, schedule, db.RecoveryModel("endogenous", 0.0, n=1.0), V, 0.0
    ).relative_price
    assert u0 == pytest.approx(pure, abs=1e-12)
    tiny = db.price_endogenous(
        market, schedule, db.RecoveryModel("endogenous", 1e-12, n=1.0), V, 0.0
    ).relative_price
    assert tiny == pytest.approx(pure, abs=1e-9)


def test_price_endogenous_composition(market, schedule, endo_high_barrier):
    t = 0.0
    df = math.exp(-market.r * schedule.maturity)
    V = 200.0 * df
    rep = db.price_endogenous(market, schedule, endo_high_barrier, V, t)
    # the relative price is the term sum at x = V / df
    assert V / df == 200.0
    u = sum(
        w * (price_binary(spec, 200.0, t) if isinstance(spec, db.BinarySpec)
             else db.integral_binary(spec, 200.0, t)[0])
        for w, spec in _terms(market, schedule, endo_high_barrier.cap, 0, t)
    )
    assert rep.price == pytest.approx(df * u, abs=1e-15)
    assert rep.relative_price == pytest.approx(u, abs=1e-15)
    assert rep.survival_prob is None
    assert 0.0 <= rep.price <= df + 1e-9


def test_endogenous_near_maturity_above_barrier(market, endo_high_barrier):
    schedule = db.DefaultSchedule((0.0, 3.0, 6.0), (0.0, 0.0), (100.0, 100.0))
    t = 6.0 - 1e-7
    df = math.exp(-market.r * (schedule.maturity - t))
    rep = db.price_endogenous(market, schedule, endo_high_barrier, 400.0 * df, t)
    assert rep.price == pytest.approx(1.0, abs=1e-5)


def test_endogenous_vanishing_firm(market, schedule, endo_low_barrier):
    df = math.exp(-market.r * schedule.maturity)
    rep = db.price_endogenous(market, schedule, endo_low_barrier, 1e-9, 0.0)
    assert rep.price == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize(
    "name", ["base_endogenous_low_barrier", "base_endogenous_high_barrier", "base_exogenous"]
)
def test_bundled_scenarios_at_extreme_spots_and_next_to_dates(name):
    # extreme spots saturate the log-moneyness and the CDF limits; times a
    # hair from the announcing date and maturity make sqrt(tau) tiny
    s = db.load_scenario(SCENARIOS / f"{name}.yaml")
    price = db.price_endogenous if s.recovery.mode == "endogenous" else db.price_exogenous
    for V in (1e-200, 1e-3, 1e6, 1e200, 1e308, sys.float_info.max):
        for t in (0.0, 3.0 - 1e-13, 3.0, 3.0 + 1e-13, 6.0 - 1e-12):
            rep = price(s.market, s.schedule, s.recovery, V, t)
            df = math.exp(-s.market.r * (s.schedule.maturity - t))
            floor = s.recovery.R * df if s.recovery.mode == "exogenous" else 0.0
            assert math.isfinite(rep.price) and floor <= rep.price <= df, (V, t, rep.price)
            assert all(math.isfinite(v) for v in rep.diagnostics.values()), (V, t)


def test_extreme_spot_saturates_every_asset_limit():
    # from about V = 1e40 up every asset limit of the high-barrier base is
    # past +-37.68, so each asset term is exactly 0 and adds nothing to
    # cdf_error, where a floor of 1e-15 times x would read 2.2e+293 at
    # V = 1e308; the price is the V = 1e20 one to the last bit
    s = db.load_scenario(SCENARIOS / "base_endogenous_high_barrier.yaml")
    ref = db.price_endogenous(s.market, s.schedule, s.recovery, 1e20, 0.0)
    for V in (1e100, 1e308):
        rep = db.price_endogenous(s.market, s.schedule, s.recovery, V, 0.0)
        assert rep.price == ref.price, V
        assert rep.diagnostics["cdf_error"] <= 1e-14, (V, rep.diagnostics)


def test_prices_when_the_discount_underflows(market, schedule, exo, endo_high_barrier):
    # exp(-0.1 * 8000) underflows to 0, so V / df has no finite value
    far = db.DefaultSchedule((0.0, 4000.0, 8000.0), (0.002, 0.005), (100.0, 100.0))
    for price, rec in ((db.price_exogenous, exo), (db.price_endogenous, endo_high_barrier)):
        rep = price(market, far, rec, 100.0, 0.0)
        assert rep.price == 0.0 and 0.0 < rep.relative_price <= 1.0
        assert math.isfinite(rep.credit_spread)
        # Monte Carlo takes the same clamped spot, where V / df divided by 0
        config = db.SimConfig(n_paths=1000, seed=3)
        assert db.simulate_price(market, far, rec, 100.0, config).price_estimate == 0.0
    # at r < 0 a subnormal V / df underflows to 0 instead; it prices at the
    # smallest float, where the relative price is flat, as in Monte Carlo
    market = db.MarketParams(-0.5, market.b, market.s_V)
    df = math.exp(0.5 * schedule.maturity)
    rep = db.price_exogenous(market, schedule, exo, 5e-324, 0.0)
    tiny = db.price_exogenous(market, schedule, exo, 1e-320, 0.0)
    assert rep.relative_price == tiny.relative_price == 0.5
    rep_endo = db.price_endogenous(market, schedule, endo_high_barrier, 5e-324, 0.0)
    assert 0.0 <= rep_endo.price <= df
    config = db.SimConfig(n_paths=1000, seed=3)
    assert db.simulate_price(market, schedule, exo, 5e-324, config).price_estimate == rep.price
    mc_endo = db.simulate_price(market, schedule, endo_high_barrier, 5e-324, config)
    assert 0.0 <= mc_endo.price_estimate <= df


def _floats_below(value, count):
    out = []
    for _ in range(count):
        value = math.nextafter(value, -math.inf)
        out.append(value)
    return out


@pytest.mark.parametrize(
    "name", ["base_endogenous_low_barrier", "base_endogenous_high_barrier", "base_exogenous"]
)
def test_prices_on_the_last_floats_before_a_date(name):
    # the current-interval tail integral spans a few ulps; its quadrature
    # nodes round onto t, where a binary expiring at t is undefined.  On the
    # low-barrier base x sits at n/R, so the tail also runs in s = t + span v^2.
    s = db.load_scenario(SCENARIOS / f"{name}.yaml")
    price = db.price_endogenous if s.recovery.mode == "endogenous" else db.price_exogenous
    for t in _floats_below(3.0, 8) + _floats_below(6.0, 8):
        rep = price(s.market, s.schedule, s.recovery, s.firm_value(t), t)
        df = math.exp(-s.market.r * (s.schedule.maturity - t))
        floor = s.recovery.R * df if s.recovery.mode == "exogenous" else 0.0
        assert math.isfinite(rep.price) and floor <= rep.price <= df, (t, rep.price)


# A low-barrier curve variant whose relative spot sits 0.15% under the cap
# n/R: the tail integrals from t start inside their boundary layer.  At
# t = 5.2 the raw-time Kronrod rule was 1.16e-7 off while reporting 1.76e-9.
_CAP_TAIL = (
    db.MarketParams(r=0.1, b=0.05, s_V=0.9881724410788062),
    db.DefaultSchedule(
        (0.0, 3.0, 6.0),
        (0.0017093178991521125, 0.005929604926072699),
        (95.309562259402, 100.07889576227251),
    ),
    db.RecoveryModel("endogenous", 0.5187390375689751, n=100.0),
    192.49089480065913,
    [k * 6.0 / 15 for k in range(15)],  # k = 13 is t = 5.2
)
# Just before the 2.6 date the previous coordinate of the order-2 bond
# integral with strikes (70, 100) on [2.6, 3.2] sits near ln 91, 0.094 under
# the cap, though its half-line x > 70 holds the cap: measuring the layer
# from the half-line left the v-grid without breaks, 4.2e-9 off while
# reporting 1.1e-9.
_NEAR_DATE = (
    db.MarketParams(r=0.08, b=0.03, s_V=0.8),
    db.DefaultSchedule(
        (0.0, 0.9, 2.6, 3.2, 5.0, 6.9, 8.4),
        (0.007, 0.025, 0.033, 0.013, 0.016, 0.034),
        (125.0, 70.0, 120.0, 155.0, 127.5, 82.5),
    ),
    db.RecoveryModel("endogenous", 0.5, n=50.0),
    91.0,
    [2.6 - 1e-6, math.nextafter(2.6, 0.0)],
)


@pytest.mark.parametrize(
    "market, schedule, recovery, x, times", [_CAP_TAIL, _NEAR_DATE], ids=["cap_tail", "near_date"]
)
def test_near_the_money_prices_hold_their_quadrature_error(
    monkeypatch, market, schedule, recovery, x, times
):
    def prices():
        return [
            db.price_endogenous(
                market, schedule, recovery, x * math.exp(-market.r * (schedule.maturity - t)), t
            )
            for t in times
        ]

    reports = prices()
    tight = functools.partial(integrals._adaptive_quad, abs_tol=1e-14, max_intervals=2**14)
    monkeypatch.setattr(integrals, "_adaptive_quad", tight)
    for t, rep, ref in zip(times, reports, prices()):
        assert abs(rep.price - ref.price) <= rep.diagnostics["quadrature_error"] + 1e-13, t


# Recorded (price, cdf_error, quadrature_error) of the bundled scenarios at
# their own spot path, compared with ==: a change to the binary and CDF
# plumbing must leave every computed float where it was.  The two
# high-barrier quadrature errors at t = 0 and 1.3 moved by about 4e-21 when
# bivariate tails below 1e-4 of their inclusion-exclusion terms started
# being integrated directly (Kronrod-Gauss differences pick that up).  The
# low-barrier prices moved by up to 1.0e-9, onto a tight-tolerance reference,
# when their integrals with a singular lower end moved to s = lower + span v^2.
# Endogenous values moved by at most 2 ulps when the closed form became one
# list of terms whose weights each carry the jump survival from t.  Three
# quadrature errors moved by up to 4.7e-20 (prices not at all) when each
# Kronrod panel's sums became exactly rounded (``math.fsum``).  Two
# high-barrier quadrature errors moved by up to 1.1e-20 (prices not at all)
# when reflected orthants below 1e-3 of their marginal, not 1e-4, started
# being integrated directly.
PINNED_PRICES = {
    ("base_endogenous_low_barrier", 0.0): (0.13284295345819663, 5.147178255423852e-15, 6.798860405401928e-10),
    ("base_endogenous_low_barrier", 1.3): (0.19645262714548986, 6.065661177524609e-15, 1.6287233364944629e-09),
    ("base_endogenous_low_barrier", 4.5): (0.4994558990957418, 1.6468265629552576e-15, 4.815758321205294e-17),
    ("base_endogenous_high_barrier", 0.0): (0.5358731781203808, 2.497925355830703e-13, 4.4748075314297724e-11),
    ("base_endogenous_high_barrier", 1.3): (0.6197700830115707, 3.0407622589778187e-13, 3.8008460179807206e-11),
    ("base_endogenous_high_barrier", 4.5): (0.8604860400545189, 8.010925174828628e-14, 6.44772552769643e-15),
    ("base_exogenous", 0.0): (0.3039614574433192, 1.343516905099159e-15, 0.0),
    ("base_exogenous", 1.3): (0.3586479896109323, 1.5340184524882066e-15, 0.0),
    ("base_exogenous", 4.5): (0.6256133659861275, 4.271384068042398e-16, 0.0),
}


@pytest.mark.parametrize("name, t", sorted(PINNED_PRICES))
def test_bundled_scenario_prices_are_pinned(name, t):
    s = db.load_scenario(SCENARIOS / f"{name}.yaml")
    price = db.price_endogenous if s.recovery.mode == "endogenous" else db.price_exogenous
    rep = price(s.market, s.schedule, s.recovery, s.firm_value(t), t)
    got = (rep.price, rep.diagnostics["cdf_error"], rep.diagnostics["quadrature_error"])
    assert got == PINNED_PRICES[name, t]


# (price, cdf_error, quadrature_error) of each bundled base on the 5-point
# grid t = k T / 5 of ``defbond curve --points 5``, recorded before the CDF
# argument handling was reworked for speed; that work moves no float.  Five
# quadrature errors moved by up to 1.1e-19 when each Kronrod panel's sums
# became exactly rounded, and two high-barrier ones by up to 1.1e-20 when
# reflected orthants below 1e-3 of their marginal were integrated directly.
GRID_PRICES = {
    ("base_endogenous_low_barrier", 0.0): (0.13284295345819663, 5.147178255423852e-15, 6.798860405401928e-10),
    ("base_endogenous_low_barrier", 1.2): (0.19061008478674063, 5.989306907863685e-15, 1.5065316360261998e-09),
    ("base_endogenous_low_barrier", 2.4): (0.2691149351232555, 6.975488963317627e-15, 5.314182818714742e-09),
    ("base_endogenous_low_barrier", 3.6): (0.35907820593253886, 1.4665989805931688e-15, 6.203672801494316e-17),
    ("base_endogenous_low_barrier", 4.8): (0.5632573188136056, 1.7118884417653488e-15, 4.1663603797528346e-17),
    ("base_endogenous_high_barrier", 0.0): (0.5358731781203808, 2.497925355830703e-13, 4.4748075314297724e-11),
    ("base_endogenous_high_barrier", 1.2): (0.6135738950939376, 2.9951051366906606e-13, 3.575794356110047e-11),
    ("base_endogenous_high_barrier", 2.4): (0.6881224646359664, 3.5914238754309663e-13, 8.813060291719868e-11),
    ("base_endogenous_high_barrier", 3.6): (0.7817908012128123, 6.97126689904912e-14, 3.056844335869288e-11),
    ("base_endogenous_high_barrier", 4.8): (0.8868905860128774, 8.390897434497667e-14, 4.404726212186292e-15),
    ("base_exogenous", 0.0): (0.3039614574433192, 1.343516905099159e-15, 0.0),
    ("base_exogenous", 1.2): (0.3538933030553374, 1.5184509932844035e-15, 0.0),
    ("base_exogenous", 2.4): (0.4218647628971065, 1.7161625657670593e-15, 0.0),
    ("base_exogenous", 3.6): (0.5265624780970858, 3.886223690344731e-16, 0.0),
    ("base_exogenous", 4.8): (0.6691843837296926, 4.408074233917081e-16, 0.0),
}


@pytest.mark.parametrize("name", sorted({name for name, _ in GRID_PRICES}))
def test_bundled_scenarios_are_pinned_on_the_curve_grid(name):
    s = db.load_scenario(SCENARIOS / f"{name}.yaml")
    price = db.price_endogenous if s.recovery.mode == "endogenous" else db.price_exogenous
    maturity = s.schedule.maturity
    for k in range(5):
        t = k * maturity / 5
        rep = price(s.market, s.schedule, s.recovery, s.firm_value(t), t)
        got = (rep.price, rep.diagnostics["cdf_error"], rep.diagnostics["quadrature_error"])
        assert got == pytest.approx(GRID_PRICES[name, t], rel=1e-14, abs=0.0), t


def test_three_date_endogenous_price_is_pinned():
    # the 3-date endogenous case whose CDF calls the benchmark self-check counts
    market = db.MarketParams(r=0.08, b=0.03, s_V=0.8)
    schedule = db.DefaultSchedule((0.0, 1.5, 3.5, 7.0), (0.01, 0.02, 0.004), (120.0, 90.0, 110.0))
    recovery = db.RecoveryModel("endogenous", 0.5, n=1.0)
    rep = db.price_endogenous(market, schedule, recovery, 250.0 * math.exp(-0.08 * 7.0), 0.0)
    assert rep.price == 0.5703404516995124
    assert rep.diagnostics == {"cdf_error": 4.3254596425918385e-13,
                               "quadrature_error": 1.895545058645083e-12}


# -------------------------------------------------------------- spreads


def test_spread_trivials(market, schedule):
    riskless = db.RecoveryModel("exogenous", 1.0)
    rep = db.price_exogenous(market, schedule, riskless, 120.0, 0.0)
    assert rep.credit_spread == pytest.approx(0.0, abs=1e-12)
    calm = db.DefaultSchedule((0.0, 3.0, 6.0), (0.0, 0.0), (1e-10, 1e-10))
    rec = db.RecoveryModel("exogenous", 0.3)
    assert db.price_exogenous(market, calm, rec, 120.0, 0.0).credit_spread == pytest.approx(
        0.0, abs=1e-10
    )
    with pytest.raises(DomainError):
        db.price_exogenous(market, schedule, rec, 120.0, 6.0)


def test_spread_endogenous_uses_general_definition(market, schedule, endo_high_barrier):
    df = math.exp(-market.r * schedule.maturity)
    rep = db.price_endogenous(market, schedule, endo_high_barrier, 200.0 * df, 0.0)
    cs = rep.credit_spread
    assert cs == pytest.approx(-math.log(rep.relative_price) / 6.0, abs=1e-12)
    assert cs >= 0.0


def test_spread_base_composition(market, schedule, exo):
    df = math.exp(-market.r * schedule.maturity)
    w = db.survival_probability(market, schedule, 200.0, 0.0)
    expected = -math.log(0.5 + 0.5 * w) / 6.0
    assert db.price_exogenous(market, schedule, exo, 200.0 * df, 0.0).credit_spread == pytest.approx(
        expected, abs=1e-12
    )


# ------------------------------------------ coefficient-shift soundness


def test_assembly_via_shifted_coefficients_matches(market, schedule, endo_high_barrier):
    # rebuild the closed form pricing each binary at rates shifted by the
    # interval intensity and undoing the shift with the scale relation;
    # integral terms rescale inside the integrand
    x, t = 200.0, 0.7
    V = x * math.exp(-market.r * (schedule.maturity - t))
    report = db.price_endogenous(market, schedule, endo_high_barrier, V, t)
    i = report.interval_index
    lam_i = schedule.intensities[i]

    def shifted_value(spec):
        scale, shifted = shift_coefficients(spec, lam_i, t)
        return scale * price_binary(shifted, x, t)

    u_shifted = 0.0
    for w, spec in _terms(market, schedule, endo_high_barrier.cap, i, t):
        if isinstance(spec, db.BinarySpec):
            u_shifted += w * shifted_value(spec)
            continue

        def integrand(tau, spec=spec):
            weight = spec.weight_rate * math.exp(-spec.weight_rate * (tau - spec.lower))
            binary = db.BinarySpec(spec.kind, spec.signs, spec.strikes,
                                   spec.fixed_expiries + (tau,), spec.coeffs)
            return weight * shifted_value(binary)

        u_shifted += w * _adaptive_quad(integrand, spec.lower, spec.upper)[0]

    assert u_shifted == pytest.approx(report.relative_price, rel=1e-10)


# ------------------------------------------------------------- gluing


@pytest.mark.parametrize("mode", ["exogenous", "endo_high", "endo_low"])
def test_gluing_limit_at_first_announcing_date(market, schedule, mode):
    if mode == "exogenous":
        rec = db.RecoveryModel("exogenous", 0.5)
        price = db.price_exogenous
    else:
        rec = db.RecoveryModel("endogenous", 0.5, n=1.0 if mode == "endo_high" else 100.0)
        price = db.price_endogenous
    eps = 1e-9
    t1 = 3.0
    df1 = math.exp(-market.r * (schedule.maturity - t1))
    rng = np.random.default_rng(17)
    for _ in range(10):
        x1 = math.exp(rng.uniform(math.log(25.0), math.log(900.0)))
        if abs(math.log(x1 / 100.0)) < 1e-3:
            x1 *= 1.01
        V = x1 * df1
        left = price(market, schedule, rec, V, t1 - eps).price
        cont = price(market, schedule, rec, V, t1).price
        if rec.mode == "exogenous":
            recov = rec.R * df1
        else:
            recov = min(df1, rec.R * V / rec.n)
        glued = cont if V > 100.0 * df1 else recov
        assert left == pytest.approx(glued, abs=1e-6)


def test_survival_glues_one_ulp_before_every_date_on_long_chains():
    # one ulp before an announcing date the survival probability W (the
    # relative price at R = 0) is 1{x > K} times W at the date: the first
    # limit of every chain is past +-37.68, so it leaves the chain or empties
    # the box.  Seeded 3- to 8-interval schedules, x a fixed multiple of the
    # date's barrier; at maturity W is 1
    rng = np.random.default_rng(28)
    market = db.MarketParams(0.08, 0.03, 0.8)
    rec = db.RecoveryModel("exogenous", 0.0)

    def survival(schedule, V, t):
        # W and its reported CDF error, both relative to the discount
        rep = db.price_exogenous(market, schedule, rec, V, t)
        df = math.exp(-market.r * (schedule.maturity - t))
        return rep.relative_price, rep.diagnostics["cdf_error"] / df

    for n in (3, 4, 5, 6, 7, 8):
        for _ in range(2):
            dates = np.cumsum([0.0] + rng.uniform(0.3, 2.0, n).tolist()).tolist()
            schedule = db.DefaultSchedule(
                tuple(dates),
                tuple(rng.uniform(0.005, 0.03, n).tolist()),
                tuple(rng.uniform(80.0, 130.0, n).tolist()),
            )
            for date, k in zip(dates[1:], schedule.barriers):
                for c in (0.7, 0.99, 1.01, 1.3):
                    V = c * k * math.exp(-market.r * (schedule.maturity - date))
                    w, bound = survival(schedule, V, math.nextafter(date, -math.inf))
                    final = date == schedule.maturity
                    at, at_err = (1.0, 0.0) if final else survival(schedule, V, date)
                    glued = at if c > 1.0 else 0.0
                    assert abs(w - glued) <= bound + at_err + 1e-15, (schedule, date, c, w, glued)


# ------------------------------------------- three-interval generalization


def test_three_interval_schedule_against_oracles():
    # non-uniform barriers and intensities over three intervals; the closed
    # form needs order-3 cascades (and the chain CDF path) in interval 0
    market = db.MarketParams(r=0.08, b=0.03, s_V=0.8)
    schedule = db.DefaultSchedule((0.0, 1.5, 3.5, 7.0), (0.01, 0.02, 0.004), (120.0, 90.0, 110.0))
    x = 250.0
    cases = (
        (db.RecoveryModel("endogenous", 0.5, n=1.0), db.price_endogenous),
        (db.RecoveryModel("endogenous", 0.5, n=150.0), db.price_endogenous),
        (db.RecoveryModel("exogenous", 0.35), db.price_exogenous),
    )
    for rec, price in cases:
        grid = db.GridSpec.auto(market, schedule, x, rec, n_space=1024, n_time_per_interval=512)
        if rec.mode == "exogenous":
            sol = db.solve_exogenous_cascade(market, schedule, rec, grid)
        else:
            sol = db.solve_endogenous_cascade(market, schedule, rec, grid)
        for t in (0.0, 2.2):
            df = math.exp(-market.r * (7.0 - t))
            V = x * df
            closed = price(market, schedule, rec, V, t).price
            pde_c = df * db.sample(sol, x, t)
            assert closed == pytest.approx(pde_c, abs=2e-4)
            mc = db.simulate_price(
                market, schedule, rec, V, db.SimConfig(n_paths=200_000, seed=99), t
            )
            assert abs(closed - mc.price_estimate) <= 3.0 * mc.std_error


def _black_cox_survival(x, barrier, b, sigma, T):
    """Continuous-monitoring survival of a firm value with log drift
    -b - sigma^2 / 2 above a flat barrier (Black & Cox, J. Finance 1976)."""
    nu = -b - 0.5 * sigma**2
    m = math.log(x / barrier)
    sd = sigma * math.sqrt(T)
    return db.std_normal_cdf((m + nu * T) / sd) - math.exp(-2.0 * nu * m / sigma**2) * (
        db.std_normal_cdf((-m + nu * T) / sd)
    )


def test_many_dates_approach_shifted_continuous_barrier():
    # Zero intensity and a flat barrier on N equal steps: survival over the
    # announcing dates tends to Black-Cox continuous first passage with the
    # barrier lowered by exp(-0.5826 sigma sqrt(dt)) (Broadie, Glasserman &
    # Kou, Math. Finance 1997).  Measured N * (discrete - shifted) is -0.061,
    # -0.057, -0.056, -0.054, -0.054 for N = 16, 32, 64, 128, 256, and each
    # doubling of N scales the gap by 0.47-0.49; the bounds below allow twice
    # the measured gap and ratios in [0.4, 0.6].  The unshifted barrier is
    # 0.02-0.08 away, more than ten times the shifted gap.
    market = db.MarketParams(r=0.05, b=0.02, s_V=0.3)
    x, barrier, T = 100.0, 80.0, 2.0
    gaps = []
    for n in (16, 32, 64, 128, 256):
        schedule = db.DefaultSchedule(tuple(np.linspace(0.0, T, n + 1)), (0.0,) * n, (barrier,) * n)
        discrete = db.survival_probability(market, schedule, x, 0.0)
        shift = math.exp(-0.5826 * market.s_V * math.sqrt(T / n))
        gap = discrete - _black_cox_survival(x, barrier * shift, market.b, market.s_V, T)
        plain = discrete - _black_cox_survival(x, barrier, market.b, market.s_V, T)
        assert abs(gap) <= 0.125 / n
        assert abs(gap) <= 0.1 * abs(plain)
        gaps.append(gap)
    ratios = np.array(gaps[1:]) / np.array(gaps[:-1])
    assert np.all((0.4 <= ratios) & (ratios <= 0.6)), ratios


@pytest.mark.parametrize(
    "r, b, sigma, T, barrier, n_bonds, R, n_gap_band, residual",
    [
        # measured N * gap -0.0178 .. -0.0167, Richardson residual 1.39e-5
        (0.05, 0.02, 0.3, 2.0, 80.0, 50.0, 0.5, (-0.036, -0.008), 1.39e-5),
        # measured N * gap -0.0542 .. -0.0448, Richardson residual 9.50e-5
        (0.05, 0.06, 0.6, 5.0, 60.0, 40.0, 0.4, (-0.11, -0.022), 9.50e-5),
    ],
)
def test_many_dates_approach_shifted_continuous_barrier_endogenous(
    r, b, sigma, T, barrier, n_bonds, R, n_gap_band, residual
):
    # Zero intensity and a flat barrier K under the cap n / R on N equal
    # steps.  Under continuous monitoring a default pays at exactly K, so
    # the relative price is u_c = W + (K / cap)(1 - W) with W the Black-Cox
    # survival; N dates shift K to K e^{-0.5826 sigma sqrt(T / N)} in both
    # places (Broadie, Glasserman & Kou 1997).  Measured gap ratios per
    # doubling of N are 0.48-0.50 (first set) and 0.41-0.54 (second); the
    # bounds allow ratios in [0.35, 0.65], N * gap within half and twice the
    # measured range, and twice the measured Richardson residual
    # 2 gap_64 - gap_32.  The unshifted gap is 7-100x the shifted one.
    market = db.MarketParams(r, b, sigma)
    recovery = db.RecoveryModel("endogenous", R, n=n_bonds)
    x = 100.0
    gaps = []
    for n in (8, 16, 32, 64):
        schedule = db.DefaultSchedule(tuple(k * T / n for k in range(n + 1)), (0.0,) * n, (barrier,) * n)
        V = x * math.exp(-r * schedule.maturity)
        discrete = db.price_endogenous(market, schedule, recovery, V, 0.0).relative_price
        continuous = []
        for k in (barrier * math.exp(-0.5826 * sigma * math.sqrt(T / n)), barrier):
            w = _black_cox_survival(x, k, b, sigma, T)
            continuous.append(w + k / recovery.cap * (1.0 - w))
        gap, plain = discrete - continuous[0], discrete - continuous[1]
        assert n_gap_band[0] <= n * gap <= n_gap_band[1], n
        assert abs(gap) <= 0.2 * abs(plain), n
        gaps.append(gap)
    ratios = np.array(gaps[1:]) / np.array(gaps[:-1])
    assert np.all((0.35 <= ratios) & (ratios <= 0.65)), ratios
    assert abs(2.0 * gaps[3] - gaps[2]) <= 2.0 * residual


def test_random_schedules_match_simulation():
    # catch-all: random schedules and recovery modes against the simulator
    rng = np.random.default_rng(2718)
    for trial in range(10):
        n = int(rng.integers(1, 4))
        dates = (0.0,) + tuple(np.cumsum(rng.uniform(0.8, 3.0, n)))
        market = db.MarketParams(
            r=float(rng.uniform(0.0, 0.15)),
            b=float(rng.uniform(0.0, 0.1)),
            s_V=float(rng.uniform(0.3, 1.2)),
        )
        schedule = db.DefaultSchedule(
            dates,
            tuple(rng.uniform(0.0, 0.3, n)),
            tuple(rng.uniform(40.0, 200.0, n)),
        )
        mode = ("exogenous", "endogenous", "endogenous")[trial % 3]
        if mode == "exogenous":
            rec = db.RecoveryModel("exogenous", float(rng.uniform(0.0, 1.0)))
            price = db.price_exogenous
        else:
            r_rate = float(rng.uniform(0.05, 0.95))
            cap_side = rng.choice((0.01, 4.0))  # below or above every barrier
            rec = db.RecoveryModel(
                "endogenous", r_rate, n=float(cap_side * r_rate * max(schedule.barriers))
            )
            price = db.price_endogenous
        t = float(rng.uniform(0.0, schedule.maturity * 0.8))
        x = float(rng.uniform(30.0, 600.0))
        df = math.exp(-market.r * (schedule.maturity - t))
        closed = price(market, schedule, rec, x * df, t).price
        mc = db.simulate_price(
            market, schedule, rec, x * df, db.SimConfig(n_paths=200_000, seed=trial), t
        )
        assert abs(closed - mc.price_estimate) <= 4.0 * max(mc.std_error, 1e-9), (
            f"trial {trial}: closed {closed} vs mc {mc.price_estimate} += {mc.std_error}"
        )


def test_many_date_mixed_regime_three_way():
    # 16 endogenous dates whose barriers alternate 60/130 around the cap 100,
    # so the per-date term changes regime at every date.  Measured
    # |closed - PDE| on 512x128 per interval: 2.6e-5 at t = 0.1 and 1.3e-5 at
    # t = 3.6 (9.4e-6 / 2.6e-6 at 1024x256, 2.0e-6 / 6.3e-7 at 2048x512);
    # the tolerance allows about twice the larger one.  MC: 0.01 and 1.03 sigma.
    market = db.MarketParams(r=0.05, b=0.02, s_V=0.3)
    n = 16
    schedule = db.DefaultSchedule(
        tuple(0.25 * k for k in range(n + 1)),
        tuple(0.02 + 0.002 * k for k in range(n)),
        tuple(60.0 if k % 2 == 0 else 130.0 for k in range(n)),
    )
    rec = db.RecoveryModel("endogenous", 0.5, n=50.0)
    x = 160.0
    grid = db.GridSpec.auto(market, schedule, x, rec, n_space=512, n_time_per_interval=128)
    solution = db.solve_endogenous_cascade(market, schedule, rec, grid)
    for t in (0.1, 3.6):
        df = math.exp(-market.r * (schedule.maturity - t))
        closed = db.price_endogenous(market, schedule, rec, x * df, t).price
        assert abs(closed - df * db.sample(solution, x, t)) <= 5e-5
        mc = db.simulate_price(
            market, schedule, rec, x * df, db.SimConfig(n_paths=200_000, seed=16), t
        )
        assert abs(closed - mc.price_estimate) <= 3.0 * mc.std_error


# ------------------------------------------------- parameter monotonicity


def test_price_monotone_in_recovery_vol_and_spot(market, schedule):
    df = math.exp(-market.r * schedule.maturity)
    prices_R = [
        db.price_exogenous(market, schedule, db.RecoveryModel("exogenous", R), 200.0 * df, 0.0).price
        for R in (0.2, 0.5, 0.95)
    ]
    assert prices_R[0] < prices_R[1] < prices_R[2]

    rec = db.RecoveryModel("exogenous", 0.5)
    prices_s = [
        db.price_exogenous(db.MarketParams(0.1, 0.05, s), schedule, rec, 200.0 * df, 0.0).price
        for s in (0.5, 1.0, 1.5)
    ]
    assert prices_s[0] > prices_s[1] > prices_s[2]

    prices_x = [
        db.price_exogenous(market, schedule, rec, x * df, 0.0).price for x in (200.0, 350.0, 500.0)
    ]
    assert prices_x[0] < prices_x[1] < prices_x[2]

    spreads_R = [
        db.price_exogenous(market, schedule, db.RecoveryModel("exogenous", R), 200.0 * df, 0.0)
        .credit_spread
        for R in (0.2, 0.5, 0.95)
    ]
    assert spreads_R[0] > spreads_R[1] > spreads_R[2]

    spreads_s = [
        db.price_exogenous(db.MarketParams(0.1, 0.05, s), schedule, rec, 200.0 * df, 0.0).credit_spread
        for s in (0.5, 1.0, 1.5)
    ]
    assert spreads_s[0] < spreads_s[1] < spreads_s[2]

    spreads_x = [
        db.price_exogenous(market, schedule, rec, x * df, 0.0).credit_spread
        for x in (200.0, 350.0, 500.0)
    ]
    assert spreads_x[0] > spreads_x[1] > spreads_x[2]
