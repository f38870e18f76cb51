import math

import numpy as np
import pytest

import defbond as db
from defbond.errors import DomainError
from oracles import dense_simulate_price


def test_config_validation():
    with pytest.raises(DomainError):
        db.SimConfig(n_paths=0)
    with pytest.raises(DomainError):
        db.SimConfig(n_paths=10001, antithetic=True)
    db.SimConfig(n_paths=10001, antithetic=False)


def test_no_default_channels_is_exact(market):
    schedule = db.DefaultSchedule((0.0, 3.0, 6.0), (0.0, 0.0), (1e-12, 1e-12))
    rec = db.RecoveryModel("exogenous", 0.5)
    df = math.exp(-market.r * 6.0)
    res = db.simulate_price(market, schedule, rec, 200.0 * df, db.SimConfig(n_paths=4000, seed=1))
    assert res.price_estimate == df
    assert res.std_error == 0.0
    assert res.survival_freq == 1.0


def test_full_exogenous_recovery_is_exact(market, schedule):
    rec = db.RecoveryModel("exogenous", 1.0)
    df = math.exp(-market.r * 6.0)
    res = db.simulate_price(market, schedule, rec, 150.0 * df, db.SimConfig(n_paths=4000, seed=2))
    assert res.price_estimate == df
    assert res.std_error == 0.0
    assert res.survival_freq < 1.0  # defaults occur, they just pay face


def test_seed_determinism(market, schedule, exo):
    cfg = db.SimConfig(n_paths=20000, seed=123)
    a = db.simulate_price(market, schedule, exo, 100.0, cfg)
    b = db.simulate_price(market, schedule, exo, 100.0, cfg)
    assert a == b
    c = db.simulate_price(market, schedule, exo, 100.0, db.SimConfig(n_paths=20000, seed=124))
    assert c.price_estimate != a.price_estimate


def test_block_boundary_continuity(market, schedule, exo):
    # path counts straddling the block size produce consistent estimates
    df = math.exp(-market.r * 6.0)
    small = db.simulate_price(
        market, schedule, exo, 200.0 * df, db.SimConfig(n_paths=2**16, seed=9)
    )
    big = db.simulate_price(
        market, schedule, exo, 200.0 * df, db.SimConfig(n_paths=2**16 + 2**14, seed=9)
    )
    assert abs(small.price_estimate - big.price_estimate) <= 4 * (
        small.std_error + big.std_error
    )


def test_antithetic_mean_unchanged_variance_not_larger(market, schedule, exo):
    df = math.exp(-market.r * 6.0)
    v = 200.0 * df
    anti = db.simulate_price(market, schedule, exo, v, db.SimConfig(n_paths=200_000, seed=5))
    plain = db.simulate_price(
        market, schedule, exo, v, db.SimConfig(n_paths=200_000, seed=5, antithetic=False)
    )
    assert abs(anti.price_estimate - plain.price_estimate) <= 4 * (
        anti.std_error + plain.std_error
    )
    assert anti.std_error <= plain.std_error * 1.05


def test_matches_closed_form_exogenous(market, schedule, exo):
    df = math.exp(-market.r * 6.0)
    rep = db.price_exogenous(market, schedule, exo, 200.0 * df, 0.0)
    res = db.simulate_price(
        market, schedule, exo, 200.0 * df, db.SimConfig(n_paths=400_000, seed=7)
    )
    assert abs(res.price_estimate - rep.price) <= 3.0 * res.std_error
    w_se = math.sqrt(rep.survival_prob * (1 - rep.survival_prob) / res.n_paths)
    assert abs(res.survival_freq - rep.survival_prob) <= 3.0 * w_se


@pytest.mark.parametrize("n,t", [(1.0, 0.0), (100.0, 0.0), (1.0, 3.0), (100.0, 4.5)])
def test_matches_closed_form_endogenous(market, schedule, n, t):
    rec = db.RecoveryModel("endogenous", 0.5, n=n)
    df = math.exp(-market.r * (6.0 - t))
    v = 200.0 * df
    rep = db.price_endogenous(market, schedule, rec, v, t)
    res = db.simulate_price(market, schedule, rec, v, db.SimConfig(n_paths=400_000, seed=11), t)
    assert abs(res.price_estimate - rep.price) <= 3.0 * max(res.std_error, 1e-9)


def test_evaluation_on_announcing_date_skips_its_barrier(market, schedule, exo):
    # at t = t_1 the date-1 barrier is already resolved; only t_2 remains
    df = math.exp(-market.r * 3.0)
    v = 50.0 * df  # below the barrier scale: would have defaulted at t_1
    rep = db.price_exogenous(market, schedule, exo, v, 3.0)
    res = db.simulate_price(market, schedule, exo, v, db.SimConfig(n_paths=200_000, seed=13), 3.0)
    assert abs(res.price_estimate - rep.price) <= 3.0 * res.std_error


def test_input_validation(market, schedule, exo):
    with pytest.raises(DomainError):
        db.simulate_price(market, schedule, exo, -1.0, db.SimConfig(n_paths=100, antithetic=False))
    with pytest.raises(DomainError):
        db.simulate_price(market, schedule, exo, 100.0, db.SimConfig(n_paths=100, antithetic=False), t=6.0)


# Reference outputs on the per-block SFC64 stream: date-major step normals,
# the uniforms, then one bridge normal per path that can jump in either leg.
# Survival counts reproduce exactly, the rest to 1e-12.
_PINNED = {
    ("exogenous", True, 0.0): (0.2593779695500509, 0.00026725208894828965, 0.12102912454044118),
    ("exogenous", True, 2.0): (0.34340328840471535, 0.00036880854005528503, 0.1871625114889706),
    ("exogenous", False, 0.0): (0.25910605431789846, 0.00040580994905383804, 0.12020335477941177),
    ("exogenous", False, 2.0): (0.3430480665282978, 0.0005934062542842426, 0.186279296875),
    ("endogenous", True, 0.0): (0.26962318687897735, 0.00038525762260249697, 0.12102912454044118),
    ("endogenous", True, 2.0): (0.37292016144555223, 0.0004987411489035229, 0.1871625114889706),
    ("endogenous", False, 0.0): (0.2692346749110798, 0.0006807008933656288, 0.12020335477941177),
    ("endogenous", False, 2.0): (0.37290204371784447, 0.0008944721481476407, 0.186279296875),
}


@pytest.mark.parametrize("mode,antithetic,t", sorted(_PINNED))
def test_pinned_outputs(market, mode, antithetic, t):
    # three dates with mixed barriers; the base path count straddles the
    # 2^16 block size, and t = 2 sits exactly on an announcing date
    schedule = db.DefaultSchedule((0.0, 2.0, 4.0, 6.0), (0.01, 0.02, 0.03), (90.0, 120.0, 80.0))
    if mode == "exogenous":
        rec = db.RecoveryModel("exogenous", 0.4)
    else:
        rec = db.RecoveryModel("endogenous", 0.5, n=50.0)
    n_paths = 2**17 + 2**13 if antithetic else 2**16 + 2**12
    res = db.simulate_price(
        market, schedule, rec, 150.0, db.SimConfig(n_paths, seed=606, antithetic=antithetic), t
    )
    price, std_err, survival = _PINNED[(mode, antithetic, t)]
    assert res.survival_freq == survival
    assert res.price_estimate == pytest.approx(price, rel=1e-12, abs=0.0)
    assert res.std_error == pytest.approx(std_err, rel=1e-12, abs=0.0)
    assert res.n_paths == n_paths


# Regimes that change which paths the engine works on and which paths get a
# bridge normal, on the same stream as above.
_PINNED_REGIMES = {
    # intensity 20 on every interval: every exponential draw lands in the
    # hazard mass, so every path jumps
    "all_jump": (
        (20.0, 20.0, 20.0), (90.0, 120.0, 80.0), True, 0.0,
        (0.37094762244089047, 0.00011598118636721665, 0.0),
    ),
    # barriers 8 standard deviations under the spot: no path is ever hit
    "never_hit": (
        (0.05, 0.1, 0.2), (1e-6, 1e-6, 1e-6), False, 0.0,
        (0.35225288263858867, 0.0008937246976732657, 0.498046875),
    ),
    # first barrier far above the spot: every path that has not jumped is
    # hit on the first date
    "all_hit_first": (
        (0.05, 0.02, 0.03), (1e6, 120.0, 80.0), True, 0.5,
        (0.23932664680403784, 0.0002758072031913488, 0.0),
    ),
    # no jump channel, live barriers, evaluated on an announcing date
    "zero_hazard": (
        (0.0, 0.0, 0.0), (90.0, 120.0, 80.0), True, 2.0,
        (0.19593936394693984, 0.0005076815717579629, 0.20741182215073528),
    ),
}


@pytest.mark.parametrize("regime", sorted(_PINNED_REGIMES))
def test_pinned_regimes(market, regime):
    intensities, barriers, antithetic, t, expected = _PINNED_REGIMES[regime]
    schedule = db.DefaultSchedule((0.0, 2.0, 4.0, 6.0), intensities, barriers)
    rec = db.RecoveryModel("endogenous", 0.5, n=200.0)
    n_paths = 2**17 + 2**13 if antithetic else 2**16 + 2**12
    res = db.simulate_price(
        market, schedule, rec, 150.0, db.SimConfig(n_paths, seed=606, antithetic=antithetic), t
    )
    price, std_err, survival = expected
    assert res.survival_freq == survival
    assert res.price_estimate == pytest.approx(price, rel=1e-12, abs=0.0)
    assert res.std_error == pytest.approx(std_err, rel=1e-12, abs=0.0)


def _differential_case(k: int):
    """Seeded configuration k of 40; k mod 8 picks a regime the engine treats
    differently from a dense pass over every path."""
    rng = np.random.default_rng(9000 + k)
    n_dates = 1 + k % 6
    dates = (0.0,) + tuple(np.round(np.cumsum(rng.uniform(0.2, 2.5, n_dates)), 6))
    intensities = list(10.0 ** rng.uniform(-3.0, -0.5, n_dates))
    barriers = list(10.0 ** rng.uniform(1.5, 2.3, n_dates))
    V, t = 100.0, float(rng.uniform(0.0, 0.9 * dates[1]))
    regime = k % 8
    if regime == 1:  # zero-intensity middle segments
        for j in range(1, n_dates - 1):
            intensities[j] = 0.0
    elif regime == 2:  # most paths jump
        intensities = list(rng.uniform(1.0, 3.0, n_dates))
    elif regime == 3 and n_dates > 1:  # evaluation exactly on a date
        t = dates[int(rng.integers(1, n_dates))]
    elif regime == 4:  # far above every barrier
        V = 1e6
    elif regime == 5:  # below the first barrier
        V = 1e-3
    elif regime == 6:  # no jump channel
        intensities = [0.0] * n_dates
    market = db.MarketParams(0.05, float(rng.uniform(-0.05, 0.1)), float(rng.uniform(0.1, 0.8)))
    schedule = db.DefaultSchedule(dates, tuple(intensities), tuple(barriers))
    if k % 2:
        R, n = rng.uniform(0.2, 0.9), rng.uniform(20.0, 200.0)
        rec = db.RecoveryModel("endogenous", float(R), n=float(n))
    else:
        rec = db.RecoveryModel("exogenous", float(rng.uniform(0.0, 1.0)))
    antithetic = (k // 2) % 2 == 0
    n_paths = 4000 + 2 * int(rng.integers(0, 1000))
    if k in (7, 25):  # base paths beyond one 2^16 block
        n_paths = 2 * 2**16 + 3002 if antithetic else 2**16 + 1501
    config = db.SimConfig(n_paths, seed=int(rng.integers(0, 2**32)), antithetic=antithetic)
    return market, schedule, rec, V, config, t


@pytest.mark.parametrize("k", range(40))
def test_matches_dense_reference_engine(k):
    market, schedule, rec, V, config, t = _differential_case(k)
    assert db.simulate_price(market, schedule, rec, V, config, t) == dense_simulate_price(
        market, schedule, rec, V, config, t
    )
