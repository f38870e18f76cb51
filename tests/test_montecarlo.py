import math

import numpy as np
import pytest

import defbond as db
from defbond import montecarlo
from defbond.errors import DomainError
from oracles import dense_simulate_price

# the pass runs without np.errstate, so an overflow or invalid operation in it
# fails a test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def test_config_validation():
    with pytest.raises(DomainError):
        db.SimConfig(n_paths=0)
    with pytest.raises(DomainError):
        db.SimConfig(n_paths=10001)
    # a float or a bool is refused here, not deep inside the first block
    for bad in ({"n_paths": 1e6}, {"n_paths": True}, {"seed": 1.5}, {"seed": False},
                {"seed": "7"}):
        with pytest.raises(DomainError):
            db.SimConfig(**bad)
    assert db.SimConfig(n_paths=np.int64(4000), seed=np.uint32(7)).n_paths == 4000


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
        db.simulate_price(market, schedule, exo, -1.0, db.SimConfig(n_paths=100))
    # a t outside [0, T) is named as the closed form names it
    with pytest.raises(DomainError, match=r"^simulate_prices: t=6.0 outside \[0, 6.0\)$"):
        db.simulate_price(market, schedule, exo, 100.0, db.SimConfig(n_paths=100), t=6.0)
    # a discount past the float range, exp(200 * 6), is named as the closed
    # form names it
    with pytest.raises(DomainError, match="^simulate_prices: discount factor exp"):
        db.simulate_price(db.MarketParams(-200.0, 0.05, 1.0), schedule, exo, 100.0,
                          db.SimConfig(n_paths=100))
    # the smallest budget, one antithetic pair, has no sample variance
    pair = db.simulate_price(market, schedule, exo, 100.0, db.SimConfig(n_paths=2))
    assert pair.std_error == math.inf


# Reference outputs on the per-block SFC64 streams: stream 0 gives the
# uniforms, then one bridge normal per path that can jump in either leg under
# the whole schedule's hazard; stream j gives the step normals to date j.
# Survival counts reproduce exactly, the rest to 1e-12.
_PINNED = {
    ("exogenous", 0.0): (0.25846764464240995, 0.0002651440191668839, 0.11826459099264706),
    ("exogenous", 2.0): (0.34340040042198033, 0.0003688056977563344, 0.18715533088235295),
    ("endogenous", 0.0): (0.26924770077320276, 0.0003869897174355943, 0.11826459099264706),
    ("endogenous", 2.0): (0.37313994518477744, 0.0004989949664606297, 0.18715533088235295),
}


# the ids keep the recorded test names, mode-True-t, so test histories line up
@pytest.mark.parametrize(
    "mode,t", sorted(_PINNED), ids=[f"{mode}-True-{t}" for mode, t in sorted(_PINNED)]
)
def test_pinned_outputs(market, mode, t):
    # three dates with mixed barriers; the base path count straddles the
    # 2^16 block size, and t = 2 sits exactly on an announcing date
    schedule = db.DefaultSchedule((0.0, 2.0, 4.0, 6.0), (0.01, 0.02, 0.03), (90.0, 120.0, 80.0))
    if mode == "exogenous":
        rec = db.RecoveryModel("exogenous", 0.4)
    else:
        rec = db.RecoveryModel("endogenous", 0.5, n=50.0)
    n_paths = 2**17 + 2**13
    res = db.simulate_price(market, schedule, rec, 150.0, db.SimConfig(n_paths, seed=606), t)
    price, std_err, survival = _PINNED[(mode, t)]
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
        (20.0, 20.0, 20.0), (90.0, 120.0, 80.0), 0.0,
        (0.3711250319377333, 0.00011717390503385709, 0.0),
    ),
    # barriers 8 standard deviations under the spot: no path is ever hit
    "never_hit": (
        (0.05, 0.1, 0.2), (1e-6, 1e-6, 1e-6), 0.0,
        (0.35128481565599695, 0.0003610414060590101, 0.4965389476102941),
    ),
    # first barrier far above the spot: every path that has not jumped is
    # hit on the first date
    "all_hit_first": (
        (0.05, 0.02, 0.03), (1e6, 120.0, 80.0), 0.5,
        (0.23915972718884185, 0.00027591849059953734, 0.0),
    ),
    # no jump channel, live barriers, evaluated on an announcing date
    "zero_hazard": (
        (0.0, 0.0, 0.0), (90.0, 120.0, 80.0), 2.0,
        (0.1956555217342605, 0.0005078374123388106, 0.20685891544117646),
    ),
}


@pytest.mark.parametrize("regime", sorted(_PINNED_REGIMES))
def test_pinned_regimes(market, regime):
    intensities, barriers, t, expected = _PINNED_REGIMES[regime]
    schedule = db.DefaultSchedule((0.0, 2.0, 4.0, 6.0), intensities, barriers)
    rec = db.RecoveryModel("endogenous", 0.5, n=200.0)
    res = db.simulate_price(
        market, schedule, rec, 150.0, db.SimConfig(2**17 + 2**13, seed=606), t
    )
    price, std_err, survival = expected
    assert res.survival_freq == survival
    assert res.price_estimate == pytest.approx(price, rel=1e-12, abs=0.0)
    assert res.std_error == pytest.approx(std_err, rel=1e-12, abs=0.0)


def _differential_case(k: int):
    """Seeded configuration k of 46; for k < 40, k mod 8 picks a regime the
    engine treats differently from a dense pass over every path, and from
    k = 40 on each pair, one per recovery mode, picks a path that the
    log-space pass treats specially."""
    rng = np.random.default_rng(9000 + k)
    n_dates = 1 + k % 6
    dates = (0.0,) + tuple(np.round(np.cumsum(rng.uniform(0.2, 2.5, n_dates)), 6))
    intensities = list(10.0 ** rng.uniform(-3.0, -0.5, n_dates))
    barriers = list(10.0 ** rng.uniform(1.5, 2.3, n_dates))
    V, t, r = 100.0, float(rng.uniform(0.0, 0.9 * dates[1])), 0.05
    regime = k % 8 if k < 40 else 8 + (k - 40) // 2
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
    elif regime == 8:  # exactly on a date whose segment has intensity 0:
        # the first jump run is empty, the later ones not
        i = int(rng.integers(1, n_dates - 1))
        t, intensities[i] = dates[i], 0.0
    elif regime == 9:  # V / df past the largest float, which x0 is clamped to
        V, r = 1e307, 20.0
    market = db.MarketParams(r, float(rng.uniform(-0.05, 0.1)), float(rng.uniform(0.1, 0.8)))
    schedule = db.DefaultSchedule(dates, tuple(intensities), tuple(barriers))
    if k % 2:
        R, n = rng.uniform(0.2, 0.9), rng.uniform(20.0, 200.0)
        if regime == 10:  # an infinite cap: the recovery is constant
            R = 0.0
        rec = db.RecoveryModel("endogenous", float(R), n=float(n))
    else:
        R = rng.uniform(0.0, 1.0)
        rec = db.RecoveryModel("exogenous", 0.0 if regime == 10 else float(R))
    n_paths = 4000 + 2 * int(rng.integers(0, 1000))
    if k in (7, 25):  # path pairs beyond one 2^16 block
        n_paths = 2 * 2**16 + 3002
    config = db.SimConfig(n_paths, seed=int(rng.integers(0, 2**32)))
    return market, schedule, rec, V, config, t


@pytest.mark.parametrize("k", range(46))
def test_matches_dense_reference_engine(k):
    market, schedule, rec, V, config, t = _differential_case(k)
    assert db.simulate_price(market, schedule, rec, V, config, t) == dense_simulate_price(
        market, schedule, rec, V, config, t
    )


@pytest.mark.parametrize("k", range(46))
def test_shared_draws_match_single_starts(k):
    # two more starts in the case's interval at other V and t, so their
    # remaining hazards, and the jumps each one keeps, differ
    market, schedule, rec, V, config, t = _differential_case(k)
    rng = np.random.default_rng(7000 + k)
    dates = schedule.dates
    i = max(j for j, d in enumerate(dates) if d <= t)
    starts = [(V, t)] + [
        (V * 10.0 ** float(rng.uniform(-0.5, 0.5)), float(rng.uniform(dates[i], dates[i + 1])))
        for _ in range(2)
    ]
    shared = db.simulate_prices(market, schedule, rec, starts, config)
    assert shared == [db.simulate_price(market, schedule, rec, V0, config, t0) for V0, t0 in starts]


def test_shared_draws_keep_input_order(market):
    # starts from two intervals, interleaved, one exactly on the date 2
    schedule = db.DefaultSchedule((0.0, 2.0, 4.0, 6.0), (0.01, 0.02, 0.03), (90.0, 120.0, 80.0))
    rec = db.RecoveryModel("endogenous", 0.5, n=50.0)
    config = db.SimConfig(2**17 + 2**13, seed=606)
    starts = [(150.0, 3.0), (120.0, 0.5), (150.0, 2.0), (90.0, 1.5)]
    shared = db.simulate_prices(market, schedule, rec, starts, config)
    assert shared == [db.simulate_price(market, schedule, rec, V0, config, t) for V0, t in starts]
    assert len({r.price_estimate for r in shared}) == len(starts)


@pytest.mark.parametrize("n_paths", [20_000, 2 * 2**16 + 3002])
def test_shared_rows_span_every_interval(market, n_paths):
    # starts in each of four intervals, shuffled, one exactly on a date and
    # two in the last one: each reads the streams of its own remaining
    # dates in every block, the partial last one too
    schedule = db.DefaultSchedule(
        (0.0, 1.0, 2.5, 4.0, 6.0), (0.02, 0.0, 0.05, 0.01), (90.0, 120.0, 80.0, 100.0)
    )
    rec = db.RecoveryModel("endogenous", 0.5, n=50.0)
    config = db.SimConfig(n_paths, seed=4242)
    starts = [(130.0, 4.5), (150.0, 0.3), (110.0, 2.5), (95.0, 5.9), (170.0, 1.7), (140.0, 3.1)]
    shared = db.simulate_prices(market, schedule, rec, starts, config)
    alone = [db.simulate_price(market, schedule, rec, V0, config, t) for V0, t in starts]
    dense = [dense_simulate_price(market, schedule, rec, V0, config, t) for V0, t in starts]
    assert shared == alone == dense


def test_shared_rows_edge_cases(market, schedule, exo):
    config = db.SimConfig(2 * 2**16 + 3002, seed=5)
    assert db.simulate_prices(market, schedule, exo, [], config) == []
    # every start in the last interval: no block opens the first date's stream
    starts = [(120.0, 4.5), (80.0, 3.0), (200.0, 5.5)]
    shared = db.simulate_prices(market, schedule, exo, starts, config)
    assert shared == [db.simulate_price(market, schedule, exo, V0, config, t) for V0, t in starts]


@pytest.mark.parametrize("times,keys", [((4.5, 5.9), {0, 4}), ((5.9, 3.1), {0, 3, 4})])
def test_draws_only_the_streams_of_remaining_dates(market, monkeypatch, times, keys):
    # stream 0 holds the uniforms and bridge normals, stream j the step
    # normals to date j; no block opens a stream of a date before every start
    schedule = db.DefaultSchedule(
        (0.0, 1.0, 2.5, 4.0, 6.0), (0.02, 0.0, 0.05, 0.01), (90.0, 120.0, 80.0, 100.0)
    )
    rec = db.RecoveryModel("endogenous", 0.5, n=50.0)
    starts = [(130.0, t) for t in times]
    config = db.SimConfig(2 * 2**16 + 3002, seed=8)  # a full block and a partial one
    opened = []
    stream = montecarlo._stream

    def counted(seed, block, key):
        opened.append((block, key))
        return stream(seed, block, key)

    monkeypatch.setattr(montecarlo, "_stream", counted)
    shared = db.simulate_prices(market, schedule, rec, starts, config)
    assert sorted(opened) == sorted((block, key) for block in range(2) for key in keys)
    monkeypatch.undo()
    assert shared == [db.simulate_price(market, schedule, rec, V0, config, t) for V0, t in starts]


@pytest.mark.parametrize("mode", ["exogenous", "endogenous"])
def test_standard_errors_are_calibrated(market, mode):
    # z-scores of one shared call against the closed form, at starts in four
    # intervals over 64 seeds: a stream mix-up, such as two dates reading one
    # stream, biases them or misstates their spread.  The bounds sit about
    # 4.5 standard errors of each statistic from 0 and 1.
    schedule = db.DefaultSchedule(
        (0.0, 1.0, 2.5, 4.0, 6.0), (0.02, 0.0, 0.05, 0.01), (90.0, 120.0, 80.0, 100.0)
    )
    if mode == "exogenous":
        rec, price = db.RecoveryModel("exogenous", 0.4), db.price_exogenous
    else:
        rec, price = db.RecoveryModel("endogenous", 0.5, n=50.0), db.price_endogenous
    starts = [(150.0, 0.3), (170.0, 1.7), (110.0, 3.1), (130.0, 4.5)]
    closed = [price(market, schedule, rec, V0, t).price for V0, t in starts]
    z = np.array([
        [
            (res.price_estimate - c) / res.std_error
            for res, c in zip(
                db.simulate_prices(market, schedule, rec, starts, db.SimConfig(2**14, seed=seed)),
                closed,
            )
        ]
        for seed in range(64)
    ])
    mean, sd = z.mean(axis=0), z.std(axis=0, ddof=1)
    assert np.all(np.abs(mean) <= 0.6), mean
    assert np.all((0.6 <= sd) & (sd <= 1.45)), sd
