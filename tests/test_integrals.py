import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defbond.binaries import BinarySpec, BsCoefficients, last_expiry_pricer, price_binary
from defbond.errors import DomainError, ScheduleError
from defbond.integrals import WeightedIntegralSpec, _adaptive_quad, integral_binary

from oracles import simpson_integral

BASE = BsCoefficients(0.0, 0.05, 1.0)


def order1(kind, sign, k, lam, lo, hi, coeffs=BASE):
    return WeightedIntegralSpec(kind, (sign,), (k,), (), coeffs, lam, lo, hi)


# -------------------------------------------------------------- construction


def test_spec_validation():
    with pytest.raises(ScheduleError):
        order1("bond", 1, 200.0, 0.01, 6.0, 3.0)  # reversed bounds
    with pytest.raises(DomainError):
        order1("bond", 1, 200.0, -0.1, 3.0, 6.0)  # negative rate
    with pytest.raises(DomainError):
        WeightedIntegralSpec("bond", (1, 1), (100.0,), (), BASE, 0.01, 3.0, 6.0)
    with pytest.raises(ScheduleError):
        # integration interval starts before the last fixed expiry
        WeightedIntegralSpec("bond", (1, 1), (100.0, 200.0), (4.0,), BASE, 0.01, 3.0, 6.0)
    # the kind, sign and strike checks of BinarySpec; a zero rate would
    # otherwise price a bogus kind to (0, 0)
    with pytest.raises(DomainError):
        order1("bogus", 1, 200.0, 0.0, 3.0, 6.0)
    with pytest.raises(DomainError):
        order1("bond", 0, 200.0, 0.01, 3.0, 6.0)
    for strike in (-5.0, 0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            order1("bond", 1, strike, 0.01, 3.0, 6.0)
    with pytest.raises(DomainError):
        WeightedIntegralSpec("bond", (1, 1), (-5.0, 200.0), (3.0,), BASE, 0.01, 3.0, 6.0)
    for lower, upper in ((math.nan, 6.0), (3.0, math.nan), (3.0, math.inf), (-math.inf, 6.0)):
        with pytest.raises(ScheduleError):
            order1("bond", 1, 200.0, 0.01, lower, upper)


def test_evaluation_time_validation():
    spec = WeightedIntegralSpec("bond", (1, 1), (100.0, 200.0), (3.0,), BASE, 0.01, 3.0, 6.0)
    with pytest.raises(ScheduleError):
        integral_binary(spec, 200.0, 3.5)
    with pytest.raises(DomainError):
        integral_binary(spec, -1.0, 0.0)


# ------------------------------------------------------------------ trivials


def test_zero_rate_is_exactly_zero():
    spec = order1("bond", 1, 200.0, 0.0, 3.0, 6.0)
    assert integral_binary(spec, 200.0, 0.0) == (0.0, 0.0)


def test_empty_interval_is_exactly_zero():
    spec = order1("bond", 1, 200.0, 0.01, 3.0, 3.0)
    assert integral_binary(spec, 200.0, 0.0) == (0.0, 0.0)


def test_adaptive_quad_reports_error_when_budget_capped():
    # a rapidly oscillating integrand cannot converge within a tiny panel
    # budget; the returned tolerance must own up to it
    val, err = _adaptive_quad(lambda x: math.sin(200.0 * x * x), 0.0, 3.0,
                              abs_tol=1e-14, max_intervals=8)
    assert math.isfinite(val)
    assert err > 1e-14


def test_adaptive_quad_stops_at_the_rounding_floor():
    # 50 eps int |f| = 7e-7 exceeds abs_tol: no split can meet the tolerance,
    # so the rule stops at the floor instead of spending the panel budget
    calls = []

    def f(x):
        calls.append(x)
        return 1e8 * math.exp(-x)

    val, err = _adaptive_quad(f, 0.0, 1.0, abs_tol=1e-8)
    assert len(calls) == 15
    assert abs(val - 1e8 * -math.expm1(-1.0)) <= err
    assert err == pytest.approx(50 * 2.0**-52 * 1e8 * -math.expm1(-1.0), rel=1e-12)


def test_constant_integrand_weight_mass():
    # quadrature hook: with the binary replaced by 1 the integral is the
    # weight mass 1 - exp(-lam (D - C))
    lam, c, d = 0.31, 3.0, 6.0
    val, err = _adaptive_quad(lambda tau: lam * math.exp(-lam * (tau - c)), c, d)
    assert val == pytest.approx(1.0 - math.exp(-lam * (d - c)), abs=1e-12)
    assert err < 1e-10


# ------------------------------------------------------------ node pricing


def _node_cases():
    """(kind, signs, strikes, fixed expiries, coeffs, x, t, taus): orders 1-3,
    both kinds, every sign pattern, the first float above the lower end,
    limits that saturate and a spot whose x/K underflows."""
    rng = np.random.default_rng(29)
    for order in (1, 2, 3):
        for kind, signs in itertools.product(("asset", "bond"), itertools.product((-1, 1), repeat=order)):
            coeffs = BsCoefficients(*rng.uniform(-0.02, 0.1, 2).tolist(), rng.uniform(0.05, 1.0))
            t = rng.uniform(0.0, 1.0)
            fixed = tuple((t + np.cumsum(rng.uniform(0.01, 2.0, order - 1))).tolist())
            lower = fixed[-1] if fixed else t
            taus = (math.nextafter(lower, math.inf), lower + rng.uniform(1e-9, 1e-6),
                    lower + rng.uniform(0.01, 5.0))
            strikes = tuple(rng.uniform(50.0, 200.0, order).tolist())
            for x in (rng.uniform(50.0, 200.0), 1e-30, 1e30, 5e-324):
                yield kind, signs, strikes, fixed, coeffs, x, t, taus


def test_node_pricer_reused_across_nodes_prices_each_binary():
    # an integral prices all its nodes from one pricer; each node must be
    # the price of the binary at that last expiry on its own, whatever the
    # pricer evaluated before it (limits saturating at the clamp, x/K
    # underflowing to 0, tau one float above the lower end)
    for kind, signs, strikes, fixed, coeffs, x, t, taus in _node_cases():
        node = last_expiry_pricer(kind, signs, strikes, fixed, coeffs, x, t)
        for tau in taus + taus[::-1]:
            spec = BinarySpec(kind, signs, strikes, fixed + (tau,), coeffs)
            assert node(tau)[0] == price_binary(spec, x, t), (spec, x, t)


# ---------------------------------------------------------------- oracles

# frozen from the Simpson oracle below with 2^14 panels
SIMPSON_CASE_EXPECTED = 1.8519660012552299e-03


def test_dense_simpson_agreement():
    lam = 0.005
    spec = order1("bond", 1, 200.0, lam, 3.0, 6.0)
    val, err = integral_binary(spec, 200.0, 0.0)

    def f(tau):
        w = lam * math.exp(-lam * (tau - 3.0))
        return w * price_binary(BinarySpec("bond", (1,), (200.0,), (tau,), BASE), 200.0, 0.0)

    oracle = simpson_integral(f, 3.0, 6.0, 2**12)
    assert oracle == pytest.approx(SIMPSON_CASE_EXPECTED, abs=1e-10)
    assert val == pytest.approx(oracle, abs=1e-6)
    assert abs(val - oracle) <= max(err, 1e-9)


def test_second_order_integrand_left_endpoint_degeneracy():
    # the running expiry starts exactly at the fixed expiry; open panels and
    # the correlation collapse keep the integral finite and accurate
    lam = 0.4
    spec = WeightedIntegralSpec(
        "bond", (1, 1), (100.0, 150.0), (3.0,), BASE, lam, 3.0, 6.0
    )
    val, err = integral_binary(spec, 200.0, 0.0)

    def f(tau):
        w = lam * math.exp(-lam * (tau - 3.0))
        return w * price_binary(
            BinarySpec("bond", (1, 1), (100.0, 150.0), (3.0, tau), BASE), 200.0, 0.0
        )

    oracle = simpson_integral(f, 3.0 + 1e-7, 6.0, 2**10)
    assert val == pytest.approx(oracle, abs=1e-6)
    assert err < 1e-6


# ------------------------------------------------------- near the money

# Order-1 tails from the evaluation time, where the binary behaves like
# sqrt(tau - t) at the lower end, on the parameters of a low-barrier curve
# variant: strike = cap n/R, coefficients (0, b, s_V), weight rate lambda.
NTM_STRIKE = 192.77515813855308
NTM_COEFFS = BsCoefficients(0.0, 0.05, 0.9881724410788062)
NTM_RATE = 0.005929604926072699

# (x, t, T, kind, value), the value from a 40-digit mpmath tanh-sinh
# integration in s = t + (T - t) v^2, split at the layer breakpoints.  The
# first pair is a curve price at t = 5.2 whose bond tail the raw-time
# Kronrod rule missed by 1.25e-7 while reporting an error of 1.9e-9.
NEAR_THE_MONEY_TAILS = [
    (192.49089480065913, 5.2, 6.0, 'bond', 0.00176144390629558006535583442622),
    (192.49089480065913, 5.2, 6.0, 'asset', 0.355318796496355243428019488339),
    (NTM_STRIKE * 0.9985, 5.2, 6.0, 'bond', 0.00176133954715636672727690912651),
    (NTM_STRIKE * 0.9985, 5.2, 6.0, 'asset', 0.355329870292419040650789723912),
    (NTM_STRIKE * 0.9985, 0.0, 3.0, 'bond', 0.00474664925762607630622129655314),
    (NTM_STRIKE * 0.9985, 0.0, 3.0, 'asset', 0.979511539209441662557097905429),
    (NTM_STRIKE * 1.0, 5.2, 6.0, 'bond', 0.00176750350507030163612932352515),
    (NTM_STRIKE * 1.0, 5.2, 6.0, 'asset', 0.354674515973438608616716813225),
    (NTM_STRIKE * 1.0, 0.0, 3.0, 'bond', 0.00475740559634587154290702867023),
    (NTM_STRIKE * 1.0, 0.0, 3.0, 'asset', 0.97890790226428532895763783005),
    (NTM_STRIKE * 1.0015, 5.2, 6.0, 'bond', 0.00177366332319262574379145406864),
    (NTM_STRIKE * 1.0015, 5.2, 6.0, 'asset', 0.354018177256316749871120311211),
    (NTM_STRIKE * 1.0015, 0.0, 3.0, 'bond', 0.00476815470475337941086795076469),
    (NTM_STRIKE * 1.0015, 0.0, 3.0, 'asset', 0.97830254919729753191847421193),
    (NTM_STRIKE * 1.05, 5.2, 6.0, 'bond', 0.00196363669017759167434177784268),
    (NTM_STRIKE * 1.05, 5.2, 6.0, 'asset', 0.333653840585152527642817930985),
    (NTM_STRIKE * 1.05, 0.0, 3.0, 'bond', 0.00510484851586988616083781530838),
    (NTM_STRIKE * 1.05, 0.0, 3.0, 'asset', 0.959210018017008880885429854139),
]


@pytest.mark.parametrize("x, t, upper, kind, truth", NEAR_THE_MONEY_TAILS)
def test_near_the_money_tail_matches_oracle(x, t, upper, kind, truth):
    sign = 1 if kind == "bond" else -1
    spec = WeightedIntegralSpec(kind, (sign,), (NTM_STRIKE,), (), NTM_COEFFS, NTM_RATE, t, upper)
    val, err = integral_binary(spec, x, t)
    assert abs(val - truth) <= err


@pytest.mark.parametrize("kind", ["bond", "asset"])
@pytest.mark.parametrize("span", [1e-15, 1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9])
@pytest.mark.parametrize("t", [0.0, 3.0, 5.2])
def test_at_the_money_tail_over_a_tiny_span(kind, span, t):
    # x == K puts the layer at zero width; nodes of s = t + span v^2 round
    # onto t, where the binary is undefined, and must be kept above it
    sign = 1 if kind == "bond" else -1
    spec = WeightedIntegralSpec(kind, (sign,), (200.0,), (), BASE, 0.005, t, t + span)
    val, err = integral_binary(spec, 200.0, t)
    # the binary starts at half its payoff scale; over spans this short it
    # stays there to within sqrt(span)
    scale = 1.0 if kind == "bond" else 200.0
    mass = -math.expm1(-0.005 * (spec.upper - t))
    assert math.isfinite(err)
    assert val == pytest.approx(0.5 * scale * mass, rel=1e-4)


@given(mid=st.floats(3.05, 5.95), lam=st.floats(0.001, 0.8))
@settings(deadline=None, max_examples=25)
def test_additivity(mid, lam):
    x, t = 180.0, 0.0
    whole, e0 = integral_binary(order1("bond", 1, 150.0, lam, 3.0, 6.0), x, t)
    left, e1 = integral_binary(order1("bond", 1, 150.0, lam, 3.0, mid), x, t)
    right, e2 = integral_binary(order1("bond", 1, 150.0, lam, mid, 6.0), x, t)
    # the right piece's weight starts at mid: scale it by the survival to mid
    joined = left + math.exp(-lam * (mid - 3.0)) * right
    assert whole == pytest.approx(joined, abs=max(1e-9, 3 * (e0 + e1 + e2)))


@given(
    lam=st.floats(0.001, 1.0),
    kind=st.sampled_from(("bond", "asset")),
    sign=st.sampled_from((1, -1)),
    k=st.floats(50.0, 400.0),
    r=st.floats(0.0, 0.15),
)
@settings(deadline=None, max_examples=40)
def test_dominated_bound(lam, kind, sign, k, r):
    x, t, c, d = 160.0, 0.0, 3.0, 6.0
    coeffs = BsCoefficients(r, 0.05, 1.0)
    spec = order1(kind, sign, k, lam, c, d, coeffs)
    val, _ = integral_binary(spec, x, t)
    if kind == "bond":
        family_bound = max(math.exp(-r * (c - t)), math.exp(-r * (d - t)))
    else:
        family_bound = x * max(math.exp(-0.05 * (c - t)), math.exp(-0.05 * (d - t)))
    assert val <= (1.0 - math.exp(-lam * (d - c))) * family_bound + 1e-12
