import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import defbond as db
from defbond.binaries import BinarySpec, BsCoefficients, price_binary, shift_coefficients
from defbond.errors import DomainError, ScheduleError
from defbond.pde import propagate_terminal

BASE = BsCoefficients(0.0, 0.05, 1.0)


def bond1(sign, k, T, coeffs=BASE):
    return BinarySpec("bond", (sign,), (k,), (T,), coeffs)


def asset1(sign, k, T, coeffs=BASE):
    return BinarySpec("asset", (sign,), (k,), (T,), coeffs)


# ------------------------------------------------------------- construction


def test_spec_validation():
    with pytest.raises(DomainError):
        BinarySpec("swap", (1,), (100.0,), (1.0,), BASE)
    with pytest.raises(DomainError):
        BinarySpec("bond", (1, -1), (100.0,), (1.0,), BASE)
    with pytest.raises(DomainError):
        BinarySpec("bond", (2,), (100.0,), (1.0,), BASE)
    with pytest.raises(DomainError):
        BinarySpec("bond", (1,), (-5.0,), (1.0,), BASE)
    for strike in (float("nan"), math.inf, 0.0):
        with pytest.raises(DomainError):
            BinarySpec("bond", (1, 1), (100.0, strike), (1.0, 2.0), BASE)
    with pytest.raises(ScheduleError):
        BinarySpec("bond", (1, 1), (100.0, 100.0), (2.0, 2.0), BASE)
    with pytest.raises(DomainError):
        BsCoefficients(0.0, 0.0, 0.0)


@pytest.mark.parametrize("order", [17, 32])
def test_orders_above_sixteen_price(order):
    # no order cap: long chains price, each extra date can only lower an
    # all-up bond, and a +inf last limit drops the last date exactly
    expiries = tuple(0.25 * (i + 1) for i in range(order))
    strikes = tuple(80.0 + 0.5 * i for i in range(order))
    long = price_binary(BinarySpec("bond", (1,) * order, strikes, expiries, BASE), 150.0, 0.0)
    short = price_binary(
        BinarySpec("bond", (1,) * (order - 1), strikes[:-1], expiries[:-1], BASE), 150.0, 0.0
    )
    assert 0.0 < long <= short <= 1.0
    c_full = db.build_correlation(0.0, expiries)
    c_red = db.build_correlation(0.0, expiries[:-1])
    a = np.linspace(-0.8, 1.1, order - 1)
    assert db.mvn_cdf(np.append(a, np.inf), c_full) == db.mvn_cdf(a, c_red)


def test_price_argument_validation():
    spec = bond1(1, 100.0, 1.0)
    with pytest.raises(DomainError):
        price_binary(spec, 0.0, 0.0)
    with pytest.raises(ScheduleError):
        price_binary(spec, 100.0, 1.0)
    with pytest.raises(ScheduleError):
        price_binary(spec, 100.0, 2.0)


# ------------------------------------------------------------------ examples


def test_deep_in_the_money_bond():
    # discount is exp(0) = 1, indicator almost surely hit
    assert price_binary(bond1(1, 100.0, 1.0), 1e9, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_vanishing_strike_put_side():
    assert price_binary(asset1(-1, 1e-12, 1.0), 100.0, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_moneyness_underflow_saturates():
    # x / K underflows to 0: the limit saturates instead of taking log(0)
    assert price_binary(bond1(1, 1e10, 1.0), 5e-324, 0.0) == 0.0
    assert price_binary(bond1(-1, 1e10, 1.0), 5e-324, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_second_order_bond_matches_bivariate_formula():
    spec = BinarySpec("bond", (1, 1), (100.0, 100.0), (3.0, 6.0), BASE)
    d1 = (math.log(2.0) - 0.55 * 3.0) / math.sqrt(3.0)
    d2 = (math.log(2.0) - 0.55 * 6.0) / math.sqrt(6.0)
    expected = db.bivariate_cdf(d1, d2, math.sqrt(0.5))
    assert price_binary(spec, 200.0, 0.0) == pytest.approx(expected, abs=1e-13)


# ------------------------------------------------------------------- parity

coeff_st = st.builds(
    BsCoefficients,
    r=st.floats(-0.05, 0.2),
    q=st.floats(0.0, 0.3),
    sigma=st.floats(0.05, 1.5),
)


@given(
    coeffs=coeff_st,
    k=st.floats(10.0, 500.0),
    T=st.floats(0.1, 10.0),
    x=st.floats(10.0, 500.0),
)
@settings(deadline=None, max_examples=150)
def test_first_order_parity(coeffs, k, T, x):
    t = 0.0
    b_sum = price_binary(bond1(1, k, T, coeffs), x, t) + price_binary(bond1(-1, k, T, coeffs), x, t)
    a_sum = price_binary(asset1(1, k, T, coeffs), x, t) + price_binary(asset1(-1, k, T, coeffs), x, t)
    assert b_sum == pytest.approx(math.exp(-coeffs.r * T), abs=1e-12)
    assert a_sum == pytest.approx(x * math.exp(-coeffs.q * T), abs=1e-12 * max(1.0, x))


@given(
    coeffs=coeff_st,
    k1=st.floats(20.0, 300.0),
    k2=st.floats(20.0, 300.0),
    x=st.floats(20.0, 300.0),
    s1=st.sampled_from((1, -1)),
)
@settings(deadline=None, max_examples=60)
def test_last_sign_parity_second_order(coeffs, k1, k2, x, s1):
    # summing over the last sign marginalizes the last date, leaving the
    # order-one binary with the extra discounting of the dropped date
    t1, t2 = 2.0, 5.0
    plus = BinarySpec("bond", (s1, 1), (k1, k2), (t1, t2), coeffs)
    minus = BinarySpec("bond", (s1, -1), (k1, k2), (t1, t2), coeffs)
    lhs = price_binary(plus, x, 0.0) + price_binary(minus, x, 0.0)
    rhs = math.exp(-coeffs.r * (t2 - t1)) * price_binary(bond1(s1, k1, t1, coeffs), x, 0.0)
    assert lhs == pytest.approx(rhs, abs=1e-12)


@given(
    coeffs=coeff_st,
    kind=st.sampled_from(("bond", "asset")),
    sign=st.sampled_from((1, -1)),
    k=st.floats(10.0, 400.0),
    x=st.floats(10.0, 400.0),
    T=st.floats(0.2, 8.0),
)
@settings(deadline=None, max_examples=150)
def test_discount_bounds(coeffs, kind, sign, k, x, T):
    spec = BinarySpec(kind, (sign,), (k,), (T,), coeffs)
    v = price_binary(spec, x, 0.0)
    assert v >= 0.0
    cap = math.exp(-coeffs.r * T) if kind == "bond" else x * math.exp(-coeffs.q * T)
    assert v <= cap * (1.0 + 1e-12)


# ---------------------------------------------------------- coefficient shift


def test_shift_identity_is_noop():
    spec = bond1(1, 100.0, 4.0, BsCoefficients(0.03, 0.08, 0.7))
    scale, shifted = shift_coefficients(spec, 0.03, 0.0)
    assert scale == 1.0
    assert shifted == spec


def test_shift_example_single_bond():
    spec = bond1(1, 100.0, 6.0, BsCoefficients(0.002, 0.052, 1.0))
    scale, shifted = shift_coefficients(spec, 0.0, 0.0)
    assert scale == pytest.approx(math.exp(-0.012), abs=1e-15)
    assert shifted.coeffs.r == 0.0
    assert shifted.coeffs.q == pytest.approx(0.05, abs=1e-15)
    assert shifted.coeffs.sigma == 1.0
    lhs = price_binary(spec, 200.0, 0.0)
    rhs = scale * price_binary(shifted, 200.0, 0.0)
    assert lhs == pytest.approx(rhs, abs=1e-12)


@st.composite
def _low_order_chains(draw):
    """(kind, signs, strikes, gaps between expiries) of an order-1 or -2 binary."""
    order = draw(st.integers(1, 2))
    gaps = draw(st.lists(st.floats(0.3, 3.0), min_size=order, max_size=order))
    strikes = draw(st.lists(st.floats(20.0, 300.0), min_size=order, max_size=order))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=order, max_size=order))
    kind = draw(st.sampled_from(("bond", "asset")))
    return kind, tuple(signs), tuple(strikes), tuple(gaps)


@given(
    r1=st.floats(-0.02, 0.15),
    r2=st.floats(-0.02, 0.15),
    carry=st.floats(0.0, 0.2),
    sigma=st.floats(0.1, 1.2),
    x=st.floats(30.0, 300.0),
    chain=_low_order_chains(),
)
# P(X > 2.6, Y < -1.6) of about 1e-9, once formed as Phi(-2.6) minus an upper
# orthant of 4.7e-3: the two sides' limits differ by one ULP, and the
# cancellation left them 8.5e-10 apart relative
@example(r1=0.0, r2=0.125, carry=0.02, sigma=0.375, x=58.0,
         chain=("bond", (-1, 1), (20.0, 113.0), (1.0, 1.0)))
@settings(deadline=None, max_examples=80)
def test_shift_equality_low_order(r1, r2, carry, sigma, x, chain):
    kind, signs, strikes, gaps = chain
    spec = BinarySpec(kind, signs, strikes, tuple(np.cumsum(gaps)), BsCoefficients(r1, r1 + carry, sigma))
    scale, shifted = shift_coefficients(spec, r2, 0.0)
    lhs = price_binary(spec, x, 0.0)
    rhs = scale * price_binary(shifted, x, 0.0)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-300)


@pytest.mark.parametrize("order", [3, 4])
def test_shift_equality_high_order(order):
    rng = np.random.default_rng(order)
    for _ in range(3):
        expiries = tuple(np.cumsum(rng.uniform(0.4, 2.0, order)))
        strikes = tuple(rng.uniform(40.0, 250.0, order))
        signs = tuple(int(s) for s in rng.choice((1, -1), order))
        kind = rng.choice(("bond", "asset"))
        r1, r2 = rng.uniform(-0.02, 0.12, 2)
        spec = BinarySpec(kind, signs, strikes, expiries, BsCoefficients(r1, r1 + 0.05, 0.8))
        scale, shifted = shift_coefficients(spec, r2, 0.0)
        lhs = price_binary(spec, 120.0, 0.0)
        rhs = scale * price_binary(shifted, 120.0, 0.0)
        assert lhs == pytest.approx(rhs, rel=1e-10)


# ------------------------------------------------- differential-operator check


def _bs_residual(spec, x, t, hx, ht):
    c = spec.coeffs
    v = lambda xx, tt: price_binary(spec, xx, tt)
    v_t = (v(x, t + ht) - v(x, t - ht)) / (2 * ht)
    v_x = (v(x + hx, t) - v(x - hx, t)) / (2 * hx)
    v_xx = (v(x + hx, t) - 2 * v(x, t) + v(x - hx, t)) / (hx * hx)
    return v_t + 0.5 * c.sigma**2 * x * x * v_xx + (c.r - c.q) * x * v_x - c.r * v(x, t)


@pytest.mark.parametrize(
    "spec,x,t",
    [
        (bond1(1, 100.0, 2.0, BsCoefficients(0.04, 0.01, 0.5)), 110.0, 0.3),
        (asset1(-1, 90.0, 3.0, BsCoefficients(0.02, 0.06, 0.8)), 80.0, 0.8),
        (BinarySpec("bond", (1, -1), (100.0, 120.0), (2.0, 4.0), BASE), 140.0, 0.5),
        (BinarySpec("asset", (1, 1), (80.0, 110.0), (1.5, 3.0), BsCoefficients(0.05, 0.02, 0.6)), 95.0, 0.2),
    ],
)
def test_price_satisfies_pricing_pde(spec, x, t):
    res = _bs_residual(spec, x, t, hx=2e-3 * x, ht=2e-4)
    scale = 1.0 + abs(price_binary(spec, x, t))
    assert abs(res) <= 5e-5 * scale


# ------------------------------------------------------------ nesting vs PDE


@pytest.mark.parametrize(
    "kind,signs,coeffs,strikes,dates,span",
    [
        ("bond", (1, 1), BsCoefficients(0.03, 0.05, 0.6), (100.0, 120.0), (2.0, 5.0), 60.0),
        ("bond", (1, -1), BsCoefficients(0.03, 0.05, 0.6), (100.0, 120.0), (2.0, 5.0), 60.0),
        ("asset", (1, 1), BsCoefficients(0.03, 0.05, 0.6), (100.0, 120.0), (2.0, 5.0), 60.0),
        # unit volatility needs a wide domain to contain the boundary error
        ("bond", (1, 1), BASE, (100.0, 100.0), (3.0, 6.0), 2000.0),
    ],
)
def test_nesting_matches_pde_propagation(kind, signs, coeffs, strikes, dates, span):
    # an order-2 binary equals the PDE propagation of its order-1 payoff
    # cut by the leading indicator
    k1, k2 = strikes
    t1, t2 = dates
    t0 = 0.0
    # grid placed so the terminal jump at k1 falls mid-cell (second-order
    # accurate treatment of the indicator)
    n = 2400
    dy = 2.0 * math.log(span) / n
    y = math.log(k1) + (np.arange(n + 1) - (n / 2 + 0.5)) * dy
    xg = np.exp(y)
    inner = np.array([price_binary(BinarySpec(kind, signs[1:], (k2,), (t2,), coeffs), xx, t1) for xx in xg])
    terminal = np.where(xg > k1, inner, 0.0)

    if kind == "bond" and signs == (1, 1):
        bc_hi = lambda t: math.exp(-coeffs.r * (t2 - t))
    elif kind == "bond":
        bc_hi = lambda t: 0.0
    else:
        bc_hi = lambda t: xg[-1] * math.exp(-coeffs.q * (t2 - t))
    slice0 = propagate_terminal(y, terminal, coeffs, t0, t1, 1600, lambda t: 0.0, bc_hi)

    spec2 = BinarySpec(kind, signs, strikes, dates, coeffs)
    for x in (80.0, 100.0, 130.0, 200.0):
        direct = price_binary(spec2, x, t0)
        via_pde = float(np.interp(math.log(x), y, slice0))
        assert via_pde == pytest.approx(direct, abs=5e-4 * max(1.0, x / 100.0))
