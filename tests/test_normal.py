import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

import defbond as db
from defbond import kernels, normal
from defbond.errors import DomainError, ScheduleError
from defbond.normal import QmcConfig

from oracles import conditional_box_ndtr, conditional_chain_cdf3, conditional_chain_cdf4, gl_mvn_cdf

INF = float("inf")
NAN = float("nan")


# ---------------------------------------------------------------- univariate


def test_std_normal_center():
    assert db.std_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-16)


def test_std_normal_total_mass():
    assert db.std_normal_cdf(INF) == 1.0
    assert db.std_normal_cdf(-INF) == 0.0


def test_scalar_phi_matches_scipy_ndtr():
    # every scalar Phi is libm erfc; it must track scipy's ndtr to about
    # rounding and underflow to exactly 0 where ndtr does
    from scipy.special import ndtr

    xs = np.linspace(-37.6, 9.0, 4661)
    got = np.array([normal._phi(x) for x in xs.tolist()])
    assert np.all(np.abs(got - ndtr(xs)) <= 1e-13 * ndtr(xs))
    # the node-array form of the conditional integral is the same Phi, bit
    # for bit, across the underflow edge too
    edge = np.linspace(-37.6771207205 - 1e-9, -37.6771207205 + 1e-9, 339)
    for z in (xs.reshape(59, 79), edge, np.array([-INF, -40.0, 38.0, INF])):
        assert kernels._phi_nodes(z).tolist() == np.vectorize(normal._phi)(z).tolist()
    for x in (-37.7, -38.0, -40.0, -1e300, -INF):
        assert normal._phi(x) == 0.0
    for x in (8.3, 9.0, 38.0, 1e300, INF):
        assert normal._phi(x) == 1.0
    # 3000 consecutive floats across the underflow edge near -37.6771207205:
    # zero exactly where ndtr is
    x = -37.677120720485
    for _ in range(3000):
        assert (normal._phi(x) == 0.0) == (ndtr(x) == 0.0), x
        x = math.nextafter(x, -INF)


def test_std_normal_against_quadrature_oracle():
    # independent oracle: direct integration of the density
    val, est = quad(lambda y: math.exp(-0.5 * y * y) / math.sqrt(2 * math.pi), -12.0, 1.959964,
                    epsabs=1e-14)
    assert est < 1e-10
    assert val == pytest.approx(0.975, abs=1e-6)
    assert db.std_normal_cdf(1.959964) == pytest.approx(val, abs=1e-12)
    assert db.std_normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)


def test_std_normal_rejects_nan():
    with pytest.raises(DomainError):
        db.std_normal_cdf(float("nan"))


@given(st.floats(-10, 10))
@settings(deadline=None)
def test_sign_flip_identity(d):
    assert db.std_normal_cdf(d) + db.std_normal_cdf(-d) == pytest.approx(1.0, abs=1e-15)


@given(st.floats(-8, 8), st.floats(0.0, 2.0))
@settings(deadline=None)
def test_std_normal_monotone(x, bump):
    assert db.std_normal_cdf(x + bump) >= db.std_normal_cdf(x)


# ----------------------------------------------------------------- bivariate


def test_bivariate_independent_center():
    assert db.bivariate_cdf(0.0, 0.0, 0.0) == pytest.approx(0.25, abs=1e-15)


def test_bivariate_marginalizes_at_inf():
    for a in (-1.3, 0.0, 2.4):
        for rho in (-0.7, 0.0, 0.9):
            assert db.bivariate_cdf(a, INF, rho) == pytest.approx(db.std_normal_cdf(a), abs=1e-14)
            assert db.bivariate_cdf(INF, a, rho) == pytest.approx(db.std_normal_cdf(a), abs=1e-14)
    # a limit past the saturation of Phi, +-37.68, is an infinite one to the
    # last bit, at every correlation including -1
    rng = np.random.default_rng(26)
    edge = -normal._PHI_ZERO
    inside = math.nextafter(edge, 0.0)
    limits = rng.uniform(-9.0, 9.0, 60).tolist() + [
        -1e300, -40.0, -edge, -inside, inside, edge, 40.0, 1e300
    ]
    saturate = {-1e300: -INF, -40.0: -INF, -edge: -INF, edge: INF, 40.0: INF, 1e300: INF}
    for rho in rng.uniform(-1.0, 1.0, 8).tolist() + [-1.0, -0.5, 0.0, 0.5, 1.0]:
        for a in limits:
            for b in rng.choice(limits, 6).tolist() + [-1e300, 1e300]:
                expected = db.bivariate_cdf(saturate.get(a, a), saturate.get(b, b), rho)
                assert db.bivariate_cdf(a, b, rho) == expected, (a, b, rho)


def test_bivariate_known_value():
    # closed form at the origin: 1/4 + arcsin(rho) / (2 pi)
    expected = 0.25 + math.asin(0.5) / (2.0 * math.pi)
    assert db.bivariate_cdf(0.0, 0.0, 0.5) == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize(
    "a,b,rho",
    [(0.3, -0.4, 0.6), (-1.0, 1.5, -0.8), (0.9, 0.2, 0.95)],
)
def test_bivariate_against_quadrature_oracle(a, b, rho):
    def dens(y, x):
        z = (x * x - 2 * rho * x * y + y * y) / (1 - rho * rho)
        return math.exp(-0.5 * z) / (2 * math.pi * math.sqrt(1 - rho * rho))

    val, est = dblquad(dens, -8.5, a, -8.5, b, epsabs=1e-12)
    assert db.bivariate_cdf(a, b, rho) == pytest.approx(val, abs=max(1e-11, 10 * est))


def test_bivariate_zero_rho_factorizes():
    # at r = 0 the Gauss-Legendre sum is scaled by asin(0) = 0, so the
    # orthant is the product of its marginals to the last bit; limits past
    # the saturation of Phi, up to the largest float, factorize too
    rng = np.random.default_rng(25)
    limits = rng.uniform(-9.0, 9.0, 400).tolist() + [-1e300, -40.0, 40.0, 1e300, -INF, INF]
    for a in limits:
        for b in rng.choice(limits, 5).tolist() + [-1e300, 1e300]:
            assert db.bivariate_cdf(a, b, 0.0) == db.std_normal_cdf(a) * db.std_normal_cdf(b), (a, b)


def test_bivariate_degenerate_rho():
    assert db.bivariate_cdf(0.4, 1.0, 1.0) == pytest.approx(db.std_normal_cdf(0.4), abs=1e-15)
    # rho = -1: X = -Y, P(X <= a, X >= -b)
    assert db.bivariate_cdf(0.5, 0.2, -1.0) == pytest.approx(
        db.std_normal_cdf(0.5) - db.std_normal_cdf(-0.2), abs=1e-15
    )
    assert db.bivariate_cdf(-1.0, -1.0, -1.0) == 0.0


def test_bivariate_domain_errors():
    with pytest.raises(DomainError):
        db.bivariate_cdf(0.0, 0.0, 1.0001)
    with pytest.raises(DomainError):
        db.bivariate_cdf(float("nan"), 0.0, 0.0)


@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-0.999, 0.999))
@settings(deadline=None, max_examples=60)
def test_bivariate_symmetry(a, b, rho):
    assert db.bivariate_cdf(a, b, rho) == pytest.approx(db.bivariate_cdf(b, a, rho), abs=1e-13)


# ---------------------------------------------------------- correlation data


def test_build_correlation_two_dates():
    c = db.CorrelationStructure(0.0, (3.0, 6.0))
    assert c.covariance[0, 1] == pytest.approx(math.sqrt(0.5), abs=1e-15)


def test_correlation_structure_holds_float_dates():
    c = db.CorrelationStructure(0, [1, 2])
    assert c == db.CorrelationStructure(0.0, (1.0, 2.0))
    assert type(c.eval_time) is float and all(type(v) is float for v in c.expiries)
    assert c.rho == (math.sqrt(0.5),)


def test_build_correlation_single_date():
    c = db.CorrelationStructure(1.0, (2.5,))
    assert c.covariance.tolist() == [[1.0]]


def test_build_correlation_near_expiry():
    c = db.CorrelationStructure(2.9, (3.0, 6.0))
    assert c.covariance[0, 1] == pytest.approx(math.sqrt(0.1 / 3.1), abs=1e-15)


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_correlation_rho_is_the_covariance_superdiagonal(d):
    t = 0.4
    expiries = tuple(0.5 + 0.7 * k + 0.1 * k * k for k in range(d))
    c = db.CorrelationStructure(t, expiries)
    assert isinstance(c.rho, tuple)
    assert c.rho == tuple(math.sqrt((a - t) / (b - t)) for a, b in zip(expiries, expiries[1:]))
    assert c.rho == tuple(np.diagonal(c.covariance, 1).tolist())
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.rho = (0.5,) * (d - 1)


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_last_date_chains_equal_checked_chains(d):
    # a Kronrod node's chain appends one correlation to the fixed dates,
    # checked once, and is the structure the constructor builds
    t = 0.4
    fixed = tuple(0.5 + 0.7 * k + 0.1 * k * k for k in range(d - 1))
    chain = normal.CorrelationStructure._last_date_chains(t, fixed)
    for tau in (math.nextafter(fixed[-1] if fixed else t, INF), 9.25, 1e6):
        node, built = chain(tau), db.CorrelationStructure(t, fixed + (tau,))
        assert node == built and node.rho == built.rho
        assert np.array_equal(node.covariance, built.covariance)
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.rho = built.rho


@pytest.mark.parametrize("t, fixed", [
    (NAN, ()), (-INF, ()), (NAN, (1.0,)), (0.0, (1.0, NAN)), (0.0, (2.0, 1.0)), (1.0, (1.0,)),
])
def test_last_date_chains_check_the_fixed_dates(t, fixed):
    with pytest.raises(ScheduleError):
        normal.CorrelationStructure._last_date_chains(t, fixed)


def test_build_correlation_rejects_bad_order():
    with pytest.raises(ScheduleError):
        db.CorrelationStructure(0.0, (3.0, 3.0))
    with pytest.raises(ScheduleError):
        db.CorrelationStructure(0.0, ())
    with pytest.raises(ScheduleError):
        db.CorrelationStructure(5.0, (3.0, 6.0))


# ----------------------------------------------------------------- mvn_cdf


def test_mvn_total_mass():
    c = db.CorrelationStructure(0.0, (1.0, 2.0, 3.0, 4.0))
    p, err = db.mvn_cdf([INF] * 4, c)
    assert p == 1.0
    assert err == 0.0


M3_LIMITS = (0.5, 0.2, -0.1)
# frozen from gl_mvn_cdf(M3_LIMITS, cov(t=0, T=(1,2,3)), n=140, lo=-9.5); the
# oracle is re-evaluated live below
M3_EXPECTED = 0.372731462627


def test_mvn_m3_against_dense_quadrature():
    c = db.CorrelationStructure(0.0, (1.0, 2.0, 3.0))
    oracle = gl_mvn_cdf(M3_LIMITS, c.covariance)
    assert oracle == pytest.approx(M3_EXPECTED, abs=1e-9)
    p, err = db.mvn_cdf(M3_LIMITS, c)
    assert p == pytest.approx(M3_EXPECTED, abs=1e-6)
    assert abs(p - oracle) <= max(err, 1e-6)


def test_mvn_delegates_low_dimensions():
    c2 = db.CorrelationStructure(0.0, (3.0, 6.0))
    p2, err2 = db.mvn_cdf([0.3, -0.2], c2)
    assert p2 == pytest.approx(db.bivariate_cdf(0.3, -0.2, math.sqrt(0.5)), abs=1e-14)
    assert err2 <= 1e-12
    c1 = db.CorrelationStructure(0.0, (3.0,))
    p1, err1 = db.mvn_cdf([0.77], c1)
    assert p1 == pytest.approx(db.std_normal_cdf(0.77), abs=1e-15)
    assert err1 <= 1e-15


def test_mvn_marginalization_chain():
    # an infinite limit on the first, an interior or the last coordinate must
    # reduce to the call on the chain without that date; an interior drop
    # joins its neighbours through rho[k-1] * rho[k]
    rng = np.random.default_rng(5)
    expiries = (0.7, 1.1, 2.0, 3.4, 5.0, 6.5)
    for m in range(3, 7):
        c_full = db.CorrelationStructure(0.0, expiries[:m])
        for k in range(m):
            c_red = db.CorrelationStructure(0.0, expiries[:k] + expiries[k + 1 : m])
            a = rng.uniform(-1.2, 1.5, size=m - 1)
            p_full, _ = db.mvn_cdf(np.insert(a, k, INF), c_full)
            p_red, _ = db.mvn_cdf(a, c_red)
            assert abs(p_full - p_red) <= 1e-12, (m, k)


def test_mvn_signs_match_bivariate_in_two_dimensions():
    # the event s_i X_i <= a_i under every sign pattern is the bivariate CDF
    # of the flipped pair, whose correlation is s_1 s_2 rho
    rng = np.random.default_rng(17)
    for _ in range(12):
        t1, t2 = np.cumsum(rng.uniform(0.2, 3.0, size=2))
        c = db.CorrelationStructure(0.0, (t1, t2))
        rho = math.sqrt(t1 / t2)
        a = rng.uniform(-2.0, 2.0, size=2)
        for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            p, _ = db.mvn_cdf(a, c, signs)
            q = db.bivariate_cdf(a[0], a[1], signs[0] * signs[1] * rho)
            assert abs(p - q) <= 1e-15, signs


def test_mvn_monotone_in_each_limit():
    rng = np.random.default_rng(11)
    c = db.CorrelationStructure(0.0, (1.0, 2.5, 4.0))
    for _ in range(8):
        a = rng.uniform(-1.5, 1.5, size=3)
        i = rng.integers(0, 3)
        lo, e_lo = db.mvn_cdf(a, c)
        a2 = a.copy()
        a2[i] += rng.uniform(0.05, 0.8)
        hi, e_hi = db.mvn_cdf(a2, c)
        assert hi >= lo - (e_lo + e_hi)


def test_mvn_signs_match_inclusion_exclusion():
    c = db.CorrelationStructure(0.0, (3.0, 6.0))
    rho = math.sqrt(0.5)
    a1, a2 = 0.6, -0.3
    p, _ = db.mvn_cdf([a1, a2], c, signs=(1, -1))
    expected = db.std_normal_cdf(a1) - db.bivariate_cdf(a1, -a2, rho)
    assert p == pytest.approx(expected, abs=1e-13)


def test_mvn_near_coincident_dates_collapse():
    # two expiries 1e-12 apart degenerate to the min of their limits
    c = db.CorrelationStructure(0.0, (1.0, 1.0 + 1e-12, 3.0))
    p, _ = db.mvn_cdf([0.4, 0.9, 0.1], c)
    c2 = db.CorrelationStructure(0.0, (1.0, 3.0))
    p2, _ = db.mvn_cdf([min(0.4, 0.9), 0.1], c2)
    assert p == pytest.approx(p2, abs=1e-9)


def test_mvn_rejects_non_structure_correlation():
    # only the Brownian-chain structure is accepted, not a matrix
    with pytest.raises(DomainError):
        db.mvn_cdf([0.0, 0.0], np.eye(2))
    with pytest.raises(DomainError):
        db.mvn_cdf([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]])


def test_mvn_rejects_bad_signs():
    c = db.CorrelationStructure(0.0, (1.0, 2.0))
    with pytest.raises(DomainError):
        db.mvn_cdf([0.0, 0.0], c, signs=(1, 2))


def test_mvn_deterministic_for_fixed_config():
    # deterministic, and the config's error target changes no result
    c = db.CorrelationStructure(0.0, (1.0, 2.0, 3.0, 4.5))
    a = [0.3, 0.1, -0.2, 0.8]
    p1, e1 = db.mvn_cdf(a, c)
    p2, e2 = db.mvn_cdf(a, c)
    assert p1 == p2 and e1 == e2
    assert db.mvn_cdf(a, c, config=QmcConfig(target_error=1.0)) == (p1, e1)


def test_mvn_high_dimensions_against_scipy():
    # scipy's integrator is an independent implementation of the same
    # quantity; its default accuracy is ~1e-5
    from scipy.stats import multivariate_normal

    rng = np.random.default_rng(31)
    for m in (5, 6, 7):
        ts = np.cumsum(rng.uniform(0.3, 1.5, size=m))
        c = db.CorrelationStructure(0.0, tuple(ts))
        a = rng.uniform(-1.0, 2.0, size=m)
        p, err = db.mvn_cdf(a, c)
        ref = multivariate_normal(mean=np.zeros(m), cov=c.covariance).cdf(a)
        assert p == pytest.approx(ref, abs=max(2e-5, 3 * err))


def test_mvn_error_estimate_covers_actual_error():
    # the chain quadrature matches the dense-quadrature oracle to 1e-12 on
    # random 3-d problems, and its coarse-rule estimate covers the distance
    # (up to the oracle's own rounding)
    rng = np.random.default_rng(2024)
    for _ in range(24):
        ts = np.cumsum(rng.uniform(0.3, 2.0, size=3))
        c = db.CorrelationStructure(0.0, tuple(ts))
        a = rng.uniform(-1.8, 1.8, size=3)
        p, err = db.mvn_cdf(a, c)
        truth = gl_mvn_cdf(a, c.covariance, n=80)
        assert abs(p - truth) <= 1e-12
        assert abs(p - truth) <= err + 1e-14


def test_mvn_every_sign_pattern_in_three_dimensions():
    # each flip pattern s matches the dense oracle on the flipped covariance
    # s_i s_j c_ij, and the coarse-rule estimate covers the distance
    rng = np.random.default_rng(303)
    for _ in range(4):
        ts = np.cumsum(rng.uniform(0.3, 2.0, size=3))
        c = db.CorrelationStructure(0.0, tuple(ts))
        a = rng.uniform(-1.8, 1.8, size=3)
        for signs in itertools.product((1, -1), repeat=3):
            s = np.array(signs, dtype=float)
            p, err = db.mvn_cdf(a, c, signs)
            truth = gl_mvn_cdf(a, np.outer(s, s) * c.covariance, n=80)
            assert abs(p - truth) <= 1e-12, signs
            assert abs(p - truth) <= err + 1e-14, signs


@pytest.mark.parametrize("signs", [(1, 1, 1), (1, -1, 1)])
@pytest.mark.parametrize("position", ["first", "second"])
def test_mvn_near_coincident_dates_against_conditional_oracle(position, signs):
    # gap / tau at every decade from 1e-12 to 1, between the first two dates
    # or the last two; the conditional oracle stays exact where the dense one
    # does not
    a = (0.3, 0.35, -0.2)
    for e in range(-12, 1):
        gap = 10.0**e
        taus = (1.0, 1.0 + gap, 2.5) if position == "first" else (1.0, 2.0, 2.0 + 2.0 * gap)
        p, err = db.mvn_cdf(a, db.CorrelationStructure(0.0, taus), signs)
        truth = conditional_chain_cdf3(a, taus, signs)
        assert abs(p - truth) <= 1e-9, (gap, p, truth)
        assert err <= 1e-9


# Interior near-coincident dates at d = 4: chains (1, 1 + g1, 1 + g1 + g2,
# 2.5) whose two interior gaps lie 2 to 6 decades apart.  The 12-node rule
# is off by up to 4e-11 here (the 40-node rule by 1.5e-15); the coarse-rule
# estimate, up to 6e-8, covers it.
@pytest.mark.parametrize("g1, g2, signs", [
    (1.7e-2, 2.3e-6, (1, 1, 1, 1)),
    (1e-6, 1e-2, (1, -1, 1, 1)),
    (1e-3, 1e-5, (1, 1, -1, 1)),
    (1e-7, 1e-1, (-1, 1, 1, -1)),
    (1e-1, 1e-7, (1, 1, 1, 1)),
])
def test_mvn_interior_near_coincident_dates_against_conditional_oracle(g1, g2, signs):
    a = (0.3, 0.35, 0.32, -0.2)
    taus = (1.0, 1.0 + g1, 1.0 + g1 + g2, 2.5)
    p, err = db.mvn_cdf(a, db.CorrelationStructure(0.0, taus), signs)
    truth = conditional_chain_cdf4(a, taus, signs)
    assert abs(p - truth) <= err, (p, truth, err)
    assert err <= 1e-7


def test_mvn_rejects_matrix_limits():
    with pytest.raises(DomainError):
        db.mvn_cdf([[0.0, 0.0]], db.CorrelationStructure(0.0, (1.0, 2.0)))


@pytest.mark.parametrize("limits", [
    [0.1, float("nan")],
    [],
    np.array(0.5),
    0.5,
    np.array([[0.1], [0.2]]),
    None,
])
def test_mvn_rejects_malformed_limits(limits):
    with pytest.raises(DomainError):
        db.mvn_cdf(limits, db.CorrelationStructure(0.0, (1.0, 2.0)))


@pytest.mark.parametrize("signs", [
    (1,),
    (1, 1, 1),
    (1, 0),
    (1, float("nan")),
    np.array([1.0, 0.0]),
    np.array([[1], [1]]),
    1,
])
def test_mvn_rejects_malformed_signs(signs):
    with pytest.raises(DomainError):
        db.mvn_cdf([0.1, 0.2], db.CorrelationStructure(0.0, (1.0, 2.0)), signs)


def _chain(d: int):
    return db.CorrelationStructure(0.0, tuple(1.0 + k for k in range(d)))


def test_mvn_accepts_array_and_tuple_inputs_alike():
    for limits, signs in (([0.2], [-1]), ([0.2, -0.1], [1, -1]), ([0.2, -0.1, 0.4], [1, -1, 1])):
        c = _chain(len(limits))
        ref = db.mvn_cdf(limits, c, tuple(signs))
        assert db.mvn_cdf(np.array(limits), c, np.array(signs, dtype=float)) == ref
        assert db.mvn_cdf(tuple(limits), c, signs) == ref
        assert db.mvn_cdf(iter(limits), c, signs) == ref


# mvn_cdf converts, NaN-checks and signs its limits in one pass; each fault
# raises DomainError with the message of the first check it fails: limits,
# then the correlation and its dimension, then the signs.

def _bad_signs(d: int):
    """Sign vectors with a 0, a 2 or a NaN entry, or of the wrong length."""
    return [
        (0,) + (1,) * (d - 1),
        (1,) * (d - 1) + (2,),
        (-1,) * (d - 1) + (float("nan"),),
        (1,) * (d - 1),
        (1,) * (d + 1),
        np.array((1.0,) * (d - 1) + (0.0,)),
        1,
    ]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_mvn_rejects_a_nan_limit_at_every_position_under_any_signs(d):
    patterns = [None, *itertools.product((1, -1), repeat=d), *_bad_signs(d)]
    for position in range(d):
        limits = [0.3] * d
        limits[position] = float("nan")
        for signs in patterns:
            for a in (limits, np.array(limits)):
                with pytest.raises(DomainError, match="NaN limit"):
                    db.mvn_cdf(a, _chain(d), signs)
        with pytest.raises(DomainError, match="NaN limit"):
            db.mvn_cdf(limits, np.eye(d))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_mvn_rejects_signs_other_than_plus_minus_one(d):
    for signs in _bad_signs(d):
        with pytest.raises(DomainError, match="signs must be"):
            db.mvn_cdf([0.3] * d, _chain(d), signs)


@pytest.mark.parametrize("limits", [[], (), np.array([]), [[0.1, 0.2]], np.zeros((2, 1)), np.zeros((1, 2))])
@pytest.mark.parametrize("signs", [None, (1, 1), (1, -1, 1)])
def test_mvn_rejects_empty_and_two_dimensional_limits(limits, signs):
    with pytest.raises(DomainError, match="one-dimensional"):
        db.mvn_cdf(limits, _chain(2), signs)


@pytest.mark.parametrize("corr", [np.eye(2), [[1.0, 0.5], [0.5, 1.0]], None, _chain(2).covariance])
@pytest.mark.parametrize("signs", [None, (1, -1), (1, 0)])
def test_mvn_rejects_a_correlation_that_is_no_chain(corr, signs):
    with pytest.raises(DomainError, match="CorrelationStructure"):
        db.mvn_cdf([0.3, 0.1], corr, signs)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("signs", [None, (1, -1), (1, -1, 1), (1, 2)])
def test_mvn_rejects_mismatched_dimensions(d, signs):
    with pytest.raises(DomainError, match="dimension differ"):
        db.mvn_cdf([0.3, 0.1], _chain(d), signs)


@pytest.mark.parametrize("t, expiries", [
    (float("nan"), (1.0, 2.0)),
    (0.0, (1.0, float("nan"))),
    (0.0, (float("nan"), 2.0)),
    (-INF, (1.0, 2.0)),
    (0.0, (1.0, INF)),
])
def test_correlation_rejects_non_finite_dates(t, expiries):
    with pytest.raises(ScheduleError):
        db.CorrelationStructure(t, expiries)


# A +-1 pair merged by box reduction leaves a coordinate bounded on both
# sides: expiries one ulp apart with opposite signs give lo <= X_1 <= hi
# beside X_3 <= a_3, at correlation sqrt(1/3).  The merge adds
# acos(r) / pi = 4.7e-9 to the reported error, r = 1 - 1.1e-16 the pair's
# correlation.
ULP_PAIR = (1.0, math.nextafter(1.0, 2.0), 3.0)
ULP_MERGE = math.acos(math.sqrt(1.0 / math.nextafter(1.0, 2.0))) / math.pi


def test_merged_pair_reports_its_merge_error():
    # two one-sided coordinates one ulp apart at 0 are merged into one, whose
    # probability 0.5 lies acos(r) / (2 pi) = 2.4e-9 above the pair's
    # 0.25 + asin(r) / (2 pi) (40-digit mpmath); the reported error covers it
    p, err = db.mvn_cdf([0.0, 0.0], db.CorrelationStructure(0.0, (1.0, math.nextafter(1.0, 2.0))))
    assert abs(p - 0.4999999976284065) <= err
    assert err == pytest.approx(ULP_MERGE, rel=1e-6)


# Boxes that cancel when taken as differences of larger probabilities, as
# (limits, expiries, signs), with P from 40-digit mpmath: an integral of
# phi(x) P(Y in box | X = x) in two dimensions, Phi(a) in one.  An upper
# tail P(X >= -a) taken as 1 - Phi(-a) kept no digits below 1e-16; on the
# ulp pair, 5 <= X_1 <= 5.5 beside X_3 <= a_3 cancels to 1e-10 as a
# difference of bivariate CDFs.
CANCELLING_BOXES = [
    ((-2.598395298646475, -1.5981929570216107), (1.0, 2.0), (-1, 1), 1.0218821137899136e-9),
    ((1.1, -3.75), (1.0, 1.1), (1, -1), 1.2783158334107827e-21),
    ((-5.0, -5.5), (1.0, 2.5), (1, 1), 6.7355320577273796e-10),
    ((-4.0, 7.0), (2.0, 2.2), (-1, -1), 3.1671241833119921e-5),
    ((-5.0,), (1.0,), (-1,), 2.866515718791939e-07),
    ((-8.0,), (1.0,), (-1,), 6.220960574271784e-16),
    ((-9.0,), (1.0,), (-1,), 1.1285884059538405e-19),
    ((-20.0,), (1.0,), (-1,), 2.7536241186062337e-89),
    ((5.5, -5.0, 0.0), ULP_PAIR, (1, -1, 1), 3.7857909285521177e-11),
    ((5.5, -5.0, -2.0), ULP_PAIR, (1, -1, 1), 1.6810129808462955e-16),
]


@pytest.mark.parametrize("limits, expiries, signs, truth", CANCELLING_BOXES)
def test_mvn_cancelling_boxes_keep_relative_accuracy(limits, expiries, signs, truth):
    # the first is the box behind a shift-equality failure: P(X > 2.6,
    # Y < -1.6) at correlation sqrt(1/2) was 3.5e-9 low relative when taken
    # as Phi(-2.6) minus an upper orthant of about 4.7e-3
    p, _ = db.mvn_cdf(list(limits), db.CorrelationStructure(0.0, expiries), signs)
    assert p == pytest.approx(truth, rel=1e-13, abs=0.0)


def test_conditional_box_matches_the_ndtr_form():
    # the conditional integral takes Phi node by node from libm's erfc; an
    # adaptive quadrature with scipy's ndtr gives the same boxes to
    # rounding: orthants at r < 0 whose reflection cancels, and boxes
    # bounded on both sides in one coordinate beside a one-sided one
    rng = np.random.default_rng(17)
    inf = math.inf
    boxes = []
    while len(boxes) < 100:
        h, k, r = rng.uniform(-1.0, 5.0), rng.uniform(-1.0, 5.0), rng.uniform(-0.999, -0.05)
        marginal = normal._phi(-max(h, k))
        if marginal - normal._bvnu(max(h, k), -min(h, k), -r) < normal._CANCEL * marginal:
            boxes.append(((h, k), (inf, inf), r))
    while len(boxes) < 200:
        a = rng.uniform(-6.0, 6.0)
        pair = (a, a + rng.uniform(0.05, 3.0))
        other = (rng.uniform(-4.0, 4.0), inf) if rng.uniform() < 0.5 else (-inf, rng.uniform(-4.0, 4.0))
        lo, hi = zip(pair, other) if rng.uniform() < 0.5 else zip(other, pair)
        boxes.append((lo, hi, rng.uniform(-0.999, 0.999)))
    for lo, hi, r in boxes:
        p, truth = kernels._conditional_box(lo, hi, r), conditional_box_ndtr(lo, hi, r)
        assert p == pytest.approx(truth, rel=1e-13, abs=0.0), (lo, hi, r)


@pytest.mark.parametrize("limits, rho, signs", [
    # the cancelling orthant P(X1 <= 1.43, X2 >= 6.13) at correlation 0.997
    ((1.43, -6.13), (0.997,), (1, -1)),
    # a 3-date chain with X3 >= 4.55 after X2 <= 1.28
    ((0.5, 1.28, -4.55), (0.562, 0.998), (1, 1, -1)),
])
def test_boxes_with_no_conditional_mass_return_zero(limits, rho, signs):
    # given the coordinate before it, the last coordinate's conditional mass
    # is exactly 0.0 in double precision over that coordinate's whole box:
    # the quadrature sums to 0.0 with the box's usual error floor, and the
    # independent ndtr quadratures agree on 0.0
    taus = [1.0]
    for r in rho:
        taus.append(taus[-1] / r**2)
    corr = db.CorrelationStructure(0.0, taus)
    assert corr.rho == rho
    assert db.mvn_cdf(list(limits), corr, signs) == (0.0, 5e-15 if len(limits) == 2 else 1e-15)
    if len(limits) == 2:
        lo, hi = (-INF, -limits[1]), (limits[0], INF)
        assert conditional_box_ndtr(lo, hi, rho[0]) == 0.0
    else:
        assert conditional_chain_cdf3(limits, tuple(taus), signs) == 0.0


def test_bvnu_tables_are_the_gauss_legendre_rules():
    # the literal node tables of the bivariate reduction are (1 + x, w) of
    # numpy's 12- and 20-node Gauss-Legendre rules, bit for bit
    for n, table in ((12, normal._BVNU_12), (20, normal._BVNU_20)):
        x, w = np.polynomial.legendre.leggauss(n)
        assert table == tuple(zip((1.0 + x).tolist(), w.tolist()))


def test_mvn_two_sided_pair_matches_bivariate_difference():
    # P(-a_2 <= X_1 <= a_1, X_3 <= a_3) where the difference of bivariate
    # CDFs keeps its digits
    c = db.CorrelationStructure(0.0, ULP_PAIR)
    r = math.sqrt(1.0 / 3.0)
    rng = np.random.default_rng(8)
    for _ in range(40):
        a1 = rng.uniform(-2.0, 2.5)
        a2, a3 = rng.uniform(0.1 - a1, 3.0), rng.uniform(-2.0, 2.0)
        whole = db.bivariate_cdf(a1, a3, r)
        below = db.bivariate_cdf(-a2, a3, r)
        assert whole - below > 1e-4 * whole  # the difference does not cancel
        p, err = db.mvn_cdf([a1, a2, a3], c, (1, -1, 1))
        assert p == pytest.approx(whole - below, rel=0.0, abs=1e-15)
        assert err <= 1e-14 + ULP_MERGE


@pytest.mark.parametrize("pair", [0, 1, 2])
def test_mvn_two_sided_coordinate_inside_a_chain(pair):
    # an ulp pair of opposite signs at the first, an inner or the last date
    # of a 4-date chain merges to a 3-date chain with -0.4 <= X_pair <= a:
    # the recursion's Phi difference at a finite lower and upper limit, or
    # its two-sided inner grid, against a difference of one-sided chains
    taus, a, c = (1.0, 2.0, 3.0), [0.8, 0.5, 0.2], 0.4
    expiries = list(taus)
    expiries.insert(pair + 1, math.nextafter(taus[pair], INF))
    signs = [1, 1, 1]
    signs.insert(pair + 1, -1)
    limits = list(a)
    limits.insert(pair + 1, c)
    whole = conditional_chain_cdf3(a, taus, (1, 1, 1))
    below = conditional_chain_cdf3([-c if k == pair else v for k, v in enumerate(a)], taus, (1, 1, 1))
    assert whole - below > 1e-4 * whole  # the difference does not cancel
    corr = db.CorrelationStructure(0.0, expiries)
    p, err = db.mvn_cdf(limits, corr, signs)
    assert p == pytest.approx(whole - below, rel=0.0, abs=1e-13)
    assert err <= 1e-14 + math.acos(corr.rho[pair]) / math.pi


@pytest.mark.parametrize("a, b, rho, truth, rel", [
    (-2.598395298646475, -1.5981929570216107, -0.7071067811865476, 1.0218821137899136e-9, 1e-13),
    (-4.984266748860291, 1.457527844765222, -0.9241215302011411, 5.4328381949122556e-24, 1e-13),
    (-2.7077, -4.956, -0.2845, 2.5013754385780267e-12, 5e-12),
    (-5.258161580819269, 1.3987955909649692, -0.7293491944950199, 7.664268735969794e-12, 1e-12),
])
def test_bivariate_negative_correlation_tail(a, b, rho, truth, rel):
    # P(X <= a, Y <= b) far below Phi(a) Phi(b) at rho < 0, where the
    # single-integral form cancels against that product (the second was
    # off by a factor of 1e4).  The third stays above 1e-4 of the product,
    # so no cancellation: a 6-node rule left it 1.9e-7 off, 12 nodes 1.1e-12.
    # The fourth is 1.05e-4 of the marginal it is reflected from: subtracting
    # there amplified the 12-node rule's error to 1.6e-8 relative (truth:
    # 40-digit mpmath)
    assert db.bivariate_cdf(a, b, rho) == pytest.approx(truth, rel=rel, abs=0.0)


def test_mvn_extreme_box_is_zero_without_nan():
    c = db.CorrelationStructure(0.0, (1.0, 2.0, 3.0, 4.0))
    p, err = db.mvn_cdf([-30.0, -30.0, -30.0, -30.0], c)
    assert p == 0.0
    assert math.isfinite(err)
    # a finite limit past +-37.68 is infinite as it enters the box, so both
    # coordinates drop and the whole space is exact: no h * k to overflow
    assert db.mvn_cdf([1e200, 1e200], db.CorrelationStructure(0.0, (1.0, 2.0))) == (1.0, 0.0)


def test_mvn_limits_past_the_saturation_are_infinite():
    # a limit past +-37.68 is +-inf as it enters the box, in every dimension:
    # the chain gives exactly what it gives with the infinite limit, and a
    # box that this empties is exactly (0.0, 0.0)
    rng = np.random.default_rng(28)
    edge = -normal._PHI_ZERO
    extremes = [37.7, -37.7, 40.0, -40.0, 1e200, -1e200, INF, -INF]
    for d in (1, 2, 3, 4):
        for _ in range(60 if d < 3 else 40):
            expiries = np.cumsum(rng.uniform(0.2, 2.0, d)).tolist()
            signs = rng.choice([-1, 1], d).tolist()
            limits = [
                float(rng.choice(extremes)) if rng.uniform() < 0.5 else rng.uniform(-2.5, 2.5)
                for _ in range(d)
            ]
            saturated = [math.copysign(INF, v) if abs(v) >= edge else v for v in limits]
            corr = db.CorrelationStructure(0.0, expiries)
            got = db.mvn_cdf(limits, corr, signs)
            assert got == db.mvn_cdf(saturated, corr, signs), (limits, signs, expiries)
            if -INF in saturated:
                assert got == (0.0, 0.0), (limits, signs, expiries)


def test_bivariate_near_degenerate_matches_collapse_limit():
    # rho within 1e-8 of 1: the two-sided formula must land on the min-limit
    for a, b in ((0.3, 0.9), (-0.5, -0.2), (1.1, 1.1)):
        close = db.bivariate_cdf(a, b, 1.0 - 1e-8)
        assert close == pytest.approx(db.std_normal_cdf(min(a, b)), abs=2e-5)


@pytest.mark.parametrize("x3, window", [(-5.0, False), (-6.0, False), (-5.0, True)])
def test_mvn_chain_upper_tail_keeps_relative_accuracy(x3, window):
    # X_3 >= -x3 far in the upper tail of a 3-date chain, alone or as the
    # window 5 <= X_3 <= 6 of a merged ulp pair: the chain takes the tail
    # as Phi(-z), so it keeps its digits instead of cancelling against 1
    taus = (1.0, 2.0, 3.0)
    truth = conditional_chain_cdf3([0.5, 1.0, x3], taus, (1, 1, -1))
    if window:
        truth -= conditional_chain_cdf3([0.5, 1.0, -6.0], taus, (1, 1, -1))
        expiries = taus + (math.nextafter(3.0, INF),)
        p, _ = db.mvn_cdf([0.5, 1.0, x3, 6.0], db.CorrelationStructure(0.0, expiries), (1, 1, -1, 1))
    else:
        p, _ = db.mvn_cdf([0.5, 1.0, x3], db.CorrelationStructure(0.0, taus), (1, 1, -1))
    assert p == pytest.approx(truth, rel=1e-8, abs=0.0)
