"""Univariate, bivariate and m-variate standard normal CDFs.

The m-variate evaluator serves the correlation family
``sqrt((T_i - t) / (T_j - t))`` of one Brownian motion observed at
increasing dates.  Such a chain is carried by its adjacent correlations
``rho_k = sqrt(tau_k / tau_{k+1})`` alone, never as an m x m matrix:
marginalizing coordinate k joins its neighbours with ``rho_{k-1} rho_k``, and
box limits and correlations are plain Python floats until a dimension of
three or more needs arrays.  Every scalar Phi is ``math.erfc``, the C
library's erfc (piecewise rational approximations after Cody, Math. Comp.
1969), so dimensions one and two need no scipy.  Phi is exactly 0 or 1 past
+-37.68 (``_PHI_ZERO``), so a limit past it is +-inf from where it enters
``mvn_cdf`` or ``bivariate_cdf``, the one place it lives.  Every box is the
event s_k X_k <= h_k at each coordinate, a limit h_k and a sign s_k = +-1, as
the binaries state it, and it keeps that form down to the kernels.  One
coordinate is Phi(h), and two the orthant P(-s_1 X > -h_1, -s_2 Y > -h_2) at
correlation s_1 s_2 rho, a fixed-order Gauss-Legendre reduction of the
bivariate integral (Genz, Statistics and Computing 2004) at r >= 0.  At r < 0 the
orthant is its smaller marginal minus the reflected orthant at -r; where
that difference cancels far below the marginal it is recomputed as a
positive conditional integral, so tail boxes keep their relative accuracy.
Every coordinate stays bounded on one side, dates one float apart included:
their correlation is priced as it is, and one that rounds to exactly 1 adds
its possible distance from the unrounded one to the error estimate
(``_EXACTLY_ONE``).  From dimension three on the
CDF is a forward recursion of one-dimensional Gaussian convolutions over panel
Gauss-Legendre grids (quadrature between monitoring dates, as in
Andricopoulos et al., J. Financial Economics 2003, and Feng & Linetsky,
Mathematical Finance 2008).  Its error estimate is the distance to the same
recursion on a coarser rule, run in the same pass over the same panels.
``mvn_cdf`` accepts only a ``CorrelationStructure``: every CDF the pricer
needs is such a chain.

This module holds the scalar CDFs and the public API; it imports neither
numpy nor scipy.  The two array kernels, the conditional integral and the
chain recursion, live in ``kernels.py``, which is imported on the first box
that needs one, and numpy with it.  The conditional integral takes the same
scalar Phi at each of its nodes, so no box of at most two coordinates loads
scipy; only the chain recursion takes Phi of its arrays from
``scipy.special``, imported on its first call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat

from .errors import DomainError, ScheduleError

__all__ = [
    "CorrelationStructure",
    "std_normal_cdf",
    "bivariate_cdf",
    "mvn_cdf",
]

_INF = float("inf")

# A reflected orthant below _CANCEL times the marginal it is subtracted from
# would amplify the relative error of the orthant it subtracts (up to about
# 1.7e-12 from the 12-node rule in a far tail) more than 1e3 times; it is
# recomputed as a positive conditional integral.
_CANCEL = 1e-3

# A chain correlation that rounds to exactly 1 is priced at 1 by ``_bvnu``
# and at the float below 1 by the kernels.  Between any two correlations
# that round to 1 a box moves by about the mass P(X <= c < Y) near the
# pair's limit c, at most |acos(r1) - acos(r2)| / (2 pi) on each side, so
# each such correlation adds acos(nextafter(1, 0)) / pi, about 4.7e-9, to
# the error estimate.
_EXACTLY_ONE = math.acos(math.nextafter(1.0, 0.0)) / math.pi

# scipy's ndtr underflows to exactly 0 where x^2 / 2 exceeds log(DBL_MAX);
# libm's erfc would still return subnormals there.
_PHI_ZERO = -math.sqrt(2.0 * math.log(sys.float_info.max))  # about -37.68
_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class QmcConfig:
    """Error target that ``mvn_cdf`` accepts and ignores: every CDF is a
    deterministic quadrature.  Its only reader is the benchmark tracer
    (``bench/tracing.py``), which compares d >= 3 error estimates with it;
    ROADMAP item 1 deletes the class with that read."""

    target_error: float = 1e-7


DEFAULT_QMC = QmcConfig()


def _phi(x: float) -> float:
    """Phi(x) of a float: exactly 0 at and below _PHI_ZERO, as scipy's
    ndtr, and exactly 1 from about 8.3 on."""
    if x <= _PHI_ZERO:
        return 0.0
    return 0.5 * math.erfc(-x * _SQRT_HALF)


def std_normal_cdf(x: float) -> float:
    """P(Z <= x) for a standard normal Z.  Accepts +-inf as limits."""
    if math.isnan(x):
        raise DomainError("std_normal_cdf: NaN argument")
    return _phi(x)


# (1 + x, w) of the 12- and 20-node Gauss-Legendre rules: ``_bvnu``'s nodes
# on (0, 2), shipped as literals the way Genz's published code ships them
# (bit for bit numpy's leggauss).
_BVNU_12 = (
    (0.018439365753280756, 0.04717533638651141),
    (0.0958827436295252, 0.10693932599531907),
    (0.2300973258056953, 0.16007832854334642),
    (0.4126820457133825, 0.20316742672306573),
    (0.6321685010018199, 0.2334925365383546),
    (0.8747665914885311, 0.2491470458134027),
    (1.1252334085114688, 0.2491470458134027),
    (1.3678314989981801, 0.2334925365383546),
    (1.5873179542866174, 0.20316742672306573),
    (1.7699026741943047, 0.16007832854334642),
    (1.904117256370475, 0.10693932599531907),
    (1.9815606342467191, 0.04717533638651141),
)
_BVNU_20 = (
    (0.006871400814905004, 0.017614007139150893),
    (0.03602807272208619, 0.040601429800386446),
    (0.08776557174867405, 0.06267204833410879),
    (0.16088302817778122, 0.08327674157670471),
    (0.2536680935398492, 0.1019301198172407),
    (0.363946319273485, 0.1181945319615186),
    (0.4891329980491729, 0.1316886384491769),
    (0.6262939112845805, 0.1420961093183824),
    (0.7722141488583549, 0.14917298647260424),
    (0.9234734788665027, 0.15275338713072628),
    (1.0765265211334973, 0.15275338713072628),
    (1.227785851141645, 0.14917298647260424),
    (1.3737060887154195, 0.1420961093183824),
    (1.5108670019508272, 0.1316886384491769),
    (1.6360536807265151, 0.1181945319615186),
    (1.7463319064601508, 0.1019301198172407),
    (1.839116971822219, 0.08327674157670471),
    (1.912234428251326, 0.06267204833410879),
    (1.963971927277914, 0.040601429800386446),
    (1.9931285991850949, 0.017614007139150893),
)


def _bvnu(h: float, k: float, r: float) -> float:
    """Upper orthant P(X > h, Y > k) at finite h, k and correlation 0 <= r <= 1.

    Gauss-Legendre reduction of the single-integral form of the bivariate
    normal (12 nodes for ``r < 0.75``, 20 above), with the usual split at
    ``r = 0.925`` where the integration variable switches to keep the
    integrand benign near ``r = 1``.
    """
    tp = 2.0 * math.pi
    hk = h * k
    bvn = 0.0
    nodes = _BVNU_12 if r < 0.75 else _BVNU_20

    if r < 0.925:
        hs = 0.5 * (h * h + k * k)
        asr = 0.5 * math.asin(r)
        for xi, wi in nodes:
            sn = math.sin(asr * xi)
            bvn += wi * math.exp((sn * hk - hs) / (1.0 - sn * sn))
        bvn = bvn * asr / tp + _phi(-h) * _phi(-k)
        return min(bvn, 1.0)

    if r < 1.0:
        as_ = (1.0 - r) * (1.0 + r)
        a = math.sqrt(as_)
        bs = (h - k) ** 2
        asr = -0.5 * (bs / as_ + hk)
        c = (4.0 - hk) / 8.0
        d = (12.0 - hk) / 80.0
        if asr > -100.0:
            bvn = a * math.exp(asr) * (1.0 - c * (bs - as_) * (1.0 - d * bs) / 3.0 + c * d * as_**2)
        if hk > -100.0:
            b = math.sqrt(bs)
            sp = math.sqrt(tp) * _phi(-b / a)
            bvn -= math.exp(-0.5 * hk) * sp * b * (1.0 - c * bs * (1.0 - d * bs) / 3.0)
        a *= 0.5
        total = 0.0
        for xi, wi in nodes:
            xs = (a * xi) * (a * xi)
            asr = -0.5 * (bs / xs + hk)
            if asr > -100.0:
                sp = 1.0 + c * xs * (1.0 + 5.0 * d * xs)
                rs = math.sqrt(1.0 - xs)
                ep = math.exp(-0.5 * hk * xs / ((1.0 + rs) * (1.0 + rs))) / rs
                total += wi * math.exp(asr) * (sp - ep)
        bvn = (a * total - bvn) / tp
    return min(max(bvn + _phi(-max(h, k)), 0.0), 1.0)


def _orthant(h: float, k: float, r: float) -> float:
    """P(X > h, Y > k) for standard normals at correlation r, h and k finite.

    A negative r is reflected once, subtracting from the smaller marginal:
    P(X > h, Y > k) = P(X > h) - P(X > h, -Y >= -k), the last at
    correlation -r.  Where that difference cancels below _CANCEL of the
    marginal it is recomputed as a positive conditional integral, so tail
    orthants keep their relative accuracy.
    """
    if r >= 0.0:
        return _bvnu(h, k, r)
    if k > h:
        h, k = k, h
    marginal = _phi(-h)
    p = marginal - _bvnu(h, -k, -r)
    if p < _CANCEL * marginal:
        from .kernels import _conditional_box

        return _conditional_box(h, k, r)
    return p


def bivariate_cdf(a: float, b: float, rho: float) -> float:
    """P(X <= a, Y <= b) for standard normals with correlation rho."""
    if math.isnan(a) or math.isnan(b) or math.isnan(rho):
        raise DomainError("bivariate_cdf: NaN argument")
    if abs(rho) > 1.0:
        raise DomainError(f"bivariate_cdf: |rho| = {abs(rho)} > 1")
    if rho == -1.0:
        return max(0.0, _phi(a) - _phi(-b))
    limits = [v if _PHI_ZERO < v < -_PHI_ZERO else math.copysign(_INF, v) for v in (a, b)]
    return _box_probability(limits, (1, 1), [rho])[0]


@dataclass(frozen=True)
class CorrelationStructure:
    """Correlation data implied by observing a driftless diffusion at a set
    of increasing dates, seen from ``eval_time``.

    ``covariance[i, j] = sqrt((T_i - t) / (T_j - t))`` for ``i <= j``.  The
    chain is determined by its adjacent correlations ``rho``, the
    superdiagonal of ``covariance``, which is all the CDF evaluator reads.
    """

    eval_time: float
    expiries: tuple[float, ...]
    rho: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # dates may come as any real numbers; the chain holds floats
        self.__dict__.update(
            eval_time=float(self.eval_time), expiries=tuple(map(float, self.expiries))
        )
        if len(self.expiries) < 1:
            raise ScheduleError("CorrelationStructure: at least one expiry required")
        t = prev = self.eval_time
        if not math.isfinite(t):
            raise ScheduleError("CorrelationStructure: non-finite dates")
        rho = []
        for date in self.expiries:
            if not math.isfinite(date):
                raise ScheduleError("CorrelationStructure: non-finite dates")
            if date <= prev:
                raise ScheduleError(
                    f"CorrelationStructure: expiries must satisfy t < T_1 < ... < T_m, got t={self.eval_time}, T={self.expiries}"
                )
            if prev > t:
                rho.append(math.sqrt((prev - t) / (date - t)))
            prev = date
        self.__dict__["rho"] = tuple(rho)

    @classmethod
    def _last_date_chains(cls, eval_time: float, fixed: tuple[float, ...]):
        """tau -> the chain of ``fixed + (tau,)`` seen from ``eval_time``.

        The dates are checked here, once; each chain appends the one
        correlation of tau, the expression ``__post_init__`` uses, and checks
        nothing: the caller has checked that tau is finite and after the last
        fixed date (after ``eval_time`` when there is none).
        """
        if not math.isfinite(eval_time):
            raise ScheduleError("CorrelationStructure: non-finite dates")
        head = cls(eval_time, fixed).rho if fixed else ()
        last = fixed[-1] - eval_time if fixed else None

        def chain(tau: float) -> CorrelationStructure:
            node = cls.__new__(cls)
            rho = head + (math.sqrt(last / (tau - eval_time)),) if fixed else head
            node.__dict__.update(eval_time=eval_time, expiries=fixed + (tau,), rho=rho)
            return node

        return chain

    @cached_property
    def covariance(self):
        """The m x m correlation matrix as a numpy array.  The CDF reads only
        ``rho``, so numpy is imported here."""
        import numpy as np

        tau = np.asarray(self.expiries, float) - self.eval_time
        ratio = np.sqrt(np.minimum(tau[:, None], tau[None, :]) / np.maximum(tau[:, None], tau[None, :]))
        return ratio


def _reduce_box(limits, signs, rho):
    """Marginalize the coordinates whose limit is +inf: dropping coordinate
    k drops its sign too and joins its neighbours with the correlation
    ``rho[k-1] * rho[k]``; a chain's correlations, and so their products, are
    never negative.  A limit past +-37.68 arrives as +-inf, so it drops here,
    before any kernel.  Returns (limits, signs, rho)."""
    if _INF not in limits:
        return limits, signs, rho
    idx = [k for k, h in enumerate(limits) if h < _INF]
    rho = [math.prod(rho[i:j]) for i, j in zip(idx, idx[1:])]
    return [limits[k] for k in idx], [signs[k] for k in idx], rho


def _box_probability(limits, signs, rho):
    """P(s_k X_k <= h_k for every k), with error estimate, for a standardized
    Gaussian Markov chain X with adjacent correlations ``rho``, limits h_k
    (past +-37.68 they arrive as +-inf) and signs s_k = +-1; limits and
    correlations are lists of floats."""
    if -_INF in limits:
        return 0.0, 0.0
    if rho:
        # a single coordinate is not reduced: +inf gives Phi(inf) = 1 below
        limits, signs, rho = _reduce_box(limits, signs, rho)
    d = len(limits)
    if d == 0:
        return 1.0, 0.0
    # s X <= h is the upper tail -s X > -h: one coordinate is Phi(h) under
    # either sign, two an orthant of the coordinates so signed
    if d == 1:
        return _phi(limits[0]), 1e-15
    exactly_one = _EXACTLY_ONE * rho.count(1.0)
    if d == 2:
        (h, k), (s1, s2) = limits, signs
        return _orthant(-h, -k, s1 * s2 * rho[0]), 5e-15 + exactly_one
    from .kernels import _chain_box

    p, coarse = _chain_box(limits, signs, rho)
    return p, max(abs(p - coarse), 1e-15) + exactly_one


def mvn_cdf(a, corr, signs=None, config: QmcConfig = DEFAULT_QMC):
    """m-variate normal CDF with optional coordinate flips.

    Parameters
    ----------
    a : sequence of m floats (+-inf allowed)
        Limits.  With ``signs[i] == -1`` the i-th event is ``-X_i <= a_i``
        instead of ``X_i <= a_i``; equivalently the correlation of the
        flipped vector is ``(s_i s_j r_ij)``.
    corr : CorrelationStructure
        The chain of the m expiries; anything else raises ``DomainError``.
    signs : sequence of +-1, optional
    config : QmcConfig, ignored by the evaluation; only the benchmark
        tracer reads it

    Returns
    -------
    (probability, error_estimate)
        One and two dimensions are signed orthants, accurate to about
        1e-15 absolute; from three dimensions on the estimate is the
        distance to a coarser quadrature rule, which exceeds the actual
        error.
    """
    # one pass converts, NaN-checks and signs the limits (bad signs are reported
    # last); an array is told by its tolist(), which nests a 2-D array and
    # unwraps a 0-d one: float() fails both
    if hasattr(signs, "tolist"):
        signs = signs.tolist()
    try:
        a = a.tolist() if hasattr(a, "tolist") else list(a)
        signed = signs is None or len(signs) == len(a)
    except TypeError:  # limits that are no sequence fail in the loop below
        signed = False
    if signs is None or not signed:
        signs = repeat(1)
    limits, flips = [], []
    try:
        for v, s in zip(a, signs):
            v = float(v)
            if not _PHI_ZERO < v < -_PHI_ZERO:
                if v != v:
                    raise DomainError("mvn_cdf: NaN limit")
                v = math.copysign(_INF, v)
            limits.append(v)
            if s == -1:
                flips.append(-1)
            else:
                signed = signed and s == 1
                flips.append(1)
    except TypeError:
        limits = []
    if not limits:
        raise DomainError("mvn_cdf: limits must be a one-dimensional sequence")
    if not isinstance(corr, CorrelationStructure):
        raise DomainError("mvn_cdf: correlation must be a CorrelationStructure")
    if len(corr.expiries) != len(limits):
        raise DomainError("mvn_cdf: limits and correlation dimension differ")
    if not signed:
        raise DomainError("mvn_cdf: signs must be a vector of +-1 entries")
    return _box_probability(limits, flips, corr.rho)
