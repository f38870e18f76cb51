"""Univariate, bivariate and m-variate standard normal CDFs.

The m-variate evaluator serves the correlation family
``sqrt((T_i - t) / (T_j - t))`` of one Brownian motion observed at
increasing dates.  Such a chain is carried by its adjacent correlations
``rho_k = sqrt(tau_k / tau_{k+1})`` alone, never as an m x m matrix:
marginalizing coordinate k joins its neighbours with ``rho_{k-1} rho_k``, and
box limits and correlations are plain Python floats until a dimension of
three or more needs arrays.  Every scalar Phi is ``math.erfc``, the C
library's erfc (piecewise rational approximations after Cody, Math. Comp.
1969), so dimensions one and two need no scipy.  A box of one or two
coordinates is an orthant of the coordinates signed toward their bounds
(X > lo, or -X > -hi for an upper bound): Phi(-h) in one dimension, and in
two a fixed-order Gauss-Legendre reduction of the bivariate integral (Genz,
Statistics and Computing 2004) at a correlation r >= 0.  At r < 0 the
orthant is its smaller marginal minus the reflected orthant at -r; where
that difference cancels far below the marginal it is recomputed as a
positive conditional integral, so tail boxes keep their relative accuracy.
A coordinate bounded on both sides (only a merged +-1 pair of dates makes
one) is a Phi difference taken in its own tail in one dimension and the
conditional integral in two.  From dimension three on the CDF is a forward
recursion of one-dimensional Gaussian convolutions over panel
Gauss-Legendre grids (quadrature between monitoring dates, as in
Andricopoulos et al., J. Financial Economics 2003, and Feng & Linetsky,
Mathematical Finance 2008).  Its error estimate is the distance to the same
recursion on a coarser rule.  ``mvn_cdf`` accepts only a
``CorrelationStructure``: every CDF the pricer needs is such a chain.  The
conditional integral takes the same scalar Phi at each of its nodes, so no
box of at most two coordinates loads scipy; only the chain recursion takes
Phi of its arrays from ``scipy.special``, imported on its first call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import repeat

import numpy as np

from .errors import DomainError, ScheduleError

__all__ = [
    "CorrelationStructure",
    "build_correlation",
    "std_normal_cdf",
    "bivariate_cdf",
    "mvn_cdf",
]

_INF = float("inf")

# Chain CDF: standardized coordinates are cut to [-_L, _L] (the mass outside
# is below 3e-19 per coordinate); panels carry _NODES Gauss-Legendre nodes,
# or _NODES_COARSE for the error estimate.  A narrow kernel is integrated in
# its own variable with _U_NODES nodes once point evaluation would need more
# than _MAX_PANELS panels.
_L = 9.0
_NODES = 12
_NODES_COARSE = 8
_U_NODES = 40
_MAX_PANELS = 64

# A reflected orthant below _CANCEL times the marginal it is subtracted from
# has lost about four digits to cancellation (rounding alone then leaves
# about 1e-12 relative); it is recomputed as a positive conditional integral.
_CANCEL = 1e-4

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


@cache
def _legendre(n: int):
    """Gauss-Legendre nodes and weights on (-1, 1) with the barycentric
    interpolation weights of those nodes."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w, (-1.0) ** np.arange(n) * np.sqrt((1.0 - x * x) * w)


def _phi(x: float) -> float:
    """Phi(x) of a float: exactly 0 at and below _PHI_ZERO, as scipy's
    ndtr, and exactly 1 from about 8.3 on."""
    if x <= _PHI_ZERO:
        return 0.0
    return 0.5 * math.erfc(-x * _SQRT_HALF)


def _phi_nodes(z: np.ndarray) -> np.ndarray:
    """``_phi`` at every entry of ``z``, bit for bit: the scalar libm erfc
    mapped over the entries, so no scipy is needed."""
    e = np.fromiter(map(math.erfc, (-z * _SQRT_HALF).ravel().tolist()), float, z.size)
    return np.where(z <= _PHI_ZERO, 0.0, 0.5 * e.reshape(z.shape))


@cache
def _array_phi():
    """scipy.special.ndtr, Phi of the chain recursion's arrays; scipy is
    imported on first use."""
    from scipy.special import ndtr

    return ndtr


def std_normal_cdf(x: float) -> float:
    """P(Z <= x) for a standard normal Z.  Accepts +-inf as limits."""
    if math.isnan(x):
        raise DomainError("std_normal_cdf: NaN argument")
    return _phi(x)


def _norm_pdf(x):
    return np.exp(-0.5 * np.square(x)) / math.sqrt(2.0 * math.pi)


@cache
def _bvnu_nodes(n: int) -> tuple[tuple[float, float], ...]:
    """(1 + x, w) of the n-node Gauss-Legendre rule: ``_bvnu``'s nodes on (0, 2)."""
    x, w, _ = _legendre(n)
    return tuple(zip((1.0 + x).tolist(), w.tolist()))


def _bvnu(h: float, k: float, r: float) -> float:
    """Upper-orthant probability P(X > h, Y > k) for a correlation
    0 <= r <= 1.

    Gauss-Legendre reduction of the single-integral form of the bivariate
    normal (12 nodes for ``r < 0.75``, 20 above), with the usual split at
    ``r = 0.925`` where the integration variable switches to keep the
    integrand benign near ``r = 1``.
    """
    if h == _INF or k == _INF:
        return 0.0
    if h == -_INF:
        return 1.0 if k == -_INF else _phi(-k)
    if k == -_INF:
        return _phi(-h)
    if r == 0.0:
        return _phi(-h) * _phi(-k)

    tp = 2.0 * math.pi
    hk = h * k
    bvn = 0.0
    nodes = _bvnu_nodes(12 if r < 0.75 else 20)

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
    """P(X > h, Y > k) for standard normals with correlation r.

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
        return _conditional_box((h, k), (_INF, _INF), r)
    return p


def bivariate_cdf(a: float, b: float, rho: float) -> float:
    """P(X <= a, Y <= b) for standard normals with correlation rho."""
    if math.isnan(a) or math.isnan(b) or math.isnan(rho):
        raise DomainError("bivariate_cdf: NaN argument")
    if abs(rho) > 1.0:
        raise DomainError(f"bivariate_cdf: |rho| = {abs(rho)} > 1")
    if rho == -1.0:
        return max(0.0, _phi(a) - _phi(-b))
    return _orthant(-a, -b, rho)


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
        object.__setattr__(self, "rho", tuple(rho))

    @cached_property
    def covariance(self) -> np.ndarray:
        tau = np.asarray(self.expiries, float) - self.eval_time
        ratio = np.sqrt(np.minimum(tau[:, None], tau[None, :]) / np.maximum(tau[:, None], tau[None, :]))
        return ratio


def build_correlation(t: float, expiries) -> CorrelationStructure:
    """Correlation structure for evaluation time ``t`` and increasing expiries."""
    return CorrelationStructure(float(t), tuple(map(float, expiries)))


def _tail_mass(a: float, b: float) -> float:
    """P(a <= Z <= b) for a standard normal Z, differenced in the tail the
    interval lies in so that a tail interval keeps its relative accuracy."""
    return _phi(-a) - _phi(-b) if a > 0.0 else _phi(b) - _phi(a)


def _conditional_box(lo, hi, r: float) -> float:
    """P(lo <= (X, Y) <= hi) for standard normals with correlation r, as the
    positive integral of phi(x) P(lo_Y <= Y <= hi_Y | X = x) over the limits
    of the coordinate with the smaller marginal.

    For orthants whose reflection cancels and for boxes bounded on both
    sides in one coordinate: every term is positive, so a probability far
    below its marginals keeps its relative accuracy.
    x runs at most _L past its finite limit into the tail, on panels graded
    down at its own finite limits and at the other coordinate's limits seen
    from x.  Phi at the nodes is the scalar libm one (``_phi_nodes``, and
    ``_tail_mass`` node by node for a two-sided Y), so no scipy is loaded.
    """
    if _tail_mass(lo[1], hi[1]) < _tail_mass(lo[0], hi[0]):
        lo, hi = lo[::-1], hi[::-1]
    a, b = max(lo[0], min(hi[0], 0.0) - _L), min(hi[0], max(lo[0], 0.0) + _L)
    if a >= b:
        return 0.0
    s = math.sqrt((1.0 - r) * (1.0 + r))
    features = []
    for e in (lo[0], hi[0]):
        if math.isfinite(e):
            # past e the integrand decays at about |e| plus |r| / s times
            # the depth of P(Y in box | X = e) in its tail
            depth = max(0.0, (r * e - hi[1]) / s, (lo[1] - r * e) / s)
            features.append((e, 1.0 / max(1.0, abs(e) + abs(r) / s * depth)))
    if r != 0.0:
        features += [(e / r, s / abs(r)) for e in (lo[1], hi[1]) if math.isfinite(e)]
    edges = _panel_edges(a, b, features, 1.0)
    x, w, _ = _legendre(_NODES)
    half = 0.5 * np.diff(edges)[:, None]
    y = 0.5 * (edges[1:] + edges[:-1])[:, None] + half * x
    if lo[1] == -_INF:
        q = _phi_nodes((hi[1] - r * y) / s)
    elif hi[1] == _INF:
        q = _phi_nodes((r * y - lo[1]) / s)
    else:
        zl, zh = ((lo[1] - r * y) / s).ravel().tolist(), ((hi[1] - r * y) / s).ravel().tolist()
        q = np.reshape(list(map(_tail_mass, zl, zh)), y.shape)
    return float(np.sum(half * w * _norm_pdf(y) * q))


def _reduce_box(lower, upper, rho):
    """Marginalize unconstrained coordinates and merge exact +-1 neighbours
    (in a chain a +-1 pair is a run of +-1 neighbours).  Dropping coordinate
    k joins its neighbours with the correlation ``rho[k-1] * rho[k]``.

    Returns (lower, upper, rho, is_empty).  Infinite limits never reach the
    integration kernels: they either drop a dimension here or saturate a
    one/two dimensional closed form.
    """
    # the common case has nothing to do: every coordinate bounded on some
    # side, no empty box and no +-1 neighbours
    for lo, hi in zip(lower, upper):
        if hi <= lo or lo == -_INF and hi == _INF:
            break
    else:
        for r in rho:
            if not -1.0 + 5e-16 < r < 1.0 - 5e-16:
                break
        else:
            return lower, upper, rho, False
    while True:
        keep = []
        for lo, hi in zip(lower, upper):
            if hi <= lo:
                return lower, upper, rho, True
            keep.append(lo > -_INF or hi < _INF)
        if all(keep):
            near = list(map(abs, rho))
            if not near or max(near) < 1.0 - 5e-16:
                return lower, upper, rho, False
            i = near.index(max(near))  # X_{i+1} = +-X_i: intersect the constraints
            lo, hi = (lower[i + 1], upper[i + 1]) if rho[i] > 0 else (-upper[i + 1], -lower[i + 1])
            lower[i], upper[i] = max(lower[i], lo), min(upper[i], hi)
            keep[i + 1] = False
        idx = [k for k, kept in enumerate(keep) if kept]
        lower, upper = [lower[k] for k in idx], [upper[k] for k in idx]
        rho = [math.prod(rho[i:j]) for i, j in zip(idx, idx[1:])]


def _panel_edges(a: float, b: float, features, hmax: float) -> np.ndarray:
    """Panel edges on [a, b] with a breakpoint at each feature centre c,
    graded geometrically from the feature width w up to ``hmax``, and no
    panel wider than ``hmax``.  Features more than _L widths outside [a, b]
    are flat there and are skipped."""
    edges = {a, b}
    for c, w in features:
        if a - _L * w < c < b + _L * w:
            c = min(max(c, a), b)
            edges.add(c)
            for k in range(max(0, math.ceil(math.log2(hmax / w)))):
                step = w * 2.0**k
                edges.add(max(c - step, a))
                edges.add(min(c + step, b))
    # split each gap into equal panels no wider than hmax, spaced as
    # np.linspace(lo, hi, count, endpoint=False) spaces them
    e = sorted(edges)
    points = []
    for lo, hi in zip(e, e[1:]):
        count = max(1, math.ceil((hi - lo) / hmax - 1e-9))
        step = (hi - lo) / count
        points += [j * step + lo for j in range(count)]
    points.append(b)
    return np.array(points)


def _kernel_step(z, r: float, s: float, edges, y, g, n: int):
    """int_a^b g(y) N(y; r z, s^2) dy at each z, for a kernel too narrow for
    the grid of y: substitute y = r z + s u, integrate u by Gauss-Legendre on
    its truncated range, and interpolate g inside its panel (barycentric
    Lagrange on the panel's Gauss nodes)."""
    a, b = edges[0], edges[-1]
    ux, uw, _ = _legendre(_U_NODES)
    lo = np.maximum((a - r * z) / s, -_L)
    hi = np.minimum((b - r * z) / s, _L)
    half = 0.5 * np.maximum(hi - lo, 0.0)[:, None]
    u = 0.5 * (lo + hi)[:, None] + half * ux
    yq = np.clip(r * z[:, None] + s * u, a, b)
    panel = np.clip(np.searchsorted(edges, yq, side="right") - 1, 0, len(edges) - 2)
    diff = yq[..., None] - y[panel]
    diff[diff == 0.0] = 1e-300  # a query on a node takes that node's value
    terms = _legendre(n)[2] / diff
    gq = (terms * g[panel]).sum(-1) / terms.sum(-1)
    return (half * uw * _norm_pdf(u) * gq).sum(-1)


def _chain_box(lower, upper, rho, n: int) -> float:
    """P(lower <= X <= upper) for a standardized Gaussian Markov chain of
    d >= 3 coordinates with adjacent correlations ``rho[k] = corr[k, k+1]``.

    g_k(y) = P(X_j in box_j for all j < k | X_k = y) is carried on a panel
    Gauss-Legendre grid (``n`` nodes a panel) of each inner coordinate's box
    cut to [-_L, _L].  g_1 is a difference of Phi; g_k integrates g_{k-1}
    against the law N(rho z, 1 - rho^2) of X_{k-1} given X_k = z; the result
    integrates phi * g_{d-2} against the last coordinate's Phi difference.
    Panels break at the neighbouring box edges seen from this coordinate and
    grade down to their widths, so near-coincident dates stay resolved.
    """
    d = len(lower)
    s = np.sqrt((1.0 - rho) * (1.0 + rho))
    x, w, _ = _legendre(n)
    ndtr = _array_phi()
    for k in range(1, d - 1):
        a, b = max(lower[k], -_L), min(upper[k], _L)
        if a >= b:
            return 0.0
        features = [(e / rho[j], s[j] / abs(rho[j]))
                    for j, nb in ((k - 1, k - 1), (k, k + 1)) for e in (lower[nb], upper[nb])
                    if math.isfinite(e) and rho[j] != 0.0]
        # grid k feeds the next inner step: point-evaluate that kernel on
        # panels of three kernel widths, unless that needs too many panels
        point = k < d - 2 and b - a <= 3.0 * s[k] * _MAX_PANELS
        edges = _panel_edges(a, b, features, min(1.0, 3.0 * s[k]) if point else 1.0)
        half = 0.5 * np.diff(edges)[:, None]
        y = 0.5 * (edges[1:] + edges[:-1])[:, None] + half * x
        if k == 1:
            g = ndtr((upper[0] - rho[0] * y) / s[0]) - ndtr((lower[0] - rho[0] * y) / s[0])
        elif prev_point:
            kernel = _norm_pdf((prev_y.ravel() - rho[k - 1] * y.ravel()[:, None]) / s[k - 1])
            g = (kernel @ prev_wg.ravel()).reshape(y.shape) / s[k - 1]
        else:
            g = _kernel_step(y.ravel(), rho[k - 1], s[k - 1], prev_edges, prev_y, prev_g, n).reshape(y.shape)
        prev_point, prev_edges, prev_y, prev_g, prev_wg = point, edges, y, g, half * w * g
    r, sd = rho[d - 2], s[d - 2]
    last = ndtr((upper[d - 1] - r * y) / sd) - ndtr((lower[d - 1] - r * y) / sd)
    p = float(np.sum(prev_wg * _norm_pdf(y) * last))
    return min(max(p, 0.0), 1.0)


def _box_probability(lower, upper, rho):
    """P(lower <= X <= upper), with error estimate, for a standardized
    Gaussian Markov chain X with adjacent correlations ``rho``; the limits
    and correlations are lists of floats."""
    if rho:
        # one coordinate has nothing to reduce: Phi is exactly 0 and 1 at
        # -inf and inf
        lower, upper, rho, empty = _reduce_box(lower, upper, rho)
        if empty:
            return 0.0, 0.0
    d = len(lower)
    if d == 0:
        return 1.0, 0.0
    # up to two coordinates: an orthant of the coordinates signed toward
    # their bounds, X > lo or -X > -hi, unless one is two-sided
    if d == 1:
        lo, hi = lower[0], upper[0]
        if hi == _INF:
            return _phi(-lo), 1e-15
        return (_phi(hi) if lo == -_INF else _tail_mass(lo, hi)), 1e-15
    if d == 2:
        (h, k), (h_up, k_up), r = lower, upper, rho[0]
        if -_INF < h and h_up < _INF or -_INF < k and k_up < _INF:
            return _conditional_box(lower, upper, r), 5e-15
        if h_up < _INF:
            h, r = -h_up, -r
        if k_up < _INF:
            k, r = -k_up, -r
        return _orthant(h, k, r), 5e-15
    rho = np.array(rho)
    p = _chain_box(lower, upper, rho, _NODES)
    return p, max(abs(p - _chain_box(lower, upper, rho, _NODES_COARSE)), 1e-15)


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
    # last); tolist() nests a 2-D array and unwraps a 0-d one: float() fails both
    if isinstance(signs, np.ndarray):
        signs = signs.tolist()
    try:
        a = a.tolist() if isinstance(a, np.ndarray) else list(a)
        signed = signs is None or len(signs) == len(a)
    except TypeError:  # limits that are no sequence fail in the loop below
        signed = False
    if signs is None or not signed:
        signs = repeat(1)
    lower, upper = [], []
    try:
        for v, s in zip(a, signs):
            v = float(v)
            if v != v:
                raise DomainError("mvn_cdf: NaN limit")
            if s == -1:
                lower.append(-v)
                upper.append(_INF)
            else:
                signed = signed and s == 1
                lower.append(-_INF)
                upper.append(v)
    except TypeError:
        lower = []
    if not lower:
        raise DomainError("mvn_cdf: limits must be a one-dimensional sequence")
    if not isinstance(corr, CorrelationStructure):
        raise DomainError("mvn_cdf: correlation must be a CorrelationStructure")
    if len(corr.expiries) != len(lower):
        raise DomainError("mvn_cdf: limits and correlation dimension differ")
    if not signed:
        raise DomainError("mvn_cdf: signs must be a vector of +-1 entries")
    return _box_probability(lower, upper, corr.rho)
