"""Array kernels of the normal CDFs: the conditional integral of two
coordinates and the chain recursion of three or more.

``normal.py`` evaluates every other box in scalar libm arithmetic and
imports this module on the first box that needs one of these kernels, so
numpy loads with the first such box and not before.  Both kernels sum
panel Gauss-Legendre rules:

- the conditional integral of a cancelling orthant integrates
  phi(x) P(Y > k | X = x) with the scalar Phi at each node, so it needs no
  scipy;
- the chain recursion of d >= 3 coordinates carries g_k(y) = P(earlier
  coordinates in their boxes | X_k = y) from date to date (quadrature between
  monitoring dates, as in Andricopoulos et al., J. Financial Economics 2003,
  and Feng & Linetsky, Mathematical Finance 2008).  Its Phi of arrays is
  ``scipy.special.ndtr``, imported on the first chain.  Its error estimate
  is the distance to the same recursion on a coarser rule, run in the same
  pass over the same panels.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .normal import _INF, _PHI_ZERO, _SQRT_HALF, _phi

# Standardized coordinates are cut to [-_L, _L] (the mass outside is below
# 3e-19 per coordinate); panels carry _NODES Gauss-Legendre nodes, or
# _NODES_COARSE for the chain's error estimate.  A narrow kernel is integrated
# in its own variable with _U_NODES nodes once point evaluation would need
# more than _MAX_PANELS panels.
_L = 9.0
_NODES = 12
_NODES_COARSE = 8
_U_NODES = 40
_MAX_PANELS = 64

# Floor of a kernel's width s = sqrt((1 - r)(1 + r)): its width at the
# largest float below 1, which no |r| < 1 goes under, so a correlation that
# rounds to exactly 1 is taken as that float rather than divided by s = 0.
_S_MIN = 2.0**-26


@cache
def _legendre(n: int):
    """Gauss-Legendre nodes and weights on (-1, 1) with the barycentric
    interpolation weights of those nodes."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w, (-1.0) ** np.arange(n) * np.sqrt((1.0 - x * x) * w)


def _phi_nodes(z: np.ndarray) -> np.ndarray:
    """``normal._phi`` at every entry of ``z``, bit for bit: the scalar libm
    erfc mapped over the entries, so no scipy is needed."""
    e = np.fromiter(map(math.erfc, (-z * _SQRT_HALF).ravel().tolist()), float, z.size)
    return np.where(z <= _PHI_ZERO, 0.0, 0.5 * e.reshape(z.shape))


@cache
def _array_phi():
    """scipy.special.ndtr, Phi of the chain recursion's arrays; scipy is
    imported on first use."""
    from scipy.special import ndtr

    return ndtr


def _norm_pdf(x):
    return np.exp(-0.5 * np.square(x)) / math.sqrt(2.0 * math.pi)


def _conditional_box(h: float, k: float, r: float) -> float:
    """P(X > h, Y > k) for standard normals with correlation r, h and k
    finite, as the positive integral of phi(x) P(Y > k | X = x) over x > h,
    x the coordinate with the smaller marginal.

    For orthants whose reflection cancels: every term is positive, so a
    probability far below its marginals keeps its relative accuracy.
    x runs at most _L past its limit into the tail, on panels graded down at
    that limit and at the other coordinate's limit seen from x.  Phi at the
    nodes is the scalar libm one (``_phi_nodes``), so no scipy is loaded.
    """
    # each marginal P(Z > e) is taken in the tail it lies in
    tails = [_phi(-e) if e > 0.0 else 1.0 - _phi(e) for e in (h, k)]
    if tails[1] < tails[0]:
        h, k = k, h
    a, b = max(h, -_L), max(h, 0.0) + _L
    s = max(math.sqrt((1.0 - r) * (1.0 + r)), _S_MIN)
    # past h the integrand decays at about |h| plus |r| / s times the depth
    # of P(Y > k | X = h) in its tail
    depth = max(0.0, (k - r * h) / s)
    features = [(h, 1.0 / max(1.0, abs(h) + abs(r) / s * depth))]
    if r != 0.0:
        features.append((k / r, s / abs(r)))
    edges = _panel_edges(a, b, features, 1.0)
    x, w, _ = _legendre(_NODES)
    half = 0.5 * np.diff(edges)[:, None]
    y = 0.5 * (edges[1:] + edges[:-1])[:, None] + half * x
    q = _phi_nodes((r * y - k) / s)
    return float(np.sum(half * w * _norm_pdf(y) * q))


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
        if hi - lo <= hmax:
            points.append(lo)
            continue
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


def _point_kernel(x, r: float, s: float, z):
    """phi((x - r z) / s) with a row for each z and a column for each x:
    ``_norm_pdf`` of that matrix, bit for bit, computed in place so that
    the matrix is allocated once."""
    k = x - r * z[:, None]
    k /= s
    np.square(k, out=k)
    k *= -0.5
    np.exp(k, out=k)
    k /= math.sqrt(2.0 * math.pi)
    return k


def _phi_between(lo: float, hi: float, r, s, y, phi):
    """Phi((hi - r y) / s) - Phi((lo - r y) / s) at every y, by the array Phi
    ``phi``, for a window bounded on one side: Phi is exactly 0 and 1 at -inf
    and inf, so the infinite limit takes no Phi, and an upper window is
    taken as Phi((r y - lo) / s), keeping its relative accuracy in the tail
    instead of cancelling against 1."""
    if lo == -_INF:
        return phi((hi - r * y) / s)
    return phi((r * y - lo) / s)


def _chain_box(lower, upper, rho) -> tuple[float, float]:
    """P(lower <= X <= upper) for a standardized Gaussian Markov chain of
    d >= 3 coordinates with adjacent correlations ``rho[k] = corr[k, k+1]``,
    on the _NODES rule and on the _NODES_COARSE rule of its error estimate.

    g_k(y) = P(X_j in box_j for all j < k | X_k = y) is carried on a panel
    Gauss-Legendre grid of each inner coordinate's box cut to [-_L, _L].
    g_1 is a Phi (``_phi_between``); g_k integrates g_{k-1} against the law
    N(rho z, 1 - rho^2) of X_{k-1} given X_k = z; the result integrates
    phi * g_{d-2} against the last coordinate's Phi.
    Panels break at the neighbouring box edges seen from this coordinate and
    grade down to their widths, so near-coincident dates stay resolved.

    Both rules run in one pass over the same panel edges: their nodes sit in
    one flat array, the fine rule's block first, so each elementwise step is
    one numpy call, while each kernel step and each sum runs on one rule's
    contiguous block, exactly as that rule alone would.
    """
    d = len(lower)
    s = [max(math.sqrt((1.0 - r) * (1.0 + r)), _S_MIN) for r in rho]
    rules = [_legendre(n)[:2] for n in (_NODES, _NODES_COARSE)]
    for k in range(1, d - 1):
        a, b = max(lower[k], -_L), min(upper[k], _L)
        if a >= b:
            return 0.0, 0.0
        features = [(e / rho[j], s[j] / abs(rho[j]))
                    for j, nb in ((k - 1, k - 1), (k, k + 1)) for e in (lower[nb], upper[nb])
                    if math.isfinite(e) and rho[j] != 0.0]
        # grid k feeds the next inner step: point-evaluate that kernel on
        # panels of three kernel widths, unless that needs too many panels
        point = k < d - 2 and b - a <= 3.0 * s[k] * _MAX_PANELS
        edges = _panel_edges(a, b, features, min(1.0, 3.0 * s[k]) if point else 1.0)
        half = 0.5 * (edges[1:] - edges[:-1])[:, None]
        mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
        y = np.concatenate([mid + half * x for x, _ in rules], axis=None)
        hw = np.concatenate([half * w for _, w in rules], axis=None)
        blocks = [slice(0, half.size * _NODES), slice(half.size * _NODES, y.size)]
        if k == 1:
            g = _phi_between(lower[0], upper[0], rho[0], s[0], y, _array_phi())
        elif prev_point:
            g = np.concatenate([
                _point_kernel(prev_y[old], rho[k - 1], s[k - 1], y[new]) @ prev_wg[old]
                for new, old in zip(blocks, prev_blocks)
            ]) / s[k - 1]
        else:
            g = np.concatenate([
                _kernel_step(y[new], rho[k - 1], s[k - 1], prev_edges,
                             prev_y[old].reshape(-1, n), prev_g[old].reshape(-1, n), n)
                for new, old, n in zip(blocks, prev_blocks, (_NODES, _NODES_COARSE))
            ])
        prev_point, prev_edges, prev_blocks, prev_y, prev_g, prev_wg = point, edges, blocks, y, g, hw * g
    q = _phi_between(lower[d - 1], upper[d - 1], rho[d - 2], s[d - 2], y, _array_phi())
    terms = prev_wg * _norm_pdf(y) * q
    return tuple(min(max(float(terms[block].sum()), 0.0), 1.0) for block in blocks)
