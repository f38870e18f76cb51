"""Independent numerical oracles used by the test suite.

These deliberately avoid the code paths they verify: dense tensor-product
Gauss-Legendre and conditioning on the first date for normal orthant
probabilities, composite Simpson for the weighted binary integrals.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import roots_legendre

from defbond import bivariate_cdf


def gl_mvn_cdf(a, cov, n: int = 96, lo: float = -9.5) -> float:
    """P(X <= a) for X ~ N(0, cov) by dense Gauss-Legendre over the density."""
    a = np.asarray(a, float)
    cov = np.asarray(cov, float)
    d = len(a)
    prec = np.linalg.inv(cov)
    det = np.linalg.det(cov)
    nodes, weights = [], []
    for i in range(d):
        xi, wi = roots_legendre(n)
        half = 0.5 * (a[i] - lo)
        mid = 0.5 * (a[i] + lo)
        nodes.append(mid + half * xi)
        weights.append(half * wi)
    pts = np.stack(np.meshgrid(*nodes, indexing="ij"), axis=-1).reshape(-1, d)
    wts = np.prod(np.stack(np.meshgrid(*weights, indexing="ij"), axis=-1).reshape(-1, d), axis=1)
    quad = np.einsum("ni,ij,nj->n", pts, prec, pts)
    dens = np.exp(-0.5 * quad) / ((2.0 * math.pi) ** (d / 2.0) * math.sqrt(det))
    return float(dens @ wts)


def conditional_chain_cdf3(a, taus, signs) -> float:
    """P(s_i W(tau_i) / sqrt(tau_i) <= a_i, i = 1..3) for a Brownian motion W.

    Conditions on w = W(tau_1): the increments to tau_2 and tau_3 are then a
    bivariate normal, so the integrand is ``bivariate_cdf`` times the density
    of w, integrated by adaptive quadrature.  Each bivariate limit switches
    over a width sqrt(tau_i - tau_1) around w = s_i b_i; breakpoints graded
    down to that width keep the quadrature accurate at any date gap, where
    the dense rule above loses accuracy below gap / tau of about 1e-4.
    """
    t1, t2, t3 = taus
    s = np.asarray(signs, float)
    b = np.asarray(a, float) * np.sqrt(taus)  # s_i W(tau_i) <= b_i
    g2, g3 = t2 - t1, t3 - t1

    def integrand(w):
        h2 = (b[1] - s[1] * w) / math.sqrt(g2)
        h3 = (b[2] - s[2] * w) / math.sqrt(g3)
        dens = math.exp(-0.5 * w * w / t1) / math.sqrt(2.0 * math.pi * t1)
        return dens * bivariate_cdf(h2, h3, s[1] * s[2] * math.sqrt(g2 / g3))

    reach = 12.0 * math.sqrt(t1)
    lo, hi = (-reach, b[0]) if s[0] > 0 else (-b[0], reach)
    points = {
        s[i] * b[i] + k * math.sqrt(g)
        for i, g in ((1, g2), (2, g3))
        for k in (-64, -16, -4, -1, 0, 1, 4, 16, 64)
    }
    points = sorted(p for p in points if lo < p < hi)
    value, _ = quad(integrand, lo, hi, points=points or None, epsabs=1e-14, epsrel=1e-13, limit=500)
    return value


def simpson_integral(f, a: float, b: float, panels: int) -> float:
    """Composite Simpson with ``panels`` panels (must be even)."""
    assert panels % 2 == 0
    xs = np.linspace(a, b, panels + 1)
    ys = np.array([f(x) for x in xs])
    h = xs[1] - xs[0]
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-2:2].sum()))
