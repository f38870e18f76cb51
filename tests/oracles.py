"""Independent numerical oracles used by the test suite.

These deliberately avoid the code paths they verify: dense tensor-product
Gauss-Legendre and conditioning on the first date for normal orthant
probabilities, composite Simpson for the weighted binary integrals, a
finite-difference solve of the plain pricing equation for nesting
identities, and a dense Monte Carlo engine that carries every path through
every step.  Bivariate boxes are integrated over one coordinate by
adaptive quadrature with scipy's Phi.
"""

from __future__ import annotations

import math
import sys

import numpy as np
from scipy.integrate import quad
from scipy.linalg import solve_banded
from scipy.special import ndtr, roots_legendre

from defbond import McResult, bivariate_cdf


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


def conditional_box_ndtr(lo, hi, r: float) -> float:
    """P(lo <= (X, Y) <= hi) for standard normals at correlation r.

    Integrates phi(x) P(lo_Y <= Y <= hi_Y | X = x) over x in [lo_X, hi_X]
    (cut to |x| <= 40, where phi is 0 in double precision) by adaptive
    quadrature, with Phi from ``scipy.special.ndtr`` and the conditional
    mass differenced in the tail it lies in.  The conditional limits cross
    zero at x = lo_Y / r and hi_Y / r, which are passed as breakpoints.
    """
    s = math.sqrt((1.0 - r) * (1.0 + r))

    def integrand(x):
        a, b = (lo[1] - r * x) / s, (hi[1] - r * x) / s
        mass = ndtr(-a) - ndtr(-b) if a > 0.0 else ndtr(b) - ndtr(a)
        return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) * mass

    a, b = max(lo[0], -40.0), min(hi[0], 40.0)
    points = sorted(e / r for e in (lo[1], hi[1]) if math.isfinite(e) and r != 0.0 and a < e / r < b)
    value, _ = quad(integrand, a, b, points=points or None, epsabs=0.0, epsrel=2e-14, limit=500)
    return value


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


def conditional_chain_cdf4(a, taus, signs) -> float:
    """P(s_i W(tau_i) / sqrt(tau_i) <= a_i, i = 1..4) for a Brownian motion W.

    Conditions on w = W(tau_1): the increments to tau_2, tau_3 and tau_4 are
    a Brownian chain of their own, whose probability is
    ``conditional_chain_cdf3`` at the shifted limits (b_i - s_i w) / sqrt(g_i),
    g_i = tau_i - tau_1.  The limit of date i switches over a width sqrt(g_i)
    around w = s_i b_i, and the breakpoints grade down to that width, so two
    interior gaps decades apart stay resolved.
    """
    t1 = taus[0]
    s = np.asarray(signs, float)
    b = np.asarray(a, float) * np.sqrt(taus)  # s_i W(tau_i) <= b_i
    g = np.asarray(taus[1:], float) - t1

    def integrand(w):
        inner = (b[1:] - s[1:] * w) / np.sqrt(g)
        dens = math.exp(-0.5 * w * w / t1) / math.sqrt(2.0 * math.pi * t1)
        return dens * conditional_chain_cdf3(inner, tuple(g), s[1:])

    reach = 12.0 * math.sqrt(t1)
    lo, hi = (-reach, b[0]) if s[0] > 0 else (-b[0], reach)
    points = {
        s[i] * b[i] + k * math.sqrt(g[i - 1])
        for i in (1, 2, 3)
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


def propagate_terminal(y, terminal, coeffs, t_start, t_end, n_steps, bc_lo, bc_hi) -> np.ndarray:
    """Solve the plain pricing equation with coefficients ``coeffs`` backward
    from arbitrary terminal data on the uniform log-spot grid ``y``, with
    edge values ``bc_lo(t)`` and ``bc_hi(t)``; returns the slice at
    ``t_start``.  Crank-Nicolson on ``n_steps`` steps, the first after the
    terminal row taken as two implicit-Euler half-steps; both schemes solve
    with M = I - (dt/2) A by ``scipy.linalg.solve_banded``.  It shares no
    code with the PDE engine.  Checks nesting identities of the closed
    forms."""
    h = y[1] - y[0]
    alpha = coeffs.sigma**2 / (2.0 * h * h)
    mu = coeffs.r - coeffs.q - 0.5 * coeffs.sigma**2
    lo, diag, up = alpha - mu / (2.0 * h), -2.0 * alpha - coeffs.r, alpha + mu / (2.0 * h)
    dt = (t_end - t_start) / n_steps
    half = 0.5 * dt
    banded = np.zeros((3, len(y) - 2))
    banded[0, 1:], banded[1], banded[2, :-1] = -half * up, 1.0 - half * diag, -half * lo

    def solve(rhs, t):
        # M v = rhs plus the new-time edge values at t
        out = np.empty(len(y))
        out[0], out[-1] = bc_lo(t), bc_hi(t)
        rhs[0] += half * lo * out[0]
        rhs[-1] += half * up * out[-1]
        out[1:-1] = solve_banded((1, 1), banded, rhs)
        return out

    u = solve(np.array(terminal[1:-1], dtype=float), t_end - half)
    u = solve(u[1:-1].copy(), t_end - dt)
    for k in range(n_steps - 2, -1, -1):
        # (I + (dt/2) A) u with the old-time edge values u carries
        explicit = u[1:-1] + half * (lo * u[:-2] + diag * u[1:-1] + up * u[2:])
        u = solve(explicit, t_start + k * dt)
    return u


def dense_simulate_price(market, schedule, recovery, V0, config, t=0.0) -> McResult:
    """``simulate_price`` computed densely: every path's w = log(x / cap) is
    kept at every date (log x for a recovery that does not grow with x), the
    first barrier hit is found by a backward pass over the dates, jump times
    are drawn for every path and each path's bridge normal sits in a dense
    row (zero where the block drew none).  Same blocks, draws and
    floating-point operations as the engine, so the two agree bit for bit."""
    maturity = schedule.maturity
    df = math.exp(-market.r * (maturity - t))
    x0 = min(max(V0 / df, math.ulp(0.0)), sys.float_info.max)
    first = next(j for j, d in enumerate(schedule.dates) if d > t)
    rem_dates = np.asarray(schedule.dates[first:], dtype=float)
    seg_times = np.concatenate(([t], rem_dates))
    seg_lambdas = np.asarray(schedule.intensities[first - 1 :], dtype=float)
    seg_dt = np.diff(seg_times)
    hazard_edges = np.concatenate(([0.0], np.cumsum(seg_lambdas * seg_dt)))
    b, s = market.b, market.s_V
    n_dates = len(rem_dates)
    drift = (-b - 0.5 * s * s) * seg_dt
    vol = s * np.sqrt(seg_dt)
    # exogenous recovery, and endogenous at R = 0, pay a constant at default
    constant = recovery.mode == "exogenous" or recovery.R == 0.0
    log_cap = 0.0 if constant else math.log(recovery.n / recovery.R)
    w0 = math.log(x0) - log_cap
    thresholds = [math.log(K) - log_cap for K in schedule.barriers[first - 1 :]]
    dates = schedule.dates
    hazard = sum(lam * (hi - lo) for lam, lo, hi in zip(schedule.intensities, dates, dates[1:]))
    u_bound = -math.expm1(-hazard) * (1.0 + 1e-6)

    def leg_payoff(z, bridge, e_unif):
        n = z.shape[1]
        w = np.empty((n_dates, n))
        hit = np.empty((n_dates, n), dtype=bool)
        for j in range(n_dates):
            step = drift[j] + vol[j] * z[j]
            np.add(w[j - 1] if j else w0, step, out=w[j])
            np.less_equal(w[j], thresholds[j], out=hit[j])
        first_hit = np.full(n, n_dates)
        for j in range(n_dates - 1, -1, -1):
            first_hit[hit[j]] = j
        any_hit = first_hit < n_dates

        e = -np.log1p(-np.clip(e_unif, 0.0, 1.0 - 1e-16))
        seg = np.searchsorted(hazard_edges, e, side="right") - 1
        jumps = seg < n_dates
        seg_c = np.minimum(seg, n_dates - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            offset = (e - hazard_edges[seg_c]) / seg_lambdas[seg_c]
        theta = np.where(jumps, seg_times[seg_c] + offset, np.inf)

        # a jump inside the segment that ends at the first hit date comes
        # before that date's barrier
        unexpected = jumps & (seg <= first_hit)
        expected = ~unexpected & any_hit
        survived = ~unexpected & ~any_hit

        payoff = np.ones(n)
        if constant:
            payoff[~survived] = recovery.R if recovery.mode == "exogenous" else 0.0
            return payoff, survived
        # a default pays exp(min(w, 0)) = min(1, x / cap) at its w
        if expected.any():
            payoff[expected] = np.exp(np.minimum(w[first_hit[expected], expected], 0.0))
        if unexpected.any():
            sc = seg_c[unexpected]
            d_theta = theta[unexpected] - seg_times[sc]
            w_prev = np.where(sc == 0, w0, w[np.maximum(sc - 1, 0), unexpected])
            growth = (-b - 0.5 * s * s) * d_theta + s * np.sqrt(d_theta) * bridge[unexpected]
            payoff[unexpected] = np.exp(np.minimum(w_prev + growth, 0.0))
        return payoff, survived

    block_size = 1 << 16
    seed = config.seed % 2**64
    n_base = config.n_paths // 2
    sum_v = sum_v2 = 0.0
    survived_total = done = block = 0
    while done < n_base:
        count = min(block_size, n_base - done)
        # stream 0 holds the uniforms and bridge normals, stream j the step
        # normals to date j
        streams = [
            np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, block, key])))
            for key in [0, *range(first, len(dates))]
        ]
        z = np.array([rng.standard_normal(count) for rng in streams[1:]])
        rng = streams[0]
        u = rng.random(count)
        # bridge normals only for the paths that can jump in either leg
        # under the whole schedule's hazard
        can_jump = (u < u_bound) | (1.0 - u < u_bound)
        bridge = np.zeros(count)
        bridge[can_jump] = rng.standard_normal(int(can_jump.sum()))
        pay, surv = leg_payoff(z, bridge, u)
        pay2, surv2 = leg_payoff(-z, -bridge, 1.0 - u)
        pay = 0.5 * (pay + pay2)
        survived_total += int(surv.sum()) + int(surv2.sum())
        sum_v += float(pay.sum())
        sum_v2 += float((pay * pay).sum())
        done += count
        block += 1

    mean_rel = sum_v / n_base
    if n_base > 1:
        var = max(sum_v2 - n_base * mean_rel * mean_rel, 0.0) / (n_base - 1)
        std_err = df * math.sqrt(var / n_base)
    else:
        std_err = math.inf
    return McResult(df * mean_rel, std_err, survived_total / config.n_paths, config.n_paths)
