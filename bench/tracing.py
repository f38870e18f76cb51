"""Per-layer tracing installed from outside the package.

Each layer's public functions are wrapped at the module attribute through
which its caller looks them up (the callers use ``from .x import y``, so the
binding that matters is the caller's, not the defining module's).  A wrapper
records a span: wall time, a count keyed by the call's shape, and its self
time, which is the span minus the spans of wrapped calls made inside it.
Nothing is recorded per call beyond running totals, except a small capture of
3-variate CDF calls for the oracle comparison.

Wrappers pass arguments and results through untouched, so traced prices are
bit-identical to untraced ones; the worker checks this.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

# How many 3-variate CDF calls to keep for the oracle comparison.
D3_CAPTURE_LIMIT = 4096


def _order_key(order: int) -> str:
    return f"order{order}" if order < 3 else "order3plus"


def _dim_key(dim: int) -> str:
    return f"d{dim}" if dim < 3 else "d3plus"


class Tracer:
    """Running totals for the spans of one traced pass."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()
        self.d3_calls: list[tuple[np.ndarray, np.ndarray, np.ndarray, float]] = []
        self._children: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _span(self, fn, on_exit):
        """Wrap ``fn``; ``on_exit(args, kwargs, result, self_s, span_s)``
        books the span once the call returns."""
        children = self._children

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            children.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                inner = children.pop()
                if children:
                    children[-1] += span
            on_exit(args, kwargs, result, span - inner, span)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, module, name: str, on_exit) -> None:
        original = getattr(module, name)
        self._patched.append((module, name, original))
        setattr(module, name, self._span(original, on_exit))

    # -- layer bookkeeping ------------------------------------------------

    def _normal(self, args, kwargs, result, self_s, span_s):
        a = np.asarray(args[0], dtype=float)
        key = _dim_key(a.size)
        self.counts[f"normal.calls.{key}"] += 1
        self.seconds[f"normal.self_s.{key}"] += self_s
        if a.size >= 3:
            config = args[3] if len(args) > 3 else kwargs["config"]
            if result[1] > config.target_error:
                self.counts["normal.budget_exhausted.d3plus"] += 1
            if a.size == 3 and len(self.d3_calls) < D3_CAPTURE_LIMIT:
                signs = np.asarray(args[2], dtype=float)
                self.d3_calls.append((a.copy(), args[1].covariance.copy(), signs, result[0]))

    def _binary(self, args, kwargs, result, self_s, span_s):
        self.counts[f"binaries.calls.{_order_key(args[0].order)}"] += 1
        self.seconds["binaries.self_s"] += self_s

    def _binary_in_integral(self, args, kwargs, result, self_s, span_s):
        self._binary(args, kwargs, result, self_s, span_s)
        self.counts["integrals.binary_evals"] += 1

    def _integral(self, args, kwargs, result, self_s, span_s):
        self.counts[f"integrals.calls.{_order_key(args[0].order)}"] += 1
        self.seconds["integrals.self_s"] += self_s

    def _pricing(self, mode):
        def book(args, kwargs, result, self_s, span_s):
            self.counts[f"pricing.calls.{mode}"] += 1
            self.seconds["pricing.self_s"] += self_s

        return book

    def _pde_solve(self, args, kwargs, result, self_s, span_s):
        steps = sum(len(times) - 1 for times in result.times)
        self.counts["pde.solves"] += 1
        self.counts["pde.cell_steps_computed"] += len(result.y) * steps
        self.counts["pde.history_bytes_computed"] += sum(v.nbytes for v in result.values)
        self.seconds["pde.solve_s"] += span_s

    def _pde_sample(self, args, kwargs, result, self_s, span_s):
        self.seconds["pde.sample_s"] += span_s

    def _montecarlo(self, args, kwargs, result, self_s, span_s):
        self.counts["montecarlo.paths"] += result.n_paths
        self.seconds["montecarlo.s"] += span_s

    def _sweep(self, args, kwargs, result, self_s, span_s):
        self.seconds["scenario.sweep_s"] += span_s

    # -- install / remove -------------------------------------------------

    def install(self) -> None:
        from defbond import binaries, cli, integrals, pricing, scenario

        self._patch(binaries, "mvn_cdf", self._normal)
        self._patch(integrals, "price_binary", self._binary_in_integral)
        self._patch(pricing, "price_binary_with_error", self._binary)
        self._patch(pricing, "integral_binary", self._integral)
        self._patch(scenario, "apply_sweep_value", self._sweep)
        for module in (pricing, cli):
            self._patch(module, "price_endogenous", self._pricing("endogenous"))
            self._patch(module, "price_exogenous", self._pricing("exogenous"))
        self._patch(cli, "solve_endogenous_cascade", self._pde_solve)
        self._patch(cli, "solve_exogenous_cascade", self._pde_solve)
        self._patch(cli, "sample", self._pde_sample)
        self._patch(cli, "simulate_price", self._montecarlo)

    def remove(self) -> None:
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)
