"""One benchmark run of one workload, in a fresh single-threaded process.

Started by ``run.py`` with ``src/`` on ``PYTHONPATH`` and the BLAS/OpenMP
pools pinned to one thread.  Prints ``# ...`` information lines, then one
JSON line with ``correct``, ``attempted``, ``failed`` and the workload's
metric values (without units; ``run.py`` adds them and the set-up numbers).

``--trace 0`` measures as many whole rounds as ``--seconds`` asks for at the
workload's nominal round time (``Sizes.rounds``) and reports calibrated
end-to-end metrics.  ``--trace 1`` runs the leading
requests of round 0 untraced and then the whole round traced, checks that
the shared prefix gives bit-identical prices, and reports the per-layer
totals of the traced pass with the tracing overhead.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import defbond
import numpy as np
import scipy

import calibration
import workloads as wl
from tracing import Tracer

ROOT = Path(__file__).resolve().parents[1]

# 3-variate CDF calls compared against the dense Gauss-Legendre oracle.
ORACLE_SAMPLE = 6
# The oracle integrates from -9.5 up to each limit; limits beyond +-9.5 change
# the probability by less than 1e-20, so they are clipped there.
ORACLE_CLIP = 9.5


@dataclass
class Record:
    request: object
    outcome: object  # the request's result, or the exception it raised
    seconds: float
    window: int  # calibration window it ran in


class Calibrator:
    """Calibration samples timed by ``run.py`` on request.

    The request is a ``#calibrate`` line on standard output; the answer, the
    kernel's seconds, arrives on standard input while this process waits.
    Samples are taken only between requests, never inside a timed one.  A
    request that ran between samples ``w - 1`` and ``w`` is normalised by
    the mean of those two, which follows the host's speed as it drifts.
    """

    def __init__(self):
        self.kernel_s: list[float] = []
        self._since = 0.0

    @property
    def window(self) -> int:
        """Window of the work about to run: the number of samples so far."""
        return len(self.kernel_s)

    def sample(self) -> None:
        print("#calibrate", flush=True)
        self.kernel_s.append(float(sys.stdin.readline()))
        self._since = 0.0

    def after(self, seconds: float) -> None:
        """Count ``seconds`` of timed work; sample when enough has passed."""
        self._since += seconds
        if self._since >= calibration.EVERY_S:
            self.sample()

    def slowdown(self, window: int) -> float:
        return calibration.slowdown(self.kernel_s[max(window - 1, 0):window + 1])

    def normalised(self, seconds: float, window: int) -> float:
        return seconds / self.slowdown(window)


def execute_all(workload, requests, cal: Calibrator) -> list[Record]:
    """Run ``requests`` in order, sampling the calibration between them."""
    records = []
    for req in requests:
        window = cal.window
        t0 = time.perf_counter()
        try:
            outcome = workload.execute(req)
        except Exception as exc:  # a failed request is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            outcome = exc
        records.append(Record(req, outcome, time.perf_counter() - t0, window))
        cal.after(records[-1].seconds)
    return records


def execute_prefix(workload, requests, seconds: float, cal: Calibrator) -> list[Record]:
    """Leading requests until ``seconds`` have passed (at least one)."""
    records: list[Record] = []
    for req in requests:
        records += execute_all(workload, [req], cal)
        if sum(rec.seconds for rec in records) >= seconds:
            break
    return records


def run_rounds(workload, rounds: int, cal: Calibrator) -> list[Record]:
    """The first ``rounds`` rounds; round generation happens outside the clock."""
    records: list[Record] = []
    cal.sample()
    for r in range(rounds):
        records += execute_all(workload, workload.round(r), cal)
    cal.sample()
    return records


def price_latencies(workload, records: list[Record], cal: Calibrator) -> list[float]:
    """Normalised seconds of every closed-form price."""
    if workload.name == "verify":
        return [cal.normalised(p[0], rec.window) for rec in records
                if not isinstance(rec.outcome, Exception) for p in rec.outcome.prices]
    return [cal.normalised(rec.seconds, rec.window) for rec in records]


def price_values(workload, records: list[Record]) -> list:
    """Every price a pass produced, for the bit-identity comparison."""
    values = []
    for rec in records:
        if isinstance(rec.outcome, Exception):
            values.append(repr(rec.outcome))
        elif workload.name == "verify":
            values.append(([p[2].price for p in rec.outcome.prices], rec.outcome.output))
        else:
            values.append(rec.outcome.price)
    return values


@dataclass
class Checked:
    attempted: int
    failed: int  # operations that failed or reported a failure
    wrong: int  # prices shown to be wrong (a subset of the failures)
    validate_s: list[float]  # normalised seconds per validated problem


def check_prices(workload, records: list[Record], cal: Calibrator) -> Checked:
    """Curve and multidate: bounds on every price, then one PDE solve per
    problem covering all of its times.  Every failure is a wrong price."""
    failed = 0
    by_problem: dict[int, list[Record]] = defaultdict(list)
    for rec in records:
        if isinstance(rec.outcome, Exception):
            failed += 1
            continue
        s, t = rec.request.scenario, rec.request.t
        if not wl.price_bounds_ok(s.market, s.schedule, s.recovery, t, rec.outcome):
            print(f"# FAIL bounds {workload.name} t={t!r} price={rec.outcome.price!r}")
            failed += 1
            continue
        by_problem[rec.request.key].append(rec)
    validate_s = []
    cal.sample()
    for key, group in by_problem.items():
        window = cal.window
        start = time.perf_counter()
        pde_values = wl.pde_prices(workload.problems[key], [rec.request.t for rec in group])
        seconds = time.perf_counter() - start
        validate_s.append(cal.normalised(seconds, window))
        cal.after(seconds)
        for rec, value in zip(group, pde_values):
            if not abs(rec.outcome.price - value) <= wl.PDE_TOL:
                print(f"# FAIL pde {workload.name} problem={key} t={rec.request.t!r} "
                      f"closed={rec.outcome.price!r} pde={value!r}")
                failed += 1
    cal.sample()
    return Checked(len(records), failed, failed, validate_s)


def check_validations(records: list[Record], cal: Calibrator) -> Checked:
    """Verify: one operation per probe row.  A row fails when validate marks
    it FAIL, when it is missing or its validation raised, or when its
    closed-form price is outside the no-arbitrage bounds.  The price is wrong
    only in the last three cases or when it misses the PDE price by more
    than the tolerance; a Monte Carlo disagreement alone fails the row
    without proving the price wrong."""
    attempted = failed = wrong = 0
    for rec in records:
        n_rows = len(rec.request.times)
        attempted += n_rows
        if isinstance(rec.outcome, Exception):
            failed += n_rows
            wrong += n_rows
            continue
        rows = wl.validate_rows(rec.outcome.output)
        prices = rec.outcome.prices
        bad = bad_price = max(n_rows - len(rows), 0)
        for (diff, status), (_, args, report) in zip(rows, prices):
            market, schedule, recovery, _, t = args[:5]
            in_bounds = wl.price_bounds_ok(market, schedule, recovery, t, report)
            bad += status != "PASS" or not in_bounds
            bad_price += not in_bounds or not diff <= wl.PDE_TOL
        if bad:
            print(f"# FAIL verify exit={rec.outcome.exit_code}\n{rec.outcome.output}")
        failed += bad
        wrong += bad_price
    return Checked(attempted, failed, wrong,
                   [cal.normalised(rec.seconds, rec.window) for rec in records])


def quantile(values: list[float], q: int) -> float:
    """q-th percentile, inclusive method (defined for any sample size >= 1)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_threads() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return -1


def machine_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_pools": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "process_threads": process_threads(),
        "machine": platform.machine(),
    }


def oracle_errors(d3_calls) -> list[float]:
    """|lattice - dense Gauss-Legendre| on an evenly spaced sample of the
    captured 3-variate calls whose probability is not 0 or 1 to 1e-9 (many
    are, and both methods then agree exactly); the oracle module is loaded
    read-only."""
    calls = [c for c in d3_calls if 1e-9 < c[3] < 1.0 - 1e-9]
    if not calls:
        return []
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("defbond_test_oracles", ROOT / "tests" / "oracles.py")
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    step = max(1, len(calls) // ORACLE_SAMPLE)
    errors = []
    for a, corr, signs, value in calls[::step][:ORACLE_SAMPLE]:
        cov = np.outer(signs, signs) * corr
        exact = oracles.gl_mvn_cdf(np.clip(a, -ORACLE_CLIP, ORACLE_CLIP), cov)
        errors.append(abs(value - exact))
    return errors


def make_workload(name: str, seed: int, sizes: wl.Sizes, workdir: Path):
    if name == "multidate":
        return wl.MultidateWorkload(seed, sizes)
    bases = wl.load_bases(ROOT)
    if name == "curve":
        return wl.CurveWorkload(bases, seed, sizes)
    return wl.VerifyWorkload(bases, seed, sizes, workdir)


def check(workload, records, cal: Calibrator) -> Checked:
    if workload.name == "verify":
        return check_validations(records, cal)
    return check_prices(workload, records, cal)


def end_to_end(workload, seconds: float, sizes: wl.Sizes) -> tuple[Checked, dict]:
    cal = Calibrator()
    workload.execute(workload.round(0)[0])  # lazy imports and first-call set-up
    records = run_rounds(workload, sizes.rounds(workload, seconds), cal)
    rss = peak_rss_mb()
    threads = process_threads()
    busy = sum(rec.seconds for rec in records)
    busy_normalised = sum(cal.normalised(rec.seconds, rec.window) for rec in records)
    latencies = price_latencies(workload, records, cal)
    checked = check(workload, records, cal)
    print(f"# samples prices={len(latencies)} requests={len(records)} busy_s={busy:.3f} "
          f"validations={len(checked.validate_s)} threads_during_run={threads} "
          f"calibrations={len(cal.kernel_s)} mean_slowdown={busy / busy_normalised:.4f}")
    return checked, {
        "prices_per_s": len(latencies) / busy_normalised,
        "price_p50_ms": 1e3 * statistics.median(latencies),
        "price_p95_ms": 1e3 * quantile(latencies, 95),
        "validate_p50_s": statistics.median(checked.validate_s),
        "peak_rss_mb": rss,
    }


def per_layer(workload, tracer: Tracer, seconds: float) -> tuple[Checked, dict]:
    tracer.install()
    requests = workload.round(0)  # traced: the sweeps that build the variants
    tracer.remove()
    workload.execute(requests[0])
    # Untraced: the round's leading requests, up to ``seconds`` (all of round
    # 0 unless it is longer).  Traced: the whole round.  The shared prefix
    # must agree bit for bit and gives the tracing overhead.
    cal = Calibrator()
    cal.sample()
    plain = execute_prefix(workload, requests, seconds, cal)
    cal.sample()
    tracer.install()
    try:
        traced = execute_all(workload, requests, cal)
    finally:
        tracer.remove()
    cal.sample()
    mismatches = sum(
        1 for a, b in zip(price_values(workload, plain), price_values(workload, traced)) if a != b
    )
    traced_s = sum(rec.seconds for rec in traced)
    overhead = sum(cal.normalised(r.seconds, r.window) for r in traced[: len(plain)]) / sum(
        cal.normalised(r.seconds, r.window) for r in plain) - 1.0
    checked = check(workload, traced, cal)
    errors = oracle_errors(tracer.d3_calls)

    c, s = tracer.counts, tracer.seconds
    d3plus = c["normal.calls.d3plus"]
    cell_steps = c["pde.cell_steps_computed"]
    paths = c["montecarlo.paths"]
    metrics = {name: float(c[name]) for name in (
        "normal.calls.d1", "normal.calls.d2", "normal.calls.d3plus",
        "binaries.calls.order1", "binaries.calls.order2", "binaries.calls.order3plus",
        "integrals.calls.order1", "integrals.calls.order2", "integrals.calls.order3plus",
        "integrals.binary_evals", "pricing.calls.endogenous", "pricing.calls.exogenous",
        "pde.solves", "pde.cell_steps_computed", "montecarlo.paths",
    )}
    metrics.update({name: float(s[name]) for name in (
        "normal.self_s.d1", "normal.self_s.d2", "normal.self_s.d3plus", "binaries.self_s",
        "integrals.self_s", "pricing.self_s", "scenario.sweep_s", "pde.solve_s",
        "pde.sample_s", "montecarlo.s",
    )})
    metrics.update({
        "normal.budget_exhausted_frac.d3plus":
            c["normal.budget_exhausted.d3plus"] / d3plus if d3plus else 0.0,
        "normal.abs_err_vs_oracle.d3": max(errors) if errors else 0.0,
        "pde.ns_per_cell_step": 1e9 * s["pde.solve_s"] / cell_steps if cell_steps else 0.0,
        "pde.history_mb_computed": c["pde.history_bytes_computed"] / 1e6,
        "montecarlo.ns_per_path": 1e9 * s["montecarlo.s"] / paths if paths else 0.0,
        "trace.overhead_frac": overhead,
        "trace.slowdown": traced_s / sum(cal.normalised(r.seconds, r.window) for r in traced),
        "trace.price_mismatches": float(mismatches),
        "error_rate": checked.failed / checked.attempted,
    })
    print(f"# trace traced_s={traced_s:.3f} requests={len(requests)} compared={len(plain)} "
          f"oracle_samples={len(errors)} "
          f"d3_captured={len(tracer.d3_calls)}")
    checked.failed += mismatches
    checked.wrong += mismatches
    return checked, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("curve", "multidate", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true", help="reduced input sizes")
    parser.add_argument("--workdir", type=Path, required=True,
                        help="empty scratch directory for scenario files")
    args = parser.parse_args(argv)

    source = Path(defbond.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"defbond imported from {source}, not from this checkout's src/", file=sys.stderr)
        return 2
    print("# machine " + json.dumps(machine_record(), sort_keys=True))
    sizes = wl.Sizes.of(args.quick)
    workload = make_workload(args.workload, args.seed, sizes, args.workdir)
    if args.trace:
        checked, metrics = per_layer(workload, Tracer(), args.seconds)
    else:
        checked, metrics = end_to_end(workload, args.seconds, sizes)
    result = {
        "correct": checked.wrong == 0 and all(math.isfinite(v) for v in metrics.values()),
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
