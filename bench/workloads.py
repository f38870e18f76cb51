"""Seeded inputs, request execution and check helpers for the workloads.

A workload hands out *rounds*: lists of requests whose structure is the same
in every round and for every seed, while the seed (and the round index)
draws the numbers.  Runs measure whole rounds, and how many follows from the
requested seconds and the workload's ``round_s`` alone, never from the
clock: a seed then always gives the same requests, so the same operations
and the same failures, and a run's mix of cheap and expensive requests does
not depend on the host's speed.

- ``curve``: the three bundled base scenarios, each with seeded variants,
  priced over a time grid on [0, T) with time outermost, as ``defbond curve``
  does.
- ``multidate``: independent library prices on seeded 3-, 4- and 5-date
  schedules, both recovery modes.  Exogenous problems are priced once in
  every interval (chains of 1..N dates); endogenous ones in every interval
  whose chain has at most 3 dates, because a single endogenous price on a
  4- or 5-date chain costs 10-20 s with the lattice CDF (2-vCPU Xeon) and
  would make a run's time hinge on one request.
- ``verify``: ``defbond validate`` on seeded variants of the base scenarios.

Inputs deliberately stay inside what the library documents as supported:
uniform barrier regimes (mixed ones raise) and at most 16 dates.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

import yaml

from defbond import cli, pde, pricing, scenario

BASES = ("base_endogenous_low_barrier", "base_endogenous_high_barrier", "base_exogenous")

# Absolute price tolerance of ``defbond validate`` (its --pde-tol default).
PDE_TOL = 1e-3
# Monte Carlo acceptance in standard errors for each validate row.  A run
# makes about 60 such comparisons; at 4.5 sigma the chance that a correct
# run shows any false FAIL stays below 5e-4 (Bonferroni), where the
# single-comparison 3-sigma default would flag roughly one run in six.
MC_SIGMAS = 4.5
# Grid for the out-of-band PDE check of curve and multidate prices; its
# discretisation error on the bundled bases is at most 2e-5, well inside PDE_TOL.
CHECK_GRID = {"n_space": 1024, "n_time_per_interval": 512}
# Longest chain (dates from the evaluation interval to maturity) at which
# multidate prices endogenous problems.
ENDOGENOUS_MAX_CHAIN = 3
# Endogenous prices on 2-date chains are taken twice per problem.  Ordered by
# cost, a multidate round's prices run: exogenous 1- and 2-date chains,
# endogenous 1-date, endogenous 2-date, exogenous lattice prices, endogenous
# 3-date.  With the 2-date group doubled, the median falls in its middle and
# the 95th percentile in the middle of the last group, instead of near edges.
ENDOGENOUS_TWICE = 2


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``quick`` shrinks everything for the harness's own checks."""

    curve_points: int
    curve_variants: tuple[int, ...]  # per round, for each of BASES
    multidate_problems: int  # per round and recovery mode
    multidate_dates: tuple[int, ...]  # announcing dates, cycled over problems
    verify_validations: tuple[int, ...]  # per round, for each of BASES
    verify_probes: tuple[int, ...]  # probe times per interval
    verify_paths: int
    verify_grid: int
    max_rounds: int

    def rounds(self, workload, seconds: float) -> int:
        """Rounds a run times: enough for ``seconds`` of work at the
        workload's nominal ``round_s``, at least one and at most ``max_rounds``."""
        return min(max(math.ceil(seconds / workload.round_s), 1), self.max_rounds)

    @classmethod
    def of(cls, quick: bool) -> "Sizes":
        if quick:
            return cls(5, (1, 1, 1), 1, (3,), (1, 1, 1), (1, 1), 20_000, 256, 1)
        # Curve grids have 15 points: odd, so no grid time lands on the t=3
        # date of the 6-year bases.  Validate probes the first interval,
        # where chains are longest, three times and the second once, with 10^6
        # paths on the default 2048^2 grid.  Per-price costs differ by base
        # and interval by up to 1000x; the counts per base put the median
        # and the 95th percentile of the price latencies inside groups of
        # similar-cost prices rather than on a boundary between two groups,
        # so that they do not jump between groups from run to run.
        return cls(15, (4, 4, 2), 9, (3, 4, 5), (2, 2, 1), (3, 1), 1_000_000, 2048, 24)


@dataclass(frozen=True)
class Price:
    """One closed-form library price request."""

    key: int  # index of the problem (market, schedule, recovery, x) it prices
    scenario: scenario.Scenario
    t: float


@dataclass(frozen=True)
class Validate:
    """One ``defbond validate`` invocation."""

    argv: tuple[str, ...]
    times: tuple[float, ...]


def load_bases(root: Path) -> dict[str, scenario.Scenario]:
    return {name: scenario.load_scenario(root / "scenarios" / f"{name}.yaml") for name in BASES}


def _interior_time(rng: random.Random, lo: float, hi: float, upto: float = 0.9) -> float:
    """A time between 10% and ``upto`` of the way through (lo, hi): never on
    or next to a date."""
    gap = hi - lo
    return rng.uniform(lo + 0.1 * gap, lo + upto * gap)


def _probe_times(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """``count`` interior times of (lo, hi), one in each of ``count`` equal
    strata of its 10%-90% span.  A price's cost depends on where in its
    interval it is taken; stratified times keep a run's mix of positions,
    and so its latency percentiles, from hanging on a few uniform draws."""
    gap = 0.8 * (hi - lo) / count
    start = lo + 0.1 * (hi - lo)
    return [rng.uniform(start + k * gap, start + (k + 1) * gap) for k in range(count)]


def _perturb(base: scenario.Scenario, rng: random.Random) -> scenario.Scenario:
    """Seeded variant of a base scenario: x, s_V, R, K and lambda all move,
    within ranges that keep each base's barrier regime uniform.  The ranges
    are narrow because per-price work depends strongly on the parameters;
    wide ones made the latency percentiles of a run depend on the seed."""
    sweep = scenario.apply_sweep_value
    s = sweep(base, "x", base.evaluation.x * rng.uniform(0.95, 1.05))
    s = sweep(s, "s_V", base.market.s_V * rng.uniform(0.9, 1.1))
    s = sweep(s, "R", rng.uniform(0.45, 0.55))
    s = sweep(s, "K", tuple(k * rng.uniform(0.95, 1.05) for k in base.schedule.barriers))
    s = sweep(s, "lambda", tuple(v * rng.uniform(0.8, 1.25) for v in base.schedule.intensities))
    _require_uniform_regime(s)
    return s


def _require_uniform_regime(s: scenario.Scenario) -> None:
    if s.recovery.mode != "endogenous":
        return
    low = [k <= s.recovery.cap for k in s.schedule.barriers]
    if any(low) and not all(low):
        raise ValueError(f"generator produced a mixed barrier regime: {s}")


def price_of(s: scenario.Scenario, t: float) -> pricing.PriceReport:
    """Closed-form price the way the CLI computes it; the pricing functions
    are looked up at call time so that tracing can wrap them."""
    fn = pricing.price_endogenous if s.recovery.mode == "endogenous" else pricing.price_exogenous
    return fn(s.market, s.schedule, s.recovery, s.firm_value(t), t)


def price_bounds_ok(market, schedule, recovery, t: float, report: pricing.PriceReport) -> bool:
    """Finite and inside the no-arbitrage band: at most the default-free bond,
    at least the recovery floor (R times it for exogenous recovery, 0 for
    endogenous), each widened by the price's own error estimates."""
    df = math.exp(-market.r * (schedule.maturity - t))
    slack = 1e-12 + report.diagnostics["cdf_error"] + report.diagnostics["quadrature_error"]
    floor = recovery.R * df if recovery.mode == "exogenous" else 0.0
    return math.isfinite(report.price) and floor - slack <= report.price <= df + slack


def pde_prices(s: scenario.Scenario, times) -> list[float]:
    """PDE price at each of ``times``, from one cascade solve."""
    market, schedule, recovery = s.market, s.schedule, s.recovery
    x = s.evaluation.x
    grid = pde.GridSpec.auto(market, schedule, x, recovery, **CHECK_GRID)
    if recovery.mode == "exogenous":
        solution = pde.solve_exogenous_cascade(market, schedule, recovery, grid)
    else:
        solution = pde.solve_endogenous_cascade(market, schedule, recovery, grid)
    values = []
    for t in times:
        df = math.exp(-market.r * (schedule.maturity - t))
        values.append(df * pde.sample(solution, x, t))
    return values


class CurveWorkload:
    name = "curve"
    # Reference seconds of one round (calibration.py), measured; 15 s ask for 5 rounds.
    round_s = 3.3

    def __init__(self, bases, seed: int, sizes: Sizes):
        self.bases, self.seed, self.sizes = bases, seed, sizes
        self.problems: list[scenario.Scenario] = []

    def round(self, r: int) -> list[Price]:
        rng = random.Random(f"curve:{self.seed}:{r}")
        requests = []
        for name, variants in zip(BASES, self.sizes.curve_variants):
            base = self.bases[name]
            first = len(self.problems)
            self.problems.extend(_perturb(base, rng) for _ in range(variants))
            maturity = base.schedule.maturity
            points = self.sizes.curve_points
            for k in range(points):
                t = k * maturity / points
                requests.extend(Price(first + j, self.problems[first + j], t)
                                for j in range(variants))
        return requests

    @staticmethod
    def execute(req: Price) -> pricing.PriceReport:
        return price_of(req.scenario, req.t)


class MultidateWorkload:
    name = "multidate"
    # Reference seconds of one round, measured; 15 s ask for 1 round.
    round_s = 38.5

    def __init__(self, seed: int, sizes: Sizes):
        self.seed, self.sizes = seed, sizes
        self.problems: list[scenario.Scenario] = []

    def _problem(self, rng: random.Random, n: int, mode: str) -> scenario.Scenario:
        """A schedule around the 3-interval one of the test suite (market
        (0.08, 0.03, 0.8), barriers 90-120, x = 250), extended to n dates.
        In wider ranges some endogenous prices stop half their lattice calls
        early and cost half as much, which made a run's time depend on the
        seed."""
        dates = [0.0]
        for _ in range(n):
            dates.append(dates[-1] + rng.uniform(1.5, 2.5))
        market = pricing.MarketParams(
            r=rng.uniform(0.06, 0.09), b=rng.uniform(0.02, 0.04), s_V=rng.uniform(0.7, 0.9)
        )
        schedule = pricing.DefaultSchedule(
            tuple(dates),
            tuple(rng.uniform(0.005, 0.02) for _ in range(n)),
            tuple(rng.uniform(95.0, 120.0) for _ in range(n)),
        )
        if mode == "exogenous":
            recovery = pricing.RecoveryModel("exogenous", rng.uniform(0.3, 0.6))
        else:
            # n = 1 puts the cap n/R (1.7..2.5) under every barrier: the
            # uniform high-barrier regime.
            recovery = pricing.RecoveryModel("endogenous", rng.uniform(0.4, 0.6), n=1.0)
        evaluation = scenario.Evaluation(t=0.0, x=rng.uniform(230.0, 270.0))
        s = scenario.Scenario(market, schedule, recovery, evaluation)
        _require_uniform_regime(s)
        return s

    def round(self, r: int) -> list[Price]:
        rng = random.Random(f"multidate:{self.seed}:{r}")
        requests = []
        cycle = self.sizes.multidate_dates
        for k in range(self.sizes.multidate_problems):
            n = cycle[k % len(cycle)]
            for mode, longest_chain in (("exogenous", n), ("endogenous", ENDOGENOUS_MAX_CHAIN)):
                s = self._problem(rng, n, mode)
                key = len(self.problems)
                self.problems.append(s)
                dates = s.schedule.dates
                # last interval first: the cheapest request opens each round
                for i in reversed(range(max(n - longest_chain, 0), n)):
                    for _ in range(ENDOGENOUS_TWICE if mode == "endogenous" and n - i == 2 else 1):
                        # early in the interval: late times make some
                        # lattice calls stop early, as above
                        t = _interior_time(rng, dates[i], dates[i + 1], upto=0.6)
                        requests.append(Price(key, s, t))
        return requests

    @staticmethod
    def execute(req: Price) -> pricing.PriceReport:
        return price_of(req.scenario, req.t)


def _scenario_document(s: scenario.Scenario) -> dict:
    recovery = {"mode": s.recovery.mode, "R": s.recovery.R}
    if s.recovery.n is not None:
        recovery["n"] = s.recovery.n
    return {
        "market": {"r": s.market.r, "b": s.market.b, "s_V": s.market.s_V},
        "schedule": {
            "dates": list(s.schedule.dates),
            "intensities": list(s.schedule.intensities),
            "barriers": list(s.schedule.barriers),
        },
        "recovery": recovery,
        "evaluation": {"x": s.evaluation.x, "t": s.evaluation.t},
    }


class VerifyWorkload:
    """``defbond validate`` runs.  Every closed-form price the CLI computes is
    timed and kept by wrapping ``defbond.cli.price_*`` for the life of the
    workload, traced or not: the CLI offers no other boundary at which a
    single price can be timed.  It costs two clock reads per price against
    validations of about a second."""

    name = "verify"
    # Reference seconds of one round, measured; 15 s ask for 3 rounds.
    round_s = 6.2

    def __init__(self, bases, seed: int, sizes: Sizes, workdir: Path):
        self.bases, self.seed, self.sizes, self.workdir = bases, seed, sizes, workdir
        self.count = 0
        self.prices: list[tuple[float, tuple, pricing.PriceReport]] = []
        for name in ("price_endogenous", "price_exogenous"):
            setattr(cli, name, self._timed(getattr(cli, name)))

    def _timed(self, fn):
        prices = self.prices

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            report = fn(*args, **kwargs)
            prices.append((time.perf_counter() - start, args, report))
            return report

        return wrapper

    def round(self, r: int) -> list[Validate]:
        rng = random.Random(f"verify:{self.seed}:{r}")
        sizes = self.sizes
        requests = []
        bases = [name for name, count in zip(BASES, sizes.verify_validations)
                 for _ in range(count)]
        for name in bases:
            s = _perturb(self.bases[name], rng)
            dates = s.schedule.dates
            times = tuple(
                t for i, count in enumerate(sizes.verify_probes)
                for t in _probe_times(rng, dates[i], dates[i + 1], count)
            )
            path = self.workdir / f"verify-{self.count}.yaml"
            self.count += 1
            path.write_text(yaml.safe_dump(_scenario_document(s)), encoding="utf-8")
            argv = (
                "validate", str(path),
                "--times", *(repr(t) for t in times),
                "--paths", str(sizes.verify_paths),
                "--seed", str(rng.randrange(2**31)),
                "--n-space", str(sizes.verify_grid),
                "--n-time", str(sizes.verify_grid),
                "--pde-tol", repr(PDE_TOL),
                "--mc-sigmas", repr(MC_SIGMAS),
            )
            requests.append(Validate(argv, times))
        return requests

    def execute(self, req: Validate) -> "ValidateOutcome":
        first = len(self.prices)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(req.argv))
        return ValidateOutcome(code, out.getvalue(), self.prices[first:])


@dataclass(frozen=True)
class ValidateOutcome:
    exit_code: int
    output: str
    prices: list  # (latency_s, args, PriceReport) per closed-form price


def validate_rows(output: str) -> list[tuple[float, str]]:
    """(|closed - PDE|, status) of each probe row in ``defbond validate`` output."""
    rows = []
    for line in output.splitlines():
        fields = line.split()
        if len(fields) == 7 and fields[-1] in ("PASS", "FAIL"):
            rows.append((float(fields[3]), fields[-1]))
    return rows
