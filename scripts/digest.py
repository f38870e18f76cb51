#!/usr/bin/env python3
"""Digests of the engines' floats over fixed inputs, one sha256 per layer.

    python scripts/digest.py                  # print each layer's digest
    python scripts/digest.py --json FILE      # and write every value to FILE
    python scripts/digest.py --against FILE   # and compare with FILE's values

Two checkouts that print the same digests compute the same floats, bit for
bit.  Where they differ, ``--json`` on one and ``--against`` on the other
give each layer's largest absolute, relative and ulp move.  It runs the
checkout's own ``src/``, so it can be copied into an older one.

Layers:

- ``pde``: ``sample`` on the three bundled bases at 256, 2048 and 16384
  nodes (``GridSpec.auto`` at the base's spot), at fixed spots and at fixed
  times that include the interior date, one ulp before it and maturity;
  then the benchmark's ``pde_prices`` of every ``curve`` and ``multidate``
  problem of round 0 at seed 3, at the times that round prices them; then
  cascades whose intervals carry several jump terms: the near-date schedule
  (dates 3 and 3.000001) and seeded 16- and 32-date schedules at s_V
  0.05-0.1 with barriers log-uniform on 10-316, in both recovery modes, each
  sampled at seeded spots and times in every interval.
- ``closed``: the price, ``cdf_error`` and ``quadrature_error`` of every
  ``PriceReport`` of ``curve`` rounds 0-1 and ``multidate`` round 0 at seed
  3, the closed-form requests the benchmark times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import struct
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from defbond import load_scenario, pde, pricing  # noqa: E402

BASES = ("base_endogenous_low_barrier", "base_endogenous_high_barrier", "base_exogenous")
NODES = (256, 2048, 16384)
SPOTS = (60.0, 80.0, 150.0, 200.0, 400.0, 1500.0)
SEED = 3


def _base_samples() -> list[float]:
    values = []
    for name in BASES:
        s = load_scenario(ROOT / "scenarios" / f"{name}.yaml")
        market, schedule, rec = s.market, s.schedule, s.recovery
        date, maturity = schedule.dates[1], schedule.maturity
        times = (0.0, 1.3, math.nextafter(date, 0.0), date, 4.5, math.nextafter(maturity, 0.0),
                 maturity)
        solve = pde.solve_exogenous_cascade if rec.mode == "exogenous" else pde.solve_endogenous_cascade
        for n in NODES:
            sol = solve(market, schedule, rec, pde.GridSpec.auto(market, schedule, s.evaluation.x, rec, n))
            values.extend(pde.sample(sol, x, t) for x in SPOTS for t in times)
    return values


def _benchmark_prices() -> list[float]:
    import workloads as wl

    sizes = wl.Sizes.of(quick=False)
    values = []
    for workload in (wl.CurveWorkload(wl.load_bases(ROOT), SEED, sizes),
                     wl.MultidateWorkload(SEED, sizes)):
        times = defaultdict(list)
        for req in workload.round(0):
            times[req.key].append(req.t)
        for key, ts in times.items():
            values.extend(wl.pde_prices(workload.problems[key], ts))
    return values


def _schedule(rng: random.Random, n: int) -> pricing.DefaultSchedule:
    dates = [0.0]
    for _ in range(n):
        dates.append(dates[-1] + rng.uniform(0.02, 0.2))
    return pricing.DefaultSchedule(
        tuple(dates),
        tuple(rng.uniform(0.005, 0.05) for _ in range(n)),
        tuple(10.0 ** rng.uniform(1.0, 2.5) for _ in range(n)),
    )


def _many_term_samples() -> list[float]:
    rng = random.Random(f"digest:terms:{SEED}")
    near = pricing.DefaultSchedule(
        (0.0, 1.5, 3.0, 3.000001, 4.5, 6.0),
        (0.002, 0.004, 0.3, 0.005, 0.003),
        (80.0, 100.0, 130.0, 100.0, 90.0),
    )
    cases = [(pricing.MarketParams(0.1, 0.05, 1.0), near, pricing.RecoveryModel("exogenous", 0.5))]
    for n in (16, 32):
        for recovery in (pricing.RecoveryModel("exogenous", 0.4),
                         pricing.RecoveryModel("endogenous", 0.5, n=50.0)):
            market = pricing.MarketParams(0.05, rng.uniform(-0.02, 0.03), rng.uniform(0.05, 0.1))
            cases.append((market, _schedule(rng, n), recovery))
    values = []
    for market, schedule, recovery in cases:
        x = 10.0 ** rng.uniform(1.5, 2.5)
        solve = (pde.solve_exogenous_cascade if recovery.mode == "exogenous"
                 else pde.solve_endogenous_cascade)
        sol = solve(market, schedule, recovery, pde.GridSpec.auto(market, schedule, x, recovery, 1024))
        spots = [x, *(10.0 ** rng.uniform(1.0, 2.5) for _ in range(3))]
        for lo, hi in zip(schedule.dates, schedule.dates[1:]):
            times = (lo, rng.uniform(lo, hi), math.nextafter(hi, lo))
            values.extend(pde.sample(sol, s, t) for s in spots for t in times)
    return values


def _closed_form_reports() -> list[float]:
    import workloads as wl

    sizes = wl.Sizes.of(quick=False)
    curve = wl.CurveWorkload(wl.load_bases(ROOT), SEED, sizes)
    requests = curve.round(0) + curve.round(1) + wl.MultidateWorkload(SEED, sizes).round(0)
    values = []
    for req in requests:
        report = wl.price_of(req.scenario, req.t)
        values += [report.price, report.diagnostics["cdf_error"], report.diagnostics["quadrature_error"]]
    return values


def layers() -> dict[str, list[float]]:
    return {
        "pde": _base_samples() + _benchmark_prices() + _many_term_samples(),
        "closed": _closed_form_reports(),
    }


def _digest(values: list[float]) -> str:
    return hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()


def _ordered(v: float) -> int:
    """v's bits as an integer that counts ulps across zero."""
    bits = struct.unpack("<q", struct.pack("<d", v))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _moves(now: list[float], then: list[float]) -> str:
    if len(now) != len(then):
        return f"{len(now)} values against {len(then)}"
    pairs = [(a, b) for a, b in zip(now, then) if _ordered(a) != _ordered(b)]
    if not pairs:
        return "all equal"
    absolute = max(abs(a - b) for a, b in pairs)
    relative = max(abs(a - b) / abs(b) if b else math.inf for a, b in pairs)
    ulps = max(abs(_ordered(a) - _ordered(b)) for a, b in pairs)
    return (f"{len(pairs)} of {len(now)} differ; largest move {absolute:.3g} absolute, "
            f"{relative:.3g} relative, {ulps} ulp")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="FILE", help="write every value to FILE")
    parser.add_argument("--against", metavar="FILE", help="compare with values written by --json")
    args = parser.parse_args()
    then = json.loads(Path(args.against).read_text(encoding="utf-8")) if args.against else None
    found = layers()
    for name, values in found.items():
        line = f"{name} {_digest(values)} {len(values)} values"
        if then is not None:
            line += "; " + (_moves(values, then[name]) if name in then else "not in " + args.against)
        print(line)
    if args.json:
        Path(args.json).write_text(json.dumps(found) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
