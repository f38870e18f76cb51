#!/usr/bin/env python3
"""Three-way validation of the closed forms on the bundled base scenarios.

Runs ``defbond validate`` on each scenario, which prints the closed-form
price next to the PDE-cascade and Monte Carlo values at every probe time.
Exits with the worst exit code of the runs (0 when all pass, 4 on an
accuracy failure).
"""

from __future__ import annotations

import argparse
from pathlib import Path

from defbond import cli

ROOT = Path(__file__).resolve().parent.parent

SCENARIOS = (
    "base_exogenous.yaml",
    "base_endogenous_low_barrier.yaml",
    "base_endogenous_high_barrier.yaml",
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-space", type=int, default=2048)
    parser.add_argument("--n-time", type=int, default=2048)
    parser.add_argument("--paths", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=20240311)
    parser.add_argument("--times", type=float, nargs="+", default=[0.0, 1.5, 3.0, 4.5])
    args = parser.parse_args()

    worst = cli.EXIT_OK
    for name in SCENARIOS:
        print(f"\n=== {name} ===", flush=True)
        code = cli.main([
            "validate", str(ROOT / "scenarios" / name),
            "--n-space", str(args.n_space),
            "--n-time", str(args.n_time),
            "--paths", str(args.paths),
            "--seed", str(args.seed),
            "--times", *(repr(t) for t in args.times),
        ])
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
