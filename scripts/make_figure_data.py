#!/usr/bin/env python3
"""Generate CSV data for all eighteen bundled parameter-study figures.

Each figure is one ``defbond curve --figure N`` run on the base scenario:
figures 1-9 tabulate the bond price, figures 10-18 the credit spread, over a
time grid on [0, maturity).  Output is one CSV per figure, byte-stable across
runs.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from defbond import cli
from defbond.figures import FIGURE_PRESETS

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scenario",
        default=str(ROOT / "scenarios" / "base_exogenous.yaml"),
        help="base scenario file (default: bundled exogenous base case)",
    )
    parser.add_argument("--out-dir", default="figure_data", help="output directory")
    parser.add_argument("--points", type=int, default=121, help="time grid points on [0, T)")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for fig in sorted(FIGURE_PRESETS):
        path = out_dir / f"fig{fig:02d}.csv"
        argv = ["curve", args.scenario, "--figure", str(fig), "--points", str(args.points),
                "--out", str(path)]
        code = cli.main(argv)
        if code != cli.EXIT_OK:
            return code
        print(f"wrote {path}")
    return cli.EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
