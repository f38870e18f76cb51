"""Every point of the paper's figures 1-9 against the PDE cascade, on each
bundled base.

Run from the repository root, with the package installed or on the path::

    PYTHONPATH=src python tests/figure_check.py

``figure_failures`` takes every point of figures 1-9 as ``defbond curve
--figure N --points P`` prints it and compares it with one 2048-node cascade
per series, on the grid ``validate`` builds: the hull of the ``auto`` grids
at the relative spot's two ends.  A point fails when the two differ by more
than ``GATE`` in price.  The script checks 121 points per series on all
three bases, prints each base's largest gap and exits 1 naming every failing
point; ``tests/test_pde.py`` runs the same check at 9 points.  Its name does
not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import sys
from pathlib import Path

import defbond as db
from defbond import cli
from defbond.figures import FIGURE_PRESETS
from defbond.pde import GridSpec, sample
from defbond.pricing import _discount, _relative_spot
from defbond.scenario import apply_sweep_value

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BASES = ["base_exogenous", "base_endogenous_low_barrier", "base_endogenous_high_barrier"]
GATE = 2e-7
POINTS = 121


def figure_failures(name: str, points: int) -> tuple[float, list[str]]:
    """The largest |curve - pde| over figures 1-9 of the bundled base
    ``name`` at ``points`` times per series, and a line for each point
    whose gap exceeds ``GATE``."""
    base = SCENARIOS / f"{name}.yaml"
    largest, failures = 0.0, []
    for figure in range(1, 10):
        preset = FIGURE_PRESETS[figure]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["curve", str(base), "--figure", str(figure), "--points", str(points)])
        if code != cli.EXIT_OK:
            failures.append(f"figure {figure}: curve exit code {code}")
            continue
        header, *rows = csv.reader(io.StringIO(out.getvalue()))
        scenario = db.load_scenario(base)
        for parameter, value in preset.base_overrides:
            scenario = apply_sweep_value(scenario, parameter, value)
        for column, value in enumerate(preset.values, start=1):
            s = apply_sweep_value(scenario, preset.parameter, value)
            market, schedule, rec = s.market, s.schedule, s.recovery

            def spot(t):
                df = _discount(market.r, schedule.maturity - t, "test")
                return df, _relative_spot(s.firm_value(t), df)

            ends = sorted(spot(t)[1] for t in (0.0, schedule.maturity))
            low, high = (GridSpec.auto(market, schedule, x, rec) for x in ends)
            solve = db.solve_exogenous_cascade if rec.mode == "exogenous" else db.solve_endogenous_cascade
            sol = solve(market, schedule, rec, GridSpec(low.x_min, high.x_max))
            for k, row in enumerate(rows):
                t = k * schedule.maturity / len(rows)  # the curve's time, unrounded
                df, x = spot(t)
                gap = abs(float(row[column]) - df * sample(sol, x, t))
                largest = max(largest, gap)
                if not gap <= GATE:
                    failures.append(f"figure {figure} {header[column]} t={t}: |curve - pde| = {gap:.3e}")
    return largest, failures


def main() -> int:
    failed = []
    for name in BASES:
        largest, failures = figure_failures(name, POINTS)
        print(f"{name}: figures 1-9 at {POINTS} points, largest |curve - pde| {largest:.3e}, "
              f"{len(failures)} over {GATE:.0e}", flush=True)
        failed += [f"{name} {line}" for line in failures]
    for line in failed:
        print(f"FAILED: {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
