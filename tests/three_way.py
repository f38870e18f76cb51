"""Three-way validation (closed form, PDE, Monte Carlo) of every scenario the
CI checks, in one process.

Run from the repository root, with the package installed or on the path::

    PYTHONPATH=src python tests/three_way.py

Each row runs ``defbond validate`` or ``defbond price --json`` through
``defbond.cli.main`` with every RuntimeWarning raised as an error, and prints
what the command prints.  A row fails on a nonzero exit code or an exception;
a ``price --json`` record must also parse as strict JSON (RFC 8259: no
Infinity or NaN).  A failure does not stop the rows after it: the script
exits 1 and names every failing row.  Its name does not match
``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

import yaml

from defbond import cli

BUNDLED = Path(__file__).resolve().parent.parent / "scenarios"

# Endogenous recovery with the cap n/R = 100 between barriers 90 and 110/120.
ENDOGENOUS_MIXED = {
    "market": {"r": 0.08, "b": 0.03, "s_V": 0.8},
    "schedule": {
        "dates": [0.0, 1.5, 3.5, 7.0],
        "intensities": [0.01, 0.02, 0.004],
        "barriers": [120.0, 90.0, 110.0],
    },
    "recovery": {"mode": "endogenous", "R": 0.5, "n": 50.0},
    "evaluation": {"x": 250.0, "t": 0.0},
}

ULP_SCHEDULE = {
    "dates": [0.0, 1.5, 3.0, math.nextafter(3.0, 4.0), 7.0],
    "intensities": [0.01, 0.02, 0.3, 0.004],
    "barriers": [120.0, 90.0, 100.0, 110.0],
}

# Each derived scenario is a shared document (a bundled base by name, or the
# one above) and its field changes: "section.field" sets one field,
# "section" replaces the whole section.
DERIVED = {
    # a firm value whose relative value V / df overflows still prices
    "huge_firm": ("base_exogenous", {
        "recovery": {"mode": "endogenous", "R": 0.5, "n": 1.0},
        "evaluation": {"V": 1e308, "t": 0.0},
    }),
    # a subnormal firm value whose relative value V / df underflows at r < 0
    "tiny_firm": ("base_exogenous", {
        "market.r": -0.5,
        "evaluation": {"V": 5e-324, "t": 0.0},
    }),
    # six intervals, barriers on both sides of the cap n/R = 100: the closed
    # form runs chains of four or more dates
    "six_dates": (ENDOGENOUS_MIXED, {
        "schedule": {
            "dates": [0.0, 1.0, 2.5, 3.5, 5.0, 6.0, 7.0],
            "intensities": [0.01, 0.02, 0.004, 0.01, 0.015, 0.005],
            "barriers": [120.0, 90.0, 110.0, 95.0, 130.0, 100.0],
        },
        "evaluation": {"V": 1e6, "t": 0.0},
    }),
    # six intervals one ulp before the 2.6 date, spot under the cap and the
    # previous barrier 70 below it: the order-2 integrals on [2.6, 3.2]
    # start inside their boundary layer
    "near_date": (ENDOGENOUS_MIXED, {
        "schedule": {
            "dates": [0.0, 0.9, 2.6, 3.2, 5.0, 6.9, 8.4],
            "intensities": [0.007, 0.025, 0.033, 0.013, 0.016, 0.034],
            "barriers": [125.0, 70.0, 120.0, 155.0, 127.5, 82.5],
        },
        "evaluation": {"x": 91.0, "t": 2.5999999999999996},
    }),
    # five intervals, one of them 1e-4 (endogenous, barriers on both sides
    # of the cap) or 1e-6 (exogenous) long; the closed form takes the
    # interpolated narrow kernels at the first two probes
    "near_dates_endogenous": (ENDOGENOUS_MIXED, {
        "schedule": {
            "dates": [0.0, 1.0, 2.0, 2.0001, 3.5, 5.0],
            "intensities": [0.01, 0.02, 0.5, 0.02, 0.004],
            "barriers": [120.0, 90.0, 110.0, 95.0, 100.0],
        },
    }),
    "near_dates_exogenous": ("base_exogenous", {
        "schedule": {
            "dates": [0.0, 1.5, 3.0, 3.000001, 4.5, 6.0],
            "intensities": [0.002, 0.004, 0.3, 0.005, 0.003],
            "barriers": [80.0, 100.0, 130.0, 100.0, 90.0],
        },
    }),
    # an interval one float long, from 3 to nextafter(3, 4): the closed form
    # prices its two dates as a pair of correlation 1 - 1.1e-16
    "ulp_dates_endogenous": (ENDOGENOUS_MIXED, {"schedule": ULP_SCHEDULE}),
    "ulp_dates_exogenous": (ENDOGENOUS_MIXED, {
        "schedule": ULP_SCHEDULE,
        "recovery": {"mode": "exogenous", "R": 0.5},
    }),
    # R = 0: the closed form is the survival binary alone
    "zero_recovery": (ENDOGENOUS_MIXED, {"recovery": {"mode": "endogenous", "R": 0.0, "n": 1.0}}),
    "mixed_regime": (ENDOGENOUS_MIXED, {}),
    # the exogenous base at low volatility, where the barrier's jump stays
    # under a few cells wide for most of each interval
    **{f"low_vol_{v}": ("base_exogenous", {"market.s_V": v}) for v in (0.01, 0.02, 0.18, 0.2)},
    # b + lam = 0 exactly in the first interval, where the small-spot edge's
    # growth rate vanishes
    "zero_growth": ("base_endogenous_low_barrier", {"market.b": -0.002}),
    # the recovery is paid under the asset measure, in which ln x drifts up,
    # so the grid's lower edge must sit that far under the barrier
    "high_vol": ("base_endogenous_low_barrier", {"market.s_V": 3.0}),
    # a firm value whose relative value V / df(t) falls from e^50 at t = 0
    # to 1.105 at t = 49.9: the grid holds the spot of every probe
    "far_probes": ("base_exogenous", {
        "market": {"r": 1.0, "b": 0.0, "s_V": 0.05},
        "schedule": {"dates": [0.0, 25.0, 50.0], "intensities": [0.01, 0.01],
                     "barriers": [100.0, 100.0]},
        "recovery.R": 0.4,
        "evaluation": {"V": 1.0, "t": 0.0},
    }),
}

BASES = ["base_endogenous_high_barrier", "base_endogenous_low_barrier", "base_exogenous"]
NEAR_DATE_PROBES = {
    "near_dates_endogenous": "--times 0 0.7 1.9999999999999998 2.00005 3 4",
    "near_dates_exogenous": "--times 0 1 2.9999999999999996 3.0000005 4 5",
}

# (command, scenario, arguments after the scenario file)
ROWS = [
    # every bundled base and the extreme and long schedules price to strict JSON
    *[("price", name, "--json")
      for name in BASES + ["huge_firm", "tiny_firm", "six_dates", "near_date"]],
    # validate clamps the relative spot as the closed form does, so the PDE
    # grid and Monte Carlo take both extreme firm values too
    *[("validate", name, "--paths 200000 --seed 1 --mc-sigmas 4.5")
      for name in ("huge_firm", "tiny_firm")],
    # 2048-node PDE, 10^6 paths, 4 probes
    *[("validate", name, "--paths 1000000 --seed 20240311 --times 0 1.5 3 4.5") for name in BASES],
    # near-coincident dates, also one ulp before the short interval and inside it
    *[("validate", name, f"{times} --paths 1000000 --seed 1 --mc-sigmas 4.5")
      for name, times in NEAR_DATE_PROBES.items()],
    # the PDE gate at 1e-6 on the finest grid, one ulp before the interior
    # date and on it
    *[("validate", name, "--n-space 16384 --paths 200000 --seed 5 --mc-sigmas 4.5 --pde-tol 1e-6 "
       "--times 0 1.5 2.9999999999999996 3 4.5") for name in BASES],
    *[("validate", name, f"--n-space 16384 --paths 200000 --seed 5 --mc-sigmas 4.5 --pde-tol 1e-6 "
       f"{times}") for name, times in NEAR_DATE_PROBES.items()],
    # dates one float apart, also one ulp before the first of them
    *[("validate", name, "--times 0 1.4 2.9999999999999996 3.5 --paths 200000 --seed 1 --mc-sigmas 4.5")
      for name in ("ulp_dates_endogenous", "ulp_dates_exogenous")],
    ("validate", "zero_recovery", "--times 0 0.7 2 4 --paths 1000000 --seed 1 --mc-sigmas 4.5"),
    # the mixed regime also one ulp before each of its first two dates
    ("validate", "mixed_regime", "--times 0 0.7 1.4999999999999998 2 3.4999999999999996 4 "
     "--paths 1000000 --seed 1 --mc-sigmas 4.5"),
    *[("validate", name, "--times 0 1.5 3 4.5 --paths 1000000 --seed 1 --mc-sigmas 4.5")
      for name in ("low_vol_0.01", "low_vol_0.02", "low_vol_0.18", "low_vol_0.2",
                   "zero_growth", "high_vol")],
    ("validate", "far_probes", "--times 0 45 49.9 --paths 1000000 --seed 1 --mc-sigmas 4.5"),
]


def derive(base, changes: dict) -> dict:
    """``base``, a bundled file's name or a document, with ``changes`` made."""
    if isinstance(base, str):
        base = yaml.safe_load((BUNDLED / f"{base}.yaml").read_text(encoding="utf-8"))
    doc = copy.deepcopy(base)
    for key, value in changes.items():
        section, _, field = key.partition(".")
        if field:
            doc[section][field] = value
        else:
            doc[section] = value
    return doc


def _strict_json(text: str) -> dict:
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


def run_row(command: str, path: str, args: str) -> bool:
    out = io.StringIO()
    error = None
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main([command, path, *args.split()])
        if code != cli.EXIT_OK:
            error = f"exit code {code}"
        elif command == "price":
            _strict_json(out.getvalue())
    except (Exception, SystemExit):  # argparse exits on a bad argument
        error = traceback.format_exc()
    print(out.getvalue(), end="")
    if error is not None:
        print(error)
    return error is None


def main() -> int:
    warnings.simplefilter("error", RuntimeWarning)
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: str(BUNDLED / f"{name}.yaml") for name in BASES}
        for name, (base, changes) in DERIVED.items():
            paths[name] = str(Path(tmp) / f"{name}.yaml")
            Path(paths[name]).write_text(json.dumps(derive(base, changes)), encoding="utf-8")
        for command, scenario, args in ROWS:
            row = f"defbond {command} {scenario} {args}"
            print(f"=== {row}", flush=True)
            if not run_row(command, paths[scenario], args):
                failed.append(row)
            sys.stdout.flush()
    n_validate = sum(command == "validate" for command, _, _ in ROWS)
    print(f"{len(ROWS)} rows ({n_validate} validate, {len(ROWS) - n_validate} price --json), "
          f"{len(failed)} failed")
    for row in failed:
        print(f"FAILED: {row}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
