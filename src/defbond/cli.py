"""Command-line front-end.

Subcommands: ``price`` a scenario file, ``curve`` a time sweep (optionally a
bundled figure preset) to CSV, and ``validate`` the closed form against the
PDE and Monte Carlo engines.

Exit codes: 0 ok, 2 validation error, 4 accuracy failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from pathlib import Path

from . import _ENGINES
from .errors import DefbondError, ScenarioError
from .figures import FIGURE_PRESETS
from .pricing import PriceReport, _discount, _relative_spot, price_endogenous, price_exogenous
from .scenario import Scenario, apply_sweep_value, load_scenario

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ACCURACY = 4


# The PDE and Monte Carlo engines load numpy and only ``validate`` runs them:
# their names are bound here on first use (PEP 562), and ``cmd_validate``
# calls whatever this module has bound, a wrapper set on it included.
def __getattr__(name):
    if name not in _ENGINES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _price_report(scenario: Scenario, t: float | None = None) -> PriceReport:
    when = scenario.evaluation.t if t is None else t
    firm = scenario.firm_value(when)
    if scenario.recovery.mode == "exogenous":
        return price_exogenous(scenario.market, scenario.schedule, scenario.recovery, firm, when)
    return price_endogenous(scenario.market, scenario.schedule, scenario.recovery, firm, when)


def _record(report: PriceReport) -> dict:
    """The ``price --json`` record; a non-finite value (the infinite spread of
    a zero price) is ``null``, since JSON has no Infinity or NaN."""
    record = {
        "price": report.price,
        "relative_price": report.relative_price,
        "survival_prob": report.survival_prob,
        "credit_spread": report.credit_spread,
        "interval_index": report.interval_index,
        "cdf_error": report.diagnostics["cdf_error"],
        "quadrature_error": report.diagnostics["quadrature_error"],
    }
    return {
        k: None if isinstance(v, float) and not math.isfinite(v) else v
        for k, v in record.items()
    }


def cmd_price(args) -> int:
    scenario = load_scenario(args.scenario)
    report = _price_report(scenario)
    if args.json:
        print(json.dumps(_record(report), sort_keys=True, allow_nan=False))
        return EXIT_OK
    print(f"interval_index    {report.interval_index}")
    print(f"price             {_fmt(report.price)}")
    print(f"relative_price    {_fmt(report.relative_price)}")
    if report.survival_prob is not None:
        print(f"survival_prob     {_fmt(report.survival_prob)}")
    print(f"credit_spread     {_fmt(report.credit_spread)}")
    print(f"cdf_error         {report.diagnostics['cdf_error']:.3e}")
    print(f"quadrature_error  {report.diagnostics['quadrature_error']:.3e}")
    return EXIT_OK


def _series_label(parameter: str, value) -> str:
    if isinstance(value, tuple):
        return f"{parameter}=" + "/".join(_fmt(v) for v in value)
    return f"{parameter}={_fmt(value)}"


def curve_rows(scenario: Scenario, parameter: str, values, quantity: str, points: int):
    """Header plus one row per grid time on [0, maturity)."""
    maturity = scenario.schedule.maturity
    ts = [k * maturity / points for k in range(points)]
    header = ["t"] + [_series_label(parameter, v) for v in values]
    variants = [apply_sweep_value(scenario, parameter, v) for v in values]
    rows = []
    for t in ts:
        row = [_fmt(t)]
        for variant in variants:
            report = _price_report(variant, t)
            value = report.price if quantity == "price" else report.credit_spread
            row.append(_fmt(value))
        rows.append(row)
    return header, rows


def cmd_curve(args) -> int:
    scenario = load_scenario(args.scenario)
    figure = args.figure
    if figure is not None:
        try:
            figure = int(figure)
        except ValueError:
            raise ScenarioError("BAD_SWEEP", f"--figure takes 1..18, got {args.figure!r}") from None
        if figure not in FIGURE_PRESETS:
            raise ScenarioError("BAD_SWEEP", f"no figure preset {figure}; valid: 1..18")
        preset = FIGURE_PRESETS[figure]
        for parameter, value in preset.base_overrides:
            scenario = apply_sweep_value(scenario, parameter, value)
        parameter, values, quantity = preset.parameter, preset.values, preset.quantity
    else:
        if scenario.sweep is None:
            raise ScenarioError("BAD_SWEEP", "curve needs --figure or a sweep in the scenario")
        parameter, values = scenario.sweep.parameter, scenario.sweep.values
        quantity = args.quantity
    if args.points < 2:
        raise ScenarioError("BAD_VALUE", "--points must be >= 2")
    # check --out before the sweep but open it after, so a failed sweep leaves no file
    if args.out != "-":
        target = Path(args.out)
        try:
            usable = not target.is_dir() and target.parent.is_dir()
        except OSError as exc:  # a name the file system refuses, such as one too long
            raise ScenarioError("BAD_FILE", f"cannot write {args.out}: {exc}") from exc
        if not usable:
            raise ScenarioError("BAD_FILE", f"cannot write {args.out}: not a file in an existing directory")

    header, rows = curve_rows(scenario, parameter, values, quantity, args.points)
    if args.out == "-":
        out = contextlib.nullcontext(sys.stdout)
    else:
        try:
            out = open(args.out, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise ScenarioError("BAD_FILE", f"cannot write {args.out}: {exc}") from exc
    with out as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return EXIT_OK


def cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    market, schedule, recovery = scenario.market, scenario.schedule, scenario.recovery
    times = args.times if args.times else [scenario.evaluation.t]
    if any(not 0.0 <= t < schedule.maturity for t in times):
        raise ScenarioError("BAD_VALUE", f"--times must lie in [0, {schedule.maturity})")
    for name, value in (("--pde-tol", args.pde_tol), ("--mc-sigmas", args.mc_sigmas)):
        if not (math.isfinite(value) and value > 0.0):
            raise ScenarioError("BAD_VALUE", f"{name} must be positive and finite, got {value}")
    # every argument is checked before the engines run, the slow part
    engines = sys.modules[__name__]  # the engines load here, through __getattr__
    sim = engines.SimConfig(n_paths=args.paths, seed=args.seed)
    # the relative spot, clamped as the closed form clamps it, is monotone in
    # t: the hull of the grids at its ends holds the spot of every probe
    low, high = (
        engines.GridSpec.auto(market, schedule, x, recovery, args.n_space, args.n_time)
        for x in sorted(
            _relative_spot(scenario.firm_value(t), _discount(market.r, schedule.maturity - t, "validate"))
            for t in (0.0, schedule.maturity)
        )
    )
    grid = engines.GridSpec(low.x_min, high.x_max, args.n_space, args.n_time)
    firms = [scenario.firm_value(t) for t in times]  # x-scenarios rescale V, V-scenarios hold it
    # one call: every probe reads the same draws of each block; made before
    # the solve, its scratch never sits beside the cascade's kept rows, which
    # keeps the peak memory down
    mcs = engines.simulate_prices(market, schedule, recovery, list(zip(firms, times)), sim)
    if recovery.mode == "exogenous":
        solve = engines.solve_exogenous_cascade
    else:
        solve = engines.solve_endogenous_cascade
    solution = solve(market, schedule, recovery, grid)

    all_ok = True
    print(f"{'t':>18} {'closed':>14} {'pde':>14} {'|diff|':>10} "
          f"{'mc':>14} {'sigma':>6}  status")
    for t, firm, mc in zip(times, firms, mcs):
        df = _discount(market.r, schedule.maturity - t, "validate")
        report = _price_report(scenario, t)
        closed = report.price
        pde_price = df * engines.sample(solution, _relative_spot(firm, df), t)

        pde_ok = abs(closed - pde_price) <= args.pde_tol
        # When every path pays the same the standard error is 0, yet the
        # estimate can still miss an event rarer than one path in n_paths;
        # one path's largest share of the price, df / n_paths, is the
        # resolution of the estimator.
        mc_tol = max(args.mc_sigmas * mc.std_error, df / mc.n_paths)
        mc_ok = abs(closed - mc.price_estimate) <= mc_tol
        gap = abs(closed - mc.price_estimate)
        if mc.std_error > 0:
            sigma_dist = gap / mc.std_error
        else:  # a gap over a zero standard error is infinitely many sigmas
            sigma_dist = math.inf if gap > 0 else 0.0
        ok = pde_ok and mc_ok
        all_ok = all_ok and ok
        print(
            f"{t!r:>18} {closed:14.9f} {pde_price:14.9f} {abs(closed - pde_price):10.3e} "
            f"{mc.price_estimate:14.9f} {sigma_dist:6.2f}  {'PASS' if ok else 'FAIL'}"
        )
        if report.survival_prob is not None:
            w_se = math.sqrt(
                max(report.survival_prob * (1 - report.survival_prob), 1e-300) / mc.n_paths
            )
            w_sig = abs(mc.survival_freq - report.survival_prob) / w_se
            print(
                f"{'':18} survival {report.survival_prob:14.9f} vs mc "
                f"{mc.survival_freq:14.9f} ({w_sig:.2f} sigma)"
            )
    print(f"pde tol {args.pde_tol:.1e}, mc tol {args.mc_sigmas:.1f} sigma")
    if all_ok:
        print("VALIDATION PASS")
        return EXIT_OK
    print("VALIDATION FAIL")
    return EXIT_ACCURACY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defbond",
        description="Defaultable zero-coupon bond pricing with discrete default information",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_price = sub.add_parser("price", help="price one scenario")
    p_price.add_argument("scenario", help="scenario YAML file")
    p_price.add_argument("--json", action="store_true", help="emit a JSON record instead of text")
    p_price.set_defaults(func=cmd_price)

    p_curve = sub.add_parser("curve", help="sweep a parameter over a time grid, emit CSV")
    p_curve.add_argument("scenario")
    p_curve.add_argument(
        "--figure", help="bundled figure preset 1..18; without it the file's sweep is used"
    )
    p_curve.add_argument("--points", type=int, default=121, help="time grid points on [0, T)")
    p_curve.add_argument(
        "--quantity", choices=("price", "spread"), default="price",
        help="series quantity for the file's sweep",
    )
    p_curve.add_argument("--out", default="-", help="output CSV path ('-' for stdout)")
    p_curve.set_defaults(func=cmd_curve)

    p_val = sub.add_parser("validate", help="closed form vs PDE vs Monte Carlo")
    p_val.add_argument("scenario")
    p_val.add_argument("--n-space", type=int, default=2048)
    p_val.add_argument(
        "--n-time", type=int, default=2048,
        help="unread: every PDE interval is exact in time; accepted (>= 16) until the "
        "benchmark stops passing it",
    )
    p_val.add_argument("--paths", type=int, default=200_000)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--pde-tol", type=float, default=1e-3)
    p_val.add_argument("--mc-sigmas", type=float, default=3.0)
    p_val.add_argument(
        "--times", type=float, nargs="+",
        help="probe times (default: the scenario's evaluation time)",
    )
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error {exc}", file=sys.stderr)  # str(exc) starts with the code
        return EXIT_VALIDATION
    except DefbondError as exc:
        print(f"error BAD_VALUE: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
