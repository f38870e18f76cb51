"""Declarative scenario files for the command-line front-end.

A scenario is a single YAML document holding the market parameters, the
default schedule, the recovery model, the evaluation point and an optional
parameter sweep.  Validation failures raise :class:`ScenarioError` with a
stable short code so scripts can branch on CLI output.

Schema::

    market:     {r: 0.1, b: 0.05, s_V: 1.0}
    schedule:   {dates: [0, 3, 6], intensities: [0.002, 0.005], barriers: [100, 100]}
    recovery:   {mode: exogenous, R: 0.5}        # endogenous adds n: <count>
    evaluation: {x: 200, t: 0.0}                 # or V: <firm value>
    sweep:      {parameter: R, values: [0.2, 0.5, 0.95]}   # optional

Sweepable parameters: ``R``, ``s_V``, ``x``, ``K`` (scalar broadcast or one
value per barrier), ``K<i>`` (1-based barrier index), ``lambda`` (scalar or
one per interval), ``lambda<i>`` (0-based interval index).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

import yaml

from .errors import DefbondError, DomainError, ScenarioError
from .pricing import DefaultSchedule, MarketParams, RecoveryModel, _discount

__all__ = [
    "Evaluation",
    "Sweep",
    "Scenario",
    "SWEEP_PARAMETERS",
    "load_scenario",
    "parse_scenario",
    "apply_sweep_value",
]

SWEEP_PARAMETERS = ("R", "s_V", "x", "K", "K<i>", "lambda", "lambda<i>")

# matched with fullmatch: "$" would also match before a final newline
_SWEEP_RE = re.compile(r"R|s_V|x|K(\d+)?|lambda(\d+)?")


@dataclass(frozen=True)
class Evaluation:
    t: float
    x: float | None = None
    V: float | None = None

    def __post_init__(self):
        # runs on load and on every sweep of x, so both reject the same spots
        for name, spot in (("x", self.x), ("V", self.V)):
            if spot is not None and not (math.isfinite(spot) and spot > 0.0):
                raise DomainError(f"evaluation.{name} must be positive and finite, got {spot}")


@dataclass(frozen=True)
class Sweep:
    parameter: str
    values: tuple


@dataclass(frozen=True)
class Scenario:
    market: MarketParams
    schedule: DefaultSchedule
    recovery: RecoveryModel
    evaluation: Evaluation
    sweep: Sweep | None = None

    def __post_init__(self):
        # runs on load and on every sweep: exp(-r T) stays under the largest
        # float, and an x-scenario's firm value x exp(-r (T - t)), which lies
        # between its values at t = 0 and t = T, stays a positive float
        _discount(self.market.r, self.schedule.maturity, f"market.r={self.market.r}")
        V = self.firm_value(0.0)
        if not 0.0 < V < math.inf:
            raise DomainError(
                f"evaluation.x={self.evaluation.x}: the firm value x exp(-r T) at t = 0 is {V}"
            )

    def firm_value(self, t: float | None = None) -> float:
        """Firm value at the evaluation (or supplied) time; a scenario given
        in relative terms x holds x fixed and rescales V with the horizon."""
        when = self.evaluation.t if t is None else t
        if self.evaluation.V is not None:
            return self.evaluation.V
        assert self.evaluation.x is not None
        return self.evaluation.x * _discount(self.market.r, self.schedule.maturity - when, "firm_value")


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ScenarioError("MISSING_FIELD", f"{where}.{key} is required")
    return mapping[key]


def _mapping(doc: dict, key: str) -> dict:
    section = _require(doc, key, "scenario")
    if not isinstance(section, dict):
        raise ScenarioError("BAD_VALUE", f"{key} must be a mapping")
    return section


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError("BAD_VALUE", f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer past the largest float
        raise ScenarioError("BAD_VALUE", f"{where} lies past the float range") from None


def _number_list(value, where: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ScenarioError("BAD_VALUE", f"{where} must be a non-empty list")
    return tuple(_number(v, where) for v in value)


def _build(code: str, make, *args, context: str = "", **fields):
    """``make(*args, **fields)``, with a model error re-raised as a
    ScenarioError ``code`` whose message follows ``context``."""
    try:
        return make(*args, **fields)
    except DefbondError as exc:
        raise ScenarioError(code, context + str(exc)) from exc


def parse_scenario(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("BAD_FILE", "scenario document must be a mapping")

    m = _mapping(doc, "market")
    rates = {key: _number(_require(m, key, "market"), f"market.{key}") for key in ("r", "b", "s_V")}
    market = _build("BAD_VALUE", MarketParams, **rates)

    s = _mapping(doc, "schedule")
    dates = _number_list(_require(s, "dates", "schedule"), "schedule.dates")
    intensities = _number_list(_require(s, "intensities", "schedule"), "schedule.intensities")
    barriers = _number_list(_require(s, "barriers", "schedule"), "schedule.barriers")
    if len(dates) < 2 or dates[0] != 0.0 or any(b <= a for a, b in zip(dates, dates[1:])):
        raise ScenarioError(
            "SCHEDULE_ORDER",
            f"schedule.dates must start at 0 and be strictly increasing, got {list(dates)}",
        )
    if len(intensities) != len(dates) - 1 or len(barriers) != len(dates) - 1:
        raise ScenarioError(
            "SCHEDULE_LENGTH",
            "intensities and barriers must each have one entry per interval "
            f"({len(dates) - 1}), got {len(intensities)} and {len(barriers)}",
        )
    schedule = _build("BAD_VALUE", DefaultSchedule, dates, intensities, barriers)

    r = _mapping(doc, "recovery")
    mode = _require(r, "mode", "recovery")
    kwargs = {"mode": mode, "R": _number(_require(r, "R", "recovery"), "recovery.R")}
    if "n" in r:
        kwargs["n"] = _number(r["n"], "recovery.n")
    recovery = _build("BAD_VALUE", RecoveryModel, **kwargs)

    e = _mapping(doc, "evaluation")
    t = _number(_require(e, "t", "evaluation"), "evaluation.t")
    has_x = "x" in e
    has_v = "V" in e
    if has_x == has_v:
        raise ScenarioError("BAD_VALUE", "evaluation needs exactly one of x or V")
    x = _number(e["x"], "evaluation.x") if has_x else None
    V = _number(e["V"], "evaluation.V") if has_v else None
    if not (0.0 <= t < schedule.maturity):
        raise ScenarioError(
            "BAD_VALUE", f"evaluation.t={t} outside [0, maturity={schedule.maturity})"
        )
    evaluation = _build("BAD_VALUE", Evaluation, t=t, x=x, V=V)

    sweep = None
    if doc.get("sweep") is not None:
        w = doc["sweep"]
        if not isinstance(w, dict):
            raise ScenarioError("BAD_SWEEP", "sweep must be a mapping")
        parameter = _require(w, "parameter", "sweep")
        if not isinstance(parameter, str) or not _SWEEP_RE.fullmatch(parameter):
            raise ScenarioError(
                "BAD_SWEEP",
                f"sweep.parameter {parameter!r} not in the published set {SWEEP_PARAMETERS}",
            )
        values = _require(w, "values", "sweep")
        if not isinstance(values, list) or not values:
            raise ScenarioError("BAD_SWEEP", "sweep.values must be a non-empty list")
        parsed = tuple(
            _number_list(v, "sweep.values[]") if isinstance(v, (list, tuple)) else _number(v, "sweep.values[]")
            for v in values
        )
        sweep = Sweep(parameter=parameter, values=parsed)
        # dry-run so malformed sweeps fail at load time
        scenario = Scenario(market, schedule, recovery, evaluation, sweep)
        for v in parsed:
            apply_sweep_value(scenario, parameter, v)
        return scenario

    return Scenario(market, schedule, recovery, evaluation, sweep)


class _Loader(yaml.SafeLoader):
    """PyYAML's safe loader, which resolves YAML 1.1 scalars, also reading
    YAML 1.2 floats: 1.1 takes ``1e6``, ``1E+6`` and ``1.0e308`` (no point,
    or no exponent sign) for strings."""


# after the 1.1 int and float patterns, so every scalar either already
# reads keeps its type; only exponent forms they miss become floats here
_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
    list("-+.0123456789"),
)


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.load(fh, Loader=_Loader)
    except OSError as exc:
        raise ScenarioError("BAD_FILE", f"cannot read {path}: {exc}") from exc
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ScenarioError("BAD_FILE", f"cannot parse {path}: {exc}") from exc
    except ValueError as exc:  # a scalar PyYAML's constructors refuse, no YAMLError
        raise ScenarioError("BAD_VALUE", f"cannot read a value in {path}: {exc}") from exc
    if doc is None:
        raise ScenarioError("BAD_FILE", f"{path} is empty")
    return parse_scenario(doc)


def apply_sweep_value(scenario: Scenario, parameter: str, value) -> Scenario:
    """New scenario with one swept parameter replaced."""
    match = _SWEEP_RE.fullmatch(parameter)
    if not match:
        raise ScenarioError("BAD_SWEEP", f"unknown sweep parameter {parameter!r}")
    schedule = scenario.schedule
    n = schedule.n_intervals

    def as_vector(template: tuple[float, ...]) -> tuple[float, ...]:
        if isinstance(value, tuple):
            if len(value) != len(template):
                raise ScenarioError(
                    "BAD_SWEEP", f"{parameter} sweep value needs {len(template)} entries"
                )
            return value
        return (float(value),) * len(template)

    def scalar() -> float:
        if isinstance(value, tuple):
            raise ScenarioError("BAD_SWEEP", f"{parameter} sweep value must be a number")
        return float(value)

    if parameter == "R":
        part, fields = "recovery", {"R": scalar()}
    elif parameter == "s_V":
        part, fields = "market", {"s_V": scalar()}
    elif parameter == "x":
        part, fields = "evaluation", {"x": scalar(), "V": None}
    elif parameter == "K":
        part, fields = "schedule", {"barriers": as_vector(schedule.barriers)}
    elif parameter == "lambda":
        part, fields = "schedule", {"intensities": as_vector(schedule.intensities)}
    elif parameter.startswith("K"):
        idx = int(match.group(1)) - 1
        if not 0 <= idx < n:
            raise ScenarioError("BAD_SWEEP", f"{parameter}: barrier index out of range 1..{n}")
        barriers = list(schedule.barriers)
        barriers[idx] = scalar()
        part, fields = "schedule", {"barriers": tuple(barriers)}
    else:
        idx = int(match.group(2))
        if not 0 <= idx < n:
            raise ScenarioError("BAD_SWEEP", f"{parameter}: interval index out of range 0..{n - 1}")
        intensities = list(schedule.intensities)
        intensities[idx] = scalar()
        part, fields = "schedule", {"intensities": tuple(intensities)}
    # the swept part and the scenario around it both check the value
    return _build("BAD_SWEEP", lambda: replace(scenario, **{part: replace(getattr(scenario, part), **fields)}),
                  context=f"{parameter}={value!r}: ")
