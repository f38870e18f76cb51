import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from defbond import cli
from defbond.cli import main
from defbond.errors import ScenarioError
from defbond.figures import FIGURE_PRESETS
from defbond.scenario import apply_sweep_value, load_scenario, parse_scenario


# ------------------------------------------------------------------ parsing


def test_parse_valid_scenario(base_doc):
    scn = parse_scenario(base_doc)
    assert scn.market.r == 0.1
    assert scn.schedule.maturity == 6.0
    assert scn.recovery.mode == "exogenous"
    assert scn.evaluation.x == 200.0
    assert scn.sweep is None
    assert scn.firm_value() == pytest.approx(200.0 * math.exp(-0.6), abs=1e-12)
    assert scn.firm_value(3.0) == pytest.approx(200.0 * math.exp(-0.3), abs=1e-12)


def test_parse_firm_value_given_directly(base_doc):
    base_doc["evaluation"] = {"V": 110.0, "t": 0.0}
    scn = parse_scenario(base_doc)
    assert scn.firm_value() == 110.0
    assert scn.firm_value(4.0) == 110.0


@pytest.mark.parametrize(
    "mutate,code",
    [
        (lambda d: d.pop("market"), "MISSING_FIELD"),
        (lambda d: d["market"].pop("r"), "MISSING_FIELD"),
        (lambda d: d["market"].update(r="high"), "BAD_VALUE"),
        (lambda d: d["schedule"].update(dates=[0.0, 4.0, 2.0]), "SCHEDULE_ORDER"),
        (lambda d: d["schedule"].update(dates=[1.0, 4.0]), "SCHEDULE_ORDER"),
        (lambda d: d["schedule"].update(intensities=[0.002]), "SCHEDULE_LENGTH"),
        (lambda d: d["recovery"].update(R=1.5), "BAD_VALUE"),
        (lambda d: d["evaluation"].update(V=50.0), "BAD_VALUE"),  # both x and V
        (lambda d: d["evaluation"].update(t=7.0), "BAD_VALUE"),
        (lambda d: d["evaluation"].update(x=math.inf), "BAD_VALUE"),
        (lambda d: d["evaluation"].update(x=math.nan), "BAD_VALUE"),
        (lambda d: d.update(evaluation={"V": math.inf, "t": 0.0}), "BAD_VALUE"),
        (lambda d: d.update(sweep={"parameter": "x", "values": [math.inf]}), "BAD_SWEEP"),
        (lambda d: d.update(sweep={"parameter": "x", "values": [math.nan]}), "BAD_SWEEP"),
        (lambda d: d.update(sweep={"parameter": "sigma", "values": [1, 2]}), "BAD_SWEEP"),
        (lambda d: d.update(sweep={"parameter": "K", "values": [[50.0]]}), "BAD_SWEEP"),
        (lambda d: d.update(sweep={"parameter": "K9", "values": [50.0]}), "BAD_SWEEP"),
        (lambda d: d.update(sweep={"parameter": "R", "values": [[0.2, 0.3]]}), "BAD_SWEEP"),
        (lambda d: d.update(sweep={"parameter": "s_V", "values": [[0.2, 0.3]]}), "BAD_SWEEP"),
        (lambda d: d.update(sweep={"parameter": "x", "values": [[0.2, 0.3]]}), "BAD_SWEEP"),
        (lambda d: d.update(sweep={"parameter": "K1", "values": [[0.2, 0.3]]}), "BAD_SWEEP"),
        (lambda d: d.update(sweep={"parameter": "lambda0", "values": [[0.2, 0.3]]}), "BAD_SWEEP"),
        (lambda d: d["schedule"].update(dates=[]), "BAD_VALUE"),
        (lambda d: d.update(market=[0.1, 0.05, 1.0]), "BAD_VALUE"),
        (lambda d: d.update(schedule="0, 3, 6"), "BAD_VALUE"),
        (lambda d: d.update(recovery=0.5), "BAD_VALUE"),
        (lambda d: d.update(evaluation=None), "BAD_VALUE"),
        (lambda d: d["market"].update(s_V=0.0), "BAD_VALUE"),
        (lambda d: d["schedule"].update(dates=[0.0, 3.0, math.inf]), "BAD_VALUE"),
        (lambda d: d.update(sweep=["R", 0.2]), "BAD_SWEEP"),
        (lambda d: d.update(sweep={"parameter": "R", "values": []}), "BAD_SWEEP"),
    ],
)
def test_parse_errors_carry_codes(base_doc, mutate, code):
    mutate(base_doc)
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(base_doc)
    assert exc.value.code == code


def test_endogenous_scenario_needs_bond_count(base_doc):
    base_doc["recovery"] = {"mode": "endogenous", "R": 0.5}
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(base_doc)
    assert exc.value.code == "BAD_VALUE"
    base_doc["recovery"]["n"] = 1.0
    assert parse_scenario(base_doc).recovery.cap == 2.0


def test_sweep_application(base_doc):
    scn = parse_scenario(base_doc)
    assert apply_sweep_value(scn, "R", 0.9).recovery.R == 0.9
    assert apply_sweep_value(scn, "s_V", 0.5).market.s_V == 0.5
    assert apply_sweep_value(scn, "x", 300.0).evaluation.x == 300.0
    assert apply_sweep_value(scn, "K", (50.0, 150.0)).schedule.barriers == (50.0, 150.0)
    assert apply_sweep_value(scn, "K", 80.0).schedule.barriers == (80.0, 80.0)
    assert apply_sweep_value(scn, "K2", 70.0).schedule.barriers == (100.0, 70.0)
    assert apply_sweep_value(scn, "lambda", (0.01, 0.02)).schedule.intensities == (0.01, 0.02)
    assert apply_sweep_value(scn, "lambda0", 0.05).schedule.intensities == (0.05, 0.005)


def test_load_scenario_file(tmp_path, base_doc):
    path = tmp_path / "scn.yaml"
    path.write_text(yaml.safe_dump(base_doc), encoding="utf-8")
    scn = load_scenario(path)
    assert scn.evaluation.x == 200.0
    # a missing file, a YAML syntax error, an empty file and a document that
    # is no mapping
    (tmp_path / "broken.yaml").write_text("market: {r: 0.1\n", encoding="utf-8")
    (tmp_path / "empty.yaml").write_text("", encoding="utf-8")
    (tmp_path / "list.yaml").write_text("- 0.1\n", encoding="utf-8")
    for name in ("missing.yaml", "broken.yaml", "empty.yaml", "list.yaml"):
        with pytest.raises(ScenarioError) as exc:
            load_scenario(tmp_path / name)
        assert exc.value.code == "BAD_FILE", name


_SCENARIO_TEXT = """\
market: {{r: 0.1, b: {b}, s_V: 1.0}}
schedule: {{dates: [0.0, 3.0, 6.0], intensities: [0.002, 0.005], barriers: [100.0, 100.0]}}
recovery: {{mode: exogenous, R: 0.5}}
evaluation: {{V: {V}, t: 0.0}}
"""


@pytest.mark.parametrize("b, V", [
    ("0.05", "1e6"), ("0.05", "1E+6"), ("0.05", "1e308"), ("0.05", "1.0e308"), ("-2.5e-3", "100.0"),
])
def test_load_scenario_reads_yaml_12_floats(tmp_path, capsys, b, V):
    # the YAML 1.1 resolver reads 1e6, 1E+6 and 1e308 as strings (BAD_VALUE, exit 2)
    path = tmp_path / "scn.yaml"
    path.write_text(_SCENARIO_TEXT.format(b=b, V=V), encoding="utf-8")
    scn = load_scenario(path)
    assert (scn.market.b, scn.evaluation.V) == (float(b), float(V))
    assert main(["price", "--json", str(path)]) == 0
    assert math.isfinite(_strict_json(capsys.readouterr().out.strip())["price"])


@pytest.mark.parametrize("b, V", [
    ("0.05", ".inf"), ("0.05", ".nan"), ("0.05", "1e400"), (".nan", "100.0"), ("-.inf", "100.0"),
])
def test_cli_price_rejects_non_finite_numbers(tmp_path, capsys, b, V):
    path = tmp_path / "scn.yaml"
    path.write_text(_SCENARIO_TEXT.format(b=b, V=V), encoding="utf-8")
    assert main(["price", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error BAD_VALUE: "), err


# A discount factor past the float range (r = -200 over T = 6), or an
# x-scenario whose firm value x exp(-r T) at t = 0 is 0 or inf, fails at
# load, naming the field the user gave
@pytest.mark.parametrize(
    "command", [["price"], ["curve", "--figure", "1"], ["validate"]],
    ids=["price", "curve", "validate"],
)
@pytest.mark.parametrize("r, evaluation, field", [
    (-200.0, {"x": 200.0, "t": 0.0}, "market.r=-200.0: "),
    (-200.0, {"V": 100.0, "t": 0.0}, "market.r=-200.0: "),
    (0.2, {"x": 5e-324, "t": 0.0}, "evaluation.x=5e-324: "),
    (-0.2, {"x": 1e308, "t": 0.0}, "evaluation.x=1e+308: "),
], ids=["r-x", "r-V", "x-underflow", "x-overflow"])
def test_cli_rejects_discounts_floats_cannot_carry(
    tmp_path, base_doc, capsys, command, r, evaluation, field
):
    base_doc["market"]["r"] = r
    base_doc["evaluation"] = evaluation
    assert main([command[0], _write(tmp_path, base_doc), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error BAD_VALUE: " + field), err


def test_sweeps_reject_firm_values_floats_cannot_carry(tmp_path, base_doc, capsys):
    # the swept scenario, not only its swept part, is built as a sweep value,
    # so a firm value x exp(-r T) that underflows is BAD_SWEEP as .inf is
    base_doc["market"]["r"] = 0.2
    scn = parse_scenario(base_doc)
    with pytest.raises(ScenarioError, match="^BAD_SWEEP: x=5e-324: evaluation.x=5e-324: "):
        apply_sweep_value(scn, "x", 5e-324)
    for values in ([200.0, 5e-324], [math.inf]):
        base_doc["sweep"] = {"parameter": "x", "values": values}
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(base_doc)
        assert exc.value.code == "BAD_SWEEP"
        assert main(["curve", _write(tmp_path, base_doc), "--points", "3"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error BAD_SWEEP: "), err


def test_bundled_scenarios_parse():
    root = Path(__file__).resolve().parent.parent / "scenarios"
    for name in (
        "base_exogenous.yaml",
        "base_endogenous_high_barrier.yaml",
        "base_endogenous_low_barrier.yaml",
    ):
        scn = load_scenario(root / name)
        assert scn.schedule.maturity == 6.0


# ------------------------------------------------------------------ startup

_STARTUP_SCRIPT = """
import sys
from pathlib import Path

def loaded(*packages):
    return sorted(m for m in sys.modules if m.split(".")[0] in packages)

import defbond.cli
import defbond

loaded_scenarios = {p.stem: defbond.load_scenario(p) for p in sorted(Path(sys.argv[1]).glob("*.yaml"))}
assert len(loaded_scenarios) == 3, sorted(loaded_scenarios)
# the command line's price --json on the same two bases
import contextlib, io, json
for name in ("base_endogenous_low_barrier", "base_exogenous"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = defbond.cli.main(["price", str(Path(sys.argv[1]) / f"{name}.yaml"), "--json"])
    print(rc, type(json.loads(out.getvalue())["price"]).__name__)
for name in ("base_endogenous_low_barrier", "base_exogenous"):
    s = loaded_scenarios[name]
    price = defbond.price_endogenous if s.recovery.mode == "endogenous" else defbond.price_exogenous
    for t in (0.0, 1.3):
        price(s.market, s.schedule, s.recovery, s.firm_value(t), t)
print(loaded("numpy", "scipy"))
# its cancelling two-dimensional boxes take the conditional integral
s = loaded_scenarios["base_endogenous_high_barrier"]
print(repr(defbond.price_endogenous(s.market, s.schedule, s.recovery, s.firm_value(0.0), 0.0).price))
print("numpy" in sys.modules, loaded("scipy"))
# the PDE engine imports scipy inside the functions a cascade first runs
import defbond.pde
print(loaded("scipy"))
# a chain of three dates takes Phi of its arrays from scipy.special
market = defbond.MarketParams(r=0.08, b=0.03, s_V=0.8)
schedule = defbond.DefaultSchedule((0.0, 1.5, 3.5, 7.0), (0.01, 0.02, 0.004), (120.0, 90.0, 110.0))
recovery = defbond.RecoveryModel("endogenous", 0.5, n=1.0)
defbond.price_endogenous(market, schedule, recovery, 150.0, 0.0)
print("scipy.special" in sys.modules)
"""


def test_startup_and_scalar_prices_load_no_scipy():
    # import, scenario loading and the low-barrier and exogenous prices, by
    # the library and by ``defbond price --json``, need only scalar CDFs,
    # whose Phi is libm's erfc, and pure-Python Kronrod sums: a fresh
    # interpreter loads neither numpy nor scipy.  The
    # high-barrier base's conditional integrals then load numpy but not
    # scipy, and neither does importing the PDE engine; a 3-date chain loads
    # scipy.special
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", _STARTUP_SCRIPT, str(root / "scenarios")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "0 float", "0 float", "[]", "0.5358731781203808", "True []", "[]", "True"
    ]


def test_engine_names_resolve_on_first_use(tmp_path, base_doc, capsys, monkeypatch):
    # validate calls the PDE and Monte Carlo names bound on defbond.cli, so a
    # wrapper set there, as the benchmark tracer sets one, is the one called
    calls = []

    def wrap(name):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)

    for name in ("solve_exogenous_cascade", "sample", "simulate_prices"):
        wrap(name)
    rc = main(["validate", _write(tmp_path, base_doc), "--n-space", "256", "--n-time", "128",
               "--paths", "20000", "--pde-tol", "5e-2", "--mc-sigmas", "5"])
    capsys.readouterr()
    assert rc == 0
    assert calls == ["simulate_prices", "solve_exogenous_cascade", "sample"]
    from defbond import CascadeSolution, GridSpec, simulate_prices
    from defbond.montecarlo import simulate_prices as defined
    from defbond.pde import CascadeSolution as solution, GridSpec as grid

    assert (simulate_prices, GridSpec, CascadeSolution) == (defined, grid, solution)
    with pytest.raises(AttributeError):
        cli.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from defbond import no_such_name  # noqa: F401


# ------------------------------------------------------------------ presets


def test_figure_presets_complete():
    assert sorted(FIGURE_PRESETS) == list(range(1, 19))
    for fig, preset in FIGURE_PRESETS.items():
        assert preset.quantity == ("price" if fig <= 9 else "spread")
        assert len(preset.values) == 3
    # the two schedule entries of a crossing sweep move in opposite
    # directions from the first series to the last
    crossing = []
    for fig, preset in FIGURE_PRESETS.items():
        first, last = preset.values[0], preset.values[-1]
        if isinstance(first, tuple):
            if (last[0] - first[0]) * (last[1] - first[1]) < 0.0:
                crossing.append(fig)
    assert crossing == [5, 8, 14, 17]
    assert FIGURE_PRESETS[9].base_overrides == (("lambda0", 0.01),)


# ---------------------------------------------------------------------- CLI


def _write(tmp_path, doc, name="scn.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return str(path)


def test_cli_price_text(tmp_path, base_doc, capsys):
    rc = main(["price", _write(tmp_path, base_doc)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "price" in out and "survival_prob" in out and "credit_spread" in out


def test_cli_price_json_record(tmp_path, base_doc, capsys):
    rc = main(["price", "--json", _write(tmp_path, base_doc)])
    assert rc == 0
    record = json.loads(capsys.readouterr().out.strip())
    assert set(record) == {
        "price",
        "relative_price",
        "survival_prob",
        "credit_spread",
        "interval_index",
        "cdf_error",
        "quadrature_error",
    }
    assert record["price"] == pytest.approx(0.30396146, abs=1e-6)


def test_cli_price_full_recovery_matches_riskless(tmp_path, base_doc, capsys):
    base_doc["recovery"]["R"] = 1.0
    rc = main(["price", "--json", _write(tmp_path, base_doc)])
    assert rc == 0
    record = json.loads(capsys.readouterr().out.strip())
    assert record["price"] == pytest.approx(math.exp(-0.6), abs=1e-12)
    assert record["credit_spread"] == 0.0


def _strict_json(text):
    """RFC 8259 JSON: Infinity, -Infinity and NaN are not values."""

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_cli_price_json_zero_price_is_strict_json(tmp_path, base_doc, capsys):
    # nothing recovered and certain default at the one date: price 0, so the
    # credit spread is infinite and the record writes it as null
    base_doc["market"] = {"r": 0.05, "b": 0.02, "s_V": 0.3}
    base_doc["schedule"] = {"dates": [0.0, 1.0], "intensities": [0.01], "barriers": [1000.0]}
    base_doc["recovery"] = {"mode": "exogenous", "R": 0.0}
    base_doc["evaluation"] = {"x": 0.001, "t": 0.0}
    rc = main(["price", "--json", _write(tmp_path, base_doc)])
    assert rc == 0
    record = _strict_json(capsys.readouterr().out.strip())
    assert record["price"] == 0.0
    assert record["credit_spread"] is None


def test_cli_schedule_order_error(tmp_path, base_doc, capsys):
    base_doc["schedule"]["dates"] = [0.0, 4.0, 2.0]
    rc = main(["price", _write(tmp_path, base_doc)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "SCHEDULE_ORDER" in err


def test_cli_price_mixed_regime(tmp_path, base_doc, capsys):
    # one barrier under the cap n/R = 100, one above it
    base_doc["recovery"] = {"mode": "endogenous", "R": 0.5, "n": 50.0}
    base_doc["schedule"]["barriers"] = [60.0, 150.0]
    rc = main(["price", _write(tmp_path, base_doc), "--json"])
    assert rc == 0
    record = json.loads(capsys.readouterr().out.strip())
    assert 0.0 <= record["price"] <= math.exp(-0.6)


def test_cli_curve_preset_deterministic(tmp_path, base_doc):
    scn = _write(tmp_path, base_doc)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["curve", scn, "--figure", "1", "--points", "9", "--out", str(out1)]) == 0
    assert main(["curve", scn, "--figure", "1", "--points", "9", "--out", str(out2)]) == 0
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    assert b1.count(b"\r") == 0
    lines = b1.decode().strip().split("\n")
    assert lines[0] == "t,R=0.2,R=0.5,R=0.95"
    assert len(lines) == 10


@pytest.mark.parametrize("figure", [9, 18])
def test_cli_curve_preset_applies_its_base_override(tmp_path, base_doc, capsys, figure):
    # the file's lambda0 is 0.002; the preset prices every series at 0.01
    path = _write(tmp_path, base_doc)
    assert load_scenario(path).schedule.intensities[0] == 0.002
    assert main(["curve", path, "--figure", str(figure), "--points", "4"]) == 0
    preset = FIGURE_PRESETS[figure]
    scenario = apply_sweep_value(load_scenario(path), "lambda0", 0.01)
    header, rows = cli.curve_rows(scenario, preset.parameter, preset.values, preset.quantity, 4)
    assert capsys.readouterr().out == "".join(",".join(row) + "\n" for row in [header, *rows])


def test_cli_curve_custom_sweep(tmp_path, base_doc, capsys):
    base_doc["sweep"] = {"parameter": "K", "values": [[50.0, 150.0], [150.0, 50.0]]}
    rc = main(["curve", _write(tmp_path, base_doc), "--points", "5", "--quantity", "spread"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,K=50/150,K=150/50"
    assert len(lines) == 6


def test_cli_curve_single_value_sweep(tmp_path, base_doc, capsys):
    base_doc["sweep"] = {"parameter": "R", "values": [0.5]}
    rc = main(["curve", _write(tmp_path, base_doc), "--points", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,R=0.5"
    assert len(lines) == 5


def test_cli_curve_requires_sweep_or_figure(tmp_path, base_doc, capsys):
    rc = main(["curve", _write(tmp_path, base_doc)])
    assert rc == 2
    assert "BAD_SWEEP" in capsys.readouterr().err


def test_cli_curve_unknown_figure(tmp_path, base_doc, capsys):
    # "custom" is not a preset: omitting --figure prices the file's sweep
    base_doc["sweep"] = {"parameter": "R", "values": [0.2, 0.8]}
    path = _write(tmp_path, base_doc)
    for figure in ("99", "nope", "custom"):
        rc = main(["curve", path, "--figure", figure])
        assert rc == 2
        assert "BAD_SWEEP" in capsys.readouterr().err


def test_cli_curve_rejects_bad_points(tmp_path, base_doc, capsys):
    base_doc["sweep"] = {"parameter": "R", "values": [0.5]}
    rc = main(["curve", _write(tmp_path, base_doc), "--points", "1"])
    assert rc == 2


def test_cli_curve_unwritable_out_is_bad_file(tmp_path, base_doc, capsys, monkeypatch):
    # a missing directory, a file where the directory should be, and a
    # directory as the target are all rejected before anything is priced
    def no_price(*args, **kwargs):
        raise AssertionError("the sweep was priced before --out was checked")

    monkeypatch.setattr(cli, "_price_report", no_price)
    scenario = _write(tmp_path, base_doc)
    (tmp_path / "plain").write_text("")
    # a name too long for the file system, refused by stat itself
    long_name = tmp_path / ("a" * 300)
    for out in (tmp_path / "missing" / "x.csv", tmp_path / "plain" / "x.csv", tmp_path, long_name):
        rc = main(["curve", scenario, "--figure", "1", "--points", "2", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2, out
        assert err.startswith("error BAD_FILE: ")
        assert err.count("\n") == 1
    assert not (tmp_path / "missing").exists()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["plain", "scn.yaml"]
    # a usable target is opened only after the sweep: one that fails leaves no file
    with pytest.raises(AssertionError):
        main(["curve", scenario, "--figure", "1", "--points", "2", "--out", str(tmp_path / "x.csv")])
    assert not (tmp_path / "x.csv").exists()


def test_cli_curve_out_that_fails_to_open_is_bad_file(tmp_path, base_doc, capsys, monkeypatch):
    # a target that passes the check but cannot be opened after the sweep,
    # here because a directory took its name meanwhile, is reported as
    # BAD_FILE with no traceback
    target = tmp_path / "x.csv"

    def sweep(*args, **kwargs):
        target.mkdir()
        return ["t"], [["0"]]

    monkeypatch.setattr(cli, "curve_rows", sweep)
    scenario = _write(tmp_path, base_doc)
    rc = main(["curve", scenario, "--figure", "1", "--points", "2", "--out", str(target)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error BAD_FILE: cannot write {target}: ")
    assert err.count("\n") == 1
    assert target.is_dir() and not list(target.iterdir())


def test_cli_validate_rejects_bad_times(tmp_path, base_doc, capsys):
    rc = main(["validate", _write(tmp_path, base_doc), "--times", "7.0"])
    assert rc == 2
    assert "BAD_VALUE" in capsys.readouterr().err


def _forbid_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the PDE solve ran before the arguments were checked")

    monkeypatch.setattr(cli, "solve_exogenous_cascade", no_solve)


def test_cli_validate_rejects_bad_paths_before_solving(tmp_path, base_doc, capsys, monkeypatch):
    _forbid_solve(monkeypatch)
    rc = main(["validate", _write(tmp_path, base_doc), "--paths", "3"])
    assert rc == 2
    assert "error BAD_VALUE" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option,value",
    [("--pde-tol", "-1"), ("--pde-tol", "0"), ("--pde-tol", "nan"),
     ("--mc-sigmas", "0"), ("--mc-sigmas", "inf")],
)
def test_cli_validate_rejects_bad_tolerances(
    tmp_path, base_doc, capsys, monkeypatch, option, value
):
    _forbid_solve(monkeypatch)
    rc = main(["validate", _write(tmp_path, base_doc), option, value])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error BAD_VALUE" in err and option in err
    assert err.count("BAD_VALUE") == 1


def test_sweep_index_out_of_range_codes(base_doc):
    scn = parse_scenario(base_doc)
    with pytest.raises(ScenarioError) as exc:
        apply_sweep_value(scn, "lambda5", 0.1)
    assert exc.value.code == "BAD_SWEEP"
    with pytest.raises(ScenarioError):
        apply_sweep_value(scn, "sigma", 0.1)


def test_cli_validate_pass(tmp_path, base_doc, capsys):
    rc = main(
        [
            "validate",
            _write(tmp_path, base_doc),
            "--n-space", "512",
            "--n-time", "256",
            "--paths", "100000",
            "--pde-tol", "5e-3",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "VALIDATION PASS" in out


def test_cli_validate_no_default_channels(tmp_path, base_doc, capsys):
    # every engine reproduces the default-free bond when no channel is live
    base_doc["schedule"]["intensities"] = [0.0, 0.0]
    base_doc["schedule"]["barriers"] = [1e-9, 1e-9]
    rc = main(
        [
            "validate",
            _write(tmp_path, base_doc),
            "--n-space", "128",
            "--n-time", "32",
            "--paths", "2000",
            "--pde-tol", "1e-9",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "VALIDATION PASS" in out
    df = f"{math.exp(-0.6):14.9f}".strip()
    assert out.count(df) >= 3  # closed, pde and mc columns all print it


def test_cli_validate_multiple_times(tmp_path, base_doc, capsys):
    rc = main(
        [
            "validate",
            _write(tmp_path, base_doc),
            "--n-space", "512",
            "--n-time", "256",
            "--paths", "50000",
            "--pde-tol", "5e-3",
            "--times", "0", "1.5", "4.5",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") >= 4  # three probe rows plus the final verdict
    assert out.count("survival") == 3


def test_cli_validate_rows_print_each_probe_time_in_full(tmp_path, base_doc, capsys):
    # one ulp under the date 3 and the date itself lie in different
    # intervals; each row prints its probe time as repr does, as the first
    # of its 7 fields
    rc = main(["validate", _write(tmp_path, base_doc), "--n-space", "128", "--paths", "2000",
               "--times", "2.9999999999999996", "3", "2.00005"])
    out = capsys.readouterr().out
    assert rc == 0, out
    rows = [f for f in map(str.split, out.splitlines()) if len(f) == 7 and f[-1] in ("PASS", "FAIL")]
    assert [row[0] for row in rows] == ["2.9999999999999996", "3.0", "2.00005"]


def test_cli_validate_probe_rows_do_not_depend_on_the_other_probes(capsys):
    # every probe reads the same draws of each block, keyed by seed, block
    # and date: the probes in either order, each alone, and those of the
    # second interval (3 and 4.5) without the first's, which draws no
    # normals for the first date, print the same rows
    path = str(Path(__file__).resolve().parent.parent / "scenarios"
               / "base_endogenous_low_barrier.yaml")

    def rows(*times):
        rc = main(["validate", path, "--paths", "20000", "--n-space", "256",
                   "--seed", "20240311", "--times", *times])
        out = capsys.readouterr().out
        assert rc == 0, out
        return {line for line in out.splitlines() if line.lstrip()[:1].isdigit()}

    shared = rows("0", "1.5", "3", "4.5")
    assert len(shared) == 4
    assert rows("4.5", "3", "1.5", "0") == shared
    by_time = {row.split()[0]: row for row in shared}
    for t in ("0.0", "1.5", "3.0", "4.5"):
        assert rows(t) == {by_time[t]}
    assert rows("3", "4.5") == {by_time["3.0"], by_time["4.5"]}


def test_cli_validate_accuracy_failure(tmp_path, base_doc, capsys):
    rc = main(
        [
            "validate",
            _write(tmp_path, base_doc),
            "--n-space", "256",
            "--n-time", "64",
            "--paths", "20000",
            "--pde-tol", "1e-9",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 4
    assert "VALIDATION FAIL" in out


# Late in the last interval all 20000 paths survive: the standard error is 0,
# yet the price sits 1.5e-8 under that common payoff through defaults rarer
# than one path in 20000.
ZERO_VARIANCE_DOC = {
    "market": {"r": 0.1, "b": 0.05, "s_V": 1.0},
    "schedule": {
        "dates": [0.0, 3.0, 6.0],
        "intensities": [0.0017212188939175431, 0.004306917045167598],
        "barriers": [98.6016346933757, 101.02428932978886],
    },
    "recovery": {"mode": "endogenous", "R": 0.5490856277966402, "n": 1.0},
    "evaluation": {"x": 203.16974296227946, "t": 0.0},
}
ZERO_VARIANCE_ARGS = ["--times", "5.389053997511458", "--paths", "20000",
                      "--n-space", "256", "--n-time", "256"]


def test_cli_validate_passes_when_every_path_pays_the_same(tmp_path, capsys):
    rc = main(["validate", _write(tmp_path, ZERO_VARIANCE_DOC), *ZERO_VARIANCE_ARGS])
    out = capsys.readouterr().out
    assert rc == 0
    assert "VALIDATION PASS" in out


def test_cli_validate_zero_variance_row_reports_infinite_sigma(tmp_path, capsys):
    # closed form and MC differ over a zero standard error: the sigma column
    # reads inf, as one token, so the row keeps its 7 fields
    main(["validate", _write(tmp_path, ZERO_VARIANCE_DOC), *ZERO_VARIANCE_ARGS])
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.split()[:1] == [ZERO_VARIANCE_ARGS[1]])
    fields = row.split()
    assert len(fields) == 7
    assert float(fields[1]) != float(fields[4])
    assert fields[5] == "inf"


# Firm values at the ends of the float range: V / df overflows at V = 1e308
# (r = 0.1) and underflows to 0 at V = 5e-324 (r = -0.5).  The closed form
# clamps the relative spot to the positive floats; the grid's bounds and the
# PDE's spots take the same clamp, so every engine prices the flat far field.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "r, V, recovery",
    [
        (0.1, 1e308, {"mode": "endogenous", "R": 0.5, "n": 1.0}),
        (-0.5, 5e-324, {"mode": "exogenous", "R": 0.5}),
    ],
)
def test_cli_validate_prices_extreme_firm_values(tmp_path, base_doc, capsys, r, V, recovery):
    base_doc["market"]["r"] = r
    base_doc["recovery"] = recovery
    base_doc["evaluation"] = {"V": V, "t": 0.0}
    rc = main(["validate", _write(tmp_path, base_doc), "--paths", "20000", "--seed", "1",
               "--mc-sigmas", "4.5", "--times", "0", "1.5", "3", "4.5"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert out.count("PASS") == 5


# A V-scenario whose relative spot V / df(t) falls from e^50 at t = 0 to
# 1.105 at t = 49.9, where every path has defaulted and the price is R df:
# the grid holds the spot path from t = 0 to T, so it holds every probe's
# and does not change with the probes asked
def test_cli_validate_grid_holds_every_probe(tmp_path, capsys):
    path = _write(tmp_path, {
        "market": {"r": 1.0, "b": 0.0, "s_V": 0.05},
        "schedule": {"dates": [0.0, 25.0, 50.0], "intensities": [0.01, 0.01],
                     "barriers": [100.0, 100.0]},
        "recovery": {"mode": "exogenous", "R": 0.4},
        "evaluation": {"V": 1.0, "t": 0.0},
    })

    def run(*times):
        rc = main(["validate", path, "--paths", "20000", "--seed", "1", "--times", *times])
        out = capsys.readouterr().out
        assert rc == 0, out
        return out.splitlines()

    three = run("0", "45", "49.9")
    row = next(line for line in three if line.split()[:1] == ["49.9"]).split()
    assert row[1] == row[2] == row[4] == "0.361934967"
    two = run("0", "45")
    assert two[:-2] == three[: len(two) - 2]


# The low-barrier base with the spot on the barrier, 0.1 before the date:
# at s_V = 0.01 the barrier's jump spreads over less than a cell by t = 2.9,
# which a PDE that smears the glued jump over a cell misses by 2.7e-3 there
@pytest.mark.parametrize("s_v", [0.01, 0.02])
def test_cli_validate_passes_at_low_volatility_on_the_barrier(tmp_path, capsys, s_v):
    doc = yaml.safe_load((Path(__file__).resolve().parent.parent / "scenarios"
                          / "base_endogenous_low_barrier.yaml").read_text())
    doc["market"]["s_V"] = s_v
    doc["evaluation"]["x"] = 100.0
    rc = main(["validate", _write(tmp_path, doc), "--times", "0", "2.9",
               "--paths", "200000", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0, out
    row = next(line for line in out.splitlines() if line.split()[:1] == ["2.9"])
    assert float(row.split()[3]) <= 2e-5, row
