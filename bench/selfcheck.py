"""Checks of the benchmark harness itself, on reduced inputs.

    python3 bench/selfcheck.py

1. ``BENCHMARK.json`` has the documented shape and limits.
2. Every workload in ``--quick`` mode, untraced and traced, exits 0 with a
   result line carrying exactly the metrics ``BENCHMARK.json`` names and
   marked correct (curve and multidate also with no failed operation); the
   traced prices match the untraced ones.
3. The traced ``curve`` workload makes no 3-variate CDF calls.
4. Traced pricing of the 3-date endogenous case at t = 0 (n = 1) counts 32
   d=3, 33 d=2 and 33 d=1 CDF calls and reproduces the untraced price bit for
   bit.
5. In a directory holding only ``BENCHMARK.json`` and ``bench/``, ``run.py``
   exits non-zero without a result line.

Exits 0 when every check passes.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def check_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
           "BENCHMARK.json has exactly the documented keys")
    expect(2 <= len(spec["workloads"]) <= 8 and all(
        set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        for w in spec["workloads"]), "workloads: 2..8, each a name and a one-line why")
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [x["name"] for x in spec["workloads"]] + [m["name"] for m in metrics]
    expect(len(names) == len(set(names)) and all(NAME.match(n) for n in names),
           "names are unique and well formed")
    expect(all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics),
           "units and directions are well formed")
    expect(all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in spec["end_to_end"]), "end-to-end metrics carry bounds <= 0.25")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(bool(setup) and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s is present with the largest bound")
    expect(all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"]),
           "per-layer metrics carry no bound")
    return spec


def run_bench(cwd: Path, workload: str, trace: int, quick: bool = True):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "2", "--trace", str(trace)] + (["--quick"] if quick else [])
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_workloads(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{label} exits 0")
            if proc.returncode != 0:
                print(proc.stderr[-3000:])
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            values = {k: v["value"] for k, v in result["metrics"].items()}
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label} prints the result keys")
            expect(set(values) == {m["name"] for m in spec[key]}, f"{label} reports every {key} metric")
            expect(all(isinstance(v, float) and math.isfinite(v) for v in values.values()),
                   f"{label} metric values are finite floats")
            expect(result["correct"] and result["attempted"] >= 1, f"{label} is correct")
            if workload != "verify":  # validate false alarms count as failures there
                expect(result["failed"] == 0, f"{label} has no failed operations")
            if trace:
                expect(values["trace.price_mismatches"] == 0.0, f"{label} prices match untraced")
            if trace and workload == "curve":
                expect(values["normal.calls.d3plus"] == 0.0, f"{label} makes no d>=3 CDF calls")
            if not trace:
                expect(all(v > 0 for v in values.values()), f"{label} end-to-end values are > 0")


def check_three_date_counts() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import defbond.pricing as pricing
    from tracing import Tracer

    market = pricing.MarketParams(r=0.08, b=0.03, s_V=0.8)
    schedule = pricing.DefaultSchedule((0.0, 1.5, 3.5, 7.0), (0.01, 0.02, 0.004),
                                       (120.0, 90.0, 110.0))
    recovery = pricing.RecoveryModel("endogenous", 0.5, n=1.0)
    V = 250.0 * math.exp(-market.r * 7.0)
    plain = pricing.price_endogenous(market, schedule, recovery, V, 0.0).price
    tracer = Tracer()
    tracer.install()
    try:
        traced = pricing.price_endogenous(market, schedule, recovery, V, 0.0).price
    finally:
        tracer.remove()
    calls = {k: tracer.counts[f"normal.calls.{k}"] for k in ("d1", "d2", "d3plus")}
    expect(calls == {"d1": 33, "d2": 33, "d3plus": 32},
           f"3-date endogenous t=0 CDF calls by dimension: {calls}")
    expect(plain == traced, f"3-date traced price is bit-identical ({plain!r} vs {traced!r})")


def check_bare_directory() -> None:
    bare = Path(tempfile.mkdtemp(prefix=".bench-bare-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "curve", 0, quick=False)
        printed = [line for line in proc.stdout.splitlines() if line.startswith("{")]
        expect(proc.returncode != 0 and not printed,
               "without src/ the benchmark exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = check_spec()
    check_bare_directory()
    check_three_date_counts()
    check_workloads(spec)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
