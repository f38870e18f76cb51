"""Benchmark entry point.

    python3 bench/run.py --workload curve|multidate|verify --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Pinned to one CPU, it times set-up in
several fresh interpreters, runs the workload in one more fresh process with
the BLAS and OpenMP pools pinned to one thread, times the calibration kernel
of ``calibration.py`` whenever that process asks, and prints information
lines followed by one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``
and its per-layer metrics with ``--trace 1``.  ``--quick`` shrinks the inputs for
the harness's own checks (``bench/selfcheck.py``).

Exits non-zero, without a result line, when the checkout has no ``src/``
package, when the workload process fails or overruns, or when its metrics do
not match ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

THREAD_POOLS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# The calibration kernel runs here and must be single-threaded as well.
os.environ.update({name: "1" for name in THREAD_POOLS})

import calibration  # noqa: E402  (after the thread pools are pinned)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Fresh interpreters timed for setup_s; the reported value is their median.
SETUP_RUNS = 3
# Whole-run deadline, inside the 180 s a run may take.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)  # carries the pinned thread pools
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list[str], env: dict, deadline: float) -> str:
    """Run a child to completion (killed and reaped at the deadline)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("deadline passed before " + " ".join(argv[1:2]))
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[1]} overran the {DEADLINE_S:.0f} s deadline") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{argv[1]} exited with {proc.returncode}")
    return proc.stdout


def run_worker(argv: list[str], env: dict, deadline: float) -> list[str]:
    """Run the workload process, timing the calibration kernel whenever it
    asks (it waits, idle, for the answer); returns its other output lines.
    The process is killed and reaped at the deadline."""
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    lines = []
    try:
        for line in proc.stdout:
            if line.startswith("#calibrate"):
                proc.stdin.write(f"{calibration.kernel()!r}\n")
                proc.stdin.flush()
            else:
                lines.append(line.rstrip("\n"))
    except OSError as exc:  # the worker died while being answered
        proc.kill()
        raise BenchError(f"worker pipe failed: {exc}") from exc
    finally:
        watchdog.cancel()
        proc.stdin.close()
        proc.wait()
    if time.monotonic() >= deadline:
        raise BenchError(f"worker overran the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return lines


def measure_setup(env: dict, deadline: float) -> dict:
    """Median wall time of a fresh interpreter importing the package and
    loading the bundled scenarios, calibrated, plus the median internal
    timings.  One untimed run first writes the bytecode cache, as any
    installed copy has."""
    argv = [sys.executable, str(BENCH / "setup_probe.py"), str(ROOT / "scenarios")]
    run_child(argv, env, deadline)
    walls, inner, kernel_s = [], [], []
    for _ in range(SETUP_RUNS):
        kernel_s.append(calibration.kernel())
        start = time.perf_counter()
        out = run_child(argv, env, deadline)
        walls.append(time.perf_counter() - start)
        inner.append(json.loads(out.splitlines()[-1]))
    kernel_s.append(calibration.kernel())
    slowdown = calibration.slowdown(kernel_s)
    print(f"# setup raw_median_s={statistics.median(walls)!r} slowdown={slowdown!r}")
    return {
        "setup_s": statistics.median(walls) / slowdown,
        "cli.import_s": statistics.median(r["import_s"] for r in inner),
        "scenario.load_s": statistics.median(r["load_s"] for r in inner),
    }


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    # One CPU for this process and every child: the calibration kernel must
    # run on the core whose speed it stands for.  Children inherit it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "defbond" / "__init__.py").is_file():
        raise BenchError(f"no package source at {ROOT / 'src' / 'defbond'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    env = child_env()
    setup = measure_setup(env, deadline)
    workdir = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", workdir]
    if args.quick:
        argv.append("--quick")
    try:
        lines = run_worker(argv, env, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    values = result["metrics"]
    if args.trace:
        values["cli.import_s"] = setup["cli.import_s"]
        values["scenario.load_s"] = setup["scenario.load_s"]
    else:
        values["setup_s"] = setup["setup_s"]
    if set(values) != set(units):
        raise BenchError(f"metric names differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="defbond benchmark")
    parser.add_argument("--workload", required=True, choices=("curve", "multidate", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true", help="reduced input sizes")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except (BenchError, OSError, ValueError, KeyError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
