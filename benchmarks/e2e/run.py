"""End-to-end sync benchmark: real ``sync()`` calls over loopback TCP.

    python3 benchmarks/e2e/run.py                        # every workload
    python3 benchmarks/e2e/run.py --trace 1              # ... plus per-layer runs
    python3 benchmarks/e2e/run.py --workload big_diff --seed 7 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --workload big_diff --cycles 50      # fixed op list
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --smoke

With ``--workload`` the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Metric names, units, directions and regression bounds are declared in
``BENCHMARK.json`` at the repo root; see ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

SMOKE_SCALE = 0.1
SMOKE_BUDGET_S = 30.0


def _fail(message: str, code: int = 2) -> NoReturn:
    print(f"run.py: {message}", file=sys.stderr)
    raise SystemExit(code)


def load_spec() -> dict:
    if not SPEC_PATH.is_file():
        _fail(f"{SPEC_PATH} not found")
    return json.loads(SPEC_PATH.read_text())


def environment() -> dict:
    """Where the numbers were measured, and whether they mean anything."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0))
    env = {
        "nproc": nproc,
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "REPRO_NO_NUMPY": os.environ.get("REPRO_NO_NUMPY", ""),
        "transport": "loopback",
        "valid": nproc >= 2,
    }
    if not env["valid"]:
        env["invalid_because"] = (
            f"nproc is {nproc}: server and client share one core, so every "
            "timing measures the scheduler; rerun on >= 2 cores"
        )
    return env


# -- one workload, in this process -------------------------------------------------


def run_one(args: argparse.Namespace, spec: dict) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"the program under test is missing: no {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import asyncio

    import harness
    import repro
    import workloads

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        _fail(f"imported repro from {repro.__file__}, not from this checkout")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names or args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; BENCHMARK.json has {names}")

    env = environment()
    workload = workloads.scaled(workloads.WORKLOADS[args.workload], args.scale)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(
        f"# e2e sync benchmark: workload={workload.name} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace} N={workload.set_size} "
        f"item={workload.item_size}B closed loop, 1 client, loopback TCP"
    )
    print(f"# env: {json.dumps(env)}")
    if not env["valid"]:
        print(f"# INVALID RUN: {env['invalid_because']}")

    bench = harness.Harness(workload, args.seed, harness.pin_cores())
    if args.trace:
        coro = bench.run_traced(args.seconds, cycles=args.cycles)
    else:
        coro = bench.run_untraced(args.seconds, cycles=args.cycles)
    result = asyncio.run(coro)

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(result.metrics):
        missing = sorted(set(units) - set(result.metrics))
        extra = sorted(set(result.metrics) - set(units))
        _fail(
            f"measured metrics differ from BENCHMARK.json: missing {missing}, "
            f"undeclared {extra}",
            code=3,
        )
    print(f"# {result.samples} timed syncs, {len(result.failures)} failed")
    for name in units:
        print(f"{name:36s} {result.metrics[name]:.6g} {units[name]}")
    for failure in result.failures:
        print(f"FAILED op {failure.op} seed {failure.seed}: {failure.reason}")
    print(
        json.dumps(
            {
                "correct": not result.failures,
                "attempted": result.attempted,
                "failed": len(result.failures),
                "metrics": {
                    name: {"value": result.metrics[name], "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 1 if result.failures else 0


# -- every workload, one subprocess each ------------------------------------------


def _spawn(extra: list[str]) -> tuple[int, dict, str]:
    """Run this script in driver mode; return (code, last-line JSON, stdout).

    A process per run keeps tracing wrappers and the client's peak RSS
    from leaking between workloads.
    """
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *extra],
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        record = {}
    return proc.returncode, record, proc.stdout


def run_all(args: argparse.Namespace, spec: dict) -> int:
    runs = []
    status = 0
    for workload in spec["workloads"]:
        for trace in (0, 1) if args.trace else (0,):
            for _ in range(args.repeat):
                code, record, out = _spawn(
                    [
                        "--workload", workload["name"],
                        "--seed", str(args.seed),
                        "--seconds", str(args.seconds),
                        "--trace", str(trace),
                        *(["--cycles", str(args.cycles)] if args.cycles else []),
                    ]
                )
                sys.stdout.write(out)
                sys.stdout.flush()
                if code or not record.get("correct"):
                    status = 1
                if record:
                    runs.append(
                        {
                            "workload": workload["name"],
                            "seed": args.seed,
                            "trace": trace,
                            **record,
                        }
                    )
    out_path = Path(args.out) if args.out else HERE / "out" / "result.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(
        json.dumps(
            {"env": environment(), "seconds": args.seconds, "runs": runs}, indent=1
        )
    )
    print(f"# wrote {out_path}")
    return status


# -- compare two result files ---------------------------------------------------------


def _series(path: str) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if run["trace"]:
            continue
        for name, metric in run["metrics"].items():
            values.setdefault((run["workload"], name), []).append(metric["value"])
    return values


def _spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(base_path: str, new_path: str, spec: dict) -> int:
    """Apply each metric's bound per (metric, workload).

    ``regressed``: the new median is worse than the base median by more
    than the bound.  ``unresolved``: it is not, but either side's
    run-to-run spread is wider than the bound, so "unchanged" cannot be
    claimed.  ``pass`` otherwise.
    """
    base, new = _series(base_path), _series(new_path)
    regressed = 0
    print(
        f"{'workload':20s} {'metric':24s} {'base':>12s} {'new':>12s} "
        f"{'worse by':>9s} {'bound':>6s}  verdict"
    )
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"]:
            key = (workload["name"], metric["name"])
            if key not in base or key not in new:
                print(f"{key[0]:20s} {key[1]:24s} {'-':>12s} {'-':>12s}  missing")
                regressed += 1
                continue
            a = statistics.median(base[key])
            b = statistics.median(new[key])
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            bound = metric["bound"]
            if worse > bound:
                verdict = "regressed"
                regressed += 1
            elif max(_spread(base[key]), _spread(new[key])) > bound:
                verdict = "unresolved"
            else:
                verdict = "pass"
            print(
                f"{key[0]:20s} {key[1]:24s} {a:12.6g} {b:12.6g} "
                f"{worse:+9.3f} {bound:6.2f}  {verdict}"
            )
    return 1 if regressed else 0


# -- smoke ---------------------------------------------------------------------------------


def smoke(spec: dict) -> int:
    """A few ops of every workload, untraced and traced, at a tenth of
    the size; checks the result lines against the declared names."""
    t0 = time.perf_counter()
    problems = []
    for workload in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, record, out = _spawn(
                [
                    "--workload", workload["name"],
                    "--scale", str(SMOKE_SCALE),
                    "--cycles", "1" if trace else "3",
                    "--trace", str(trace),
                ]
            )
            label = f"{workload['name']} trace={trace}"
            names = {m["name"] for m in declared}
            if code:
                problems.append(f"{label}: exit code {code}\n{out}")
            elif set(record) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: bad result keys {sorted(record)}")
            elif not record["correct"] or record["failed"]:
                problems.append(f"{label}: {record['failed']} ops failed")
            elif set(record["metrics"]) != names:
                problems.append(f"{label}: metric names differ from BENCHMARK.json")
            else:
                print(f"ok   {label}: {record['attempted']} ops")
    elapsed = time.perf_counter() - t0
    if elapsed > SMOKE_BUDGET_S:
        problems.append(f"smoke took {elapsed:.1f}s, budget {SMOKE_BUDGET_S:g}s")
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"# smoke {'failed' if problems else 'passed'} in {elapsed:.1f}s")
    return 1 if problems else 0


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", help="run only this workload, in-process")
    parser.add_argument(
        "--seed", type=int, default=20240804, help="default 20240804; alternate 7"
    )
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="measure for this long (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="1: the per-layer traced run",
    )
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload")
    parser.add_argument("--out", help="result file (every-workload mode)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument(
        "--scale", type=float, default=1.0, help="shrink the workload (smoke only)"
    )
    parser.add_argument(
        "--cycles", type=int,
        help="a fixed op list: exactly this many cycles in one window, one "
        "set-up; byte and symbol counts then repeat exactly",
    )
    args = parser.parse_args(argv)
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    if args.smoke:
        return smoke(spec)
    if args.workload:
        return run_one(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
