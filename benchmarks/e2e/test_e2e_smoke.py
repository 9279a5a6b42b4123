"""Smoke tests of the end-to-end benchmark's own tooling.

Run explicitly — tier-1 ``testpaths`` does not include this directory:

    python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

Every test drives ``run.py`` (or ``trace.py``) in a subprocess, exactly
as a user or the CI driver would; nothing here imports the benchmark's
modules, so its ``trace.py`` never shadows the standard library's in
the pytest process.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=170,
    )


def test_smoke_runs_every_workload_and_validates_metric_names():
    proc = _run("--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for workload in SPEC["workloads"]:
        for trace in (0, 1):
            assert f"ok   {workload['name']} trace={trace}" in proc.stdout
    assert "# smoke passed" in proc.stdout


def _result_file(path: Path, scale: dict[str, list[float]]) -> str:
    """A result file whose every metric is 100 x the given factors, one
    run per factor (``scale`` maps a metric name to its factors; other
    metrics get three runs at 1.0)."""
    runs = []
    for workload in SPEC["workloads"]:
        for index in range(3):
            metrics = {}
            for metric in SPEC["end_to_end"]:
                factor = scale.get(metric["name"], [1.0, 1.0, 1.0])[index]
                metrics[metric["name"]] = {
                    "value": 100.0 * factor,
                    "unit": metric["unit"],
                }
            runs.append(
                {
                    "workload": workload["name"],
                    "seed": 1,
                    "trace": 0,
                    "correct": True,
                    "attempted": 10,
                    "failed": 0,
                    "metrics": metrics,
                }
            )
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def _verdicts(stdout: str) -> dict[tuple[str, str], str]:
    rows = {}
    for line in stdout.splitlines()[1:]:
        fields = line.split()
        rows[(fields[0], fields[1])] = fields[-1]
    return rows


def test_compare_applies_each_bound_per_metric_and_workload(tmp_path):
    base = _result_file(tmp_path / "base.json", {})
    same = _run("--compare", base, base)
    assert same.returncode == 0, same.stdout + same.stderr
    assert set(_verdicts(same.stdout).values()) == {"pass"}

    new = _result_file(
        tmp_path / "new.json",
        {
            # lower is better: +50 % is beyond any bound (they are <= 0.25)
            "sync_s_p50": [1.5, 1.5, 1.5],
            # higher is better: +50 % is a gain, not a regression
            "syncs_per_s": [1.5, 1.5, 1.5],
            # median unchanged but runs 0.5..1.5 apart: cannot call it unchanged
            "sync_s_p90": [0.5, 1.0, 1.5],
        },
    )
    proc = _run("--compare", base, new)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    verdicts = _verdicts(proc.stdout)
    assert len(verdicts) == len(SPEC["workloads"]) * len(SPEC["end_to_end"])
    for workload in SPEC["workloads"]:
        name = workload["name"]
        assert verdicts[(name, "sync_s_p50")] == "regressed"
        assert verdicts[(name, "syncs_per_s")] == "pass"
        assert verdicts[(name, "sync_s_p90")] == "unresolved"
        assert verdicts[(name, "setup_s")] == "pass"


def test_missing_trace_target_fails_loudly_naming_it():
    script = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import trace as t\n"
        "t.TARGETS = t.TARGETS + (t.Target('core.encoder', 'repro.core.encoder',"
        " 'RatelessEncoder.no_such_method'),)\n"
        "t.install(t.Tracer('client'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(HERE), str(ROOT / "src")],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "TraceTargetMissing" in proc.stderr
    assert "repro.core.encoder.RatelessEncoder.no_such_method" in proc.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files there is nothing to measure: exit non-zero, print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    target = tmp_path / HERE.relative_to(ROOT)
    shutil.copytree(HERE, target, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [
            sys.executable,
            str(target / "run.py"),
            "--workload", SPEC["workloads"][0]["name"],
            "--seed", "1",
            "--seconds", "1",
            "--trace", "0",
        ],
        cwd=tmp_path,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "program under test is missing" in proc.stderr
