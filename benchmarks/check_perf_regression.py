#!/usr/bin/env python3
"""Gate: compare fresh ``BENCH_*.json`` records against the committed ones.

CI's perf-smoke job runs the throughput benches at ``REPRO_SCALE=quick``
(which writes ``BENCH_<name>.quick.json`` beside the committed
default-scale ``BENCH_<name>.json``) and then calls this script.  Rows
are matched on their workload key (``d`` / ``set_size`` /
``item_bytes`` / ``clients``, plus ``engine`` or ``prefix_cells`` where
a bench times several per key) and compared on their throughput-style
metric; a row that fell below
``1/THRESHOLD`` of the committed value fails the job.

Each fresh record is held to a committed record of the *same* scale:
``BENCH_<name>.<scale>.json`` as committed at ``HEAD`` (read with
``git show``, because the fresh run has just overwritten the working
copy).  Only a bench with no committed same-scale record falls back to
its default-scale ``BENCH_<name>.json``.  That fallback compares unlike
workloads, and scale cuts both ways: a smaller set is usually faster,
but fixed per-run costs (a restore's manifest and snapshot opens, say)
weigh more per item in a small run, so a cross-scale row can fail
without any regression.  Record a same-scale baseline for a bench that
keeps tripping it.  Unmatched rows and missing fresh records are
reported and skipped — not every bench runs in CI.

Usage::

    python benchmarks/check_perf_regression.py --scale quick [name ...]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# Throughput regression tolerated before the gate trips: CI runners are
# slower and noisier than the machines that wrote the committed records.
THRESHOLD = 3.0

# (key field, metric field, higher_is_better) probed in order.
_METRICS = (
    ("throughput_per_s", True),
    ("symbols_per_s", True),
    ("seconds", False),
)
_KEYS = ("d", "set_size", "item_bytes", "clients")
# Row fields that further split a key: fig11 times two engines per width,
# churn_patch two cached-prefix lengths per width.
_QUALIFIERS = ("engine", "prefix_cells")


def _row_key(row: dict):
    for key in _KEYS:
        if key in row:
            tags = [str(row[tag]) for tag in _QUALIFIERS if tag in row]
            return key, "/".join([str(row[key]), *tags]) if tags else row[key]
    return None


def _metric(row: dict):
    for name, higher_better in _METRICS:
        if name in row:
            return name, float(row[name]), higher_better
    return None


def compare_records(committed: dict, fresh: dict) -> list[str]:
    """Human-readable failures (empty = this record passes)."""
    failures = []
    fresh_rows = {}
    for row in fresh.get("rows", []):
        key = _row_key(row)
        if key is not None:
            fresh_rows[key] = row
    compared = 0
    for row in committed.get("rows", []):
        key = _row_key(row)
        if key is None or key not in fresh_rows:
            continue
        baseline = _metric(row)
        current = _metric(fresh_rows[key])
        if baseline is None or current is None or baseline[0] != current[0]:
            continue
        name, base_value, higher_better = baseline
        _, new_value, _ = current
        if base_value <= 0 or new_value <= 0:
            continue
        compared += 1
        ratio = new_value / base_value if higher_better else base_value / new_value
        marker = "ok" if ratio * THRESHOLD >= 1.0 else "REGRESSION"
        print(
            f"  {key[0]}={key[1]:<10} {name}: committed {base_value:.4g}, "
            f"fresh {new_value:.4g}  ({ratio:.2f}x)  {marker}"
        )
        if ratio * THRESHOLD < 1.0:
            failures.append(
                f"{committed['bench']}: {key[0]}={key[1]} {name} fell to "
                f"{ratio:.2f}x of the committed record (threshold 1/{THRESHOLD:g})"
            )
    if compared == 0:
        print("  (no comparable rows)")
    return failures


def committed_baseline(name: str, scale: str) -> tuple[dict, str]:
    """The committed record a fresh ``scale`` run of bench ``name`` is
    held to, and where it came from: the same-scale record at ``HEAD``
    when one is committed, else the default-scale record."""
    if scale != "default":
        relpath = f"BENCH_{name}.{scale}.json"
        try:
            shown = subprocess.run(
                ["git", "show", f"HEAD:{relpath}"],
                cwd=REPO_ROOT,
                capture_output=True,
                check=True,
            )
        except (OSError, subprocess.CalledProcessError):
            pass  # not committed (or no git): fall back below
        else:
            return json.loads(shown.stdout), f"HEAD:{relpath}"
    path = REPO_ROOT / f"BENCH_{name}.json"
    return json.loads(path.read_text()), path.name


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="quick", help="fresh records' REPRO_SCALE")
    parser.add_argument(
        "names", nargs="*", help="bench names (default: every committed BENCH_*.json)"
    )
    args = parser.parse_args(argv)

    if args.names:
        committed_paths = [REPO_ROOT / f"BENCH_{name}.json" for name in args.names]
    else:
        committed_paths = sorted(
            path
            for path in REPO_ROOT.glob("BENCH_*.json")
            if path.suffixes == [".json"]  # skip BENCH_<name>.<scale>.json
        )
    failures: list[str] = []
    for committed_path in committed_paths:
        if not committed_path.exists():
            print(f"{committed_path.name}: missing committed record", file=sys.stderr)
            return 2
        name = committed_path.stem.removeprefix("BENCH_")
        suffix = "" if args.scale == "default" else f".{args.scale}"
        fresh_path = REPO_ROOT / f"BENCH_{name}{suffix}.json"
        if not fresh_path.exists():
            print(f"{name}:\n  (no fresh {fresh_path.name}; skipped)")
            continue
        committed, source = committed_baseline(name, args.scale)
        print(f"{name} (against {source}):")
        fresh = json.loads(fresh_path.read_text())
        failures.extend(compare_records(committed, fresh))
    if failures:
        print("\nperf regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nperf regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
