"""Machine-readable benchmark records: ``BENCH_<name>.json`` at repo root.

Throughput benches (figs 8–10) call :func:`write_bench_json` so every
run leaves a structured artifact next to the human-readable table —
the perf trajectory future PRs regress against.  CI's perf-smoke job
uploads these files; locally just re-run the bench::

    REPRO_SCALE=default PYTHONPATH=src python -m pytest \\
        benchmarks/bench_fig08_encode_throughput.py -q

Record layout::

    {
      "bench": "fig08a_riblt_encode",
      "scale": "default",            # REPRO_SCALE profile
      "unix_time": 1753500000.0,
      "python": "3.11.7",
      "rows": [...],                 # bench-specific series
      "meta": {...}                  # bench-specific scalars (speedups &c.)
                                     # + "env": numpy/cpu_count/platform
    }

Rows and meta are intentionally free-form per bench; the stable keys
are the envelope above plus ``meta.env`` (:func:`environment_meta`).
No thresholds are enforced here — trend tracking only.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Any, Optional

from bench_util import SCALE
from repro import engine

REPO_ROOT = Path(__file__).resolve().parent.parent


def environment_meta() -> dict[str, Any]:
    """Hardware/software context for a perf record.

    Folded into every record's ``meta`` block so numbers written on
    different machines (laptop vs CI runner vs a future box) are
    comparable at a glance: NumPy version (or ``None`` for the scalar
    engine), CPU count, and platform triple.
    """
    return {
        # installed but switched off records as the scalar engine it is
        "numpy": engine.np.__version__ if engine.NUMPY_LANE else None,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def bench_json_path(name: str) -> Path:
    """Where ``write_bench_json(name, ...)`` lands.

    Default-scale runs own the bare ``BENCH_<name>.json`` (the committed
    trajectory records); other profiles write ``BENCH_<name>.<scale>.json``
    so a quick smoke run never clobbers them.
    """
    if SCALE == "default":
        return REPO_ROOT / f"BENCH_{name}.json"
    return REPO_ROOT / f"BENCH_{name}.{SCALE}.json"


def write_bench_json(
    name: str,
    rows: list[Any],
    meta: Optional[dict[str, Any]] = None,
) -> Path:
    """Write one benchmark record; returns the path written."""
    record = {
        "bench": name,
        "scale": SCALE,
        "unix_time": time.time(),
        "python": platform.python_version(),
        "rows": rows,
        "meta": {**(meta or {}), "env": environment_meta()},
    }
    path = bench_json_path(name)
    path.write_text(json.dumps(record, indent=2, sort_keys=False) + "\n")
    return path
