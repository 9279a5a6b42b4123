"""Shared helpers for the figure benchmarks.

``REPRO_SCALE`` selects the sweep sizes:

* ``quick``   — smoke-test scale (CI);
* ``default`` — laptop scale, minutes (what the committed ``BENCH_*.json``
  records report);
* ``paper``   — closest to the paper's grids that pure Python tolerates.
"""

from __future__ import annotations

import os
import random
import time
from typing import Callable

SCALE = os.environ.get("REPRO_SCALE", "default")
if SCALE not in ("quick", "default", "paper"):
    raise ValueError(f"REPRO_SCALE must be quick|default|paper, not {SCALE!r}")


def by_scale(quick, default, paper):
    """Pick a parameter by the active profile."""
    return {"quick": quick, "default": default, "paper": paper}[SCALE]


def make_items(rng: random.Random, count: int, size: int) -> list[bytes]:
    """``count`` distinct random items of ``size`` bytes.

    Sorted so workloads are identical across processes (``list(set)``
    order depends on the interpreter's randomised string hashing).
    """
    items: set[bytes] = set()
    while len(items) < count:
        items.add(rng.randbytes(size))
    return sorted(items)


def sets_with_difference(
    rng: random.Random, set_size: int, d: int, item_size: int
) -> tuple[set[bytes], set[bytes]]:
    """|A| = |B| = set_size with |A △ B| = d (d/2 exclusive each side,
    rounding to Alice when odd)."""
    only_a = d - d // 2
    only_b = d // 2
    shared = set_size - only_a
    items = make_items(rng, shared + only_a + only_b, item_size)
    a = set(items[: shared + only_a])
    b = set(items[:shared]) | set(items[shared + only_a :])
    return a, b


# --- result tables ------------------------------------------------------------
#
# Benches queue paper-style series here; the ``pytest_terminal_summary``
# hook in benchmarks/conftest.py prints them after the run.  The helper
# lives in this module (not conftest.py) so bench files never import
# from a module named ``conftest``, which collides with other
# directories' conftests on ``sys.path``.

_TABLES: list[tuple[str, list[str]]] = []


def report_table(title: str, lines: list[str]) -> None:
    """Queue a results table for the end-of-run summary."""
    _TABLES.append((title, list(lines)))


def queued_tables() -> list[tuple[str, list[str]]]:
    """Everything queued so far (consumed by the terminal-summary hook)."""
    return list(_TABLES)


def timed(fn: Callable[[], object]) -> tuple[object, float]:
    """(result, wall seconds)."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def fmt_row(*cells: object, widths: tuple[int, ...] = ()) -> str:
    """Fixed-width table row."""
    if not widths:
        widths = tuple(12 for _ in cells)
    return "  ".join(str(c)[:w].rjust(w) for c, w in zip(cells, widths))
