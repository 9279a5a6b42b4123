"""The one engine switch: vector (NumPy) or scalar, for the whole package.

Every batch path in ``repro`` has two interchangeable, bit-identical
engines — uint64 lane arithmetic under NumPy and a pure-Python scalar
reference.  This leaf module (it imports nothing from the package, so
``repro.hashing`` and ``repro.core`` can both sit above it) is the only
place that imports NumPy, the only place that reads the
``REPRO_NO_NUMPY=1`` kill switch, and the only owner of
:data:`NUMPY_LANE`.

Consumers read the switch through the module at call time — ``from
repro import engine`` then ``engine.NUMPY_LANE`` / ``engine.np`` — never
by importing the name, so assigning ``False`` to ``engine.NUMPY_LANE``
flips hashing, placement, the scatter walks, the record codec and
everything built on them together (``tests/helpers.py::engine_lane`` is the
context manager the parity suites use).
"""

from __future__ import annotations

import os

try:  # pragma: no cover - both legs run in CI
    import numpy as np
except ImportError:  # pragma: no cover
    np = None

# True when the vector engine runs.  Never True without NumPy.
NUMPY_LANE = np is not None and os.environ.get("REPRO_NO_NUMPY", "") != "1"
