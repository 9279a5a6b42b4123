"""``repro.api`` — one interface, every reconciliation scheme.

The paper's comparison ("Rateless IBLT vs regular IBLT, PinSketch, MET,
Merkle heal, across workloads") requires running *the same
workload* over *any scheme*.  This package makes that a one-liner:

>>> from repro.api import available_schemes, reconcile
>>> "riblt" in available_schemes() and len(available_schemes()) >= 6
True
>>> a = {b"item-%03d" % i for i in range(100)}
>>> b = {b"item-%03d" % i for i in range(5, 105)}
>>> result = reconcile(a, b, scheme="riblt")
>>> len(result.only_in_a), len(result.only_in_b)
(5, 5)

Layers:

:mod:`repro.api.base`
    The :class:`SetReconciler` interface, capability flags, and the
    scheme-independent :class:`ReconcileResult`.  (Rateless IBLT's stream
    runs on the core codec in :mod:`repro.protocol.machine`.)
:mod:`repro.api.registry`
    String-keyed scheme registry — :func:`get_scheme`,
    :func:`available_schemes`, :func:`register_scheme` for third-party
    schemes.
:mod:`repro.api.adapters`
    The in-repo schemes behind the interface.
:mod:`repro.api.session`
    The generic driver: :func:`reconcile` (capability-dispatched) and
    the streaming :class:`Session`.
"""

from repro.api.base import (
    Capabilities,
    ReconcileError,
    ReconcileResult,
    SchemeParams,
    SetReconciler,
    SymbolBudgetExceeded,
    UnsupportedOperation,
)
from repro.api.registry import (
    Scheme,
    SchemeInfo,
    available_schemes,
    get_scheme,
    register_scheme,
    scheme_info,
)

# Importing the adapters populates the registry.
import repro.api.adapters  # noqa: E402,F401  (registration side effect)

from repro.api.session import Session, reconcile  # noqa: E402  (needs registry)

__all__ = [
    "Capabilities",
    "ReconcileError",
    "ReconcileResult",
    "Scheme",
    "SchemeInfo",
    "SchemeParams",
    "Session",
    "SetReconciler",
    "SymbolBudgetExceeded",
    "UnsupportedOperation",
    "available_schemes",
    "get_scheme",
    "reconcile",
    "register_scheme",
    "scheme_info",
]
