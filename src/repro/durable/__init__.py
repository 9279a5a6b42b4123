"""``repro.durable`` — crash-safe persistence for warm encoder state.

The paper's incremental maintainability (§4.1 linearity: churn patches
a produced coded-symbol prefix in place) makes a warm bank *state worth
keeping*, not cache to rebuild.  This package persists it:

:mod:`repro.durable.snapshot`
    Atomic encoder snapshot files — source rows with their exact
    parked §4.2 walk positions, plus the produced bank verbatim — so a
    restore does no hashing and no encoding.
:mod:`repro.durable.journal`
    An append-only CRC-framed churn journal covering mutations since
    the last checkpoint; torn tails truncate, corrupt records raise.
:mod:`repro.durable.store`
    :func:`open_durable` / :class:`DurableBackend`: the write-ahead
    wrapper around :class:`~repro.service.backends.WarmRibltBackend`
    with generation-tagged checkpoints and journal-replay recovery.
:mod:`repro.durable.faults`
    The fault-injection harness (named crash points, injected
    ``OSError``\\ s) that the recovery suite drives, so the crash-safety
    contract is tested under the failures it claims to survive.

Contract: kill the process at any instant, reopen the data dir, and the
served symbol stream is bit-identical to a fresh node holding the same
final set.
"""

from repro.durable.errors import (
    CorruptJournal,
    CorruptManifest,
    CorruptSnapshot,
    DataDirMismatch,
    DurabilityError,
)
from repro.durable.faults import (
    CRASH_POINTS,
    ENV_CRASH_POINT,
    INJECTOR,
    FaultInjector,
    SimulatedCrash,
)
from repro.durable.store import (
    DurableBackend,
    DurableConfig,
    DurableShardStore,
    open_durable,
)

__all__ = [
    "CRASH_POINTS",
    "ENV_CRASH_POINT",
    "INJECTOR",
    "CorruptJournal",
    "CorruptManifest",
    "CorruptSnapshot",
    "DataDirMismatch",
    "DurabilityError",
    "DurableBackend",
    "DurableConfig",
    "DurableShardStore",
    "FaultInjector",
    "SimulatedCrash",
    "open_durable",
]
