"""Service-layer scheme defaults.

The service defaults the keyed checksum hash to SipHash-2-4 — the
paper's own choice (§4.3), and since the batched uint64-lane engine
landed, also the fastest path through ingestion (~0.3 µs/item).  BLAKE2b
stays fully supported: pass ``hasher="blake2b"`` explicitly (the core
:class:`~repro.core.symbols.SymbolCodec` and the scheme registry keep
their historical BLAKE2b default, so recorded transcripts and durable
stores that predate this default are unaffected — an existing store's
manifest always wins over this default on recovery).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

SERVICE_HASHER = "siphash"

DEFAULT_BUSY_RETRY_AFTER = 0.5
"""Seconds a shed client is told to wait before reconnecting.

Stamped into the ``ErrorCode.BUSY`` frame whenever an overloaded server
answers a HELLO with a shed (see
:class:`~repro.service.server.ServerConfig`); long enough that a
retrying fleet does not hammer a saturated server at its own backoff
floor, short enough that a transient spike clears within one retry for
the default :class:`~repro.service.client.RetryPolicy`."""


def with_service_hasher(
    scheme: str, params: dict, data_dir: Optional[object] = None
) -> dict:
    """Params with ``hasher`` defaulted to :data:`SERVICE_HASHER`.

    Applied at the service entry points (server and cluster-supervisor
    construction, client :func:`~repro.service.client.sync`) — never
    deeper, so library users of the core codec and the scheme registry
    see no change.  A scheme that accepts no ``hasher`` parameter, or a
    caller that already chose one, passes through untouched — and so
    does everything when ``data_dir`` already holds a store: its
    manifest recorded the hasher, and injecting a default there would
    falsely claim the caller asserted it.
    """
    if "hasher" in params:
        return params
    from repro.api.registry import get_scheme

    if data_dir is not None:
        from repro.durable.store import MANIFEST_NAME

        if (Path(data_dir) / MANIFEST_NAME).exists():
            return params
    try:
        probe = get_scheme(scheme)
    except Exception:
        return params  # let the real construction raise its own error
    if not hasattr(probe.params, "hasher"):
        return params
    out = dict(params)
    out["hasher"] = SERVICE_HASHER
    return out
