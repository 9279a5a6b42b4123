"""The reference docs cannot drift from the code they specify.

``docs/*.md`` quote module paths, frame-type values, error codes, magic
strings, and format constants.  Prose is not executable, so this suite
re-derives every such claim from the source of truth and fails when the
two disagree — a renamed module, a renumbered frame, or a changed magic
must touch the docs in the same commit.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

from repro.core.cellbank import PACK_MIN_CELLS, CodedSymbolBank
from repro.durable import faults, journal, snapshot
from repro.durable.store import JOURNAL_NAME, MANIFEST_FORMAT, MANIFEST_NAME
from repro.gossip.rounds import DIGEST_TAG
from repro.service.framing import (
    INITIAL_WINDOW,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ErrorCode,
    FrameType,
    SyncMode,
)

DOCS = Path(__file__).resolve().parent.parent / "docs"


def doc_text(name: str) -> str:
    path = DOCS / name
    assert path.is_file(), f"{path} is missing"
    return path.read_text(encoding="utf-8")


def all_docs() -> list[Path]:
    pages = sorted(DOCS.glob("*.md"))
    assert pages, f"no markdown files under {DOCS}"
    return pages


def section(text: str, heading: str) -> str:
    """The body of one ``#``-heading, up to the next heading of any level."""
    match = re.search(
        rf"^#+\s+{re.escape(heading)}.*?$(.*?)(?=^#)", text, re.MULTILINE | re.DOTALL
    )
    assert match, f"doc is missing the {heading!r} section"
    return match.group(1)


def table_constants(text: str, names: list[str]) -> dict[str, int]:
    """Extract ``| `NAME` | `0xNN` |`` / ``| `NAME` | N |`` table rows."""
    out: dict[str, int] = {}
    for name in names:
        match = re.search(
            rf"^\|\s*`{re.escape(name)}`\s*\|\s*`?(0x[0-9A-Fa-f]+|\d+)`?\s*\|",
            text,
            re.MULTILINE,
        )
        assert match, f"doc table is missing a row for {name!r}"
        out[name] = int(match.group(1), 0)
    return out


# -- module references resolve ------------------------------------------------


@pytest.mark.parametrize("page", all_docs(), ids=lambda p: p.name)
def test_doc_module_references_import(page):
    """Every backticked dotted ``repro.*`` path must import (modules) or
    resolve as an attribute of its parent module (classes/functions)."""
    text = page.read_text(encoding="utf-8")
    refs = sorted(set(re.findall(r"`(repro(?:\.\w+)+)", text)))
    assert refs, f"{page.name} references no repro modules"
    for ref in refs:
        parts = ref.split(".")
        obj = None
        for cut in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:cut]))
                break
            except ImportError:
                continue
        assert obj is not None, f"{page.name}: no importable prefix of {ref!r}"
        for attr in parts[cut:]:
            assert hasattr(obj, attr), f"{page.name}: stale reference {ref!r}"
            obj = getattr(obj, attr)


@pytest.mark.parametrize("page", all_docs(), ids=lambda p: p.name)
def test_doc_internal_links_resolve(page):
    text = page.read_text(encoding="utf-8")
    for target in re.findall(r"\]\(([\w./-]+\.md)(?:#[\w-]+)?\)", text):
        assert (DOCS / target).is_file(), f"{page.name}: broken link {target}"


def test_readme_links_docs():
    readme = (DOCS.parent / "README.md").read_text(encoding="utf-8")
    for name in (
        "architecture.md",
        "wire-format.md",
        "durable-format.md",
        "operations.md",
    ):
        assert f"docs/{name}" in readme, f"README does not link docs/{name}"


# -- wire-format.md ----------------------------------------------------------


def test_frame_catalogue_matches_framing():
    body = section(doc_text("wire-format.md"), "Frame types")
    documented = table_constants(body, [ft.name for ft in FrameType])
    assert documented == {ft.name: int(ft) for ft in FrameType}


def test_error_codes_match_framing():
    body = section(doc_text("wire-format.md"), "Error codes")
    documented = table_constants(body, [code.name for code in ErrorCode])
    assert documented == {code.name: int(code) for code in ErrorCode}


def test_sync_modes_match_framing():
    body = section(doc_text("wire-format.md"), "Sync modes")
    documented = table_constants(body, [mode.name for mode in SyncMode])
    assert documented == {mode.name: int(mode) for mode in SyncMode}


def test_frame_layer_constants():
    text = doc_text("wire-format.md")
    assert f"`PROTOCOL_VERSION = {PROTOCOL_VERSION}`" in text
    assert f"`INITIAL_WINDOW = {INITIAL_WINDOW}`" in text
    assert f"`MAX_FRAME_BYTES = {MAX_FRAME_BYTES >> 20} MiB` ({MAX_FRAME_BYTES} bytes)" in text


def test_stream_magic_and_digest_tag():
    from repro.core.wire import MAGIC as STREAM_MAGIC

    text = doc_text("wire-format.md")
    assert f'magic "{STREAM_MAGIC.decode()}"' in text
    assert f"`DIGEST_TAG = 0x{DIGEST_TAG:02X}`" in text
    assert f"tag 0x{DIGEST_TAG:02X}" in text


def test_packed_bank_constants():
    text = doc_text("wire-format.md")
    assert f"`PACK_MIN_CELLS = {PACK_MIN_CELLS}`" in text
    # the documented stride formula quotes the 8-byte signed count field
    assert CodedSymbolBank.COUNT_BYTES == 8
    assert "ℓ + checksum_size + 8" in text


def test_bank_is_the_one_cell_container():
    """README and architecture.md name the holders of a stored cell
    sequence as ``Class.bank``; each named class must hold a
    ``CodedSymbolBank`` there, for rateless prefixes and fixed tables."""
    from repro.baselines.regular_iblt import RegularIBLT
    from repro.baselines.table import CellTable
    from repro.core.sketch import RatelessSketch
    from repro.core.symbols import SymbolCodec

    codec = SymbolCodec(8)
    holders = {
        "RatelessSketch": RatelessSketch.zero(4, codec),
        "CellTable": RegularIBLT(6, codec),
    }
    assert isinstance(holders["CellTable"], CellTable)
    readme = (DOCS.parent / "README.md").read_text(encoding="utf-8")
    for text in (readme, section(doc_text("architecture.md"), "core — the codec")):
        assert "the one container for a stored cell sequence" in " ".join(text.split())
        assert set(re.findall(r"`(\w+)\.bank`", text)) == set(holders)
    for holder in holders.values():
        assert isinstance(holder.bank, CodedSymbolBank)


def test_architecture_names_the_source_store():
    """architecture.md's core section names the one source-store class
    ``core/encoder.py`` defines beside ``RatelessEncoder``, and that
    class is what an encoder holds its symbols in."""
    import ast

    from repro.core import encoder
    from repro.core.symbols import SymbolCodec

    tree = ast.parse(Path(encoder.__file__).read_text(encoding="utf-8"))
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    (store,) = classes - {"RatelessEncoder"}
    body = " ".join(section(doc_text("architecture.md"), "core — the codec").split())
    assert f"`repro.core.encoder.{store}`" in body
    held = encoder.RatelessEncoder(SymbolCodec(8))._store
    assert isinstance(held, getattr(encoder, store))


def test_busy_body_layout_documented():
    """wire-format.md must spell out BUSY's structured ERROR body, and
    the documented layout must be the one ``pack_busy_body`` emits."""
    from repro.service.framing import BodyReader, pack_busy_body

    text = doc_text("wire-format.md")
    assert "`uvarint retry_after_ms`" in text
    assert "`pack_busy_body`" in text
    reader = BodyReader(pack_busy_body(0.25, "busy"))
    assert reader.uvarint() == int(ErrorCode.BUSY)
    assert reader.uvarint() == 250  # milliseconds, as documented
    assert reader.rest() == b"busy"


# -- operations.md -----------------------------------------------------------


def test_operations_overload_knobs_match_server_config():
    """Every documented admission knob is a real ``ServerConfig`` field,
    and every admission field the config grows must be documented."""
    import dataclasses

    from repro.service.server import ServerConfig

    body = section(doc_text("operations.md"), "Overload control")
    knobs = (
        "max_concurrent_sessions",
        "per_peer_rate",
        "per_peer_burst",
        "max_session_bytes",
        "busy_retry_after",
    )
    fields = {f.name for f in dataclasses.fields(ServerConfig)}
    for knob in knobs:
        assert knob in fields, f"documented knob {knob!r} not on ServerConfig"
        assert f"`{knob}`" in body, f"ServerConfig.{knob} undocumented"


def test_operations_busy_default_and_shed_reasons():
    import inspect

    from repro.service import server
    from repro.service.defaults import DEFAULT_BUSY_RETRY_AFTER

    text = doc_text("operations.md")
    assert f"`DEFAULT_BUSY_RETRY_AFTER = {DEFAULT_BUSY_RETRY_AFTER}`" in text
    # The documented reason strings are the ones the server counts.
    source = inspect.getsource(server)
    for reason in ("session limit", "peer rate limit", "session bytes"):
        assert f'"{reason}"' in text, f"shed reason {reason!r} undocumented"
        assert f'"{reason}"' in source, f"doc invents shed reason {reason!r}"


def test_operations_window_stall_quotes_source_constants():
    from repro.service.server import ServerConfig

    body = section(doc_text("operations.md"), "Window-stalled sessions")
    assert f"`repro.service.framing.INITIAL_WINDOW`, {INITIAL_WINDOW})" in body
    assert f"({ServerConfig().idle_timeout:g} s by default)" in body
    for name in ("symbols_sent", "sessions_dropped", "errors_sent"):
        assert f"`{name}`" in body or f".{name}`" in body
    assert f"code {int(ErrorCode.IDLE)}" in body


def test_operations_cluster_limit_fields_exist():
    """The pool table documents exactly ``ClusterConfig``'s fields, and
    the per-session knobs it points at live on the nested ``ServerConfig``
    (and nowhere on the pool config)."""
    import dataclasses

    from repro.cluster import ClusterConfig
    from repro.service.server import ServerConfig

    body = section(doc_text("operations.md"), "Cluster limits")
    pool = {f.name for f in dataclasses.fields(ClusterConfig)}
    rows = re.findall(r"^\|\s*(`\w+`(?:\s*/\s*`\w+`)*)\s*\|", body, re.MULTILINE)
    documented = {name for row in rows for name in re.findall(r"`(\w+)`", row)}
    assert documented == pool
    assert isinstance(ClusterConfig().server, ServerConfig)
    per_session = {f.name for f in dataclasses.fields(ServerConfig)}
    for name in (
        "max_concurrent_sessions",
        "per_peer_rate",
        "per_peer_burst",
        "max_session_bytes",
        "busy_retry_after",
        "block_size",
        "max_symbols",
        "idle_timeout",
    ):
        assert f"`{name}`" in body, f"ServerConfig.{name} undocumented"
        assert name in per_session and name not in pool


def test_architecture_standing_up_a_peer():
    """Every host the section names really opens its state through
    ``open_backend``, and the documented hasher split — which hosts
    apply the service SipHash default — is the one in the source."""
    import inspect

    from repro.api.registry import Scheme
    from repro.service import backends

    body = section(doc_text("architecture.md"), "Standing up a peer")
    assert callable(backends.open_backend) and callable(Scheme.bound_to)
    for prop in ("codec", "hash64", "key_probe"):
        assert f"handle.{prop}" in body and hasattr(Scheme, prop)
    hosts = {
        "ReconciliationServer": ("repro.service.server", True),
        "ServiceNode": ("repro.service.node", True),
        "ClusterSupervisor": ("repro.cluster.supervisor", True),
        "GossipNode": ("repro.gossip.node", False),
        "memory_responder": ("repro.protocol.pump", False),
        "open_durable": ("repro.durable.store", False),
    }
    service, library = body.split("The in-process hosts")
    service = service.split("The TCP-facing hosts")[1]
    for host, (module, service_default) in hosts.items():
        source = inspect.getsource(importlib.import_module(module))
        assert "open_backend(" in source, f"{host} no longer calls open_backend"
        assert ("with_service_hasher(" in source) == service_default, host
        assert f"{host}`" in (service if service_default else library), host
    client = inspect.getsource(importlib.import_module("repro.service.client"))
    assert "with_service_hasher(" in client and "`sync`" in service


def test_operations_chaos_schedule_fields_match_spec():
    """The schedule-JSON table documents exactly the ``FaultSpec``
    fields — no stale rows, no undocumented faults — and the documented
    round-trip actually holds."""
    import dataclasses

    from repro.chaos import FaultSchedule, FaultSpec, default_schedule

    body = section(doc_text("operations.md"), "Chaos schedule JSON")
    documented = set(re.findall(r"^\|\s*`(\w+)`\s*\|", body, re.MULTILINE))
    documented.discard("field")  # the table header row
    assert documented == {f.name for f in dataclasses.fields(FaultSpec)}
    assert '`{"seed": N, "specs": [...]}`' in body
    schedule = default_schedule(7)
    assert FaultSchedule.from_json(schedule.to_json()) == schedule


def test_operations_cli_chaos_documented():
    from repro import cli

    text = doc_text("operations.md")
    assert "`repro chaos`" in text
    assert "`repro serve --max-clients`" in text
    helps = cli.build_parser().format_help()
    assert "chaos" in helps and "serve" in helps


# -- durable-format.md -------------------------------------------------------


def test_durable_file_names_and_magics():
    text = doc_text("durable-format.md")
    assert MANIFEST_NAME in text
    assert JOURNAL_NAME in text
    assert f"currently `{MANIFEST_FORMAT}`" in text
    for magic in (snapshot.MAGIC, journal.MAGIC):
        quoted = magic.decode().replace("\n", "\\n")
        assert f'"{quoted}"' in text, f"doc is missing magic {quoted!r}"


def test_durable_manifest_and_snapshot_layout_match_store(tmp_path):
    """The manifest table lists exactly the fields a checkpoint writes,
    the snapshot header's documented format is the written one, and the
    recovery section states the split's width rule and the format-1
    refusal the store implements."""
    import json

    from repro.durable import CorruptManifest, open_durable

    text = doc_text("durable-format.md")
    body = section(text, "MANIFEST.json — the commit point")
    documented = set()
    for row in re.findall(r"^\|\s*(`[^|]+)\|", body, re.MULTILINE):
        documented.update(re.findall(r"`(\w+)`", row))
    open_durable(tmp_path, [b"%08d" % i for i in range(40)], num_shards=2).close()
    manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
    assert documented == set(manifest)
    assert set(manifest["snapshot"]) == {"file", "count", "cells"}
    assert f"format={snapshot.FORMAT}, n_rows, n_cells" in text
    recovery = section(text, "Recovery")
    assert "`checksum_size == 8`" in recovery and "partition_with_hashes" in recovery
    manifest["format"] = 1
    (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
    with pytest.raises(CorruptManifest, match="format 1"):
        open_durable(tmp_path)
    refusal = r"format-1 data dir is\s+refused with a typed `CorruptManifest`"
    assert re.search(refusal, text)


def test_durable_crash_points_all_documented():
    text = doc_text("durable-format.md")
    for point in faults.CRASH_POINTS:
        assert point in text, f"crash point {point!r} undocumented"
    assert faults.ENV_CRASH_POINT in text


def test_snapshot_name_pattern_matches_store():
    from repro.durable.store import _snap_name

    text = doc_text("durable-format.md")
    # the documented pattern must agree with the code
    assert "encoder.g<gen>.snap" in text
    assert _snap_name(7) == "encoder.g7.snap"


def test_journal_segment_naming_matches_store():
    from repro.durable.store import (
        JOURNAL_SEGMENT_GLOB,
        _segment_worker,
        journal_segment_name,
    )

    text = doc_text("durable-format.md")
    body = section(
        text, "journal.&lt;worker&gt;.log — per-worker journal segments"
    )
    # the documented examples and glob must agree with the code
    for worker in (0, 1):
        assert journal_segment_name(worker) in body
    assert journal_segment_name(3) == "journal.3.log"
    assert _segment_worker("journal.3.log") == 3
    assert _segment_worker(JOURNAL_NAME) is None  # base journal never folds
    assert JOURNAL_SEGMENT_GLOB in body
    assert "journal_segment_name" in body
    # the fold's documented merge order is the implemented one
    assert "(seq, worker)" in body


def test_cluster_docs_match_code():
    from repro.cluster import worker_shards

    arch = doc_text("architecture.md")
    body = section(arch, "cluster — shards across cores")
    assert "ClusterSupervisor" in body
    assert "repro.cluster.worker" in body
    # the documented striping rule is the implemented one
    assert "{g : g % N == w}" in body
    assert list(worker_shards(8, 4, 1)) == [1, 5]


def test_readme_documents_workers_flag():
    readme = (DOCS.parent / "README.md").read_text(encoding="utf-8")
    body = section(readme, "Scaling across cores")
    assert "--workers" in body
    assert "journal.<worker>.log" in body
    assert "WorkerUnavailable" in body
    assert "SO_REUSEPORT" in body
