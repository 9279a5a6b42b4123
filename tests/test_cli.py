"""CLI end-to-end tests over temp files."""

import argparse
import ast
import asyncio
import builtins
import collections
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro.api
import repro.chaos
import repro.cli as cli
import repro.cluster
import repro.durable
import repro.service
from repro.cli import CliError, main, read_items
from repro.service import ReconciliationServer, sync_once
from repro.service.backends import open_backend


@pytest.fixture
def item_files(tmp_path, rng):
    """Two binary files of 8-byte records differing in 12 items."""
    shared = [rng.randbytes(8) for _ in range(200)]
    only_a = [rng.randbytes(8) for _ in range(6)]
    only_b = [rng.randbytes(8) for _ in range(6)]
    file_a = tmp_path / "a.bin"
    file_b = tmp_path / "b.bin"
    file_a.write_bytes(b"".join(shared + only_a))
    file_b.write_bytes(b"".join(shared + only_b))
    return file_a, file_b, set(only_a), set(only_b)


def test_reconcile_command(item_files, capsys):
    file_a, file_b, only_a, only_b = item_files
    code = main(["--item-size", "8", "reconcile", str(file_a), str(file_b)])
    out = capsys.readouterr().out
    assert code == 0
    assert "difference      : 12" in out


def test_reconcile_show_items(item_files, capsys):
    file_a, file_b, only_a, only_b = item_files
    code = main(
        ["--item-size", "8", "reconcile", str(file_a), str(file_b), "--show-items"]
    )
    out = capsys.readouterr().out
    assert code == 0
    for item in only_a:
        assert f"A-only {item.hex()}" in out
    for item in only_b:
        assert f"B-only {item.hex()}" in out


def test_sketch_then_decode(item_files, tmp_path, capsys):
    file_a, file_b, only_a, only_b = item_files
    sketch_path = tmp_path / "a.sketch"
    code = main(
        ["--item-size", "8", "sketch", str(file_a), "-o", str(sketch_path),
         "--symbols", "64"]
    )
    assert code == 0
    assert sketch_path.exists()
    code = main(
        ["--item-size", "8", "decode", str(sketch_path), str(file_b),
         "--show-items"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "decoded         : yes" in out
    assert "missing locally : 6" in out
    for item in only_a:
        assert f"+ {item.hex()}" in out


def test_decode_undersized_sketch_exit_code(item_files, tmp_path, capsys):
    file_a, file_b, *_ = item_files
    sketch_path = tmp_path / "tiny.sketch"
    main(["--item-size", "8", "sketch", str(file_a), "-o", str(sketch_path),
          "--symbols", "4"])
    code = main(["--item-size", "8", "decode", str(sketch_path), str(file_b)])
    out = capsys.readouterr().out
    assert code == 3
    assert "NO" in out


def test_estimate_command(item_files, capsys):
    file_a, file_b, *_ = item_files
    code = main(["--item-size", "8", "estimate", str(file_a), str(file_b)])
    out = capsys.readouterr().out
    assert code == 0
    assert "true difference      : 12" in out


def test_estimate_rejects_different_item_sizes(tmp_path, capsys):
    """``estimate`` refuses the pair ``reconcile`` refuses (regression)."""
    a = tmp_path / "a.hex"
    b = tmp_path / "b.hex"
    a.write_text("aabbccdd\n11223344\n")
    b.write_text("aabbccddee\n1122334455\n")
    code = main(["--format", "hex", "estimate", str(a), str(b)])
    assert code == 2
    assert "different sizes" in capsys.readouterr().err


def test_estimate_rejects_duplicate_items(tmp_path, capsys):
    """A duplicated line cancels itself in the strata cells, so the
    estimate would read 0 beside a true difference of 1 (regression)."""
    a = tmp_path / "a.hex"
    b = tmp_path / "b.hex"
    a.write_text("aabbccdd\n11223344\n11223344\n")
    b.write_text("aabbccdd\n")
    code = main(["--format", "hex", "estimate", str(a), str(b)])
    assert code == 2
    assert "duplicate items" in capsys.readouterr().err


def test_hex_format(tmp_path, capsys):
    a = tmp_path / "a.hex"
    b = tmp_path / "b.hex"
    a.write_text("# comment\naabbccdd\n11223344\n")
    b.write_text("11223344\ndeadbeef\n")
    code = main(["--format", "hex", "reconcile", str(a), str(b)])
    out = capsys.readouterr().out
    assert code == 0
    assert "difference      : 2" in out


def test_hex_mixed_sizes_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.hex"
    bad.write_text("aabb\naabbcc\n")
    code = main(["--format", "hex", "estimate", str(bad), str(bad)])
    assert code == 2
    assert "mixed sizes" in capsys.readouterr().err


def test_binary_needs_item_size(tmp_path, capsys):
    f = tmp_path / "x.bin"
    f.write_bytes(bytes(16))
    code = main(["reconcile", str(f), str(f)])
    assert code == 2
    assert "--item-size" in capsys.readouterr().err


def test_binary_partial_record_rejected(tmp_path, capsys):
    f = tmp_path / "x.bin"
    f.write_bytes(bytes(17))
    code = main(["--item-size", "8", "reconcile", str(f), str(f)])
    assert code == 2


def test_missing_file(tmp_path, capsys):
    code = main(
        ["--item-size", "8", "reconcile", str(tmp_path / "no"), str(tmp_path / "no")]
    )
    assert code == 2
    assert "no such file" in capsys.readouterr().err


def test_duplicate_items_rejected(tmp_path, capsys):
    f = tmp_path / "dup.bin"
    f.write_bytes(bytes(8) + bytes(8))
    code = main(["--item-size", "8", "reconcile", str(f), str(f)])
    assert code == 2
    assert "duplicate" in capsys.readouterr().err


def test_key_mismatch_between_sketch_and_decode(item_files, tmp_path, capsys):
    """Different hash keys make streams incompatible — decode fails to
    terminate within the sketch rather than returning wrong data."""
    file_a, file_b, *_ = item_files
    sketch_path = tmp_path / "a.sketch"
    main(["--item-size", "8", "--key", "00" * 16, "sketch", str(file_a),
          "-o", str(sketch_path), "--symbols", "64"])
    code = main(["--item-size", "8", "--key", "ff" * 16, "decode",
                 str(sketch_path), str(file_b)])
    assert code == 3  # undecodable, never wrong


def test_read_items_helper(tmp_path):
    f = tmp_path / "r.bin"
    f.write_bytes(bytes(range(16)))
    items = read_items(f, 4, "bin")
    assert items == [bytes([0, 1, 2, 3]), bytes([4, 5, 6, 7]),
                     bytes([8, 9, 10, 11]), bytes([12, 13, 14, 15])]
    with pytest.raises(CliError):
        read_items(f, 5, "bin")


# --- one CLI config: service interop, typed failures, structure ------------


def _hex_file(path, items):
    path.write_text("".join(f"{item.hex()}\n" for item in items))
    return path


def _cli_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    existing = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + existing if existing else ""))


def test_cli_serve_interoperates_with_default_library_sync(tmp_path, rng):
    """``repro serve`` with default flags answers a default library
    ``sync_once``: an unset ``--hasher`` leaves the service's SipHash
    default in force instead of pinning BLAKE2b (regression)."""
    shared = [rng.randbytes(8) for _ in range(120)]
    only_server = {rng.randbytes(8) for _ in range(5)}
    only_client = {rng.randbytes(8) for _ in range(3)}
    path = _hex_file(tmp_path / "server.hex", shared + sorted(only_server))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "--format", "hex", "serve", str(path),
         "--max-sessions", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(), text=True,
    )
    try:
        banner = proc.stdout.readline()
        match = re.search(r"on ([\d.]+):(\d+)", banner)
        assert match, banner + proc.stderr.read()
        result = sync_once(
            match.group(1), int(match.group(2)), shared + sorted(only_client)
        )
        assert result.only_in_server == only_server
        assert result.only_in_client == only_client
        assert proc.wait(timeout=30) == 0
        assert "served 1 sessions (0 dropped)" in proc.stdout.read()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def test_cli_sync_tcp_interoperates_with_default_server(tmp_path, rng, capsys):
    """``repro sync --transport tcp`` with default flags reconciles
    against a default ``ReconciliationServer`` (regression)."""
    shared = [rng.randbytes(8) for _ in range(120)]
    only_server = sorted(rng.randbytes(8) for _ in range(4))
    only_client = sorted(rng.randbytes(8) for _ in range(2))
    path = _hex_file(tmp_path / "client.hex", shared + only_client)

    async def scenario() -> int:
        server = ReconciliationServer(shared + only_server, num_shards=2)
        _, port = await server.start()
        try:
            return await asyncio.to_thread(
                main,
                ["--format", "hex", "sync", str(path), "--port", str(port),
                 "--show-items"],
            )
        finally:
            await server.close()

    assert asyncio.run(scenario()) == 0
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("  ")] == (
        [f"  + {item.hex()}" for item in only_server]
        + [f"  - {item.hex()}" for item in only_client]
    )


def _assert_one_error_line(capsys, needle):
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.startswith("error: "), err
    assert needle in err and "Traceback" not in err


def test_serve_data_dir_shard_mismatch_is_a_typed_error(tmp_path, rng, capsys):
    items = [rng.randbytes(8) for _ in range(40)]
    path = _hex_file(tmp_path / "items.hex", items)
    open_backend(items, num_shards=2, data_dir=tmp_path / "store").close()
    code = main(["--format", "hex", "serve", str(path), "--data-dir",
                 str(tmp_path / "store"), "--shards", "3"])
    assert code == 2
    _assert_one_error_line(capsys, "store holds 2 shards, caller asked for 3")


def test_serve_corrupt_manifest_is_a_typed_error(tmp_path, rng, capsys):
    path = _hex_file(tmp_path / "items.hex", [rng.randbytes(8) for _ in range(40)])
    store = tmp_path / "store"
    store.mkdir()
    (store / "MANIFEST.json").write_text("garbage\n")
    code = main(["--format", "hex", "serve", str(path), "--data-dir", str(store)])
    assert code == 2
    _assert_one_error_line(capsys, "MANIFEST.json")


def test_decode_garbage_sketch_is_a_typed_error(item_files, tmp_path, rng, capsys):
    _, file_b, *_ = item_files
    sketch_path = tmp_path / "garbage.sketch"
    sketch_path.write_bytes(rng.randbytes(200))
    code = main(["--item-size", "8", "decode", str(sketch_path), str(file_b)])
    assert code == 2
    _assert_one_error_line(capsys, "bad stream magic")


# Every subcommand's options and defaults, as the CLI has always declared
# them.  The three codec flags were the exception: they defaulted to the
# library's BLAKE2b codec and now default to unset (``None``), so each
# host's own library default applies.
PARSER_DEFAULTS = {
    "": {
        "--item-size": None, "--format": "bin", "--hasher": "blake2b",
        "--key": "000102030405060708090a0b0c0d0e0f", "--checksum-size": 8,
    },
    "sketch": {"input": None, "-o/--output": None, "--symbols": None},
    "decode": {"sketch": None, "local": None, "--show-items": False},
    "reconcile": {
        "file_a": None, "file_b": None, "--scheme": "riblt",
        "--difference-bound": None, "--max-symbols": None, "--show-items": False,
    },
    "serve": {
        "input": None, "--data-dir": None, "--checkpoint-every": None,
        "--host": "127.0.0.1", "--port": 0, "--shards": 4, "--scheme": "riblt",
        "--block-size": 64, "--max-symbols": 1 << 17, "--max-sessions": None,
        "--workers": 1, "--max-clients": None,
    },
    "chaos": {
        "input": None, "--host": "127.0.0.1", "--workers": 2, "--shards": 0,
        "--block-size": 64, "--max-symbols": 1 << 17, "--max-clients": None,
        "--schedule": None, "--seed": 0, "--max-conns": None,
    },
    "sync": {
        "input": None, "--transport": "tcp", "--host": "127.0.0.1",
        "--port": None, "--peer": None, "--scheme": "riblt", "--push": False,
        "--max-symbols": None, "--difference-bound": None, "--bandwidth": 20e6,
        "--delay": 0.05, "--loss": 0.0, "--seed": 0, "--show-items": False,
        "-o/--output": None,
    },
    "gossip": {
        "--nodes": 32, "--set-size": 512, "--diff": 0.01, "--topology": "random",
        "--degree": 4, "--fanout": 2, "--transport": "memory", "--max-rounds": 32,
        "--seed": 0, "--bandwidth": 20e6, "--delay": 0.001, "--loss": 0.0,
    },
    "estimate": {"file_a": None, "file_b": None},
    "schemes": {},
}
CODEC_FLAGS = ("--hasher", "--key", "--checksum-size")


def test_cli_options_and_defaults_match_the_pinned_table():
    def table(parser):
        return {
            "/".join(action.option_strings) or action.dest: action.default
            for action in parser._actions
            if not isinstance(action, (argparse._HelpAction, argparse._SubParsersAction))
        }

    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    actual = {"": table(parser)} | {
        name: table(subparser) for name, subparser in sub.choices.items()
    }
    expected = {name: dict(opts) for name, opts in PARSER_DEFAULTS.items()}
    for flag in CODEC_FLAGS:
        expected[""][flag] = None
    assert actual == expected
    assert list(actual) == list(expected)  # subcommand order too


def test_gossip_forwards_the_codec_flags(monkeypatch, capsys):
    """``repro gossip`` builds its nodes with the global codec flags: two
    hashers or two keys give different key probes, and ``--checksum-size``
    reaches the nodes' codec.  Unset flags keep the library default."""
    import repro.gossip as gossip

    handles = []
    make_nodes = gossip.make_nodes

    def spy(node_sets, **params):
        nodes = make_nodes(node_sets, **params)
        handles.append(nodes[0].handle)
        return nodes

    monkeypatch.setattr(gossip, "make_nodes", spy)
    mesh = ["gossip", "--nodes", "3", "--set-size", "32", "--diff", "0.1"]
    for flags in (
        [],
        ["--hasher", "siphash"],
        ["--hasher", "siphash", "--key", "ab" * 16],
        ["--checksum-size", "4"],
    ):
        assert main([*flags, *mesh]) == 0
    capsys.readouterr()
    default, siphash, keyed, narrow = handles
    assert default.params.hasher == "blake2b"
    assert siphash.params.hasher == "siphash" and keyed.params.key == bytes.fromhex(
        "ab" * 16
    )
    assert len({default.key_probe, siphash.key_probe, keyed.key_probe}) == 3
    assert narrow.codec.checksum_size == 4 and default.codec.checksum_size == 8


def test_one_cli_config_in_src():
    """``cli.py`` keeps one CLI config: every option string is declared
    once, one ``asyncio.run`` hosts every server, no command catches a
    failure family ``main`` already maps to ``error: ...`` / exit 2 (the
    item reader keeps its per-line hex error), and the codec flags
    repeat no library default."""
    tree = ast.parse(Path(cli.__file__).read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    option = re.compile(r"^--?[a-z][a-z0-9-]*$")
    declared = collections.Counter(
        arg.value
        for call in calls
        for arg in call.args
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
        and option.match(arg.value)
    )
    assert declared and max(declared.values()) == 1, {
        flag: n for flag, n in declared.items() if n > 1
    }
    runs = [
        call for call in calls
        if isinstance(call.func, ast.Attribute) and call.func.attr == "run"
        and isinstance(call.func.value, ast.Name) and call.func.value.id == "asyncio"
    ]
    assert len(runs) == 1

    scopes = (cli, repro.api, repro.service, repro.chaos, repro.cluster,
              repro.durable, builtins)

    def resolve(node):
        names = node.elts if isinstance(node, ast.Tuple) else [node]
        for name in names:
            label = name.attr if isinstance(name, ast.Attribute) else name.id
            yield next(getattr(s, label) for s in scopes if hasattr(s, label))

    functions = {
        node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    }
    mapped = tuple(
        cls
        for handler in ast.walk(functions["main"])
        if isinstance(handler, ast.ExceptHandler)
        and isinstance(handler.type, ast.Tuple)
        for cls in resolve(handler.type)
    )
    assert {cls.__name__ for cls in mapped} >= {
        "ReconcileError", "ServiceError", "FrameError", "DurabilityError",
        "ClusterError", "ValueError", "ConnectionError", "OSError",
    }
    for name, function in functions.items():
        if name in ("main", "read_items"):
            continue
        for handler in ast.walk(function):
            if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
                caught = [cls for cls in resolve(handler.type) if issubclass(cls, mapped)]
                assert not caught, f"{name} catches {caught}: let main map it"

    parser = cli.build_parser()
    for flag in CODEC_FLAGS:
        assert parser._option_string_actions[flag].default is None, flag
