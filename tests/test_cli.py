"""CLI end-to-end tests over temp files."""

import pytest

from repro.cli import CliError, main, read_items


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
