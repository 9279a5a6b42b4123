"""CodedSymbolBank: lane semantics, wire pack/unpack, batch scatter."""

import pytest

from repro import engine
from repro.core import cellbank
from repro.core.cellbank import CodedSymbolBank, scatter_walk_scalar
from repro.core.coded import CodedSymbol
from repro.core.mapping import IndexGenerator
from repro.core.params import DEFAULT_ALPHA
from repro.core.symbols import SymbolCodec

from helpers import engine_lane


def bank_of(triples):
    bank = CodedSymbolBank()
    for s, k, c in triples:
        bank.append(s, k, c)
    return bank


def test_from_cells_round_trip():
    cells = [CodedSymbol(1, 2, 3), CodedSymbol(0xFF, 0xAB, -1)]
    bank = CodedSymbolBank.from_cells(cells)
    assert len(bank) == 2
    assert bank.cells() == cells
    assert bank.cell_at(1) == cells[1]
    assert list(bank) == cells


def test_lane_length_mismatch_rejected():
    with pytest.raises(ValueError):
        CodedSymbolBank([1], [], [])


def test_zeros_and_is_all_zero():
    bank = CodedSymbolBank.zeros(4)
    assert len(bank) == 4
    assert bank.is_all_zero()
    bank.counts[2] = 1
    assert not bank.is_all_zero()


def test_copy_and_slice_are_value_copies():
    bank = bank_of([(1, 2, 3), (4, 5, 6), (7, 8, 9)])
    dup = bank.copy()
    cut = bank.slice(1, 3)
    bank.sums[1] = 99
    assert dup.sums[1] == 4
    assert cut.sums == [4, 7]


def test_subtract_matches_cell_subtract():
    a = bank_of([(0b1100, 7, 2), (5, 5, 1)])
    b = bank_of([(0b1010, 3, 1), (5, 5, 1)])
    diff = a.subtract(b)
    expected = [x.subtract(y) for x, y in zip(a.cells(), b.cells())]
    assert diff.cells() == expected
    a.subtract_in_place(b)
    assert a.cells() == expected


def test_subtract_size_mismatch_rejected():
    with pytest.raises(ValueError):
        CodedSymbolBank.zeros(2).subtract(CodedSymbolBank.zeros(3))
    with pytest.raises(ValueError):
        CodedSymbolBank.zeros(2).subtract_in_place(CodedSymbolBank.zeros(3))


def test_apply_batch_matches_per_cell_apply():
    bank = CodedSymbolBank.zeros(8)
    cells = [CodedSymbol() for _ in range(8)]
    for idx in (0, 3, 5):
        cells[idx].apply(0xDEAD, 0xBEEF, 1)
    bank.apply_batch(0xDEAD, 0xBEEF, 1, [0, 3, 5])
    assert bank.cells() == cells
    bank.apply_batch(0xDEAD, 0xBEEF, -1, [0, 3, 5])
    assert bank.is_all_zero()


def test_extend_and_append():
    bank = bank_of([(1, 1, 1)])
    bank.extend(bank_of([(2, 2, 2)]))
    bank.append_cell(CodedSymbol(3, 3, 3))
    bank.extend_zeros(1)
    assert bank.sums == [1, 2, 3, 0]
    assert bank.counts == [1, 2, 3, 0]


@pytest.mark.parametrize("symbol_size,checksum_size", [(8, 8), (16, 4), (3, 8)])
def test_pack_unpack_round_trip(rng, symbol_size, checksum_size):
    codec = SymbolCodec(symbol_size, checksum_size=checksum_size)
    bank = CodedSymbolBank()
    for _ in range(17):
        bank.append(
            int.from_bytes(rng.randbytes(symbol_size), "little"),
            int.from_bytes(rng.randbytes(checksum_size), "little"),
            rng.randint(-5, 5),
        )
    blob = bank.pack(codec)
    stride = symbol_size + checksum_size + CodedSymbolBank.COUNT_BYTES
    assert len(blob) == 17 * stride
    assert CodedSymbolBank.unpack(blob, codec) == bank


def test_unpack_rejects_ragged_blob():
    codec = SymbolCodec(8)
    with pytest.raises(ValueError):
        CodedSymbolBank.unpack(b"\x00" * 25, codec)


def test_bank_equality():
    a = bank_of([(1, 2, 3)])
    assert a == bank_of([(1, 2, 3)])
    assert a != bank_of([(1, 2, 4)])
    assert a.__eq__(object()) is NotImplemented


# -- scatter-walk engines --------------------------------------------------


def reference_walk(seeds, alphas, hi):
    """Per-symbol IndexGenerator walks — the ground truth."""
    cells = [CodedSymbol() for _ in range(hi)]
    ends = []
    for (value, checksum), alpha in zip(seeds, alphas):
        gen = IndexGenerator(checksum, alpha)
        for idx in gen.indices_below(hi):
            cells[idx].apply(value, checksum, 1)
        ends.append((gen.current, gen.state))
    return cells, ends


def walk_jobs(seeds):
    indices = [0] * len(seeds)
    states = [checksum for _, checksum in seeds]
    values = [value for value, _ in seeds]
    checksums = [checksum for _, checksum in seeds]
    directions = [1] * len(seeds)
    return indices, states, values, checksums, directions


@pytest.mark.parametrize("alpha", [DEFAULT_ALPHA, 0.11, 0.82])
def test_scatter_walk_scalar_matches_index_generator(rng, alpha):
    hi = 96
    seeds = [
        (int.from_bytes(rng.randbytes(8), "little"), rng.getrandbits(64))
        for _ in range(40)
    ]
    expected_cells, expected_ends = reference_walk(seeds, [alpha] * 40, hi)
    bank = CodedSymbolBank.zeros(hi)
    indices, states, values, checksums, _ = walk_jobs(seeds)
    touched: list[int] = []
    scatter_walk_scalar(
        bank.sums,
        bank.checksums,
        bank.counts,
        indices,
        states,
        values,
        checksums,
        1,
        [alpha] * 40,
        hi,
        touched=touched,
    )
    assert bank.cells() == expected_cells
    assert list(zip(indices, states)) == expected_ends
    assert len(touched) == sum(c.count for c in expected_cells)
    # alphas=None is "every symbol at α = 0.5"; direction -1 peels back out
    if alpha == DEFAULT_ALPHA:
        indices, states, values, checksums, _ = walk_jobs(seeds)
        scatter_walk_scalar(
            bank.sums, bank.checksums, bank.counts,
            indices, states, values, checksums, -1, None, hi,
        )
        assert bank.is_all_zero()
        assert list(zip(indices, states)) == expected_ends
    assert all(i < hi for i in touched)


def scatter_walk_numpy(
    sums, checksums, counts, indices, states, values, csums, directions, hi,
    base=0, touched=None,
):
    """``scatter_walk_arrays`` over Python-int walk state, the way the
    decoder calls it: ``indices``/``states`` are advanced in place."""
    np = engine.np
    idx, state = cellbank.scatter_walk_arrays(
        sums,
        checksums,
        counts,
        np.array(indices, np.int64),
        np.array(states, np.uint64),
        cellbank.lanes_from_ints(values, 8 * sums.shape[1]),
        np.array(csums, np.uint64),
        np.array(directions, np.int64),
        hi,
        base=base,
        touched=touched,
    )
    indices[:], states[:] = idx.tolist(), state.tolist()


def test_scatter_walk_numpy_matches_scalar(rng):
    check_scatter_walk_numpy_matches_scalar(rng, 8)


@pytest.mark.parametrize("width", [9, 20, 92])
def test_scatter_walk_numpy_matches_scalar_multi_lane(rng, width):
    """The same kernel on 2, 3 and 12 uint64 lanes per symbol."""
    check_scatter_walk_numpy_matches_scalar(rng, width)


def check_scatter_walk_numpy_matches_scalar(rng, width):
    np = pytest.importorskip("numpy")
    hi = 128
    seeds = [
        (int.from_bytes(rng.randbytes(width), "little"), rng.getrandbits(64))
        for _ in range(64)
    ]
    expected_cells, expected_ends = reference_walk(seeds, [DEFAULT_ALPHA] * 64, hi)
    sums = np.zeros((hi, -(-width // 8)), dtype=np.uint64)
    checksums = np.zeros(hi, dtype=np.uint64)
    counts = np.zeros(hi, dtype=np.int64)
    indices, states, values, symbol_checksums, directions = walk_jobs(seeds)
    touched: list = []
    scatter_walk_numpy(
        sums,
        checksums,
        counts,
        indices,
        states,
        values,
        symbol_checksums,
        directions,
        hi,
        touched=touched,
    )
    got = [
        CodedSymbol(s, int(k), int(c))
        for s, k, c in zip(
            cellbank.ints_from_lanes(sums), checksums.tolist(), counts.tolist()
        )
    ]
    assert got == expected_cells
    assert list(zip(indices, states)) == expected_ends
    flat = np.concatenate([slot for slot, _ in touched])
    assert len(flat) == sum(c.count for c in expected_cells)


def test_scatter_walk_numpy_base_offset(rng):
    """Scatters land relative to ``base`` when lanes cover a suffix region."""
    np = pytest.importorskip("numpy")
    hi = 64
    base = 40
    seeds = [
        (int.from_bytes(rng.randbytes(8), "little"), rng.getrandbits(64))
        for _ in range(16)
    ]
    # Reference: full-range walk, then keep only [base, hi).
    expected_cells, _ = reference_walk(seeds, [DEFAULT_ALPHA] * 16, hi)
    # Advance each job to its first index >= base first.
    indices, states, values, checksums, directions = walk_jobs(seeds)
    scratch = CodedSymbolBank.zeros(base)
    scatter_walk_scalar(
        scratch.sums,
        scratch.checksums,
        scratch.counts,
        indices,
        states,
        values,
        checksums,
        1,
        [DEFAULT_ALPHA] * 16,
        base,
    )
    sums = np.zeros((hi - base, 1), dtype=np.uint64)
    cks = np.zeros(hi - base, dtype=np.uint64)
    counts = np.zeros(hi - base, dtype=np.int64)
    scatter_walk_numpy(
        sums, cks, counts, indices, states, values, checksums, directions, hi,
        base=base,
    )
    got = [
        CodedSymbol(int(s), int(k), int(c))
        for s, k, c in zip(sums[:, 0].tolist(), cks.tolist(), counts.tolist())
    ]
    assert got == expected_cells[base:]


def walk_reference(walks, hi, base):
    """Cells ``[base, hi)``, parked ``(idx, state)`` pairs and touched
    lane slots (``index − base``) of per-row ``IndexGenerator`` walks:
    ``walks`` holds one ``(value, checksum, idx, state, alpha,
    direction)`` per row."""
    cells = [CodedSymbol() for _ in range(hi - base)]
    ends, touched = [], []
    for value, checksum, idx, state, alpha, direction in walks:
        gen = IndexGenerator(0, alpha)
        gen.current, gen.state = idx, state
        for index in gen.indices_below(hi):
            cells[index - base].apply(value, checksum, direction)
            touched.append(index - base)
        ends.append((gen.current, gen.state))
    return cells, ends, sorted(touched)


def run_kernel(walks, hi, base, width, dirs, touched=None):
    """The same walks through one ``scatter_walk_arrays`` call; ``dirs``
    is the one direction as an int, or ``None`` for the per-row column;
    ``touched`` (a fresh list when not given) is handed to the call."""
    np = pytest.importorskip("numpy")
    values, checksums, idx, state, alphas, directions = map(list, zip(*walks))
    k = cellbank.lane_count(width)
    sums = np.zeros((hi - base, k), dtype=np.uint64)
    cks = np.zeros(hi - base, dtype=np.uint64)
    counts = np.zeros(hi - base, dtype=np.int64)
    touched = [] if touched is None else touched
    end_idx, end_state = cellbank.scatter_walk_arrays(
        sums,
        cks,
        counts,
        np.array(idx, dtype=np.int64),
        np.array(state, dtype=np.uint64),
        cellbank.lanes_from_ints(values, width),
        np.array(checksums, dtype=np.uint64),
        np.array(directions, dtype=np.int64) if dirs is None else dirs,
        hi,
        base=base,
        touched=touched,
        alphas=np.array(alphas) if set(alphas) != {DEFAULT_ALPHA} else None,
    )
    cells = [
        CodedSymbol(s, k_, c)
        for s, k_, c in zip(cellbank.ints_from_lanes(sums), cks.tolist(), counts.tolist())
    ]
    flat = np.concatenate([slot for slot, _ in touched]).tolist() if touched else []
    return cells, list(zip(end_idx.tolist(), end_state.tolist())), sorted(flat)


@pytest.mark.parametrize("width", [8, 92])  # 1 and 12 uint64 lanes
@pytest.mark.parametrize("irregular", [False, True])
@pytest.mark.parametrize("rows", [cellbank.NUMPY_TAIL_JOBS - 1, 200])
@pytest.mark.parametrize("parked", [False, True])
@pytest.mark.parametrize("direction", [1, -1, None])
def test_walk_kernel_matches_index_generator(
    rng, monkeypatch, width, irregular, rows, parked, direction
):
    """The lock-step kernel and its per-edge tail, differentially against
    per-row ``IndexGenerator`` walks: cold walks from index 0 or walks
    resumed from parked ``(idx, state)`` pairs over a nonzero ``base``;
    one direction either way or a mixed column; α = 0.5 or an irregular
    α vector; 1 or 12 lanes; a batch on either side of
    ``NUMPY_TAIL_JOBS``.  The small irregular α rows outrun the tail's
    first draw chunk, so a second one is drawn."""
    pytest.importorskip("numpy")
    base, hi = (700, 3000) if parked else (0, 3000)
    choices = [DEFAULT_ALPHA, 0.11, 0.68, 0.82] if irregular else [DEFAULT_ALPHA]
    walks = []
    for _ in range(rows):
        checksum = rng.getrandbits(64)
        alpha = rng.choice(choices)
        gen = IndexGenerator(checksum, alpha)
        gen.indices_below(base if parked else 0)
        sign = direction if direction is not None else rng.choice((1, -1))
        walks.append(
            (rng.getrandbits(8 * width), checksum, gen.current, gen.state, alpha, sign)
        )
    draws = []
    unit_draws = cellbank._unit_draws

    def spy(seeds, done, count):
        draws.append(done)
        return unit_draws(seeds, done, count)

    monkeypatch.setattr(cellbank, "_unit_draws", spy)
    got = run_kernel(walks, hi, base, width, direction)
    assert got == walk_reference(walks, hi, base)
    assert draws, "the tail finished no straggler"
    if irregular and rows < cellbank.NUMPY_TAIL_JOBS:
        assert max(draws) > 0, "no walk needed a second draw chunk"


def state_before_draw(r_bits: int) -> int:
    """A splitmix64 state whose next draw has top 53 bits ``r_bits``:
    the finaliser inverted (xorshifts undone, multipliers inverted mod
    2^64), then one ``GAMMA`` step taken back."""
    from repro.hashing.prng import GAMMA, MASK64, MIX1, MIX2

    z = (r_bits << 11) | 0x5A5
    z ^= z >> 31
    z = z * pow(MIX2, -1, 1 << 64) & MASK64
    z ^= (z >> 27) ^ (z >> 54)
    z = z * pow(MIX1, -1, 1 << 64) & MASK64
    z ^= (z >> 30) ^ (z >> 60)
    return (z - GAMMA) & MASK64


@pytest.mark.parametrize("rows", [8, 40])  # tail only; lock-step rounds first
def test_walk_kernel_far_tail_clamp(rng, rows):
    """A draw of r = 1 − 2^-53 at index ~2^40 steps past ``MAX_INDEX``;
    the walk must fall back to a unit step and stay live below ``hi``,
    exactly as ``IndexGenerator.next_index`` does."""
    pytest.importorskip("numpy")
    base = 1 << 40
    hi = base + 64
    state = state_before_draw((1 << 53) - 1)
    probe = IndexGenerator(0)
    probe.current, probe.state = base, state
    assert probe.next_index() == base + 1  # the clamp fired
    walks = [
        (rng.getrandbits(64), rng.getrandbits(64), base + j, state, DEFAULT_ALPHA, 1)
        for j in range(rows)
    ]
    got = run_kernel(walks, hi, base, 8, 1)
    assert got == walk_reference(walks, hi, base)
    assert sum(c.count for c in got[0]) >= 2 * rows  # every row took the unit step


def parked_walks(rng, count, base, choices, width):
    """``count`` walks (direction 0) resumed at their first index ≥ ``base``."""
    walks = []
    for _ in range(count):
        checksum = rng.getrandbits(64)
        alpha = rng.choice(choices)
        gen = IndexGenerator(checksum, alpha)
        gen.indices_below(base)
        value = rng.getrandbits(8 * width)
        walks.append((value, checksum, gen.current, gen.state, alpha, 0))
    return walks


@pytest.mark.parametrize("width", [8, 92])  # 1 and 12 uint64 lanes
@pytest.mark.parametrize("irregular", [False, True])
@pytest.mark.parametrize("rows", [cellbank.NUMPY_TAIL_JOBS - 1, 300])
@pytest.mark.parametrize("parked", [False, True])
@pytest.mark.parametrize("direction", [1, -1])
def test_walk_kernel_multi_bank_matches_per_bank_calls(
    rng, width, irregular, rows, parked, direction
):
    """Banks of unequal prefixes, each walked by its own kernel call on
    its own lanes, match per-row ``IndexGenerator`` walks: rows resumed
    from parked states over a nonzero ``base``, a 0-cell bank (its rows
    are not read and keep their parked walks), irregular α, 1 and 12
    lanes, both directions, and at 31 rows a batch below
    ``NUMPY_TAIL_JOBS`` in every bank, which only the per-edge tail walks."""
    pytest.importorskip("numpy")
    spans = [(200, 760), (300, 300), (500, 1500), (10, 64)] if parked else [
        (0, 760), (0, 0), (0, 1500), (0, 64)
    ]
    shares = [2, 1, 1, 2]
    choices = [DEFAULT_ALPHA, 0.11, 0.68, 0.82] if irregular else [DEFAULT_ALPHA]
    for (base, hi), share in zip(spans, shares):
        walks = parked_walks(rng, rows * share // sum(shares), base, choices, width)
        signed = [w[:5] + (direction,) for w in walks]
        got = run_kernel(signed, hi, base, width, direction)[:2]
        assert got == walk_reference(signed, hi, base)[:2]


@pytest.mark.parametrize("rows", [10, 100])  # tail only; rounds first
def test_walk_kernel_touched_records_lane_slots(monkeypatch, rng, rows):
    """``touched`` receives the lane slots (``index − base``) the edges
    were folded into, not walk indices, each beside the row that folded
    it: on banks over a nonzero ``base``, on the lock-step rounds and the
    per-edge tail alike, it is exactly what ``fold_edges`` wrote — the
    rows a decoder wave reads its next peel candidates from, and the
    edges its stop point is found on.  Every edge of a call, rounds and
    tail together, is folded by ONE ``fold_edges`` call."""
    np = pytest.importorskip("numpy")
    folded = []
    fold = cellbank.fold_edges

    def spy(sums, checksums, counts, slot, *rest):
        folded.append(np.array(slot, dtype=np.int64))
        return fold(sums, checksums, counts, slot, *rest)

    monkeypatch.setattr(cellbank, "fold_edges", spy)
    for base, hi in [(200, 760), (0, 500), (10, 300)]:
        walks = parked_walks(rng, rows, base, [DEFAULT_ALPHA], 8)
        walks = [w[:5] + (1,) for w in walks]
        folded.clear()
        touched = []
        run_kernel(walks, hi, base, 8, 1, touched=touched)
        assert len(folded) == len(touched) == 1
        (slots, edge_rows), = touched
        assert sorted(slots.tolist()) == sorted(folded[0].tolist())
        expected = [
            (row, slot)
            for row, walk in enumerate(walks)
            for slot in walk_reference([walk], hi, base)[2]
        ]
        assert sorted(zip(edge_rows.tolist(), slots.tolist())) == sorted(expected)


@pytest.mark.parametrize("rows", [8, 40])  # tail only; lock-step rounds first
def test_walk_kernel_far_tail_clamp_per_row_hi(rng, rows):
    """The ``MAX_INDEX`` unit-step clamp at two ends: walks at index ~2^40
    end at ``hi`` = base + 64 or base + 24, one call each, and each
    clamped walk stays live below its call's ``hi``, while one parked at
    or past it is not read."""
    pytest.importorskip("numpy")
    base = 1 << 40
    state = state_before_draw((1 << 53) - 1)
    for hi in (base + 64, base + 24):
        walks = [
            (rng.getrandbits(64), rng.getrandbits(64), base + j, state, 0.5, 1)
            for j in range(rows)
        ]
        cells, ends = run_kernel(walks, hi, base, 8, 1)[:2]
        assert (cells, ends) == walk_reference(walks, hi, base)[:2]
        assert sum(c.count for c in cells) >= sum(base + j < hi for j in range(rows))


def test_numpy_lane_eligibility(rng):
    """The form an encoder's source store takes for a block walk: NumPy
    columns exactly when the codec's symbols ride the lanes — §8
    irregular codecs included, with an α column — lists otherwise."""
    from repro.core.encoder import RatelessEncoder
    from repro.core.irregular import PAPER_IRREGULAR

    from helpers import make_items

    def store_of(codec):
        encoder = RatelessEncoder(codec, make_items(rng, 16, codec.symbol_size))
        encoder.produce_block(4)
        return encoder._store

    with engine_lane(False):
        assert not cellbank.numpy_block_eligible(SymbolCodec(8))
        assert not store_of(SymbolCodec(8)).vector
    if engine.np is None:
        return
    with engine_lane(True):
        cut = cellbank.LANE_MAX_SYMBOL_BYTES
        for size in (8, 92, cut):  # 92: k uint64 lanes
            assert cellbank.numpy_block_eligible(SymbolCodec(size))
            assert store_of(SymbolCodec(size)).vector
        assert not cellbank.numpy_block_eligible(SymbolCodec(cut + 1))  # scalar engine
        assert not store_of(SymbolCodec(cut + 1)).vector
        irregular = SymbolCodec(8, irregular=PAPER_IRREGULAR)
        assert cellbank.numpy_block_eligible(irregular)
        store = store_of(irregular)
        assert store.vector and store.alphas is not None
        # a regular codec's rows carry no α column at all
        assert store_of(SymbolCodec(8)).alphas is None


# -- Python ints ↔ uint64 lanes --------------------------------------------


@pytest.mark.parametrize("size", [1, 7, 8, 9, 16, 17, 92])
def test_lane_converters_round_trip(rng, size):
    np = pytest.importorskip("numpy")
    top = (1 << (8 * size)) - 1
    values = [0, top] + [rng.getrandbits(8 * size) for _ in range(40)]
    lanes = cellbank.lanes_from_ints(values, size)
    assert lanes.shape == (len(values), cellbank.lane_count(size))
    assert lanes.dtype == np.dtype("<u8")
    assert cellbank.ints_from_lanes(lanes) == values
    # a field's wire bytes are the first `size` bytes of its lanes ...
    items = [v.to_bytes(size, "little") for v in values]
    assert lanes.view(np.uint8)[:, :size].tobytes() == b"".join(items)
    # ... the padding beyond them is zero, and bytes → lanes agrees
    assert not lanes.view(np.uint8)[:, size:].any()
    assert (cellbank.lanes_from_bytes(items, size) == lanes).all()
    matrix = np.frombuffer(b"".join(items), dtype=np.uint8).reshape(-1, size)
    assert (cellbank.lanes_from_bytes(matrix, size) == lanes).all()
    assert cellbank.lanes_from_ints([], size).shape == (0, cellbank.lane_count(size))


@pytest.mark.parametrize("size", [1, 7, 8, 9, 16, 17, 92])
@pytest.mark.parametrize("bad", ["too_big", "negative"])
def test_lane_converters_reject_like_to_bytes(size, bad):
    pytest.importorskip("numpy")
    value = 1 << (8 * size) if bad == "too_big" else -1
    with pytest.raises(OverflowError) as canonical:
        value.to_bytes(size, "little")
    with pytest.raises(OverflowError) as got:
        cellbank.lanes_from_ints([5, value], size)
    assert str(got.value) == str(canonical.value)


def test_lanes_from_bytes_rejects_wrong_length_items():
    pytest.importorskip("numpy")
    with pytest.raises(ValueError, match="exactly 9 bytes, got 8"):
        cellbank.lanes_from_bytes([bytes(9), bytes(8)], 9)


# -- one lane representation, shown structurally -----------------------------


def test_one_lane_representation_in_core():
    """Symbol width is decided in exactly one place.

    ``repro.core`` once had three width regimes — one uint64 lane up to
    8 bytes, a ``sums``/``sums_hi`` low/high pair up to 16, Python
    big-ints beyond — threaded through encoder, decoder and wire as
    ``& MASK64`` / ``>> 64`` / ``lo | hi << 64`` splits, and the durable
    snapshot, the IBLT baselines and the codec's batch converter each
    kept a private fourth (``ℓ in (1, 2, 4, 8)``, ``ℓ <= 8``).  Now
    every width the lanes carry is one ``(rows, k)`` matrix and the only
    width test is ``cellbank``'s ``LANE_MAX_SYMBOL_BYTES`` inside its
    one eligibility predicate.  Another regime has to edit this test
    and say why.
    """
    import ast
    import re
    from pathlib import Path

    src = Path(cellbank.__file__).parents[1]
    for path in sorted((src / "core").glob("*.py")):
        text = path.read_text()
        for relic in ("sums_hi", "vals_hi", ">> 64", "<< 64"):
            assert relic not in text, f"{path.name}: {relic!r} is the low/high pair"
    for path in sorted(src.rglob("*.py")):
        assert "_NP_WIDTHS" not in path.read_text(), f"{path.name}: a width whitelist"
    # A symbol/field width compared against a literal byte count (2 or
    # more: ``< 1`` / ``> 0`` are argument checks, not width regimes).
    width = r"(?:symbol_size|ssize|csize|size|width)"
    compare = r"(?:<=|>=|==|!=|<|>)"
    literal = r"(?:[2-9]|\d{2,})\b"
    literal_test = re.compile(
        rf"\b{width}\s*{compare}\s*{literal}|\b{literal}\s*{compare}\s*(?:\w+\.)*{width}\b"
    )
    allowed = {
        # a message of at most 8 bytes is a single SipHash block, so the
        # integer-form batch builds its one padded word from the value
        ("hashing/siphash.py", "siphash24_int_batch"),
        # the int -> lane converter's one-lane fast path: values that
        # fit a uint64 convert with one asarray instead of n to_bytes
        ("core/cellbank.py", "lanes_from_ints"),
    }
    found = set()
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        if not literal_test.search(text):
            continue
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = "\n".join(lines[node.lineno - 1 : node.end_lineno])
                if literal_test.search(body):
                    found.add((path.relative_to(src).as_posix(), node.name))
    assert found == allowed, f"literal symbol-width tests outside the allowlist: {found - allowed}"
    # the predicate itself: one constant, and the only one left (the
    # encoder's source store rides it for irregular codecs too)
    import inspect

    block = inspect.getsource(cellbank.numpy_block_eligible)
    assert "LANE_MAX_SYMBOL_BYTES" in block and not literal_test.search(block)
    assert not hasattr(cellbank, "numpy_lane_eligible")
    assert "sums_hi" not in inspect.signature(cellbank.scatter_walk_arrays).parameters
    assert "vals_hi" not in inspect.signature(cellbank.scatter_walk_arrays).parameters


def test_one_engine_switch_in_src():
    """The engine decision exists once: one module imports NumPy, reads
    the kill switch and assigns ``NUMPY_LANE``; everyone else reads it
    through ``repro.engine`` at call time, and nothing scatters through
    an unbuffered ufunc method (the shared fold kernel replaced those).

    ``analysis/density_evolution.py`` is exempt from the import rule: its
    NumPy/SciPy use is closed-form analysis of §5, not an engine — it
    has no scalar twin and nothing switches it.
    """
    import ast
    import re
    from pathlib import Path

    src = Path(engine.__file__).parent
    texts = {p.relative_to(src).as_posix(): p.read_text() for p in src.rglob("*.py")}

    def modules_with(pattern):
        return {name for name, text in texts.items() if re.search(pattern, text)}

    assert modules_with(r"import numpy") == {"engine.py", "analysis/density_evolution.py"}
    assert modules_with(r"REPRO_NO_NUMPY") == {"engine.py"}
    assign = r"\bNUMPY_LANE\s*=[^=]"
    assert modules_with(assign) == {"engine.py"}
    assert len(re.findall(assign, texts["engine.py"])) == 1
    by_name = {
        name
        for name, text in texts.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.ImportFrom)
        and any(alias.name == "NUMPY_LANE" for alias in node.names)
    }
    assert not by_name, f"NUMPY_LANE imported by value in {by_name}"
    assert not modules_with(r"\.at\(")


def test_one_cell_container_in_src():
    """A stored coded-cell sequence is a ``CodedSymbolBank``, everywhere.

    ``CodedSymbol`` objects are what the per-cell reference API hands
    out, so only that API builds them or converts a bank to and from a
    cell list; sketches, tables and adapters hold banks and use the
    bank's ⊖ / slice / pack / zero test.  The one exception is the
    read-only ``cells`` snapshot property of ``RatelessSketch`` and
    ``CellTable``.
    """
    import ast
    import re
    from pathlib import Path

    src = Path(engine.__file__).parent
    builders = {f"core/{m}.py" for m in ("coded", "cellbank", "encoder", "countless")}
    per_cell_api = {f"core/{m}.py" for m in ("encoder", "decoder", "wire", "cellbank")}
    snapshots = {"core/sketch.py", "baselines/table.py"}
    for path in src.rglob("*.py"):
        name = path.relative_to(src).as_posix()
        text = path.read_text()
        tree = ast.parse(text)
        snapshot_calls: set = set()
        if name in snapshots:
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "cells":
                    decorators = [ast.unparse(d) for d in node.decorator_list]
                    body = [s for s in node.body if not isinstance(s, ast.Expr)]
                    assert decorators == ["property"], name
                    assert len(body) == 1 and isinstance(body[0], ast.Return), name
                    snapshot_calls.update(map(id, ast.walk(node)))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "CodedSymbol":
                assert name in builders, f"{name}:{node.lineno} builds a CodedSymbol"
            if isinstance(func, ast.Attribute) and func.attr in ("from_cells", "cells"):
                assert name in per_cell_api or id(node) in snapshot_calls, (
                    f"{name}:{node.lineno} crosses between a bank and a cell list"
                )
        if name != "core/countless.py":
            assert not re.search(r"self\.\w+[^=\n]*list\[CodedSymbol\]", text), name


def test_one_source_store_in_encoder():
    """An encoder keeps its source symbols in one container.

    ``RatelessEncoder`` once held them twice — per-item entry objects on
    a heap beside a NumPy column pool, with a materialise step between
    them, a second eligibility predicate for the pool, and α = 0.5 hard
    coded on the pool's paths while the heap read the codec's α.  Now
    ``core/encoder.py`` defines the store and the encoder and nothing
    else, only the per-cell reference path (the store's ``fold``, which
    ``produce_next`` and a decoder's per-cell path share, and its lazy
    heap rebuild) touches ``heapq``, and every α comes from
    the codec — ``alpha_for`` or its batch face ``alpha_batch``, which
    answers for a whole ingest batch at once.
    """
    import ast
    from pathlib import Path

    src = Path(engine.__file__).parent
    path = src / "core" / "encoder.py"
    text = path.read_text()
    tree = ast.parse(text)
    classes = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    assert classes == {"SourceStore", "RatelessEncoder"}
    heap_users = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Name) and node.id == "heapq"
    }
    assert heap_users == {"fold", "next_heap"}
    for module in src.rglob("*.py"):
        assert "numpy_lane_eligible" not in module.read_text(), module.name
    # the α source: the codec's α faces into the store's α column,
    # nothing that derives or assumes one (the per-cell stepper is built
    # with no α and only ever handed one from the column)
    for relic in ("DEFAULT_ALPHA", "irregular", "new_mapping", "IndexGenerator.restore"):
        assert relic not in text, f"encoder.py: {relic!r}"
    alpha_reads = {
        (ast.unparse(node.value), node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("alpha_for", "alpha_batch")
    }
    assert alpha_reads and {owner for owner, _ in alpha_reads} <= {"codec", "self.codec"}
    # one batch-face call per ingest batch, never a per-row α read
    assert {face for _, face in alpha_reads} == {"alpha_batch"}

    def is_alpha(node):
        return isinstance(node, ast.Attribute) and node.attr == "alpha"

    alpha_attrs = [node for node in ast.walk(tree) if is_alpha(node)]
    alpha_sets = [
        ast.unparse(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and any(map(is_alpha, node.targets))
    ]
    assert len(alpha_attrs) == len(alpha_sets) and set(alpha_sets) <= {"alphas[row]"}
    steppers = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "IndexGenerator"
    ]
    assert steppers == ["IndexGenerator(0)"]
    floats = [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is float and node.value
    ]
    assert not floats, f"encoder.py: float literals {floats}"


def test_cold_ingest_builds_no_item_objects(monkeypatch):
    """Cold ingest is one array pass from item bytes to store columns.

    Under the vector engine a host's set reaches its first coded block
    without a Python int per item (``to_int_batch``), without a per-row
    α read (``alpha_for``) and without the store's value→row index; the
    first removal builds the index, and the state then matches the set.
    """
    import random

    from repro.service.backends import open_backend

    from helpers import make_items

    if engine.np is None:
        pytest.skip("the array pass is the vector engine's")

    def refuse(*args):
        raise AssertionError("a per-item object on the cold ingest path")

    items = make_items(random.Random(26), 4000)
    gone = set(items[::7])
    with engine_lane(True):
        monkeypatch.setattr(SymbolCodec, "to_int_batch", refuse)
        monkeypatch.setattr(SymbolCodec, "alpha_for", refuse)
        backend = open_backend(items, hasher="siphash", num_shards=4)
        warm = backend.encoder
        warm.cached_block(0, 64)
        assert warm._store._rows is None
        monkeypatch.undo()
        backend.remove_many(sorted(gone))
        model = [i for i in items if i not in gone]
        fresh = open_backend(model, hasher="siphash", num_shards=4).encoder
        assert warm._store._rows is not None
        values = {int.from_bytes(item, "little") for item in model}
        assert set(warm._store.rows) == set(warm.export_rows()[0]) == values
        assert all(item in warm for item in model)
        assert not any(item in warm for item in gone)
        assert warm.cached_block(0, 64) == fresh.cached_block(0, 64)


def test_one_peel_round_per_wave(monkeypatch):
    """One peel wave per read: the client's one decoder takes a read's
    frames in one ``add_coded_block`` call per prefix doubling, whose
    breadth-first peel rounds each make ONE verification hash call — a
    call makes as many walk-kernel calls as hash calls, plus the replay
    (minus one when a last round verifies nothing new) — and fewer hash
    calls in all than the same frames fed one call each.  Structurally,
    ``decoder.py`` has one batch path: ``ingest`` and ``_ingest_numpy``
    are gone, the walk kernels are called only from ``_wave`` and
    ``add_coded_block`` is its one caller; ``InitiatorMachine`` calls
    ``add_coded_block`` once, in its SYMBOLS loop's wave loop, and
    nothing in ``src/`` defines an ``absorb``/``absorb_many`` layer in
    front of it (gossip's round-outcome tally aside).
    """
    import ast
    import random
    from pathlib import Path

    from repro.api import get_scheme
    from repro.core import decoder as decoder_module
    from repro.core.decoder import RatelessDecoder
    from repro.protocol.machine import InitiatorMachine, ResponderMachine
    from repro.service.backends import open_backend

    from helpers import make_items

    hashed, walked = [0], [0]
    verify, kernel = SymbolCodec.checksum_int_batch, decoder_module.scatter_walk_arrays
    peel = RatelessDecoder.add_coded_block

    def counted(codec, values):
        hashed[0] += 1
        return verify(codec, values)

    def walk(*args, **kwargs):
        walked[0] += 1
        return kernel(*args, **kwargs)

    def session(waved):
        """(hash, walk) calls per ``add_coded_block`` call of a 4-shard
        service-profile session, or each of its frames' hash calls alone."""
        log = []

        def spy(decoder, bank, stops=()):
            if waved:
                before = hashed[0], walked[0]
                out = peel(decoder, bank, stops)
                log.append((hashed[0] - before[0], walked[0] - before[1]))
                return out
            out, alone = 0, []
            for lo, hi in zip([0, *stops], stops):
                before = hashed[0]
                out += peel(decoder, bank.slice(lo, hi), [hi - lo])
                alone.append(hashed[0] - before)
                if decoder.decoded:
                    break
            log.append(alone)
            return out

        monkeypatch.setattr(RatelessDecoder, "add_coded_block", spy)
        handle = get_scheme("riblt", symbol_size=8)
        items = make_items(random.Random(29), 2400)
        responder = ResponderMachine(
            open_backend(items[:2000], scheme=handle, num_shards=4), handle
        )
        initiator = InitiatorMachine(handle, items[400:])
        initiator.start()
        responder.start()
        while not initiator.finished:  # four blocks per read
            responder.bytes_received(initiator.take_output())
            for _ in range(4):
                responder.tick()
            initiator.bytes_received(responder.take_output())
        return log, initiator.report

    with engine_lane(True):
        monkeypatch.setattr(SymbolCodec, "checksum_int_batch", counted)
        monkeypatch.setattr(decoder_module, "scatter_walk_arrays", walk)
        waves, report = session(waved=True)
        alone, reference = session(waved=False)
    monkeypatch.undo()
    assert report.symbols == reference.symbols
    assert report.only_in_remote == reference.only_in_remote
    assert len(waves) == len(alone)
    assert all(walks - 1 <= hashes <= walks for hashes, walks in waves)
    assert sum(hashes for hashes, _ in waves) < sum(map(sum, alone))
    assert any(len(calls) > 1 for calls in alone)

    src = Path(engine.__file__).parent

    def calls_by_function(path):
        """The names each module-level function or method calls (its
        nested closures included)."""
        tree = ast.parse((src / path).read_text())
        scopes = [tree] + [c for c in tree.body if isinstance(c, ast.ClassDef)]
        return {
            fn.name: {
                ast.unparse(node.func).rpartition(".")[2]
                for node in ast.walk(fn)
                if isinstance(node, ast.Call)
            }
            for scope in scopes
            for fn in scope.body
            if isinstance(fn, ast.FunctionDef)
        }

    decoder = calls_by_function("core/decoder.py")
    assert not {"ingest", "_ingest_numpy"} & set(decoder)
    kernels = {"scatter_walk_numpy", "scatter_walk_arrays"}
    assert {name for name, calls in decoder.items() if calls & kernels} == {"_wave"}
    assert {name for name, calls in decoder.items() if "_wave" in calls} == {
        "add_coded_block"
    }
    tree = ast.parse((src / "protocol" / "machine.py").read_text())
    (initiator,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "InitiatorMachine"
    ]

    def peel_calls(node):
        return [
            call
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and ast.unparse(call.func).endswith("add_coded_block")
        ]

    # the one call sits in the wave loop
    (wave_loop,) = [
        loop
        for loop in ast.walk(initiator)
        if isinstance(loop, ast.While) and peel_calls(loop)
    ]
    assert peel_calls(initiator) == peel_calls(wave_loop)
    assert len(peel_calls(wave_loop)) == 1
    for path in src.rglob("*.py"):
        if path == src / "gossip" / "stats.py":
            continue  # its ``absorb`` tallies round outcomes, not symbols
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert node.name not in ("absorb", "absorb_many"), path


# -- the lane form -------------------------------------------------------------


def lane_bank(triples, size=8):
    """The lane form of ``bank_of(triples)`` for ``size``-byte symbols."""
    return bank_of(triples).in_form(True, size)


@pytest.mark.parametrize("size", [8, 20])
def test_lane_form_matches_list_form(size):
    """Every bank operation gives the same Python-int cells in both forms,
    and a bank equals its other form."""
    pytest.importorskip("numpy")
    big = (1 << (8 * size)) - 1
    triples = [(1, 2, 3), (big, 5, -6), (7, 8, 9), (0, 0, 0)]
    lists, lanes = bank_of(triples), lane_bank(triples, size)
    assert lanes.vector and not lists.vector
    assert lanes == lists and lists == lanes
    assert lanes.cells() == lists.cells() and list(lanes) == list(lists)
    assert lanes.cell_at(1) == lists.cell_at(1) == CodedSymbol(big, 5, -6)
    assert lanes.cell_at(-1) == CodedSymbol(0, 0, 0)
    with pytest.raises(IndexError):
        lanes.cell_at(4)
    assert lanes.in_form(True, size) is lanes and lanes.in_form(False) == lists
    other = bank_of([(9, 9, 1), (big, 1, 1), (0, 7, 2), (3, 3, 3)])
    diff = lanes.subtract(other.in_form(True, size))
    assert diff.vector and diff == lists.subtract(other)
    assert lanes.subtract(other) == lists.subtract(other)
    assert lists.subtract(other.in_form(True, size)) == lists.subtract(other)
    codec = SymbolCodec(size)
    assert lanes.pack(codec) == lists.pack(codec)
    assert not lanes.is_all_zero() and lane_bank([(0, 0, 0)] * 3).is_all_zero()


def test_lane_form_grows_into_spare_rows():
    """Appending, extending and zero-extending a lane-form bank keeps it
    in the lane form; slices and copies are value copies, not views."""
    np = pytest.importorskip("numpy")
    bank = lane_bank([(1, 1, 1)])
    bank.append(2, 2, 2)
    bank.extend(bank_of([(3, 3, 3)]))
    bank.extend(lane_bank([(4, 4, 4)]))
    bank.append_cell(CodedSymbol(5, 5, 5))
    bank.extend_zeros(2)
    assert bank.vector and isinstance(bank.sums, np.ndarray)
    assert bank.sums.shape == (7, 1)
    assert bank == bank_of([(i, i, i) for i in range(1, 6)] + [(0, 0, 0)] * 2)
    cut, dup = bank.slice(1, 3), bank.copy()
    bank.sums[1] = 99
    bank.subtract_in_place(bank.copy())
    assert cut == bank_of([(2, 2, 2), (3, 3, 3)])
    assert dup.cell_at(1) == CodedSymbol(2, 2, 2)
    before = bank.sums
    for _ in range(20):
        bank.extend_zeros(5)
    assert len(bank) == 107 and bank.is_all_zero() and bank.sums is not before
    lists = bank_of([(1, 1, 1)])
    lists.extend(lane_bank([(2, 2, 2)]))
    assert not lists.vector and lists.sums == [1, 2]


def test_encoder_prefix_lives_in_lanes():
    """Under the vector engine the encoder's cached prefix is a lane-form
    bank that churn patches in place and ``cached_block`` slices (a value
    copy, in that form); under the scalar engine it is lists."""
    pytest.importorskip("numpy")
    import random

    from repro.core.encoder import RatelessEncoder

    from helpers import make_items

    items = make_items(random.Random(32), 300)
    for vector in (True, False):
        with engine_lane(vector):
            encoder = RatelessEncoder(SymbolCodec(8), items[:200])
            block = encoder.cached_block(0, 120)
            room = encoder.bank.sums
            encoder.add_items(items[200:])
            encoder.remove_items(items[:50])
            assert encoder.bank.vector is vector and block.vector is vector
            assert encoder.bank.sums is room  # patched in place
            assert block != encoder.cached_block(0, 120)  # a copy, not a view
            fresh = RatelessEncoder(SymbolCodec(8), items[50:])
            assert encoder.cached_block(0, 120) == fresh.cached_block(0, 120)


def test_one_lane_prefix_in_encoder():
    """The encoder's cached prefix is stored as uint64 lanes, so nothing
    converts it per call.  Before, every ``_walk_into`` call turned each
    cached cell from Python ints into lanes and back, every served block
    converted its cells again before packing, and a churn batch below
    ``_PATCH_CELLS_PER_ITEM`` rows per cached cell took the scalar
    kernel to avoid that round trip.  Now ``_walk_into`` patches and
    extends the banks in place, ``_write_block_records`` packs a bank's
    columns as they are, the rule is gone, and the int <-> lane
    converters are called from eight places in ``src/`` (fourteen before;
    ten until the decoder kept its bank and recovered rows as lanes too).
    """
    import ast
    from pathlib import Path

    src = Path(engine.__file__).parent
    converters = {"lanes_from_ints", "ints_from_lanes"}

    def name(call):
        return getattr(call.func, "id", None) or getattr(call.func, "attr", None)

    def called(path, function):
        tree = ast.parse((src / path).read_text())
        (fn,) = [
            n
            for n in ast.walk(tree)
            if isinstance(n, ast.FunctionDef) and n.name == function
        ]
        return {name(n) for n in ast.walk(fn) if isinstance(n, ast.Call)}

    assert not called("core/encoder.py", "_walk_into") & converters
    assert "lanes_from_ints" not in called("core/wire.py", "_write_block_records")
    sites = []
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        assert "_PATCH_CELLS_PER_ITEM" not in text, path.name
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call) and name(node) in converters:
                sites.append(f"{path.relative_to(src)}:{node.lineno}")
    assert len(sites) == 8, sites


def test_one_recovered_store_in_decoder():
    """A decoder keeps what it recovered as the rows of a signed
    ``SourceStore`` (value lanes, checksum, parked ``(idx, state)``, α,
    sign) beside a received prefix that stays in the lane form between
    waves.  Before, recoveries were ``_RecoveredEntry`` tuples on a
    ``(index, seq, entry)`` heap with two replay loops, every wave turned
    each decoder's whole bank from lists into lanes and back, a job
    needed ``_MIN_NUMPY_BLOCK`` cells and ``16·n ≥ len(bank)`` to take
    the wave, and the walk kernel folded its edges once per lock-step
    round.  Now ``decoder.py`` has no heap of its own (the per-cell path
    uses the store's), its lane wave converts no symbol between ints and
    lanes, and ``scatter_walk_arrays`` folds every edge of a call with
    one ``fold_edges`` call.
    """
    import ast
    import re
    from pathlib import Path

    from repro.core.decoder import RatelessDecoder
    from repro.core.encoder import RatelessEncoder, SourceStore

    src = Path(engine.__file__).parent
    tree = ast.parse((src / "core" / "decoder.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    } | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "heapq" not in imported
    relics = re.compile(r"\b(_RecoveredEntry|_pending|_seq|_MIN_NUMPY_BLOCK)\b")
    for path in sorted(src.rglob("*.py")):
        assert not relics.search(path.read_text()), path.name

    def calls(path, function):
        module = ast.parse((src / path).read_text())
        (fn,) = [
            n
            for n in ast.walk(module)
            if isinstance(n, ast.FunctionDef) and n.name == function
        ]
        return [
            ast.unparse(n.func).rpartition(".")[2]
            for n in ast.walk(fn)
            if isinstance(n, ast.Call)
        ]

    assert not {"lanes_from_ints", "ints_from_lanes"} & set(
        calls("core/decoder.py", "_wave")
    )
    assert calls("core/cellbank.py", "scatter_walk_arrays").count("fold_edges") == 1

    # the store and the bank keep the form of the path that last ran
    codec = SymbolCodec(8)
    items = [bytes([i, 7, 7, 7, 7, 7, 7, i]) for i in range(40)]
    stream = RatelessEncoder(codec, items).produce_block(120)
    decoder = RatelessDecoder(codec)
    assert isinstance(decoder._store, SourceStore) and decoder._store.signs == []
    for cell in stream.cells()[:30]:
        decoder.add_coded_symbol(cell)
    assert not decoder._bank.vector and not decoder._store.vector
    vector = engine.np is not None
    with engine_lane(vector):
        decoder.add_coded_block(stream.slice(30, 120))
    assert decoder._bank.vector is vector and decoder._store.vector is vector
    assert decoder.decoded and sorted(decoder.remote_items()) == sorted(items)
    assert decoder._store.size == len(items) and decoder.local_values() == []


def test_one_python_siphash_kernel(monkeypatch):
    """SipHash has one Python round body: ``_siphash24_packed`` advances n
    messages at once in the 128-bit lanes of Python ints (n = 1 is the
    scalar hash), beside the NumPy lanes for large batches.  Before, a
    one-message body (``_siphash24_words_scalar``) ran every small batch
    and every scalar-engine batch once per message.  Now exactly one
    function in ``siphash.py`` rotates Python ints, no loop there hashes
    per message (the kernel's batch caller loops over chunks of
    ``_PACK_CHUNK`` messages), and ``siphash24``, ``siphash24_batch`` and
    ``siphash24_int_batch`` all reach that kernel: small batches on
    either engine, any batch on the scalar engine."""
    import ast
    from pathlib import Path

    from repro.hashing import siphash

    tree = ast.parse(Path(siphash.__file__).read_text())

    def called(node):
        return {
            ast.unparse(n.func).rpartition(".")[2]
            for n in ast.walk(node)
            if isinstance(n, ast.Call)
        }

    def rotates(fn):  # a SipRound rotation on Python ints: v << 13 | v >> 51
        return any(
            isinstance(n, ast.BinOp)
            and isinstance(n.op, ast.LShift)
            and isinstance(n.right, ast.Constant)
            and n.right.value == 13
            for n in ast.walk(fn)
        )

    functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    assert [fn.name for fn in functions if rotates(fn)] == ["_siphash24_packed"]
    hashes = {"siphash24", "_siphash24_packed"}
    comprehensions = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
    for node in ast.walk(tree):
        if isinstance(node, comprehensions):
            assert not called(node) & hashes, ast.unparse(node)
        if isinstance(node, (ast.For, ast.While)) and called(node) & hashes:
            assert "_PACK_CHUNK" in ast.unparse(node.iter), ast.unparse(node)
    graph = {fn.name: called(fn) for fn in tree.body if isinstance(fn, ast.FunctionDef)}

    def reaches(name, seen=frozenset()):
        if name == "_siphash24_packed":
            return True
        return any(reaches(c, seen | {name}) for c in graph.get(name, set()) - seen)

    for entry in ("siphash24", "siphash24_batch", "siphash24_int_batch"):
        assert reaches(entry), entry

    # and at run time: the packed kernel below the crossover on either
    # engine and for every batch on the scalar engine; the lanes above it
    packed = siphash._siphash24_packed
    runs = []
    monkeypatch.setattr(
        siphash, "_siphash24_packed", lambda *a: runs.append(1) or packed(*a)
    )
    key, big = bytes(16), siphash.NUMPY_MIN_BATCH
    assert siphash.siphash24(key, b"abc") == packed(0, 0, [3 << 56 | 0x636261], 1)
    assert runs == [1]
    for vector in (False, True) if engine.np is not None else (False,):
        with engine_lane(vector):
            for n in (3, big):
                for call in (
                    lambda: siphash.siphash24_batch(key, [bytes(9)] * n),
                    lambda: siphash.siphash24_int_batch(key, [7] * n, 8),
                ):
                    runs.clear()
                    call()
                    assert bool(runs) == (n < big or not vector), (vector, n)
