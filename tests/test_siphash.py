"""SipHash-2-4: reference vectors and PRF properties (§4.3 substrate)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engine
from repro.core.cellbank import lanes_from_ints
from repro.hashing import siphash
from repro.hashing.siphash import siphash24, siphash24_batch, siphash24_int_batch

from helpers import engine_lane

REFERENCE_KEY = bytes(range(16))

# The official Aumasson & Bernstein reference vectors (the 64-entry
# ``vectors_sip64`` table shipped with the reference C implementation):
# entry n is SipHash-2-4 of the message 00 01 02 ... n-1 under the key
# 00 01 ... 0f, as a little-endian u64.  Entry 15 is the fully worked
# example in the SipHash paper's Appendix A.
VECTORS_SIP64 = [
    0x726FDB47DD0E0E31, 0x74F839C593DC67FD, 0x0D6C8009D9A94F5A, 0x85676696D7FB7E2D,
    0xCF2794E0277187B7, 0x18765564CD99A68D, 0xCBC9466E58FEE3CE, 0xAB0200F58B01D137,
    0x93F5F5799A932462, 0x9E0082DF0BA9E4B0, 0x7A5DBBC594DDB9F3, 0xF4B32F46226BADA7,
    0x751E8FBC860EE5FB, 0x14EA5627C0843D90, 0xF723CA908E7AF2EE, 0xA129CA6149BE45E5,
    0x3F2ACC7F57C29BDB, 0x699AE9F52CBE4794, 0x4BC1B3F0968DD39C, 0xBB6DC91DA77961BD,
    0xBED65CF21AA2EE98, 0xD0F2CBB02E3B67C7, 0x93536795E3A33E88, 0xA80C038CCD5CCEC8,
    0xB8AD50C6F649AF94, 0xBCE192DE8A85B8EA, 0x17D835B85BBB15F3, 0x2F2E6163076BCFAD,
    0xDE4DAAACA71DC9A5, 0xA6A2506687956571, 0xAD87A3535C49EF28, 0x32D892FAD841C342,
    0x7127512F72F27CCE, 0xA7F32346F95978E3, 0x12E0B01ABB051238, 0x15E034D40FA197AE,
    0x314DFFBE0815A3B4, 0x027990F029623981, 0xCADCD4E59EF40C4D, 0x9ABFD8766A33735C,
    0x0E3EA96B5304A7D0, 0xAD0C42D6FC585992, 0x187306C89BC215A9, 0xD4A60ABCF3792B95,
    0xF935451DE4F21DF2, 0xA9538F0419755787, 0xDB9ACDDFF56CA510, 0xD06C98CD5C0975EB,
    0xE612A3CB9ECBA951, 0xC766E62CFCADAF96, 0xEE64435A9752FE72, 0xA192D576B245165A,
    0x0A8787BF8ECB74B2, 0x81B3E73D20B49B6F, 0x7FA8220BA3B2ECEA, 0x245731C13CA42499,
    0xB78DBFAF3A8D83BD, 0xEA1AD565322A1A0B, 0x60E61C23A3795013, 0x6606D7E446282B93,
    0x6CA4ECB15C5F91E1, 0x9F626DA15C9625F3, 0xE51B38608EF25F57, 0x958A324CEB064572,
]


def kernel_spy(monkeypatch):
    """Count the calls each SipHash kernel takes from here on."""
    calls = {"packed": 0, "lanes": 0}
    kernels = {"packed": "_siphash24_packed", "lanes": "_siphash24_word_lanes"}
    for path, name in kernels.items():
        kernel = getattr(siphash, name)

        def spy(*args, _kernel=kernel, _path=path):
            calls[_path] += 1
            return _kernel(*args)

        monkeypatch.setattr(siphash, name, spy)
    return calls


# Each batch path, by the kernel and engine it runs: the NumPy lanes
# (crossover forced to 1), the packed kernel below the crossover on the
# vector engine, and the packed kernel on the scalar engine.
BATCH_PATHS = {
    "batch-numpy": ("lanes", True),
    "batch-packed": ("packed", True),
    "batch-scalar": ("packed", False),
}


@pytest.fixture(params=["scalar", *BATCH_PATHS])
def hash_path(request, monkeypatch):
    """One hasher callable per kernel path, same (key, message) contract;
    a batch path checks that its singleton batch ran its named kernel."""
    if request.param == "scalar":
        yield siphash24
        return
    kernel, vector = BATCH_PATHS[request.param]
    if kernel == "lanes":
        monkeypatch.setattr(siphash, "NUMPY_MIN_BATCH", 1)
    calls = kernel_spy(monkeypatch)

    def one(key, message):
        digest = siphash24_batch(key, [message])[0]
        assert calls[kernel] == 1 and sum(calls.values()) == 1, calls
        return digest

    with engine_lane(vector):
        yield one


@pytest.mark.parametrize("length", range(64))
def test_reference_vectors(hash_path, length):
    message = bytes(range(length))
    assert hash_path(REFERENCE_KEY, message) == VECTORS_SIP64[length]


BATCH_SIZES = {
    "1": 1,
    "2": 2,
    "3": 3,
    "crossover-1": siphash.NUMPY_MIN_BATCH - 1,
    "crossover": siphash.NUMPY_MIN_BATCH,
    "crossover+1": siphash.NUMPY_MIN_BATCH + 1,
    "pack-chunk+1": siphash._PACK_CHUNK + 1,
}


@pytest.mark.parametrize("vector", [True, False], ids=["numpy", "no-numpy"])
@pytest.mark.parametrize("size", BATCH_SIZES.values(), ids=BATCH_SIZES.keys())
def test_reference_vectors_at_every_batch_size(vector, size):
    """All 64 reference vectors through one batch per message length, at
    sizes either side of the crossover and across a packed-kernel chunk
    boundary: the reference message sits at every third position of the
    batch, between other messages of its length, so a lane mixed with
    its neighbours, or a chunk seam, shows."""
    rng = random.Random(size)
    with engine_lane(vector):
        for length in range(64):
            message = bytes(range(length))
            batch = [
                message if j % 3 == 0 else rng.randbytes(length) for j in range(size)
            ]
            got = list(map(int, siphash24_batch(REFERENCE_KEY, batch)))
            assert got[::3] == [VECTORS_SIP64[length]] * len(got[::3])
            others = [j for j in range(size) if j % 3]
            expected = [siphash24(REFERENCE_KEY, batch[j]) for j in others]
            assert [got[j] for j in others] == expected, length


@settings(max_examples=40, deadline=None)
@given(
    width=st.one_of(st.integers(1, 200), st.sampled_from([8, 16, 92, 96, 200])),
    count=st.integers(1, 2 * siphash.NUMPY_MIN_BATCH),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_batch_form_matches_per_message_siphash(width, count, seed):
    """Any width 1..200 and batch size up to twice the crossover, on both
    engines and in every input form — byte list, row matrix, integer list
    (widths to 8) and uint64 lane matrix — equals per-message siphash24."""
    rng = random.Random(seed)
    items = [rng.randbytes(width) for _ in range(count)]
    expected = [siphash24(REFERENCE_KEY, item) for item in items]
    ints = [int.from_bytes(item, "little") for item in items]
    for vector in (True, False) if engine.np is not None else (False,):
        with engine_lane(vector):
            assert list(map(int, siphash24_batch(REFERENCE_KEY, items))) == expected
            if width <= 8:
                got = siphash24_int_batch(REFERENCE_KEY, ints, width)
                assert list(map(int, got)) == expected
            if engine.np is not None:  # the NumPy input forms, on either engine
                rows = engine.np.frombuffer(b"".join(items), engine.np.uint8)
                rows = rows.reshape(count, width)
                got = siphash24_batch(REFERENCE_KEY, rows)
                assert list(map(int, got)) == expected
                lanes = lanes_from_ints(ints, width)
                got = siphash24_int_batch(REFERENCE_KEY, lanes, width)
                assert list(map(int, got)) == expected


def test_batch_matches_scalar_elementwise():
    """One batch call == 64 scalar calls, across the whole vector table
    (fixed width per call; the table varies width across calls)."""
    for length in (0, 1, 7, 8, 9, 16, 63):
        messages = [bytes([i] * length) for i in range(32)]
        assert list(map(int, siphash24_batch(REFERENCE_KEY, messages))) == [
            siphash24(REFERENCE_KEY, message) for message in messages
        ]


def test_batch_engines_agree():
    messages = [bytes([i, 255 - i] * 4) for i in range(100)]
    with engine_lane(True):
        fast = siphash24_batch(REFERENCE_KEY, messages)
    with engine_lane(False):
        assert siphash24_batch(REFERENCE_KEY, messages) == list(map(int, fast))


def test_batch_rejects_ragged_messages():
    with pytest.raises(ValueError):
        siphash24_batch(REFERENCE_KEY, [b"12345678", b"1234567"])


def test_batch_rejects_bad_key():
    with pytest.raises(ValueError):
        siphash24_batch(b"short", [b"12345678"])


def test_batch_empty():
    assert siphash24_batch(REFERENCE_KEY, []) == []


def test_rejects_short_key():
    with pytest.raises(ValueError):
        siphash24(b"short", b"data")


def test_rejects_long_key():
    with pytest.raises(ValueError):
        siphash24(bytes(17), b"data")


def test_output_is_64_bits():
    for i in range(64):
        value = siphash24(REFERENCE_KEY, bytes([i]) * i)
        assert 0 <= value < (1 << 64)


def test_key_sensitivity():
    """Flipping any key bit changes the hash (PRF behaviour)."""
    message = b"set reconciliation"
    base = siphash24(REFERENCE_KEY, message)
    for byte_index in range(16):
        key = bytearray(REFERENCE_KEY)
        key[byte_index] ^= 1
        assert siphash24(bytes(key), message) != base


def test_message_sensitivity():
    """Flipping any message bit changes the hash."""
    message = bytearray(b"0123456789abcdef0123")
    base = siphash24(REFERENCE_KEY, bytes(message))
    for byte_index in range(len(message)):
        mutated = bytearray(message)
        mutated[byte_index] ^= 0x80
        assert siphash24(REFERENCE_KEY, bytes(mutated)) != base


def test_length_extension_blocks_differ():
    """Messages that only differ by trailing zero bytes hash differently
    (the length byte in the final block sees to it)."""
    a = siphash24(REFERENCE_KEY, b"\x00" * 7)
    b = siphash24(REFERENCE_KEY, b"\x00" * 8)
    c = siphash24(REFERENCE_KEY, b"\x00" * 9)
    assert len({a, b, c}) == 3


def test_block_boundary_lengths():
    """No crash or collision across the 8-byte block boundary."""
    outputs = {
        length: siphash24(REFERENCE_KEY, b"x" * length) for length in range(0, 25)
    }
    assert len(set(outputs.values())) == len(outputs)


def test_deterministic():
    assert siphash24(REFERENCE_KEY, b"abc") == siphash24(REFERENCE_KEY, b"abc")
