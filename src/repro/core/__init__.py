"""Rateless IBLT — the paper's primary contribution (§4, §6, §8).

Module map:

``params``    — shared constants (α = 0.5, checksum width).
``varint``    — LEB128/zigzag integers for the compressed ``count`` field.
``symbols``   — :class:`SymbolCodec`: fixed-length byte items ↔ integers,
                keyed checksums, mapping-generator construction.
``mapping``   — the §4.2 index generator realising ρ(i) = 1/(1+αi).
``coded``     — the (sum, checksum, count) coded-symbol cell.
``cellbank``  — array-backed coded-symbol banks + batch scatter samplers.
``encoder``   — incremental heap-based encoder (§6) with block fast path.
``decoder``   — incremental peeling decoder (§3, §4) with block fast path.
``sketch``    — fixed-length prefixes ("sketches") with linear subtraction.
``wire``      — §6 wire format with var-int compressed counts.
``irregular`` — §8 Irregular Rateless IBLT configuration.
"""

from repro.core.cellbank import CodedSymbolBank
from repro.core.coded import CodedSymbol
from repro.core.decoder import DecodeResult, RatelessDecoder
from repro.core.encoder import RatelessEncoder
from repro.core.irregular import IrregularConfig, PAPER_IRREGULAR
from repro.core.mapping import IndexGenerator, RandomMapping
from repro.core.sketch import RatelessSketch
from repro.core.symbols import SymbolCodec

__all__ = [
    "CodedSymbol",
    "CodedSymbolBank",
    "DecodeResult",
    "IndexGenerator",
    "IrregularConfig",
    "PAPER_IRREGULAR",
    "RandomMapping",
    "RatelessDecoder",
    "RatelessEncoder",
    "RatelessSketch",
    "SymbolCodec",
]
