"""repro — a from-scratch reproduction of *Practical Rateless Set
Reconciliation* (Yang, Gilad, Alizadeh; ACM SIGCOMM 2024).

Module map (one sub-package per system):

``repro.api``
    The unified scheme interface: a ``SetReconciler`` abstraction, a
    string-keyed registry of every scheme below, and the generic
    ``reconcile(a, b, scheme=...)`` driver.  Start here.
``repro.core``
    The paper's primary contribution: the Rateless IBLT codec
    (encoder, decoder, sketches, wire format) plus the Irregular
    variant of §8.
``repro.hashing``
    Keyed 64-bit hashing (SipHash-2-4, BLAKE2b) and deterministic PRNGs.
``repro.baselines``
    Every scheme the paper compares against: regular IBLT, the strata
    estimator, MET-IBLT, PinSketch (BCH), and Merkle-trie state heal.
``repro.net``
    A discrete-event network simulator and the synchronization protocols
    of the Ethereum experiments (§7.3), scheme-generic via the registry.
``repro.ledger``
    A synthetic Ethereum-like ledger used as the §7.3 workload.
``repro.analysis``
    Density evolution (§5) and Monte Carlo harnesses for Figs 4-6 and 15.

Quickstart — any scheme, one call::

    from repro.api import available_schemes, reconcile

    alice = {b"item-%03d" % i for i in range(100)}
    bob = {b"item-%03d" % i for i in range(5, 105)}

    result = reconcile(alice, bob)                  # Rateless IBLT
    result = reconcile(alice, bob, scheme="pinsketch")
    print(available_schemes())

``repro.reconcile`` is ``repro.api.reconcile``.
"""

from repro import api
from repro.api import reconcile
from repro.core.cellbank import CodedSymbolBank
from repro.core.coded import CodedSymbol
from repro.core.decoder import DecodeResult, RatelessDecoder
from repro.core.encoder import RatelessEncoder
from repro.core.irregular import IrregularConfig, PAPER_IRREGULAR
from repro.core.mapping import IndexGenerator, RandomMapping
from repro.core.sketch import RatelessSketch

__version__ = "1.1.0"

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
    "api",
    "reconcile",
    "__version__",
]
