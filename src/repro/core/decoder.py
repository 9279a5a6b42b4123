"""Incremental peeling decoder (paper §3, extended to rateless streams).

The decoder consumes the *subtracted* stream ``a_i ⊖ b_i``, stored as an
array-backed :class:`~repro.core.cellbank.CodedSymbolBank` rather than a
list of per-cell objects.  A cell is *pure* when it holds exactly one
source symbol: ``count ∈ {+1, −1}`` and ``checksum == H(sum)``.
Recovering a pure cell's symbol lets us peel it out of every other cell
it maps to, possibly exposing new pure cells — classic sparse-graph
peeling.

Ratelessness adds one twist: a recovered symbol also maps to coded
indices the decoder has not received yet.  Each recovered symbol
therefore parks its index generator in a heap keyed by its next index ≥
the current frontier; when that cell eventually arrives, the symbol is
peeled out of it before the cell is even examined (cost O(1) amortised
per edge).

Two ingestion paths exist:

* :meth:`RatelessDecoder.add_coded_symbol` — the reference per-cell
  path (peel depth-first via a work queue).
* :meth:`RatelessDecoder.add_coded_block` — the batch fast path: a whole
  bank is appended at once, pending symbols are replayed across the new
  region by the :mod:`~repro.core.cellbank` scatter samplers, and
  peeling proceeds in breadth-first *rounds* — verify every pure
  candidate, then batch-subtract all of the round's recoveries in one
  vectorised scatter.  Peeling is confluent (the recoverable set is
  determined by the cell contents, not the peel order), so the fast path
  reaches the same fixed point — same recovered symbols, same final
  lanes — as per-cell ingestion; the golden-equivalence suite asserts
  this.

Termination: the stream is fully decoded exactly when every received
cell has been reduced to zero.  Because ρ(0) = 1, cell 0 participates in
every source symbol and zeroises last, matching §4.1's observation that
the first coded symbol is the completion signal.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from itertools import count as _counter
from typing import Iterable, Optional

from repro import engine
from repro.core.cellbank import (
    CodedSymbolBank,
    ints_from_lanes,
    lanes_from_ints,
    numpy_block_eligible,
    scatter_walk_numpy,
)
from repro.core.coded import CodedSymbol
from repro.core.symbols import SymbolCodec

# Early-stop granularity of the batch path: the block is ingested in
# sub-blocks of this many cells, checking for completion between them.
# 2048 keeps the overshoot past the decode point under ~10% at d = 10^4
# while amortising the per-sub-block replay/scan overhead.
DEFAULT_STOP_CHUNK = 2048

# Below this bank size the NumPy block path costs more than it saves.
_MIN_NUMPY_BLOCK = 64


class _RecoveredEntry:
    """A recovered source symbol waiting to be peeled from future cells."""

    __slots__ = ("value", "checksum", "direction", "gen")

    def __init__(self, value: int, checksum: int, direction: int, gen) -> None:
        self.value = value
        self.checksum = checksum
        self.direction = direction
        self.gen = gen


@dataclass
class DecodeResult:
    """Outcome of decoding a coded-symbol stream.

    ``remote`` holds items exclusive to the sender (count +1, i.e. A \\ B);
    ``local`` holds items exclusive to the receiver (count −1, B \\ A).
    """

    success: bool
    remote: list[bytes] = field(default_factory=list)
    local: list[bytes] = field(default_factory=list)
    symbols_used: int = 0

    @property
    def difference_size(self) -> int:
        """|A △ B| as recovered."""
        return len(self.remote) + len(self.local)

    @property
    def overhead(self) -> float:
        """Coded symbols consumed per recovered difference.

        When the sets were already equal there is nothing to normalise
        by, so the convention is ``0.0`` — matching
        :class:`repro.core.session.ReconcileOutcome` and
        ``repro.api.base.ReconcileResult`` (the symbols spent on the
        termination signal remain visible in ``symbols_used``).
        """
        if self.difference_size == 0:
            return 0.0
        return self.symbols_used / self.difference_size


class RatelessDecoder:
    """Peels source symbols out of an incrementally arriving coded stream.

    Feed subtracted cells (``a_i ⊖ b_i``) in stream order via
    :meth:`add_coded_symbol` / :meth:`add_coded_block`; read progress
    from :attr:`decoded` and :meth:`result` at any point.  Internally
    the received prefix lives in a three-lane
    :class:`~repro.core.cellbank.CodedSymbolBank`, recovered symbols
    are re-peeled from later cells as they arrive (a heap of parked
    §4.2 walks), and a *pure* cell (count ±1, checksum matching its
    sum) triggers breadth-first peeling.  Two ingestion engines — the
    scalar reference and a batched NumPy path that verifies each peel
    round's candidates with one keyed-hash batch call — reach the same
    fixed point with identical lane state; peeling is confluent, so
    engine choice never changes what is recovered.
    """

    def __init__(self, codec: SymbolCodec) -> None:
        self.codec = codec
        self._bank = CodedSymbolBank()
        self._pending: list[tuple[int, int, _RecoveredEntry]] = []
        self._seq = _counter()
        self._queue: deque[int] = deque()
        self._remote: list[int] = []
        self._local: list[int] = []
        self._seen: set[int] = set()
        self._nonzero = 0

    # -- stream ingestion --------------------------------------------------

    @property
    def symbols_received(self) -> int:
        """Number of coded symbols consumed so far."""
        return len(self._bank)

    @property
    def decoded(self) -> bool:
        """True when at least one cell arrived and all cells are zeroised."""
        return len(self._bank.sums) > 0 and self._nonzero == 0

    def add_coded_symbol(self, cell: CodedSymbol) -> None:
        """Consume the next subtracted cell ``a_i ⊖ b_i`` (by value)."""
        self._consume(cell.sum, cell.checksum, cell.count)

    def _consume(self, cell_sum: int, cell_checksum: int, cell_count: int) -> None:
        """Reference per-cell ingestion, operating on the lane triple."""
        bank = self._bank
        index = len(bank.sums)
        pending = self._pending
        # Symbols recovered earlier may map to this new index: peel them out
        # before the cell is examined.
        while pending and pending[0][0] == index:
            _, seq, rec = heapq.heappop(pending)
            cell_sum ^= rec.value
            cell_checksum ^= rec.checksum
            cell_count -= rec.direction
            heapq.heappush(pending, (rec.gen.next_index(), seq, rec))
        bank.append(cell_sum, cell_checksum, cell_count)
        if cell_sum or cell_checksum or cell_count:
            self._nonzero += 1
        if cell_count == 1 or cell_count == -1:
            self._queue.append(index)
            self._peel()

    def add_subtracted(self, remote_cell: CodedSymbol, local_cell: CodedSymbol) -> None:
        """Convenience: consume ``remote ⊖ local`` without mutating inputs."""
        self._consume(
            remote_cell.sum ^ local_cell.sum,
            remote_cell.checksum ^ local_cell.checksum,
            remote_cell.count - local_cell.count,
        )

    def add_stream(
        self, cells: Iterable[CodedSymbol], stop_when_decoded: bool = True
    ) -> int:
        """Consume cells until the stream is exhausted or decoding completes.

        Returns the number of cells consumed from ``cells``.
        """
        used = 0
        for cell in cells:
            self.add_coded_symbol(cell)
            used += 1
            if stop_when_decoded and self.decoded:
                break
        return used

    def add_coded_block(
        self,
        bank: CodedSymbolBank,
        stop_when_decoded: bool = False,
        chunk: int = DEFAULT_STOP_CHUNK,
    ) -> int:
        """Consume a whole bank of subtracted cells; returns cells consumed.

        Reaches the same fixed point as per-cell ingestion of the same
        cells (see module docstring).  With ``stop_when_decoded`` the
        bank is ingested in ``chunk``-cell sub-blocks and ingestion stops
        at the end of the first sub-block that completes decoding — pass
        ``chunk=1`` for cell-exact early stopping (both engines honour
        the same granularity).  ``bank`` is read, never mutated.
        """
        n = len(bank)
        if n == 0:
            return 0
        if stop_when_decoded and self.decoded:
            return 0
        step = chunk if stop_when_decoded else n
        if step < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        # The NumPy engine copies the whole accumulated bank into arrays
        # and back once per call, so it only pays when the incoming block
        # is both sizeable and a meaningful fraction of what is already
        # banked — otherwise a long stream of small blocks would re-copy
        # the bank quadratically and the scalar engine wins.
        if (
            n >= _MIN_NUMPY_BLOCK
            and step >= _MIN_NUMPY_BLOCK
            and 16 * n >= len(self._bank)
            and numpy_block_eligible(self.codec)
        ):
            return self._ingest_numpy(bank, step, stop_when_decoded)
        src_sums = bank.sums
        src_checksums = bank.checksums
        src_counts = bank.counts
        consume = self._consume
        consumed = 0
        while consumed < n:
            upto = min(consumed + step, n)
            for i in range(consumed, upto):
                consume(src_sums[i], src_checksums[i], src_counts[i])
            consumed = upto
            if stop_when_decoded and self._nonzero == 0:
                break
        return consumed

    def _ingest_numpy(
        self, src: CodedSymbolBank, step: int, stop_when_decoded: bool
    ) -> int:
        """Batch engine: append + pending replay + breadth-first peeling.

        Works on array lanes for the whole call — ``(total, k)`` uint64
        sums, uint64 checksums, int64 counts — and writes them back
        once; every arithmetic step is bit-identical to the scalar
        engine (see ``cellbank.scatter_walk_numpy``).  Symbols of any
        width the lanes carry and §8 irregular codecs (a per-symbol α
        vector) ride this path instead of per-cell ingestion.

        Each peel round gathers its pure-cell (sum, checksum) candidates
        and verifies them against :meth:`SymbolCodec.checksum_int_batch`
        in one call; the accept pass then replays the scalar loop's
        order-dependent checks (in-round ghost duplicates), so the set of
        recovered symbols is exactly the reference engine's.
        """
        np = engine.np
        bank = self._bank
        codec = self.codec
        checksum_int_batch = codec.checksum_int_batch
        new_mapping = codec.new_mapping
        alpha_for = codec.alpha_for
        irregular = codec.irregular is not None
        pending = self._pending
        seen = self._seen
        remote = self._remote
        local = self._local
        seq = self._seq
        old = len(bank)
        total = old + len(src)
        sums = lanes_from_ints(bank.sums + src.sums, codec.symbol_size)
        checksums = np.array(bank.checksums + src.checksums, dtype=np.uint64)
        counts = np.array(bank.counts + src.counts, dtype=np.int64)
        frontier = old
        while frontier < total:
            new_frontier = min(frontier + step, total)
            # 1. Replay parked recovered symbols across the new region.
            replayed: list[tuple[int, int, _RecoveredEntry]] = []
            job_indices: list[int] = []
            job_states: list[int] = []
            job_values: list[int] = []
            job_checksums: list[int] = []
            job_directions: list[int] = []
            job_alphas: Optional[list[float]] = [] if irregular else None
            while pending and pending[0][0] < new_frontier:
                key, sq, rec = heapq.heappop(pending)
                job_indices.append(key)
                job_states.append(rec.gen.state)
                job_values.append(rec.value)
                job_checksums.append(rec.checksum)
                job_directions.append(-rec.direction)
                if job_alphas is not None:
                    job_alphas.append(rec.gen.alpha)
                replayed.append((sq, rec))
            if job_indices:
                scatter_walk_numpy(
                    sums,
                    checksums,
                    counts,
                    job_indices,
                    job_states,
                    job_values,
                    job_checksums,
                    job_directions,
                    new_frontier,
                    alphas=job_alphas,
                )
                for j, (sq, rec) in enumerate(replayed):
                    rec.gen.current = job_indices[j]
                    rec.gen.state = job_states[j]
                    heapq.heappush(pending, (job_indices[j], sq, rec))
            # 2. Breadth-first peeling rounds over [0, new_frontier).
            region = counts[frontier:new_frontier]
            candidates = np.where((region == 1) | (region == -1))[0] + frontier
            while candidates.size:
                rec_values: list[int] = []
                rec_checksums: list[int] = []
                rec_directions: list[int] = []
                cand_counts = counts[candidates].tolist()
                cand_checksums = checksums[candidates].tolist()
                cand_values = ints_from_lanes(sums[candidates])
                # Gather the round's plausible candidates, then verify
                # their checksums in ONE batch hash call.  A candidate
                # that becomes an in-round ghost (its checksum recovered
                # by an *earlier* candidate this round) is re-checked
                # against ``seen`` at accept time below — hashing it here
                # is side-effect-free, so the recovered set is exactly
                # what the scalar per-candidate loop produces.
                probe = [
                    j
                    for j in range(len(cand_counts))
                    if (cand_counts[j] == 1 or cand_counts[j] == -1)
                    and cand_checksums[j] not in seen
                ]
                hashes = checksum_int_batch([cand_values[j] for j in probe])
                for j, hashed in zip(probe, hashes):
                    checksum = cand_checksums[j]
                    if checksum in seen:
                        continue  # ghost duplicate of a recovered symbol
                    if hashed != checksum:
                        continue  # not actually pure (counts cancelled)
                    count = cand_counts[j]
                    value = cand_values[j]
                    seen.add(checksum)
                    (remote if count == 1 else local).append(value)
                    rec_values.append(value)
                    rec_checksums.append(checksum)
                    rec_directions.append(-count)
                if not rec_values:
                    break
                # Batch-subtract the round's recoveries everywhere they map.
                job_indices = [0] * len(rec_values)
                job_states = list(rec_checksums)
                touched: list = []
                scatter_walk_numpy(
                    sums,
                    checksums,
                    counts,
                    job_indices,
                    job_states,
                    rec_values,
                    rec_checksums,
                    rec_directions,
                    new_frontier,
                    touched=touched,
                    alphas=(
                        [alpha_for(c) for c in rec_checksums]
                        if irregular
                        else None
                    ),
                )
                # Park each recovery for cells beyond the frontier.
                for j, checksum in enumerate(rec_checksums):
                    gen = new_mapping(checksum)
                    gen.current = job_indices[j]
                    gen.state = job_states[j]
                    rec = _RecoveredEntry(
                        rec_values[j], checksum, -rec_directions[j], gen
                    )
                    heapq.heappush(pending, (job_indices[j], next(seq), rec))
                hit = np.unique(np.concatenate(touched))
                hit_counts = counts[hit]
                candidates = hit[(hit_counts == 1) | (hit_counts == -1)]
            frontier = new_frontier
            if stop_when_decoded and not (
                counts[:frontier].any()
                or sums[:frontier].any()
                or checksums[:frontier].any()
            ):
                break
        bank.sums[:] = ints_from_lanes(sums[:frontier])
        bank.checksums[:] = checksums[:frontier].tolist()
        bank.counts[:] = counts[:frontier].tolist()
        self._nonzero = int(
            np.count_nonzero(
                sums[:frontier].any(axis=1)
                | (checksums[:frontier] != 0)
                | (counts[:frontier] != 0)
            )
        )
        return frontier - old

    # -- peeling -----------------------------------------------------------

    def _peel(self) -> None:
        """Drain the pure-candidate queue, recovering symbols recursively."""
        queue = self._queue
        bank = self._bank
        sums = bank.sums
        checksums = bank.checksums
        counts = bank.counts
        codec = self.codec
        checksum_int = codec.checksum_int
        while queue:
            index = queue.popleft()
            direction = counts[index]
            if direction != 1 and direction != -1:
                continue
            checksum = checksums[index]
            value = sums[index]
            if checksum_int(value) != checksum:
                continue  # not actually pure (multiple symbols cancel counts)
            if checksum in self._seen:
                continue  # ghost duplicate of an already-recovered symbol
            self._seen.add(checksum)
            if direction == 1:
                self._remote.append(value)
            else:
                self._local.append(value)
            # Peel the recovered symbol out of every cell it maps to.
            gen = codec.new_mapping(checksum)
            frontier = len(sums)
            idx = 0
            while idx < frontier:
                old_sum = sums[idx]
                old_checksum = checksums[idx]
                old_count = counts[idx]
                new_sum = old_sum ^ value
                new_checksum = old_checksum ^ checksum
                new_count = old_count - direction
                sums[idx] = new_sum
                checksums[idx] = new_checksum
                counts[idx] = new_count
                if new_sum or new_checksum or new_count:
                    if not (old_sum or old_checksum or old_count):
                        self._nonzero += 1
                    if new_count == 1 or new_count == -1:
                        queue.append(idx)
                else:
                    if old_sum or old_checksum or old_count:
                        self._nonzero -= 1
                idx = gen.next_index()
            entry = _RecoveredEntry(value, checksum, direction, gen)
            heapq.heappush(self._pending, (idx, next(self._seq), entry))

    # -- results -----------------------------------------------------------

    def remote_values(self) -> list[int]:
        """Recovered items exclusive to the sender, in integer form."""
        return list(self._remote)

    def local_values(self) -> list[int]:
        """Recovered items exclusive to the receiver, in integer form."""
        return list(self._local)

    def remote_items(self) -> list[bytes]:
        """Recovered items exclusive to the sender (A \\ B)."""
        return [self.codec.to_bytes(v) for v in self._remote]

    def local_items(self) -> list[bytes]:
        """Recovered items exclusive to the receiver (B \\ A)."""
        return [self.codec.to_bytes(v) for v in self._local]

    def result(self) -> DecodeResult:
        """Snapshot the current decoding outcome.

        Safe to call at any point mid-stream: ``success`` mirrors
        :attr:`decoded`, and the item lists hold whatever has been
        recovered so far (possibly a strict subset of the difference).
        """
        return DecodeResult(
            success=self.decoded,
            remote=self.remote_items(),
            local=self.local_items(),
            symbols_used=len(self._bank),
        )


def decode_sketch_cells(
    cells: Iterable[CodedSymbol], codec: SymbolCodec
) -> DecodeResult:
    """Decode a complete (already subtracted) list of cells in one call.

    Input cells are never mutated (the decoder banks their values).
    """
    decoder = RatelessDecoder(codec)
    decoder.add_coded_block(CodedSymbolBank.from_cells(cells))
    return decoder.result()


def peel_until_decoded(
    decoder: RatelessDecoder,
    stream: Iterable[CodedSymbol],
    max_symbols: Optional[int] = None,
) -> DecodeResult:
    """Feed ``stream`` into ``decoder`` until success or ``max_symbols``.

    Stops after the first cell that completes decoding, or once
    ``max_symbols`` total cells have been consumed (budget exhaustion
    is reported as ``success=False`` in the returned result, never as
    an exception).
    """
    for cell in stream:
        decoder.add_coded_symbol(cell)
        if decoder.decoded:
            break
        if max_symbols is not None and decoder.symbols_received >= max_symbols:
            break
    return decoder.result()
