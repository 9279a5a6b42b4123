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
* :func:`ingest` — the batch path: a bank for each of many decoders
  (:meth:`RatelessDecoder.add_coded_block` is its one-decoder case).
  Sizeable blocks share one *wave*: their banks lie end to end in one
  lane matrix, one kernel call replays every parked symbol, and peeling
  runs in breadth-first *rounds* — one batch hash call verifies every
  decoder's pure candidates, one kernel call subtracts the recoveries.
  Peeling is confluent and decoders are independent, so this reaches the
  same fixed point — recovered symbols, final lanes — as per-cell
  ingestion; the golden-equivalence suite asserts this.

Termination: the stream is fully decoded exactly when every received
cell has been reduced to zero.  Because ρ(0) = 1, cell 0 participates in
every source symbol and zeroises last, matching §4.1's observation that
the first coded symbol is the completion signal.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate, count as _counter
from typing import Iterable, NamedTuple, Sequence

from repro import engine
from repro.core.cellbank import (
    CodedSymbolBank,
    ints_from_lanes,
    lanes_from_ints,
    numpy_block_eligible,
    scatter_walk_arrays,
)
from repro.core.coded import CodedSymbol
from repro.core.mapping import IndexGenerator
from repro.core.symbols import SymbolCodec

# Early-stop granularity of the batch path: the block is ingested in
# sub-blocks of this many cells, checking for completion between them.
# 2048 keeps the overshoot past the decode point under ~10% at d = 10^4
# while amortising the per-sub-block replay/scan overhead.
DEFAULT_STOP_CHUNK = 2048

# Below this bank size the NumPy block path costs more than it saves.
_MIN_NUMPY_BLOCK = 64


class _RecoveredEntry(NamedTuple):
    """A recovered source symbol waiting to be peeled from future cells."""

    value: int
    checksum: int
    direction: int
    gen: IndexGenerator


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
    scalar reference and the NumPy waves of :func:`ingest` — reach the
    same fixed point with identical lane state; peeling is confluent, so
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

    def add_coded_block(
        self,
        bank: CodedSymbolBank,
        stop_when_decoded: bool = False,
        chunk: int = DEFAULT_STOP_CHUNK,
    ) -> int:
        """Consume a whole bank of subtracted cells; returns cells consumed.

        The one-job case of :func:`ingest`: the fixed point of per-cell
        ingestion, stopping (with ``stop_when_decoded``) after the first
        ``chunk``-cell sub-block that completes decoding — ``chunk=1``
        is cell-exact on both engines.  ``bank`` is never mutated.
        """
        return ingest([(self, bank)], stop_when_decoded, chunk)[0]

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


def ingest(
    jobs: Sequence[tuple[RatelessDecoder, CodedSymbolBank]],
    stop_when_decoded: bool = False,
    chunk: int = DEFAULT_STOP_CHUNK,
) -> list[int]:
    """Feed each ``(decoder, bank)`` job its bank; returns cells consumed per job.

    A job takes the NumPy engine only when its block is sizeable and a
    fair fraction of its decoder's bank (which the engine copies into
    arrays and back per call), else the per-cell engine.  The NumPy jobs
    of one codec run as one *wave* (banks end to end in one lane matrix,
    per-row kernel ``hi``/``base``): one kernel call replays all parked
    symbols, and each peel round verifies every decoder's candidates in
    ONE ``checksum_int_batch`` call, accepts them against that decoder's
    ``seen`` and peels them in one kernel call — so each decoder ends as
    a call of its own leaves it.  ``stop_when_decoded`` advances the jobs
    in lock-step ``chunk``-cell sub-blocks.  One job per decoder at most;
    a job's bank may take either form (a wave concatenates a lane-form
    bank as it is, the per-cell engine reads it as ints).
    """
    if len({id(decoder) for decoder, _ in jobs}) < len(jobs):
        raise ValueError("a decoder may appear in at most one ingest job")
    consumed = [0] * len(jobs)
    waves: dict[int, list[int]] = {}  # id(codec) -> its NumPy jobs
    for j, (decoder, bank) in enumerate(jobs):
        n = len(bank)
        if n == 0 or (stop_when_decoded and decoder.decoded):
            continue
        step = chunk if stop_when_decoded else n
        if step < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        if (
            n >= _MIN_NUMPY_BLOCK
            and step >= _MIN_NUMPY_BLOCK
            and 16 * n >= len(decoder._bank)
            and numpy_block_eligible(decoder.codec)
        ):
            waves.setdefault(id(decoder.codec), []).append(j)
            continue
        consume, lanes = decoder._consume, bank.in_form(False).lanes
        while consumed[j] < n:
            lo = consumed[j]
            consumed[j] = min(lo + step, n)
            for cell in zip(*(lane[lo : consumed[j]] for lane in lanes)):
                consume(*cell)
            if stop_when_decoded and decoder._nonzero == 0:
                break
    np = engine.np
    for wave in waves.values():
        decoders = [jobs[j][0] for j in wave]
        banks = [(decoder._bank, jobs[j][1]) for decoder, j in zip(decoders, wave)]
        codec = decoders[0].codec
        irregular = codec.irregular is not None
        seens = [decoder._seen for decoder in decoders]
        olds = [len(mine) for mine, _ in banks]
        totals = [len(mine) + len(src) for mine, src in banks]
        starts = [0, *accumulate(totals)]  # decoder w: rows starts[w]..starts[w+1]
        parts = [b for pair in banks for b in pair]  # a decoder's bank, its block
        parts = zip(*(b.in_form(True, codec.symbol_size).lanes for b in parts))
        sums, checksums, counts = (np.concatenate(lane) for lane in parts)
        arrays, frontiers, ends = (sums, checksums, counts), olds[:], totals[:]

        def walk(owner, indices, states, values, csums, dirs, alphas, touched=None):
            # One kernel call; row r walks decoder owner[r]'s rows to its end.
            hi, base = ends[0], 0
            if len(wave) > 1:
                hi, base = np.array(ends)[owner], -np.array(starts[:-1])[owner]
            idx, state = scatter_walk_arrays(
                *arrays, np.array(indices, np.int64), np.array(states, np.uint64),
                lanes_from_ints(values, codec.symbol_size), np.array(csums, np.uint64),
                np.array(dirs, np.int64), hi, base=base, touched=touched,
                alphas=None if alphas is None else np.array(alphas, np.float64),
            )
            indices[:], states[:] = idx.tolist(), state.tolist()

        active = list(range(len(wave)))
        while active:
            # 1. Replay every decoder's parked recoveries across its new cells.
            replayed = []
            for w in active:
                if stop_when_decoded:
                    ends[w] = min(frontiers[w] + chunk, totals[w])
                pending = decoders[w]._pending
                while pending and pending[0][0] < ends[w]:
                    replayed.append((w, *heapq.heappop(pending)))
            if replayed:
                owner, indices, _, recs = map(list, zip(*replayed))
                states = [rec.gen.state for rec in recs]
                values = [rec.value for rec in recs]
                csums = [rec.checksum for rec in recs]
                dirs = [-rec.direction for rec in recs]
                alphas = [rec.gen.alpha for rec in recs] if irregular else None
                walk(owner, indices, states, values, csums, dirs, alphas)
                for (w, _, sq, rec), index, state in zip(replayed, indices, states):
                    rec.gen.current, rec.gen.state = index, state
                    heapq.heappush(decoders[w]._pending, (index, sq, rec))
            # 2. Breadth-first peel rounds over every decoder's [0, end).
            pure = (counts == 1) | (counts == -1)
            spans = [(starts[w] + frontiers[w], starts[w] + ends[w]) for w in active]
            hits = [np.flatnonzero(pure[lo:hi]) + lo for lo, hi in spans]
            candidates = np.concatenate(hits)
            while candidates.size:
                cand_counts = counts[candidates].tolist()
                cand_checksums = checksums[candidates].tolist()
                cand_values = ints_from_lanes(sums[candidates])
                cuts = starts[1:-1]  # the decoders' row boundaries
                owners = np.searchsorted(cuts, candidates, side="right").tolist()
                # ONE batch hash call verifies the round; an in-round ghost
                # (recovered by an earlier candidate of its decoder) is
                # re-checked against ``seen`` below, as the scalar loop does.
                probe = [
                    j
                    for j, count in enumerate(cand_counts)
                    if (count == 1 or count == -1)
                    and cand_checksums[j] not in seens[owners[j]]
                ]
                hashes = codec.checksum_int_batch([cand_values[j] for j in probe])
                recovered = []  # (decoder, value, checksum, count)
                for j, hashed in zip(probe, hashes):
                    checksum, w, value = cand_checksums[j], owners[j], cand_values[j]
                    if checksum in seens[w] or hashed != checksum:
                        continue  # a ghost duplicate, or not pure (counts cancelled)
                    seens[w].add(checksum)
                    decoder, sign = decoders[w], cand_counts[j]
                    (decoder._remote if sign == 1 else decoder._local).append(value)
                    recovered.append((w, value, checksum, sign))
                if not recovered:
                    break
                # Batch-subtract the round's recoveries everywhere they map,
                # then park each for the cells beyond its decoder's end.
                owner, values, csums, signs = map(list, zip(*recovered))
                indices, states, touched = [0] * len(csums), list(csums), []
                alphas = list(map(codec.alpha_for, csums)) if irregular else None
                dirs = [-sign for sign in signs]
                walk(owner, indices, states, values, csums, dirs, alphas, touched)
                for (w, value, checksum, sign), index, state in zip(
                    recovered, indices, states
                ):
                    gen = codec.new_mapping(checksum)
                    gen.current, gen.state = index, state
                    entry = _RecoveredEntry(value, checksum, sign, gen)
                    seq = next(decoders[w]._seq)
                    heapq.heappush(decoders[w]._pending, (index, seq, entry))
                hit = np.unique(np.concatenate(touched))
                hit_counts = counts[hit]
                candidates = hit[(hit_counts == 1) | (hit_counts == -1)]
            frontiers = ends[:]
            active = [w for w in active if ends[w] < totals[w]]
            if stop_when_decoded:  # a job stops after the sub-block decoding it
                live = sums.any(axis=1) | (checksums != 0) | (counts != 0)
                live = [live[starts[w] : starts[w] + ends[w]].any() for w in active]
                active = [w for w, undecoded in zip(active, live) if undecoded]
        lanes = CodedSymbolBank(sums, checksums, counts).in_form(False).lanes
        nonzero = sums.any(axis=1) | (checksums != 0) | (counts != 0)
        for w, (decoder, (bank, _)) in enumerate(zip(decoders, banks)):
            lo, hi = starts[w], starts[w] + frontiers[w]
            for mine, lane in zip(bank.lanes, lanes):
                mine[:] = lane[lo:hi]
            decoder._nonzero = int(np.count_nonzero(nonzero[lo:hi]))
            consumed[wave[w]] = frontiers[w] - olds[w]
    return consumed


def decode_sketch_cells(
    cells: Iterable[CodedSymbol], codec: SymbolCodec
) -> DecodeResult:
    """Decode a complete (already subtracted) list of cells in one call.

    Input cells are never mutated (the decoder banks their values).
    """
    decoder = RatelessDecoder(codec)
    decoder.add_coded_block(CodedSymbolBank.from_cells(cells))
    return decoder.result()

