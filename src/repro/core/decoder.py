"""Incremental peeling decoder (paper §3, extended to rateless streams).

The decoder consumes the *subtracted* stream ``a_i ⊖ b_i`` into its
received prefix, a :class:`~repro.core.cellbank.CodedSymbolBank`.  A cell
is *pure* when it holds exactly one source symbol: ``count ∈ {+1, −1}``
and ``checksum == H(sum)``.  Recovering a pure cell's symbol lets us peel
it out of every other cell it maps to, possibly exposing new pure cells —
classic sparse-graph peeling.

Ratelessness adds one twist: a recovered symbol also maps to coded
indices the decoder has not received yet.  So the decoder is an encoder
of what it recovered: each recovered symbol is a row of a signed
:class:`~repro.core.encoder.SourceStore` (value, checksum, count ±1, and
its walk parked at its first index past the received prefix), peeled out
of every later cell it maps to before that cell is examined.

* :meth:`RatelessDecoder.add_coded_symbol` — the reference per-cell
  path: the store's ``(next index, row)`` heap yields the rows parked at
  the new cell (as for the encoder's ``produce_next``), and peeling is
  depth-first via a work queue.
* :meth:`RatelessDecoder.add_coded_block` — the batch path: a bank of
  cells, stopping, if it names stop points, at the first it decodes at.
  Under the vector engine the received prefix and the block lie end to
  end in one lane matrix (a *wave*): one kernel call replays every row
  over the new cells, and peeling runs in breadth-first *rounds* — one
  batch hash call verifies the pure candidates from their lanes, one
  kernel call peels the recoveries (either sign), which join the store
  as rows.  Peeling is confluent, so this reaches the same fixed point —
  recovered symbols, final lanes — as per-cell ingestion; the
  golden-equivalence suite asserts this.  Bank and store stay in the
  lane form from wave to wave (the per-cell path switches them to
  lists, in one pass).

Termination: the stream is fully decoded exactly when every received
cell has been reduced to zero.  Because ρ(0) = 1, cell 0 participates in
every source symbol and zeroises last, matching §4.1's observation that
the first coded symbol is the completion signal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro import engine
from repro.core.cellbank import (
    NUMPY_TAIL_JOBS,
    CodedSymbolBank,
    numpy_block_eligible,
    scatter_walk_arrays,
    to_list,
)
from repro.core.coded import CodedSymbol
from repro.core.encoder import SourceStore
from repro.core.mapping import IndexGenerator
from repro.core.symbols import SymbolCodec
from repro.hashing.prng import GAMMA


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
    from :attr:`decoded` and :meth:`result` at any point.  The received
    prefix is a bank, the recovered symbols are rows of a signed store
    (+1 for the sender's, −1 for the receiver's; module docstring).  Two
    ingestion engines — the scalar reference and the NumPy waves of
    :meth:`add_coded_block` — reach the same fixed point with identical
    lane state, so engine choice never changes what is recovered.
    """

    def __init__(self, codec: SymbolCodec) -> None:
        self.codec = codec
        self._bank = CodedSymbolBank()
        self._store = SourceStore(codec, signed=True)
        # the per-cell path's stepper, re-parked at each row it walks
        self._walk = IndexGenerator(0)
        self._queue: deque[int] = deque()
        self._seen: set[int] = set()  # recovered checksums
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
        """Reference per-cell ingestion, on the list form."""
        bank = self._bank
        if bank.vector:  # the last cells came through a wave
            self._bank = bank = bank.in_form(False)
        index = len(bank.sums)
        # Symbols recovered earlier may map to this new index: peel them out
        # before the cell is examined.
        heap = self._store.heap  # current whenever it is built (see _peel)
        if heap is None or heap and heap[0][0] == index:
            rec_sum, rec_checksum, rec_count = self._store.fold(index, self._walk)
            cell_sum ^= rec_sum
            cell_checksum ^= rec_checksum
            cell_count -= rec_count
        bank.append(cell_sum, cell_checksum, cell_count)
        if cell_sum or cell_checksum or cell_count:
            self._nonzero += 1
        if cell_count == 1 or cell_count == -1:
            self._queue.append(index)
            self._peel()

    def add_subtracted(self, remote_cell: CodedSymbol, local_cell: CodedSymbol) -> None:
        """Convenience: consume ``remote ⊖ local`` without mutating inputs."""
        self.add_coded_symbol(remote_cell.subtract(local_cell))

    def add_coded_block(self, bank: CodedSymbolBank, stops: Sequence[int] = ()) -> int:
        """Consume a whole bank of subtracted cells; returns cells consumed.

        The batch path: the fixed point of per-cell ingestion.  ``stops``
        are optional cell counts of ``bank``, ascending, such as its
        frames' ends: the decoder stops at the first at which it is
        decoded, as per-cell ingestion would (``range(1, len(bank) + 1)``
        is cell-exact), and with stops an already decoded decoder takes
        nothing.  Stops outside ``0..len(bank)`` or out of order are a
        ``ValueError``, before any cell is taken.  Under the vector
        engine a block joins the lane *wave* (:meth:`_wave`) once the
        decoder is lane-resident or the block holds
        :data:`~repro.core.cellbank.NUMPY_TAIL_JOBS` cells (a handful
        costs less per cell, as a walk's last few edges do); the rest go
        per cell.  ``bank`` is never mutated, in either form.
        """
        n = len(bank)
        if any(b < a for a, b in zip([0, *stops], stops)) or (stops and stops[-1] > n):
            raise ValueError(f"stops must ascend within 0..{n}, got {list(stops)}")
        if n == 0 or (stops and self.decoded):
            return 0
        if numpy_block_eligible(self.codec) and (
            n >= NUMPY_TAIL_JOBS or self._bank.vector
        ):
            return self._wave(bank, stops)
        at, consumed = set(stops), 0
        for cell in zip(*bank.in_form(False).lanes):
            self._consume(*cell)
            consumed += 1
            if consumed in at and self._nonzero == 0:
                break
        return consumed

    def _wave(self, bank: CodedSymbolBank, stops: Sequence[int]) -> int:
        """The vector engine's :meth:`add_coded_block`.

        The received prefix and the block lie end to end in one lane
        matrix: one kernel call replays every recovered row over the new
        cells, then peeling runs in breadth-first *rounds* — ONE
        ``checksum_int_batch`` call verifies a round's pure candidates
        from their lanes, they are accepted against the recovered
        checksums (a repeat is a ghost duplicate, as per cell) and one
        kernel call peels them, either sign; they join the store as rows.
        Peeling is monotone in the prefix, so the first of ``stops`` at
        which the decoder is decoded follows from the edges of the rows
        it recovered (:func:`_stop_point`), and the bank and the rows'
        parked walks roll back to it (:func:`_rewind`).
        """
        np, codec, store = engine.np, self.codec, self._store
        old = len(self._bank)
        total = old + len(bank)
        parts = (part.in_form(True, codec.symbol_size) for part in (self._bank, bank))
        sums, checksums, counts = (
            np.concatenate(lane) for lane in zip(*(part.lanes for part in parts))
        )
        # The recovered rows — (values, checksums, signs, idx, state) — the
        # store's, then each peel round's recoveries.
        table = list(store.columns())
        held = len(table[0])
        fresh: list[list] = []
        # The stops short of the whole bank, as prefix lengths; for them,
        # every edge walked (its row numbered over table ++ fresh) and the
        # stored rows' walks as they began.
        inner = [old + e for e in stops if 0 < e < total - old]
        log = [(np.zeros(0, np.int64),) * 2] if inner else None
        begun = table[4].copy()

        def walk(rows, touched=None):
            # One kernel call; every row walks to the wave's end.
            values, csums, signs, idx, state = rows
            alphas = codec.alpha_batch(csums)
            alphas = None if alphas is None else np.array(alphas, np.float64)
            scatter_walk_arrays(
                sums, checksums, counts, idx, state, values, csums, -signs, total,
                touched=touched, alphas=alphas,
            )

        walk(table, log)  # 1. replay every recovered row across the new cells
        seen = self._seen
        pure = (counts[old:] == 1) | (counts[old:] == -1)
        candidates = np.flatnonzero(pure) + old
        while candidates.size:  # 2. breadth-first peel rounds
            values, csums = sums[candidates], checksums[candidates]
            hashed = codec.checksum_int_batch(values)
            verified = np.flatnonzero(hashed == csums)
            keep = []
            for j, checksum in zip(verified.tolist(), csums[verified].tolist()):
                if checksum not in seen:
                    seen.add(checksum)
                    keep.append(j)
            if not keep:
                break
            # Peel the recoveries out of every cell they map to; they join
            # the table parked past the wave's end.
            fresh.append([values[keep], csums[keep], counts[candidates[keep]]])
            fresh[-1] += [np.zeros(len(keep), np.int64), csums[keep]]
            touched = []
            walk(fresh[-1], touched)
            if log is not None:
                first = held + sum(len(f[0]) for f in fresh[:-1])
                log += [(slot, row + first) for slot, row in touched]
            hit = np.concatenate([slot for slot, _ in touched])  # slots written
            hit = np.sort(hit[np.abs(counts[hit]) == 1])
            candidates = hit[np.diff(hit, prepend=-1) != 0]  # each pure one, once
        values, csums, signs, idx, state = (
            [np.concatenate(c) for c in zip(table, *fresh)] if fresh else table
        )
        nonzero = sums.any(axis=1) | (checksums != 0) | (counts != 0)
        end = total
        if inner and not nonzero.any():
            # the edges, by walk, each walk's in index order
            slot, row = (np.concatenate(c).astype(np.int64) for c in zip(*log))
            order = np.argsort(row, kind="stable")
            cell, of = slot[order], row[order]
            new = of >= held
            end = _stop_point(cell[new], of[new], old, [*inner, total])
            if end < total:
                began = np.concatenate([begun, csums[held:]])  # fresh: 0 steps
                _rewind(idx, state, began, cell, of, end)
        # The decoder takes its cells back, its stored rows' advanced walks
        # and its new rows, in recovery order.
        self._bank = CodedSymbolBank(sums[:end], checksums[:end], counts[:end])
        self._nonzero = int(np.count_nonzero(nonzero[:end]))
        table[3][:], table[4][:] = idx[:held], state[:held]
        if len(values) > held:
            new = slice(held, None)
            alphas = store.alphas_for(csums[new])
            walks = (idx[new], state[new])
            store.append(values[new], csums[new], alphas, walks, signs[new])
        return end - old

    # -- peeling -----------------------------------------------------------

    def _peel(self) -> None:
        """Drain the pure-candidate queue, recovering symbols recursively."""
        queue = self._queue
        sums, checksums, counts = self._bank.lanes
        codec = self.codec
        checksum_int = codec.checksum_int
        seen, found = self._seen, []
        while queue:
            index = queue.popleft()
            direction = counts[index]
            if direction != 1 and direction != -1:
                continue
            checksum = checksums[index]
            value = sums[index]
            if checksum_int(value) != checksum:
                continue  # not actually pure (multiple symbols cancel counts)
            if checksum in seen:
                continue  # ghost duplicate of an already-recovered symbol
            seen.add(checksum)
            # Peel the recovered symbol out of every cell it maps to.
            gen = self._walk  # re-parked at this symbol's seed
            gen.current, gen.state, gen.alpha = 0, checksum, codec.alpha_for(checksum)
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
                elif old_sum or old_checksum or old_count:
                    self._nonzero -= 1
                idx = gen.next_index()
            found.append((value, checksum, idx, gen.state, direction))
        if found:  # park the recoveries, as store rows, at their next index
            values, csums, idx, state, signs = map(list, zip(*found))
            alphas = self._store.alphas_for(csums)
            self._store.append(values, csums, alphas, (idx, state), signs)
            self._store.next_heap()  # ... and onto the per-cell heap

    # -- results -----------------------------------------------------------

    def _recovered(self, sign: int) -> list[int]:
        """The values of the store's rows of this sign, in recovery order."""
        store = self._store
        values, signs = (to_list(c[: store.size]) for c in (store.values, store.signs))
        return [value for value, mine in zip(values, signs) if mine == sign]

    def remote_values(self) -> list[int]:
        """Recovered items exclusive to the sender, in integer form."""
        return self._recovered(1)

    def local_values(self) -> list[int]:
        """Recovered items exclusive to the receiver, in integer form."""
        return self._recovered(-1)

    def remote_items(self) -> list[bytes]:
        """Recovered items exclusive to the sender (A \\ B)."""
        return [self.codec.to_bytes(v) for v in self.remote_values()]

    def local_items(self) -> list[bytes]:
        """Recovered items exclusive to the receiver (B \\ A)."""
        return [self.codec.to_bytes(v) for v in self.local_values()]

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


def _stop_point(cell, row, old: int, stops: Sequence[int]) -> int:
    """The first of ``stops`` (ascending prefix lengths past ``old``) at
    which peeling on degrees alone recovers every row of the edges
    ``(cell, row)``, grouped by row: the rows a decoder recovered past
    ``old``, with all their edges below the last stop (the rows it held
    peel within ``old``).  Cells arrive one at a time, as per cell, but
    only those rows' edges are touched — O(d log m) steps, not O(m)
    kernel work.  A pure cell's row is its degree-1 row-id sum."""
    np = engine.np
    edges = cell.tolist()
    bounds = np.searchsorted(row, np.arange(row.max(initial=-1) + 2)).tolist()
    degree = np.bincount(cell, minlength=stops[-1])
    queue = np.flatnonzero(degree[:old] == 1).tolist()
    degree = degree.tolist()
    owner = np.bincount(cell, row, stops[-1]).astype(np.int64).tolist()
    left, frontier = int(np.count_nonzero(np.diff(row, prepend=-1))), old
    for stop in stops:
        while True:
            while queue:
                c = queue.pop()
                if degree[c] != 1:
                    continue
                r, left = owner[c], left - 1
                for e in edges[bounds[r] : bounds[r + 1]]:
                    degree[e] -= 1
                    owner[e] -= r
                    if degree[e] == 1 and e < frontier:
                        queue.append(e)
            if frontier == stop:
                break
            if degree[frontier] == 1:
                queue.append(frontier)
            frontier += 1
        if not left:
            return stop
    return stops[-1]


def _rewind(idx, state, begun, cell, row, stop: int) -> None:
    """Park each walk of ``row`` back at its first index ≥ ``stop``.
    ``(cell, row)`` are every edge the walks crossed since ``begun``
    (their states then), grouped by walk in index order: a walk's k-th
    edge has state ``begun + k·γ``, and a walk with no edge at or past
    ``stop`` is parked there already."""
    np = engine.np
    head = np.diff(row, prepend=-1) != 0  # each walk's first edge
    past = cell >= stop
    at = np.flatnonzero(past & (head | ~np.roll(past, 1)))
    heads = np.flatnonzero(head)
    steps = at - heads[np.searchsorted(heads, at, side="right") - 1]
    idx[row[at]] = cell[at]
    state[row[at]] = begun[row[at]] + steps.astype(np.uint64) * np.uint64(GAMMA)


def decode_sketch_cells(
    cells: Iterable[CodedSymbol], codec: SymbolCodec
) -> DecodeResult:
    """Decode a complete (already subtracted) list of cells in one call.

    Input cells are never mutated (the decoder banks their values).
    """
    decoder = RatelessDecoder(codec)
    decoder.add_coded_block(CodedSymbolBank.from_cells(cells))
    return decoder.result()

