"""A minimal discrete-event simulator: a clock and an event heap."""

from __future__ import annotations

import heapq
from itertools import count
from typing import Callable, Optional


class Simulator:
    """Priority-queue event loop with a float clock in seconds.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [1.5]
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._ids = count()
        self._cancelled: set[int] = set()

    def schedule(self, delay: float, action: Callable[[], None]) -> int:
        """Run ``action`` ``delay`` seconds from now; returns an event id."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        event_id = next(self._ids)
        heapq.heappush(self._heap, (self.now + delay, event_id, action))
        return event_id

    def schedule_at(self, when: float, action: Callable[[], None]) -> int:
        """Run ``action`` at absolute time ``when`` (≥ now).

        ``when`` is used verbatim — NOT round-tripped through a relative
        delay.  ``now + (when - now)`` can differ from ``when`` by a ULP
        (it depends on ``now``), which breaks callers that rely on equal
        absolute times staying equal: a link's in-order delivery clamp
        assigns many frames the same delivery instant from *different*
        current times, and a one-ULP scramble would reorder them.
        """
        if when < self.now:
            raise ValueError("cannot schedule into the past")
        event_id = next(self._ids)
        heapq.heappush(self._heap, (when, event_id, action))
        return event_id

    def cancel(self, event_id: int) -> None:
        """Drop a scheduled event (lazy removal)."""
        self._cancelled.add(event_id)

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> None:
        """Process events in time order until the heap drains (or limits)."""
        processed = 0
        while self._heap:
            when, event_id, action = self._heap[0]
            if until is not None and when > until:
                self.now = until
                return
            heapq.heappop(self._heap)
            if event_id in self._cancelled:
                self._cancelled.discard(event_id)
                continue
            self.now = when
            action()
            processed += 1
            if processed >= max_events:
                raise RuntimeError(f"simulation exceeded {max_events} events")
