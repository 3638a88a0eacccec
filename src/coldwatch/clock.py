"""Virtual clock: deterministic event scheduling on simulated time.

Events fire in timestamp order, ties broken by insertion order. The
clock is single-threaded by contract; nothing here blocks or sleeps.
"""

from __future__ import annotations

import heapq
from typing import Iterator

from .model import Timestamp


class SchedulingInPast(ValueError):
    """Attempted to schedule an event before the current simulated time."""


class VirtualClock:
    def __init__(self, start: Timestamp = 0):
        self._now = start
        self._seq = 0
        self._queue: list[tuple[Timestamp, int, object]] = []

    @property
    def now(self) -> Timestamp:
        return self._now

    def schedule(self, at: Timestamp, tag: object) -> None:
        if at < self._now:
            raise SchedulingInPast(f"cannot schedule at {at}, now is {self._now}")
        heapq.heappush(self._queue, (at, self._seq, tag))
        self._seq += 1

    def run(self, until: Timestamp) -> Iterator[tuple[Timestamp, object]]:
        """Fire events one at a time up to `until`, allowing new events to be
        scheduled mid-iteration (the usual discrete-event loop)."""
        if until < self._now:
            raise SchedulingInPast(f"cannot run to {until}, now is {self._now}")
        while self._queue and self._queue[0][0] <= until:
            at, _, tag = heapq.heappop(self._queue)
            self._now = at
            yield at, tag
        self._now = until
