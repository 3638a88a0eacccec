"""Host-speed probe: report timings at one fixed reference speed.

The benchmark's host is shared, and its speed drifts by up to 1.7x over
tens of seconds. A fixed pure-Python task, independent of coldwatch, is
timed next to every measurement. Its mix of work resembles a simulation
tick: a heap, frozen dataclasses, a seeded RNG, JSON and SHA-256. A time
t measured while the probe took r seconds is reported as
t * NOMINAL_S / r: the time on a host that runs the probe in NOMINAL_S.
A change to coldwatch cannot change the probe, so it moves normalized
times exactly as it moves raw ones.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
import time
from dataclasses import dataclass

NOMINAL_S = 0.1
_ITEMS = 8000


@dataclass(frozen=True)
class _Item:
    at: int
    temp: int
    hum: int


def probe_s() -> float:
    """Host seconds of one run of the fixed task."""
    start = time.perf_counter_ns()
    rng = random.Random(7)
    heap: list[tuple[int, int, tuple]] = []
    for i in range(_ITEMS):
        heapq.heappush(heap, (i * 30, i, ("tick",)))
    by_at = {}
    lines = []
    while heap:
        at, _, _ = heapq.heappop(heap)
        item = _Item(at, rng.randint(-5, 5), rng.randint(-20, 20))
        by_at[at] = item
        doc = {"at": at, "kind": "Sample", "payload": {"temp": item.temp, "hum": item.hum}}
        lines.append(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    hashlib.sha256("\n".join(lines).encode()).digest()
    return (time.perf_counter_ns() - start) / 1e9


def normalized(seconds: float, probe: float) -> float:
    return seconds * NOMINAL_S / probe
