"""Crash-safe outbox plus the local day store, in one record file.

Every ledger write request is packed once, at enqueue, and durably
recorded as Pending before any submission attempt; replay, compaction
and the ledger reuse those bytes. Items are confirmed only after the
ledger acknowledges. Combined with the ledger's (device_id, seq)
idempotency, replaying after any crash point yields exactly one ledger
effect per request. The same file retains the current day's report rows; older
days are compacted away after their report is anchored.

Retries after a ledger outage follow a clock-driven backoff
(BACKOFF_SCHEDULE): 30 s, 60 s, 120 s, then 120 s per attempt.

The optional fault_hook is a test seam: it is invoked with a stage
label at every durability boundary (enqueue/submit/confirm) and may
raise to simulate a crash at exactly that point.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .ledger import (
    COUNT,
    Cursor,
    Layout,
    Ledger,
    LedgerKind,
    LedgerOutage,
    PackedRequest,
    Payload,
    encode_payload,
    pack_request,
    unpack_request,
)
from .model import Timestamp
from .storage import RecordFile, StoreFormatError

BACKOFF_SCHEDULE = (30, 60, 120)  # seconds to the next try after 1, 2, 3 or more failures


def _check_row_length(length: int) -> None:
    if length < 8:
        raise ValueError(f"a {length}-byte row is shorter than its 8-byte instant")


_REC_ENQUEUE = 1
_REC_MARK = 2
_REC_ROW = 3
_REC_WATERMARK = 4
MARK = Layout(">BBSQ")  # record type, state, device, seq
WATERMARK = Layout(">SQ")  # a device and its next seq; a watermark is a COUNT of these


class ItemState(enum.Enum):
    PENDING = 1
    SUBMITTED = 2
    CONFIRMED = 3


@dataclass
class OutboxItem:
    request: PackedRequest
    state: ItemState

    @property
    def key(self) -> tuple[str, int]:
        return (self.request.device_id, self.request.seq)


@dataclass(frozen=True)
class DrainResult:
    retry_at: Timestamp | None


FaultHook = Callable[[str, str, int], None]


class Outbox:
    def __init__(self, path: Path, fault_hook: FaultHook | None = None):
        self.fault_hook = fault_hook
        self._file = RecordFile(path)
        self._items: dict[tuple[str, int], OutboxItem] = {}  # in enqueue order
        self._next_seq: dict[str, int] = {}
        self._rows: list[bytes] = []
        self._outage_streak = 0
        try:
            self._replay()
        except BaseException:
            self._file.close()
            raise

    @property
    def dropped_bytes(self) -> int:
        """Torn or corrupt tail bytes the record file dropped at open."""
        return self._file.dropped_bytes

    def _replay(self) -> None:
        """Rebuild state from the record file. Submitted-but-unconfirmed
        items downgrade to Pending; confirmed marks always stick."""
        for position, payload in enumerate(self._file.records):
            rec_type = payload[0]
            body = payload[1:]
            if rec_type == _REC_ENQUEUE:
                request = unpack_request(body)
                item = OutboxItem(request=request, state=ItemState.PENDING)
                self._items[item.key] = item
                nxt = self._next_seq.get(request.device_id, 0)
                self._next_seq[request.device_id] = max(nxt, request.seq + 1)
            elif rec_type == _REC_MARK:
                _, state, device, seq = Cursor(payload).read(MARK)
                item = self._items.get((device, seq))
                if ItemState(state) is ItemState.CONFIRMED and item is not None:
                    item.state = ItemState.CONFIRMED
            elif rec_type == _REC_ROW:
                if len(body) < 8:
                    raise StoreFormatError(
                        f"{self._file.path}: a {len(body)}-byte row at record {position}"
                        " is shorter than its 8-byte instant"
                    )
                self._rows.append(body)
            elif rec_type == _REC_WATERMARK:
                cur = Cursor(body)
                for _ in range(cur.read(COUNT)[0]):
                    device, seq = cur.read(WATERMARK)
                    self._next_seq[device] = max(self._next_seq.get(device, 0), seq)
            else:
                raise StoreFormatError(
                    f"{self._file.path}: unknown record type {rec_type} at record {position}"
                )

    # -- outbox ------------------------------------------------------------

    def enqueue(self, kind: LedgerKind, device_id: str, at: Timestamp,
                payload: Payload | bytes) -> OutboxItem:
        """Queue a request with a decoded payload, or with its payload's
        bytes (the runner packs a batch's readings as it records them)."""
        seq = self._next_seq.get(device_id, 0)
        if not isinstance(payload, bytes):
            payload = encode_payload(kind, payload, device_id)
        request = pack_request(kind, device_id, seq, at, payload)
        self._hook("enqueue:pre", device_id, seq)
        self._file.append(bytes([_REC_ENQUEUE]) + request.data)
        self._next_seq[device_id] = seq + 1
        item = OutboxItem(request=request, state=ItemState.PENDING)
        self._items[item.key] = item
        self._hook("enqueue:post", device_id, seq)
        return item

    def drain(self, ledger: Ledger, credential: str, now: Timestamp) -> DrainResult:
        """Submit Pending items in order; on an outage, report when to retry."""
        for key, item in self._items.items():
            if item.state is not ItemState.PENDING:
                continue
            device_id, seq = key
            self._file.append(MARK.pack(_REC_MARK, ItemState.SUBMITTED.value, *key))
            item.state = ItemState.SUBMITTED
            self._hook("submit:marked", device_id, seq)
            try:
                ledger.submit(item.request, credential, now=now)
            except LedgerOutage:
                item.state = ItemState.PENDING
                self._outage_streak += 1
                delay = BACKOFF_SCHEDULE[min(self._outage_streak, len(BACKOFF_SCHEDULE)) - 1]
                return DrainResult(retry_at=now + delay)
            self._outage_streak = 0
            self._hook("confirm:pre", device_id, seq)
            self._file.append(MARK.pack(_REC_MARK, ItemState.CONFIRMED.value, *key))
            item.state = ItemState.CONFIRMED
            self._hook("confirm:post", device_id, seq)
        return DrainResult(retry_at=None)

    def items(self) -> list[OutboxItem]:
        return list(self._items.values())

    # -- day rows ------------------------------------------------------------

    def add_row(self, row: bytes) -> None:
        """Row payloads are opaque except for a leading big-endian i64
        timestamp, which compaction and day filtering rely on; a row
        shorter than that is a ValueError."""
        _check_row_length(len(row))
        self._file.append(bytes([_REC_ROW]) + row)
        self._rows.append(row)

    def add_rows(self, rows: list[bytes]) -> None:
        """add_row for each row in turn, in one write to the record file."""
        _check_row_length(min(map(len, rows), default=8))
        self._file.extend([bytes([_REC_ROW]) + row for row in rows])
        self._rows.extend(rows)

    def rows(self, start: Timestamp, end: Timestamp) -> list[bytes]:
        return [
            row for row in self._rows if start <= int.from_bytes(row[:8], "big", signed=True) < end
        ]

    def compact(self, keep_rows_from: Timestamp) -> None:
        """Drop confirmed items and rows older than keep_rows_from; a seq
        watermark record preserves per-device seq continuity."""
        payloads = [
            bytes([_REC_WATERMARK])
            + COUNT.pack(len(self._next_seq))
            + b"".join(WATERMARK.pack(d, self._next_seq[d]) for d in sorted(self._next_seq))
        ]
        kept_items = {}
        for key, item in self._items.items():
            if item.state is ItemState.CONFIRMED:
                continue
            payloads.append(bytes([_REC_ENQUEUE]) + item.request.data)
            item.state = ItemState.PENDING
            kept_items[key] = item
        kept_rows = self.rows(keep_rows_from, math.inf)
        payloads.extend(bytes([_REC_ROW]) + row for row in kept_rows)
        self._file.rewrite(payloads)
        self._items = kept_items
        self._rows = kept_rows

    def close(self) -> None:
        self._file.close()

    def _hook(self, stage: str, device_id: str, seq: int) -> None:
        if self.fault_hook is not None:
            self.fault_hook(stage, device_id, seq)
