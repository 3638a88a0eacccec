"""Crash-safe outbox plus the local day store, in one record file.

Every ledger write request is durably recorded as Pending before any
submission attempt; items are confirmed only after the ledger
acknowledges. Combined with the ledger's (device_id, seq) idempotency,
replaying after any crash point yields exactly one ledger effect per
request. The same file retains the current day's report rows; older
days are compacted away after their report is anchored.

Retries after a ledger outage follow the clock-driven backoff of
retry_delay: 30 s, 60 s, 120 s, then 120 s per attempt.

The optional fault_hook is a test seam: it is invoked with a stage
label at every durability boundary (enqueue/submit/confirm) and may
raise to simulate a crash at exactly that point.
"""

from __future__ import annotations

import enum
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .ledger import (
    Cursor,
    EntryRequest,
    Ledger,
    LedgerOutage,
    decode_request,
    enc_str,
    encode_request,
)
from .model import Timestamp
from .storage import RecordFile

BACKOFF_SCHEDULE = (30, 60, 120)


def retry_delay(failures: int) -> int:
    """Seconds until the next try after `failures` failed tries in a row:
    30, 60, 120, then 120 per try (ledger submits and alert sends alike)."""
    return BACKOFF_SCHEDULE[min(failures, len(BACKOFF_SCHEDULE)) - 1]

_REC_ENQUEUE = 1
_REC_MARK = 2
_REC_ROW = 3
_REC_WATERMARK = 4
_ROW_AT = struct.Struct(">q")  # the leading timestamp of a day row


class ItemState(enum.Enum):
    PENDING = 1
    SUBMITTED = 2
    CONFIRMED = 3


@dataclass
class OutboxItem:
    request: EntryRequest
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
        self._replay()

    @property
    def dropped_bytes(self) -> int:
        """Torn or corrupt tail bytes the record file dropped at open."""
        return self._file.dropped_bytes

    def _replay(self) -> None:
        """Rebuild state from the record file. Submitted-but-unconfirmed
        items downgrade to Pending; confirmed marks always stick."""
        for payload in self._file.records:
            rec_type = payload[0]
            body = payload[1:]
            if rec_type == _REC_ENQUEUE:
                request = decode_request(body)
                item = OutboxItem(request=request, state=ItemState.PENDING)
                self._items[item.key] = item
                nxt = self._next_seq.get(request.device_id, 0)
                self._next_seq[request.device_id] = max(nxt, request.seq + 1)
            elif rec_type == _REC_MARK:
                state, key = self._decode_mark(body)
                item = self._items.get(key)
                if item is not None and state is ItemState.CONFIRMED:
                    item.state = ItemState.CONFIRMED
            elif rec_type == _REC_ROW:
                self._rows.append(body)
            elif rec_type == _REC_WATERMARK:
                for device, seq in self._decode_watermark(body):
                    self._next_seq[device] = max(self._next_seq.get(device, 0), seq)

    # -- outbox ------------------------------------------------------------

    def enqueue(self, kind, device_id: str, at: Timestamp, payload) -> OutboxItem:
        seq = self._next_seq.get(device_id, 0)
        request = EntryRequest(kind=kind, device_id=device_id, seq=seq, at=at, payload=payload)
        self._hook("enqueue:pre", device_id, seq)
        self._file.append(bytes([_REC_ENQUEUE]) + encode_request(request))
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
            self._append_mark(ItemState.SUBMITTED, key)
            item.state = ItemState.SUBMITTED
            self._hook("submit:marked", device_id, seq)
            try:
                ledger.submit(item.request, credential, now=now)
            except LedgerOutage:
                item.state = ItemState.PENDING
                self._outage_streak += 1
                return DrainResult(retry_at=now + retry_delay(self._outage_streak))
            self._outage_streak = 0
            self._hook("confirm:pre", device_id, seq)
            self._append_mark(ItemState.CONFIRMED, key)
            item.state = ItemState.CONFIRMED
            self._hook("confirm:post", device_id, seq)
        return DrainResult(retry_at=None)

    def items(self) -> list[OutboxItem]:
        return list(self._items.values())

    # -- day rows ------------------------------------------------------------

    def add_row(self, row: bytes) -> None:
        """Row payloads are opaque except for a leading big-endian i64
        timestamp, which compaction and day filtering rely on."""
        self._file.append(bytes([_REC_ROW]) + row)
        self._rows.append(row)

    def rows(self, start: Timestamp, end: Timestamp) -> list[bytes]:
        leading = _ROW_AT.unpack_from
        return [row for row in self._rows if start <= leading(row)[0] < end]

    def compact(self, keep_rows_from: Timestamp) -> None:
        """Drop confirmed items and rows older than keep_rows_from; a seq
        watermark record preserves per-device seq continuity."""
        payloads: list[bytes] = [bytes([_REC_WATERMARK]) + self._encode_watermark()]
        kept_items = {}
        for key, item in self._items.items():
            if item.state is ItemState.CONFIRMED:
                continue
            payloads.append(bytes([_REC_ENQUEUE]) + encode_request(item.request))
            item.state = ItemState.PENDING
            kept_items[key] = item
        kept_rows = self.rows(keep_rows_from, math.inf)
        payloads.extend(bytes([_REC_ROW]) + row for row in kept_rows)
        self._file.rewrite(payloads)
        self._items = kept_items
        self._rows = kept_rows

    def close(self) -> None:
        self._file.close()

    # -- encoding ------------------------------------------------------------

    def _append_mark(self, state: ItemState, key: tuple[str, int]) -> None:
        device_id, seq = key
        body = bytes([state.value]) + enc_str(device_id) + struct.pack(">Q", seq)
        self._file.append(bytes([_REC_MARK]) + body)

    @staticmethod
    def _decode_mark(body: bytes) -> tuple[ItemState, tuple[str, int]]:
        cur = Cursor(body)
        (state,) = cur.unpack(">B")
        device = cur.string()
        (seq,) = cur.unpack(">Q")
        return ItemState(state), (device, seq)

    def _encode_watermark(self) -> bytes:
        parts = [struct.pack(">H", len(self._next_seq))]
        for device in sorted(self._next_seq):
            parts.append(enc_str(device) + struct.pack(">Q", self._next_seq[device]))
        return b"".join(parts)

    @staticmethod
    def _decode_watermark(body: bytes) -> list[tuple[str, int]]:
        cur = Cursor(body)
        (count,) = cur.unpack(">H")
        out = []
        for _ in range(count):
            device = cur.string()
            (seq,) = cur.unpack(">Q")
            out.append((device, seq))
        return out

    def _hook(self, stage: str, device_id: str, seq: int) -> None:
        if self.fault_hook is not None:
            self.fault_hook(stage, device_id, seq)
