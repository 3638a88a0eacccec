"""Crash-safe outbox plus the local day store, in one record file.

Every ledger write request is durably recorded as Pending before any
submission attempt; items are confirmed only after the ledger
acknowledges. Combined with the ledger's (device_id, seq) idempotency,
replaying after any crash point yields exactly one ledger effect per
request. The same file retains the current day's report rows; older
days are compacted away after their report is anchored.

Retries after a ledger outage follow a fixed clock-driven backoff:
30 s, 60 s, 120 s, then 120 s per attempt.

The optional fault_hook is a test seam: it is invoked with a stage
label at every durability boundary (enqueue/submit/confirm) and may
raise to simulate a crash at exactly that point.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .ledger import (
    Cursor,
    EntryRequest,
    Ledger,
    LedgerEntry,
    LedgerOutage,
    decode_request,
    enc_str,
    encode_request,
)
from .model import Timestamp
from .storage import RecordFile, RecoveryReport

BACKOFF_SCHEDULE = (30, 60, 120)

_REC_ENQUEUE = 1
_REC_MARK = 2
_REC_ROW = 3
_REC_WATERMARK = 4


class ItemState(enum.Enum):
    PENDING = 1
    SUBMITTED = 2
    CONFIRMED = 3


@dataclass
class OutboxItem:
    request: EntryRequest
    state: ItemState
    created_at: Timestamp
    attempts: int = 0

    @property
    def key(self) -> tuple[str, int]:
        return (self.request.device_id, self.request.seq)


@dataclass(frozen=True)
class DrainResult:
    confirmed: list[LedgerEntry]
    retry_at: Timestamp | None


FaultHook = Callable[[str, str, int], None]


class Outbox:
    def __init__(self, path: Path, fault_hook: FaultHook | None = None):
        self.fault_hook = fault_hook
        self._file = RecordFile(path)
        self._items: dict[tuple[str, int], OutboxItem] = {}
        self._fifo: list[tuple[str, int]] = []
        self._next_seq: dict[str, int] = {}
        self._rows: list[bytes] = []
        self._outage_streak = 0
        self._replay()

    @property
    def recovery(self) -> RecoveryReport:
        return self._file.recovery

    def _replay(self) -> None:
        """Rebuild state from the record file. Submitted-but-unconfirmed
        items downgrade to Pending; confirmed marks always stick."""
        for payload in self._file.records:
            rec_type = payload[0]
            body = payload[1:]
            if rec_type == _REC_ENQUEUE:
                request = decode_request(body)
                item = OutboxItem(request=request, state=ItemState.PENDING, created_at=request.at)
                self._items[item.key] = item
                self._fifo.append(item.key)
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

    def enqueue(
        self, kind, device_id: str, at: Timestamp, payload, now: Timestamp | None = None
    ) -> OutboxItem:
        seq = self._next_seq.get(device_id, 0)
        request = EntryRequest(kind=kind, device_id=device_id, seq=seq, at=at, payload=payload)
        self._hook("enqueue:pre", device_id, seq)
        self._file.append(bytes([_REC_ENQUEUE]) + encode_request(request))
        self._next_seq[device_id] = seq + 1
        item = OutboxItem(
            request=request, state=ItemState.PENDING, created_at=at if now is None else now
        )
        self._items[item.key] = item
        self._fifo.append(item.key)
        self._hook("enqueue:post", device_id, seq)
        return item

    def drain(self, ledger: Ledger, credential: str, now: Timestamp) -> DrainResult:
        """Submit Pending items in order; on an outage, report when to retry."""
        confirmed: list[LedgerEntry] = []
        for key in list(self._fifo):
            item = self._items[key]
            if item.state is not ItemState.PENDING:
                continue
            device_id, seq = key
            self._append_mark(ItemState.SUBMITTED, key)
            item.state = ItemState.SUBMITTED
            item.attempts += 1
            self._hook("submit:marked", device_id, seq)
            try:
                entry = ledger.submit(item.request, credential, now=now)
            except LedgerOutage:
                item.state = ItemState.PENDING
                self._outage_streak += 1
                delay = BACKOFF_SCHEDULE[min(self._outage_streak, len(BACKOFF_SCHEDULE)) - 1]
                return DrainResult(confirmed=confirmed, retry_at=now + delay)
            self._outage_streak = 0
            self._hook("confirm:pre", device_id, seq)
            self._append_mark(ItemState.CONFIRMED, key)
            item.state = ItemState.CONFIRMED
            self._hook("confirm:post", device_id, seq)
            confirmed.append(entry)
        return DrainResult(confirmed=confirmed, retry_at=None)

    def items(self) -> list[OutboxItem]:
        return [self._items[k] for k in self._fifo]

    def pending_count(self) -> int:
        return sum(1 for i in self._items.values() if i.state is not ItemState.CONFIRMED)

    # -- day rows ------------------------------------------------------------

    def add_row(self, row: bytes) -> None:
        """Row payloads are opaque except for a leading big-endian i64
        timestamp, which compaction and day filtering rely on."""
        self._file.append(bytes([_REC_ROW]) + row)
        self._rows.append(row)

    def rows(self, start: Timestamp, end: Timestamp) -> list[bytes]:
        out = []
        for row in self._rows:
            (at,) = struct.unpack(">q", row[:8])
            if start <= at < end:
                out.append(row)
        return out

    def compact(self, keep_rows_from: Timestamp) -> None:
        """Drop confirmed items and rows older than keep_rows_from; a seq
        watermark record preserves per-device seq continuity."""
        payloads: list[bytes] = [bytes([_REC_WATERMARK]) + self._encode_watermark()]
        kept_keys: list[tuple[str, int]] = []
        for key in self._fifo:
            item = self._items[key]
            if item.state is ItemState.CONFIRMED:
                continue
            payloads.append(bytes([_REC_ENQUEUE]) + encode_request(item.request))
            item.state = ItemState.PENDING
            kept_keys.append(key)
        kept_rows = []
        for row in self._rows:
            (at,) = struct.unpack(">q", row[:8])
            if at >= keep_rows_from:
                payloads.append(bytes([_REC_ROW]) + row)
                kept_rows.append(row)
        self._file.rewrite(payloads)
        self._items = {k: self._items[k] for k in kept_keys}
        self._fifo = kept_keys
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
