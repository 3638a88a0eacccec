"""In-process contract ledger: access-controlled, append-only, hash-chained.

Mirrors a five-function smart contract: batch reading upload, alert log,
resolution log, report anchor, authorization change. Entries are encoded
with a fixed canonical layout (big-endian fixed-width integers,
length-prefixed strings) so digests are reproducible byte for byte, and
each entry embeds the digest of its predecessor.

Duplicate (device_id, seq) submissions are acknowledged as no-op
successes returning the existing entry, which makes crash-recovery
replay safe. Costs are exact rationals; the default fee is calibrated so
a quiet day of 12 transactions totals $0.0107.
"""

from __future__ import annotations

import enum
import hashlib
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .model import Reading, Timestamp, day_start

ZERO_DIGEST = bytes(32)
LEDGER_MAGIC = b"CWLG"
LEDGER_VERSION = 1
BATCH_LIMIT = 256  # most readings one READING_BATCH may carry

# Uniform per-transaction fee calibrated to a $0.0107 quiet day of 12 txs.
DEFAULT_FEE_PER_GAS_USD = Fraction("0.0107") / 12


class LedgerError(Exception):
    pass


class Unauthorized(LedgerError):
    pass


class MalformedPayload(LedgerError):
    pass


class BatchTooLarge(LedgerError):
    pass


class LedgerOutage(LedgerError):
    """Transient fault window is active; the caller must retry."""


class LedgerFileError(LedgerError):
    """Ledger file cannot be parsed (bad framing, magic, or truncation)."""


class LedgerKind(enum.Enum):
    """The five externally callable operation kinds."""

    READING_BATCH = 1
    ALERT = 2
    RESOLUTION = 3
    REPORT_ANCHOR = 4
    ADMIN_CHANGE = 5


@dataclass(frozen=True)
class ReadingBatchPayload:
    readings: tuple[Reading, ...]


@dataclass(frozen=True)
class AlertPayload:
    episode_id: int
    temp_decic: int
    hum_decip: int


@dataclass(frozen=True)
class ResolutionPayload:
    episode_id: int
    duration: int
    temp_decic: int
    hum_decip: int


@dataclass(frozen=True)
class ReportAnchorPayload:
    day: Timestamp  # UTC midnight starting the reported day
    digest: bytes
    row_count: int


class AdminAction(enum.Enum):
    GRANT = 1
    REVOKE = 2


@dataclass(frozen=True)
class AdminChangePayload:
    action: AdminAction
    key: str


Payload = (
    ReadingBatchPayload
    | AlertPayload
    | ResolutionPayload
    | ReportAnchorPayload
    | AdminChangePayload
)


@dataclass(frozen=True)
class EntryRequest:
    """What a writer asks the contract to append; (device_id, seq) is the
    idempotency key."""

    kind: LedgerKind
    device_id: str
    seq: int
    at: Timestamp
    payload: Payload


@dataclass(frozen=True)
class LedgerEntry(EntryRequest):
    """An accepted request and its place in the chain."""

    index: int
    prev_hash: bytes
    entry_hash: bytes


# -- canonical encoding ------------------------------------------------------


def str_bytes(value: str) -> bytes:
    """The UTF-8 bytes of a string field, whose length must fit a u16."""
    raw = value.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise MalformedPayload("string field too long")
    return raw


def enc_str(value: str) -> bytes:
    """A u16-length-prefixed UTF-8 string; Cursor.string reads it back."""
    raw = str_bytes(value)
    return struct.pack(">H", len(raw)) + raw


_LAYOUTS: dict[str, struct.Struct] = {}  # Cursor.unpack's compiled layouts, by format


class Cursor:
    """Bounds-checked reader: running off the end raises MalformedPayload."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise MalformedPayload("truncated field")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        layout = _LAYOUTS.get(fmt)
        if layout is None:
            layout = _LAYOUTS[fmt] = struct.Struct(fmt)
        pos, end = self.pos, self.pos + layout.size
        if end > len(self.data):
            raise MalformedPayload("truncated field")
        self.pos = end
        return layout.unpack_from(self.data, pos)

    def string(self) -> str:
        (n,) = self.unpack(">H")
        return self.take(n).decode("utf-8")


# Fixed-width payloads: one struct layout per kind, fields in dataclass order.
_FIXED_LAYOUTS = {
    LedgerKind.ALERT: (">qhH", AlertPayload),
    LedgerKind.RESOLUTION: (">qIhH", ResolutionPayload),
    LedgerKind.REPORT_ANCHOR: (">q32sI", ReportAnchorPayload),
}


def encode_payload(kind: LedgerKind, payload: Payload) -> bytes:
    if kind in _FIXED_LAYOUTS:
        fmt, cls = _FIXED_LAYOUTS[kind]
        assert isinstance(payload, cls)
        if kind is LedgerKind.REPORT_ANCHOR and len(payload.digest) != 32:
            raise MalformedPayload("report digest must be 32 bytes")
        return struct.pack(fmt, *vars(payload).values())
    if kind is LedgerKind.READING_BATCH:
        assert isinstance(payload, ReadingBatchPayload)
        parts = [struct.pack(">H", len(payload.readings))]
        for r in payload.readings:
            parts.append(struct.pack(">qhH", r.at, r.temp_decic, r.hum_decip))
        return b"".join(parts)
    assert isinstance(payload, AdminChangePayload)
    return struct.pack(">B", payload.action.value) + enc_str(payload.key)


def decode_payload(kind: LedgerKind, data: bytes, device_id: str) -> Payload:
    cur = Cursor(data)
    if kind in _FIXED_LAYOUTS:
        fmt, cls = _FIXED_LAYOUTS[kind]
        return cls(*cur.unpack(fmt))
    if kind is LedgerKind.READING_BATCH:
        (count,) = cur.unpack(">H")
        readings = []
        for _ in range(count):
            at, temp, hum = cur.unpack(">qhH")
            readings.append(Reading(device_id=device_id, at=at, temp_decic=temp, hum_decip=hum))
        return ReadingBatchPayload(readings=tuple(readings))
    (action,) = cur.unpack(">B")
    return AdminChangePayload(action=AdminAction(action), key=cur.string())


def encode_request(req: EntryRequest) -> bytes:
    """Raises MalformedPayload for any field outside its fixed width."""
    try:
        payload = encode_payload(req.kind, req.payload)
        return (
            struct.pack(">B", req.kind.value)
            + enc_str(req.device_id)
            + struct.pack(">Qq", req.seq, req.at)
            + struct.pack(">I", len(payload))
            + payload
        )
    except struct.error as exc:
        raise MalformedPayload(f"field out of range: {exc}") from exc


def _read_request(cur: Cursor) -> EntryRequest:
    (kind_code,) = cur.unpack(">B")
    try:
        kind = LedgerKind(kind_code)
    except ValueError as exc:
        raise MalformedPayload(f"unknown kind code {kind_code}") from exc
    device_id = cur.string()
    seq, at = cur.unpack(">Qq")
    (n,) = cur.unpack(">I")
    payload = decode_payload(kind, cur.take(n), device_id)
    return EntryRequest(kind=kind, device_id=device_id, seq=seq, at=at, payload=payload)


def decode_request(data: bytes) -> EntryRequest:
    return _read_request(Cursor(data))


def entry_body(index: int, request: EntryRequest, prev_hash: bytes) -> bytes:
    """The hashed bytes of a ledger entry."""
    return struct.pack(">Q", index) + encode_request(request) + prev_hash


def _decode_entry(body: bytes, entry_hash: bytes) -> LedgerEntry:
    cur = Cursor(body)
    (index,) = cur.unpack(">Q")
    request = _read_request(cur)
    return LedgerEntry(**vars(request), index=index, prev_hash=cur.take(32), entry_hash=entry_hash)


# -- chain verification -------------------------------------------------------


@dataclass(frozen=True)
class ChainReport:
    ok: bool
    bad_index: int | None = None
    reason: str = ""


def verify_entries(entries: list[LedgerEntry]) -> ChainReport:
    """Recompute every digest and link; report the first inconsistency."""
    prev = ZERO_DIGEST
    for i, entry in enumerate(entries):
        if entry.index != i:
            return ChainReport(False, i, f"index {entry.index} at position {i}")
        if entry.prev_hash != prev:
            return ChainReport(False, i, "broken predecessor link")
        try:
            recomputed = hashlib.sha256(entry_body(entry.index, entry, prev)).digest()
        except LedgerError as exc:
            return ChainReport(False, i, f"unencodable entry: {exc}")
        if recomputed != entry.entry_hash:
            return ChainReport(False, i, "entry digest mismatch")
        prev = entry.entry_hash
    return ChainReport(True)


# -- gas and cost -------------------------------------------------------------


@dataclass(frozen=True)
class GasSchedule:
    gas: dict[LedgerKind, int] = field(
        default_factory=lambda: {kind: 1 for kind in LedgerKind}
    )
    fee_per_gas_usd: Fraction = DEFAULT_FEE_PER_GAS_USD

    def __post_init__(self) -> None:
        for kind in LedgerKind:
            if self.gas.get(kind, 0) <= 0:
                raise ValueError(f"{kind.name.lower()} must be > 0")
        if self.fee_per_gas_usd < 0:
            raise ValueError("fee_per_gas_usd must be >= 0")


@dataclass(frozen=True)
class CostTally:
    tx_total: int = 0
    gas_total: int = 0
    usd_total: Fraction = Fraction(0)


def format_usd(amount: Fraction, places: int = 4) -> str:
    scale = 10**places
    # Round half up on the final digit; exact rational arithmetic until here.
    scaled = (amount * scale * 2 + 1) // 2
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // scale}.{scaled % scale:0{places}d}"


def accounting_day(entry: LedgerEntry) -> Timestamp:
    """The UTC day an entry is billed to: a report anchor's is the day it
    anchors, any other entry's is its timestamp's."""
    if entry.kind is LedgerKind.REPORT_ANCHOR:
        assert isinstance(entry.payload, ReportAnchorPayload)
        return day_start(entry.payload.day)
    return day_start(entry.at)


def _tally(entries: list[LedgerEntry], gas: GasSchedule) -> CostTally:
    gas_total = sum(gas.gas[entry.kind] for entry in entries)
    return CostTally(len(entries), gas_total, gas_total * gas.fee_per_gas_usd)


def cost_report(
    entries: list[LedgerEntry], day: Timestamp, gas: GasSchedule | None = None
) -> CostTally:
    day = day_start(day)
    return _tally([e for e in entries if accounting_day(e) == day], gas or GasSchedule())


def daily_costs(
    entries: list[LedgerEntry], gas: GasSchedule | None = None
) -> dict[Timestamp, CostTally]:
    """The tally of every observed day, in day order, from one pass that
    bills each entry to its accounting day."""
    by_day: dict[Timestamp, list[LedgerEntry]] = {}
    for entry in entries:
        by_day.setdefault(accounting_day(entry), []).append(entry)
    gas = gas or GasSchedule()
    return {day: _tally(by_day[day], gas) for day in sorted(by_day)}


def observed_days(entries: list[LedgerEntry]) -> list[Timestamp]:
    return sorted({accounting_day(e) for e in entries})


def annualize(daily: dict[Timestamp, CostTally]) -> Fraction:
    """Daily mean over the observed days, times 365."""
    if not daily:
        return Fraction(0)
    return sum(tally.usd_total for tally in daily.values()) / len(daily) * 365


def annualized_usd(entries: list[LedgerEntry], gas: GasSchedule | None = None) -> Fraction:
    return annualize(daily_costs(entries, gas))


# -- the ledger ----------------------------------------------------------------


class Ledger:
    """Single-writer contract state: submissions are serialized; reads may
    snapshot the entry list freely (entries are immutable values). The
    owner writes everything; other writers are granted and revoked only
    through ADMIN_CHANGE entries."""

    def __init__(self, owner: str, path: Path | None = None):
        self.owner = owner
        self.writers: set[str] = set()
        self.fault_windows: list[tuple[Timestamp, Timestamp]] = []
        self.entries: list[LedgerEntry] = []
        self._by_key: dict[tuple[str, int], int] = {}
        self._path = path
        if path is not None:
            with open(path, "wb") as f:
                f.write(LEDGER_MAGIC + bytes([LEDGER_VERSION]))

    def set_fault_windows(self, windows: list[tuple[Timestamp, Timestamp]]) -> None:
        self.fault_windows = list(windows)

    def submit(
        self, request: EntryRequest, credential: str, now: Timestamp | None = None
    ) -> LedgerEntry:
        now = request.at if now is None else now
        if any(s <= now < e for s, e in self.fault_windows):
            raise LedgerOutage(f"ledger unavailable at {now}")
        if credential != self.owner and credential not in self.writers:
            raise Unauthorized(f"credential {credential!r} is not an authorized writer")
        if request.kind is LedgerKind.ADMIN_CHANGE and credential != self.owner:
            raise Unauthorized("authorization changes require the owner key")
        if request.kind is LedgerKind.READING_BATCH:
            readings = request.payload.readings
            if not readings:
                raise MalformedPayload("batch must be non-empty")
            if len(readings) > BATCH_LIMIT:
                raise BatchTooLarge(f"batch of {len(readings)} exceeds {BATCH_LIMIT}")
            if any(r.device_id != request.device_id for r in readings):
                raise MalformedPayload(f"batch for {request.device_id!r} holds another device")
            if any(b.at < a.at for a, b in zip(readings, readings[1:])):
                raise MalformedPayload("batch readings must be timestamp-ordered")
        key = (request.device_id, request.seq)
        existing = self._by_key.get(key)
        if existing is not None:
            return self.entries[existing]
        prev = self.entries[-1].entry_hash if self.entries else ZERO_DIGEST
        index = len(self.entries)
        body = entry_body(index, request, prev)  # validates bounds
        entry = LedgerEntry(
            **vars(request), index=index, prev_hash=prev, entry_hash=hashlib.sha256(body).digest()
        )
        self.entries.append(entry)
        self._by_key[key] = index
        if request.kind is LedgerKind.ADMIN_CHANGE:
            assert isinstance(request.payload, AdminChangePayload)
            if request.payload.action is AdminAction.GRANT:
                self.writers.add(request.payload.key)
            else:
                self.writers.discard(request.payload.key)
        if self._path is not None:
            record = body + entry.entry_hash
            with open(self._path, "ab") as f:
                f.write(struct.pack(">I", len(record)) + record)
        return entry

    def verify_chain(self) -> ChainReport:
        return verify_entries(self.entries)


# -- file format ---------------------------------------------------------------


def load_ledger_entries(path: Path) -> list[LedgerEntry]:
    """Strict parse of the append-only ledger file. Any framing anomaly is
    a LedgerFileError; whole-entry truncation at the tail still parses
    (detectable only via external anchors)."""
    data = Path(path).read_bytes()
    if len(data) < 5 or data[:4] != LEDGER_MAGIC:
        raise LedgerFileError("bad magic header")
    if data[4] != LEDGER_VERSION:
        raise LedgerFileError(f"unsupported version {data[4]}")
    pos = 5
    entries: list[LedgerEntry] = []
    while pos < len(data):
        if pos + 4 > len(data):
            raise LedgerFileError(f"torn length prefix at offset {pos}")
        (n,) = struct.unpack(">I", data[pos : pos + 4])
        pos += 4
        if n == 0 or pos + n > len(data):
            raise LedgerFileError(f"torn record at offset {pos - 4}")
        record = data[pos : pos + n]
        pos += n
        if len(record) < 33:
            raise LedgerFileError(f"record too short at entry {len(entries)}")
        body, digest = record[:-32], record[-32:]
        try:
            entries.append(_decode_entry(body, digest))
        except (LedgerError, ValueError, UnicodeDecodeError) as exc:
            # Includes domain-validation failures: a flipped bit that pushes a
            # stored reading outside the sensor envelope is still tampering.
            raise LedgerFileError(f"undecodable entry {len(entries)}: {exc}") from exc
    return entries
