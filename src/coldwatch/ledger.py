"""In-process contract ledger: access-controlled, append-only, hash-chained.

Mirrors a five-function smart contract: batch reading upload, alert log,
resolution log, report anchor, authorization change. Entries are encoded
with a fixed canonical layout (big-endian fixed-width integers,
length-prefixed strings) so digests are reproducible byte for byte, and
each entry embeds the digest of its predecessor.

A request is packed once, where it is queued (PackedRequest); the ledger
checks a batch from those bytes, then hashes and stores them. Encoding a
decoded request (EntryRequest) is where a batch holding a reading of
another device is refused. A ledger keeps per entry its key, kind,
instant and digest (StoredEntry) and decodes a payload at each read,
from its file if it has one, else from the request bytes it keeps.

Duplicate (device_id, seq) submissions are acknowledged as no-op
successes returning the existing entry, which makes crash-recovery
replay safe. Costs are exact rationals; the default fee is calibrated so
a quiet day of 12 transactions totals $0.0107.
"""

from __future__ import annotations

import contextlib
import enum
import hashlib
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

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


class AdminAction(enum.IntEnum):
    GRANT = 1
    REVOKE = 2


@dataclass(frozen=True)
class AdminChangePayload:
    action: AdminAction
    key: str

    def __post_init__(self) -> None:
        # A decoded payload carries the stored code; an unknown one raises.
        object.__setattr__(self, "action", AdminAction(self.action))


Payload = (
    ReadingBatchPayload
    | AlertPayload
    | ResolutionPayload
    | ReportAnchorPayload
    | AdminChangePayload
)


@dataclass(frozen=True)
class EntryRequest:
    """What a writer asks the contract to append, decoded; (device_id, seq)
    is the idempotency key."""

    kind: LedgerKind
    device_id: str
    seq: int
    at: Timestamp
    payload: Payload


@dataclass(frozen=True)
class LedgerEntry(EntryRequest):
    """An accepted request and its place in the chain, decoded."""

    index: int
    prev_hash: bytes
    entry_hash: bytes


class PackedRequest(NamedTuple):
    """A request as it is queued, hashed and stored: `data` is its
    encode_request bytes; the other fields are its header's."""

    kind: LedgerKind
    device_id: str
    seq: int
    at: Timestamp
    data: bytes


# -- canonical encoding ------------------------------------------------------


class Layout:
    """A stored record layout: a big-endian struct format in which one `S`
    stands for a UTF-8 string, stored as its u16 byte length then its bytes.
    Compiled once into a head (ending in that length) and a tail; bind
    compiles all three for one given string."""

    def __init__(self, fmt: str):
        head, string, tail = fmt.partition("S")
        self.at = len(struct.unpack(head, bytes(struct.calcsize(head))))  # index of the string field
        self.head = struct.Struct(head + "H" if string else head)
        self.tail = struct.Struct(">" + tail) if string else None

    def pack(self, *values) -> bytes:
        """Raises MalformedPayload for any field outside its width."""
        try:
            if self.tail is None:
                return self.head.pack(*values)
            at = self.at
            raw = values[at].encode("utf-8")
            return self.head.pack(*values[:at], len(raw)) + raw + self.tail.pack(*values[at + 1 :])
        except struct.error:
            with field_widths():  # only on failure: entering a `with` costs more than a pack
                raise

    def bind(self, text: str) -> struct.Struct:
        """The head, `H{n}s` and tail as one struct for records whose string
        is `text`, its length and bytes two fields. Big-endian standard sizes
        add no padding, so the bytes are pack's; pack under field_widths."""
        n = len(text.encode("utf-8"))
        return struct.Struct(f"{self.head.format}{n}s{self.tail.format[1:]}")


@contextlib.contextmanager
def field_widths():
    """A struct.error, of a field outside its width, as MalformedPayload."""
    try:
        yield
    except struct.error as exc:
        raise MalformedPayload(f"field out of range: {exc}") from exc


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

    def read(self, layout: Layout) -> tuple:
        data, pos, head, tail = self.data, self.pos, layout.head, layout.tail
        end = pos + head.size
        if end > len(data):
            raise MalformedPayload("truncated field")
        values = head.unpack_from(data, pos)
        if tail is None:
            self.pos = end
            return values
        string_end = end + values[-1]
        stop = string_end + tail.size
        if stop > len(data):
            raise MalformedPayload("truncated field")
        self.pos = stop
        text = data[end:string_end].decode("utf-8")
        return (*values[:-1], text, *tail.unpack_from(data, string_end))


_REQUEST = Layout(">BSQqI")  # kind, device id, seq, at, payload length
COUNT = Layout(">H")  # the number of items that follow
READING = Layout(">qhH")  # one reading of a batch: at, temperature, humidity
_ENTRY_INDEX = Layout(">Q")

# The other payloads: one layout per kind, fields in dataclass order.
_PAYLOADS = {
    LedgerKind.ALERT: (Layout(">qhH"), AlertPayload),
    LedgerKind.RESOLUTION: (Layout(">qIhH"), ResolutionPayload),
    LedgerKind.REPORT_ANCHOR: (Layout(">q32sI"), ReportAnchorPayload),
    LedgerKind.ADMIN_CHANGE: (Layout(">BS"), AdminChangePayload),
}


def batch_payload(readings: list[bytes]) -> bytes:
    """A READING_BATCH payload of readings each packed with READING."""
    return COUNT.pack(len(readings)) + b"".join(readings)


def encode_payload(kind: LedgerKind, payload: Payload, device_id: str) -> bytes:
    if kind is LedgerKind.READING_BATCH:
        assert isinstance(payload, ReadingBatchPayload)
        # Stored as-is, a reading of another device would read back as device_id's.
        if any(r.device_id != device_id for r in payload.readings):
            raise MalformedPayload(f"batch for {device_id!r} holds another device")
        readings = [READING.pack(r.at, r.temp_decic, r.hum_decip) for r in payload.readings]
        return batch_payload(readings)
    layout, cls = _PAYLOADS[kind]
    assert isinstance(payload, cls)
    if kind is LedgerKind.REPORT_ANCHOR and len(payload.digest) != 32:
        raise MalformedPayload("report digest must be 32 bytes")
    return layout.pack(*vars(payload).values())


def decode_payload(kind: LedgerKind, data: bytes, device_id: str) -> Payload:
    cur = Cursor(data)
    if kind is LedgerKind.READING_BATCH:
        (count,) = cur.read(COUNT)
        readings = []
        for _ in range(count):
            at, temp, hum = cur.read(READING)
            readings.append(Reading(device_id=device_id, at=at, temp_decic=temp, hum_decip=hum))
        return ReadingBatchPayload(readings=tuple(readings))
    layout, cls = _PAYLOADS[kind]
    return cls(*cur.read(layout))


def pack_request(kind: LedgerKind, device_id: str, seq: int, at: Timestamp, payload: bytes
                 ) -> PackedRequest:
    """Raises MalformedPayload for a header field outside its fixed width."""
    head = _REQUEST.pack(kind.value, device_id, seq, at, len(payload))
    return PackedRequest(kind, device_id, seq, at, head + payload)


def encode_request(req: EntryRequest) -> bytes:
    """Raises MalformedPayload for any field outside its fixed width."""
    payload = encode_payload(req.kind, req.payload, req.device_id)
    return pack_request(req.kind, req.device_id, req.seq, req.at, payload).data


def _read_head(cur: Cursor) -> tuple[LedgerKind, str, int, Timestamp, bytes]:
    """A request's header fields and its payload's bytes."""
    kind_code, device_id, seq, at, n = cur.read(_REQUEST)
    try:
        kind = LedgerKind(kind_code)
    except ValueError as exc:
        raise MalformedPayload(f"unknown kind code {kind_code}") from exc
    return kind, device_id, seq, at, cur.take(n)


def unpack_request(data: bytes) -> PackedRequest:
    """The packed request that `data` begins with; its payload is not decoded."""
    cur = Cursor(data)
    kind, device_id, seq, at, _ = _read_head(cur)
    return PackedRequest(kind, device_id, seq, at, data[: cur.pos])


def _read_request(cur: Cursor) -> EntryRequest:
    kind, device_id, seq, at, payload = _read_head(cur)
    return EntryRequest(kind, device_id, seq, at, decode_payload(kind, payload, device_id))


def decode_request(data: bytes) -> EntryRequest:
    return _read_request(Cursor(data))


def entry_body(index: int, request: bytes, prev_hash: bytes) -> bytes:
    """The hashed bytes of a ledger entry, of its packed request."""
    return _ENTRY_INDEX.pack(index) + request + prev_hash


def _decode_entry(body: bytes, entry_hash: bytes) -> LedgerEntry:
    cur = Cursor(body)
    (index,) = cur.read(_ENTRY_INDEX)
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
            body = entry_body(entry.index, encode_request(entry), prev)
        except LedgerError as exc:
            return ChainReport(False, i, f"unencodable entry: {exc}")
        if hashlib.sha256(body).digest() != entry.entry_hash:
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


def cost_report(
    entries: list[LedgerEntry], day: Timestamp, gas: GasSchedule | None = None
) -> CostTally:
    return daily_costs(entries, gas).get(day_start(day), CostTally())


def daily_costs(
    entries: list[LedgerEntry], gas: GasSchedule | None = None
) -> dict[Timestamp, CostTally]:
    """The tally of every observed day, in day order, from one pass that
    bills each entry's gas to its accounting day."""
    gas = gas or GasSchedule()
    by_day: dict[Timestamp, list[int]] = {}
    for entry in entries:
        by_day.setdefault(accounting_day(entry), []).append(gas.gas[entry.kind])
    return {
        day: CostTally(len(used), sum(used), sum(used) * gas.fee_per_gas_usd)
        for day, used in sorted(by_day.items())
    }


def observed_days(entries: list[LedgerEntry]) -> list[Timestamp]:
    return list(daily_costs(entries))


def annualize(daily: dict[Timestamp, CostTally]) -> Fraction:
    """Daily mean over the observed days, times 365."""
    if not daily:
        return Fraction(0)
    return sum(tally.usd_total for tally in daily.values()) / len(daily) * 365


def annualized_usd(entries: list[LedgerEntry], gas: GasSchedule | None = None) -> Fraction:
    return annualize(daily_costs(entries, gas))


# -- the ledger ----------------------------------------------------------------


class StoredEntry:
    """An accepted request as a Ledger keeps it: its key, kind, instant,
    place in the chain and digest. `payload` is decoded at each read, from
    the request bytes a ledger without a file keeps in `stored`, or else
    from the entry framed at offset `stored` in the file at `path`."""

    __slots__ = ("kind", "device_id", "seq", "at", "index", "prev_hash", "entry_hash", "path",
                 "stored")

    def __init__(self, request: PackedRequest, index: int, prev_hash: bytes, entry_hash: bytes,
                 path: Path | None, stored: bytes | int):
        self.kind, self.device_id, self.seq, self.at, _ = request
        self.index, self.prev_hash, self.entry_hash = index, prev_hash, entry_hash
        self.path, self.stored = path, stored

    @property
    def payload(self) -> Payload:
        if self.path is None:
            return decode_request(self.stored).payload
        with open(self.path, "rb") as f:
            f.seek(self.stored)
            (n,) = struct.unpack(">I", f.read(4))
            record = f.read(n)  # the index, the request, then both digests
        return _decode_entry(record[:-32], record[-32:]).payload


class Ledger:
    """Single-writer contract state: submissions are serialized; reads may
    snapshot the entry list freely (entries are never changed). The
    owner writes everything; other writers are granted and revoked only
    through ADMIN_CHANGE entries."""

    def __init__(self, owner: str, path: Path | None = None):
        self.owner = owner
        self.writers: set[str] = set()
        self.fault_windows: list[tuple[Timestamp, Timestamp]] = []
        self.entries: list[StoredEntry] = []
        self._by_key: dict[tuple[str, int], int] = {}
        self._path = path
        self._file = None if path is None else open(path, "wb")  # kept for every append; see close
        if self._file is not None:
            self._file.write(LEDGER_MAGIC + bytes([LEDGER_VERSION]))
            self._file.flush()

    def set_fault_windows(self, windows: list[tuple[Timestamp, Timestamp]]) -> None:
        self.fault_windows = list(windows)

    def submit(
        self, request: PackedRequest | EntryRequest, credential: str, now: Timestamp | None = None
    ) -> StoredEntry:
        now = request.at if now is None else now
        if any(s <= now < e for s, e in self.fault_windows):
            raise LedgerOutage(f"ledger unavailable at {now}")
        if credential != self.owner and credential not in self.writers:
            raise Unauthorized(f"credential {credential!r} is not an authorized writer")
        if request.kind is LedgerKind.ADMIN_CHANGE and credential != self.owner:
            raise Unauthorized("authorization changes require the owner key")
        if isinstance(request, EntryRequest):
            request = unpack_request(encode_request(request))
        if request.kind is LedgerKind.READING_BATCH:  # checked from its bytes
            cur = Cursor(request.data)
            cur.read(_REQUEST)
            (count,) = cur.read(COUNT)
            if not count:
                raise MalformedPayload("batch must be non-empty")
            if count > BATCH_LIMIT:
                raise BatchTooLarge(f"batch of {count} exceeds {BATCH_LIMIT}")
            ats = [at for at, _, _ in READING.head.iter_unpack(cur.take(count * READING.head.size))]
            if any(b < a for a, b in zip(ats, ats[1:])):
                raise MalformedPayload("batch readings must be timestamp-ordered")
        key = (request.device_id, request.seq)
        existing = self._by_key.get(key)
        if existing is not None:
            return self.entries[existing]
        prev = self.entries[-1].entry_hash if self.entries else ZERO_DIGEST
        index = len(self.entries)
        body = entry_body(index, request.data, prev)
        digest = hashlib.sha256(body).digest()
        stored: bytes | int = request.data
        if self._file is not None:  # the entry is in the file when submit returns
            stored = self._file.tell()
            self._file.write(struct.pack(">I", len(body) + len(digest)) + body + digest)
            self._file.flush()
        entry = StoredEntry(request, index, prev, digest, self._path, stored)
        self.entries.append(entry)
        self._by_key[key] = index
        if request.kind is LedgerKind.ADMIN_CHANGE:
            change = decode_request(request.data).payload
            assert isinstance(change, AdminChangePayload)
            if change.action is AdminAction.GRANT:
                self.writers.add(change.key)
            else:
                self.writers.discard(change.key)
        return entry

    def verify_chain(self) -> ChainReport:
        return verify_entries(self.entries)

    def close(self) -> None:  # entries still read their payloads from the file
        if self._file is not None:
            self._file.close()


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
