"""Daily CSV reports: canonical bytes, digest anchoring, verification.

The report for a UTC day contains that day's local records plus alert
and resolution events as rows, strictly ordered by timestamp (a record
sorts before an event row on the rare shared tick). The canonical form
is UTF-8, LF line endings, ISO-8601 UTC timestamps, exactly one decimal
for temperature and humidity, and a trailing newline, so building the
same day twice yields identical bytes and one SHA-256 digest.

Anchoring writes (day, digest, row_count) to the ledger; the verifier
proves a report file against its on-ledger anchor without trusting the
local store.
"""

from __future__ import annotations

import enum
import hashlib
import struct
from dataclasses import dataclass

from .ledger import Cursor, LedgerEntry, LedgerKind, enc_str
from .model import (
    DAY_SECONDS,
    Timestamp,
    csv_field,
    day_start,
    format_tenths,
    iso_to_ts,
    ts_to_date,
    ts_to_iso,
)
from .outbox import Outbox

REPORT_HEADER = "timestamp,device_id,temp_c,hum_pct,mode,event"

_MODE_CODES = {"Normal": 0, "BreachPending": 1, "Critical": 2}
_MODE_NAMES = {v: k for k, v in _MODE_CODES.items()}
_EVENT_CODES = {"": 0, "ALERT": 1, "RESOLVED": 2}
_EVENT_NAMES = {v: k for k, v in _EVENT_CODES.items()}


class Verdict(enum.Enum):
    AUTHENTIC = "Authentic"
    DIGEST_MISMATCH = "DigestMismatch"
    NO_ANCHOR = "NoAnchor"


@dataclass(frozen=True)
class ReportRow:
    at: Timestamp
    device_id: str
    temp_decic: int
    hum_decip: int
    mode: str
    event: str = ""


def encode_row(row: ReportRow) -> bytes:
    """Store encoding; starts with the i64 timestamp the store relies on."""
    return (
        struct.pack(">q", row.at)
        + enc_str(row.device_id)
        + struct.pack(">hHBB", row.temp_decic, row.hum_decip,
                      _MODE_CODES[row.mode], _EVENT_CODES[row.event])
    )


def decode_row(data: bytes) -> ReportRow:
    cur = Cursor(data)
    (at,) = cur.unpack(">q")
    device = cur.string()
    temp, hum, mode, event = cur.unpack(">hHBB")
    return ReportRow(
        at=at,
        device_id=device,
        temp_decic=temp,
        hum_decip=hum,
        mode=_MODE_NAMES[mode],
        event=_EVENT_NAMES[event],
    )


@dataclass(frozen=True)
class DailyReport:
    day: Timestamp
    device_id: str
    rows: tuple[ReportRow, ...]
    csv_bytes: bytes
    digest: bytes

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @property
    def digest_hex(self) -> str:
        return self.digest.hex()


def render_csv(rows: list[ReportRow]) -> bytes:
    lines = [REPORT_HEADER]
    for row in rows:
        lines.append(
            f"{ts_to_iso(row.at)},{csv_field(row.device_id)},"
            f"{format_tenths(row.temp_decic)},{format_tenths(row.hum_decip)},"
            f"{row.mode},{row.event}"
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


def build_report(store: Outbox, day: Timestamp, device_id: str) -> DailyReport:
    """Canonical report for [day, day+1) from the local store. An empty day
    yields a valid header-only report."""
    rows = [decode_row(raw) for raw in store.rows(day, day + DAY_SECONDS)]
    rows = [r for r in rows if r.device_id == device_id]
    rows.sort(key=lambda r: (r.at, _EVENT_CODES[r.event]))
    csv_bytes = render_csv(rows)
    return DailyReport(
        day=day,
        device_id=device_id,
        rows=tuple(rows),
        csv_bytes=csv_bytes,
        digest=hashlib.sha256(csv_bytes).digest(),
    )


def report_notice_text(report: DailyReport) -> str:
    return (
        f"REPORT|dev={report.device_id}|day={ts_to_date(report.day)}"
        f"|rows={report.row_count}|sha256={report.digest_hex}"
    )


def _infer_day(csv_bytes: bytes) -> Timestamp | None:
    try:
        text = csv_bytes.decode("utf-8")
    except UnicodeDecodeError:
        return None
    for line in text.splitlines()[1:]:
        try:
            return day_start(iso_to_ts(line.split(",", 1)[0]))
        except ValueError:
            return None
    return None


def verify_report(
    csv_bytes: bytes,
    entries: list[LedgerEntry],
    day: Timestamp | None = None,
    device_id: str | None = None,
) -> Verdict:
    """Recompute the digest and compare against the day's on-ledger anchor.

    The day defaults to the one in the first data row; a header-only file
    with no explicit day falls back to searching anchors by digest.
    """
    digest = hashlib.sha256(csv_bytes).digest()
    anchors = [
        e
        for e in entries
        if e.kind is LedgerKind.REPORT_ANCHOR
        and (device_id is None or e.device_id == device_id)
    ]
    if day is None:
        day = _infer_day(csv_bytes)
    if day is None:
        if any(a.payload.digest == digest for a in anchors):
            return Verdict.AUTHENTIC
        return Verdict.NO_ANCHOR
    day_anchors = [a for a in anchors if a.payload.day == day]
    if not day_anchors:
        return Verdict.NO_ANCHOR
    if any(a.payload.digest == digest for a in day_anchors):
        return Verdict.AUTHENTIC
    return Verdict.DIGEST_MISMATCH
