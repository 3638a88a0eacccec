"""Daily CSV reports: canonical bytes, digest anchoring, verification.

The report for a UTC day contains that day's local records plus alert
and resolution events as rows, strictly ordered by timestamp (a record
sorts before an event row on the rare shared tick). The canonical form
is UTF-8, LF line endings, ISO-8601 UTC timestamps, exactly one decimal
for temperature and humidity, and a trailing newline, so building the
same day twice yields identical bytes and one SHA-256 digest.

A device's rows are packed and read back through one struct bound to its
id (Layout.bind); a row of any other shape is read by decode_row. A day
is rendered with one `%` over the row line repeated once per row.

Anchoring writes (day, digest, row_count) to the ledger; the verifier
proves a report file against its on-ledger anchor without trusting the
local store.
"""

from __future__ import annotations

import enum
import functools
import hashlib
from dataclasses import dataclass
from operator import itemgetter

from .engine import MonitorMode
from .ledger import Cursor, Layout, LedgerEntry, LedgerKind, field_widths
from .model import (
    DAY_SECONDS,
    TEMP_MAX_DECIC,
    TEMP_MIN_DECIC,
    Shared,
    Timestamp,
    csv_field,
    day_start,
    format_tenths,
    iso_to_ts,
    ts_to_date,
)
from .outbox import Outbox

REPORT_HEADER = "timestamp,device_id,temp_c,hum_pct,mode,event"

# A row's stored mode and event codes. The CSV names a mode by its MonitorMode
# value and an event by the ledger transaction the row goes with, if any.
_MODE_CODES = {MonitorMode.NORMAL: 0, MonitorMode.BREACH_PENDING: 1, MonitorMode.CRITICAL: 2}
_MODE_NAMES = [mode.value for mode in _MODE_CODES]
_EVENT_CODES = {None: 0, LedgerKind.ALERT: 1, LedgerKind.RESOLUTION: 2}
_EVENT_NAMES = ["", "ALERT", "RESOLVED"]


class Verdict(enum.Enum):
    AUTHENTIC = "Authentic"
    DIGEST_MISMATCH = "DigestMismatch"
    NO_ANCHOR = "NoAnchor"


# Store layout of a row: timestamp, device id, temperature, humidity, mode, event.
_ROW = Layout(">qShHBB")
_bound_row = functools.lru_cache(maxsize=64)(_ROW.bind)  # per device id, as csv_field


def encode_rows(device_id: str, mode: MonitorMode, records,
                event: LedgerKind | None = None) -> list[bytes]:
    """encode_row of each (at, temp, hum, ...) record, by the bound struct."""
    pack, raw = _bound_row(device_id).pack, device_id.encode("utf-8")
    n, m, e = len(raw), _MODE_CODES[mode], _EVENT_CODES[event]
    with field_widths():
        return [pack(at, n, raw, temp, hum, m, e) for at, temp, hum, *_ in records]


def encode_row(at: Timestamp, device_id: str, temp_decic: int, hum_decip: int,
               mode: MonitorMode, event: LedgerKind | None = None) -> bytes:
    """Store encoding; starts with the i64 timestamp the store relies on."""
    return encode_rows(device_id, mode, [(at, temp_decic, hum_decip)], event)[0]


def decode_row(data: bytes) -> tuple[Timestamp, str, int, int, int, int]:
    """(at, device_id, temp_decic, hum_decip, mode code, event code)."""
    return Cursor(data).read(_ROW)


@dataclass(frozen=True)
class DailyReport:
    day: Timestamp
    device_id: str
    row_count: int
    csv_bytes: bytes
    digest: bytes

    @property
    def digest_hex(self) -> str:
        return self.digest.hex()


# A row's line, filled by one `%` per report; the tenths texts are shared,
# and every humidity value is in the temperature envelope too.
_LINE = "%sT%02d:%02d:%02dZ,%s,%s,%s,%s,%s\n"
_TENTHS = Shared(format_tenths, TEMP_MAX_DECIC - TEMP_MIN_DECIC + 1)


def render_csv(rows: list[tuple[Timestamp, str, int, int, int, int]]) -> bytes:
    # Each timestamp is ts_to_iso's text, built from the row's UTC date
    # (formatted once per day) and the seconds since that midnight.
    args = []
    midnight = date = None
    for at, device_id, temp, hum, mode, event in rows:
        since = at % DAY_SECONDS
        if at - since != midnight:
            midnight = at - since
            date = ts_to_date(midnight)
        args += (date, since // 3600, since // 60 % 60, since % 60, csv_field(device_id),
                 _TENTHS[temp], _TENTHS[hum], _MODE_NAMES[mode], _EVENT_NAMES[event])
    return f"{REPORT_HEADER}\n{_LINE * len(rows) % tuple(args)}".encode("utf-8")


def build_report(store: Outbox, day: Timestamp, device_id: str) -> DailyReport:
    """Canonical report for [day, day+1) from the local store. An empty day
    yields a valid header-only report. A row of the device's length, id
    length and id goes through its bound struct, any other through decode_row."""
    row, raw = _bound_row(device_id), device_id.encode("utf-8")
    unpack, size, n = row.unpack, row.size, len(raw)
    rows = []
    for data in store.rows(day, day + DAY_SECONDS):
        if len(data) == size:
            at, id_len, id_bytes, temp, hum, mode, event = unpack(data)
            if id_len == n and id_bytes == raw:
                rows.append((at, device_id, temp, hum, mode, event))
                continue
        if (decoded := decode_row(data))[1] == device_id:
            rows.append(decoded)
    rows.sort(key=itemgetter(0, 5))
    csv_bytes = render_csv(rows)
    return DailyReport(
        day=day,
        device_id=device_id,
        row_count=len(rows),
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
