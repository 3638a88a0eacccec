"""Core domain types: fixed-point readings, thresholds, monitor events.

All quantities that can reach the ledger are fixed-point integers
(tenths of a degree Celsius, tenths of a percent relative humidity)
so that serialization and hashing are bit-exact. Time is integer unix
seconds, UTC; day boundaries are UTC midnights.
"""

from __future__ import annotations

import csv
import enum
import functools
import gc
import io
from dataclasses import dataclass, field
from datetime import datetime, timezone

# Unix seconds, UTC. Plain int keeps arithmetic and serialization trivial.
Timestamp = int

DAY_SECONDS = 86400

DEFAULT_START = 1735689600  # 2025-01-01T00:00:00Z, the default run start

# DHT11-style physical envelope, in tenths.
TEMP_MIN_DECIC = -400
TEMP_MAX_DECIC = 1250
HUM_MIN_DECIP = 0
HUM_MAX_DECIP = 1000


class ModelError(ValueError):
    """Invalid domain value or configuration."""


def format_tenths(value: int) -> str:
    """Render a fixed-point tenths value with exactly one decimal, no floats."""
    sign = "-" if value < 0 else ""
    mag = abs(value)
    return f"{sign}{mag // 10}.{mag % 10}"


# isoformat writes the year in four digits; strftime's %Y drops the zeros
# of a year before 1000 on some platforms.
def ts_to_iso(ts: Timestamp) -> str:
    iso = datetime.fromtimestamp(ts, tz=timezone.utc).isoformat(timespec="seconds")
    return iso.removesuffix("+00:00") + "Z"


def iso_to_ts(text: str) -> Timestamp:
    dt = datetime.strptime(text, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def day_start(ts: Timestamp) -> Timestamp:
    """UTC midnight at or before ts."""
    return ts - (ts % DAY_SECONDS)


def ts_to_date(ts: Timestamp) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).date().isoformat()


def date_to_ts(text: str) -> Timestamp:
    dt = datetime.strptime(text, "%Y-%m-%d").replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


@functools.lru_cache(maxsize=64)
def csv_field(text: str) -> str:
    """`text` as the csv module writes it in a trace or report row. A
    carriage return is quoted too: left bare, it ends the row for any CSV
    reader. Both files are UTF-8, so text that is not, such as a lone
    surrogate (an argv byte that does not decode arrives as one), is a
    ValueError."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"device id {text!r} is not UTF-8 text") from None
    buf = io.StringIO()
    quoting = csv.QUOTE_NONNUMERIC if "\r" in text else csv.QUOTE_MINIMAL
    csv.writer(buf, lineterminator="\n", quoting=quoting).writerow([text])
    return buf.getvalue()[:-1]


class Shared(dict):
    """key -> convert(key), computed once and shared, for at most `limit`
    keys; a key past the limit is converted at each lookup."""

    def __init__(self, convert, limit: int):
        super().__init__()
        self.convert, self.limit = convert, limit

    def __missing__(self, key):
        value = self.convert(key)
        if len(self) < self.limit:
            self[key] = value
        return value


def check_reading(device_id: str, temp_decic: int, hum_decip: int) -> None:
    """The reading rule, for a Reading and a replayed trace row alike."""
    if not device_id:
        raise ModelError("device_id must be non-empty")
    if not TEMP_MIN_DECIC <= temp_decic <= TEMP_MAX_DECIC:
        raise ModelError(
            f"temp_decic {temp_decic} outside sensor envelope [{TEMP_MIN_DECIC}, {TEMP_MAX_DECIC}]"
        )
    if not HUM_MIN_DECIP <= hum_decip <= HUM_MAX_DECIP:
        raise ModelError(f"hum_decip {hum_decip} outside [{HUM_MIN_DECIP}, {HUM_MAX_DECIP}]")


@dataclass(frozen=True)
class Reading:
    """One temperature/humidity sample from one device."""

    device_id: str
    at: Timestamp
    temp_decic: int
    hum_decip: int

    def __post_init__(self) -> None:
        check_reading(self.device_id, self.temp_decic, self.hum_decip)


@dataclass(frozen=True)
class Thresholds:
    """Operating bands and cadences driving the monitor state machine.

    Defaults: sample every 30 s, local record every 20 min, escalate a
    sustained breach after 40 min, critical-mode records every 30 s,
    anchor a batch to the ledger every 2 h. Temperature band 2.0-6.0 C,
    humidity band 40.0-65.0 %RH, 0.3 C re-entry hysteresis.
    """

    temp_min_decic: int = 20
    temp_max_decic: int = 60
    hum_min_decip: int = 400
    hum_max_decip: int = 650
    hysteresis_decic: int = 3
    breach_escalation: int = 2400
    sample_period: int = 30
    normal_log_period: int = 1200
    critical_log_period: int = 30
    batch_anchor_period: int = 7200

    def __post_init__(self) -> None:
        if self.temp_min_decic >= self.temp_max_decic:
            raise ModelError("temp_min_decic must be < temp_max_decic")
        if self.hum_min_decip >= self.hum_max_decip:
            raise ModelError("hum_min_decip must be < hum_max_decip")
        if self.hysteresis_decic < 0:
            raise ModelError("hysteresis_decic must be >= 0")
        for name in (
            "breach_escalation",
            "sample_period",
            "normal_log_period",
            "critical_log_period",
            "batch_anchor_period",
        ):
            if getattr(self, name) <= 0:
                raise ModelError(f"{name} must be positive")
        for name in ("normal_log_period", "critical_log_period", "batch_anchor_period"):
            if getattr(self, name) % self.sample_period != 0:
                raise ModelError(f"sample_period must divide {name}")


class EventKind(enum.Enum):
    SAMPLE_TAKEN = "SampleTaken"
    LOCAL_LOG_WRITTEN = "LocalLogWritten"
    BREACH_STARTED = "BreachStarted"
    CRITICAL_ESCALATED = "CriticalEscalated"
    IMAGE_CAPTURED = "ImageCaptured"
    ALERT_DISPATCHED = "AlertDispatched"
    BREACH_RESOLVED = "BreachResolved"
    BATCH_ANCHORED = "BatchAnchored"
    DAILY_REPORT_ANCHORED = "DailyReportAnchored"

    # Enum hashes the member name in Python code; every event is counted by
    # kind. Members are singletons compared by identity, so this agrees.
    __hash__ = object.__hash__


@dataclass(slots=True, eq=False)
class MonitorEvent:
    """One observable fact emitted by the monitor pipeline.

    Payload keys are kind-specific; every kind except SAMPLE_TAKEN
    references the reading or episode that caused it. Not frozen: a
    frozen __init__ costs a fifth of reading an events.log line back.
    Events are equal by kind, instant and payload across subclasses, and
    unhashable.
    """

    kind: EventKind
    at: Timestamp
    payload: dict = field(default_factory=dict)

    def __eq__(self, other):
        if not isinstance(other, MonitorEvent):
            return NotImplemented
        return self.kind == other.kind and self.at == other.at and self.payload == other.payload


_PAYLOAD = MonitorEvent.payload  # the slot, under SampleEvent's property


class SampleEvent(MonitorEvent):
    """A SampleTaken event read back from a log. Its payload slot holds a
    reading tuple (device id, humidity, temperature), shared by the events
    of one reading, until `payload` is first read; the dict built from it,
    with the event's instant as the reading's, then takes the slot."""

    __slots__ = ()

    @property
    def payload(self) -> dict:
        value = _PAYLOAD.__get__(self)
        if type(value) is tuple:
            device_id, hum, temp = value
            value = {"reading": {
                "at": self.at, "device_id": device_id, "hum_decip": hum, "temp_decic": temp,
            }}
            _PAYLOAD.__set__(self, value)
        return value

    payload = payload.setter(_PAYLOAD.__set__)


def collector_paused(build, /, *args, **kwargs):
    """build(*args, **kwargs) with the cyclic garbage collector paused.

    For building a list of events read back from a log: they hold no
    reference cycles, so each collection during the build would only
    rescan the growing list. The caller's collector state is restored,
    also when build raises."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return build(*args, **kwargs)
    finally:
        if enabled:
            gc.enable()
