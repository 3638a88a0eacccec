"""Core domain types: fixed-point readings, thresholds, monitor events.

All quantities that can reach the ledger are fixed-point integers
(tenths of a degree Celsius, tenths of a percent relative humidity)
so that serialization and hashing are bit-exact. Time is integer unix
seconds, UTC; day boundaries are UTC midnights.
"""

from __future__ import annotations

import enum
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


def ts_to_iso(ts: Timestamp) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def iso_to_ts(text: str) -> Timestamp:
    dt = datetime.strptime(text, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def day_start(ts: Timestamp) -> Timestamp:
    """UTC midnight at or before ts."""
    return ts - (ts % DAY_SECONDS)


def ts_to_date(ts: Timestamp) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%d")


def date_to_ts(text: str) -> Timestamp:
    dt = datetime.strptime(text, "%Y-%m-%d").replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


@dataclass(frozen=True)
class Reading:
    """One temperature/humidity sample from one device."""

    device_id: str
    at: Timestamp
    temp_decic: int
    hum_decip: int

    def __post_init__(self) -> None:
        if not self.device_id:
            raise ModelError("device_id must be non-empty")
        if not TEMP_MIN_DECIC <= self.temp_decic <= TEMP_MAX_DECIC:
            raise ModelError(
                f"temp_decic {self.temp_decic} outside sensor envelope "
                f"[{TEMP_MIN_DECIC}, {TEMP_MAX_DECIC}]"
            )
        if not HUM_MIN_DECIP <= self.hum_decip <= HUM_MAX_DECIP:
            raise ModelError(
                f"hum_decip {self.hum_decip} outside [{HUM_MIN_DECIP}, {HUM_MAX_DECIP}]"
            )


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


@dataclass(frozen=True)
class MonitorEvent:
    """One observable fact emitted by the monitor pipeline.

    Payload keys are kind-specific; every kind except SAMPLE_TAKEN
    references the reading or episode that caused it.
    """

    kind: EventKind
    at: Timestamp
    payload: dict = field(default_factory=dict)
