"""Notification fan-out: buzzer, character display, remote messenger.

Local actuator sinks deliver instantly; the messenger models remote
push delivery with a seeded whole-second latency drawn uniformly from
[2 s, 4 s]. No sink can fail, so every send is delivered at the instant
it is dispatched. Sinks are isolated: the messenger draws its latency
from its own generator, so adding or removing another sink never changes
what the messenger delivers.

Message texts are byte-stable templates:
  ALERT|CRITICAL|dev=<id>|temp=<x.x>C|hum=<y.y>%|since=<iso8601>
  RESOLVED|dev=<id>|temp=<x.x>C|hum=<y.y>%|since=<iso8601>|duration=<seconds>s

The messenger sink captures to a JSONL file with the Telegram-style
body {"chat_id": ..., "text": ...}.
"""

from __future__ import annotations

import enum
import json
import random
from dataclasses import dataclass
from pathlib import Path

from .model import EventKind, MonitorEvent, Reading, Timestamp, format_tenths, ts_to_iso

MESSENGER_LATENCY_S = (2, 4)  # inclusive bounds of the seeded delivery latency
NOTICE_SINKS = ("messenger",)  # the remote sinks, which get report notices


class UnsupportedEvent(ValueError):
    pass


class AlertSeverity(enum.Enum):
    CRITICAL = "CRITICAL"
    RESOLVED = "RESOLVED"


@dataclass(frozen=True)
class AlertMessage:
    severity: AlertSeverity
    text: str


@dataclass(frozen=True)
class DeliveryRecord:
    message: AlertMessage
    sink: str
    dispatched_at: Timestamp
    delivered_at: Timestamp


def render_alert(event: MonitorEvent) -> AlertMessage:
    """Deterministic message for an escalation or resolution event."""
    if event.kind is EventKind.CRITICAL_ESCALATED:
        head, severity, tail = "ALERT|CRITICAL", AlertSeverity.CRITICAL, ""
    elif event.kind is EventKind.BREACH_RESOLVED:
        head, severity = "RESOLVED", AlertSeverity.RESOLVED
        tail = f"|duration={event.payload['duration']}s"
    else:
        raise UnsupportedEvent(f"cannot render {event.kind.value}")
    reading: Reading = event.payload["reading"]
    text = (
        f"{head}|dev={reading.device_id}"
        f"|temp={format_tenths(reading.temp_decic)}C"
        f"|hum={format_tenths(reading.hum_decip)}%"
        f"|since={ts_to_iso(event.payload['since'])}{tail}"
    )
    return AlertMessage(severity=severity, text=text)


class Sink:
    """A sink delivers message text at some latency, and always
    delivers."""

    name = "sink"

    def deliver(self, text: str, now: Timestamp) -> Timestamp:
        """Returns the delivery timestamp."""
        return now


class BuzzerSink(Sink):
    name = "buzzer"


class DisplaySink(Sink):
    name = "display"


class MessengerSink(Sink):
    """Offline messenger: records Telegram-shaped bodies instead of
    performing network delivery. Latency is drawn per handoff from its
    own seeded generator, so other sinks cannot perturb it."""

    name = "messenger"

    def __init__(self, seed: int = 0, chat_id: str = "owner"):
        self.chat_id = chat_id
        self._rng = random.Random(f"{seed}:messenger")
        self.captured: list[dict] = []

    def deliver(self, text: str, now: Timestamp) -> Timestamp:
        delivered = now + self._rng.randint(*MESSENGER_LATENCY_S)
        self.captured.append(
            {"chat_id": self.chat_id, "text": text, "dispatched_at": now, "delivered_at": delivered}
        )
        return delivered

    def write_capture(self, path: Path) -> int:
        """Write captured messages merged by delivery time, one JSON object
        per line."""
        ordered = sorted(self.captured, key=lambda m: (m["delivered_at"], m["dispatched_at"]))
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            for msg in ordered:
                f.write(json.dumps(msg, sort_keys=True, separators=(",", ":")) + "\n")
        return len(ordered)


class AlertDispatcher:
    """Fan-out: each send goes to its sinks when it is dispatched, in sink
    order, through flush. Only alert deliveries are recorded."""

    def __init__(self, sinks: list[Sink]):
        if not sinks:
            raise ValueError("at least one sink must be registered")
        self.sinks = sinks
        self.deliveries: list[DeliveryRecord] = []

    def dispatch(self, message: AlertMessage, now: Timestamp) -> None:
        self.flush(message.text, message, self.sinks, now)

    def dispatch_notice(self, text: str, now: Timestamp) -> None:
        """Plain text to the remote sinks only (daily report notices)."""
        self.flush(text, None, [s for s in self.sinks if s.name in NOTICE_SINKS], now)

    def flush(self, text: str, message: AlertMessage | None, sinks: list[Sink],
              now: Timestamp) -> None:
        """Deliver `text` to each of `sinks` now; record each delivery of an
        alert `message`."""
        for sink in sinks:
            delivered = sink.deliver(text, now)
            if message is not None:
                self.deliveries.append(DeliveryRecord(message, sink.name, now, delivered))
