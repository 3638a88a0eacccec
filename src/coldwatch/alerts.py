"""Notification fan-out: buzzer, character display, remote messenger.

Local actuator sinks deliver instantly; the messenger models remote
push delivery with a seeded whole-second latency drawn uniformly from
[2 s, 4 s]. Sinks are isolated: each has its own queue of sends, so one
sink failing or being disabled never changes what the others deliver,
and a failed send is retried only for the sink that missed it, on the
outbox's 30/60/120 s backoff.

Message texts are byte-stable templates:
  ALERT|CRITICAL|dev=<id>|temp=<x.x>C|hum=<y.y>%|since=<iso8601>
  RESOLVED|dev=<id>|temp=<x.x>C|hum=<y.y>%|since=<iso8601>|duration=<seconds>s

The messenger sink captures to a JSONL file with the Telegram-style
body {"chat_id": ..., "text": ...}.
"""

from __future__ import annotations

import enum
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from .model import EventKind, MonitorEvent, Reading, Timestamp, format_tenths, ts_to_iso
from .outbox import retry_delay

MESSENGER_LATENCY_S = (2, 4)  # inclusive bounds of the seeded delivery latency
NOTICE_SINKS = ("messenger",)  # the remote sinks, which get report notices


class UnsupportedEvent(ValueError):
    pass


class SinkUnavailable(Exception):
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
    """A sink delivers message text at some latency; one that cannot
    deliver raises SinkUnavailable."""

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
    performing network delivery. Latency is drawn per successful handoff
    from its own seeded generator, so other sinks cannot perturb it."""

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


@dataclass
class _PendingSend:
    text: str
    message: AlertMessage | None
    dispatched_at: Timestamp


class AlertDispatcher:
    """Fan-out with per-sink queues. Every send is queued and delivered by
    flush(), so a send that fails stays at the head of its sink's queue and
    is retried, in order, by a later flush. After its k-th failure in a row
    a sink is not tried again for retry_delay(k) seconds. Dispatch never raises on sink failure."""

    def __init__(self, sinks: list[Sink]):
        if not sinks:
            raise ValueError("at least one sink must be registered")
        self.sinks = sinks
        self.deliveries: list[DeliveryRecord] = []
        self._pending: dict[str, list[_PendingSend]] = {s.name: [] for s in sinks}
        self.queued = 0  # sends waiting in all queues; flush has work only if > 0
        self._backoff: dict[str, tuple[int, Timestamp]] = {}  # failures in a row, next try

    def dispatch(self, message: AlertMessage, now: Timestamp) -> None:
        for sink in self.sinks:
            self._pending[sink.name].append(_PendingSend(message.text, message, now))
        self.queued += len(self.sinks)
        self.flush(now)

    def dispatch_notice(self, text: str, now: Timestamp) -> None:
        """Plain text to the remote sinks only (daily report notices)."""
        for sink in self.sinks:
            if sink.name in NOTICE_SINKS:
                self._pending[sink.name].append(_PendingSend(text, None, now))
                self.queued += 1
        self.flush(now)

    def next_try(self) -> Timestamp | float:
        """The earliest instant a flush tries a queued send; math.inf if none
        is queued. After any flush, every sink with sends queued is backing off."""
        if not self.queued:
            return math.inf
        return min(self._backoff[name][1] for name, queue in self._pending.items() if queue)

    def flush(self, now: Timestamp) -> None:
        for sink in self.sinks:
            queue = self._pending[sink.name]
            if queue and now < self._backoff.get(sink.name, (0, now))[1]:
                continue  # backing off after a failure
            while queue:
                send = queue[0]
                try:
                    delivered = sink.deliver(send.text, now)
                except SinkUnavailable:
                    streak = self._backoff.get(sink.name, (0, now))[0] + 1
                    self._backoff[sink.name] = (streak, now + retry_delay(streak))
                    break
                self._backoff.pop(sink.name, None)
                if send.message is not None:
                    self.deliveries.append(
                        DeliveryRecord(
                            message=send.message,
                            sink=sink.name,
                            dispatched_at=send.dispatched_at,
                            delivered_at=delivered,
                        )
                    )
                queue.pop(0)
                self.queued -= 1
