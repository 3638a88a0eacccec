"""Notification fan-out: buzzer, character display, remote messenger.

Local actuator sinks deliver instantly; the messenger models remote
push delivery with a seeded whole-second latency drawn uniformly from
[2 s, 4 s]. Sinks are isolated: one sink failing or being disabled
never changes what the others deliver, and a message is re-queued only
for the sink that missed it.

Message texts are byte-stable templates:
  ALERT|CRITICAL|dev=<id>|temp=<x.x>C|hum=<y.y>%|since=<iso8601>
  RESOLVED|dev=<id>|temp=<x.x>C|hum=<y.y>%|since=<iso8601>|duration=<seconds>s

The default messenger sink captures to a JSONL file with the
Telegram-style body {"chat_id": ..., "text": ...}; a real HTTP adapter
is optional and reads its token from the environment.
"""

from __future__ import annotations

import enum
import json
import random
from dataclasses import dataclass
from pathlib import Path

from .model import EventKind, MonitorEvent, Reading, Timestamp, format_tenths, ts_to_iso

DISPLAY_HOLD_S = 10  # display shows the last message this long, then dims
MESSENGER_LATENCY_S = (2, 4)  # inclusive bounds of the seeded delivery latency


class UnsupportedEvent(ValueError):
    pass


class SinkUnavailable(Exception):
    pass


class AlertSeverity(enum.Enum):
    CRITICAL = "CRITICAL"
    RESOLVED = "RESOLVED"


@dataclass(frozen=True)
class AlertMessage:
    episode_id: int
    device_id: str
    severity: AlertSeverity
    reading: Reading
    since: Timestamp
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
        reading: Reading = event.payload["reading"]
        since = event.payload["since"]
        text = (
            f"ALERT|CRITICAL|dev={reading.device_id}"
            f"|temp={format_tenths(reading.temp_decic)}C"
            f"|hum={format_tenths(reading.hum_decip)}%"
            f"|since={ts_to_iso(since)}"
        )
        severity = AlertSeverity.CRITICAL
    elif event.kind is EventKind.BREACH_RESOLVED:
        reading = event.payload["reading"]
        since = event.payload["since"]
        text = (
            f"RESOLVED|dev={reading.device_id}"
            f"|temp={format_tenths(reading.temp_decic)}C"
            f"|hum={format_tenths(reading.hum_decip)}%"
            f"|since={ts_to_iso(since)}"
            f"|duration={event.payload['duration']}s"
        )
        severity = AlertSeverity.RESOLVED
    else:
        raise UnsupportedEvent(f"cannot render {event.kind.value}")
    return AlertMessage(
        episode_id=event.payload["episode_id"],
        device_id=reading.device_id,
        severity=severity,
        reading=reading,
        since=since,
        text=text,
    )


class Sink:
    """A sink delivers message text at some latency; outage windows make
    it temporarily unavailable."""

    name = "sink"

    def __init__(self):
        self.outage_windows: list[tuple[Timestamp, Timestamp]] = []

    def available(self, now: Timestamp) -> bool:
        return not any(s <= now < e for s, e in self.outage_windows)

    def deliver(self, text: str, now: Timestamp) -> Timestamp:
        """Returns the delivery timestamp; raises SinkUnavailable in outage."""
        if not self.available(now):
            raise SinkUnavailable(f"{self.name} unavailable at {now}")
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
        super().__init__()
        self.chat_id = chat_id
        self._rng = random.Random(f"{seed}:messenger")
        self.captured: list[dict] = []

    def deliver(self, text: str, now: Timestamp) -> Timestamp:
        if not self.available(now):
            raise SinkUnavailable(f"{self.name} unavailable at {now}")
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


class TelegramHTTPSink(Sink):
    """Optional real adapter for the Telegram bot send-message endpoint.
    Requires the `requests` extra; credentials come from the environment
    (MONITOR_BOT_TOKEN, MONITOR_CHAT_ID)."""

    name = "telegram"

    def __init__(self, token: str, chat_id: str):
        super().__init__()
        self.token = token
        self.chat_id = chat_id

    def deliver(self, text: str, now: Timestamp) -> Timestamp:
        import requests

        try:
            resp = requests.post(
                f"https://api.telegram.org/bot{self.token}/sendMessage",
                json={"chat_id": self.chat_id, "text": text},
                timeout=10,
            )
        except requests.RequestException as exc:
            raise SinkUnavailable(f"telegram unreachable: {exc}") from exc
        if resp.status_code != 200:
            raise SinkUnavailable(f"telegram returned {resp.status_code}")
        return now


@dataclass
class _PendingSend:
    text: str
    message: AlertMessage | None
    dispatched_at: Timestamp


class AlertDispatcher:
    """Fan-out with per-sink re-queueing. Dispatch never raises on sink
    failure; failed sends are retried by flush() once the sink recovers."""

    def __init__(self, sinks: list[Sink]):
        if not sinks:
            raise ValueError("at least one sink must be registered")
        self.sinks = sinks
        self.deliveries: list[DeliveryRecord] = []
        self.failures: list[tuple[str, Timestamp, str]] = []
        self._pending: dict[str, list[_PendingSend]] = {s.name: [] for s in sinks}

    def dispatch(self, message: AlertMessage, now: Timestamp) -> list[DeliveryRecord]:
        records = []
        for sink in self.sinks:
            rec = self._try_send(sink, message.text, message, now)
            if rec is not None:
                records.append(rec)
        return records

    def dispatch_notice(
        self, text: str, now: Timestamp, sink_names: tuple[str, ...] = ("messenger", "telegram")
    ) -> None:
        """Plain text to the remote sinks only (daily report notices)."""
        for sink in self.sinks:
            if sink.name in sink_names:
                self._try_send(sink, text, None, now)

    def flush(self, now: Timestamp) -> None:
        for sink in self.sinks:
            queue = self._pending[sink.name]
            while queue:
                send = queue[0]
                if not sink.available(now):
                    break
                delivered = sink.deliver(send.text, now)
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

    def _try_send(
        self, sink: Sink, text: str, message: AlertMessage | None, now: Timestamp
    ) -> DeliveryRecord | None:
        try:
            delivered = sink.deliver(text, now)
        except SinkUnavailable:
            self.failures.append((sink.name, now, text))
            self._pending[sink.name].append(
                _PendingSend(text=text, message=message, dispatched_at=now)
            )
            return None
        if message is None:
            return None
        record = DeliveryRecord(
            message=message, sink=sink.name, dispatched_at=now, delivered_at=delivered
        )
        self.deliveries.append(record)
        return record
