import json

import pytest

from coldwatch.alerts import (
    AlertDispatcher,
    AlertSeverity,
    BuzzerSink,
    DisplaySink,
    MessengerSink,
    UnsupportedEvent,
    render_alert,
)
from coldwatch.model import EventKind, MonitorEvent, Reading

START = 1735689600  # 2025-01-01T00:00:00Z


def reading(at, temp=82, hum=610):
    return Reading(device_id="fridge-1", at=at, temp_decic=temp, hum_decip=hum)


def critical_event(at=START + 2400, since=START + 2400):
    return MonitorEvent(
        EventKind.CRITICAL_ESCALATED,
        at,
        {"episode_id": since, "since": since, "reading": reading(at)},
    )


def resolved_event(at, since, duration):
    return MonitorEvent(
        EventKind.BREACH_RESOLVED,
        at,
        {
            "episode_id": since,
            "since": since,
            "duration": duration,
            "was_critical": True,
            "reading": reading(at, temp=41, hum=520),
        },
    )


class TestRender:
    def test_critical_template_bytes(self):
        msg = render_alert(critical_event())
        assert msg.text == (
            "ALERT|CRITICAL|dev=fridge-1|temp=8.2C|hum=61.0%|since=2025-01-01T00:40:00Z"
        )
        assert msg.severity is AlertSeverity.CRITICAL

    def test_resolved_template_bytes(self):
        msg = render_alert(resolved_event(at=START + 5400, since=START + 2400, duration=3000))
        assert msg.text == (
            "RESOLVED|dev=fridge-1|temp=4.1C|hum=52.0%"
            "|since=2025-01-01T00:40:00Z|duration=3000s"
        )
        assert msg.severity is AlertSeverity.RESOLVED

    def test_other_kinds_unsupported(self):
        ev = MonitorEvent(EventKind.SAMPLE_TAKEN, START, {"reading": reading(START)})
        with pytest.raises(UnsupportedEvent):
            render_alert(ev)


class TestDispatch:
    def test_local_sinks_deliver_instantly(self):
        dispatcher = AlertDispatcher([BuzzerSink(), DisplaySink()])
        dispatcher.dispatch(render_alert(critical_event()), now=1000)
        records = dispatcher.deliveries
        assert {r.sink for r in records} == {"buzzer", "display"}
        assert all(r.delivered_at == r.dispatched_at for r in records)

    def test_messenger_latency_in_window(self):
        messenger = MessengerSink(seed=5)
        dispatcher = AlertDispatcher([messenger])
        for k in range(200):
            dispatcher.dispatch(render_alert(critical_event(at=1000 + k)), now=1000 + k)
        latencies = {r.delivered_at - r.dispatched_at for r in dispatcher.deliveries}
        assert latencies == {2, 3, 4}
        assert all(2 <= lat <= 4 for lat in latencies)

    def test_messenger_draws_are_seed_deterministic(self):
        def run(seed):
            messenger = MessengerSink(seed=seed)
            d = AlertDispatcher([messenger])
            for k in range(20):
                d.dispatch(render_alert(critical_event(at=1000 + k)), now=1000 + k)
            return [r.delivered_at for r in d.deliveries]

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_requires_at_least_one_sink(self):
        with pytest.raises(ValueError):
            AlertDispatcher([])

    def test_sink_isolation(self):
        def messenger_records(with_buzzer):
            messenger = MessengerSink(seed=3)
            sinks = [BuzzerSink(), DisplaySink(), messenger] if with_buzzer else [messenger]
            d = AlertDispatcher(sinks)
            for k in range(10):
                d.dispatch(render_alert(critical_event(at=2000 + 100 * k)), now=2000 + 100 * k)
            return messenger.captured

        assert messenger_records(True) == messenger_records(False)


class TestCaptureFile:
    def test_jsonl_wire_format(self, tmp_path):
        messenger = MessengerSink(seed=2, chat_id="chat-42")
        dispatcher = AlertDispatcher([messenger])
        dispatcher.dispatch(render_alert(critical_event()), now=START + 2400)
        dispatcher.dispatch_notice("REPORT|dev=fridge-1|day=2025-01-01|rows=72|sha256=ab", START + 86400)
        path = tmp_path / "messenger.jsonl"
        count = messenger.write_capture(path)
        assert count == 2
        lines = path.read_text().splitlines()
        docs = [json.loads(line) for line in lines]
        for doc in docs:
            assert set(doc) == {"chat_id", "text", "dispatched_at", "delivered_at"}
            assert doc["chat_id"] == "chat-42"
            assert doc["delivered_at"] >= doc["dispatched_at"]
        # Merged by delivery time.
        assert [d["delivered_at"] for d in docs] == sorted(d["delivered_at"] for d in docs)

