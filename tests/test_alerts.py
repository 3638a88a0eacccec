import json
import math

import pytest

from coldwatch.alerts import (
    AlertDispatcher,
    AlertSeverity,
    BuzzerSink,
    DisplaySink,
    MessengerSink,
    Sink,
    SinkUnavailable,
    UnsupportedEvent,
    render_alert,
)
from coldwatch.model import EventKind, MonitorEvent, Reading

START = 1735689600  # 2025-01-01T00:00:00Z
DAY = 86400


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


class Down(Sink):
    """Wraps a sink and raises SinkUnavailable inside [start, end)."""

    def __init__(self, sink, start, end):
        self.sink, self.name, self.window = sink, sink.name, (start, end)
        self.tries = []

    def deliver(self, text, now):
        self.tries.append(now)
        if self.window[0] <= now < self.window[1]:
            raise SinkUnavailable(f"{self.name} down at {now}")
        return self.sink.deliver(text, now)


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

    def test_messenger_outage_requeues_only_messenger(self):
        messenger = Down(MessengerSink(seed=1), 1000, 1060)
        buzzer = BuzzerSink()
        dispatcher = AlertDispatcher([buzzer, messenger])
        msg = render_alert(critical_event())
        dispatcher.dispatch(msg, now=1000)
        # Buzzer delivered during the messenger outage.
        assert [r.sink for r in dispatcher.deliveries] == ["buzzer"]
        assert messenger.tries == [1000]
        dispatcher.flush(now=1030)  # still down
        assert [r.sink for r in dispatcher.deliveries] == ["buzzer"]
        dispatcher.flush(now=1060)  # recovered, but backing off 60 s from 1030
        assert [r.sink for r in dispatcher.deliveries] == ["buzzer"]
        dispatcher.flush(now=1090)
        sinks = [r.sink for r in dispatcher.deliveries]
        assert sinks == ["buzzer", "messenger"]
        delivered = dispatcher.deliveries[-1]
        assert delivered.delivered_at >= 1090 + 2
        assert messenger.tries == [1000, 1030, 1090]

    def test_send_queued_in_an_outage_goes_before_a_newer_one(self):
        messenger = MessengerSink(seed=1)
        dispatcher = AlertDispatcher([Down(messenger, 1000, 1060)])
        older, newer = (render_alert(critical_event(at=t, since=t)) for t in (1000, 1060))
        dispatcher.dispatch(older, now=1000)
        dispatcher.dispatch(newer, now=1060)
        assert [r.dispatched_at for r in dispatcher.deliveries] == [1000, 1060]
        assert [m["text"] for m in messenger.captured] == [older.text, newer.text]

    def test_failed_send_of_an_available_sink_stays_queued(self):
        class Flaky(Sink):
            """Reports itself available but fails its first two sends, like
            an HTTP endpoint that answers 500 twice."""

            name = "flaky"
            calls = 0

            def deliver(self, text, now):
                self.calls += 1
                if self.calls <= 2:
                    raise SinkUnavailable("500")
                return now

        flaky = Flaky()
        dispatcher = AlertDispatcher([BuzzerSink(), flaky])
        dispatcher.dispatch(render_alert(critical_event()), now=1000)
        assert [r.sink for r in dispatcher.deliveries] == ["buzzer"]
        assert flaky.calls == 1
        dispatcher.flush(now=1030)  # the retry fails too
        assert [r.sink for r in dispatcher.deliveries] == ["buzzer"]
        dispatcher.flush(now=1090)
        assert [(r.sink, r.dispatched_at, r.delivered_at) for r in dispatcher.deliveries] == [
            ("buzzer", 1000, 1000),
            ("flaky", 1000, 1090),
        ]
        dispatcher.flush(now=1120)
        assert flaky.calls == 3

    def test_failing_sink_backs_off(self):
        down = Down(BuzzerSink(), 0, DAY)
        dispatcher = AlertDispatcher([down])
        dispatcher.dispatch(render_alert(critical_event()), now=0)
        for now in range(30, DAY, 30):
            dispatcher.flush(now)
        assert down.tries == [0, 30, 90] + list(range(210, DAY, 120))

    def test_success_resets_the_backoff(self):
        down = Down(BuzzerSink(), 0, 100)
        dispatcher = AlertDispatcher([down])
        dispatcher.dispatch(render_alert(critical_event()), now=0)
        for now in range(30, 240, 30):  # fails at 0, 30 and 90; delivered at 210
            dispatcher.flush(now)
        down.window = (240, 300)
        dispatcher.dispatch(render_alert(critical_event()), now=240)
        for now in range(270, 400, 30):
            dispatcher.flush(now)
        # A first failure again waits 30 s, not the 120 s of a fourth.
        assert down.tries == [0, 30, 90, 210, 240, 270, 330]
        assert [r.delivered_at for r in dispatcher.deliveries] == [210, 330]

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


def test_queued_counts_the_sends_still_waiting():
    messenger = Down(MessengerSink(seed=1), 1000, 1060)
    dispatcher = AlertDispatcher([BuzzerSink(), messenger])
    assert (dispatcher.queued, dispatcher.next_try()) == (0, math.inf)
    dispatcher.dispatch(render_alert(critical_event()), now=1000)
    # The buzzer delivered; the messenger is down and backs off for 30 s.
    assert (dispatcher.queued, dispatcher.next_try()) == (1, 1030)
    dispatcher.dispatch_notice("report", now=1010)  # backing off: queued behind the alert
    assert (dispatcher.queued, dispatcher.next_try()) == (2, 1030)
    dispatcher.flush(now=1030)  # still down
    assert (dispatcher.queued, dispatcher.next_try()) == (2, 1090)
    dispatcher.flush(now=1090)
    assert (dispatcher.queued, dispatcher.next_try()) == (0, math.inf)
    assert len(messenger.sink.captured) == 2
