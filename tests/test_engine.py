import pytest
from hypothesis import given, settings, strategies as st

from coldwatch.engine import MonitorEngine, MonitorMode, OutOfOrderSample, out_of_band
from coldwatch.model import EventKind, Reading, Thresholds

TH = Thresholds()
DEV = "fridge-1"

IN_TEMP = 40
OUT_TEMP = 85
DEAD_ZONE_TEMP = 58  # inside [20, 60] but not inside the (23, 57) hysteresis band


def reading(at, temp=IN_TEMP, hum=520):
    return Reading(device_id=DEV, at=at, temp_decic=temp, hum_decip=hum)


def drive(temps, start=0, thresholds=TH):
    """Feed one reading per tick (None entries are dropouts); returns all events."""
    engine = MonitorEngine(thresholds, DEV, origin=start)
    events = []
    for k, temp in enumerate(temps, start=1):
        at = start + k * thresholds.sample_period
        r = None if temp is None else reading(at, temp)
        events.extend(engine.step(r, at))
    return engine, events


def by_kind(events, kind):
    return [e for e in events if e.kind is kind]


class TestClassify:
    def test_closed_boundary_is_in_range(self):
        assert not out_of_band(reading(0, temp=60), TH)
        assert not out_of_band(reading(0, temp=20), TH)

    def test_above_band_is_out(self):
        assert out_of_band(reading(0, temp=61), TH)

    def test_humidity_branch(self):
        assert out_of_band(reading(0, temp=40, hum=999), TH)
        assert not out_of_band(reading(0, temp=40, hum=650), TH)


class TestQuietDayCadence:
    def test_72_local_records_and_12_batch_anchors(self):
        # 86400/1200 = 72 records, 86400/7200 = 12 anchors, zero alerts.
        _, events = drive([IN_TEMP] * 2880)
        records = by_kind(events, EventKind.LOCAL_LOG_WRITTEN)
        anchors = by_kind(events, EventKind.BATCH_ANCHORED)
        assert len(records) == 72
        assert len(anchors) == 12
        assert [e.at for e in records] == [30 + 1200 * k for k in range(72)]
        assert [e.at for e in anchors] == [7200 * k for k in range(1, 13)]
        assert not by_kind(events, EventKind.BREACH_STARTED)
        assert not by_kind(events, EventKind.CRITICAL_ESCALATED)

    def test_sample_events_one_per_tick(self):
        _, events = drive([IN_TEMP] * 2880)
        assert len(by_kind(events, EventKind.SAMPLE_TAKEN)) == 2880


class TestEscalation:
    def test_fires_at_exactly_t0_plus_2400(self):
        # Onset at tick 40 (t0=1200); out-of-range persists. 2400/30 = 80
        # samples later, i.e. at t0+2400, and not one tick earlier.
        temps = [IN_TEMP] * 39 + [OUT_TEMP] * 200
        _, events = drive(temps)
        started = by_kind(events, EventKind.BREACH_STARTED)
        crit = by_kind(events, EventKind.CRITICAL_ESCALATED)
        assert [e.at for e in started] == [1200]
        assert [e.at for e in crit] == [1200 + 2400]
        assert not any(e.at < 3600 for e in crit)

    def test_one_image_and_one_alert_per_episode(self):
        temps = [OUT_TEMP] * 200
        _, events = drive(temps)
        assert len(by_kind(events, EventKind.CRITICAL_ESCALATED)) == 1
        assert len(by_kind(events, EventKind.IMAGE_CAPTURED)) == 1
        assert len(by_kind(events, EventKind.ALERT_DISPATCHED)) == 1

    def test_no_escalation_without_sustained_breach(self):
        # 2370 s out of range, then back in: never escalates.
        temps = [OUT_TEMP] * 79 + [IN_TEMP] * 20
        _, events = drive(temps)
        assert not by_kind(events, EventKind.CRITICAL_ESCALATED)
        assert len(by_kind(events, EventKind.BREACH_RESOLVED)) == 1

    def test_brief_in_range_excursion_does_not_reset_timer(self):
        # One in-range sample mid-breach neither ends the episode nor
        # shifts the escalation instant.
        temps = [OUT_TEMP] * 40 + [IN_TEMP] + [OUT_TEMP] * 100
        _, events = drive(temps)
        crit = by_kind(events, EventKind.CRITICAL_ESCALATED)
        assert [e.at for e in crit] == [30 + 2400]
        assert len(by_kind(events, EventKind.BREACH_STARTED)) == 1


class TestResolution:
    def test_two_consecutive_hysteresis_samples_resolve(self):
        temps = [OUT_TEMP] * 81 + [IN_TEMP, IN_TEMP, IN_TEMP]
        engine, events = drive(temps)
        resolved = by_kind(events, EventKind.BREACH_RESOLVED)
        # Episode start 30, escalation 2430; in-range at 2460 and 2490.
        assert [e.at for e in resolved] == [2490]
        assert resolved[0].payload["was_critical"] is True
        assert resolved[0].payload["duration"] == 2490 - 30
        assert engine.mode is MonitorMode.NORMAL
        assert engine.episode_start is None

    def test_dead_zone_sample_breaks_the_streak(self):
        # 58 is in the raw band but not strictly inside (23, 57).
        temps = [OUT_TEMP] * 81 + [IN_TEMP, DEAD_ZONE_TEMP, IN_TEMP, IN_TEMP]
        _, events = drive(temps)
        assert [e.at for e in by_kind(events, EventKind.BREACH_RESOLVED)] == [81 * 30 + 4 * 30]

    def test_dropout_neither_resets_nor_extends_the_streak(self):
        temps = [OUT_TEMP] * 81 + [IN_TEMP, None, IN_TEMP]
        _, events = drive(temps)
        assert [e.at for e in by_kind(events, EventKind.BREACH_RESOLVED)] == [84 * 30]

    def test_resolution_from_pending_is_not_critical(self):
        temps = [OUT_TEMP] * 10 + [IN_TEMP, IN_TEMP]
        _, events = drive(temps)
        resolved = by_kind(events, EventKind.BREACH_RESOLVED)
        assert len(resolved) == 1
        assert resolved[0].payload["was_critical"] is False


class TestCriticalCadence:
    def test_records_every_sample_while_critical(self):
        temps = [OUT_TEMP] * 120 + [IN_TEMP, IN_TEMP] + [IN_TEMP] * 50
        _, events = drive(temps)
        crit_at = by_kind(events, EventKind.CRITICAL_ESCALATED)[0].at
        resolved_at = by_kind(events, EventKind.BREACH_RESOLVED)[0].at
        critical_records = [
            e.at
            for e in by_kind(events, EventKind.LOCAL_LOG_WRITTEN)
            if e.payload["record"].mode is MonitorMode.CRITICAL
        ]
        assert critical_records[0] == crit_at
        gaps = {b - a for a, b in zip(critical_records, critical_records[1:])}
        assert gaps == {TH.critical_log_period}
        # Every 30 s tick from escalation to the tick before resolution.
        assert critical_records[-1] == resolved_at - 30


class TestEpisodes:
    def test_humidity_alone_sustains_an_episode(self):
        # Humidity out of band (> 650) with temperature fine: same escalation
        # path and the same shared episode timer.
        engine = MonitorEngine(TH, DEV, origin=0)
        events = []
        for k in range(1, 120):
            at = 30 * k
            events.extend(engine.step(reading(at, temp=40, hum=900), at))
        crit = by_kind(events, EventKind.CRITICAL_ESCALATED)
        assert [e.at for e in crit] == [30 + 2400]

    def test_episode_ids_strictly_increase(self):
        temps = ([OUT_TEMP] * 5 + [IN_TEMP] * 4) * 3 + [IN_TEMP] * 10
        _, events = drive(temps)
        ids = [e.payload["episode_id"] for e in by_kind(events, EventKind.BREACH_STARTED)]
        assert len(ids) == 3
        assert ids == sorted(set(ids))


def test_out_of_order_tick_rejected():
    engine = MonitorEngine(TH, DEV, origin=0)
    engine.step(reading(30), 30)
    with pytest.raises(OutOfOrderSample):
        engine.step(reading(29), 29)


def test_window_stats_cover_the_elapsed_window():
    temps = [40, 44] * 21  # records at tick 1 (t=30) and tick 41 (t=1230)
    _, events = drive(temps)
    records = [e.payload["record"] for e in by_kind(events, EventKind.LOCAL_LOG_WRITTEN)]
    first, second = records[0], records[1]
    assert (first.window_min_temp_decic, first.window_max_temp_decic) == (40, 40)
    # Window after the first record: ticks 2..41 inclusive, 20 at 44, 20 at 40.
    assert second.at == 1230
    assert second.window_min_temp_decic == 40
    assert second.window_max_temp_decic == 44
    assert second.window_avg_temp_decic == (44 * 20 + 40 * 20) // 40
    assert (
        second.window_min_temp_decic
        <= second.window_avg_temp_decic
        <= second.window_max_temp_decic
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=400))
def test_random_traces_never_escalate_early(outs):
    temps = [OUT_TEMP if out else IN_TEMP for out in outs]
    _, events = drive(temps)
    started = {e.payload["episode_id"]: e.at for e in by_kind(events, EventKind.BREACH_STARTED)}
    crit = by_kind(events, EventKind.CRITICAL_ESCALATED)
    for e in crit:
        assert e.at - started[e.payload["episode_id"]] >= TH.breach_escalation
    # At most one escalation per episode, and every resolution references
    # an episode that started.
    crit_ids = [e.payload["episode_id"] for e in crit]
    assert len(crit_ids) == len(set(crit_ids))
    for e in by_kind(events, EventKind.BREACH_RESOLVED):
        assert e.payload["episode_id"] in started


@settings(max_examples=30, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=400), st.integers(0, 2**32))
def test_event_stream_is_a_pure_function_of_the_trace(outs, _seed):
    temps = [OUT_TEMP if out else IN_TEMP for out in outs]
    _, a = drive(temps)
    _, b = drive(temps)
    assert a == b
