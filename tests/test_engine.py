import math
from array import array
from unittest import mock

import hypothesis
import pytest
from hypothesis import given, settings, strategies as st

from coldwatch import engine as engine_module
from coldwatch.engine import MonitorEngine, MonitorMode, OutOfOrderSample, out_of_band
from coldwatch.model import EventKind, MonitorEvent, Reading, Thresholds
from coldwatch.sensor import DROPPED, Trace

TH = Thresholds()
DEV = "fridge-1"

IN_TEMP = 40
OUT_TEMP = 85
DEAD_ZONE_TEMP = 58  # inside [20, 60] but not inside the (23, 57) hysteresis band


def reading(at, temp=IN_TEMP, hum=520):
    return Reading(device_id=DEV, at=at, temp_decic=temp, hum_decip=hum)


def drive(temps, start=0, thresholds=TH, hums=None):
    """Feed one reading per tick (None entries are dropouts; humidity 520
    unless `hums` gives it); returns all events."""
    engine = MonitorEngine(thresholds, DEV, origin=start)
    events = []
    for k, (temp, hum) in enumerate(zip(temps, hums or [520] * len(temps)), start=1):
        at = start + k * thresholds.sample_period
        r = None if temp is None else reading(at, temp, hum)
        events.extend(engine.step(r, at))
    return engine, events


def by_kind(events, kind):
    return [e for e in events if e.kind is kind]


class TestClassify:
    def test_closed_boundary_is_in_range(self):
        assert not out_of_band(60, 520, TH)
        assert not out_of_band(20, 520, TH)

    def test_above_band_is_out(self):
        assert out_of_band(61, 520, TH)

    def test_humidity_branch(self):
        assert out_of_band(40, 999, TH)
        assert not out_of_band(40, 650, TH)


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

    def test_a_quiet_tick_steps_to_no_event(self):
        # The first tick records; the second is before the next record and anchor.
        engine, _ = drive([IN_TEMP])
        assert engine.step(reading(60), 60) == []
        assert engine.step(None, 90) == []


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

    @pytest.mark.parametrize("temp, hum", [(57, 520), (23, 520), (40, 403), (40, 647)])
    def test_a_reading_on_the_hysteresis_edge_breaks_the_streak(self, temp, hum):
        # The shrunk band is (23, 57) x (403, 647), open: its edge is neutral.
        # Stepped, and through the Critical run that fold takes.
        temps = [OUT_TEMP] * 81 + [temp, IN_TEMP, IN_TEMP]
        hums = [520] * 81 + [hum, 520, 520]
        for events in (drive(temps, hums=hums)[1], drive_folding(trace_of(temps, hums))):
            assert [e.at for e in by_kind(events, EventKind.BREACH_RESOLVED)] == [2520]

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
            if e.payload["mode"] is MonitorMode.CRITICAL
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
    # A record is (at, temp, hum, window min, max, floor average).
    first, second = [e.payload["record"] for e in by_kind(events, EventKind.LOCAL_LOG_WRITTEN)]
    assert first[3:5] == (40, 40)
    # Window after the first record: ticks 2..41 inclusive, 20 at 44, 20 at 40.
    at, _, _, low, high, avg = second
    assert at == 1230
    assert (low, high) == (40, 44)
    assert avg == (44 * 20 + 40 * 20) // 40
    assert low <= avg <= high


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


# -- folding quiet ticks ---------------------------------------------------


def trace_of(temps, hums=None, thresholds=TH):
    """A trace with one tick per entry of temps from origin 0; None is a dropout."""
    hums = hums or [520] * len(temps)
    period = thresholds.sample_period
    return Trace(
        DEV,
        range(period, period * (len(temps) + 1), period),
        array("h", [DROPPED if t is None else t for t in temps]),
        array("h", [0 if t is None else h for t, h in zip(temps, hums)]),
    )


def drive_folding(trace, thresholds=TH, stops=()):
    """The run loop's use of the engine: fold each stretch, ending at the
    next of `stops`, and step every other tick. Returns the events, a
    folded record as the LocalLogWritten event that step gives, in the
    engine's mode."""
    engine = MonitorEngine(thresholds, DEV, origin=0)
    events, i = [], 0
    while i < len(trace.ticks):
        j, records = engine.fold(
            trace, i, min([s for s in stops if s > trace.ticks[i]], default=math.inf)
        )
        events.extend(
            MonitorEvent(EventKind.LOCAL_LOG_WRITTEN, rec[0], {"mode": engine.mode, "record": rec})
            for rec in records
        )
        if j == i:
            at, temp = trace.ticks[i], trace.temps[i]
            r = None if temp == DROPPED else Reading(DEV, at, temp, trace.hums[i])
            events.extend(engine.step(r, at))
            j = i + 1
        i = j
    return events


def cadence_state(engine):
    """What the engine keeps between ticks, but its anchor grid."""
    return (
        engine.mode, engine.last_seen, engine.last_local_log, engine._next_scheduled_log,
        engine._window, engine.consecutive_in_range,
    )


class TestFold:
    def test_takes_the_normal_grid_records_up_to_the_next_batch_anchor(self):
        # The first tick (t=30) records; the run takes the grid records at
        # 1230, 2430, ..., 6030, each over the readings since the last one,
        # and stops before the anchor at 7200.
        engine, _ = drive([IN_TEMP])
        temps = [IN_TEMP + k % 3 for k in range(300)]
        j, records = engine.fold(trace_of(temps), 1, math.inf)
        assert (j, engine.last_seen) == (239, 7170)
        recorded = [40 * k for k in range(6)]  # the grid ticks' indices
        assert records == [
            (30 * (b + 1), temps[b], 520, min(window), max(window), sum(window) // len(window))
            for a, b in zip(recorded, recorded[1:])
            for window in [temps[a + 1 : b + 1]]
        ]
        assert (engine.last_local_log, engine._next_scheduled_log) == (6030, 7230)

    def test_a_dropout_on_a_grid_tick_moves_its_record_to_the_next_reading(self):
        # The grid does not drift: the record after the late one is at 2430.
        engine, _ = drive([IN_TEMP])
        temps = [IN_TEMP] * 100
        temps[40] = None
        j, records = engine.fold(trace_of(temps), 1, math.inf)
        assert (j, [rec[0] for rec in records]) == (100, [1260, 2430])
        assert records[0][3:] == (IN_TEMP,) * 3
        assert engine._next_scheduled_log == 3630

    def test_a_breach_pending_run_records_in_its_mode_up_to_the_escalation_instant(self):
        # The episode starts at 1200 and escalates at 3600: the run takes
        # the grid records at 1230 and 2430 and stops before 3600.
        temps = [IN_TEMP] * 39 + [OUT_TEMP] * 161
        engine, _ = drive(temps[:40])
        j, records = engine.fold(trace_of(temps), 40, math.inf)
        assert (j, engine.last_seen, engine.mode) == (119, 3570, MonitorMode.BREACH_PENDING)
        assert [rec[0] for rec in records] == [1230, 2430]
        events = drive_folding(trace_of(temps))
        assert events == drive(temps)[1]
        modes = {e.at: e.payload["mode"] for e in by_kind(events, EventKind.LOCAL_LOG_WRITTEN)}
        assert (modes[1230], modes[2430], modes[3600]) == (
            MonitorMode.BREACH_PENDING, MonitorMode.BREACH_PENDING, MonitorMode.CRITICAL
        )

    @pytest.mark.parametrize("lead, critical_every", [(1, 1), (81, 1), (81, 7)])
    def test_one_fold_across_grid_points_leaves_the_state_of_stepping(self, lead, critical_every):
        # From a Normal tick, or from the escalation at 2430 with a record
        # every 30 s or every 210 s (landing on and past grid points), up
        # to the anchor at 7200.
        th = Thresholds(critical_log_period=30 * critical_every)
        temps = [IN_TEMP if lead == 1 else OUT_TEMP] * 300
        folded, _ = drive(temps[:lead], thresholds=th)
        j, records = folded.fold(trace_of(temps, thresholds=th), lead, math.inf)
        stepped, events = drive(temps[:j], thresholds=th)
        assert j == 239 and len(records) >= 4
        assert records == [
            e.payload["record"] for e in by_kind(events, EventKind.LOCAL_LOG_WRITTEN)
            if e.at > 30 * lead
        ]
        assert cadence_state(folded) == cadence_state(stepped)

    def test_stops_at_the_next_batch_anchor(self):
        th = Thresholds(normal_log_period=14400)
        engine = MonitorEngine(th, DEV, origin=0)
        engine.step(reading(30), 30)
        assert engine.fold(trace_of([IN_TEMP] * 300, thresholds=th), 1, math.inf) == (239, [])

    def test_stops_before_stop(self):
        engine, _ = drive([IN_TEMP])
        assert engine.fold(trace_of([IN_TEMP] * 100), 1, 600) == (19, [])
        assert engine.fold(trace_of([IN_TEMP] * 100), 19, 601) == (20, [])
        assert engine.last_seen == 600

    @pytest.mark.parametrize("temp, hum", [(OUT_TEMP, 520), (19, 520), (IN_TEMP, 651), (IN_TEMP, 399)])
    def test_stops_at_the_first_out_of_band_reading(self, temp, hum):
        engine, _ = drive([IN_TEMP])
        temps, hums = [IN_TEMP] * 30, [520] * 30
        temps[12], hums[12] = temp, hum
        assert engine.fold(trace_of(temps, hums), 1, math.inf) == (12, [])

    def test_takes_dropouts_and_boundary_readings(self):
        engine, _ = drive([IN_TEMP])
        temps = [IN_TEMP, None, 20, 60, None] + [IN_TEMP] * 35
        assert engine.fold(trace_of(temps, [520, 0, 400, 650, 0] + [520] * 35), 1, math.inf) == (40, [])

    @pytest.mark.parametrize("temp, hum", [(IN_TEMP, 520), (IN_TEMP + 1, 646), (24, 404)])
    def test_takes_episode_ticks_up_to_the_escalation_instant(self, temp, hum):
        # Escalation is due at 30 + 600 = 630, before the record at 1230. Out-of-band,
        # neutral and dropped ticks only break the streak that the tick at 60 began.
        th = Thresholds(breach_escalation=600)
        engine, _ = drive([OUT_TEMP, IN_TEMP], thresholds=th)
        assert (engine.mode, engine.consecutive_in_range) == (MonitorMode.BREACH_PENDING, 1)
        temps = [OUT_TEMP, IN_TEMP] + [OUT_TEMP, DEAD_ZONE_TEMP, None, IN_TEMP, IN_TEMP] * 20
        hums = [520] * 2 + [520, 520, 0, 651, 649] * 20
        assert engine.fold(trace_of(temps, hums, th), 2, math.inf) == (20, [])
        assert (engine.last_seen, engine.consecutive_in_range) == (600, 0)
        # The first reading strictly inside the hysteresis band on both quantities ends a fold.
        temps[12], hums[12] = temp, hum
        engine, _ = drive([OUT_TEMP, IN_TEMP], thresholds=th)
        assert engine.fold(trace_of(temps, hums, th), 2, math.inf) == (12, [])
        assert engine.consecutive_in_range == 0

    def test_dropouts_alone_keep_a_debounce_streak(self):
        engine, _ = drive([OUT_TEMP, IN_TEMP])
        assert engine.fold(trace_of([OUT_TEMP, IN_TEMP, None, None, IN_TEMP]), 2, math.inf) == (4, [])
        assert engine.consecutive_in_range == 1

    def test_takes_the_critical_tick_between_two_records(self):
        # 120 is taken without a record, 150 with one over both readings;
        # the reading at 180 is inside the hysteresis band and ends the run.
        th = Thresholds(breach_escalation=60, critical_log_period=60)
        temps = [OUT_TEMP, OUT_TEMP, OUT_TEMP, OUT_TEMP - 5, OUT_TEMP, IN_TEMP]
        engine, events = drive(temps[:3], thresholds=th)
        assert engine.mode is MonitorMode.CRITICAL
        assert by_kind(events, EventKind.LOCAL_LOG_WRITTEN)[-1].at == 90
        record = (150, OUT_TEMP, 520, OUT_TEMP - 5, OUT_TEMP, OUT_TEMP - 3)
        assert engine.fold(trace_of(temps, thresholds=th), 3, math.inf) == (5, [record])
        assert (engine.last_seen, engine.last_local_log) == (150, 150)

    def test_takes_critical_record_ticks_at_the_default_cadence(self):
        # Every reading records, a neutral one too; a dropout records
        # nothing. The run ends before the batch anchor at 7200.
        engine, _ = drive([OUT_TEMP] * 81)
        assert engine.mode is MonitorMode.CRITICAL
        temps = [OUT_TEMP] * 81 + [DEAD_ZONE_TEMP, None] + [OUT_TEMP] * 300
        j, records = engine.fold(trace_of(temps), 81, math.inf)
        assert (j, engine.last_seen) == (239, 7170)
        assert records[0] == (2460, DEAD_ZONE_TEMP, 520) + (DEAD_ZONE_TEMP,) * 3
        assert [rec[0] for rec in records[1:]] == list(range(2520, 7200, 30))
        assert set(records[1:]) == {(at, OUT_TEMP, 520) + (OUT_TEMP,) * 3 for at in range(2520, 7200, 30)}

    def test_a_critical_run_breaks_a_debounce_streak(self):
        # The reading at 2460 begins a streak and ends the run; the next run
        # takes the neutral reading at 2490, which breaks it.
        temps = [OUT_TEMP] * 81 + [IN_TEMP, DEAD_ZONE_TEMP, IN_TEMP, IN_TEMP]
        events = drive_folding(trace_of(temps))
        assert [e.at for e in by_kind(events, EventKind.BREACH_RESOLVED)] == [2550]

    def test_a_critical_run_stops_before_stop_and_at_a_reading_inside_the_band(self):
        engine, _ = drive([OUT_TEMP] * 81)
        trace = trace_of([OUT_TEMP] * 90 + [IN_TEMP] * 10)
        assert engine.fold(trace, 81, 2520)[0] == 83
        j, records = engine.fold(trace, 83, math.inf)
        assert (j, [rec[0] for rec in records]) == (90, list(range(2520, 2730, 30)))
        assert (engine.mode, engine.consecutive_in_range) == (MonitorMode.CRITICAL, 0)

    def test_a_step_before_the_last_folded_tick_is_out_of_order(self):
        engine, _ = drive([IN_TEMP])
        assert engine.fold(trace_of([IN_TEMP] * 30), 1, math.inf) == (30, [])
        with pytest.raises(OutOfOrderSample):
            engine.step(reading(870), 870)

    def test_the_window_spans_folded_and_stepped_ticks(self):
        # Negative temperatures: the average is floored like sum // count.
        th = Thresholds(temp_min_decic=-400, temp_max_decic=-100)
        temps = [-101] + [-250, None, -399, -100] * 10
        events = drive_folding(trace_of(temps, thresholds=th), th)
        at, _, _, low, high, avg = by_kind(events, EventKind.LOCAL_LOG_WRITTEN)[1].payload["record"]
        window = [t for t in temps[1:] if t is not None]
        assert at == 1230
        assert (low, high) == (-399, -100)
        assert avg == sum(window) // len(window) == -250

    def test_an_in_band_slice_holds_every_window_of_stepping(self):
        # One fold takes 200 ticks and five records, each window a slice.
        temps = [IN_TEMP + k % 7 - 3 for k in range(200)]
        engine = MonitorEngine(TH, DEV, origin=0)
        j, records = engine.fold(trace_of(temps), 0, math.inf)
        assert (j, [rec[0] for rec in records]) == (200, [30, 1230, 2430, 3630, 4830])
        stepped = [e.payload["record"] for e in by_kind(drive(temps)[1], EventKind.LOCAL_LOG_WRITTEN)]
        assert records == stepped
        assert cadence_state(engine) == cadence_state(drive(temps)[0])

    def test_a_dropout_in_a_band_that_holds_dropped_is_no_reading(self):
        # Neither band has a lower limit, so this one holds a dropped slot's
        # values (DROPPED, 0); the slot must still stay out of every window.
        th = Thresholds(temp_min_decic=-40000, hum_min_decip=0)
        temps = [IN_TEMP + k % 7 - 3 for k in range(200)]
        temps[77] = None
        events = drive_folding(trace_of(temps, thresholds=th), th)
        assert events == drive(temps, thresholds=th)[1]
        records = [e.payload["record"] for e in by_kind(events, EventKind.LOCAL_LOG_WRITTEN)]
        assert len(records) == 5 and min(rec[3] for rec in records) == IN_TEMP - 3


@st.composite
def stretches(draw):
    """Up to 600 ticks as (temperature or None, humidity edge, offset), in
    stretches that each cycle through a few temperatures from one range
    (any, above the band, below it) and humidities next to one edge: a
    long breach reaches Critical mode. A stretch may also hold only
    readings in the band [-40, 60] x [400, 650], which fold takes as
    slices in Normal mode."""
    ticks = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):  # in band: no dropout, offsets toward the inside
            temps = draw(st.lists(st.integers(-40, 60), min_size=1, max_size=8))
            edge = draw(st.sampled_from([0, 1, 4]))
            offsets = draw(st.lists(st.integers(0, 1).map(lambda off: -off if edge == 1 else off),
                                    min_size=1, max_size=3))
        else:
            low, high = draw(st.sampled_from([(-60, 120), (61, 120), (-60, -41)]))
            temps = draw(st.lists(st.one_of(st.none(), st.integers(low, high)), min_size=1, max_size=8))
            edge = draw(st.integers(0, 4))
            offsets = draw(st.lists(st.integers(-1, 1), min_size=1, max_size=3))
        ticks += [
            (temps[k % len(temps)], edge, offsets[k % len(offsets)])
            for k in range(draw(st.integers(1, 150)))
        ]
    return ticks[:600]


@settings(deadline=None)
@given(
    stretches(),
    st.integers(1, 50),
    st.integers(1, 300),
    st.integers(1, 5),
    st.integers(1, 3000),
    st.integers(0, 80),
    st.lists(st.integers(0, 18000), max_size=8),
)
def test_folding_gives_the_events_and_windows_of_stepping(
    ticks, log_every, anchor_every, critical_every, escalation, hysteresis, stops
):
    # Humidity on and next to the band's edges and the shrunk band's, or 520.
    edges = (400, 650, 400 + hysteresis, 650 - hysteresis, 520)
    temps = [temp for temp, _, _ in ticks]
    hums = [edges[edge] + off for _, edge, off in ticks]
    th = Thresholds(
        temp_min_decic=-40,
        hysteresis_decic=hysteresis,
        breach_escalation=escalation,
        normal_log_period=30 * log_every,
        critical_log_period=30 * critical_every,
        batch_anchor_period=30 * anchor_every,
    )
    trace = trace_of(temps, hums, thresholds=th)
    real, slices = engine_module._all_in_band, []

    def all_in_band(temps, hums, th):
        slices.append(len(temps) if real(temps, hums, th) else 0)
        return slices[-1] > 0

    with mock.patch.object(engine_module, "_all_in_band", all_in_band):
        events = drive_folding(trace, th, stops)
    if any(slices):
        hypothesis.event("fold took an in-band slice")
    if max(slices, default=0) * th.sample_period > 2 * th.normal_log_period:
        hypothesis.event("fold took an in-band slice across two record grid points")
    assert events == drive(temps, thresholds=th, hums=hums)[1]
    # A record's window is every reading after the previous record, up to its own.
    after = -math.inf
    for event in by_kind(events, EventKind.LOCAL_LOG_WRITTEN):
        recorded_at, _, _, low, high, avg = event.payload["record"]
        window = [
            temp
            for at, temp in zip(trace.ticks, trace.temps)
            if after < at <= recorded_at and temp != DROPPED
        ]
        assert (low, high, avg) == (min(window), max(window), sum(window) // len(window))
        after = recorded_at
