import dataclasses
import hashlib
import json
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from coldwatch import ledger, outbox, runner
from coldwatch.cli import main
from coldwatch.ledger import Ledger, LedgerKind, LedgerOutage, load_ledger_entries
from coldwatch.engine import MonitorEngine
from coldwatch.model import DAY_SECONDS, EventKind, Reading, Thresholds, iso_to_ts, ts_to_date
from coldwatch.outbox import ItemState, Outbox
from coldwatch.reports import Verdict, verify_report
from coldwatch.runner import DEFAULT_START, RunConfig, events_from_log, run_simulation
from coldwatch.storage import RecordFile
from coldwatch.sensor import (
    FaultKind,
    FaultSpec,
    NoiseModel,
    ScenarioKind,
    ScenarioSpec,
    SpikeWindow,
    breach_day,
    normal_day,
)

ARTIFACTS = ["trace.csv", "events.log", "ledger.bin", "messenger.jsonl", "manifest.json"]


def run(tmp_path, scenario, name="x", **kwargs):
    cfg = RunConfig(out_dir=tmp_path / name, scenario=scenario, **kwargs)
    return run_simulation(cfg)


def with_faults(scenario, *faults):
    return dataclasses.replace(scenario, faults=tuple(faults))


class TestQuietDay:
    def test_counters(self, quiet_run):
        c = quiet_run.manifest["counters"]
        assert c["samples"] == 2880
        assert c["local_records"] == 72
        assert c["txs"] == 12
        assert c["alerts"] == 0
        assert c["batches"] == 12
        assert c["reports"] == 1

    def test_ledger_composition(self, quiet_run):
        kinds = {}
        for e in quiet_run.ledger.entries:
            kinds[e.kind] = kinds.get(e.kind, 0) + 1
        assert kinds == {LedgerKind.READING_BATCH: 11, LedgerKind.REPORT_ANCHOR: 1}

    def test_batches_carry_six_window_records(self, quiet_run):
        # 7200 / 1200 = 6 records per two-hour anchor window; the final
        # window's records ride in the daily report instead.
        batches = [e for e in quiet_run.ledger.entries if e.kind is LedgerKind.READING_BATCH]
        assert [len(b.payload.readings) for b in batches] == [6] * 11

    def test_report_is_anchored_and_authentic(self, quiet_run):
        csv_path = quiet_run.out_dir / "reports" / "fridge-1" / "2025-01-01.csv"
        assert verify_report(csv_path.read_bytes(), quiet_run.ledger.entries) is Verdict.AUTHENTIC

    def test_all_artifacts_exist(self, quiet_run):
        for name in ARTIFACTS:
            assert (quiet_run.out_dir / name).exists(), name

    def test_manifest_counters_match_independent_recounts(self, quiet_run):
        out = quiet_run.out_dir
        c = quiet_run.manifest["counters"]
        trace_rows = out.joinpath("trace.csv").read_text().splitlines()[1:]
        assert len(trace_rows) == c["samples"]
        events = events_from_log(out / "events.log")
        assert sum(e.kind is EventKind.SAMPLE_TAKEN for e in events) == c["samples"]
        assert sum(e.kind is EventKind.LOCAL_LOG_WRITTEN for e in events) == c["local_records"]
        assert sum(e.kind is EventKind.CRITICAL_ESCALATED for e in events) == c["alerts"]
        assert len(load_ledger_entries(out / "ledger.bin")) == c["txs"]
        messenger = out.joinpath("messenger.jsonl").read_text().splitlines()
        assert len(messenger) == c["messages"]

    def test_anchored_digest_matches_the_report_file(self, quiet_run):
        events = events_from_log(quiet_run.out_dir / "events.log")
        anchored = [e for e in events if e.kind is EventKind.DAILY_REPORT_ANCHORED]
        assert len(anchored) == 1
        import hashlib

        csv_bytes = (quiet_run.out_dir / "reports" / "fridge-1" / "2025-01-01.csv").read_bytes()
        assert anchored[0].payload["digest_sha256"] == hashlib.sha256(csv_bytes).hexdigest()

    def test_daily_report_notice_reaches_the_messenger(self, quiet_run):
        lines = (quiet_run.out_dir / "messenger.jsonl").read_text().splitlines()
        docs = [json.loads(l) for l in lines]
        assert any(d["text"].startswith("REPORT|dev=fridge-1|day=2025-01-01|rows=72") for d in docs)


class TestBreachDay:
    def test_counters(self, breach_run):
        c = breach_run.manifest["counters"]
        assert c["alerts"] == 1
        assert c["resolutions"] == 1
        assert c["txs"] == 14  # 12 periodic + alert + resolution

    def test_alert_and_resolution_entries_on_ledger(self, breach_run):
        kinds = [e.kind for e in breach_run.ledger.entries]
        assert kinds.count(LedgerKind.ALERT) == 1
        assert kinds.count(LedgerKind.RESOLUTION) == 1
        alert = next(e for e in breach_run.ledger.entries if e.kind is LedgerKind.ALERT)
        assert alert.at == DEFAULT_START + 31200

    def test_one_delivery_per_sink_for_the_critical_alert(self, breach_run):
        critical = [
            d for d in breach_run.deliveries if d.message.severity.value == "CRITICAL"
        ]
        assert sorted(d.sink for d in critical) == ["buzzer", "display", "messenger"]
        messenger = [d for d in critical if d.sink == "messenger"]
        assert 2 <= messenger[0].delivered_at - messenger[0].dispatched_at <= 4

    def test_each_alert_line_names_the_sinks_it_was_delivered_to(self, breach_run):
        # The engine writes the dispatcher's sink names into every
        # AlertDispatched line. They must agree, in order.
        dispatched = [e for e in events_from_log(breach_run.out_dir / "events.log")
                      if e.kind is EventKind.ALERT_DISPATCHED]
        assert dispatched
        for event in dispatched:
            sinks = [d.sink for d in breach_run.deliveries
                     if d.message.severity.value == "CRITICAL" and d.dispatched_at == event.at]
            assert event.payload["sinks"] == sinks

    def test_alert_lines_follow_the_order_of_the_runs_sinks(self, tmp_path, monkeypatch):
        class Reversed(runner.AlertDispatcher):
            def __init__(self, sinks):
                super().__init__(sinks[::-1])

        monkeypatch.setattr(runner, "AlertDispatcher", Reversed)
        scenario = dataclasses.replace(breach_day(DEFAULT_START, seed=7), noise=NoiseModel(0, 0))
        result = run(tmp_path, scenario, seed=7)
        dispatched = [e for e in events_from_log(result.out_dir / "events.log")
                      if e.kind is EventKind.ALERT_DISPATCHED]
        assert dispatched
        for event in dispatched:
            assert event.payload["sinks"] == ["messenger", "display", "buzzer"]
            sinks = [d.sink for d in result.deliveries
                     if d.message.severity.value == "CRITICAL" and d.dispatched_at == event.at]
            assert sinks == event.payload["sinks"]


def test_each_request_is_packed_once_and_no_record_builds_a_reading(tmp_path, monkeypatch):
    """A day of twelve escalating excursions, a ledger outage and a crash
    inside it, so pending requests are retried, replayed and compacted.
    Each ledger request is packed once, at enqueue, and a Reading is built
    only for a stepped tick, not for each record."""
    day = DEFAULT_START
    spikes = tuple(
        SpikeWindow(day + k * 7200 + 600, day + k * 7200 + 4200, temp_delta_decic=45)
        for k in range(12)
    )
    scenario = ScenarioSpec(
        kind=ScenarioKind.BREACH_DAY, seed=1, spike_windows=spikes,
        faults=(FaultSpec(FaultKind.LEDGER_OUTAGE, day + 35_000, day + 44_000),
                FaultSpec(FaultKind.PROCESS_CRASH, day + 40_000, day + 40_030)),
    )
    calls = Counter()

    def counted(owner, name, key):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    # Every request is packed through pack_request, which the outbox imports by name.
    counted(ledger, "pack_request", "packs")
    counted(outbox, "pack_request", "packs")
    counted(outbox, "unpack_request", "replayed")
    counted(Reading, "__post_init__", "readings")
    enqueue, step, submit = outbox.Outbox.enqueue, MonitorEngine.step, Ledger.submit

    def enqueued(self, *args):
        packs = calls["packs"]
        item = enqueue(self, *args)
        calls["enqueues"] += 1
        calls["packs at enqueue"] += calls["packs"] - packs
        return item

    def stepped(self, reading, now):
        calls["stepped readings"] += reading is not None
        return step(self, reading, now)

    def submitted(self, *args, **kwargs):
        try:
            return submit(self, *args, **kwargs)
        except LedgerOutage:
            calls["outages"] += 1
            raise

    monkeypatch.setattr(outbox.Outbox, "enqueue", enqueued)
    monkeypatch.setattr(MonitorEngine, "step", stepped)
    monkeypatch.setattr(Ledger, "submit", submitted)
    result = run(tmp_path, scenario, seed=1)
    counts = dict(calls)
    assert counts["outages"] > 0 and counts["replayed"] > 0
    assert counts["packs"] == counts["packs at enqueue"] == counts["enqueues"]
    assert counts["enqueues"] == len(result.ledger.entries)
    records = result.manifest["counters"]["local_records"]
    assert counts["readings"] == counts["stepped readings"] < records
    assert result.ledger.verify_chain().ok


class TestDeterminism:
    def test_identical_seed_and_config_give_identical_bytes(self, tmp_path):
        a = run(tmp_path, normal_day(seed=3), name="a", seed=3)
        b = run(tmp_path, normal_day(seed=3), name="b", seed=3)
        for name in ARTIFACTS:
            assert (a.out_dir / name).read_bytes() == (b.out_dir / name).read_bytes(), name
        ra = a.out_dir / "reports" / "fridge-1" / "2025-01-01.csv"
        rb = b.out_dir / "reports" / "fridge-1" / "2025-01-01.csv"
        assert ra.read_bytes() == rb.read_bytes()

    def test_different_seed_changes_the_trace(self, tmp_path):
        a = run(tmp_path, normal_day(seed=3), name="a", seed=3)
        b = run(tmp_path, normal_day(seed=4), name="b", seed=4)
        assert (a.out_dir / "trace.csv").read_bytes() != (b.out_dir / "trace.csv").read_bytes()


class TestFaults:
    def test_ledger_outage_delays_but_delivers_everything(self, tmp_path):
        scenario = with_faults(
            normal_day(seed=1),
            FaultSpec(FaultKind.LEDGER_OUTAGE, DEFAULT_START + 7000, DEFAULT_START + 7800),
        )
        result = run(tmp_path, scenario, seed=1)
        assert result.manifest["counters"]["txs"] == 12
        assert result.ledger.verify_chain().ok
        seqs = [e.seq for e in result.ledger.entries if e.device_id == "fridge-1"]
        assert seqs == sorted(seqs)
        box = Outbox(result.out_dir / "outbox.bin")
        assert all(i.state is ItemState.CONFIRMED for i in box.items())
        box.close()

    def test_sensor_dropout_leaves_gaps_but_keeps_anchor_cadence(self, tmp_path):
        scenario = with_faults(
            normal_day(seed=2),
            FaultSpec(FaultKind.SENSOR_DROPOUT, DEFAULT_START + 3000, DEFAULT_START + 6000),
        )
        result = run(tmp_path, scenario, seed=2)
        c = result.manifest["counters"]
        assert c["samples"] == 2880 - 100
        assert c["batches"] == 12
        assert result.manifest["counters"]["txs"] == 12

    def test_process_crash_recovers_without_duplicates_or_losses(self, tmp_path):
        # Breach forced over [28800, 36000); escalation at 31200, crash at
        # the next tick. The restart loses the live episode, re-detects the
        # ongoing breach at 31230, and escalates again at 33630; resolution
        # follows the window end at 36030.
        from coldwatch.sensor import BreachWindow, ScenarioKind, ScenarioSpec

        scenario = ScenarioSpec(
            kind=ScenarioKind.BREACH_DAY,
            seed=5,
            noise=NoiseModel(0, 0),
            breach_window=BreachWindow(DEFAULT_START + 28800, DEFAULT_START + 36000),
            faults=(FaultSpec(FaultKind.PROCESS_CRASH, DEFAULT_START + 31230, DEFAULT_START + 31231),),
        )
        result = run(tmp_path, scenario, seed=5)
        assert result.ledger.verify_chain().ok
        keys = [(e.device_id, e.seq) for e in result.ledger.entries]
        assert len(keys) == len(set(keys))
        alerts = [e for e in result.ledger.entries if e.kind is LedgerKind.ALERT]
        assert [e.at - DEFAULT_START for e in alerts] == [31200, 33630]
        resolutions = [e for e in result.ledger.entries if e.kind is LedgerKind.RESOLUTION]
        assert [e.at - DEFAULT_START for e in resolutions] == [36030]
        box = Outbox(result.out_dir / "outbox.bin")
        assert all(i.state is ItemState.CONFIRMED for i in box.items())
        box.close()


class TestHorizonEdges:
    def test_zero_duration_run_is_empty(self, tmp_path):
        result = run(tmp_path, normal_day(seed=0), horizon=0)
        c = result.manifest["counters"]
        assert all(v == 0 for v in c.values())
        assert (result.out_dir / "trace.csv").read_text().splitlines() == [
            "timestamp,device_id,temp_decic,hum_decip"
        ]
        assert (result.out_dir / "events.log").read_text() == ""

    def test_trailing_partial_day_is_reported_and_anchored(self, tmp_path):
        result = run(tmp_path, normal_day(seed=6), horizon=DAY_SECONDS + 7200)
        assert result.manifest["counters"]["reports"] == 2
        day = ts_to_date(DEFAULT_START + DAY_SECONDS)
        partial = (result.out_dir / "reports" / "fridge-1" / f"{day}.csv").read_bytes()
        assert len(partial.splitlines()) == 1 + 6  # header and 2 h of 20-minute records
        # The file's first row names the day; its anchor must match.
        assert verify_report(partial, result.ledger.entries) is Verdict.AUTHENTIC

    def test_writes_pending_at_the_horizon_drain_after_it(self, tmp_path):
        # The outage outlasts the 2 h run: the 2 h batch and the partial
        # day's report anchor go out at their retry times once it ends.
        scenario = with_faults(
            normal_day(seed=6),
            FaultSpec(FaultKind.LEDGER_OUTAGE, DEFAULT_START + 6600, DEFAULT_START + 10800),
        )
        result = run(tmp_path, scenario, horizon=7200)
        assert result.manifest["counters"]["txs"] == 2
        box = Outbox(result.out_dir / "outbox.bin")
        assert all(i.state is ItemState.CONFIRMED for i in box.items())
        box.close()
        report = (result.out_dir / "reports" / "fridge-1" / "2025-01-01.csv").read_bytes()
        entries = load_ledger_entries(result.out_dir / "ledger.bin")
        assert verify_report(report, entries) is Verdict.AUTHENTIC

    def test_thirty_six_hour_run_keeps_anchor_grid(self, tmp_path):
        result = run(tmp_path, normal_day(seed=6), name="h36", horizon=DAY_SECONDS + DAY_SECONDS // 2)
        events = events_from_log(result.out_dir / "events.log")
        anchors = [e.at - DEFAULT_START for e in events if e.kind is EventKind.BATCH_ANCHORED]
        assert anchors == [7200 * k for k in range(1, 19)]


def _hot_day_trace(tmp_path) -> Path:
    """The seed-0 day's trace with every temperature at 9.0 C: the run
    turns Critical and records its last tick, a midnight."""
    source = run(tmp_path, normal_day(seed=0), name="src")
    header, *rows = (source.out_dir / "trace.csv").read_text().splitlines()
    hot = [f"{at},{device},90,{hum}" for at, device, _, hum in (row.split(",") for row in rows)]
    path = tmp_path / "hot.csv"
    path.write_text("\n".join([header, *hot]) + "\n")
    return path


@pytest.mark.parametrize("case", ["30 s", "a day and 30 s", "a hot day"])
def test_every_record_is_a_row_of_a_verified_day_report(tmp_path, case):
    # The run samples its last tick, at start + horizon, and that tick's
    # record lands in the report of its own day, also when it is a midnight.
    if case == "a hot day":
        cfg = RunConfig(out_dir=tmp_path / "x", trace_path=_hot_day_trace(tmp_path))
    else:
        horizon = 30 if case == "30 s" else DAY_SECONDS + 30
        cfg = RunConfig(out_dir=tmp_path / "x", scenario=normal_day(seed=0), horizon=horizon)
    out = run_simulation(cfg).out_dir
    records = [
        e.at for e in events_from_log(out / "events.log") if e.kind is EventKind.LOCAL_LOG_WRITTEN
    ]
    entries = load_ledger_entries(out / "ledger.bin")
    rows = []
    for report in sorted((out / "reports" / "fridge-1").glob("*.csv")):
        assert verify_report(report.read_bytes(), entries) is Verdict.AUTHENTIC
        lines = report.read_text().splitlines()[1:]
        rows += [iso_to_ts(line.split(",")[0]) for line in lines if line.endswith(",")]
    assert records[-1] == cfg.start + cfg.horizon
    assert rows == records


def test_compaction_keeps_store_bounded(tmp_path):
    result = run(tmp_path, normal_day(seed=8), horizon=2 * DAY_SECONDS, seed=8)
    assert result.manifest["counters"]["reports"] == 2
    box = Outbox(result.out_dir / "outbox.bin")
    # After the day-2 report anchor, only that anchor enqueue survives as
    # confirmed state was compacted away; no rows from finished days remain.
    assert box.rows(0, DEFAULT_START + 2 * DAY_SECONDS) == []
    box.close()


def test_a_dropout_over_the_first_and_the_last_tick_samples_neither(tmp_path):
    end = DEFAULT_START + DAY_SECONDS
    scenario = with_faults(
        normal_day(seed=6),
        FaultSpec(FaultKind.SENSOR_DROPOUT, DEFAULT_START, DEFAULT_START + 60),
        FaultSpec(FaultKind.SENSOR_DROPOUT, end, end + 30),
    )
    result = run(tmp_path, scenario, seed=6)
    rows = (result.out_dir / "trace.csv").read_text().splitlines()[1:]
    sampled = [
        e.payload["reading"]["at"]
        for e in events_from_log(result.out_dir / "events.log")
        if e.kind is EventKind.SAMPLE_TAKEN
    ]
    assert result.manifest["counters"]["samples"] == len(rows) == 2878
    assert [int(row.split(",")[0]) for row in rows] == sampled
    assert (sampled[0], sampled[-1]) == (DEFAULT_START + 60, end - 30)


def test_replay_takes_the_device_id_from_the_trace(tmp_path):
    original = run(tmp_path, normal_day(seed=2), name="src", seed=2, device_id="cooler-9")
    replayed = run_simulation(
        RunConfig(
            out_dir=tmp_path / "replayed",
            trace_path=original.out_dir / "trace.csv",
            seed=2,
            scenario_name="replay",
        )
    )
    assert replayed.manifest["device_id"] == "cooler-9"
    assert (replayed.out_dir / "reports" / "cooler-9" / "2025-01-01.csv").exists()


def test_replay_leaves_the_callers_config_alone(tmp_path):
    original = run(tmp_path, normal_day(seed=2), name="src", seed=2, device_id="cooler-9")
    cfg = RunConfig(out_dir=tmp_path / "replayed", trace_path=original.out_dir / "trace.csv")
    assert run_simulation(cfg).manifest["device_id"] == "cooler-9"
    assert cfg.device_id == "fridge-1"


def test_replay_reproduces_the_generated_run(tmp_path):
    original = run(tmp_path, normal_day(seed=11), name="gen", seed=11)
    replay_cfg = RunConfig(
        out_dir=tmp_path / "replay",
        scenario=None,
        trace_path=original.out_dir / "trace.csv",
        seed=11,
        scenario_name="replay",
    )
    replayed = run_simulation(replay_cfg)
    for name in ("trace.csv", "events.log", "ledger.bin", "messenger.jsonl"):
        assert (original.out_dir / name).read_bytes() == (replayed.out_dir / name).read_bytes()


def test_a_run_that_raises_closes_its_files(tmp_path, monkeypatch):
    runs = []

    def crash(self, boundary, clock):
        runs.append(self)
        raise RuntimeError("disk full")

    monkeypatch.setattr(runner._Run, "day_end", crash)
    with pytest.raises(RuntimeError, match="disk full"):
        run(tmp_path, normal_day(seed=1))
    [failed] = runs
    assert failed.events_file.closed
    assert failed.outbox._file._f.closed
    assert failed.ledger._file.closed


def test_a_run_opens_its_ledger_file_for_writing_once(tmp_path, monkeypatch):
    """The ledger writes its header and every entry through one handle,
    flushed at each submit and closed with the run; afterwards each entry
    still reads its payload from the file."""
    opened = []

    def recorded(file, mode="r", *args, **kwargs):
        handle = open(file, mode, *args, **kwargs)
        opened.append((Path(file).name, mode, handle))
        return handle

    monkeypatch.setattr(ledger, "open", recorded, raising=False)
    result = run(tmp_path, breach_day(DEFAULT_START, seed=7), seed=7)
    writes = [mode for name, mode, _ in opened if name == "ledger.bin" and mode != "rb"]
    assert writes == ["wb"]
    assert all(handle.closed for _, _, handle in opened)
    decoded = load_ledger_entries(result.out_dir / "ledger.bin")
    assert len(decoded) == len(result.ledger.entries) > 12
    assert [e.payload for e in result.ledger.entries] == [e.payload for e in decoded]


# -- quiet stretches ---------------------------------------------------------


def count_steps(monkeypatch) -> Counter:
    """Counts MonitorEngine.step calls by the mode each one starts in."""
    steps = Counter()
    step = MonitorEngine.step

    def counted(engine, reading, now):
        steps[engine.mode.value] += 1
        return step(engine, reading, now)

    monkeypatch.setattr(MonitorEngine, "step", counted)
    return steps


def test_a_breach_day_steps_only_ticks_that_emit_more_than_a_sample(tmp_path, monkeypatch):
    # Normal: the 12 anchors (the breach starts on the 08:00 one).
    # BreachPending: the escalation. Critical: the two readings of the
    # resolving streak. fold takes every tick whose only event is its
    # record, in any mode.
    steps = count_steps(monkeypatch)
    assert main(["simulate", "--scenario", "breach", "--duration", "24h", "--seed", "7",
                 "--out", str(tmp_path / "breach")]) == 0
    assert steps == {"Normal": 12, "BreachPending": 1, "Critical": 2}


def test_a_breach_day_writes_its_critical_run_of_rows_at_once(tmp_path, monkeypatch):
    # Every write to the outbox file goes through RecordFile.extend and is
    # flushed. One write each: 14 ledger requests, their 28 marks, the rows
    # of the alert and of the resolution, the records of the escalation tick,
    # of the first resolving tick and of the resolving tick (a grid point),
    # and the lone grid record between the resolution and the next anchor.
    # A folded stretch's records go out in one write: the 79 of the Critical
    # run after the escalation tick, BreachPending's 2 and the 6 of each of
    # the other 11 anchor-to-anchor Normal stretches.
    writes = Counter()
    extend = RecordFile.extend
    names = {1: "enqueue", 2: "mark", 3: "row"}

    def counted_extend(self, payloads):
        writes[names[payloads[0][0]], len(payloads)] += 1
        extend(self, payloads)

    monkeypatch.setattr(RecordFile, "extend", counted_extend)
    assert main(["simulate", "--scenario", "breach", "--duration", "24h", "--seed", "7",
                 "--out", str(tmp_path / "breach")]) == 0
    assert writes == {
        ("enqueue", 1): 14, ("mark", 1): 28,
        ("row", 1): 6, ("row", 2): 1, ("row", 6): 11, ("row", 79): 1,
    }


@st.composite
def short_runs(draw):
    """The config of a run of at most a day off the default cadences, with
    spikes, dropouts, ledger outages and process crashes."""
    period = draw(st.sampled_from([15, 30, 60]))
    thresholds = Thresholds(
        sample_period=period,
        normal_log_period=period * draw(st.integers(1, 60)),
        critical_log_period=period * draw(st.integers(1, 4)),
        batch_anchor_period=period * draw(st.integers(1, 300)),
        breach_escalation=draw(st.sampled_from([60, 600, 2400])),
    )
    horizon = min(DAY_SECONDS, period * draw(st.integers(1, 1440)) + draw(st.integers(0, period)))
    # Most runs cross a UTC midnight: its day-end can fall inside a stretch.
    start = DEFAULT_START + DAY_SECONDS - draw(st.integers(0, horizon))
    end = start + horizon

    def window():
        a = draw(st.integers(start, end - 1))
        return a, draw(st.integers(a + 1, end))

    spikes = [
        SpikeWindow(*window(), draw(st.integers(-80, 80)), draw(st.integers(-200, 200)))
        for _ in range(draw(st.integers(0, 4)))
    ]
    kinds = st.sampled_from(list(FaultKind))
    faults = [FaultSpec(draw(kinds), *window()) for _ in range(draw(st.integers(0, 4)))]
    scenario = ScenarioSpec(
        ScenarioKind.BREACH_DAY,
        seed=draw(st.integers(0, 9)),
        spike_windows=tuple(spikes),
        faults=tuple(sorted(faults, key=lambda f: f.start)),
    )
    cfg = dict(scenario=scenario, horizon=horizon, start=start, seed=scenario.seed,
               thresholds=thresholds)
    return cfg


def _outcome(cfg: RunConfig):
    """The sha256 of every file a run writes, its manifest and its deliveries."""
    result = run_simulation(cfg)
    out = result.out_dir
    digests = {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }
    return digests, result.manifest, result.deliveries


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(short_runs())
def test_folding_quiet_stretches_changes_no_byte(cfg):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        folded = _outcome(RunConfig(out_dir=Path(tmp) / "folded", **cfg))
        # The reference steps every tick: its fold never takes one, nor
        # any record.
        mp.setattr(MonitorEngine, "fold", lambda self, trace, i, stop: (i, []))
        assert folded == _outcome(RunConfig(out_dir=Path(tmp) / "stepped", **cfg))
