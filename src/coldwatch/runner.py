"""End-to-end simulation runs: wiring, artifact files, run manifest.

One run drives a single device's tick stream through the monitor engine
on the virtual clock, routes every ledger write through the durable
outbox, fans alerts out to the sinks, builds and anchors daily reports,
and leaves a deterministic artifact directory:

    trace.csv        sensor trace (also the replay input format)
    events.log       one JSON object per monitor event
    ledger.bin       append-only hash-chained ledger
    outbox.bin       durable outbox + current-day rows
    reports/<device>/<YYYY-MM-DD>.csv
    messenger.jsonl  captured remote notifications
    manifest.json    config snapshot and counters

At each UTC midnight inside the horizon the periodic batch anchor is
replaced by the daily report anchor, so a quiet day costs 11 batch
transactions plus 1 report anchor. Records accumulated since the last
batch anchor at that point are covered by the report digest instead.
Runs should start at a UTC midnight for that composition to hold (the
default start does).

A ProcessCrash fault drops all in-memory state at its start time and
recovers from the store: confirmed outbox marks stick, submitted items
downgrade to pending and replay idempotently, and the state machine
restarts in Normal mode (an episode in progress is re-detected as a
new episode).
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from .alerts import (
    AlertDispatcher,
    BuzzerSink,
    DeliveryRecord,
    DisplaySink,
    MessengerSink,
    render_alert,
)
from .clock import VirtualClock
from .engine import LocalRecord, MonitorEngine
from .ledger import (
    AlertPayload,
    GasSchedule,
    Ledger,
    LedgerKind,
    ResolutionPayload,
    build_batch_request,
)
from .model import (
    DAY_SECONDS,
    DEFAULT_START,
    EventKind,
    MonitorEvent,
    Reading,
    Thresholds,
    Timestamp,
    ts_to_date,
)
from .outbox import Outbox
from .reports import (
    DailyReport,
    ReportRow,
    anchor_request,
    build_report,
    encode_row,
    report_notice_text,
)
from .sensor import FaultKind, ScenarioSpec, generate_trace, replay_trace, write_trace

OWNER_KEY = "owner-key"


@dataclass
class RunConfig:
    out_dir: Path
    scenario: ScenarioSpec | None = None
    trace_path: Path | None = None  # replay input; overrides scenario generation
    horizon: int = DAY_SECONDS
    seed: int = 0
    start: Timestamp = DEFAULT_START
    device_id: str = "fridge-1"
    thresholds: Thresholds = field(default_factory=Thresholds)
    gas: GasSchedule = field(default_factory=GasSchedule)
    chat_id: str = "owner"
    owner_key: str = OWNER_KEY
    realtime_speed: float | None = None
    scenario_name: str = "normal"
    live_messenger: bool = False  # real Telegram sink from env credentials


@dataclass
class RunResult:
    out_dir: Path
    manifest: dict
    ledger: Ledger
    deliveries: list[DeliveryRecord]
    reports: list[DailyReport]
    messenger: MessengerSink


def _jsonable(value):
    if isinstance(value, Reading):
        return {
            "device_id": value.device_id,
            "at": value.at,
            "temp_decic": value.temp_decic,
            "hum_decip": value.hum_decip,
        }
    if isinstance(value, LocalRecord):
        return {
            "at": value.at,
            "reading": _jsonable(value.reading),
            "mode": value.mode.value,
            "window_min_temp_decic": value.window_min_temp_decic,
            "window_max_temp_decic": value.window_max_temp_decic,
            "window_avg_temp_decic": value.window_avg_temp_decic,
        }
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def event_to_json(event: MonitorEvent) -> str:
    doc = {"at": event.at, "kind": event.kind.value, "payload": _jsonable(event.payload)}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def events_from_log(path: Path) -> list[MonitorEvent]:
    events = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            doc = json.loads(line)
            events.append(
                MonitorEvent(kind=EventKind(doc["kind"]), at=doc["at"], payload=doc["payload"])
            )
    return events


class _Run:
    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.out = Path(cfg.out_dir)
        self.out.mkdir(parents=True, exist_ok=True)

        scenario = cfg.scenario
        if cfg.trace_path is not None:
            self.readings = replay_trace(cfg.trace_path)
            _check_replayed(self.readings, cfg.start, cfg.horizon, cfg.thresholds.sample_period)
            devices = {r.device_id for r in self.readings}
            if len(devices) > 1:
                raise ValueError(f"trace contains multiple devices: {sorted(devices)}")
            if self.readings:
                cfg.device_id = self.readings[0].device_id
            self.faults = ()
        else:
            assert scenario is not None
            self.readings = generate_trace(
                scenario, cfg.thresholds, cfg.horizon, start=cfg.start, device_id=cfg.device_id
            )
            self.faults = scenario.faults
        write_trace(self.readings, self.out / "trace.csv")
        self.by_tick = {r.at: r for r in self.readings}
        (self.out / "reports" / cfg.device_id).mkdir(parents=True, exist_ok=True)

        # Sinks first: a missing live-messenger credential fails before any
        # file handle is open.
        self.messenger = MessengerSink(seed=cfg.seed, chat_id=cfg.chat_id)
        self._sinks = [BuzzerSink(), DisplaySink(), self.messenger]
        if cfg.live_messenger:
            self._sinks.append(_live_messenger_from_env())
        self.ledger = Ledger(cfg.owner_key, path=self.out / "ledger.bin", gas=cfg.gas)
        self.ledger.set_fault_windows(
            [(f.start, f.end) for f in self.faults if f.kind is FaultKind.LEDGER_OUTAGE]
        )
        self.crash_times = sorted(
            f.start for f in self.faults if f.kind is FaultKind.PROCESS_CRASH
        )
        self.outbox = Outbox(self.out / "outbox.bin")
        self.engine = MonitorEngine(
            cfg.thresholds, cfg.device_id, origin=cfg.start, image_seed=cfg.seed
        )
        self.dispatcher = AlertDispatcher(list(self._sinks))
        self.deliveries: list[DeliveryRecord] = []
        self.reports: list[DailyReport] = []
        self.batch_pending: list[LocalRecord] = []
        self.counters = {
            "samples": 0,
            "local_records": 0,
            "batches": 0,
            "alerts": 0,
            "resolutions": 0,
            "reports": 0,
            "txs": 0,
            "messages": 0,
        }
        self.events_file = open(self.out / "events.log", "w", encoding="utf-8", newline="\n")

    # -- event plumbing ----------------------------------------------------

    def emit(self, event: MonitorEvent) -> None:
        self.events_file.write(event_to_json(event) + "\n")
        if event.kind is EventKind.SAMPLE_TAKEN:
            self.counters["samples"] += 1
        elif event.kind is EventKind.LOCAL_LOG_WRITTEN:
            self.counters["local_records"] += 1
        elif event.kind is EventKind.CRITICAL_ESCALATED:
            self.counters["alerts"] += 1
        elif event.kind is EventKind.BATCH_ANCHORED:
            self.counters["batches"] += 1

    def handle(self, event: MonitorEvent, now: Timestamp) -> bool:
        """Route one engine event; returns True if a ledger write was queued."""
        cfg = self.cfg
        queued = False
        if event.kind is EventKind.LOCAL_LOG_WRITTEN:
            record: LocalRecord = event.payload["record"]
            self.batch_pending.append(record)
            self.outbox.add_row(encode_row(_record_row(record)))
        elif event.kind is EventKind.CRITICAL_ESCALATED:
            reading: Reading = event.payload["reading"]
            self.outbox.add_row(
                encode_row(_event_row(reading, now, mode="Critical", event="ALERT"))
            )
            self.outbox.enqueue(
                LedgerKind.ALERT,
                cfg.device_id,
                now,
                AlertPayload(
                    episode_id=event.payload["episode_id"],
                    temp_decic=reading.temp_decic,
                    hum_decip=reading.hum_decip,
                ),
            )
            self.dispatcher.dispatch(render_alert(event), now)
            queued = True
        elif event.kind is EventKind.BREACH_RESOLVED:
            if event.payload["was_critical"]:
                reading = event.payload["reading"]
                self.counters["resolutions"] += 1
                self.outbox.add_row(
                    encode_row(_event_row(reading, now, mode="Normal", event="RESOLVED"))
                )
                self.outbox.enqueue(
                    LedgerKind.RESOLUTION,
                    cfg.device_id,
                    now,
                    ResolutionPayload(
                        episode_id=event.payload["episode_id"],
                        duration=event.payload["duration"],
                        temp_decic=reading.temp_decic,
                        hum_decip=reading.hum_decip,
                    ),
                )
                self.dispatcher.dispatch(render_alert(event), now)
                queued = True
        elif event.kind is EventKind.BATCH_ANCHORED:
            if now % DAY_SECONDS == 0:
                # Midnight: the daily report anchor replaces this batch; its
                # digest covers the pending records of the closing day.
                self.batch_pending = [r for r in self.batch_pending if r.at >= now]
            elif self.batch_pending:
                request = build_batch_request(
                    [r.reading for r in self.batch_pending],
                    seq=0,  # placeholder; outbox assigns
                    at=now,
                    batch_limit=self.ledger.batch_limit,
                )
                self.outbox.enqueue(LedgerKind.READING_BATCH, cfg.device_id, now, request.payload)
                self.batch_pending = []
                queued = True
        return queued

    def day_end(self, boundary: Timestamp, clock: VirtualClock) -> None:
        self._anchor_day_report(boundary - DAY_SECONDS, boundary, clock)
        self.outbox.compact(keep_rows_from=boundary)

    def _anchor_day_report(self, day: Timestamp, at: Timestamp, clock: VirtualClock) -> None:
        report = build_report(self.outbox, day, self.cfg.device_id)
        path = self.out / "reports" / self.cfg.device_id / f"{ts_to_date(day)}.csv"
        path.write_bytes(report.csv_bytes)
        self.reports.append(report)
        self.counters["reports"] += 1
        item = self.outbox.enqueue(
            LedgerKind.REPORT_ANCHOR,
            self.cfg.device_id,
            at,
            anchor_request(report, seq=0, at=at).payload,
        )
        self.emit(
            MonitorEvent(
                EventKind.DAILY_REPORT_ANCHORED,
                at,
                {
                    "day": ts_to_date(day),
                    "digest_sha256": report.digest_hex,
                    "row_count": report.row_count,
                    "seq": item.request.seq,
                },
            )
        )
        self.dispatcher.dispatch_notice(report_notice_text(report), at)
        self.drain(at, clock)

    def drain(self, now: Timestamp, clock: VirtualClock) -> None:
        result = self.outbox.drain(self.ledger, self.cfg.owner_key, now)
        if result.retry_at is not None and result.retry_at <= self.cfg.start + self.cfg.horizon:
            clock.schedule(result.retry_at, ("retry",))

    def crash_and_recover(self) -> None:
        self.outbox.close()
        self.outbox = Outbox(self.out / "outbox.bin")
        self.engine = MonitorEngine(
            self.cfg.thresholds, self.cfg.device_id, origin=self.cfg.start, image_seed=self.cfg.seed
        )
        # Already-dispatched deliveries survive (they left the process);
        # sends still queued for a down sink are lost with the process.
        self.deliveries.extend(self.dispatcher.deliveries)
        self.dispatcher = AlertDispatcher(list(self._sinks))
        self.batch_pending = []

    # -- main loop ----------------------------------------------------------

    def run(self) -> RunResult:
        try:
            return self._run()
        except BaseException:
            self.events_file.close()
            self.outbox.close()
            raise

    def _run(self) -> RunResult:
        cfg = self.cfg
        clock = VirtualClock(cfg.start)
        end = cfg.start + cfg.horizon
        for k in range(1, cfg.horizon // cfg.thresholds.sample_period + 1):
            clock.schedule(cfg.start + k * cfg.thresholds.sample_period, ("tick",))
        boundary = cfg.start - cfg.start % DAY_SECONDS + DAY_SECONDS
        while boundary <= end:
            clock.schedule(boundary, ("day-end", boundary))
            boundary += DAY_SECONDS

        last_wall = time.monotonic()
        last_sim = cfg.start
        for at, tag in clock.run(end):
            if cfg.realtime_speed:
                target = last_wall + (at - last_sim) / cfg.realtime_speed
                delay = target - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                last_wall, last_sim = time.monotonic(), at
            while self.crash_times and at >= self.crash_times[0]:
                self.crash_times.pop(0)
                self.crash_and_recover()
                self.drain(at, clock)
            if tag == ("tick",):
                events = self.engine.step(self.by_tick.get(at), at)
                queued = False
                for event in events:
                    self.emit(event)
                    queued = self.handle(event, at) or queued
                if queued:
                    self.drain(at, clock)
                self.dispatcher.flush(at)
            elif tag == ("retry",):
                self.drain(at, clock)
                self.dispatcher.flush(at)
            else:  # day-end
                self.day_end(tag[1], clock)

        # Trailing partial day, if it produced any rows.
        last_boundary = end - end % DAY_SECONDS
        if end % DAY_SECONDS != 0 and self.outbox.rows(last_boundary, end):
            self._anchor_day_report(last_boundary, end, clock)
        self.drain(end, clock)
        self.dispatcher.flush(end)

        self.deliveries.extend(self.dispatcher.deliveries)
        self.counters["txs"] = len(self.ledger.entries)
        self.counters["messages"] = self.messenger.write_capture(self.out / "messenger.jsonl")
        self.events_file.close()
        manifest = self._manifest()
        with open(self.out / "manifest.json", "w", encoding="utf-8", newline="\n") as f:
            json.dump(manifest, f, sort_keys=True, indent=2)
            f.write("\n")
        self.outbox.close()
        return RunResult(
            out_dir=self.out,
            manifest=manifest,
            ledger=self.ledger,
            deliveries=self.deliveries,
            reports=self.reports,
            messenger=self.messenger,
        )

    def _manifest(self) -> dict:
        cfg = self.cfg
        scenario: dict | None = None
        if cfg.scenario is not None:
            scenario = _jsonable(dataclasses.asdict(cfg.scenario))
            scenario["kind"] = cfg.scenario.kind.value
            scenario["faults"] = [
                {"kind": f.kind.value, "start": f.start, "end": f.end} for f in cfg.scenario.faults
            ]
        return {
            "device_id": cfg.device_id,
            "scenario_name": cfg.scenario_name,
            "scenario": scenario,
            "seed": cfg.seed,
            "start": cfg.start,
            "horizon": cfg.horizon,
            "thresholds": dataclasses.asdict(cfg.thresholds),
            "gas": {
                "fee_per_gas_usd": str(cfg.gas.fee_per_gas_usd),
                "units": {k.name.lower(): v for k, v in cfg.gas.gas.items()},
            },
            "artifacts": {
                "trace": "trace.csv",
                "events": "events.log",
                "ledger": "ledger.bin",
                "outbox": "outbox.bin",
                "reports": f"reports/{cfg.device_id}",
                "messenger": "messenger.jsonl",
            },
            "counters": self.counters,
        }


def _live_messenger_from_env():
    import os

    from .alerts import TelegramHTTPSink

    token = os.environ.get("MONITOR_BOT_TOKEN")
    chat = os.environ.get("MONITOR_CHAT_ID")
    if not token or not chat:
        raise ValueError(
            "live messenger needs MONITOR_BOT_TOKEN and MONITOR_CHAT_ID in the environment"
        )
    return TelegramHTTPSink(token=token, chat_id=chat)


def _check_replayed(
    readings: list[Reading], start: Timestamp, horizon: int, period: int
) -> None:
    """Every replayed row must fall on its own sample tick of the run; the
    first row that does not is an error, never a silent drop."""
    prev = None
    for r in readings:
        if not start < r.at <= start + horizon:
            raise ValueError(
                f"replayed row at {r.at} is outside the run ({start}, {start + horizon}]"
            )
        if (r.at - start) % period:
            raise ValueError(f"replayed row at {r.at} is off the {period} s sample grid")
        if r.at == prev:
            raise ValueError(f"replayed rows repeat timestamp {r.at}")
        prev = r.at


def _record_row(record: LocalRecord) -> ReportRow:
    return ReportRow(
        at=record.at,
        device_id=record.reading.device_id,
        temp_decic=record.reading.temp_decic,
        hum_decip=record.reading.hum_decip,
        mode=record.mode.value,
    )


def _event_row(reading: Reading, at: Timestamp, mode: str, event: str) -> ReportRow:
    return ReportRow(
        at=at,
        device_id=reading.device_id,
        temp_decic=reading.temp_decic,
        hum_decip=reading.hum_decip,
        mode=mode,
        event=event,
    )


def run_simulation(cfg: RunConfig) -> RunResult:
    return _Run(cfg).run()
