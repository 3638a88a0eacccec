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
import enum
import functools
import gc
import json
import math
import os
import re
import time
from collections import Counter
from dataclasses import dataclass, field, is_dataclass
from pathlib import Path

from .alerts import (
    AlertDispatcher,
    BuzzerSink,
    DeliveryRecord,
    DisplaySink,
    MessengerSink,
    TelegramHTTPSink,
    render_alert,
)
from .clock import VirtualClock
from .engine import LocalRecord, MonitorEngine
from .ledger import (
    BATCH_LIMIT,
    AlertPayload,
    GasSchedule,
    Ledger,
    LedgerKind,
    ReadingBatchPayload,
    ReportAnchorPayload,
    ResolutionPayload,
)
from .model import (
    DAY_SECONDS,
    DEFAULT_START,
    EventKind,
    MonitorEvent,
    Reading,
    Thresholds,
    Timestamp,
    csv_field,
    date_to_ts,
    day_start,
    ts_to_date,
)
from .outbox import Outbox
from .reports import ReportRow, build_report, encode_row, report_notice_text
from .sensor import FaultKind, ScenarioSpec, generate_trace, replay_trace, sample_ticks, write_trace

OWNER_KEY = "owner-key"
# Every date a run writes (report names and rows, alert texts) is of an
# instant in [start, end), and dates exist for the UTC years 1 to 9999.
_FIRST_DATED = date_to_ts("0001-01-01")
_END_DATED = date_to_ts("9999-12-31") + DAY_SECONDS


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
    realtime_speed: float | None = None
    scenario_name: str = "normal"
    live_messenger: bool = False  # real Telegram sink from env credentials


@dataclass
class RunResult:
    out_dir: Path
    manifest: dict
    ledger: Ledger
    deliveries: list[DeliveryRecord]


def _json_default(value):
    """Enums as their value, dataclasses (readings, records, specs) as their
    fields."""
    if isinstance(value, enum.Enum):
        return value.value
    if is_dataclass(value):
        return vars(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


_EVENT_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_json_default)

# SampleTaken is nearly every events.log line, so it skips the json hook in
# both directions. This is the encoder's own output for it: keys sorted,
# compact separators; only device_id can need escaping. The reader's pattern
# is derived from the same layout.
_SAMPLE_LINE = (
    '{"at":%d,"kind":"SampleTaken","payload":{"reading":'
    '{"at":%d,"device_id":%s,"hum_decip":%d,"temp_decic":%d}}}'
)
# A LocalLogWritten line (one per critical-mode sample) whose payload is
# exactly {"record": LocalRecord} is written the same way; the mode values
# are plain names. It is read back through json.loads like any other line.
_RECORD_LINE = (
    '{"at":%d,"kind":"LocalLogWritten","payload":{"record":{"at":%d,"mode":"%s","reading":'
    '{"at":%d,"device_id":%s,"hum_decip":%d,"temp_decic":%d},"window_avg_temp_decic":%d,'
    '"window_max_temp_decic":%d,"window_min_temp_decic":%d}}}'
)
_INT = r"(-?(?:0|[1-9][0-9]*))"  # a JSON integer; \d would take any Unicode digit
_STR = r'"([^"\\\x00-\x1f]*)"'  # a JSON string without escapes
_SAMPLE_LINE_RE = re.compile(
    re.escape(_SAMPLE_LINE).replace("%d", _INT).replace("%s", _STR) + r"\n?"
)


@functools.lru_cache(maxsize=64)
def _json_string(text: str) -> str:
    return _EVENT_ENCODER.encode(text)


def event_to_json(event: MonitorEvent) -> str:
    kind, payload = event.kind, event.payload
    if kind is EventKind.SAMPLE_TAKEN:
        r = payload["reading"]
        return _SAMPLE_LINE % (event.at, r.at, _json_string(r.device_id), r.hum_decip, r.temp_decic)
    if kind is EventKind.LOCAL_LOG_WRITTEN and len(payload) == 1:
        rec = payload.get("record")
        if type(rec) is LocalRecord:
            r = rec.reading
            return _RECORD_LINE % (
                event.at, rec.at, rec.mode.value,
                r.at, _json_string(r.device_id), r.hum_decip, r.temp_decic,
                rec.window_avg_temp_decic, rec.window_max_temp_decic, rec.window_min_temp_decic,
            )
    doc = {"at": event.at, "kind": kind.value, "payload": payload}
    return _EVENT_ENCODER.encode(doc)  # as _json_default would give it, one hook call fewer


def events_from_log(path: Path) -> list[MonitorEvent]:
    """Every event of an events.log; ValueError names the first bad line.

    The list is built with the cyclic garbage collector paused: its events
    hold no reference cycles, so each collection during the build would
    only rescan the growing list (about a quarter of a 14-day read). The
    caller's collector state is restored, also when a line is bad."""
    enabled = gc.isenabled()
    gc.disable()
    events = []
    sample, match = EventKind.SAMPLE_TAKEN, _SAMPLE_LINE_RE.fullmatch
    try:
        with open(path, encoding="utf-8") as f:
            for line_no, line in enumerate(f, start=1):
                m = match(line)
                if m is None:
                    events.append(_event_from_json(line, path, line_no))
                    continue
                at, reading_at, device_id, hum, temp = m.groups()
                reading = {
                    "at": int(reading_at),
                    "device_id": device_id,
                    "hum_decip": int(hum),
                    "temp_decic": int(temp),
                }
                events.append(MonitorEvent(sample, int(at), {"reading": reading}))
    finally:
        if enabled:
            gc.enable()
    return events


_KINDS = frozenset(kind.value for kind in EventKind)


def _event_from_json(line: str, path: Path, line_no: int) -> MonitorEvent:
    try:
        doc = json.loads(line)
    except ValueError as exc:
        raise ValueError(f"{path}: line {line_no}: {exc}") from None
    if not isinstance(doc, dict):
        problem = "not a JSON object"
    elif "kind" not in doc:
        problem = "no 'kind'"
    elif not isinstance(doc["kind"], str) or doc["kind"] not in _KINDS:
        problem = f"unknown event kind {doc['kind']!r}"
    elif type(doc.get("at")) is not int:  # rejects bool, an int subclass
        problem = f"'at' must be an integer, got {doc.get('at')!r}"
    elif not isinstance(doc.get("payload"), dict):
        problem = "'payload' must be a JSON object"
    else:
        return MonitorEvent(kind=EventKind(doc["kind"]), at=doc["at"], payload=doc["payload"])
    raise ValueError(f"{path}: line {line_no}: {problem}")


class _Run:
    def __init__(self, cfg: RunConfig):
        speed = cfg.realtime_speed
        if speed is not None and not 0 < speed < math.inf:  # nan fails both
            raise ValueError(f"realtime speed-up must be a finite number > 0, got {speed}")
        if not (_FIRST_DATED <= cfg.start and cfg.start + cfg.horizon <= _END_DATED):
            raise ValueError(
                f"a run from {cfg.start} for {cfg.horizon} s leaves the UTC years 1 to 9999 "
                "(--start or [run] start, --duration)"
            )
        # Sinks first: a missing live-messenger credential or extra fails
        # before the run writes anything.
        self.messenger = MessengerSink(seed=cfg.seed, chat_id=cfg.chat_id)
        self._sinks = [BuzzerSink(), DisplaySink(), self.messenger]
        if cfg.live_messenger:
            self._sinks.append(_live_messenger_from_env())
        # The trace, and with it a replay's device id, comes before the
        # output directory: a bad row or device id leaves nothing behind.
        self.ticks = sample_ticks(cfg.start, cfg.horizon, cfg.thresholds.sample_period)
        if cfg.trace_path is not None:
            self.readings = replay_trace(cfg.trace_path, self.ticks)
            if self.readings:
                cfg = dataclasses.replace(cfg, device_id=self.readings[0].device_id)
            self.faults = ()
        else:
            assert cfg.scenario is not None
            self.readings = generate_trace(
                cfg.scenario, cfg.thresholds, cfg.horizon, start=cfg.start, device_id=cfg.device_id
            )
            self.faults = cfg.scenario.faults
        if cfg.device_id in ("", ".", "..") or "/" in cfg.device_id or "\0" in cfg.device_id:
            # It names the report directory, so it must stay one path component.
            raise ValueError(
                f"device id {cfg.device_id!r} is not a directory name: "
                "it may not be empty, '.' or '..', or hold '/' or NUL"
            )
        csv_field(cfg.device_id)  # refuses an id that no UTF-8 artifact can hold
        self.cfg = cfg
        self.out = Path(cfg.out_dir)
        if self.out.is_dir() and any(self.out.iterdir()):
            # Files of an earlier run would be reopened or left behind.
            raise FileExistsError(f"output directory {self.out} is not empty")
        self.out.mkdir(parents=True, exist_ok=True)
        write_trace(self.readings, self.out / "trace.csv")
        (self.out / "reports" / cfg.device_id).mkdir(parents=True, exist_ok=True)
        self.ledger = Ledger(OWNER_KEY, path=self.out / "ledger.bin")
        self.ledger.set_fault_windows(
            [(f.start, f.end) for f in self.faults if f.kind is FaultKind.LEDGER_OUTAGE]
        )
        self.crash_times = sorted(
            f.start for f in self.faults if f.kind is FaultKind.PROCESS_CRASH
        )
        self.deliveries: list[DeliveryRecord] = []
        self.event_counts: Counter[EventKind] = Counter()
        self._start_process()
        self.events_file = open(self.out / "events.log", "w", encoding="utf-8", newline="\n")

    def _start_process(self) -> None:
        """The in-memory state of the monitoring process, rebuilt from the
        store: at start-up and again after a crash."""
        cfg = self.cfg
        self.outbox = Outbox(self.out / "outbox.bin")
        self.engine = MonitorEngine(
            cfg.thresholds, cfg.device_id, origin=cfg.start, image_seed=cfg.seed
        )
        self.dispatcher = AlertDispatcher(list(self._sinks))
        self.batch_pending: list[LocalRecord] = []

    # -- event plumbing ----------------------------------------------------

    def emit(self, event: MonitorEvent, now: Timestamp) -> bool:
        """Log, count and route one event; returns True if a ledger write
        was queued."""
        self.events_file.write(event_to_json(event) + "\n")
        self.event_counts[event.kind] += 1
        if event.kind is EventKind.SAMPLE_TAKEN:
            return False
        payload = event.payload
        if event.kind is EventKind.LOCAL_LOG_WRITTEN:
            record: LocalRecord = payload["record"]
            self.batch_pending.append(record)
            self.outbox.add_row(encode_row(_row(record.reading, record.at, record.mode.value)))
        elif event.kind is EventKind.CRITICAL_ESCALATED or (
            event.kind is EventKind.BREACH_RESOLVED and payload["was_critical"]
        ):
            reading: Reading = payload["reading"]
            episode, temp, hum = payload["episode_id"], reading.temp_decic, reading.hum_decip
            if event.kind is EventKind.CRITICAL_ESCALATED:
                kind, mode, label = LedgerKind.ALERT, "Critical", "ALERT"
                body = AlertPayload(episode, temp, hum)
            else:
                kind, mode, label = LedgerKind.RESOLUTION, "Normal", "RESOLVED"
                body = ResolutionPayload(episode, payload["duration"], temp, hum)
            self.outbox.add_row(encode_row(_row(reading, now, mode, label)))
            self.outbox.enqueue(kind, self.cfg.device_id, now, body)
            self.dispatcher.dispatch(render_alert(event), now)
            return True
        elif event.kind is EventKind.BATCH_ANCHORED:
            if now % DAY_SECONDS == 0:
                # Midnight: the daily report anchor replaces this batch; its
                # digest covers the pending records of the closing day.
                self.batch_pending = [r for r in self.batch_pending if r.at >= now]
            elif self.batch_pending:
                # More than BATCH_LIMIT records go out as consecutive batches.
                for k in range(0, len(self.batch_pending), BATCH_LIMIT):
                    chunk = self.batch_pending[k : k + BATCH_LIMIT]
                    payload = ReadingBatchPayload(tuple(r.reading for r in chunk))
                    self.outbox.enqueue(LedgerKind.READING_BATCH, self.cfg.device_id, now, payload)
                self.batch_pending = []
                return True
        return False

    def day_end(self, boundary: Timestamp, clock: VirtualClock) -> None:
        self._anchor_day_report(boundary - DAY_SECONDS, boundary, clock)
        self.outbox.compact(keep_rows_from=boundary)

    def _anchor_day_report(self, day: Timestamp, at: Timestamp, clock: VirtualClock) -> None:
        report = build_report(self.outbox, day, self.cfg.device_id)
        path = self.out / "reports" / self.cfg.device_id / f"{ts_to_date(day)}.csv"
        path.write_bytes(report.csv_bytes)
        item = self.outbox.enqueue(
            LedgerKind.REPORT_ANCHOR,
            self.cfg.device_id,
            at,
            ReportAnchorPayload(day, report.digest, report.row_count),
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
            ),
            at,
        )
        self.dispatcher.dispatch_notice(report_notice_text(report), at)
        self.drain(at, clock)

    def drain(self, now: Timestamp, clock: VirtualClock) -> None:
        result = self.outbox.drain(self.ledger, OWNER_KEY, now)
        if result.retry_at is not None and result.retry_at <= self.cfg.start + self.cfg.horizon:
            clock.schedule(result.retry_at, "retry")

    def crash_and_recover(self) -> None:
        self.outbox.close()
        # Already-dispatched deliveries survive (they left the process);
        # sends still queued for a down sink are lost with the process.
        self.deliveries.extend(self.dispatcher.deliveries)
        self._start_process()

    # -- main loop ----------------------------------------------------------

    def _pace_and_recover(self, at: Timestamp, clock: VirtualClock) -> None:
        """Pacing and crash handling, ahead of each tick and clock event."""
        speed = self.cfg.realtime_speed
        if speed is not None:
            delay = self._wall + (at - self._sim) / speed - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            self._wall, self._sim = time.monotonic(), at
        while self.crash_times and at >= self.crash_times[0]:
            self.crash_times.pop(0)
            self.crash_and_recover()
            self.drain(at, clock)

    def _clock_events(self, clock: VirtualClock, until: Timestamp) -> None:
        for at, tag in clock.run(until):
            self._pace_and_recover(at, clock)
            if tag == "retry":
                self.drain(at, clock)
                self.dispatcher.flush(at)
            else:  # day-end
                self.day_end(at, clock)

    def run(self) -> RunResult:
        try:
            return self._run()
        finally:
            self.events_file.close()
            self.outbox.close()

    def _run(self) -> RunResult:
        cfg = self.cfg
        clock = VirtualClock(cfg.start)
        end = cfg.start + cfg.horizon
        boundary = day_start(cfg.start) + DAY_SECONDS
        while boundary <= end:
            clock.schedule(boundary, "day-end")
            boundary += DAY_SECONDS

        self._wall, self._sim = time.monotonic(), cfg.start
        paced, crash_times = cfg.realtime_speed is not None, self.crash_times
        readings, i = self.readings, 0
        # Sample ticks merged with the clock's day-ends and retries: clock
        # events due before a tick run first, so at an instant they share
        # the tick fires first, then the clock events in scheduling order.
        for at in self.ticks:
            if clock.peek(at - 1) is not None:
                self._clock_events(clock, at - 1)
            if paced or crash_times and at >= crash_times[0]:
                self._pace_and_recover(at, clock)
            reading = None
            if i < len(readings) and readings[i].at == at:
                reading = readings[i]
                i += 1
            queued = False
            for event in self.engine.step(reading, at):
                queued = self.emit(event, at) or queued
            if queued:
                self.drain(at, clock)
            if self.dispatcher.queued:
                self.dispatcher.flush(at)
        self._clock_events(clock, end)

        # Trailing partial day, if it produced any rows.
        last_boundary = day_start(end)
        if end % DAY_SECONDS != 0 and self.outbox.rows(last_boundary, end):
            self._anchor_day_report(last_boundary, end, clock)
        # Ledger writes still pending at the horizon go out at their retry
        # times; fault windows are finite, so the outbox empties.
        retry_at: Timestamp | None = end
        while retry_at is not None:
            retry_at = self.outbox.drain(self.ledger, OWNER_KEY, retry_at).retry_at
        self.dispatcher.flush(end)

        self.deliveries.extend(self.dispatcher.deliveries)
        messages = self.messenger.write_capture(self.out / "messenger.jsonl")
        manifest = self._manifest(messages)
        with open(self.out / "manifest.json", "w", encoding="utf-8", newline="\n") as f:
            json.dump(manifest, f, sort_keys=True, indent=2, default=_json_default)
            f.write("\n")
        return RunResult(
            out_dir=self.out,
            manifest=manifest,
            ledger=self.ledger,
            deliveries=self.deliveries,
        )

    def _manifest(self, messages: int) -> dict:
        cfg = self.cfg
        counts = self.event_counts
        return {
            "device_id": cfg.device_id,
            "scenario_name": cfg.scenario_name,
            "scenario": cfg.scenario,
            "seed": cfg.seed,
            "start": cfg.start,
            "horizon": cfg.horizon,
            "thresholds": cfg.thresholds,
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
            "counters": {
                "samples": counts[EventKind.SAMPLE_TAKEN],
                "local_records": counts[EventKind.LOCAL_LOG_WRITTEN],
                "batches": counts[EventKind.BATCH_ANCHORED],
                "alerts": counts[EventKind.CRITICAL_ESCALATED],
                "resolutions": sum(e.kind is LedgerKind.RESOLUTION for e in self.ledger.entries),
                "reports": counts[EventKind.DAILY_REPORT_ANCHORED],
                "txs": len(self.ledger.entries),
                "messages": messages,
            },
        }


def _live_messenger_from_env() -> TelegramHTTPSink:
    try:
        import requests  # noqa: F401  (the sink posts through it)
    except ImportError as exc:
        raise ValueError(
            "live messenger needs the 'messenger' extra: pip install 'coldwatch[messenger]'"
        ) from exc
    token = os.environ.get("MONITOR_BOT_TOKEN")
    chat = os.environ.get("MONITOR_CHAT_ID")
    if not token or not chat:
        raise ValueError(
            "live messenger needs MONITOR_BOT_TOKEN and MONITOR_CHAT_ID in the environment"
        )
    return TelegramHTTPSink(token=token, chat_id=chat)


def _row(reading: Reading, at: Timestamp, mode: str, event: str = "") -> ReportRow:
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
