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

The run loop alone writes SampleTaken lines, one write per stretch of
ticks, formatted with one `%` over the sample layout repeated once per
reading, with the device's JSON text in the layout. Ticks for which the
engine would emit no event but at most their record, in any mode, are
taken a stretch at a time (MonitorEngine.fold); any other tick is a
stretch of one, stepped after its line. A stretch ends at the next clock
event's instant, included, before the next crash. Every record, taken or
stepped, goes through one writer (_Run._store_records): it packs each
record's reading for the next batch, builds no Reading for it, and
appends the report rows in one outbox write, and its lines are arguments
of that `%`, each after its tick's sample line. So each row is durable
before any crash point or drain. A batch's payload is those packed
readings behind their count; the outbox packs each ledger request once,
and the ledger hashes and stores those bytes (see ledger).

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
import json
import re
from collections import Counter
from dataclasses import dataclass, field, is_dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Iterator

from .alerts import (
    AlertDispatcher,
    BuzzerSink,
    DeliveryRecord,
    DisplaySink,
    MessengerSink,
    render_alert,
)
from .clock import VirtualClock
from .engine import MonitorEngine, MonitorMode
from .ledger import (
    BATCH_LIMIT,
    READING,
    AlertPayload,
    GasSchedule,
    Ledger,
    LedgerKind,
    ReportAnchorPayload,
    ResolutionPayload,
    batch_payload,
)
from .model import (
    DAY_SECONDS,
    DEFAULT_START,
    TEMP_MAX_DECIC,
    TEMP_MIN_DECIC,
    EventKind,
    MonitorEvent,
    Reading,
    SampleEvent,
    Shared,
    Thresholds,
    Timestamp,
    collector_paused,
    csv_field,
    date_to_ts,
    day_start,
    ts_to_date,
)
from .outbox import Outbox
from .reports import build_report, encode_row, encode_rows, report_notice_text
from .sensor import (
    DROPPED,
    FaultKind,
    ScenarioSpec,
    generate_trace,
    kept,
    replay_trace,
    sample_ticks,
    write_trace,
)

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
    scenario_name: str = "normal"


@dataclass
class RunResult:
    out_dir: Path
    manifest: dict
    ledger: Ledger
    deliveries: list[DeliveryRecord]


def _json_default(value):
    """Enums as their value, dataclasses (readings, specs) as their
    fields."""
    if isinstance(value, enum.Enum):
        return value.value
    if is_dataclass(value):
        return vars(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


_EVENT_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_json_default)

# SampleTaken is nearly every events.log line, so it skips the json hook in
# both directions: the run loop fills this layout from the trace columns.
# It is the encoder's own output for the event: keys sorted, compact
# separators; only device_id can need escaping. The reader's pattern is
# derived from the same layout.
_SAMPLE_LINE = (
    '{"at":%d,"kind":"SampleTaken","payload":{"reading":'
    '{"at":%d,"device_id":%s,"hum_decip":%d,"temp_decic":%d}}}'
)
# A LocalLogWritten line (one per record) is written the same way, by
# _record_line alone; the mode values are plain names. It is read back
# through json.loads like any other line.
_RECORD_LINE = (
    '{"at":%d,"kind":"LocalLogWritten","payload":{"record":{"at":%d,"mode":"%s","reading":'
    '{"at":%d,"device_id":%s,"hum_decip":%d,"temp_decic":%d},"window_avg_temp_decic":%d,'
    '"window_max_temp_decic":%d,"window_min_temp_decic":%d}}}\n'
)
_INT = r"-?(?:0|[1-9][0-9]*)"  # a JSON integer; \d would take any Unicode digit
_STR = r'"[^"\\\x00-\x1f\udc80-\udcff]*"'  # no escapes, no byte that is not UTF-8
# One match per line, a sample line as iter_events says or any other line whole
# (from any line start, so findall skips no character). A sample ends at its
# line's end, so a sample with trailing junk is one line, not two.
_LINE_RE = re.compile(re.escape(_SAMPLE_LINE).replace("%d", "%s") % (
    f"({_INT})", rf"(?:\1|({_INT}))(", _STR, _INT, _INT + ")") + r"(?:\n|\Z)|(.*\n|.+)")
_BLOCK_CHARS = 1 << 14  # text per findall, extended to a line end; tests shrink it


@functools.lru_cache(maxsize=64)
def _json_string(text: str) -> str:
    return _EVENT_ENCODER.encode(text)


def _record_line(mode: str, device_json: str, at: Timestamp, temp: int, hum: int,
                 low: int, high: int, avg: int) -> str:
    """The events.log line of a record of the reading at `at` with its
    window's min, max and floor average."""
    return _RECORD_LINE % (at, at, mode, at, device_json, hum, temp, avg, high, low)


def event_to_json(event: MonitorEvent) -> str:
    doc = {"at": event.at, "kind": event.kind.value, "payload": event.payload}
    return _EVENT_ENCODER.encode(doc)  # as _json_default would give it, one hook call fewer


def events_from_log(path: Path) -> list[MonitorEvent]:
    """Every event of an events.log, as iter_events reads it, built with
    the collector paused (about a quarter of a 14-day read otherwise)."""
    return collector_paused(list, iter_events(path))


def iter_events(path: Path, name: Path | None = None) -> Iterator[MonitorEvent]:
    """Every event of an events.log, in file order, matched a block of whole
    lines at a time with one findall; ValueError names the first bad line
    after `name` (the path by default), also one with a byte not UTF-8.

    A SampleTaken line without an escape is matched as its instant, its
    reading's instant where that is not the event's own, and its reading's
    text from ',"device_id":' on. Its SampleEvent holds the reading tuple
    (device id, humidity, temperature) of that text, converted once and
    shared, with one str per device id and one int per number text. Every
    other line is read through json.loads."""
    # Two tables, so an id "0" stays text; every humidity is in the temperature envelope too.
    devices, numbers = Shared(str, 64), Shared(int, TEMP_MAX_DECIC - TEMP_MIN_DECIC + 1)

    def reading(text):  # ,"device_id":"<id>","hum_decip":<hum>,"temp_decic":<temp>
        _, _, _, device_id, _, _, hum, _, temp = text.split('"')
        return devices[device_id], numbers[hum[1:-1]], numbers[temp[1:]]

    readings = Shared(reading, 1 << 12)  # a 90-day normal run has 451
    sample, lines, line_no, name = EventKind.SAMPLE_TAKEN, _LINE_RE.findall, 0, name or path
    # A byte that is not UTF-8 reads as a lone surrogate, for _event_from_json to name.
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        while block := f.read(_BLOCK_CHARS):
            if block[-1] != "\n":
                block += f.readline()
            for at_text, reading_at, text, line in lines(block):
                line_no += 1
                if line:
                    yield _event_from_json(line, name, line_no)
                    continue
                event = SampleEvent(sample, int(at_text), readings[text])
                if reading_at:  # not the event's own instant
                    event.payload["reading"]["at"] = int(reading_at)
                yield event


_KINDS = frozenset(kind.value for kind in EventKind)
_ESCAPED_BYTE = re.compile(r"[\udc80-\udcff]")


def _event_from_json(line: str, path: Path, line_no: int) -> MonitorEvent:
    escaped = None if line.isascii() else _ESCAPED_BYTE.search(line)  # a written line is ASCII
    if escaped:
        byte = ord(escaped[0]) - 0xDC00
        raise ValueError(f"{path}: line {line_no}: byte 0x{byte:02x} is not UTF-8")
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
        if not (_FIRST_DATED <= cfg.start and cfg.start + cfg.horizon <= _END_DATED):
            raise ValueError(
                f"a run from {cfg.start} for {cfg.horizon} s leaves the UTC years 1 to 9999 "
                "(--start or [run] start, --duration)"
            )
        self.messenger = MessengerSink(seed=cfg.seed, chat_id=cfg.chat_id)
        # Deliveries leave the process at once, so a crash drops none of them.
        self.dispatcher = AlertDispatcher([BuzzerSink(), DisplaySink(), self.messenger])
        # The trace, and with it a replay's device id, comes before the
        # output directory: a bad row or device id leaves nothing behind.
        if cfg.trace_path is not None:
            ticks = sample_ticks(cfg.start, cfg.horizon, cfg.thresholds.sample_period)
            self.trace = replay_trace(cfg.trace_path, ticks)
            if self.trace.device_id is not None:
                cfg = dataclasses.replace(cfg, device_id=self.trace.device_id)
            self.faults = ()
        else:
            assert cfg.scenario is not None
            self.trace = generate_trace(
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
        if len(cfg.device_id.encode("utf-8")) > 255:  # the longest file name most systems allow
            raise ValueError("device id is too long for a directory name: at most 255 UTF-8 bytes")
        self.cfg = cfg
        self.out = Path(cfg.out_dir)
        if self.out.is_dir() and any(self.out.iterdir()):
            # Files of an earlier run would be reopened or left behind.
            raise FileExistsError(f"output directory {self.out} is not empty")
        self.out.mkdir(parents=True, exist_ok=True)
        write_trace(self.trace, self.out / "trace.csv")
        (self.out / "reports" / cfg.device_id).mkdir(parents=True, exist_ok=True)
        self.ledger = Ledger(OWNER_KEY, path=self.out / "ledger.bin")
        self.ledger.set_fault_windows(
            [(f.start, f.end) for f in self.faults if f.kind is FaultKind.LEDGER_OUTAGE]
        )
        self.crash_times = sorted(f.start for f in self.faults if f.kind is FaultKind.PROCESS_CRASH)
        self.event_counts: Counter[EventKind] = Counter()
        self._start_process()
        self.events_file = open(self.out / "events.log", "w", encoding="utf-8", newline="\n")

    def _start_process(self) -> None:
        """The in-memory state of the monitoring process, rebuilt from the
        store: at start-up and again after a crash."""
        cfg = self.cfg
        self.outbox = Outbox(self.out / "outbox.bin")
        sinks = tuple(sink.name for sink in self.dispatcher.sinks)
        self.engine = MonitorEngine(
            cfg.thresholds, cfg.device_id, origin=cfg.start, image_seed=cfg.seed, sinks=sinks
        )
        self.batch_pending: list[bytes] = []  # each record's reading, packed for its batch

    # -- event plumbing ----------------------------------------------------

    def emit(self, event: MonitorEvent, now: Timestamp) -> bool:
        """Log, count and route one event; returns True if a ledger write
        was queued."""
        payload = event.payload
        if event.kind is EventKind.LOCAL_LOG_WRITTEN:
            lines = self._store_records(payload["mode"], [payload["record"]])
            self.events_file.writelines(lines.values())
            return False
        self.event_counts[event.kind] += 1
        self.events_file.write(event_to_json(event) + "\n")
        if event.kind is EventKind.CRITICAL_ESCALATED or (
            event.kind is EventKind.BREACH_RESOLVED and payload["was_critical"]
        ):
            reading: Reading = payload["reading"]
            episode, temp, hum = payload["episode_id"], reading.temp_decic, reading.hum_decip
            if event.kind is EventKind.CRITICAL_ESCALATED:
                kind, mode = LedgerKind.ALERT, MonitorMode.CRITICAL
                body = AlertPayload(episode, temp, hum)
            else:
                kind, mode = LedgerKind.RESOLUTION, MonitorMode.NORMAL
                body = ResolutionPayload(episode, payload["duration"], temp, hum)
            self.outbox.add_row(encode_row(now, reading.device_id, temp, hum, mode, kind))
            self.outbox.enqueue(kind, self.cfg.device_id, now, body)
            self.dispatcher.dispatch(render_alert(event), now)
            return True
        elif event.kind is EventKind.BATCH_ANCHORED:
            if now % DAY_SECONDS == 0:
                # Midnight: the daily report anchor replaces this batch; its
                # digest covers the pending records of the closing day.
                unpack = READING.head.unpack
                self.batch_pending = [r for r in self.batch_pending if unpack(r)[0] >= now]
            elif self.batch_pending:
                # More than BATCH_LIMIT records go out as consecutive batches.
                for k in range(0, len(self.batch_pending), BATCH_LIMIT):
                    payload = batch_payload(self.batch_pending[k : k + BATCH_LIMIT])
                    self.outbox.enqueue(LedgerKind.READING_BATCH, self.cfg.device_id, now, payload)
                self.batch_pending = []
                return True
        return False

    def _store_records(self, mode: MonitorMode, records: list[tuple]) -> dict[Timestamp, str]:
        """Count the records taken in `mode`, each (at, temp, hum, window
        min, max, floor average), queue their readings, packed, for the next
        batch and append their report rows in one outbox write; return their
        events.log lines by instant."""
        device, pack = self.cfg.device_id, READING.head.pack
        self.event_counts[EventKind.LOCAL_LOG_WRITTEN] += len(records)
        self.batch_pending.extend([pack(at, temp, hum) for at, temp, hum, _, _, _ in records])
        self.outbox.add_rows(encode_rows(device, mode, records))
        device_json = _json_string(device)
        return {record[0]: _record_line(mode.value, device_json, *record) for record in records}

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

    # -- main loop ----------------------------------------------------------

    def _recover(self, at: Timestamp, clock: VirtualClock) -> None:
        """Each crash due by `at`, ahead of a stretch or clock event, drops
        the process and recovers it from the store."""
        while self.crash_times and at >= self.crash_times[0]:
            self.crash_times.pop(0)
            self.outbox.close()
            self._start_process()
            self.drain(at, clock)

    def _clock_events(self, clock: VirtualClock, until: Timestamp) -> None:
        for at, tag in clock.run(until):
            self._recover(at, clock)
            if tag == "retry":
                self.drain(at, clock)
            else:  # day-end
                self.day_end(at, clock)

    def run(self) -> RunResult:
        try:
            return self._run()
        finally:
            self.events_file.close()
            self.outbox.close()
            self.ledger.close()

    def _run(self) -> RunResult:
        cfg = self.cfg
        clock = VirtualClock(cfg.start)
        end = cfg.start + cfg.horizon
        boundary = day_start(cfg.start) + DAY_SECONDS
        while boundary <= end:
            clock.schedule(boundary, "day-end")
            boundary += DAY_SECONDS

        crash_times = self.crash_times
        trace, device = self.trace, cfg.device_id
        ticks, temps, hums = trace.ticks, trace.temps, trace.hums
        # The device's text is part of the layout, with any `%` doubled.
        sample_line = _SAMPLE_LINE.replace("%s", _json_string(device).replace("%", "%%")) + "\n%s"
        # Sample ticks merged with the clock's day-ends and retries: clock
        # events due before a tick run first, so at an instant they share
        # the tick fires first, then the clock events in scheduling order.
        i = 0
        while i < len(ticks):
            at = ticks[i]
            if clock.next_at < at:
                self._clock_events(clock, at - 1)
            self._recover(at, clock)
            stop = min([clock.next_at + 1, *crash_times[:1]])
            j, records = self.engine.fold(trace, i, stop)
            k = max(j, i + 1)  # a tick that fold does not take is stepped alone
            recorded = self._store_records(self.engine.mode, records) if records else {}
            # The stretch's lines in one `%`: each reading's sample line, then
            # its record's line or "".
            s_ticks, s_temps, s_hums = kept(trace, i, k)
            args = zip(s_ticks, s_ticks, s_hums, s_temps, map(recorded.get, s_ticks, repeat("")))
            self.event_counts[EventKind.SAMPLE_TAKEN] += len(s_ticks)
            self.events_file.write((sample_line * len(s_ticks)) % tuple(chain.from_iterable(args)))
            if j == i:
                temp = temps[i]
                reading = None if temp == DROPPED else Reading(device, at, temp, hums[i])
                queued = False
                for event in self.engine.step(reading, at):
                    queued = self.emit(event, at) or queued
                if queued:
                    self.drain(at, clock)
            i = k
        self._clock_events(clock, end)

        # The day of the last tick, if it holds rows: a partial day, or only
        # the tick at `end` when that is a midnight.
        last_boundary = day_start(end)
        if self.outbox.rows(last_boundary, end + 1):
            self._anchor_day_report(last_boundary, end, clock)
        # Ledger writes still pending at the horizon go out at their retry
        # times; fault windows are finite, so the outbox empties.
        retry_at: Timestamp | None = end
        while retry_at is not None:
            retry_at = self.outbox.drain(self.ledger, OWNER_KEY, retry_at).retry_at

        messages = self.messenger.write_capture(self.out / "messenger.jsonl")
        manifest = self._manifest(messages)
        with open(self.out / "manifest.json", "w", encoding="utf-8", newline="\n") as f:
            json.dump(manifest, f, sort_keys=True, indent=2, default=_json_default)
            f.write("\n")
        return RunResult(
            out_dir=self.out,
            manifest=manifest,
            ledger=self.ledger,
            deliveries=self.dispatcher.deliveries,
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


def run_simulation(cfg: RunConfig) -> RunResult:
    return _Run(cfg).run()
