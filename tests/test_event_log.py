"""The events.log codec pair.

The run loop writes a SampleTaken line by filling one format string
(`runner._SAMPLE_LINE`) and `events_from_log` reads that layout back with
one regex, a block of lines at a time; `runner._record_line` writes every
LocalLogWritten line from a record's columns with a second format string,
and every other line goes through the json module. The fast paths must
give exactly what the json module gives: the same bytes on the way out,
the same events (or the same rejected line) on the way in.
"""

import contextlib
import dataclasses
import enum
import gc
import itertools
import json
import tracemalloc
from collections import Counter

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from coldwatch.engine import MonitorMode
from coldwatch.model import (
    HUM_MAX_DECIP,
    HUM_MIN_DECIP,
    TEMP_MAX_DECIC,
    TEMP_MIN_DECIC,
    EventKind,
    MonitorEvent,
    Reading,
    Shared,
)
from coldwatch import cli, model, runner
from coldwatch.energy import DutyPolicy, PowerProfile, energy_for_interval
from coldwatch.runner import _LINE_RE, event_to_json, events_from_log

KIND_NAMES = [kind.value for kind in EventKind]

# Device ids that need escaping turn up often: quotes, backslashes, control
# characters, DEL, non-ASCII text and lone surrogates.
DEVICE_IDS = st.text(
    st.one_of(
        st.sampled_from('"\\\x00\x1f\x7f\xe9\u2028\ud800\udfff'),
        st.characters(exclude_categories=()),
    ),
    min_size=1,
)
READINGS = st.builds(
    Reading,
    device_id=DEVICE_IDS,
    at=st.integers(),
    temp_decic=st.integers(TEMP_MIN_DECIC, TEMP_MAX_DECIC),
    hum_decip=st.integers(HUM_MIN_DECIP, HUM_MAX_DECIP),
)
SAMPLES = st.builds(
    lambda reading, at: MonitorEvent(EventKind.SAMPLE_TAKEN, at, {"reading": reading}),
    READINGS,
    st.integers(),
)
# A record, its reading and its event share one instant; the payload holds
# the record object of its events.log line.
RECORDS = st.builds(
    lambda reading, mode, low, high, avg: MonitorEvent(
        EventKind.LOCAL_LOG_WRITTEN,
        reading.at,
        {"record": {
            "at": reading.at,
            "mode": mode,
            "reading": reading,
            "window_avg_temp_decic": avg,
            "window_max_temp_decic": high,
            "window_min_temp_decic": low,
        }},
    ),
    READINGS,
    st.sampled_from(MonitorMode),
    st.integers(),
    st.integers(),
    st.integers(),
)
OTHER_EVENTS = st.builds(
    lambda kind, at, n: MonitorEvent(kind, at, {"row_count": n}),
    st.sampled_from([k for k in EventKind if k is not EventKind.SAMPLE_TAKEN]),
    st.integers(),
    st.integers(),
)

# 200 examples, or the profile's budget where that is larger (CI's 1000).
# No explain phase: on a broken reader it takes far longer, and far more
# memory, than finding and shrinking the failing example did.
FILE_EXAMPLES = settings(
    max_examples=max(200, settings().max_examples),
    deadline=None,
    phases=[p for p in Phase if p is not Phase.explain],
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class LineRejected(Exception):
    def __init__(self, line_no: int, events: list):
        super().__init__(line_no)
        self.line_no, self.events = line_no, events  # the events of the lines before


def reference_events(path):
    """events_from_log by the book: json.loads and the field checks on every line."""
    events = []
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            try:
                doc = json.loads(line)
            except ValueError:
                raise LineRejected(line_no, events) from None
            if not (
                isinstance(doc, dict)
                and doc.get("kind") in KIND_NAMES
                and type(doc.get("at")) is int
                and isinstance(doc.get("payload"), dict)
            ):
                raise LineRejected(line_no, events)
            events.append(MonitorEvent(EventKind(doc["kind"]), doc["at"], doc["payload"]))
    return events


def reference_default(value):
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def reference_line(event):
    """An events.log line by the book: the event's three fields through
    json.dumps, keys sorted, compact separators."""
    doc = {"at": event.at, "kind": event.kind, "payload": event.payload}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), default=reference_default)


def loop_line(event):
    """A SampleTaken line as the run loop writes it: the layout filled with
    the tick, the reading's columns and the device id as a JSON string."""
    r = event.payload["reading"]
    device_json = runner._json_string(r.device_id)
    return runner._SAMPLE_LINE % (event.at, r.at, device_json, r.hum_decip, r.temp_decic)


def record_line(event):
    """A LocalLogWritten line as the run writes it, from the record's
    columns and the device id as a JSON string; it ends in a newline."""
    rec = event.payload["record"]
    r = rec["reading"]
    return runner._record_line(
        rec["mode"].value, runner._json_string(r.device_id), r.at, r.temp_decic, r.hum_decip,
        rec["window_min_temp_decic"], rec["window_max_temp_decic"], rec["window_avg_temp_decic"],
    )


def written_line(event):
    """An events.log line as the run writes it, newline included."""
    if event.kind is EventKind.SAMPLE_TAKEN:
        return loop_line(event) + "\n"
    if "record" in event.payload:
        return record_line(event)
    return event_to_json(event) + "\n"


def assert_reads_like_reference(path):
    """The reader gives the reference's events, equal from either side, or
    rejects the reference's bad line. Each event is unhashable, and its
    payload is one dict: a change to it, or a new one assigned before the
    first read, stays."""
    try:
        expected = reference_events(path)
    except LineRejected as exc:
        with pytest.raises(ValueError, match=f": line {exc.line_no}: "):
            events_from_log(path)
        return
    got = events_from_log(path)
    assert got == expected and expected == got
    for event in got:
        with pytest.raises(TypeError):
            hash(event)
        payload = event.payload
        assert event.payload is payload
        payload["probe"] = event.at
        assert event.payload is payload and payload["probe"] is event.at
    for event in events_from_log(path):
        payload = {"probe": event.at}
        event.payload = payload
        assert event.payload is payload


@settings(max_examples=500, deadline=None)
@given(SAMPLES)
def test_sample_line_is_the_encoders_output(event):
    assert loop_line(event) == reference_line(event)


@settings(max_examples=500, deadline=None)
@given(RECORDS)
def test_record_line_is_the_encoders_output(event):
    assert record_line(event) == reference_line(event) + "\n"


@settings(max_examples=200, deadline=None)
@given(OTHER_EVENTS)
def test_other_lines_are_the_encoders_output(event):
    assert event_to_json(event) == reference_line(event)


@FILE_EXAMPLES
@given(st.lists(st.one_of(SAMPLES, RECORDS, OTHER_EVENTS), min_size=1, max_size=6))
def test_written_log_reads_back_like_json(tmp_path, events):
    path = tmp_path / "events.log"
    lines = [written_line(event) for event in events]
    path.write_text("".join(lines), encoding="utf-8")
    assert_reads_like_reference(path)
    assert [event_to_json(event) + "\n" for event in events_from_log(path)] == lines
    for event, line in zip(events, lines):
        if event.kind is EventKind.SAMPLE_TAKEN:
            # The reader's own layout covers every sample line without an escape.
            assert (_LINE_RE.fullmatch(line)[1] is None) == ("\\" in line)


# Near misses of the fixed layout: numbers JSON refuses or reads another way,
# raw device text, other kinds and line ends.
NUMBERS = st.one_of(
    st.integers().map(str),
    st.sampled_from(["-0", "01", "-01", "00", "1.0", "1e3", "١", "1٢", "true", '"7"']),
)
LINE_PARTS = st.tuples(
    NUMBERS,
    st.sampled_from(['"SampleTaken"', '"BatchAnchored"', '"Sample"', "null", "[1]"]),
    NUMBERS,
    st.text(st.characters(exclude_categories=("Cs",))),  # raw, unescaped
    NUMBERS,
    NUMBERS,
    st.sampled_from(["\n", "", " \n", "\r\n"]),
)


def near_miss_line(parts):
    at, kind, reading_at, device_id, hum, temp, end = parts
    return (
        '{"at":%s,"kind":%s,"payload":{"reading":{"at":%s,"device_id":"%s",'
        '"hum_decip":%s,"temp_decic":%s}}}%s' % (at, kind, reading_at, device_id, hum, temp, end)
    )


@FILE_EXAMPLES
@given(LINE_PARTS)
def test_any_line_reads_like_json(tmp_path, parts):
    first = event_to_json(MonitorEvent(EventKind.BATCH_ANCHORED, 0, {}))
    path = tmp_path / "events.log"
    path.write_text(first + "\n" + near_miss_line(parts), encoding="utf-8", newline="")
    assert_reads_like_reference(path)


@FILE_EXAMPLES
@given(
    st.lists(
        st.tuples(
            st.one_of(
                st.one_of(SAMPLES, RECORDS, OTHER_EVENTS).map(written_line),
                LINE_PARTS.map(near_miss_line),
            ),
            st.booleans(),  # \r\n line ends
        ),
        min_size=1,
        max_size=8,
    ),
    st.booleans(),
    st.integers(1, 200),
)
def test_lines_across_blocks_read_like_json(tmp_path, monkeypatch, lines, unterminated, block):
    """With blocks of 1 to 200 characters most lines cross a block's end:
    the reader still gives what the reference gives, and before a bad line
    it yields exactly the events of the lines before it."""
    text = "".join(line.replace("\n", "\r\n") if crlf else line for line, crlf in lines)
    if unterminated:  # the last line has no line end
        text = text.removesuffix("\n").removesuffix("\r")
    path = tmp_path / "events.log"
    path.write_text(text, encoding="utf-8", newline="")
    monkeypatch.setattr(runner, "_BLOCK_CHARS", block)
    assert_reads_like_reference(path)
    try:
        expected, bad = reference_events(path), None
    except LineRejected as exc:
        expected, bad = exc.events, exc.line_no
    read = []
    with pytest.raises(ValueError, match=f": line {bad}: ") if bad else contextlib.nullcontext():
        for event in runner.iter_events(path):
            read.append(event)
    assert read == expected


def sample_line(at="1735689630", device_id="fridge-1", end="\n"):
    return (
        '{"at":%s,"kind":"SampleTaken","payload":{"reading":{"at":1735689630,'
        '"device_id":"%s","hum_decip":550,"temp_decic":45}}}%s' % (at, device_id, end)
    )


@pytest.mark.parametrize(
    "line, expected",
    [
        (sample_line(device_id="kühl-冷蔵"), ("device_id", "kühl-冷蔵")),
        (sample_line(device_id="fridge\x7f1"), ("device_id", "fridge\x7f1")),
        (sample_line(at="-0"), ("at", 0)),
        (sample_line(at="01"), None),
        (sample_line(at="١٧٣"), None),
        (sample_line(at="1٧"), None),
        (sample_line(end=""), ("at", 1735689630)),
        (sample_line(end=" \n"), ("at", 1735689630)),
        (sample_line(end="x\n"), None),
        (sample_line(at="true"), None),
        ('{"at":1735689630,"kind":"SampleTaken","payload":[]}\n', None),
        (sample_line(at="1735689660"), ("at", 1735689660)),
        (sample_line(at="173568963"), ("at", 173568963)),
        (sample_line(device_id="fridge\\u00e91"), ("device_id", "fridge\xe91")),
    ],
    ids=["raw-non-ascii", "raw-del", "minus-zero", "leading-zero", "unicode-digits",
         "trailing-unicode-digit", "no-final-newline", "space-after-a-sample",
         "junk-after-a-sample", "bool-at", "payload-not-an-object", "reading-of-another-instant",
         "reading-instant-extends-the-events", "escaped-device-id"],
)
def test_hand_written_lines(tmp_path, line, expected):
    path = tmp_path / "events.log"
    path.write_text(sample_line() + line, encoding="utf-8", newline="")
    assert_reads_like_reference(path)
    if expected is None:
        with pytest.raises(ValueError, match=": line 2: "):
            events_from_log(path)
    else:
        field, value = expected
        event = events_from_log(path)[1]
        assert event.kind is EventKind.SAMPLE_TAKEN
        got = event.at if field == "at" else event.payload["reading"][field]
        assert got == value


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_reading_pauses_the_collector_and_restores_its_state(tmp_path, monkeypatch, enabled):
    good = tmp_path / "good.log"
    good.write_text(sample_line() + '{"at":1735689630,"kind":"BatchAnchored","payload":{}}\n')
    bad = tmp_path / "bad.log"
    bad.write_text(sample_line() + "[1]\n")
    # Out of time order, so energy sweeps it once as it is and then reads it
    # again to sort it; the bad line is past where the first sweep stops.
    late = '{"at":1735689660,"kind":"BatchAnchored","payload":{}}\n'
    unordered = tmp_path / "unordered.log"
    unordered.write_text(late + sample_line())
    unordered_bad = tmp_path / "unordered_bad.log"
    unordered_bad.write_text(late + sample_line() + "[1]\n")
    during = []
    parse = runner._event_from_json

    def watched(*args):
        during.append(gc.isenabled())
        return parse(*args)

    monkeypatch.setattr(runner, "_event_from_json", watched)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert len(events_from_log(good)) == 2
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError, match=": line 2: "):
            events_from_log(bad)
        assert gc.isenabled() is enabled
        assert energy_for_interval(cli._EventLog(unordered), PowerProfile(), DutyPolicy())
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError, match=": line 3: "):
            energy_for_interval(cli._EventLog(unordered_bad), PowerProfile(), DutyPolicy())
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    # The streamed sweep runs with the caller's state; every list build pauses it.
    assert during == [False, False, enabled, False, enabled, False, False]


def test_a_written_logs_samples_share_their_values(breach_run):
    """Across the sample events of a written log there is one device-id
    object, each reading's instant is its event's own object, and each
    temperature or humidity value is one object."""
    samples = [
        event for event in events_from_log(breach_run.out_dir / "events.log")
        if event.kind is EventKind.SAMPLE_TAKEN
    ]
    readings = [event.payload["reading"] for event in samples]
    assert len(readings) == 2880
    assert len({id(r["device_id"]) for r in readings}) == 1
    assert all(r["at"] is event.at for r, event in zip(readings, samples))
    for field in ("hum_decip", "temp_decic"):
        assert len({id(r[field]) for r in readings}) == len({r[field] for r in readings})


def test_each_reading_text_is_converted_once_into_one_shared_tuple(breach_run, monkeypatch):
    """Every sample event of one reading text (the line from ',"device_id":'
    on) holds the same (device id, humidity, temperature) tuple, and the
    reader converts each distinct text once."""
    misses = Counter()

    class Counted(Shared):
        def __missing__(self, key):
            misses[key] += 1
            return super().__missing__(key)

    monkeypatch.setattr(runner, "Shared", Counted)
    path = breach_run.out_dir / "events.log"
    events = events_from_log(path)
    tuples = {}
    for event, line in zip(events, path.read_text(encoding="utf-8").splitlines()):
        if event.kind is EventKind.SAMPLE_TAKEN:
            held = model._PAYLOAD.__get__(event)  # before payload builds the dict
            assert held is tuples.setdefault(line[line.index(',"device_id":') : -3], held)
            r = json.loads(line)["payload"]["reading"]
            assert held == (r["device_id"], r["hum_decip"], r["temp_decic"])
    assert 1 < len(tuples) < 2880
    assert {text: misses[text] for text in tuples} == dict.fromkeys(tuples, 1)


def test_a_read_back_log_holds_at_most_256_bytes_an_event(breach_run):
    """The list of a day's events, as tracemalloc counts what it holds:
    a sample event holds its instant and a reading tuple that events of
    the same reading share, and builds its payload dict on first use."""
    path = breach_run.out_dir / "events.log"
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        events = events_from_log(path)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert held <= 256 * len(events)


def test_the_shared_tables_are_bounded():
    table = Shared(int, 3)
    assert [table[text] for text in ("7", "-0", "7", "12", "13", "14")] == [7, 0, 7, 12, 13, 14]
    assert table == {"7": 7, "-0": 0, "12": 12}


def test_iter_events_yields_the_lines_before_a_bad_one(tmp_path):
    path = tmp_path / "events.log"
    path.write_text(sample_line() + sample_line() + "[1]\n" + sample_line(), encoding="utf-8")
    events = runner.iter_events(path)
    assert [event.at for event in itertools.islice(events, 2)] == [1735689630] * 2
    with pytest.raises(ValueError, match=": line 3: not a JSON object"):
        next(events)


@pytest.mark.parametrize(
    "line",
    [
        sample_line(device_id="fridge\udcff1"),
        sample_line(end="\udcff\n"),
        '{"at":1735689630,"kind":"BatchAnchored","payload":{"note":"\udcff"}}\n',
        sample_line(device_id="\udced\udcb3\udcbf"),  # a surrogate encoded as UTF-8
    ],
    ids=["in-a-device-id", "at-a-line-end", "in-a-json-line", "encoded-surrogate"],
)
def test_a_byte_that_is_not_utf8_names_its_line(tmp_path, line):
    """A byte that is not UTF-8 is named with its line, wherever it is."""
    path = tmp_path / "events.log"
    path.write_bytes((sample_line() + line + sample_line()).encode("utf-8", "surrogateescape"))
    with pytest.raises(ValueError, match=r": line 2: byte 0x(ff|ed) is not UTF-8$"):
        events_from_log(path)
