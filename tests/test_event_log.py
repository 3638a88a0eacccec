"""The events.log codec pair.

`event_to_json` writes a SampleTaken event with one format string and
`events_from_log` reads that layout back with one regex; a LocalLogWritten
event holding one record is written with a second format string, and every
other line goes through the json module. The fast paths must give exactly
what the json module gives: the same bytes on the way out, the same events
(or the same rejected line) on the way in.
"""

import dataclasses
import enum
import gc
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from coldwatch.engine import LocalRecord, MonitorMode
from coldwatch.model import (
    HUM_MAX_DECIP,
    HUM_MIN_DECIP,
    TEMP_MAX_DECIC,
    TEMP_MIN_DECIC,
    EventKind,
    MonitorEvent,
    Reading,
)
from coldwatch import runner
from coldwatch.runner import _SAMPLE_LINE_RE, event_to_json, events_from_log

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
RECORDS = st.builds(
    lambda at, record: MonitorEvent(EventKind.LOCAL_LOG_WRITTEN, at, {"record": record}),
    st.integers(),
    st.builds(
        LocalRecord,
        at=st.integers(),
        reading=READINGS,
        mode=st.sampled_from(MonitorMode),
        window_min_temp_decic=st.integers(),
        window_max_temp_decic=st.integers(),
        window_avg_temp_decic=st.integers(),
    ),
)
OTHER_EVENTS = st.builds(
    lambda kind, at, n: MonitorEvent(kind, at, {"row_count": n}),
    st.sampled_from([k for k in EventKind if k is not EventKind.SAMPLE_TAKEN]),
    st.integers(),
    st.integers(),
)

FILE_EXAMPLES = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class LineRejected(Exception):
    def __init__(self, line_no: int):
        super().__init__(line_no)
        self.line_no = line_no


def reference_events(path):
    """events_from_log by the book: json.loads and the field checks on every line."""
    events = []
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            try:
                doc = json.loads(line)
            except ValueError:
                raise LineRejected(line_no) from None
            if not (
                isinstance(doc, dict)
                and doc.get("kind") in KIND_NAMES
                and type(doc.get("at")) is int
                and isinstance(doc.get("payload"), dict)
            ):
                raise LineRejected(line_no)
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


def assert_reads_like_reference(path):
    try:
        expected = reference_events(path)
    except LineRejected as exc:
        with pytest.raises(ValueError, match=f": line {exc.line_no}: "):
            events_from_log(path)
    else:
        assert events_from_log(path) == expected


@settings(max_examples=500, deadline=None)
@given(SAMPLES)
def test_sample_line_is_the_encoders_output(event):
    assert event_to_json(event) == reference_line(event)


@settings(max_examples=500, deadline=None)
@given(RECORDS)
def test_record_line_is_the_encoders_output(event):
    assert event_to_json(event) == reference_line(event)


@settings(max_examples=200, deadline=None)
@given(OTHER_EVENTS)
def test_other_lines_are_the_encoders_output(event):
    assert event_to_json(event) == reference_line(event)


@FILE_EXAMPLES
@given(st.lists(st.one_of(SAMPLES, OTHER_EVENTS), min_size=1, max_size=6))
def test_written_log_reads_back_like_json(tmp_path, events):
    path = tmp_path / "events.log"
    lines = [event_to_json(event) + "\n" for event in events]
    path.write_text("".join(lines), encoding="utf-8")
    assert_reads_like_reference(path)
    for event, line in zip(events, lines):
        if event.kind is EventKind.SAMPLE_TAKEN:
            # The reader's own layout covers every sample line without an escape.
            assert (_SAMPLE_LINE_RE.fullmatch(line) is None) == ("\\" in line)


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


@FILE_EXAMPLES
@given(LINE_PARTS)
def test_any_line_reads_like_json(tmp_path, parts):
    at, kind, reading_at, device_id, hum, temp, end = parts
    line = (
        '{"at":%s,"kind":%s,"payload":{"reading":{"at":%s,"device_id":"%s",'
        '"hum_decip":%s,"temp_decic":%s}}}%s' % (at, kind, reading_at, device_id, hum, temp, end)
    )
    first = event_to_json(MonitorEvent(EventKind.BATCH_ANCHORED, 0, {}))
    path = tmp_path / "events.log"
    path.write_text(first + "\n" + line, encoding="utf-8", newline="")
    assert_reads_like_reference(path)


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
        (sample_line(at="true"), None),
        ('{"at":1735689630,"kind":"SampleTaken","payload":[]}\n', None),
    ],
    ids=["raw-non-ascii", "raw-del", "minus-zero", "leading-zero", "unicode-digits",
         "trailing-unicode-digit", "no-final-newline", "bool-at", "payload-not-an-object"],
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
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert during == [False, False]
