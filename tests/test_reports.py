import hashlib
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from coldwatch.engine import MonitorMode
from coldwatch.ledger import (
    EntryRequest,
    Ledger,
    LedgerKind,
    MalformedPayload,
    ReportAnchorPayload,
    Unauthorized,
)
from coldwatch.model import (
    DAY_SECONDS,
    csv_field,
    date_to_ts,
    day_start,
    format_tenths,
    iso_to_ts,
    ts_to_iso,
)
from coldwatch.outbox import Outbox
from coldwatch.reports import (
    REPORT_HEADER,
    Verdict,
    build_report,
    decode_row,
    encode_row,
    render_csv,
    verify_report,
)

OWNER = "owner-key"
DEV = "fridge-1"
DAY = 1735689600  # 2025-01-01


# The stored codes the README documents for a row's mode and event.
MODE_CODES = {MonitorMode.NORMAL: 0, MonitorMode.BREACH_PENDING: 1, MonitorMode.CRITICAL: 2}
EVENT_CODES = {None: 0, LedgerKind.ALERT: 1, LedgerKind.RESOLUTION: 2}


def row(at, temp=40, hum=520, mode=MonitorMode.NORMAL, event=None):
    """A row's fields as encode_row takes them."""
    return (at, DEV, temp, hum, mode, event)


def decoded(fields):
    """The fields as decode_row returns them."""
    *head, mode, event = fields
    return (*head, MODE_CODES[mode], EVENT_CODES[event])


@pytest.fixture
def store(tmp_path):
    box = Outbox(tmp_path / "store.bin")
    yield box
    box.close()


def populate(store, rows):
    for r in rows:
        store.add_row(encode_row(*r))


def anchor(report, ledger, credential=OWNER):
    payload = ReportAnchorPayload(report.day, report.digest, report.row_count)
    request = EntryRequest(LedgerKind.REPORT_ANCHOR, DEV, 0, DAY + DAY_SECONDS, payload)
    return ledger.submit(request, credential)


class TestCanonicalForm:
    def test_header_line(self):
        assert REPORT_HEADER == "timestamp,device_id,temp_c,hum_pct,mode,event"

    def test_empty_day_digest_is_hash_of_header(self, store):
        report = build_report(store, DAY, DEV)
        assert report.row_count == 0
        expected = hashlib.sha256((REPORT_HEADER + "\n").encode()).digest()
        assert report.csv_bytes == (REPORT_HEADER + "\n").encode()
        assert report.digest == expected

    def test_row_rendering(self, store):
        alert = row(DAY + 30, temp=82, hum=610, mode=MonitorMode.CRITICAL, event=LedgerKind.ALERT)
        populate(store, [alert])
        report = build_report(store, DAY, DEV)
        assert report.csv_bytes.decode().splitlines()[1] == (
            "2025-01-01T00:00:30Z,fridge-1,8.2,61.0,Critical,ALERT"
        )
        assert report.csv_bytes.endswith(b"\n")

    def test_rows_outside_the_day_excluded(self, store):
        populate(store, [row(DAY - 1), row(DAY), row(DAY + DAY_SECONDS - 1), row(DAY + DAY_SECONDS)])
        report = build_report(store, DAY, DEV)
        assert report.row_count == 2
        lines = report.csv_bytes.decode().splitlines()[1:]
        assert [iso_to_ts(line.split(",", 1)[0]) for line in lines] == [DAY, DAY + DAY_SECONDS - 1]

    def test_record_sorts_before_event_on_shared_tick(self, store):
        populate(
            store,
            [
                row(DAY + 60, mode=MonitorMode.CRITICAL, event=LedgerKind.ALERT),
                row(DAY + 60, mode=MonitorMode.CRITICAL),
            ],
        )
        report = build_report(store, DAY, DEV)
        assert report.row_count == 2
        lines = report.csv_bytes.decode().splitlines()[1:]
        assert [line.rsplit(",", 1)[1] for line in lines] == ["", "ALERT"]

    def test_building_twice_gives_identical_bytes(self, store):
        populate(store, [row(DAY + 30 + 1200 * k) for k in range(72)])
        a = build_report(store, DAY, DEV)
        b = build_report(store, DAY, DEV)
        assert a.csv_bytes == b.csv_bytes
        assert a.digest == b.digest
        assert a.row_count == 72

    def test_row_codec_round_trip(self):
        for r in (
            row(DAY + 30),
            row(DAY + 60, temp=-5, hum=0, mode=MonitorMode.BREACH_PENDING),
            row(DAY + 90, mode=MonitorMode.NORMAL, event=LedgerKind.RESOLUTION),
        ):
            assert decode_row(encode_row(*r)) == decoded(r)

    @pytest.mark.parametrize(
        "mode, mode_code",
        [(MonitorMode.NORMAL, 0), (MonitorMode.BREACH_PENDING, 1), (MonitorMode.CRITICAL, 2)],
        ids=["Normal", "BreachPending", "Critical"],
    )
    @pytest.mark.parametrize(
        "event, event_code", [(None, 0), (LedgerKind.ALERT, 1), (LedgerKind.RESOLUTION, 2)],
        ids=["none", "ALERT", "RESOLVED"],
    )
    def test_stored_row_bytes(self, mode, mode_code, event, event_code):
        # The README's row layout: at (i64 BE) | id length (u16 BE) | id
        # (UTF-8) | temp_decic (i16 BE) | hum_decip (u16 BE) | mode (u8) | event (u8).
        data = encode_row(DAY + 30, DEV, -5, 520, mode, event)
        assert data == (
            bytes.fromhex("000000006774859e" "0008") + b"fridge-1"
            + bytes.fromhex("fffb" "0208") + bytes([mode_code, event_code])
        )
        assert decode_row(data) == (DAY + 30, DEV, -5, 520, mode_code, event_code)

    @pytest.mark.parametrize(
        "fields",
        [
            (2**63, DEV, 40, 520, MonitorMode.NORMAL, None),
            (0, "d" * 65536, 40, 520, MonitorMode.NORMAL, None),
            (0, "d", 40000, 0, MonitorMode.NORMAL, None),
            (0, "d", 40, -1, MonitorMode.NORMAL, None),
        ],
        ids=["at-beyond-i64", "device-beyond-u16-length", "temp-beyond-i16", "negative-hum"],
    )
    def test_a_field_beyond_its_width_is_malformed(self, fields):
        with pytest.raises(MalformedPayload):
            encode_row(*fields)

    def test_truncated_row_is_malformed(self):
        data = encode_row(*row(DAY + 30))
        for cut in (4, 9, 12, len(data) - 1):
            with pytest.raises(MalformedPayload):
                decode_row(data[:cut])


# The instants a report can date: 0001-01-01T00:00:00Z to 9999-12-31T23:59:59Z.
INSTANTS = st.integers(date_to_ts("0001-01-01"), iso_to_ts("9999-12-31T23:59:59Z"))
DEVICE_IDS = st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=8)
# Every i16 temperature and u16 humidity, most of them outside the sensor
# envelope that the rendered tenths texts are shared for.
TEMPS = st.integers(-(2**15), 2**15 - 1)
HUMS = st.integers(0, 2**16 - 1)
MODES = st.sampled_from(list(MODE_CODES))
EVENTS = st.sampled_from(list(EVENT_CODES))
EVENT_NAMES = {None: "", LedgerKind.ALERT: "ALERT", LedgerKind.RESOLUTION: "RESOLVED"}
PLAIN = (DEV, 40, 520, MonitorMode.NORMAL, None)


@settings(max_examples=max(300, settings().max_examples), deadline=None)  # CI's 1000
@given(
    a=INSTANTS,
    b=INSTANTS,
    picks=st.lists(st.tuples(st.booleans(), st.integers(0, DAY_SECONDS - 1)), max_size=6),
    fields=st.lists(st.tuples(DEVICE_IDS, TEMPS, HUMS, MODES, EVENTS), min_size=8, max_size=8),
)
@example(a=date_to_ts("0001-01-01"), b=iso_to_ts("9999-12-31T23:59:59Z"), picks=[],
         fields=[PLAIN] * 8)
@example(a=-1, b=0, picks=[(False, 0), (True, DAY_SECONDS - 1)], fields=[PLAIN] * 8)
@example(a=DAY - 1, b=DAY + 30, picks=[(False, 1), (True, 3599), (False, 86399)],
         fields=[PLAIN] * 8)
@example(a=DAY, b=DAY + 30, picks=[(False, 60)],
         fields=[('%d,"%s', -32768, 65535, MonitorMode.CRITICAL, LedgerKind.ALERT)] * 8)
def test_rendered_timestamps_are_ts_to_iso(a, b, picks, fields):
    """Rows of two days in one call, in any order: each timestamp renders
    as ts_to_iso renders it, negative unix times included, and each line
    is that timestamp, the quoted device id, the two tenths texts, the
    mode and the event, comma-joined."""
    instants = [a, b] + [day_start(b if other else a) + s for other, s in picks]
    rows = [(at, *f) for at, f in zip(instants, fields)]
    lines = [
        ",".join([ts_to_iso(at), csv_field(device), format_tenths(temp), format_tenths(hum),
                  mode.value, EVENT_NAMES[event]]) + "\n"
        for at, device, temp, hum, mode, event in rows
    ]
    expected = REPORT_HEADER + "\n" + "".join(lines)
    assert render_csv([decoded(r) for r in rows]).decode("utf-8") == expected


ROWS = st.tuples(st.integers(-(2**63), 2**63 - 1), DEVICE_IDS, TEMPS, HUMS, MODES, EVENTS)


@settings(max_examples=100, deadline=None)
@given(ROWS)
@example(row(DAY + 30, mode=MonitorMode.CRITICAL, event=LedgerKind.ALERT))
@example((DAY, "k\u00fchl-\u51b7", -400, 1000, MonitorMode.BREACH_PENDING, LedgerKind.RESOLUTION))
def test_every_proper_prefix_of_a_row_is_malformed(r):
    data = encode_row(*r)
    assert decode_row(data) == decoded(r)
    for cut in range(len(data)):
        with pytest.raises(MalformedPayload):
            decode_row(data[:cut])


# Ids of another device: of the UTF-8 byte length of DEV, and of any length.
OTHER_IDS = st.one_of(st.sampled_from(["fridge-2", "k\u00fchl-12"]), DEVICE_IDS)
# Offsets from DAY: inside the day and on either side, often on a shared tick.
OFFSETS = st.one_of(
    st.integers(-DAY_SECONDS, 2 * DAY_SECONDS - 1), st.sampled_from([-1, 0, 30, DAY_SECONDS])
)


@settings(deadline=None)
@given(
    stored=st.lists(
        st.tuples(st.one_of(st.just(DEV), OTHER_IDS), OFFSETS, TEMPS, HUMS, MODES, EVENTS),
        max_size=12,
    ),
    pick=st.integers(0, 11),
    cut=st.integers(0, 255),
)
@example(stored=[(DEV, 30, 40, 520, MonitorMode.NORMAL, None),
                 ("fridge-2", 30, 41, 521, MonitorMode.NORMAL, None),
                 ("k\u00fchl-12", 0, 42, 522, MonitorMode.CRITICAL, LedgerKind.ALERT),
                 ("f", 60, 43, 523, MonitorMode.NORMAL, None)], pick=1, cut=0)
def test_build_report_keeps_the_decoded_rows_of_its_device_and_day(stored, pick, cut):
    """A store of rows of the report's device, of ids of its UTF-8 length
    and of ids of other lengths, in any order and at instants inside and
    outside the day: the report renders decode_row's rows of the device
    and the day, sorted by instant and event. Then a proper prefix of a row
    of the day, long enough to keep its timestamp for the store, makes
    build_report raise MalformedPayload."""
    rows = [(DAY + offset, device, temp, hum, mode, event)
            for device, offset, temp, hum, mode, event in stored]
    with tempfile.TemporaryDirectory() as tmp:
        store = Outbox(Path(tmp) / "store.bin")
        try:
            populate(store, rows)
            ours = [r for r in map(decode_row, store.rows(DAY, DAY + DAY_SECONDS)) if r[1] == DEV]
            ours.sort(key=lambda r: (r[0], r[5]))
            report = build_report(store, DAY, DEV)
            assert (report.csv_bytes, report.row_count) == (render_csv(ours), len(ours))

            day_rows = [r for r in rows if DAY <= r[0] < DAY + DAY_SECONDS] or [row(DAY + 30)]
            data = encode_row(*day_rows[pick % len(day_rows)])
            store.add_row(data[: 8 + cut % (len(data) - 8)])
            with pytest.raises(MalformedPayload):
                build_report(store, DAY, DEV)
        finally:
            store.close()


class TestAnchorAndVerify:
    def _anchored(self, store):
        populate(store, [row(DAY + 30 + 1200 * k) for k in range(6)])
        report = build_report(store, DAY, DEV)
        ledger = Ledger(OWNER)
        anchor(report, ledger)
        return report, ledger

    def test_round_trip_is_authentic(self, store):
        report, ledger = self._anchored(store)
        assert verify_report(report.csv_bytes, ledger.entries) is Verdict.AUTHENTIC

    def test_single_byte_edit_is_a_digest_mismatch(self, store):
        report, ledger = self._anchored(store)
        mutated = bytearray(report.csv_bytes)
        mutated[60] ^= 0x01
        assert verify_report(bytes(mutated), ledger.entries, day=DAY) is Verdict.DIGEST_MISMATCH

    def test_every_single_byte_mutation_flips_the_verdict(self, store):
        report, ledger = self._anchored(store)
        for pos in range(0, len(report.csv_bytes), 7):
            mutated = bytearray(report.csv_bytes)
            mutated[pos] ^= 0x40
            verdict = verify_report(bytes(mutated), ledger.entries, day=DAY)
            assert verdict is not Verdict.AUTHENTIC

    def test_unanchored_day_has_no_anchor(self, store):
        populate(store, [row(DAY + 30)])
        report = build_report(store, DAY, DEV)
        ledger = Ledger(OWNER)
        assert verify_report(report.csv_bytes, ledger.entries) is Verdict.NO_ANCHOR

    def test_day_inferred_from_rows(self, store):
        report, ledger = self._anchored(store)
        assert verify_report(report.csv_bytes, ledger.entries, day=None) is Verdict.AUTHENTIC

    def test_header_only_report_verified_by_digest_search(self, store):
        report = build_report(store, DAY, DEV)
        ledger = Ledger(OWNER)
        anchor(report, ledger)
        assert verify_report(report.csv_bytes, ledger.entries) is Verdict.AUTHENTIC

    def test_duplicate_anchor_is_idempotent(self, store):
        report, ledger = self._anchored(store)
        before = len(ledger.entries)
        anchor(report, ledger)
        assert len(ledger.entries) == before

    def test_unauthorized_anchor_rejected(self, store):
        populate(store, [row(DAY + 30)])
        report = build_report(store, DAY, DEV)
        ledger = Ledger(OWNER)
        with pytest.raises(Unauthorized):
            anchor(report, ledger, "intruder")


def test_quiet_day_report_from_full_run(quiet_run):
    # 86400 / 1200 = 72 record rows.
    lines = (quiet_run.out_dir / "reports" / DEV / "2025-01-01.csv").read_text().splitlines()
    assert len(lines) == 73
    assert lines[0] == REPORT_HEADER
    [anchor] = [e.payload for e in quiet_run.ledger.entries if e.kind is LedgerKind.REPORT_ANCHOR]
    assert (anchor.day, anchor.row_count) == (DAY, 72)


def test_breach_day_report_composition(breach_run):
    # Hand-traced scenario: breach forced over [start+28800, start+33600) at a
    # 30 s cadence. Records: 24 before onset on the 20-minute grid, 2 while
    # pending (28830, 30030), every sample from escalation at 31200 through
    # 33600 (81), then back on the grid from 33630 to 85230 (44), plus one
    # alert row and one resolution row.
    csv_text = (breach_run.out_dir / "reports" / DEV / "2025-01-01.csv").read_text()
    rows = [line.split(",") for line in csv_text.splitlines()[1:]]
    scheduled = 72
    critical = (33600 - 31200) // 30 + 1
    on_grid_during_critical = 2  # 31230 and 32430 coincide with the 20-min grid
    events = 2
    assert len(rows) == scheduled + critical - on_grid_during_critical + events
    start = breach_run.manifest["start"]
    assert [iso_to_ts(r[0]) - start for r in rows if r[5] == "ALERT"] == [31200]
    assert [iso_to_ts(r[0]) - start for r in rows if r[5] == "RESOLVED"] == [33630]
    ats = [iso_to_ts(r[0]) for r in rows]
    assert ats == sorted(ats)
