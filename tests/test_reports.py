import hashlib

import pytest
from hypothesis import example, given, settings, strategies as st

from coldwatch.ledger import (
    EntryRequest,
    Ledger,
    LedgerKind,
    MalformedPayload,
    ReportAnchorPayload,
    Unauthorized,
)
from coldwatch.model import DAY_SECONDS, date_to_ts, day_start, iso_to_ts, ts_to_iso
from coldwatch.outbox import Outbox
from coldwatch.reports import (
    REPORT_HEADER,
    ReportRow,
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


def row(at, temp=40, hum=520, mode="Normal", event=""):
    return ReportRow(at=at, device_id=DEV, temp_decic=temp, hum_decip=hum, mode=mode, event=event)


@pytest.fixture
def store(tmp_path):
    box = Outbox(tmp_path / "store.bin")
    yield box
    box.close()


def populate(store, rows):
    for r in rows:
        store.add_row(encode_row(r))


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
        populate(store, [row(DAY + 30, temp=82, hum=610, mode="Critical", event="ALERT")])
        report = build_report(store, DAY, DEV)
        assert report.csv_bytes.decode().splitlines()[1] == (
            "2025-01-01T00:00:30Z,fridge-1,8.2,61.0,Critical,ALERT"
        )
        assert report.csv_bytes.endswith(b"\n")

    def test_rows_outside_the_day_excluded(self, store):
        populate(store, [row(DAY - 1), row(DAY), row(DAY + DAY_SECONDS - 1), row(DAY + DAY_SECONDS)])
        report = build_report(store, DAY, DEV)
        assert report.row_count == 2
        assert [r.at for r in report.rows] == [DAY, DAY + DAY_SECONDS - 1]

    def test_record_sorts_before_event_on_shared_tick(self, store):
        populate(
            store,
            [
                row(DAY + 60, mode="Critical", event="ALERT"),
                row(DAY + 60, mode="Critical"),
            ],
        )
        report = build_report(store, DAY, DEV)
        assert [r.event for r in report.rows] == ["", "ALERT"]

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
            row(DAY + 60, temp=-5, hum=0, mode="BreachPending"),
            row(DAY + 90, mode="Normal", event="RESOLVED"),
        ):
            assert decode_row(encode_row(r)) == r

    def test_truncated_row_is_malformed(self):
        data = encode_row(row(DAY + 30))
        for cut in (4, 9, 12, len(data) - 1):
            with pytest.raises(MalformedPayload):
                decode_row(data[:cut])


# The instants a report can date: 0001-01-01T00:00:00Z to 9999-12-31T23:59:59Z.
INSTANTS = st.integers(date_to_ts("0001-01-01"), iso_to_ts("9999-12-31T23:59:59Z"))


@settings(max_examples=300, deadline=None)
@given(
    a=INSTANTS,
    b=INSTANTS,
    picks=st.lists(st.tuples(st.booleans(), st.integers(0, DAY_SECONDS - 1)), max_size=6),
)
@example(a=date_to_ts("0001-01-01"), b=iso_to_ts("9999-12-31T23:59:59Z"), picks=[])
@example(a=-1, b=0, picks=[(False, 0), (True, DAY_SECONDS - 1)])
@example(a=DAY - 1, b=DAY + 30, picks=[(False, 1), (True, 3599), (False, 86399)])
def test_rendered_timestamps_are_ts_to_iso(a, b, picks):
    """Rows of two days in one call, in any order: each timestamp renders
    as ts_to_iso renders it, negative unix times included."""
    instants = [a, b] + [day_start(b if other else a) + s for other, s in picks]
    lines = render_csv([row(at) for at in instants]).decode("utf-8").splitlines()
    assert [line.split(",", 1)[0] for line in lines[1:]] == [ts_to_iso(at) for at in instants]


ROWS = st.builds(
    ReportRow,
    at=st.integers(-(2**63), 2**63 - 1),
    device_id=st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=8),
    temp_decic=st.integers(-(2**15), 2**15 - 1),
    hum_decip=st.integers(0, 2**16 - 1),
    mode=st.sampled_from(["Normal", "BreachPending", "Critical"]),
    event=st.sampled_from(["", "ALERT", "RESOLVED"]),
)


@settings(max_examples=100, deadline=None)
@given(ROWS)
@example(row(DAY + 30, mode="Critical", event="ALERT"))
@example(ReportRow(DAY, "k\u00fchl-\u51b7", -400, 1000, "BreachPending", "RESOLVED"))
def test_every_proper_prefix_of_a_row_is_malformed(r):
    data = encode_row(r)
    assert decode_row(data) == r
    for cut in range(len(data)):
        with pytest.raises(MalformedPayload):
            decode_row(data[:cut])


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
