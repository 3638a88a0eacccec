import dataclasses
import struct
import tempfile
from fractions import Fraction
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from coldwatch.ledger import (
    BATCH_LIMIT,
    READING,
    AdminAction,
    AdminChangePayload,
    AlertPayload,
    BatchTooLarge,
    EntryRequest,
    GasSchedule,
    LEDGER_MAGIC,
    LEDGER_VERSION,
    Ledger,
    LedgerEntry,
    LedgerFileError,
    LedgerKind,
    LedgerOutage,
    MalformedPayload,
    ReadingBatchPayload,
    ReportAnchorPayload,
    ResolutionPayload,
    Unauthorized,
    ZERO_DIGEST,
    annualized_usd,
    batch_payload,
    cost_report,
    daily_costs,
    decode_request,
    encode_request,
    format_usd,
    load_ledger_entries,
    observed_days,
    verify_entries,
)
from coldwatch.model import (
    DAY_SECONDS,
    HUM_MAX_DECIP,
    HUM_MIN_DECIP,
    TEMP_MAX_DECIC,
    TEMP_MIN_DECIC,
    Reading,
)
from coldwatch.outbox import Outbox

OWNER = "owner-key"
DEV = "fridge-1"
# The fields of an entry, decoded (LedgerEntry) or as a ledger keeps it (StoredEntry).
ENTRY = attrgetter("kind", "device_id", "seq", "at", "payload", "index", "prev_hash", "entry_hash")


def rd(at, temp=40, hum=520):
    return Reading(device_id=DEV, at=at, temp_decic=temp, hum_decip=hum)


def batch_request(readings, seq=0):
    at = readings[-1].at if readings else 0
    payload = ReadingBatchPayload(tuple(readings))
    return EntryRequest(LedgerKind.READING_BATCH, DEV, seq, at, payload)


def alert_request(seq, at=1000):
    return EntryRequest(
        kind=LedgerKind.ALERT,
        device_id=DEV,
        seq=seq,
        at=at,
        payload=AlertPayload(episode_id=at, temp_decic=85, hum_decip=520),
    )


ONE_PAYLOAD_PER_KIND = {
    LedgerKind.READING_BATCH: ReadingBatchPayload((rd(100), rd(200, temp=-5))),
    LedgerKind.ALERT: AlertPayload(episode_id=100, temp_decic=-400, hum_decip=1000),
    LedgerKind.RESOLUTION: ResolutionPayload(100, duration=3000, temp_decic=1250, hum_decip=0),
    LedgerKind.REPORT_ANCHOR: ReportAnchorPayload(day=0, digest=bytes(range(32)), row_count=72),
    LedgerKind.ADMIN_CHANGE: AdminChangePayload(action=AdminAction.REVOKE, key="device-key"),
}


def assert_rejected(tmp_path, request, error):
    """The request is refused before the ledger or its file changes."""
    path = tmp_path / "ledger.bin"
    ledger = Ledger(OWNER, path=path)
    ledger.submit(alert_request(0), OWNER)
    entries, before = list(ledger.entries), path.read_bytes()
    with pytest.raises(error):
        ledger.submit(request, OWNER)
    assert ledger.entries == entries
    assert path.read_bytes() == before
    return ledger


class TestChain:
    def test_genesis_entry_links_to_zero_digest(self):
        ledger = Ledger(OWNER)
        entry = ledger.submit(alert_request(0), OWNER)
        assert entry.index == 0
        assert entry.prev_hash == ZERO_DIGEST

    def test_entries_link_and_verify(self):
        ledger = Ledger(OWNER)
        for seq in range(50):
            ledger.submit(alert_request(seq, at=1000 + seq), OWNER)
        for a, b in zip(ledger.entries, ledger.entries[1:]):
            assert b.prev_hash == a.entry_hash
        assert ledger.verify_chain().ok

    def test_bit_flip_in_payload_is_located(self):
        ledger = Ledger(OWNER)
        for seq in range(1000):
            ledger.submit(alert_request(seq, at=1000 + seq), OWNER)
        e = ledger.entries[500]
        bad = AlertPayload(episode_id=1500, temp_decic=86, hum_decip=520)
        entries = list(ledger.entries)
        entries[500] = LedgerEntry(
            e.kind, e.device_id, e.seq, e.at, bad, e.index, e.prev_hash, e.entry_hash
        )
        report = verify_entries(entries)
        assert not report.ok
        assert report.bad_index == 500

    def test_truncated_tail_still_verifies(self):
        ledger = Ledger(OWNER)
        for seq in range(10):
            ledger.submit(alert_request(seq, at=1000 + seq), OWNER)
        assert verify_entries(ledger.entries[:7]).ok


class TestIdempotency:
    def test_duplicate_returns_existing_entry(self):
        ledger = Ledger(OWNER)
        first = ledger.submit(alert_request(0), OWNER)
        again = ledger.submit(alert_request(0), OWNER)
        assert again.entry_hash == first.entry_hash
        assert len(ledger.entries) == 1

    def test_duplicate_leaves_file_bytes_identical(self, tmp_path):
        path = tmp_path / "ledger.bin"
        ledger = Ledger(OWNER, path=path)
        ledger.submit(alert_request(0), OWNER)
        ledger.submit(alert_request(1, at=1100), OWNER)
        before = path.read_bytes()
        ledger.submit(alert_request(0), OWNER)
        assert path.read_bytes() == before
        ledger.close()


class TestAuthorization:
    def test_unknown_credential_rejected(self):
        ledger = Ledger(OWNER)
        with pytest.raises(Unauthorized):
            ledger.submit(alert_request(0), "intruder")
        assert len(ledger.entries) == 0

    def test_grant_then_write_then_revoke(self):
        ledger = Ledger(OWNER)
        grant = EntryRequest(
            kind=LedgerKind.ADMIN_CHANGE,
            device_id="admin",
            seq=0,
            at=10,
            payload=AdminChangePayload(action=AdminAction.GRANT, key="device-key"),
        )
        ledger.submit(grant, OWNER)
        ledger.submit(alert_request(0), "device-key")
        revoke = EntryRequest(
            kind=LedgerKind.ADMIN_CHANGE,
            device_id="admin",
            seq=1,
            at=20,
            payload=AdminChangePayload(action=AdminAction.REVOKE, key="device-key"),
        )
        ledger.submit(revoke, OWNER)
        with pytest.raises(Unauthorized):
            ledger.submit(alert_request(1), "device-key")

    def test_admin_change_requires_owner(self):
        ledger = Ledger(OWNER)
        ledger.submit(
            EntryRequest(
                kind=LedgerKind.ADMIN_CHANGE,
                device_id="admin",
                seq=0,
                at=10,
                payload=AdminChangePayload(action=AdminAction.GRANT, key="writer"),
            ),
            OWNER,
        )
        grant = EntryRequest(
            kind=LedgerKind.ADMIN_CHANGE,
            device_id="admin",
            seq=1,
            at=20,
            payload=AdminChangePayload(action=AdminAction.GRANT, key="writer2"),
        )
        with pytest.raises(Unauthorized):
            ledger.submit(grant, "writer")


class TestBatch:
    def test_batch_appends_one_entry(self):
        ledger = Ledger(OWNER)
        readings = [rd(at) for at in (1200, 2400, 3600, 4800)]
        entry = ledger.submit(batch_request(readings), OWNER)
        assert entry.kind is LedgerKind.READING_BATCH
        assert len(ledger.entries) == 1
        assert len(entry.payload.readings) == 4

    def test_empty_batch_rejected(self, tmp_path):
        assert_rejected(tmp_path, batch_request([], seq=1), MalformedPayload)

    def test_mixed_devices_rejected(self, tmp_path):
        # Stored as-is, the cooler-9 reading would read back as fridge-1.
        readings = [rd(100), Reading("cooler-9", 200, 40, 520)]
        assert_rejected(tmp_path, batch_request(readings, seq=1), MalformedPayload)

    def test_batch_of_another_device_rejected(self, tmp_path):
        readings = [Reading("cooler-9", 100, 40, 520)]
        assert_rejected(tmp_path, batch_request(readings, seq=1), MalformedPayload)

    def test_unordered_rejected(self, tmp_path):
        assert_rejected(tmp_path, batch_request([rd(200), rd(100)], seq=1), MalformedPayload)

    def test_over_limit_rejected(self, tmp_path):
        readings = [rd(30 * k) for k in range(1, BATCH_LIMIT + 2)]
        ledger = assert_rejected(tmp_path, batch_request(readings, seq=1), BatchTooLarge)
        entry = ledger.submit(batch_request(readings[:BATCH_LIMIT], seq=1), OWNER)
        assert len(entry.payload.readings) == BATCH_LIMIT


class TestOutage:
    def test_submit_during_fault_window_raises(self):
        ledger = Ledger(OWNER)
        ledger.set_fault_windows([(1000, 2000)])
        with pytest.raises(LedgerOutage):
            ledger.submit(alert_request(0), OWNER, now=1500)
        assert len(ledger.entries) == 0
        ledger.submit(alert_request(0), OWNER, now=2000)


class TestCost:
    def _quiet_day(self, path=None):
        ledger = Ledger(OWNER, path=path)
        for k in range(11):
            ledger.submit(batch_request([rd(7200 * (k + 1))], seq=k), OWNER)
        anchor = EntryRequest(
            kind=LedgerKind.REPORT_ANCHOR,
            device_id=DEV,
            seq=11,
            at=DAY_SECONDS,
            payload=ReportAnchorPayload(day=0, digest=bytes(32), row_count=72),
        )
        ledger.submit(anchor, OWNER)
        ledger.close()
        return ledger

    def test_quiet_day_costs_0_0107(self):
        ledger = self._quiet_day()
        tally = cost_report(ledger.entries, 0)
        assert tally.tx_total == 12
        assert tally.usd_total == Fraction("0.0107")
        assert format_usd(tally.usd_total) == "0.0107"

    def test_midnight_report_anchor_counts_toward_its_day(self):
        ledger = self._quiet_day()
        assert cost_report(ledger.entries, DAY_SECONDS).tx_total == 0

    def test_annualized_is_3_91(self):
        ledger = self._quiet_day()
        annual = annualized_usd(ledger.entries)
        assert annual == Fraction("0.0107") * 365
        assert format_usd(annual, places=2) == "3.91"

    def test_per_transaction_fee_matches_calibration(self):
        fee = GasSchedule().fee_per_gas_usd
        assert abs(float(fee) - 0.000892) < 1e-6

    def test_zero_transaction_day_is_free(self):
        ledger = Ledger(OWNER)
        assert cost_report(ledger.entries, 0).usd_total == 0

    def test_off_midnight_anchor_day_is_billed_to_its_utc_day(self):
        ledger = Ledger(OWNER)
        ledger.submit(alert_request(0, at=100), OWNER)
        anchor = EntryRequest(
            kind=LedgerKind.REPORT_ANCHOR,
            device_id=DEV,
            seq=1,
            at=DAY_SECONDS,
            payload=ReportAnchorPayload(day=5, digest=bytes(32), row_count=0),
        )
        ledger.submit(anchor, OWNER)
        assert observed_days(ledger.entries) == [0]
        assert cost_report(ledger.entries, 0).tx_total == 2
        assert annualized_usd(ledger.entries) == 730 * GasSchedule().fee_per_gas_usd


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(list(LedgerKind)),
            st.integers(0, 4 * DAY_SECONDS),
            st.integers(0, 4 * DAY_SECONDS),  # the day a report anchor names
        ),
        max_size=30,
    ),
    st.lists(st.integers(1, 50), min_size=len(LedgerKind), max_size=len(LedgerKind)),
    st.fractions(min_value=Fraction(1, 10**6), max_value=1),
)
def test_every_entry_is_billed_to_exactly_one_observed_day(drawn, units, fee):
    entries = []
    for seq, (kind, at, day) in enumerate(drawn):
        payload = ONE_PAYLOAD_PER_KIND[kind]
        if kind is LedgerKind.REPORT_ANCHOR:
            payload = dataclasses.replace(payload, day=day)
        entries.append(LedgerEntry(kind, DEV, seq, at, payload, seq, ZERO_DIGEST, ZERO_DIGEST))
    gas = GasSchedule(gas=dict(zip(LedgerKind, units)), fee_per_gas_usd=fee)
    days = observed_days(entries)
    tallies = [cost_report(entries, d, gas) for d in days]
    assert sum(t.tx_total for t in tallies) == len(entries)
    # One pass over the entries gives what one pass per day gives, in day order.
    assert list(daily_costs(entries, gas).items()) == list(zip(days, tallies))
    # The definition: the mean of the observed days' costs, times 365.
    per_day_mean = sum((t.usd_total for t in tallies), Fraction(0)) / len(days) if days else 0
    assert annualized_usd(entries, gas) == per_day_mean * 365


class TestFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ledger.bin"
        ledger = Ledger(OWNER, path=path)
        for seq in range(20):
            ledger.submit(alert_request(seq, at=1000 + seq), OWNER)
        ledger.close()
        loaded = load_ledger_entries(path)
        assert list(map(ENTRY, loaded)) == list(map(ENTRY, ledger.entries))
        assert verify_entries(loaded).ok

    @pytest.mark.parametrize("kind", list(LedgerKind), ids=lambda kind: kind.name)
    def test_request_codec_round_trip(self, kind):
        req = EntryRequest(kind, DEV, 7, 200, ONE_PAYLOAD_PER_KIND[kind])
        assert decode_request(encode_request(req)) == req

    @pytest.mark.parametrize("kind", list(LedgerKind), ids=lambda kind: kind.name)
    def test_every_proper_prefix_of_a_request_is_malformed(self, kind):
        data = encode_request(EntryRequest(kind, DEV, 7, 200, ONE_PAYLOAD_PER_KIND[kind]))
        for cut in range(len(data)):
            with pytest.raises(MalformedPayload):
                decode_request(data[:cut])

    def test_an_entry_cut_short_behind_a_consistent_length_is_a_file_error(self, tmp_path):
        """Each entry in turn is the last one, cut at every length with its
        length prefix rewritten to match: its tail cut off, or its body cut
        before the 32-byte digest."""
        path = tmp_path / "ledger.bin"
        ledger = Ledger(OWNER, path=path)
        for seq, kind in enumerate(LedgerKind):
            request = EntryRequest(kind, DEV, seq, 200 + seq, ONE_PAYLOAD_PER_KIND[kind])
            ledger.submit(request, OWNER)
        ledger.close()
        data, pos = path.read_bytes(), len(LEDGER_MAGIC) + 1
        assert data[:pos] == LEDGER_MAGIC + bytes([LEDGER_VERSION])
        while pos < len(data):
            (n,) = struct.unpack_from(">I", data, pos)
            record = data[pos + 4 : pos + 4 + n]
            body, digest = record[:-32], record[-32:]
            cuts = [record[:k] for k in range(n)] + [body[:k] + digest for k in range(len(body))]
            for cut in cuts:
                path.write_bytes(data[:pos] + struct.pack(">I", len(cut)) + cut)
                with pytest.raises(LedgerFileError):
                    load_ledger_entries(path)
            pos += 4 + n

    @pytest.mark.parametrize("size", [31, 33])
    def test_report_digest_must_be_32_bytes(self, size):
        payload = ReportAnchorPayload(day=0, digest=bytes(size), row_count=72)
        with pytest.raises(MalformedPayload):
            encode_request(EntryRequest(LedgerKind.REPORT_ANCHOR, DEV, 7, 200, payload))


OUT_OF_RANGE = {
    "negative-duration": EntryRequest(
        LedgerKind.RESOLUTION, DEV, 1, 1000, ResolutionPayload(1, -5, 0, 5)
    ),
    "temp-beyond-i16": EntryRequest(LedgerKind.ALERT, DEV, 1, 1000, AlertPayload(1, 40000, 5)),
    "negative-seq": alert_request(-1),
    "device-id-beyond-u16-length": dataclasses.replace(alert_request(1), device_id="d" * 65536),
    "admin-key-beyond-u16-length": EntryRequest(
        LedgerKind.ADMIN_CHANGE, DEV, 1, 1000, AdminChangePayload(AdminAction.GRANT, "k" * 65536)
    ),
    "row-count-beyond-u32": EntryRequest(
        LedgerKind.REPORT_ANCHOR, DEV, 1, 1000, ReportAnchorPayload(0, bytes(32), 2**32)
    ),
}


@pytest.mark.parametrize("req", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
def test_field_outside_its_width_is_malformed(tmp_path, req):
    assert_rejected(tmp_path, req, MalformedPayload)
    with pytest.raises(MalformedPayload, match="^field out of range: ") as caught:
        encode_request(req)
    assert isinstance(caught.value.__cause__, struct.error)
    entry = LedgerEntry(**vars(req), index=0, prev_hash=ZERO_DIGEST, entry_hash=ZERO_DIGEST)
    report = verify_entries([entry])
    assert (report.ok, report.bad_index) == (False, 0)
    assert report.reason.startswith("unencodable entry")


def test_exactly_five_externally_callable_kinds():
    assert len(LedgerKind) == 5
    assert {k.name for k in LedgerKind} == {
        "READING_BATCH",
        "ALERT",
        "RESOLUTION",
        "REPORT_ANCHOR",
        "ADMIN_CHANGE",
    }


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(-400, 1250), st.integers(0, 1000)),
        min_size=1,
        max_size=30,
    )
)
def test_chain_verifies_after_any_submit_sequence(specs):
    ledger = Ledger(OWNER)
    seq = 0
    at = 100
    for kind_idx, temp, hum in specs:
        at += 30
        if kind_idx == 0:
            ledger.submit(batch_request([rd(at, temp, hum)], seq=seq), OWNER)
        elif kind_idx == 1:
            ledger.submit(
                EntryRequest(
                    LedgerKind.ALERT, DEV, seq, at, AlertPayload(at, temp, hum)
                ),
                OWNER,
            )
        elif kind_idx == 2:
            ledger.submit(
                EntryRequest(
                    LedgerKind.REPORT_ANCHOR,
                    DEV,
                    seq,
                    at,
                    ReportAnchorPayload(day=0, digest=bytes(32), row_count=hum),
                ),
                OWNER,
            )
        else:
            ledger.submit(
                EntryRequest(
                    LedgerKind.ADMIN_CHANGE,
                    "admin",
                    seq,
                    at,
                    AdminChangePayload(AdminAction.GRANT, f"key-{seq}"),
                ),
                OWNER,
            )
        seq += 1
    assert ledger.verify_chain().ok
    # Resubmitting everything is a no-op.
    length = len(ledger.entries)
    for entry in list(ledger.entries):
        ledger.submit(
            EntryRequest(entry.kind, entry.device_id, entry.seq, entry.at, entry.payload),
            OWNER,
        )
    assert len(ledger.entries) == length


I64, U32 = st.integers(-(2**63), 2**63 - 1), st.integers(0, 2**32 - 1)


@st.composite
def decoded_requests(draw):
    """A request of any kind with every field within its width, and its
    payload as it is handed to the outbox: decoded, or a batch's bytes as
    the runner packs them record by record."""
    kind = draw(st.sampled_from(list(LedgerKind)))
    device = draw(st.text(min_size=1, max_size=12))
    temps = st.integers(TEMP_MIN_DECIC, TEMP_MAX_DECIC)
    hums = st.integers(HUM_MIN_DECIP, HUM_MAX_DECIP)
    if kind is LedgerKind.READING_BATCH:
        rows = sorted(draw(st.lists(st.tuples(I64, temps, hums), min_size=1, max_size=40)))
        payload = ReadingBatchPayload(tuple(Reading(device, *row) for row in rows))
    elif kind is LedgerKind.ALERT:
        payload = AlertPayload(draw(I64), draw(temps), draw(hums))
    elif kind is LedgerKind.RESOLUTION:
        payload = ResolutionPayload(draw(I64), draw(U32), draw(temps), draw(hums))
    elif kind is LedgerKind.REPORT_ANCHOR:
        digest = draw(st.binary(min_size=32, max_size=32))
        payload = ReportAnchorPayload(draw(I64), digest, draw(U32))
    else:
        payload = AdminChangePayload(draw(st.sampled_from(AdminAction)), draw(st.text(max_size=12)))
    request = EntryRequest(kind, device, 0, draw(I64), payload)
    if kind is LedgerKind.READING_BATCH and draw(st.booleans()):
        payload = batch_payload([READING.head.pack(*row) for row in rows])
    return request, payload


@settings(deadline=None)
@given(decoded_requests())
def test_stored_request_bytes_are_the_encoding_of_their_decoded_view(drawn):
    """The bytes the outbox packs at enqueue, replays and hands to the
    ledger, which hashes and stores them, are encode_request's of the
    decoded request, and decode back to it."""
    view, payload = drawn
    with tempfile.TemporaryDirectory() as tmp:
        box = Outbox(Path(tmp) / "outbox.bin")
        request = box.enqueue(view.kind, view.device_id, view.at, payload).request
        box.close()
        assert request.data == encode_request(view)
        assert decode_request(request.data) == view
        box = Outbox(Path(tmp) / "outbox.bin")
        assert [item.request for item in box.items()] == [request]
        box.close()
        ledger = Ledger(OWNER, path=Path(tmp) / "ledger.bin")
        entry = ledger.submit(request, OWNER)
        ledger.close()
        [loaded] = load_ledger_entries(Path(tmp) / "ledger.bin")
        assert ENTRY(loaded) == ENTRY(entry)  # the entry's payload, read from the file
    assert ENTRY(loaded)[:5] == (view.kind, view.device_id, view.seq, view.at, view.payload)
