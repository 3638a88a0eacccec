import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coldwatch.ledger import (
    AdminAction,
    AdminChangePayload,
    AlertPayload,
    BatchTooLarge,
    EntryRequest,
    GasSchedule,
    Ledger,
    LedgerKind,
    LedgerOutage,
    MalformedPayload,
    ReportAnchorPayload,
    Unauthorized,
    ZERO_DIGEST,
    annualized_usd,
    build_batch_request,
    cost_report,
    decode_request,
    encode_request,
    format_usd,
    load_ledger_entries,
    verify_entries,
)
from coldwatch.model import DAY_SECONDS, Reading

OWNER = "owner-key"
DEV = "fridge-1"


def rd(at, temp=40, hum=520):
    return Reading(device_id=DEV, at=at, temp_decic=temp, hum_decip=hum)


def alert_request(seq, at=1000):
    return EntryRequest(
        kind=LedgerKind.ALERT,
        device_id=DEV,
        seq=seq,
        at=at,
        payload=AlertPayload(episode_id=at, temp_decic=85, hum_decip=520),
    )


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
        bad = dataclasses.replace(
            ledger.entries[500],
            payload=AlertPayload(episode_id=1500, temp_decic=86, hum_decip=520),
        )
        entries = list(ledger.entries)
        entries[500] = bad
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
        ledger = Ledger(OWNER, authorized_writers={"writer"})
        grant = EntryRequest(
            kind=LedgerKind.ADMIN_CHANGE,
            device_id="admin",
            seq=0,
            at=10,
            payload=AdminChangePayload(action=AdminAction.GRANT, key="writer2"),
        )
        with pytest.raises(Unauthorized):
            ledger.submit(grant, "writer")


class TestBatch:
    def test_batch_appends_one_entry(self):
        ledger = Ledger(OWNER)
        readings = [rd(at) for at in (1200, 2400, 3600, 4800)]
        entry = ledger.submit(build_batch_request(readings, seq=0), OWNER)
        assert entry.kind is LedgerKind.READING_BATCH
        assert len(ledger.entries) == 1
        assert len(entry.payload.readings) == 4

    def test_empty_batch_rejected(self):
        with pytest.raises(MalformedPayload):
            build_batch_request([], seq=0)

    def test_mixed_devices_rejected(self):
        readings = [rd(100), Reading("other", 200, 40, 520)]
        with pytest.raises(MalformedPayload):
            build_batch_request(readings, seq=0)

    def test_unordered_rejected(self):
        with pytest.raises(MalformedPayload):
            build_batch_request([rd(200), rd(100)], seq=0)

    def test_over_limit_rejected(self):
        readings = [rd(30 * k) for k in range(1, 258)]
        with pytest.raises(BatchTooLarge):
            build_batch_request(readings, seq=0)


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
            ledger.submit(build_batch_request([rd(7200 * (k + 1))], seq=k), OWNER)
        anchor = EntryRequest(
            kind=LedgerKind.REPORT_ANCHOR,
            device_id=DEV,
            seq=11,
            at=DAY_SECONDS,
            payload=ReportAnchorPayload(day=0, digest=bytes(32), row_count=72),
        )
        ledger.submit(anchor, OWNER)
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


class TestFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ledger.bin"
        ledger = Ledger(OWNER, path=path)
        for seq in range(20):
            ledger.submit(alert_request(seq, at=1000 + seq), OWNER)
        loaded = load_ledger_entries(path)
        assert loaded == ledger.entries
        assert verify_entries(loaded).ok

    def test_request_codec_round_trip(self):
        req = build_batch_request([rd(100), rd(200, temp=-5)], seq=7)
        assert decode_request(encode_request(req)) == req


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
            ledger.submit(build_batch_request([rd(at, temp, hum)], seq=seq), OWNER)
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
