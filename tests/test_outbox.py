import struct

import pytest
from hypothesis import given, settings, strategies as st

from coldwatch.ledger import AlertPayload, Ledger, LedgerKind
from coldwatch.outbox import ItemState, Outbox

OWNER = "owner-key"
DEV = "fridge-1"


class SimulatedCrash(Exception):
    pass


def payload(at):
    return AlertPayload(episode_id=at, temp_decic=85, hum_decip=520)


@pytest.fixture
def open_outbox(tmp_path):
    """Opens outboxes (default path tmp_path/outbox.bin) and closes them all."""
    opened = []

    def open_(path=tmp_path / "outbox.bin", **kwargs):
        box = Outbox(path, **kwargs)
        opened.append(box)
        return box

    yield open_
    for box in opened:
        box.close()


def enqueue_n(box, n, t0=1000):
    for k in range(n):
        box.enqueue(LedgerKind.ALERT, DEV, t0 + k, payload(t0 + k))


class TestEnqueue:
    def test_seq_assignment_is_dense(self, open_outbox):
        box = open_outbox()
        a = box.enqueue(LedgerKind.ALERT, DEV, 100, payload(100))
        b = box.enqueue(LedgerKind.ALERT, DEV, 200, payload(200))
        assert (a.request.seq, b.request.seq) == (0, 1)
        assert a.state is ItemState.PENDING

    def test_items_are_durable_before_any_submission(self, open_outbox):
        box = open_outbox()
        enqueue_n(box, 3)
        box.close()
        reopened = open_outbox()
        assert [i.request.seq for i in reopened.items()] == [0, 1, 2]
        assert all(i.state is ItemState.PENDING for i in reopened.items())


class TestDrain:
    def test_healthy_ledger_confirms_everything(self, open_outbox):
        box = open_outbox()
        ledger = Ledger(OWNER)
        enqueue_n(box, 5)
        result = box.drain(ledger, OWNER, now=2000)
        assert result.retry_at is None
        assert len(result.confirmed) == 5
        assert len(ledger.entries) == 5
        assert box.pending_count() == 0

    def test_outage_backoff_schedule(self, open_outbox):
        box = open_outbox()
        ledger = Ledger(OWNER)
        ledger.set_fault_windows([(0, 10_000)])
        enqueue_n(box, 2)
        now = 2000
        delays = []
        for _ in range(5):
            result = box.drain(ledger, OWNER, now=now)
            assert result.retry_at is not None
            delays.append(result.retry_at - now)
            now = result.retry_at
        assert delays == [30, 60, 120, 120, 120]
        # Outage ends; everything confirms exactly once, in seq order.
        result = box.drain(ledger, OWNER, now=10_000)
        assert result.retry_at is None
        assert [e.seq for e in ledger.entries] == [0, 1]

    def test_items_confirm_in_seq_order(self, open_outbox):
        box = open_outbox()
        ledger = Ledger(OWNER)
        enqueue_n(box, 8)
        box.drain(ledger, OWNER, now=5000)
        assert [e.seq for e in ledger.entries] == list(range(8))


class TestRecovery:
    def test_clean_reopen_preserves_state(self, open_outbox):
        box = open_outbox()
        ledger = Ledger(OWNER)
        enqueue_n(box, 4)
        box.drain(ledger, OWNER, now=2000)
        enqueue_n(box, 2, t0=3000)
        box.close()
        reopened = open_outbox()
        states = [i.state for i in reopened.items()]
        assert states.count(ItemState.CONFIRMED) == 4
        assert states.count(ItemState.PENDING) == 2

    def test_crash_between_ack_and_confirm_is_idempotent(self, open_outbox):
        calls = {"n": 0}

        def crash_before_confirm(stage, device, seq):
            if stage == "confirm:pre":
                calls["n"] += 1
                raise SimulatedCrash

        box = open_outbox(fault_hook=crash_before_confirm)
        ledger = Ledger(OWNER)
        enqueue_n(box, 1)
        with pytest.raises(SimulatedCrash):
            box.drain(ledger, OWNER, now=2000)
        assert len(ledger.entries) == 1  # the ledger acked before the crash
        box.close()

        recovered = open_outbox()
        assert recovered.items()[0].state is ItemState.PENDING  # downgraded
        result = recovered.drain(ledger, OWNER, now=2100)
        assert len(result.confirmed) == 1
        assert len(ledger.entries) == 1  # idempotent resubmission, no duplicate
        assert recovered.items()[0].state is ItemState.CONFIRMED

    def test_torn_trailing_record_is_truncated(self, tmp_path, open_outbox):
        path = tmp_path / "outbox.bin"
        box = open_outbox()
        enqueue_n(box, 3)
        box.close()
        with open(path, "ab") as f:
            f.write(struct.pack(">I", 500) + b"torn")  # claims 500 bytes, has 4
        recovered = open_outbox()
        assert recovered.recovery.dropped_bytes == 8
        assert len(recovered.items()) == 3

    def test_corrupt_crc_truncates_from_that_record(self, tmp_path, open_outbox):
        path = tmp_path / "outbox.bin"
        box = open_outbox()
        enqueue_n(box, 3)
        box.close()
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01  # flip a bit in the last record's crc
        path.write_bytes(bytes(data))
        recovered = open_outbox()
        assert recovered.recovery.dropped_bytes > 0
        assert len(recovered.items()) == 2

    def test_empty_file_is_an_empty_outbox(self, tmp_path, open_outbox):
        path = tmp_path / "outbox.bin"
        path.touch()
        box = open_outbox()
        assert box.items() == []
        assert box.recovery.dropped_bytes == 0


class TestRows:
    @staticmethod
    def row(at):
        return struct.pack(">q", at) + b"row-body"

    def test_rows_filter_by_window(self, open_outbox):
        box = open_outbox()
        for at in (100, 200, 300):
            box.add_row(self.row(at))
        assert box.rows(150, 300) == [self.row(200)]

    def test_rows_survive_reopen(self, open_outbox):
        box = open_outbox()
        box.add_row(self.row(100))
        box.close()
        assert open_outbox().rows(0, 1000) == [self.row(100)]


class TestCompaction:
    def test_compaction_drops_confirmed_and_old_rows(self, tmp_path, open_outbox):
        path = tmp_path / "outbox.bin"
        box = open_outbox()
        ledger = Ledger(OWNER)
        enqueue_n(box, 5)
        for at in (100, 200, 90_000):
            box.add_row(TestRows.row(at))
        box.drain(ledger, OWNER, now=2000)
        size_before = path.stat().st_size
        box.compact(keep_rows_from=86_400)
        assert path.stat().st_size < size_before
        assert box.items() == []
        assert box.rows(0, 200_000) == [TestRows.row(90_000)]
        # Seq continuity across compaction and reopen.
        item = box.enqueue(LedgerKind.ALERT, DEV, 90_100, payload(90_100))
        assert item.request.seq == 5
        box.close()
        reopened = open_outbox()
        item2 = reopened.enqueue(LedgerKind.ALERT, DEV, 90_200, payload(90_200))
        assert item2.request.seq == 6

    def test_unconfirmed_items_survive_compaction(self, open_outbox):
        box = open_outbox()
        enqueue_n(box, 2)
        box.compact(keep_rows_from=0)
        assert [i.request.seq for i in box.items()] == [0, 1]
        ledger = Ledger(OWNER)
        box.drain(ledger, OWNER, now=3000)
        assert len(ledger.entries) == 2


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 20_000), st.integers(1, 5_000)), min_size=0, max_size=4
    ),
    st.integers(1, 6),
)
def test_every_finite_fault_schedule_eventually_delivers(windows, n):
    """All enqueued items reach Confirmed once the last outage window ends."""
    import tempfile
    from pathlib import Path

    tmp = tempfile.TemporaryDirectory()
    path = Path(tmp.name) / "outbox.bin"
    ledger = Ledger(OWNER)
    ledger.set_fault_windows([(s, s + d) for s, d in windows])
    box = Outbox(path)
    enqueue_n(box, n)
    now = 0
    for _ in range(1000):
        result = box.drain(ledger, OWNER, now=now)
        if result.retry_at is None:
            break
        now = result.retry_at
    else:
        pytest.fail("drain did not converge")
    assert box.pending_count() == 0
    assert sorted(e.at for e in ledger.entries) == [1000 + k for k in range(n)]
    assert ledger.verify_chain().ok
    box.close()
    tmp.cleanup()


class TestExhaustiveCrashPoints:
    """Every enqueue/submit/confirm boundary for a small run; each crash is
    followed by recovery and a full drain, and the ledger must contain each
    request exactly once."""

    STAGES = ("enqueue:pre", "enqueue:post", "submit:marked", "confirm:pre", "confirm:post")

    def test_exactly_once_for_every_crash_point(self, tmp_path):
        n_requests = 3
        # Upper bound on boundary crossings for n requests in this scenario.
        max_points = n_requests * len(self.STAGES) + 5
        for crash_at in range(max_points):
            path = tmp_path / f"outbox-{crash_at}.bin"
            ledger = Ledger(OWNER)
            counter = {"k": 0}

            def hook(stage, device, seq):
                counter["k"] += 1
                if counter["k"] == crash_at + 1:
                    raise SimulatedCrash(stage)

            box = Outbox(path, fault_hook=hook)
            crashed = False
            try:
                enqueue_n(box, n_requests)
                box.drain(ledger, OWNER, now=5000)
            except SimulatedCrash:
                crashed = True
            box.close()

            recovered = Outbox(path)
            # Re-enqueue anything that never reached the store before the
            # crash, as the producer would on replay.
            present = {i.request.at for i in recovered.items()}
            for k in range(n_requests):
                if 1000 + k not in present:
                    recovered.enqueue(LedgerKind.ALERT, DEV, 1000 + k, payload(1000 + k))
            result = recovered.drain(ledger, OWNER, now=6000)
            assert result.retry_at is None

            ats = sorted(e.at for e in ledger.entries)
            assert ats == [1000, 1001, 1002], f"crash point {crash_at} (crashed={crashed})"
            assert ledger.verify_chain().ok
            recovered.close()
