"""The benchmark's traced run must still see every layer of a simulation.

bench/tracer.py patches coldwatch entry points by name. If the run loop
stops calling one of them, or calls it under another name, the per-layer
metrics silently read 0; this test fails instead.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402
from coldwatch import runner  # noqa: E402
from coldwatch.engine import MonitorEngine  # noqa: E402
from coldwatch.sensor import DROPPED  # noqa: E402

# Span names of tracer.ENTRY_POINTS that a simulation (not an audit) calls.
SIMULATE_SPANS = [
    "runner.run_simulation",
    "sensor.generate_trace",
    "sensor.write_trace",
    "runner.event_to_json",
    "reports.build_report",
    "clock.schedule",
    "engine.step",
    "outbox.open",
    "outbox.add_row",
    "outbox.enqueue",
    "outbox.drain",
    "outbox.compact",
    "storage.append",
    "storage.rewrite",
    "ledger.submit",
    "alerts.dispatch",
    "alerts.flush",
]


def test_traced_incident_day_sees_every_simulate_layer(tmp_path, monkeypatch):
    # The run loop writes every SampleTaken line straight from the trace
    # columns, without event_to_json; the manifest counts them. Some come
    # from folded stretches. No LocalLogWritten line goes through
    # event_to_json either: one writer, _Run._store_records, gives the
    # lines of every record, folded or stepped.
    folded, run_records = [], []
    fold = MonitorEngine.fold

    def counted_fold(self, trace, i, stop):
        j, records = fold(self, trace, i, stop)
        folded.append(sum(temp != DROPPED for temp in trace.temps[i:j]))
        run_records.append(len(records))
        return j, records

    monkeypatch.setattr(MonitorEngine, "fold", counted_fold)
    # One incident day: excursions, alerts, an outage (retries) and a crash.
    wl = workloads.Workload("incident", days=1, simulates=True)
    run_dir = tmp_path / "run"
    tr = tracer.Tracer(run_id="test")
    with tr:
        result = runner.run_simulation(workloads.run_config(wl, seed=1, out_dir=run_dir))

    assert [name for name in SIMULATE_SPANS if tr.calls[name] == 0] == []
    assert tr.counts["sensor.readings"] == result.manifest["counters"]["samples"]
    lines = (run_dir / "events.log").read_text(encoding="utf-8").splitlines()
    assert sum(folded) > 0 and sum(run_records) > 0
    counters = result.manifest["counters"]
    assert tr.calls["runner.event_to_json"] + counters["samples"] + counters["local_records"] == len(
        lines
    )
    assert not tr.errors.keys() - {"ledger.submit:LedgerOutage"}


# Span names of tracer.ENTRY_POINTS that the audit workload calls.
AUDIT_SPANS = [
    "runner.events_from_log",
    "energy.interval",
    "energy.saving",
    "ledger.load",
    "ledger.verify",
    "ledger.cost",
    "reports.verify",
]


def test_traced_audit_of_a_day_sees_every_read_layer(tmp_path):
    wl = workloads.Workload("audit", days=1, simulates=False)
    run_dir = tmp_path / "run"
    runner.run_simulation(workloads.run_config(wl, seed=1, out_dir=run_dir))
    tr = tracer.Tracer(run_id="test")
    with tr:
        workloads.audit(run_dir)

    assert [name for name in AUDIT_SPANS if tr.calls[name] == 0] == []
    assert not tr.errors
