"""One benchmark worker process; bench/run.py starts these one at a time.

    worker.py MODE --workload NAME --seed N --work DIR \
        [--budget S] [--index I] [--check-gate]

MODE is
  timed    set up, then repeat the workload's timed section for --budget
           seconds, gating every output (budget 0 measures set-up only);
  prepare  write the audit workload's input directory (a quiet run) and gate it;
  traced   one traced simulate + audit cycle on the workload's data.

--check-gate also corrupts copies of the first output and reports the
corruptions the gate missed.

Set-up time runs from just before `import coldwatch` to the first timed
call, so it covers a fresh interpreter's import and building the inputs.
Timed workers also run the host-speed probe (hostspeed.py) after set-up
and after every rep; traced runs run it before and after the traced
cycle. The worker prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

SIMULATE_PHASE = "phase.simulate"
AUDIT_PHASE = "phase.audit"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["timed", "prepare", "traced"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--check-gate", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter_ns()
    import workloads
    from coldwatch import runner

    wl = workloads.workload(args.workload)
    audit_input = args.work / "audit-input"
    base_cfg = workloads.run_config(wl, args.seed, audit_input)
    if args.mode == "timed" and not wl.simulates:
        if not (audit_input / "manifest.json").is_file():
            raise SystemExit(f"audit input missing: {audit_input}")
    setup_s = (time.perf_counter_ns() - t0) / 1e9

    import gate
    import hostspeed
    from coldwatch.model import Thresholds

    ticks = wl.horizon // Thresholds().sample_period
    out: dict = {"setup_s": setup_s}

    if args.mode == "prepare":
        t = time.perf_counter_ns()
        runner.run_simulation(base_cfg)
        out["wall_s"] = (time.perf_counter_ns() - t) / 1e9
        out["problems"] = gate.check_run(audit_input).problems
        out["digests"] = gate.artifact_digests(audit_input)
        out["missed_corruptions"] = gate.missed_corruptions(audit_input, args.work)

    elif args.mode == "timed":
        # The probe right after set-up normalizes set-up; each rep is
        # normalized by the mean of the probes just before and after it.
        probe = out["setup_probe_s"] = hostspeed.probe_s()
        reps = []
        first_digests = None
        start = time.perf_counter()
        last_cycle = 0.0
        while args.budget > 0 and (
            not reps or time.perf_counter() - start + last_cycle <= args.budget
        ):
            cycle = time.perf_counter()
            if wl.simulates:
                run_dir = args.work / f"w{args.index}-r{len(reps)}"
                cfg = dataclasses.replace(base_cfg, out_dir=run_dir)
                timed_call = functools.partial(runner.run_simulation, cfg)
            else:
                timed_call = functools.partial(workloads.audit, audit_input)
            t = time.perf_counter_ns()
            result = timed_call()
            rep = {"wall_s": (time.perf_counter_ns() - t) / 1e9, "ticks": ticks}
            after = hostspeed.probe_s()
            rep["probe_s"] = (probe + after) / 2
            probe = after
            if not reps:
                # Later reps reuse a fragmented heap, so the first one gives
                # the peak of a process that ran the workload once.
                out["peak_rss_mb"] = _peak_rss_mb()
            if wl.simulates:
                facts = gate.check_run(run_dir)
                digests = gate.artifact_digests(run_dir)
                rep["usd_per_day"] = facts.usd_per_day
                rep["alert_latency_max_s"] = facts.alert_latency_max_s
                problems = facts.problems
            else:
                problems = gate.check_audit(result, audit_input)
                digests = {"audit-result": hashlib.sha256(repr(result).encode()).hexdigest()}
                rep["usd_per_day"] = float(result.usd_per_day)
            if first_digests is None:
                first_digests = digests
            elif digests != first_digests:
                problems.append("artifacts differ from the first rep of this seed")
            if wl.simulates and not (args.check_gate and len(reps) == 0):
                shutil.rmtree(run_dir)
            del result  # hold no run state across the next timed call
            rep["problems"] = problems
            reps.append(rep)
            last_cycle = time.perf_counter() - cycle
        out["reps"] = reps
        out["digests"] = first_digests
        if args.check_gate and wl.simulates and reps:
            first_run = args.work / f"w{args.index}-r0"
            out["missed_corruptions"] = gate.missed_corruptions(first_run, args.work)
            shutil.rmtree(first_run)

    else:  # traced
        import tracer

        # On audit the input is produced again, traced, so every layer is seen.
        run_dir = args.work / f"traced{args.index}"
        cfg = dataclasses.replace(base_cfg, out_dir=run_dir)
        tr = tracer.Tracer(run_id=f"{wl.name}-seed{args.seed}-{args.index}")
        probe = hostspeed.probe_s()
        with tr:
            with tr.phase(SIMULATE_PHASE):
                result = runner.run_simulation(cfg)
            with tr.phase(AUDIT_PHASE):
                audit_result = workloads.audit(run_dir)
        out["probe_s"] = (probe + hostspeed.probe_s()) / 2
        problems = gate.check_run(run_dir).problems
        problems += gate.check_audit(audit_result, run_dir)
        timed_span = "runner.run_simulation" if wl.simulates else AUDIT_PHASE
        inclusive, self_ns = tr.totals()
        out["timed_s"] = inclusive[timed_span] / 1e9
        out["per_layer"] = per_layer_metrics(tr, inclusive, self_ns, result)
        out["counts"] = {
            "calls": dict(sorted(tr.calls.items())),
            "counts": dict(sorted(tr.counts.items())),
            "errors": dict(sorted(tr.errors.items())),
        }
        out["self_s"] = {k: v / 1e9 for k, v in sorted(self_ns.items())}
        out["problems"] = problems
        out["digests"] = gate.artifact_digests(run_dir)
        spans_dir = args.work.parent / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans_file = spans_dir / f"{wl.name}-{args.index}.csv.gz"  # latest run only
        out["spans"] = tr.write_spans(spans_file)
        out["spans_file"] = str(spans_file)
        shutil.rmtree(run_dir)

    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


def per_layer_metrics(tr, inclusive: dict, self_ns: dict, result) -> dict[str, float]:
    def s(name: str) -> float:
        return inclusive.get(name, 0) / 1e9

    def per(name: str, n: int) -> float:
        return inclusive.get(name, 0) / 1e3 / n if n else 0.0

    calls, counts = tr.calls, tr.counts
    submits = calls["ledger.submit"]
    rejected = sum(n for k, n in tr.errors.items() if k.startswith("ledger.submit:"))
    new_entries = len(result.ledger.entries)
    return {
        "sensor.generate_trace_s": s("sensor.generate_trace"),
        "sensor.write_trace_s": s("sensor.write_trace"),
        "sensor.readings": counts["sensor.readings"],
        "sensor.us_per_reading": per("sensor.generate_trace", counts["sensor.readings"]),
        "clock.schedule_calls": calls["clock.schedule"],
        "clock.schedule_s": s("clock.schedule"),
        "engine.step_s": s("engine.step"),
        "engine.steps": calls["engine.step"],
        "engine.events": counts["engine.events"],
        "engine.us_per_step": per("engine.step", calls["engine.step"]),
        "runner.event_to_json_s": s("runner.event_to_json"),
        "runner.event_lines": calls["runner.event_to_json"],
        "runner.self_s": self_ns.get("runner.run_simulation", 0) / 1e9,
        "runner.events_from_log_s": s("runner.events_from_log"),
        "outbox.add_row_s": s("outbox.add_row"),
        "outbox.enqueue_s": s("outbox.enqueue"),
        "outbox.drain_s": s("outbox.drain"),
        "outbox.compact_s": s("outbox.compact"),
        "outbox.open_s": s("outbox.open"),
        "outbox.drains": calls["outbox.drain"],
        "outbox.retries": counts["outbox.retries"],
        "storage.append_s": s("storage.append"),
        "storage.appends": calls["storage.append"],
        "storage.bytes_appended": counts["storage.bytes_appended"],
        "storage.rewrite_s": s("storage.rewrite"),
        "ledger.submit_s": s("ledger.submit"),
        "ledger.submits": submits,
        "ledger.outage_rejections": tr.errors["ledger.submit:LedgerOutage"],
        "ledger.duplicate_acks": submits - rejected - new_entries,
        "ledger.useful_submit_ratio": new_entries / submits if submits else 0.0,
        "ledger.confirm_lag_max_s": counts["ledger.confirm_lag_max_s"],
        "ledger.load_s": s("ledger.load"),
        "ledger.verify_s": s("ledger.verify"),
        "ledger.cost_s": s("ledger.cost"),
        "reports.build_s": s("reports.build_report"),
        "reports.rows": counts["reports.rows"],
        "reports.verify_s": s("reports.verify"),
        "alerts.dispatch_s": s("alerts.dispatch"),
        "alerts.flush_s": s("alerts.flush"),
        "alerts.flush_calls": calls["alerts.flush"],
        "alerts.deliveries": len(result.deliveries),
        "energy.interval_s": s("energy.interval"),
        "energy.saving_s": s("energy.saving"),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
