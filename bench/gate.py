"""Correctness gate for one run directory.

A run counts only if its artifacts hold these invariants:

- the ledger chain verifies and no (device_id, seq) repeats;
- every daily report verifies as Authentic against its on-ledger anchor;
- every manifest counter equals a recount from the artifact files.

No transaction or record count is pinned: fault-handling fixes may change
them on purpose. The event log is recounted with a regex on the `kind`
field rather than through coldwatch's own reader, so a bug there cannot
hide a dropped line.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from coldwatch.energy import DutyPolicy
from coldwatch.ledger import cost_report, load_ledger_entries, observed_days, verify_entries
from coldwatch.model import date_to_ts
from coldwatch.reports import Verdict, verify_report

_KIND = re.compile(r'"kind":"(\w+)"')
_AT = re.compile(r'"at":(-?\d+)')


@dataclass
class RunFacts:
    """Gate verdict plus the simulated figures read off the same files."""

    problems: list[str] = field(default_factory=list)
    usd_per_day: float | None = None
    alert_latency_max_s: int | None = None


def check_run(run_dir: Path) -> RunFacts:
    facts = RunFacts()
    try:
        _check(Path(run_dir), facts)
    except Exception as exc:  # a malformed artifact is a failed run, not a crash
        facts.problems.append(f"unreadable artifacts: {type(exc).__name__}: {exc}")
    return facts


def _check(run_dir: Path, facts: RunFacts) -> None:
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    counters = manifest["counters"]
    device = manifest["device_id"]
    problems = facts.problems

    def expect(name: str, recount: int) -> None:
        if counters[name] != recount:
            problems.append(f"manifest {name}={counters[name]}, recount {recount}")

    entries = load_ledger_entries(run_dir / "ledger.bin")
    chain = verify_entries(entries)
    if not chain.ok:
        problems.append(f"chain broken at {chain.bad_index}: {chain.reason}")
    keys = Counter((e.device_id, e.seq) for e in entries)
    repeats = sorted(k for k, n in keys.items() if n > 1)
    if repeats:
        problems.append(f"repeated (device_id, seq): {repeats[:5]}")
    expect("txs", len(entries))
    days = observed_days(entries)
    if days:
        total = sum((cost_report(entries, d).usd_total for d in days), Fraction(0))
        facts.usd_per_day = float(total / len(days))

    report_files = sorted((run_dir / "reports" / device).glob("*.csv"))
    expect("reports", len(report_files))
    for path in report_files:
        verdict = verify_report(
            path.read_bytes(), entries, day=date_to_ts(path.stem), device_id=device
        )
        if verdict is not Verdict.AUTHENTIC:
            problems.append(f"report {path.name}: {verdict.value}")

    with open(run_dir / "trace.csv", encoding="utf-8") as f:
        expect("samples", sum(1 for _ in f) - 1)

    kinds: Counter[str] = Counter()
    escalations = []
    resolved_critical = 0
    with open(run_dir / "events.log", encoding="utf-8") as f:
        for line in f:
            kind = _KIND.search(line).group(1)
            kinds[kind] += 1
            if kind == "CriticalEscalated":
                escalations.append(int(_AT.search(line).group(1)))
            elif kind == "BreachResolved":
                resolved_critical += json.loads(line)["payload"]["was_critical"]
    expect("samples", kinds["SampleTaken"])
    expect("local_records", kinds["LocalLogWritten"])
    expect("alerts", kinds["CriticalEscalated"])
    expect("alerts", kinds["ImageCaptured"])
    expect("alerts", kinds["AlertDispatched"])
    expect("batches", kinds["BatchAnchored"])
    expect("reports", kinds["DailyReportAnchored"])
    expect("resolutions", resolved_critical)

    with open(run_dir / "messenger.jsonl", encoding="utf-8") as f:
        messages = [json.loads(line) for line in f]
    expect("messages", len(messages))
    alerts = sorted(
        (m for m in messages if m["text"].startswith("ALERT|")),
        key=lambda m: m["dispatched_at"],
    )
    expect("alerts", len(alerts))
    if alerts and len(alerts) == len(escalations):
        facts.alert_latency_max_s = max(
            m["delivered_at"] - at for m, at in zip(alerts, escalations)
        )


def check_audit(result, run_dir: Path) -> list[str]:
    """Invariants of an audit pass (a workloads.AuditResult) over a run
    that passed check_run."""
    manifest = json.loads((Path(run_dir) / "manifest.json").read_text(encoding="utf-8"))
    counters = manifest["counters"]
    problems = []
    if not result.chain_ok:
        problems.append("audit: chain does not verify")
    if result.entries != counters["txs"]:
        problems.append(f"audit: {result.entries} entries, manifest txs={counters['txs']}")
    bad = [name for name, verdict in result.verdicts if verdict != Verdict.AUTHENTIC.value]
    if bad or len(result.verdicts) != counters["reports"]:
        problems.append(f"audit: {len(result.verdicts)} reports, not authentic: {bad[:5]}")
    sensor_s = counters["samples"] * DutyPolicy().sensor_active_s_per_sample
    if result.sensor_active_s != sensor_s:
        problems.append(f"audit: sensor active {result.sensor_active_s} s, expected {sensor_s} s")
    return problems


def artifact_digests(run_dir: Path) -> dict[str, str]:
    """SHA-256 of every file under run_dir, keyed by relative path."""
    run_dir = Path(run_dir)
    return {
        p.relative_to(run_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(run_dir.rglob("*"))
        if p.is_file()
    }


def _flip_ledger_byte(run_dir: Path) -> None:
    path = run_dir / "ledger.bin"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


def _drop_event_line(run_dir: Path) -> None:
    path = run_dir / "events.log"
    lines = path.read_bytes().splitlines(keepends=True)
    del lines[len(lines) // 2]
    path.write_bytes(b"".join(lines))


CORRUPTIONS = {"ledger byte flip": _flip_ledger_byte, "events line drop": _drop_event_line}


def missed_corruptions(run_dir: Path, scratch: Path) -> list[str]:
    """Corrupt copies of a passing run; return the corruptions the gate
    failed to flag. An empty list shows the gate is not vacuous."""
    missed = []
    for name, corrupt in CORRUPTIONS.items():
        copy = Path(scratch) / "corrupt"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(run_dir, copy)
        corrupt(copy)
        if not check_run(copy).problems:
            missed.append(name)
        shutil.rmtree(copy)
    return missed
