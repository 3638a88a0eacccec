"""Workload inputs and timed sections of the coldwatch benchmark.

Every input is derived from the benchmark seed. The program under test
only receives the resulting ScenarioSpec (with its fault windows) and a
RunConfig; the placement RNG below belongs to the benchmark.

The simulate workloads (quiet, incident) time one `run_simulation`, input
to complete artifact directory. The audit workload times one read-side
pass over a quiet artifact directory, as `coldwatch verify`, `cost` and
`energy` would do it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from coldwatch import energy, ledger, reports, runner
from coldwatch.model import DAY_SECONDS, date_to_ts
from coldwatch.runner import DEFAULT_START, RunConfig
from coldwatch.sensor import FaultKind, FaultSpec, ScenarioKind, ScenarioSpec, SpikeWindow

DEVICE = "fridge-1"

# Horizons. quiet and the audit input span two weeks, so per-tick work
# dominates and peak RSS shows the up-front trace. Every rep lasts about
# a second, so a 30 s run holds 20-50 reps: this sandbox's timing noise
# comes in bursts, and only many reps give a steady median. incident is
# shorter because critical mode makes a tick about 3x dearer.
QUIET_DAYS = 14
INCIDENT_DAYS = 7
AUDIT_DAYS = 14

# incident: about 12 over-temperature excursions a day, one per 2 h slot,
# each long enough (>= 50 min) to escalate at +40 min.
SPIKES_PER_DAY = 12
SPIKE_TEMP_DECIC = 45
SPIKE_MIN_S = 50 * 60
SPIKE_MAX_S = 90 * 60
SPIKE_LEAD_S = 5 * 60
SPIKE_TAIL_S = 15 * 60  # room to resolve before the next slot
OUTAGE_MIN_S = 10 * 60
OUTAGE_MAX_S = 40 * 60
CRASH_S = 30


@dataclass(frozen=True)
class Workload:
    name: str
    days: int
    simulates: bool  # timed section is run_simulation, else an audit pass

    @property
    def horizon(self) -> int:
        return self.days * DAY_SECONDS


def workload(name: str) -> Workload:
    if name == "quiet":
        return Workload(name, QUIET_DAYS, simulates=True)
    if name == "incident":
        return Workload(name, INCIDENT_DAYS, simulates=True)
    if name == "audit":
        return Workload(name, AUDIT_DAYS, simulates=False)
    raise ValueError(f"unknown workload {name!r}")


def incident_scenario(seed: int, start: int, days: int) -> ScenarioSpec:
    """Recurring excursions plus one ledger outage and one crash a day."""
    rng = random.Random(f"bench-incident:{seed}")
    slot = DAY_SECONDS // SPIKES_PER_DAY
    spikes = []
    faults = []
    for d in range(days):
        day = start + d * DAY_SECONDS
        for k in range(SPIKES_PER_DAY):
            length = rng.randrange(SPIKE_MIN_S, SPIKE_MAX_S + 1, 60)
            offset = rng.randrange(SPIKE_LEAD_S, slot - length - SPIKE_TAIL_S + 1, 30)
            at = day + k * slot + offset
            spikes.append(SpikeWindow(at, at + length, temp_delta_decic=SPIKE_TEMP_DECIC))
        # Both faults end well before the day does, so every write is
        # confirmed before the horizon closes.
        outage = day + rng.randrange(3600, 22 * 3600, 30)
        faults.append(
            FaultSpec(
                FaultKind.LEDGER_OUTAGE,
                outage,
                outage + rng.randrange(OUTAGE_MIN_S, OUTAGE_MAX_S + 1, 60),
            )
        )
        crash = day + rng.randrange(3600, 23 * 3600, 30)
        faults.append(FaultSpec(FaultKind.PROCESS_CRASH, crash, crash + CRASH_S))
    return ScenarioSpec(
        kind=ScenarioKind.BREACH_DAY,
        seed=seed,
        spike_windows=tuple(spikes),
        faults=tuple(sorted(faults, key=lambda f: f.start)),
    )


def run_config(wl: Workload, seed: int, out_dir: Path) -> RunConfig:
    """The simulate input of a workload: the incident scenario, or a quiet
    (normal, fault-free) one for quiet and for the audit's input."""
    if wl.name == "incident":
        scenario = incident_scenario(seed, DEFAULT_START, wl.days)
    else:
        scenario = ScenarioSpec(kind=ScenarioKind.NORMAL_DAY, seed=seed)
    return RunConfig(
        out_dir=out_dir,
        scenario=scenario,
        horizon=wl.horizon,
        seed=seed,
        device_id=DEVICE,
        scenario_name=wl.name,
    )


@dataclass(frozen=True)
class AuditResult:
    entries: int
    chain_ok: bool
    verdicts: tuple[tuple[str, str], ...]  # (report file, verdict)
    usd_per_day: Fraction
    annualized_usd: Fraction
    sensor_active_s: int
    savings: tuple[tuple[str, float], ...]


def audit(run_dir: Path) -> AuditResult:
    """What `coldwatch verify`, `cost` and `energy` compute for a run.

    Entry points are looked up on their modules at call time, so a traced
    run sees them.
    """
    entries = ledger.load_ledger_entries(run_dir / "ledger.bin")
    chain = ledger.verify_entries(entries)

    verdicts = []
    for path in sorted((run_dir / "reports" / DEVICE).glob("*.csv")):
        verdict = reports.verify_report(
            path.read_bytes(), entries, day=date_to_ts(path.stem), device_id=DEVICE
        )
        verdicts.append((path.name, verdict.value))

    days = ledger.observed_days(entries)
    total = sum((ledger.cost_report(entries, d).usd_total for d in days), Fraction(0))
    usd_per_day = total / len(days) if days else Fraction(0)
    annual = ledger.annualized_usd(entries)

    events = runner.events_from_log(run_dir / "events.log")
    start = events[0].at - events[0].at % DAY_SECONDS
    end = events[-1].at + (DAY_SECONDS - events[-1].at % DAY_SECONDS) % DAY_SECONDS
    profile, policy = energy.PowerProfile(), energy.DutyPolicy()
    duty = energy.energy_for_interval(events, profile, policy, start, end)
    savings = energy.saving_ratio(events, profile, policy, start, end)

    return AuditResult(
        entries=len(entries),
        chain_ok=chain.ok,
        verdicts=tuple(verdicts),
        usd_per_day=usd_per_day,
        annualized_usd=annual,
        sensor_active_s=duty.per_component["sensor"].active_s,
        savings=tuple(sorted(savings.items())),
    )
