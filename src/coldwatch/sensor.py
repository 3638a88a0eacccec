"""Synthetic sensor traces: base profile + door-opening spikes + noise.

Replaces the physical temperature/humidity sensor with deterministic,
seeded generation so every run is reproducible. Traces round-trip
through a CSV format for regression replay.
"""

from __future__ import annotations

import csv
import enum
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .model import (
    HUM_MAX_DECIP,
    HUM_MIN_DECIP,
    TEMP_MAX_DECIC,
    TEMP_MIN_DECIC,
    Reading,
    Thresholds,
    Timestamp,
)

TRACE_HEADER = ["timestamp", "device_id", "temp_decic", "hum_decip"]


class InvalidScenario(ValueError):
    """Scenario windows or parameters inconsistent with the horizon."""


class TraceError(ValueError):
    """Base for trace replay failures; carries the offending file line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ParseError(TraceError):
    pass


class NonMonotonicTimestamp(TraceError):
    pass


class ScenarioKind(enum.Enum):
    NORMAL_DAY = "normal"
    BREACH_DAY = "breach"
    PEAK_HOURS = "peak"
    REPLAY = "replay"


class FaultKind(enum.Enum):
    SENSOR_DROPOUT = "sensor_dropout"
    PROCESS_CRASH = "process_crash"
    LEDGER_OUTAGE = "ledger_outage"


@dataclass(frozen=True)
class FaultSpec:
    kind: FaultKind
    start: Timestamp
    end: Timestamp

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise InvalidScenario(f"fault window must have start < end, got {self}")


@dataclass(frozen=True)
class NoiseModel:
    """Truncated symmetric sensor noise: every deviation is uniform in
    [-bound, +bound] fixed-point steps. Defaults match a 0.5 C / 2 %RH
    accuracy envelope."""

    temp_bound_decic: int = 5
    hum_bound_decip: int = 20


@dataclass(frozen=True)
class SpikeWindow:
    """Rectangular delta applied while active (door-opening surge)."""

    start: Timestamp
    end: Timestamp
    temp_delta_decic: int = 0
    hum_delta_decip: int = 0

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise InvalidScenario(f"spike window must have start < end, got {self}")


@dataclass(frozen=True)
class BreachWindow:
    """Forces temperature to a fixed value while active (noise still applies)."""

    start: Timestamp
    end: Timestamp
    forced_temp_decic: int = 85

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise InvalidScenario(f"breach window must have start < end, got {self}")


@dataclass(frozen=True)
class ScenarioSpec:
    kind: ScenarioKind
    seed: int = 0
    base_temp_decic: int = 40
    base_hum_decip: int = 520
    noise: NoiseModel = field(default_factory=NoiseModel)
    spike_windows: tuple[SpikeWindow, ...] = ()
    breach_window: BreachWindow | None = None
    faults: tuple[FaultSpec, ...] = ()

    def dropout_windows(self) -> list[tuple[Timestamp, Timestamp]]:
        return [(f.start, f.end) for f in self.faults if f.kind is FaultKind.SENSOR_DROPOUT]


def _in_window(ts: Timestamp, start: Timestamp, end: Timestamp) -> bool:
    # Windows are half-open [start, end).
    return start <= ts < end


def sample_ticks(start: Timestamp, horizon: int, period: int) -> list[Timestamp]:
    """Sample instants for a run: one period after start, through start+horizon."""
    return [start + period * k for k in range(1, horizon // period + 1)]


def generate_trace(
    spec: ScenarioSpec,
    thresholds: Thresholds,
    horizon: int,
    start: Timestamp = 0,
    device_id: str = "fridge-1",
) -> list[Reading]:
    """One Reading per sample tick, skipping sensor-dropout windows.

    value = base + active spike deltas (+ breach override) + seeded noise,
    clamped to the sensor envelope. Deterministic in spec.seed.
    """
    if horizon < 0:
        raise InvalidScenario("horizon must be >= 0")
    end = start + horizon
    for w in spec.spike_windows:
        if w.start < start or w.end > end:
            raise InvalidScenario(f"spike window {w} exceeds horizon [{start}, {end}]")
    if spec.breach_window is not None:
        bw = spec.breach_window
        if bw.start < start or bw.end > end:
            raise InvalidScenario(f"breach window {bw} exceeds horizon [{start}, {end}]")
    if spec.kind is ScenarioKind.NORMAL_DAY and not spec.spike_windows:
        _check_normal_day_inside(spec, thresholds)

    rng = random.Random(f"{spec.seed}:trace")
    dropouts = spec.dropout_windows()
    readings: list[Reading] = []
    for ts in sample_ticks(start, horizon, thresholds.sample_period):
        if any(_in_window(ts, s, e) for s, e in dropouts):
            continue
        temp = spec.base_temp_decic
        hum = spec.base_hum_decip
        for w in spec.spike_windows:
            if _in_window(ts, w.start, w.end):
                temp += w.temp_delta_decic
                hum += w.hum_delta_decip
        if spec.breach_window is not None and _in_window(
            ts, spec.breach_window.start, spec.breach_window.end
        ):
            temp = spec.breach_window.forced_temp_decic
        if spec.noise.temp_bound_decic:
            temp += rng.randint(-spec.noise.temp_bound_decic, spec.noise.temp_bound_decic)
        if spec.noise.hum_bound_decip:
            hum += rng.randint(-spec.noise.hum_bound_decip, spec.noise.hum_bound_decip)
        temp = max(TEMP_MIN_DECIC, min(TEMP_MAX_DECIC, temp))
        hum = max(HUM_MIN_DECIP, min(HUM_MAX_DECIP, hum))
        readings.append(Reading(device_id=device_id, at=ts, temp_decic=temp, hum_decip=hum))
    return readings


def _check_normal_day_inside(spec: ScenarioSpec, thresholds: Thresholds) -> None:
    t_lo = spec.base_temp_decic - spec.noise.temp_bound_decic
    t_hi = spec.base_temp_decic + spec.noise.temp_bound_decic
    h_lo = spec.base_hum_decip - spec.noise.hum_bound_decip
    h_hi = spec.base_hum_decip + spec.noise.hum_bound_decip
    if not (
        thresholds.temp_min_decic < t_lo
        and t_hi < thresholds.temp_max_decic
        and thresholds.hum_min_decip < h_lo
        and h_hi < thresholds.hum_max_decip
    ):
        raise InvalidScenario(
            "normal-day base +/- noise must stay strictly inside the thresholds bands"
        )


def write_trace(readings: Iterable[Reading], path: Path) -> int:
    """Write the canonical trace CSV (UTF-8, LF). Returns the row count."""
    n = 0
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(TRACE_HEADER)
        for r in readings:
            w.writerow([r.at, r.device_id, r.temp_decic, r.hum_decip])
            n += 1
    return n


def replay_trace(source: Path | Iterable[str]) -> list[Reading]:
    """Parse a trace CSV back into Readings.

    Raises ParseError / NonMonotonicTimestamp with the offending file line
    number (header is line 1).
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8", newline="") as f:
            return _parse_trace(f)
    return _parse_trace(source)


def _parse_trace(lines: Iterable[str]) -> list[Reading]:
    reader = csv.reader(lines)
    readings: list[Reading] = []
    prev_ts: Timestamp | None = None
    for line_no, row in enumerate(reader, start=1):
        if line_no == 1:
            if row != TRACE_HEADER:
                raise ParseError(line_no, f"bad header {row!r}")
            continue
        if not row:
            continue
        if len(row) != 4:
            raise ParseError(line_no, f"expected 4 fields, got {len(row)}")
        try:
            ts = int(row[0])
            reading = Reading(
                device_id=row[1], at=ts, temp_decic=int(row[2]), hum_decip=int(row[3])
            )
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from exc
        if prev_ts is not None and ts < prev_ts:
            raise NonMonotonicTimestamp(line_no, f"{ts} after {prev_ts}")
        prev_ts = ts
        readings.append(reading)
    return readings


# Built-in scenarios used by the CLI. Placements are fixed wall-clock times
# within the run's first day, so each has a minimum duration.

BREACH_MIN_HORIZON = 36000  # breach window ends 09:20; allow resolution + slack
PEAK_MIN_HORIZON = 79200  # second peak window ends 21:30


def normal_day(seed: int = 0) -> ScenarioSpec:
    return ScenarioSpec(kind=ScenarioKind.NORMAL_DAY, seed=seed)


def breach_day(start: Timestamp, seed: int = 0) -> ScenarioSpec:
    """One sustained over-temperature episode, 08:00-09:20, forced to 8.5 C."""
    return ScenarioSpec(
        kind=ScenarioKind.BREACH_DAY,
        seed=seed,
        breach_window=BreachWindow(start=start + 28800, end=start + 33600),
    )


def peak_hours(start: Timestamp, seed: int = 0) -> ScenarioSpec:
    """Lunch and dinner door-opening surges; stays inside the default bands."""
    return ScenarioSpec(
        kind=ScenarioKind.PEAK_HOURS,
        seed=seed,
        spike_windows=(
            SpikeWindow(start=start + 41400, end=start + 50400, temp_delta_decic=12, hum_delta_decip=80),
            SpikeWindow(start=start + 66600, end=start + 77400, temp_delta_decic=12, hum_delta_decip=80),
        ),
    )


def scenario_for(
    name: str, start: Timestamp, horizon: int, seed: int
) -> ScenarioSpec:
    if name == ScenarioKind.NORMAL_DAY.value:
        return normal_day(seed)
    if name == ScenarioKind.BREACH_DAY.value:
        if horizon < BREACH_MIN_HORIZON:
            raise InvalidScenario(
                f"breach scenario needs at least {BREACH_MIN_HORIZON} s of horizon"
            )
        return breach_day(start, seed)
    if name == ScenarioKind.PEAK_HOURS.value:
        if horizon < PEAK_MIN_HORIZON:
            raise InvalidScenario(
                f"peak scenario needs at least {PEAK_MIN_HORIZON} s of horizon"
            )
        return peak_hours(start, seed)
    raise InvalidScenario(f"unknown scenario {name!r}")

