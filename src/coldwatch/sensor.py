"""Synthetic sensor traces: base profile + door-opening spikes + noise.

Replaces the physical temperature/humidity sensor with deterministic,
seeded generation so every run is reproducible. Traces round-trip
through a CSV format for regression replay.
"""

from __future__ import annotations

import csv
import enum
import random
from bisect import bisect_left
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
    csv_field,
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

    def __post_init__(self) -> None:
        for name, bound in vars(self).items():
            if bound < 0:
                raise InvalidScenario(f"{name} must be >= 0")


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


def sample_ticks(start: Timestamp, horizon: int, period: int) -> range:
    """Sample instants for a run: one period after start, through start+horizon."""
    return range(start + period, start + horizon + 1, period)


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
    for w in (*spec.spike_windows, spec.breach_window):
        if w is not None and (w.start < start or w.end > end):
            raise InvalidScenario(f"{w} exceeds horizon [{start}, {end}]")
    for f in spec.faults:
        if f.end <= start or f.start > end:
            raise InvalidScenario(f"fault window {f} does not overlap the run [{start}, {end}]")
    if spec.kind is ScenarioKind.NORMAL_DAY and not spec.spike_windows:
        _check_normal_day_inside(spec, thresholds)

    ticks = sample_ticks(start, horizon, thresholds.sample_period)

    def covered(w) -> range:
        # Windows are half-open [start, end).
        return range(bisect_left(ticks, w.start), bisect_left(ticks, w.end))

    temps: list[int | None] = [spec.base_temp_decic] * len(ticks)
    hums = [spec.base_hum_decip] * len(ticks)
    for w in spec.spike_windows:
        for i in covered(w):
            temps[i] += w.temp_delta_decic
            hums[i] += w.hum_delta_decip
    if spec.breach_window is not None:
        for i in covered(spec.breach_window):
            temps[i] = spec.breach_window.forced_temp_decic
    for f in spec.faults:
        if f.kind is FaultKind.SENSOR_DROPOUT:
            for i in covered(f):
                temps[i] = None

    # Each draw is Random.randint(-bound, bound) inlined: k-bit draws,
    # rejected while >= 2*bound+1, so the sequence is the same. A bound of
    # 0 draws nothing.
    bits = random.Random(f"{spec.seed}:trace").getrandbits
    t_bound, h_bound = spec.noise.temp_bound_decic, spec.noise.hum_bound_decip
    t_n, h_n = 2 * t_bound + 1, 2 * h_bound + 1
    t_k, h_k = t_n.bit_length(), h_n.bit_length()
    readings: list[Reading] = []
    append = readings.append
    for ts, temp, hum in zip(ticks, temps, hums):
        if temp is None:
            continue
        if t_bound:
            r = bits(t_k)
            while r >= t_n:
                r = bits(t_k)
            temp += r - t_bound
        if h_bound:
            r = bits(h_k)
            while r >= h_n:
                r = bits(h_k)
            hum += r - h_bound
        if not TEMP_MIN_DECIC <= temp <= TEMP_MAX_DECIC:
            temp = max(TEMP_MIN_DECIC, min(TEMP_MAX_DECIC, temp))
        if not HUM_MIN_DECIP <= hum <= HUM_MAX_DECIP:
            hum = max(HUM_MIN_DECIP, min(HUM_MAX_DECIP, hum))
        append(Reading(device_id, ts, temp, hum))
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
    """Write the canonical trace CSV (UTF-8, LF). Returns the row count.
    A device id that is not UTF-8 text is a ValueError (see csv_field),
    and the partial file is removed."""
    n = 0
    f = open(path, "w", encoding="utf-8", newline="")
    try:
        with f:
            f.write(",".join(TRACE_HEADER) + "\n")
            for r in readings:
                f.write("%d,%s,%d,%d\n" % (r.at, csv_field(r.device_id), r.temp_decic, r.hum_decip))
                n += 1
    except ValueError:
        Path(path).unlink()
        raise
    return n


def replay_trace(path: Path, ticks: range) -> list[Reading]:
    """Parse a trace CSV back into the Readings of a run over `ticks`.

    Every row must be strictly later than the one before, come from the
    first row's device and fall on one of the sample ticks; a row that
    does not is an error, never a silent drop. Errors carry the offending
    file line number (header is line 1).
    """
    readings: list[Reading] = []
    with open(path, encoding="utf-8", newline="") as f:
        for line_no, row in enumerate(csv.reader(f), start=1):
            if line_no == 1:
                if row != TRACE_HEADER:
                    raise ParseError(line_no, f"bad header {row!r}")
                continue
            if not row:
                continue
            if len(row) != 4:
                raise ParseError(line_no, f"expected 4 fields, got {len(row)}")
            try:
                reading = Reading(
                    device_id=row[1], at=int(row[0]), temp_decic=int(row[2]), hum_decip=int(row[3])
                )
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from exc
            if readings and reading.at <= readings[-1].at:
                raise NonMonotonicTimestamp(line_no, f"{reading.at} after {readings[-1].at}")
            if readings and reading.device_id != readings[0].device_id:
                raise TraceError(
                    line_no, f"device {reading.device_id!r} after {readings[0].device_id!r}"
                )
            if reading.at not in ticks:
                raise TraceError(
                    line_no,
                    f"{reading.at} is not a sample tick of the run: "
                    f"every {ticks.step} s from {ticks.start} through {ticks.stop - 1}",
                )
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

