"""Duty-cycle energy accounting over a simulated interval.

Each hardware component gets a state timeline derived from the event
log: the sensor (and the controller servicing it) is active for a short
window around each sample, the camera around each capture, the buzzer
around each alert, and the display wakes for a hold period after each
displayed event and is otherwise dimmed. Energy is the exact integer
sum of power x duration over the timeline (microwatts x seconds), so it
is additive over any partition of the interval.

The default power draws are artifact configuration, not measured
values; only the controller band (2500-6000 mW) and the headline
sensor/display savings come from the deployment being modeled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .alerts import DISPLAY_HOLD_S
from .model import EventKind, MonitorEvent, Timestamp

COMPONENTS = ("controller", "sensor", "display", "camera", "buzzer")

DISPLAY_WAKE_KINDS = frozenset(
    {
        EventKind.LOCAL_LOG_WRITTEN,
        EventKind.ALERT_DISPATCHED,
        EventKind.BREACH_RESOLVED,
        EventKind.DAILY_REPORT_ANCHORED,
    }
)


class InconsistentTimeline(ValueError):
    """Activity windows overlap for a single-activity component."""


def _uw(mw: float) -> int:
    return round(mw * 1000)


@dataclass(frozen=True)
class ComponentPower:
    active_mw: float
    idle_mw: float = 0.0

    def __post_init__(self) -> None:
        if not self.active_mw >= self.idle_mw >= 0:
            raise ValueError("need active_mw >= idle_mw >= 0")


@dataclass(frozen=True)
class PowerProfile:
    controller: ComponentPower = ComponentPower(active_mw=6000, idle_mw=2500)
    sensor: ComponentPower = ComponentPower(active_mw=2.5, idle_mw=0)
    display: ComponentPower = ComponentPower(active_mw=200, idle_mw=20)  # dimmed when idle
    camera: ComponentPower = ComponentPower(active_mw=1400, idle_mw=0)
    buzzer: ComponentPower = ComponentPower(active_mw=50, idle_mw=0)


@dataclass(frozen=True)
class DutyPolicy:
    sensor_active_s_per_sample: int = 1
    display_hold_s: int = DISPLAY_HOLD_S
    camera_active_s_per_capture: int = 5
    buzzer_active_s_per_alert: int = 10

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if value < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class ComponentEnergy:
    active_s: int
    energy_uj: int
    baseline_uj: int  # always on: active power throughout the interval

    @property
    def energy_j(self) -> float:
        return self.energy_uj / 1e6

    @property
    def saving(self) -> float:
        return 1 - self.energy_uj / self.baseline_uj if self.baseline_uj else 0.0


@dataclass(frozen=True)
class EnergyBreakdown:
    per_component: dict[str, ComponentEnergy]  # in COMPONENTS order


def _active_seconds(name: str, windows: list[tuple[int, int]], start: int, end: int) -> int:
    """Seconds of [start, end) inside the windows. The display holds the
    last message, so its overlapping windows merge; every other component
    does one thing at a time, so an overlap there is InconsistentTimeline."""
    total = 0
    reach = start  # seconds before this are already counted
    for s, e in sorted(windows):
        if s < start:
            s = start
        if e > end:
            e = end
        if s >= e:
            continue
        if s < reach:
            if name != "display":
                raise InconsistentTimeline(f"{name} windows overlap at {s}")
            s = reach
        if s < e:
            total += e - s
            reach = e
    return total


def activity_windows(
    events: Iterable[MonitorEvent], policy: DutyPolicy
) -> dict[str, list[tuple[int, int]]]:
    windows: dict[str, list[tuple[int, int]]] = {name: [] for name in COMPONENTS}
    sensor = windows["sensor"]
    warm_up = policy.sensor_active_s_per_sample
    for ev in events:
        kind = ev.kind
        if kind is EventKind.SAMPLE_TAKEN:
            # Nearly every event. The sensor warms up ahead of the tick, so
            # the window ends at the reading's timestamp.
            sensor.append((ev.at - warm_up, ev.at))
            continue
        if kind is EventKind.IMAGE_CAPTURED:
            windows["camera"].append((ev.at, ev.at + policy.camera_active_s_per_capture))
        if kind is EventKind.ALERT_DISPATCHED:
            windows["buzzer"].append((ev.at, ev.at + policy.buzzer_active_s_per_alert))
        if kind in DISPLAY_WAKE_KINDS:
            windows["display"].append((ev.at, ev.at + policy.display_hold_s))
    windows["controller"] = sensor  # the controller services each sample
    return windows


def energy_for_interval(
    events: Iterable[MonitorEvent],
    profile: PowerProfile,
    policy: DutyPolicy,
    start: Timestamp,
    end: Timestamp,
) -> EnergyBreakdown:
    if end < start:
        raise ValueError("end must be >= start")
    duration = end - start
    windows = activity_windows(events, policy)
    # The controller services each sample: it is active exactly when the sensor is.
    sensor_s = _active_seconds("sensor", windows["sensor"], start, end)
    per: dict[str, ComponentEnergy] = {}
    for name in COMPONENTS:
        if name in ("controller", "sensor"):
            active_s = sensor_s
        else:
            active_s = _active_seconds(name, windows[name], start, end)
        power = getattr(profile, name)
        energy_uj = active_s * _uw(power.active_mw) + (duration - active_s) * _uw(power.idle_mw)
        per[name] = ComponentEnergy(active_s, energy_uj, duration * _uw(power.active_mw))
    return EnergyBreakdown(per)


def saving_ratio(
    events: Iterable[MonitorEvent],
    profile: PowerProfile,
    policy: DutyPolicy,
    start: Timestamp,
    end: Timestamp,
) -> dict[str, float]:
    """Per-component 1 - duty/baseline; 0 where the baseline is zero."""
    duty = energy_for_interval(events, profile, policy, start, end)
    return {name: c.saving for name, c in duty.per_component.items()}


def render_table(duty: EnergyBreakdown) -> str:
    lines = [f"{'component':<12} {'baseline_j':>14} {'duty_j':>14} {'saving_pct':>11}"]
    for name, c in duty.per_component.items():
        lines.append(
            f"{name:<12} {c.baseline_uj / 1e6:>14.1f} {c.energy_j:>14.1f} {c.saving * 100:>10.1f}%"
        )
    base_uj = sum(c.baseline_uj for c in duty.per_component.values())
    duty_uj = sum(c.energy_uj for c in duty.per_component.values())
    lines.append(f"{'total':<12} {base_uj / 1e6:>14.1f} {duty_uj / 1e6:>14.1f}")
    return "\n".join(lines)


def render_csv(duty: EnergyBreakdown) -> str:
    lines = ["component,baseline_j,duty_j,saving_pct"]
    for name, c in duty.per_component.items():
        lines.append(f"{name},{c.baseline_uj / 1e6:.6f},{c.energy_j:.6f},{c.saving * 100:.1f}")
    return "\n".join(lines) + "\n"
