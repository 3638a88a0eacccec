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

from dataclasses import dataclass, field
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
    display: ComponentPower = ComponentPower(active_mw=200, idle_mw=0)
    camera: ComponentPower = ComponentPower(active_mw=1400, idle_mw=0)
    buzzer: ComponentPower = ComponentPower(active_mw=50, idle_mw=0)

    def component(self, name: str) -> ComponentPower:
        return getattr(self, name)


@dataclass(frozen=True)
class DutyPolicy:
    sensor_active_s_per_sample: int = 1
    display_dim: bool = True
    display_dim_mw: float = 20
    display_hold_s: int = DISPLAY_HOLD_S
    camera_active_s_per_capture: int = 5
    buzzer_active_s_per_alert: int = 10


@dataclass(frozen=True)
class ComponentEnergy:
    active_s: int
    energy_uj: int

    @property
    def energy_j(self) -> float:
        return self.energy_uj / 1e6


@dataclass(frozen=True)
class EnergyBreakdown:
    start: Timestamp
    end: Timestamp
    per_component: dict[str, ComponentEnergy] = field(default_factory=dict)

    @property
    def total_uj(self) -> int:
        return sum(c.energy_uj for c in self.per_component.values())

    @property
    def total_j(self) -> float:
        return self.total_uj / 1e6


def _clip(windows: Iterable[tuple[int, int]], start: int, end: int) -> list[tuple[int, int]]:
    out = []
    for s, e in windows:
        s, e = max(s, start), min(e, end)
        if s < e:
            out.append((s, e))
    return out


def _merged_seconds(windows: list[tuple[int, int]]) -> int:
    total = 0
    cur_start = cur_end = None
    for s, e in sorted(windows):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _exclusive_seconds(windows: list[tuple[int, int]], component: str) -> int:
    ordered = sorted(windows)
    for (s1, e1), (s2, _) in zip(ordered, ordered[1:]):
        if s2 < e1:
            raise InconsistentTimeline(
                f"{component} windows overlap: [{s1}, {e1}) and [{s2}, ...)"
            )
    return sum(e - s for s, e in ordered)


def activity_windows(
    events: Iterable[MonitorEvent], policy: DutyPolicy
) -> dict[str, list[tuple[int, int]]]:
    windows: dict[str, list[tuple[int, int]]] = {name: [] for name in COMPONENTS}
    for ev in events:
        if ev.kind is EventKind.SAMPLE_TAKEN:
            # The sensor (and the controller servicing it) warms up ahead of
            # the tick, so the window ends at the reading's timestamp.
            w = (ev.at - policy.sensor_active_s_per_sample, ev.at)
            windows["sensor"].append(w)
            windows["controller"].append(w)
        elif ev.kind is EventKind.IMAGE_CAPTURED:
            windows["camera"].append((ev.at, ev.at + policy.camera_active_s_per_capture))
        if ev.kind is EventKind.ALERT_DISPATCHED:
            windows["buzzer"].append((ev.at, ev.at + policy.buzzer_active_s_per_alert))
        if ev.kind in DISPLAY_WAKE_KINDS:
            windows["display"].append((ev.at, ev.at + policy.display_hold_s))
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
    per: dict[str, ComponentEnergy] = {}
    for name in COMPONENTS:
        clipped = _clip(windows[name], start, end)
        if name in ("sensor", "camera", "buzzer", "controller"):
            # Single activity at a time; the controller inherits the sensor
            # windows, which cannot overlap while the duty time fits the
            # sample period.
            active_s = _exclusive_seconds(clipped, name)
        else:
            active_s = _merged_seconds(clipped)  # display holds the last message
        power = profile.component(name)
        idle_uw = _uw(power.idle_mw)
        if name == "display" and policy.display_dim:
            idle_uw = _uw(policy.display_dim_mw)
        energy_uj = active_s * _uw(power.active_mw) + (duration - active_s) * idle_uw
        per[name] = ComponentEnergy(active_s=active_s, energy_uj=energy_uj)
    return EnergyBreakdown(start=start, end=end, per_component=per)


def baseline_energy(
    profile: PowerProfile, start: Timestamp, end: Timestamp
) -> dict[str, int]:
    """Always-on comparison: every component at active power throughout."""
    duration = end - start
    return {name: duration * _uw(profile.component(name).active_mw) for name in COMPONENTS}


def saving_ratio(
    events: Iterable[MonitorEvent],
    profile: PowerProfile,
    policy: DutyPolicy,
    start: Timestamp,
    end: Timestamp,
) -> dict[str, float]:
    """Per-component 1 - duty/baseline; 0 where the baseline is zero."""
    duty = energy_for_interval(events, profile, policy, start, end)
    base = baseline_energy(profile, start, end)
    out = {}
    for name in COMPONENTS:
        if base[name] == 0:
            out[name] = 0.0
        else:
            out[name] = 1 - duty.per_component[name].energy_uj / base[name]
    return out


def render_table(
    duty: EnergyBreakdown, base: dict[str, int], savings: dict[str, float]
) -> str:
    lines = [f"{'component':<12} {'baseline_j':>14} {'duty_j':>14} {'saving_pct':>11}"]
    for name in COMPONENTS:
        lines.append(
            f"{name:<12} {base[name] / 1e6:>14.1f} "
            f"{duty.per_component[name].energy_j:>14.1f} {savings[name] * 100:>10.1f}%"
        )
    lines.append(f"{'total':<12} {sum(base.values()) / 1e6:>14.1f} {duty.total_j:>14.1f}")
    return "\n".join(lines)


def render_csv(duty: EnergyBreakdown, base: dict[str, int], savings: dict[str, float]) -> str:
    lines = ["component,baseline_j,duty_j,saving_pct"]
    for name in COMPONENTS:
        lines.append(
            f"{name},{base[name] / 1e6:.6f},"
            f"{duty.per_component[name].energy_j:.6f},{savings[name] * 100:.1f}"
        )
    return "\n".join(lines) + "\n"
