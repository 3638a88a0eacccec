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

import itertools
import math
import sys
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Sequence

from .model import DAY_SECONDS, EventKind, MonitorEvent, Timestamp, collector_paused, day_start

COMPONENTS = ("controller", "sensor", "display", "camera", "buzzer")

# The windows a non-sample event opens at its time: (component, the
# DutyPolicy field that gives the window's length).
_WAKES = {
    EventKind.IMAGE_CAPTURED: (("camera", "camera_active_s_per_capture"),),
    EventKind.ALERT_DISPATCHED: (
        ("buzzer", "buzzer_active_s_per_alert"),
        ("display", "display_hold_s"),
    ),
    EventKind.LOCAL_LOG_WRITTEN: (("display", "display_hold_s"),),
    EventKind.BREACH_RESOLVED: (("display", "display_hold_s"),),
    EventKind.DAILY_REPORT_ANCHORED: (("display", "display_hold_s"),),
}


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
        if not math.isfinite(self.active_mw * 1000):  # _uw's microwatts
            raise ValueError(f"active_mw {self.active_mw} is not a finite number of microwatts")


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
    display_hold_s: int = 10  # the display shows the last message this long, then dims
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


def _sweep(
    events: Iterable[MonitorEvent], policy: DutyPolicy, start: Timestamp | None, end: Timestamp | None
) -> tuple[dict[str, int] | None, Timestamp, Timestamp] | None:
    """Active seconds of [start, end) per component and the interval, in
    one pass that keeps a (reach, active seconds) pair per component; None
    if the events are out of time order.

    A component's windows all have one length, so time order is window
    order. The display holds the last message, so its overlapping windows
    merge; every other component does one thing at a time, so an overlap
    there is InconsistentTimeline. It is raised after the pass, for the
    first such component in COMPONENTS order at its first overlap: a pass
    that meets an event out of time order returns None instead.

    With no interval, start is the first event's UTC midnight (no events:
    no active seconds) and end the midnight at or after the last event, a
    day past start at least. The pass clips nothing at that end, and need
    not: every window starts at or before it, so afterwards each pair drops
    its reach past it, and only an overlap that starts before it counts."""
    if start is None:
        events = iter(events)
        first = next(events, None)
        if first is None:
            return None, 0, 0
        start = day_start(first.at)
        events = itertools.chain((first,), events)
    limit = math.inf if end is None else end
    wakes = {
        kind: tuple((name, getattr(policy, attr)) for name, attr in parts)
        for kind, parts in _WAKES.items()
    }
    state = {name: [start, 0] for name in ("display", "camera", "buzzer")}
    overlaps: dict[str, int] = {}
    sample, warm_up = EventKind.SAMPLE_TAKEN, policy.sensor_active_s_per_sample
    reach, sensor_s = start, 0  # the sensor's pair; seconds before reach are counted
    last = -math.inf
    for ev in events:
        at = ev.at
        if at < last:
            return None
        last = at
        if ev.kind is sample:
            # Nearly every event. The sensor warms up ahead of the tick, so
            # the window ends at the reading's timestamp.
            s = at - warm_up
            if s < start:
                s = start
            e = at if at < limit else limit
            if s < e:
                if s < reach:
                    overlaps.setdefault("sensor", s)
                sensor_s += e - s
                reach = e
            continue
        for name, length in wakes.get(ev.kind, ()):
            s = at if at > start else start
            e = at + length
            if e > limit:
                e = limit
            if s >= e:
                continue
            pair = state[name]
            if s < pair[0]:
                overlaps.setdefault(name, s)
                s = pair[0]
            if s < e:
                pair[0] = e
                pair[1] += e - s
    if end is None:
        end = max(-(-last // DAY_SECONDS) * DAY_SECONDS, start + DAY_SECONDS)
        for pair in state.values():
            pair[1] -= max(pair[0] - end, 0)
    for name in ("sensor", "camera", "buzzer"):
        if overlaps.get(name, end) < end:
            raise InconsistentTimeline(f"{name} windows overlap at {overlaps[name]}")
    # The controller services each sample: it is active exactly when the sensor is.
    active = {"controller": sensor_s, "sensor": sensor_s}
    active.update((name, pair[1]) for name, pair in state.items())
    return active, start, end


def energy_for_interval(
    events: Iterable[MonitorEvent],
    profile: PowerProfile,
    policy: DutyPolicy,
    start: Timestamp | None = None,
    end: Timestamp | None = None,
) -> EnergyBreakdown | None:
    """The energy over [start, end), or with neither given over the whole
    UTC days from the earliest event to the latest; None for no events and
    no interval. Time-ordered events (a written log's are) are swept once;
    others are sorted by time and swept again, so `events` is iterated
    twice then."""
    if (start is None) != (end is None):
        raise TypeError("give both start and end, or neither")
    if start is not None and end < start:
        raise ValueError("end must be >= start")
    swept = _sweep(events, policy, start, end)
    if swept is None:
        swept = _sweep(collector_paused(sorted, events, key=attrgetter("at")), policy, start, end)
    active, start, end = swept
    if active is None:
        return None
    duration = end - start
    per: dict[str, ComponentEnergy] = {}
    for name in COMPONENTS:
        active_s = active[name]
        power = getattr(profile, name)
        energy_uj = active_s * _uw(power.active_mw) + (duration - active_s) * _uw(power.idle_mw)
        per[name] = ComponentEnergy(active_s, energy_uj, duration * _uw(power.active_mw))
    # Joules are rendered as floats, and no component's energy exceeds the
    # total baseline.
    if sum(c.baseline_uj for c in per.values()) > sys.float_info.max:
        raise ValueError(
            f"the [power] active draws over {duration} s come to more joules than a float holds"
        )
    return EnergyBreakdown(per)


def saving_ratio(
    events: Sequence[MonitorEvent],
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
