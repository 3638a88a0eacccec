"""Breach-escalation state machine: Normal -> BreachPending -> Critical.

The engine consumes one tick per sample period (a Reading, or None during
sensor dropout) and emits MonitorEvents that drive local logging, image
capture, alerting and ledger writes. It is a pure function of the tick
stream and thresholds: no wall clock, no randomness except the seeded
image digest.

Cadence rules:
  - Normal/BreachPending: one local record at the first tick, then every
    normal_log_period on a fixed grid. The grid does not drift when an
    episode or dropout delays a record.
  - Critical: a record every critical_log_period (every sample with the
    defaults); records landing on grid instants count as the scheduled ones.
  - Batch anchors fire every batch_anchor_period from the run origin,
    whether or not a reading arrived on that tick.
  - A quiet tick emits no event: it comes before the next batch anchor
    and the next record instant (the grid point, or in Critical the last
    record plus critical_log_period), and in BreachPending before the
    escalation instant. Its reading is absent, in band (Normal), or not
    strictly inside the hysteresis band (an episode), where it only
    breaks a debounce streak. `fold` takes a run of quiet ticks at once.
  - In Critical mode `fold` also takes the record ticks: a run stops
    before the next batch anchor and at the first reading strictly
    inside the hysteresis band, which starts a resolution streak. Its
    records come back as tuples, with the windows `step` would give.
    The sample itself and a folded record are logged by the caller.

Escalation fires at the first out-of-range sample with at least
breach_escalation seconds elapsed since the episode started (closed
bound: 40 minutes exactly qualifies). An episode ends after two
consecutive samples strictly inside the thresholds shrunk by the
hysteresis margin; the margin is applied in each quantity's own tenths
units. Brief in-range excursions shorter than that debounce neither end
the episode nor reset its escalation timer.
"""

from __future__ import annotations

import enum
import hashlib
import math
from bisect import bisect_left
from dataclasses import dataclass

from .model import EventKind, MonitorEvent, Reading, Thresholds, Timestamp
from .sensor import DROPPED, Trace


class OutOfOrderSample(ValueError):
    """Tick timestamps regressed."""


def out_of_band(temp: int, hum: int, th: Thresholds) -> bool:
    """Closed-interval band check: boundary values are in band; either
    quantity outside its band puts the sample out of band."""
    return not (th.temp_min_decic <= temp <= th.temp_max_decic
                and th.hum_min_decip <= hum <= th.hum_max_decip)


def _inside_hysteresis_band(temp: int, hum: int, th: Thresholds) -> bool:
    h = th.hysteresis_decic
    return (
        th.temp_min_decic + h < temp < th.temp_max_decic - h
        and th.hum_min_decip + h < hum < th.hum_max_decip - h
    )


RESOLVE_DEBOUNCE_SAMPLES = 2

_EMPTY_WINDOW = (math.inf, -math.inf, 0, 0)  # a record window's min, max, sum and count

ALERT_SINKS = ("buzzer", "display", "messenger")


class MonitorMode(enum.Enum):
    NORMAL = "Normal"
    BREACH_PENDING = "BreachPending"
    CRITICAL = "Critical"


@dataclass(frozen=True)
class LocalRecord:
    """Periodic local log entry with window extremes since the last record."""

    at: Timestamp
    reading: Reading
    mode: MonitorMode
    window_min_temp_decic: int
    window_max_temp_decic: int
    window_avg_temp_decic: int


class MonitorEngine:
    """One state machine per device. Single-threaded by contract."""

    def __init__(
        self,
        thresholds: Thresholds,
        device_id: str,
        origin: Timestamp,
        image_seed: int = 0,
    ):
        self.thresholds = thresholds
        self.device_id = device_id
        self.origin = origin
        self.image_seed = image_seed
        self.mode = MonitorMode.NORMAL
        self.episode_start: Timestamp | None = None
        self.consecutive_in_range = 0
        self.last_local_log: Timestamp | None = None
        self.last_seen: Timestamp | None = None
        # Record grid is anchored at the first tick; anchor grid at the origin.
        self._record_grid_origin = origin + thresholds.sample_period
        self._next_scheduled_log = self._record_grid_origin
        self._next_anchor = origin + thresholds.batch_anchor_period
        self._window = _EMPTY_WINDOW

    def step(self, reading: Reading | None, now: Timestamp) -> list[MonitorEvent]:
        if self.last_seen is not None and now < self.last_seen:
            raise OutOfOrderSample(f"tick at {now} after {self.last_seen}")
        self.last_seen = now

        # Each helper is entered only when it has something to do: a quiet
        # Normal-mode tick between record and anchor instants emits nothing.
        events: list[MonitorEvent] = []
        if reading is not None:
            if reading.at != now:
                raise OutOfOrderSample(f"reading at {reading.at} fed to tick {now}")
            self._widen([reading.temp_decic])
            out = out_of_band(reading.temp_decic, reading.hum_decip, self.thresholds)
            if out or self.mode is not MonitorMode.NORMAL:
                events.extend(self._transition(reading, now, out))
            if self.mode is MonitorMode.CRITICAL or now >= self._next_scheduled_log:
                events.extend(self._local_log(reading, now))
        if now >= self._next_anchor:
            events.append(self._batch_anchor(now))
        return events

    def fold(self, trace: Trace, i: int, stop: Timestamp) -> tuple[int, list[tuple]]:
        """Take the ticks of `trace` from index i on, each before `stop`, for
        which `step` would return no event, or in Critical mode only a
        record, as `step` would. Return the index of the first tick not
        taken and the records, each as (at, temp, hum, window min, max,
        floor average)."""
        th, ticks, mode = self.thresholds, trace.ticks, self.mode
        if mode is MonitorMode.CRITICAL:
            return self._critical_run(trace, i, bisect_left(ticks, min(stop, self._next_anchor), i))
        if mode is MonitorMode.NORMAL:
            due = self._next_scheduled_log
        else:  # escalation can fire from the escalation instant on
            due = min(self._next_scheduled_log, self.episode_start + th.breach_escalation)
        j = bisect_left(ticks, min(stop, due, self._next_anchor), i)
        # In Normal mode a reading out of band starts an episode; during one,
        # a reading inside the hysteresis band counts toward its end.
        ends = out_of_band if mode is MonitorMode.NORMAL else _inside_hysteresis_band
        temps, hums = trace.temps, trace.hums
        j = next((k for k in range(i, j) if temps[k] != DROPPED and ends(temps[k], hums[k], th)), j)
        if j > i:
            self.last_seen = ticks[j - 1]
            taken = [temp for temp in temps[i:j] if temp != DROPPED]
            if taken:  # each taken reading breaks a debounce streak
                self.consecutive_in_range = 0
            self._widen(taken)
        return j, []

    def _critical_run(self, trace: Trace, i: int, j: int) -> tuple[int, list[tuple]]:
        """fold in Critical mode, for the ticks before index j: up to the
        first reading strictly inside the hysteresis band, which starts a
        resolution streak. A record falls due critical_log_period after the
        last one."""
        th, ticks, temps, hums = self.thresholds, trace.ticks, trace.temps, trace.hums
        last, lo, hi, total, count = self.last_local_log, *self._window
        records = []
        for k in range(i, j):
            temp, hum = temps[k], hums[k]
            if temp == DROPPED:
                continue
            if _inside_hysteresis_band(temp, hum, th):
                j = k
                break
            self.consecutive_in_range = 0  # out of band or neutral
            lo, hi, total, count = min(lo, temp), max(hi, temp), total + temp, count + 1
            if ticks[k] - last >= th.critical_log_period:
                last = ticks[k]
                records.append((last, temp, hum, lo, hi, total // count))
                lo, hi, total, count = _EMPTY_WINDOW
        if j > i:
            self.last_seen = ticks[j - 1]
            self._window = lo, hi, total, count
        if records:
            self._recorded(last)
        return j, records

    def _widen(self, temps: list[int]) -> None:
        lo, hi, total, count = self._window
        self._window = min([lo, *temps]), max([hi, *temps]), total + sum(temps), count + len(temps)

    # -- state transitions ------------------------------------------------

    def _transition(self, reading: Reading, now: Timestamp, out: bool) -> list[MonitorEvent]:
        """Entered only for an out-of-band sample or outside Normal mode
        (see step), so in Normal mode the sample starts an episode."""
        if self.mode is MonitorMode.NORMAL:
            self.mode = MonitorMode.BREACH_PENDING
            self.episode_start = now
            return [
                MonitorEvent(EventKind.BREACH_STARTED, now, {"episode_id": now, "reading": reading})
            ]

        # BreachPending or Critical.
        th = self.thresholds
        events: list[MonitorEvent] = []
        assert self.episode_start is not None
        if out:
            self.consecutive_in_range = 0
            if (
                self.mode is MonitorMode.BREACH_PENDING
                and now - self.episode_start >= th.breach_escalation
            ):
                self.mode = MonitorMode.CRITICAL
                episode = self.episode_start
                events.append(
                    MonitorEvent(
                        EventKind.CRITICAL_ESCALATED,
                        now,
                        {"episode_id": episode, "since": episode, "reading": reading},
                    )
                )
                events.append(
                    MonitorEvent(
                        EventKind.IMAGE_CAPTURED,
                        now,
                        {
                            "episode_id": episode,
                            "content_sha256": self._image_digest(episode, now),
                        },
                    )
                )
                events.append(
                    MonitorEvent(
                        EventKind.ALERT_DISPATCHED,
                        now,
                        {
                            "episode_id": episode,
                            "severity": "critical",
                            "sinks": list(ALERT_SINKS),
                            "reading": reading,
                        },
                    )
                )
        elif _inside_hysteresis_band(reading.temp_decic, reading.hum_decip, th):
            self.consecutive_in_range += 1
            if self.consecutive_in_range >= RESOLVE_DEBOUNCE_SAMPLES:
                episode = self.episode_start
                events.append(
                    MonitorEvent(
                        EventKind.BREACH_RESOLVED,
                        now,
                        {
                            "episode_id": episode,
                            "since": episode,
                            "duration": now - episode,
                            "was_critical": self.mode is MonitorMode.CRITICAL,
                            "reading": reading,
                        },
                    )
                )
                self.mode = MonitorMode.NORMAL
                self.episode_start = None
                self.consecutive_in_range = 0
        else:
            # Inside the raw band but within the hysteresis margin: neutral,
            # breaks the debounce streak without sustaining the breach.
            self.consecutive_in_range = 0
        return events

    # -- periodic emissions ------------------------------------------------

    def _local_log(self, reading: Reading, now: Timestamp) -> list[MonitorEvent]:
        """Entered only in Critical mode or with a grid record due (see
        step), so only the Critical cadence is tested here."""
        th = self.thresholds
        if (
            self.mode is MonitorMode.CRITICAL
            and self.last_local_log is not None
            and now - self.last_local_log < th.critical_log_period
        ):
            return []
        low, high, total, count = self._window
        record = LocalRecord(
            at=now,
            reading=reading,
            mode=self.mode,
            window_min_temp_decic=low,
            window_max_temp_decic=high,
            window_avg_temp_decic=total // count,
        )
        self._window = _EMPTY_WINDOW
        self._recorded(now)
        return [MonitorEvent(EventKind.LOCAL_LOG_WRITTEN, now, {"record": record})]

    def _recorded(self, now: Timestamp) -> None:
        """The critical cadence counts from a record at `now`, and the grid
        moves past it when it lands on or after the next grid point."""
        self.last_local_log = now
        if now >= self._next_scheduled_log:
            self._next_scheduled_log = self._next_grid_point(
                now, self._record_grid_origin, self.thresholds.normal_log_period
            )

    def _batch_anchor(self, now: Timestamp) -> MonitorEvent:
        event = MonitorEvent(EventKind.BATCH_ANCHORED, now, {"scheduled_at": self._next_anchor})
        self._next_anchor = self._next_grid_point(
            now, self.origin, self.thresholds.batch_anchor_period
        )
        return event

    @staticmethod
    def _next_grid_point(now: Timestamp, origin: Timestamp, period: int) -> Timestamp:
        return origin + ((now - origin) // period + 1) * period

    def _image_digest(self, episode: Timestamp, now: Timestamp) -> str:
        material = f"{self.device_id}:{episode}:{now}:{self.image_seed}".encode()
        return hashlib.sha256(material).hexdigest()
