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
  - `fold` takes a run of ticks for which `step` would return no event
    but at most a record: each comes before the next batch anchor, and
    in BreachPending before the escalation instant. Its reading is
    absent, in band (Normal), or not strictly inside the hysteresis band
    (an episode), where it only breaks a debounce streak. A taken
    reading records when the cadence above makes one due, and the grid
    moves inside the run as it does when stepping. The run's records
    come back as tuples, with the windows `step` would give; the caller
    logs them and every sample.
  - In Normal mode, when every slot of the run holds a reading and the
    min and max of both columns lie in the closed band, no tick can end
    it: fold visits only the record ticks, and each window's min, max
    and sum come from the slice since the previous record. Every other
    run (a dropout, a reading out of band, an episode) is taken tick by
    tick.

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


def _all_in_band(temps, hums, th: Thresholds) -> bool:
    """Every slot of the columns holds a reading in the closed band. A
    dropout is tested for itself: neither band has a lower limit, so a band
    can hold a dropped slot's values. An excursion is most often too warm,
    so that test comes first."""
    return (
        max(temps) <= th.temp_max_decic and th.temp_min_decic <= min(temps)
        and th.hum_min_decip <= min(hums) and max(hums) <= th.hum_max_decip
        and DROPPED not in temps
    )


RESOLVE_DEBOUNCE_SAMPLES = 2

_EMPTY_WINDOW = (math.inf, -math.inf, 0, 0)  # a record window's min, max, sum and count


class MonitorMode(enum.Enum):
    NORMAL = "Normal"
    BREACH_PENDING = "BreachPending"
    CRITICAL = "Critical"


class MonitorEngine:
    """One state machine per device. Single-threaded by contract. `sinks`
    names the alert sinks, in delivery order, for AlertDispatched events."""

    def __init__(
        self,
        thresholds: Thresholds,
        device_id: str,
        origin: Timestamp,
        image_seed: int = 0,
        sinks: tuple[str, ...] = (),
    ):
        self.thresholds = thresholds
        self.device_id = device_id
        self.origin = origin
        self.image_seed = image_seed
        self.sinks = sinks
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
            temp = reading.temp_decic
            lo, hi, total, count = self._window
            self._window = min(lo, temp), max(hi, temp), total + temp, count + 1
            out = out_of_band(temp, reading.hum_decip, self.thresholds)
            if out or self.mode is not MonitorMode.NORMAL:
                events.extend(self._transition(reading, now, out))
            if now >= self._record_due():
                events.append(self._local_log(reading, now))
        if now >= self._next_anchor:
            events.append(self._batch_anchor(now))
        return events

    def fold(self, trace: Trace, i: int, stop: Timestamp) -> tuple[int, list[tuple]]:
        """Take the ticks of `trace` from index i on, each before `stop`, for
        which `step` would return no event but at most a record, and change
        the engine as those steps would. Return the index of the first tick not
        taken and the records, in the engine's mode, each as (at, temp, hum,
        window min, max, floor average)."""
        th, mode = self.thresholds, self.mode
        ticks, temps, hums = trace.ticks, trace.temps, trace.hums
        end = min(stop, self._next_anchor)
        if mode is MonitorMode.BREACH_PENDING:  # escalation can fire from the escalation instant on
            end = min(end, self.episode_start + th.breach_escalation)
        j = bisect_left(ticks, end, i)
        # In Normal mode a reading out of band starts an episode; during one,
        # a reading inside the hysteresis band counts toward its end.
        ends = out_of_band if mode is MonitorMode.NORMAL else _inside_hysteresis_band
        # After each record the next falls due as _record_due would give it.
        critical, due = mode is MonitorMode.CRITICAL, self._record_due()
        period = th.critical_log_period if critical else th.normal_log_period
        grid = self._record_grid_origin
        lo, hi, total, count = self._window
        records = []
        if mode is MonitorMode.NORMAL and j > i and _all_in_band(temps[i:j], hums[i:j], th):
            # No tick ends the stretch, so the window grows a slice at a time:
            # up to and including the next record's tick, or to j.
            a = i
            while a < j:
                k = bisect_left(ticks, due, a, j)
                b = min(k + 1, j)
                window = temps[a:b]
                lo, hi = min(lo, min(window)), max(hi, max(window))
                total, count = total + sum(window), count + b - a
                if k < j:
                    now = ticks[k]
                    records.append((now, temps[k], hums[k], lo, hi, total // count))
                    lo, hi, total, count = _EMPTY_WINDOW
                    due = self._next_grid_point(now, grid, period)
                a = b
        else:
            for k in range(i, j):
                temp = temps[k]
                if temp == DROPPED:
                    continue
                hum = hums[k]
                if ends(temp, hum, th):
                    j = k
                    break
                if temp < lo:
                    lo = temp
                if temp > hi:
                    hi = temp
                total += temp
                count += 1
                now = ticks[k]
                if now >= due:
                    records.append((now, temp, hum, lo, hi, total // count))
                    lo, hi, total, count = _EMPTY_WINDOW
                    due = now + period if critical else self._next_grid_point(now, grid, period)
        if j > i:
            self.last_seen = ticks[j - 1]
            self._window = lo, hi, total, count
            if temps[i:j].count(DROPPED) < j - i:  # each taken reading breaks a debounce streak
                self.consecutive_in_range = 0
        if records:
            self._recorded(records[-1][0])
        return j, records

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
                            "sinks": list(self.sinks),
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

    def _record_due(self) -> Timestamp:
        """The first instant at which a reading is recorded: the next grid
        point, or in Critical mode critical_log_period after the last record
        (there is one: the first reading records, and escalation comes later)."""
        if self.mode is MonitorMode.CRITICAL:
            return self.last_local_log + self.thresholds.critical_log_period
        return self._next_scheduled_log

    def _local_log(self, reading: Reading, now: Timestamp) -> MonitorEvent:
        low, high, total, count = self._window
        self._window = _EMPTY_WINDOW
        self._recorded(now)
        record = (now, reading.temp_decic, reading.hum_decip, low, high, total // count)
        return MonitorEvent(EventKind.LOCAL_LOG_WRITTEN, now, {"mode": self.mode, "record": record})

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
