import pytest
from hypothesis import given, settings, strategies as st

from coldwatch.energy import (
    COMPONENTS,
    ComponentPower,
    DutyPolicy,
    InconsistentTimeline,
    PowerProfile,
    energy_for_interval,
    saving_ratio,
)
from coldwatch.model import EventKind, MonitorEvent

DAY = 86400


def ev(kind, at):
    return MonitorEvent(kind, at, {})


DISPLAY_WAKES = {
    EventKind.LOCAL_LOG_WRITTEN,
    EventKind.ALERT_DISPATCHED,
    EventKind.BREACH_RESOLVED,
    EventKind.DAILY_REPORT_ANCHORED,
}


def policy_windows(events, policy):
    """Each component's [start, end) activity windows, read off the duty
    policy: the reference the one-pass sweep is checked against."""
    windows = {name: [] for name in COMPONENTS}
    for e in events:
        if e.kind is EventKind.SAMPLE_TAKEN:
            window = (e.at - policy.sensor_active_s_per_sample, e.at)
            windows["sensor"].append(window)
            windows["controller"].append(window)
        if e.kind is EventKind.IMAGE_CAPTURED:
            windows["camera"].append((e.at, e.at + policy.camera_active_s_per_capture))
        if e.kind is EventKind.ALERT_DISPATCHED:
            windows["buzzer"].append((e.at, e.at + policy.buzzer_active_s_per_alert))
        if e.kind in DISPLAY_WAKES:
            windows["display"].append((e.at, e.at + policy.display_hold_s))
    return windows


def sample_events(n=2880, period=30, start=0):
    return [ev(EventKind.SAMPLE_TAKEN, start + period * (k + 1)) for k in range(n)]


def quiet_day_events():
    events = sample_events()
    events += [ev(EventKind.LOCAL_LOG_WRITTEN, 30 + 1200 * k) for k in range(72)]
    events.append(ev(EventKind.DAILY_REPORT_ANCHORED, 86400))
    return events


class TestSensorSaving:
    def test_one_second_per_thirty_gives_96_7_percent(self):
        # 1 - 1/30 = 96.7% with zero idle draw, independent of active power.
        events = sample_events()
        savings = saving_ratio(events, PowerProfile(), DutyPolicy(), 0, DAY)
        assert savings["sensor"] == pytest.approx(1 - 1 / 30)
        assert savings["sensor"] >= 0.96
        assert f"{savings['sensor'] * 100:.1f}" == "96.7"

    def test_policy_equal_to_baseline_saves_nothing(self):
        events = sample_events()
        policy = DutyPolicy(sensor_active_s_per_sample=30)
        savings = saving_ratio(events, PowerProfile(), policy, 0, DAY)
        assert savings["sensor"] == 0.0


class TestDisplaySaving:
    def test_dimmed_display_with_72_wake_events(self):
        # 72 ten-second wakes at 200 mW; dim at 20 mW (10%) the rest of the day.
        events = [ev(EventKind.LOCAL_LOG_WRITTEN, 30 + 1200 * k) for k in range(72)]
        duty = energy_for_interval(events, PowerProfile(), DutyPolicy(), 0, DAY)
        active = 72 * 10
        expected_mj = active * 200 + (DAY - active) * 20
        assert duty.per_component["display"].energy_uj == expected_mj * 1000
        savings = saving_ratio(events, PowerProfile(), DutyPolicy(), 0, DAY)
        assert savings["display"] >= 0.80

    def test_overlapping_display_holds_merge(self):
        events = [ev(EventKind.ALERT_DISPATCHED, 100), ev(EventKind.BREACH_RESOLVED, 105)]
        duty = energy_for_interval(events, PowerProfile(), DutyPolicy(), 0, 200)
        assert duty.per_component["display"].active_s == 15  # [100,110) U [105,115)


class TestController:
    def test_constant_2500_mw_is_216_kj(self):
        profile = PowerProfile(controller=ComponentPower(active_mw=2500, idle_mw=2500))
        duty = energy_for_interval([], profile, DutyPolicy(), 0, DAY)
        assert duty.per_component["controller"].energy_j == 216_000.0

    def test_default_band_bounds_daily_energy(self):
        events = sample_events()
        duty = energy_for_interval(events, PowerProfile(), DutyPolicy(), 0, DAY)
        controller_j = duty.per_component["controller"].energy_j
        assert 2.5 * DAY <= controller_j <= 6.0 * DAY


def test_zero_events_only_controller_idle_energy():
    profile = PowerProfile(display=ComponentPower(active_mw=200, idle_mw=0))
    duty = energy_for_interval([], profile, DutyPolicy(), 0, DAY)
    assert duty.per_component["sensor"].energy_uj == 0
    assert duty.per_component["display"].energy_uj == 0
    assert duty.per_component["camera"].energy_uj == 0
    assert duty.per_component["buzzer"].energy_uj == 0
    assert duty.per_component["controller"].energy_uj == DAY * 2500 * 1000


def test_overlapping_camera_captures_rejected():
    events = [ev(EventKind.IMAGE_CAPTURED, 100), ev(EventKind.IMAGE_CAPTURED, 102)]
    with pytest.raises(InconsistentTimeline):
        energy_for_interval(events, PowerProfile(), DutyPolicy(), 0, 200)


def test_overlap_error_names_the_first_component_in_component_order():
    # The camera overlaps first in time; the sensor is named, as COMPONENTS
    # order puts it before the camera.
    events = [ev(EventKind.IMAGE_CAPTURED, 100), ev(EventKind.IMAGE_CAPTURED, 102)]
    events += [ev(EventKind.SAMPLE_TAKEN, 150), ev(EventKind.SAMPLE_TAKEN, 151)]
    policy = DutyPolicy(sensor_active_s_per_sample=2)
    with pytest.raises(InconsistentTimeline, match="^sensor windows overlap at 149$"):
        energy_for_interval(events, PowerProfile(), policy, 0, 200)


def test_component_power_ordering_enforced():
    with pytest.raises(ValueError):
        ComponentPower(active_mw=10, idle_mw=20)


def test_savings_stay_in_unit_interval(breach_run):
    from coldwatch.runner import events_from_log

    events = events_from_log(breach_run.out_dir / "events.log")
    start = breach_run.manifest["start"]
    savings = saving_ratio(events, PowerProfile(), DutyPolicy(), start, start + DAY)
    for name, value in savings.items():
        assert 0.0 <= value <= 1.0, name


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(list(EventKind)), st.integers(0, 400)), max_size=12),
    st.tuples(*[st.integers(0, 30)] * 4),
    st.integers(0, 300),
    st.integers(0, 200),
)
def test_per_second_oracle_matches_interval_computation(drawn, duties, start, length):
    """Brute-force second-by-second coverage and power summation. Windows
    may cross either end of the interval, and any duty time may be 0."""
    events = [ev(kind, at) for kind, at in drawn]
    profile = PowerProfile()
    policy = DutyPolicy(*duties)
    end = start + length
    windows = policy_windows(events, policy)
    cover = {
        name: [sum(s <= t < e for s, e in windows[name]) for t in range(start, end)]
        for name in COMPONENTS
    }
    if any(max(cover[name], default=0) > 1 for name in COMPONENTS if name != "display"):
        with pytest.raises(InconsistentTimeline):
            energy_for_interval(events, profile, policy, start, end)
        return
    duty = energy_for_interval(events, profile, policy, start, end)
    for name in COMPONENTS:
        power = getattr(profile, name)
        active_uw, idle_uw = round(power.active_mw * 1000), round(power.idle_mw * 1000)
        got = duty.per_component[name]
        assert got.active_s == sum(c > 0 for c in cover[name]), name
        expected_uj = sum(active_uw if c else idle_uw for c in cover[name])
        assert got.energy_uj == expected_uj, name
        baseline_uj = sum(active_uw for _ in cover[name])
        assert got.baseline_uj == baseline_uj, name
        assert got.saving == (1 - expected_uj / baseline_uj if baseline_uj else 0.0), name


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=3590), min_size=0, max_size=12, unique=True),
    st.integers(min_value=1, max_value=3599),
)
def test_energy_is_additive_over_partitions(sample_ats, cut):
    events = [ev(EventKind.SAMPLE_TAKEN, at) for at in sorted(sample_ats)]
    profile = PowerProfile()
    policy = DutyPolicy(sensor_active_s_per_sample=1)
    try:
        whole = energy_for_interval(events, profile, policy, 0, 3600)
        left = energy_for_interval(events, profile, policy, 0, cut)
        right = energy_for_interval(events, profile, policy, cut, 3600)
    except InconsistentTimeline:
        return  # adjacent samples may overlap; overlap detection is its own test
    for name in COMPONENTS:
        assert (
            left.per_component[name].energy_uj + right.per_component[name].energy_uj
            == whole.per_component[name].energy_uj
        )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(list(EventKind)), st.integers(0, 400)), max_size=12),
    st.tuples(*[st.integers(0, 30)] * 4),
    st.integers(0, 300),
    st.integers(0, 200),
    st.randoms(use_true_random=False),
)
def test_event_order_does_not_change_the_breakdown(drawn, duties, start, length, rng):
    """Events out of time order give what the time-ordered events give:
    the same breakdown, or the same InconsistentTimeline."""
    ordered = sorted((ev(kind, at) for kind, at in drawn), key=lambda e: e.at)
    shuffled = list(ordered)
    rng.shuffle(shuffled)
    profile, policy = PowerProfile(), DutyPolicy(*duties)
    outcomes = []
    for events in (ordered, shuffled):
        try:
            outcomes.append(energy_for_interval(events, profile, policy, start, start + length))
        except InconsistentTimeline as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


# Instants over three days, many of them on or near a midnight (the end of
# the whole-days interval), close enough together for windows to overlap.
NEAR_MIDNIGHTS = st.builds(
    lambda day, second: day * DAY + second,
    st.integers(0, 2),
    st.one_of(st.just(0), st.integers(-12, 12), st.integers(0, DAY - 1)),
)


@settings(deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(list(EventKind)), NEAR_MIDNIGHTS), max_size=12),
    st.tuples(*[st.integers(0, 30)] * 4),
    st.randoms(use_true_random=False),
)
def test_no_interval_is_the_whole_days_of_the_events(drawn, duties, rng):
    """With no interval, time-ordered or shuffled events give what the
    whole UTC days from the earliest event to the latest give: the same
    breakdown, or the same InconsistentTimeline; None exactly when there
    are no events."""
    ordered = sorted((ev(kind, at) for kind, at in drawn), key=lambda e: e.at)
    shuffled = list(ordered)
    rng.shuffle(shuffled)
    profile, policy = PowerProfile(), DutyPolicy(*duties)

    def outcome(events, *interval):
        try:
            return energy_for_interval(events, profile, policy, *interval)
        except InconsistentTimeline as exc:
            return str(exc)

    if ordered:
        start = ordered[0].at // DAY * DAY
        end = max(-(-ordered[-1].at // DAY) * DAY, start + DAY)
        expected = outcome(ordered, start, end)
        assert expected is not None
    else:
        expected = None
    assert outcome(ordered) == expected
    assert outcome(shuffled) == expected


def test_a_window_that_starts_at_the_whole_days_end_is_empty():
    """The latest event, at a midnight, ends the interval there: its camera
    window is empty and overlaps nothing, and the one before it is clipped."""
    events = [ev(EventKind.IMAGE_CAPTURED, DAY - 2), ev(EventKind.IMAGE_CAPTURED, DAY)]
    duty = energy_for_interval(events, PowerProfile(), DutyPolicy())
    assert duty.per_component["camera"].active_s == 2
    assert duty.per_component["camera"].baseline_uj == DAY * 1_400_000


def test_an_interval_needs_both_ends():
    with pytest.raises(TypeError, match="both start and end"):
        energy_for_interval([], PowerProfile(), DutyPolicy(), 0)


def test_baseline_energy_is_always_on():
    duty = energy_for_interval([], PowerProfile(), DutyPolicy(), 0, DAY)
    assert duty.per_component["sensor"].baseline_uj == DAY * 2500  # 2.5 mW in microwatts
    assert duty.per_component["display"].baseline_uj == DAY * 200_000
