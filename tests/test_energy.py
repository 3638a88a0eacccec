import pytest
from hypothesis import given, settings, strategies as st

from coldwatch.energy import (
    COMPONENTS,
    ComponentPower,
    DutyPolicy,
    InconsistentTimeline,
    PowerProfile,
    activity_windows,
    baseline_energy,
    energy_for_interval,
    saving_ratio,
)
from coldwatch.model import EventKind, MonitorEvent

DAY = 86400


def ev(kind, at):
    return MonitorEvent(kind, at, {})


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
    policy = DutyPolicy(display_dim=False)
    duty = energy_for_interval([], profile, policy, 0, DAY)
    assert duty.per_component["sensor"].energy_uj == 0
    assert duty.per_component["display"].energy_uj == 0
    assert duty.per_component["camera"].energy_uj == 0
    assert duty.per_component["buzzer"].energy_uj == 0
    assert duty.per_component["controller"].energy_uj == DAY * 2500 * 1000


def test_overlapping_camera_captures_rejected():
    events = [ev(EventKind.IMAGE_CAPTURED, 100), ev(EventKind.IMAGE_CAPTURED, 102)]
    with pytest.raises(InconsistentTimeline):
        energy_for_interval(events, PowerProfile(), DutyPolicy(), 0, 200)


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


def test_per_second_oracle_matches_interval_computation():
    """Brute-force second-by-second power summation over a messy hour."""
    events = [
        ev(EventKind.SAMPLE_TAKEN, 30 * k) for k in range(1, 121)
    ] + [
        ev(EventKind.LOCAL_LOG_WRITTEN, 30),
        ev(EventKind.LOCAL_LOG_WRITTEN, 1230),
        ev(EventKind.ALERT_DISPATCHED, 1500),
        ev(EventKind.IMAGE_CAPTURED, 1500),
        ev(EventKind.BREACH_RESOLVED, 2400),
        ev(EventKind.LOCAL_LOG_WRITTEN, 2430),
    ]
    profile = PowerProfile()
    policy = DutyPolicy()
    start, end = 0, 3600
    windows = activity_windows(events, policy)

    def active_at(name, second):
        return any(s <= second < e for s, e in windows[name])

    expected = {}
    for name in COMPONENTS:
        power = profile.component(name)
        idle_uw = round(power.idle_mw * 1000)
        if name == "display" and policy.display_dim:
            idle_uw = round(policy.display_dim_mw * 1000)
        active_uw = round(power.active_mw * 1000)
        total = 0
        for second in range(start, end):
            total += active_uw if active_at(name, second) else idle_uw
        expected[name] = total

    duty = energy_for_interval(events, profile, policy, start, end)
    for name in COMPONENTS:
        assert duty.per_component[name].energy_uj == expected[name], name


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


def test_baseline_energy_is_always_on():
    base = baseline_energy(PowerProfile(), 0, DAY)
    assert base["sensor"] == DAY * 2500  # 2.5 mW in microwatts
    assert base["display"] == DAY * 200_000
