import pytest
from hypothesis import given, strategies as st

from coldwatch.clock import SchedulingInPast, VirtualClock


def test_first_sample_tick():
    clock = VirtualClock(0)
    clock.schedule(30, "sample")
    assert list(clock.run(30)) == [(30, "sample")]


def test_zero_delay_fires_without_time_passing():
    clock = VirtualClock(0)
    clock.schedule(0, "sample")
    assert list(clock.run(0)) == [(0, "sample")]
    assert clock.now == 0


def test_scheduling_in_past_rejected():
    clock = VirtualClock(100)
    with pytest.raises(SchedulingInPast):
        clock.schedule(50, "x")


def test_advance_partial():
    clock = VirtualClock(0)
    for at in (30, 60, 90):
        clock.schedule(at, at)
    assert list(clock.run(60)) == [(30, 30), (60, 60)]
    assert clock.now == 60
    assert list(clock.run(90)) == [(90, 90)]


def test_advance_to_now_is_empty():
    clock = VirtualClock(10)
    assert list(clock.run(10)) == []


def test_full_day_of_sample_ticks():
    # 86400 / 30 = 2880 ticks, all firing in order.
    clock = VirtualClock(0)
    for k in range(1, 2881):
        clock.schedule(30 * k, k)
    fired = list(clock.run(86400))
    assert len(fired) == 2880
    assert [at for at, _ in fired] == [30 * k for k in range(1, 2881)]


def test_run_allows_scheduling_mid_iteration():
    clock = VirtualClock(0)
    clock.schedule(10, "a")
    seen = []
    for at, tag in clock.run(100):
        seen.append((at, tag))
        if tag == "a":
            clock.schedule(at + 5, "b")
    assert seen == [(10, "a"), (15, "b")]
    assert clock.now == 100


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=1000), st.integers()), max_size=50))
def test_firing_order_matches_stable_sort(items):
    clock = VirtualClock(0)
    for at, tag in items:
        clock.schedule(at, tag)
    fired = list(clock.run(1000))
    # Stable sort by timestamp preserves insertion order on ties.
    assert fired == sorted(items, key=lambda p: p[0])


def test_ties_fire_in_insertion_order():
    clock = VirtualClock(0)
    clock.schedule(50, "first")
    clock.schedule(50, "second")
    clock.schedule(50, "third")
    assert list(clock.run(50)) == [(50, "first"), (50, "second"), (50, "third")]
