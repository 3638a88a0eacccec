import dataclasses

import pytest

from coldwatch.engine import Classification, classify
from coldwatch.model import Thresholds
from coldwatch.sensor import (
    BreachWindow,
    FaultKind,
    FaultSpec,
    InvalidScenario,
    NoiseModel,
    NonMonotonicTimestamp,
    ParseError,
    ScenarioKind,
    ScenarioSpec,
    SpikeWindow,
    generate_trace,
    normal_day,
    peak_hours,
    replay_trace,
    write_trace,
)

TH = Thresholds()


def test_normal_day_has_exactly_one_reading_per_tick():
    # 86400 / 30 = 2880
    trace = generate_trace(normal_day(seed=1), TH, 86400)
    assert len(trace) == 2880
    assert trace[0].at == 30
    assert trace[-1].at == 86400


def test_zero_noise_identity():
    spec = ScenarioSpec(kind=ScenarioKind.NORMAL_DAY, base_temp_decic=40, noise=NoiseModel(0, 0))
    trace = generate_trace(spec, TH, 3600)
    assert all(r.temp_decic == 40 for r in trace)
    assert all(r.hum_decip == 520 for r in trace)


def test_breach_window_forces_out_of_range_values():
    spec = ScenarioSpec(
        kind=ScenarioKind.BREACH_DAY,
        breach_window=BreachWindow(start=7200, end=10800, forced_temp_decic=85),
    )
    trace = generate_trace(spec, TH, 86400)
    in_window = [r for r in trace if 7200 <= r.at < 10800]
    assert len(in_window) == 3600 // 30
    for r in in_window:
        assert abs(r.temp_decic - 85) <= spec.noise.temp_bound_decic
        assert classify(r, TH) is Classification.OUT_OF_RANGE


def test_seed_determinism_and_divergence(tmp_path):
    def trace_bytes(name, seed):
        write_trace(generate_trace(normal_day(seed=seed), TH, 86400), tmp_path / name)
        return (tmp_path / name).read_bytes()

    a = trace_bytes("a.csv", 9)
    b = trace_bytes("b.csv", 9)
    c = trace_bytes("c.csv", 10)
    assert a == b
    assert a != c


def test_noise_never_exceeds_bounds():
    # 100_000 samples; deviations from base must stay within the stated bounds.
    spec = ScenarioSpec(kind=ScenarioKind.NORMAL_DAY, seed=3)
    trace = generate_trace(spec, TH, 100_000 * 30)
    assert len(trace) == 100_000
    assert max(abs(r.temp_decic - spec.base_temp_decic) for r in trace) <= 5
    assert max(abs(r.hum_decip - spec.base_hum_decip) for r in trace) <= 20


def test_normal_day_never_out_of_range():
    trace = generate_trace(normal_day(seed=5), TH, 86400)
    assert all(classify(r, TH) is Classification.IN_RANGE for r in trace)


def test_peak_day_spikes_but_stays_in_range():
    start = 0
    trace = generate_trace(peak_hours(start, seed=5), TH, 86400, start=start)
    assert all(classify(r, TH) is Classification.IN_RANGE for r in trace)
    spiked = [r for r in trace if 41400 <= r.at < 50400]
    calm = [r for r in trace if r.at < 41400]
    assert max(r.temp_decic for r in spiked) > max(r.temp_decic for r in calm)


def test_dropout_window_emits_nothing():
    spec = dataclasses.replace(
        normal_day(seed=2),
        faults=(FaultSpec(FaultKind.SENSOR_DROPOUT, start=3000, end=6000),),
    )
    trace = generate_trace(spec, TH, 86400)
    assert not any(3000 <= r.at < 6000 for r in trace)
    assert len(trace) == 2880 - 100  # 3000 s of 30 s ticks


def test_window_exceeding_horizon_rejected():
    spec = ScenarioSpec(
        kind=ScenarioKind.PEAK_HOURS,
        spike_windows=(SpikeWindow(start=0, end=90000, temp_delta_decic=5),),
    )
    with pytest.raises(InvalidScenario):
        generate_trace(spec, TH, 86400)


def test_normal_day_too_close_to_band_rejected():
    spec = ScenarioSpec(kind=ScenarioKind.NORMAL_DAY, base_temp_decic=58)
    with pytest.raises(InvalidScenario):
        generate_trace(spec, TH, 3600)


class TestReplay:
    def test_round_trip_is_lossless(self, tmp_path):
        trace = generate_trace(normal_day(seed=4), TH, 86400)
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        assert replay_trace(path) == trace

    def test_header_only_file_is_empty(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("timestamp,device_id,temp_decic,hum_decip\n")
        assert replay_trace(path) == []

    def test_non_monotonic_reports_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "timestamp,device_id,temp_decic,hum_decip\n"
            "60,d,40,500\n"
            "30,d,40,500\n"
        )
        with pytest.raises(NonMonotonicTimestamp) as err:
            replay_trace(path)
        assert err.value.line_no == 3

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "timestamp,device_id,temp_decic,hum_decip\n"
            "30,d,not-a-number,500\n"
        )
        with pytest.raises(ParseError) as err:
            replay_trace(path)
        assert err.value.line_no == 2

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("time,dev,temp,hum\n")
        with pytest.raises(ParseError):
            replay_trace(path)


def test_breach_scenario_minimum_duration():
    from coldwatch.sensor import scenario_for

    with pytest.raises(InvalidScenario):
        scenario_for("breach", 0, 3600, seed=0)
    scenario_for("breach", 0, 86400, seed=0)
