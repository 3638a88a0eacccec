import csv
import dataclasses
import io
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from coldwatch.engine import out_of_band
from coldwatch.model import (
    HUM_MAX_DECIP,
    HUM_MIN_DECIP,
    TEMP_MAX_DECIC,
    TEMP_MIN_DECIC,
    Reading,
    Thresholds,
)
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
    TRACE_HEADER,
    TraceError,
    generate_trace,
    normal_day,
    peak_hours,
    replay_trace,
    sample_ticks,
    write_trace,
)

TH = Thresholds()
DAY_TICKS = sample_ticks(0, 86400, TH.sample_period)


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
        assert out_of_band(r, TH)


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
    assert not any(out_of_band(r, TH) for r in trace)


def test_peak_day_spikes_but_stays_in_range():
    start = 0
    trace = generate_trace(peak_hours(start, seed=5), TH, 86400, start=start)
    assert not any(out_of_band(r, TH) for r in trace)
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


def test_fault_window_outside_the_run_rejected():
    spec = dataclasses.replace(
        normal_day(seed=2),
        faults=(FaultSpec(FaultKind.LEDGER_OUTAGE, start=108000, end=111600),),
    )
    with pytest.raises(InvalidScenario):
        generate_trace(spec, TH, 7200)


def test_normal_day_too_close_to_band_rejected():
    spec = ScenarioSpec(kind=ScenarioKind.NORMAL_DAY, base_temp_decic=58)
    with pytest.raises(InvalidScenario):
        generate_trace(spec, TH, 3600)


class TestReplay:
    def test_round_trip_is_lossless(self, tmp_path):
        trace = generate_trace(normal_day(seed=4), TH, 86400)
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        assert replay_trace(path, DAY_TICKS) == trace

    def test_header_only_file_is_empty(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("timestamp,device_id,temp_decic,hum_decip\n")
        assert replay_trace(path, DAY_TICKS) == []

    def test_non_monotonic_reports_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "timestamp,device_id,temp_decic,hum_decip\n"
            "60,d,40,500\n"
            "30,d,40,500\n"
        )
        with pytest.raises(NonMonotonicTimestamp) as err:
            replay_trace(path, DAY_TICKS)
        assert err.value.line_no == 3

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "timestamp,device_id,temp_decic,hum_decip\n"
            "30,d,not-a-number,500\n"
        )
        with pytest.raises(ParseError) as err:
            replay_trace(path, DAY_TICKS)
        assert err.value.line_no == 2

    @pytest.mark.parametrize(
        "rows,line_no,message",
        [
            (["30,d,40,500", "60,e,40,500"], 3, "device 'e'"),
            (["30,d,40,500", "61,d,40,500"], 3, "61 is not a sample tick"),
            (["30,d,40,500", "60,d,40,500", "60,d,40,500"], 4, "60 after 60"),
            (["86430,d,40,500"], 2, "86430 is not a sample tick"),
        ],
        ids=["second_device", "off_grid", "repeated", "beyond_the_run"],
    )
    def test_unusable_row_reports_line(self, tmp_path, rows, line_no, message):
        path = tmp_path / "trace.csv"
        path.write_text("\n".join(["timestamp,device_id,temp_decic,hum_decip", *rows]) + "\n")
        with pytest.raises(TraceError) as err:
            replay_trace(path, DAY_TICKS)
        assert err.value.line_no == line_no
        assert str(err.value).startswith(f"line {line_no}: {message}")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("time,dev,temp,hum\n")
        with pytest.raises(ParseError):
            replay_trace(path, DAY_TICKS)


def test_breach_scenario_minimum_duration():
    from coldwatch.sensor import scenario_for

    with pytest.raises(InvalidScenario):
        scenario_for("breach", 0, 3600, seed=0)
    scenario_for("breach", 0, 86400, seed=0)


# -- the inline noise draw ---------------------------------------------------

# A bound b draws one of 2b+1 values. For b a power of two that count is
# just above a power of two, where nearly half the k-bit draws are
# rejected and redrawn.
POWER_BOUNDS = [2**j for j in range(11)]


def _randint_trace(spec: ScenarioSpec, n: int) -> list[Reading]:
    """The trace as Random.randint draws it: temperature, then humidity,
    per tick; a bound of 0 draws nothing; values clamped to the envelope."""
    rng = random.Random(f"{spec.seed}:trace")
    t, h = spec.noise.temp_bound_decic, spec.noise.hum_bound_decip
    out = []
    for at in range(30, 30 * n + 1, 30):
        temp = spec.base_temp_decic + (rng.randint(-t, t) if t else 0)
        hum = spec.base_hum_decip + (rng.randint(-h, h) if h else 0)
        temp = max(TEMP_MIN_DECIC, min(TEMP_MAX_DECIC, temp))
        hum = max(HUM_MIN_DECIP, min(HUM_MAX_DECIP, hum))
        out.append(Reading("fridge-1", at, temp, hum))
    return out


def _noisy(seed: int, t_bound: int, h_bound: int, temp: int = 40, hum: int = 520):
    # Not a normal day: that scenario refuses noise reaching the bands.
    return ScenarioSpec(
        kind=ScenarioKind.PEAK_HOURS,
        seed=seed,
        base_temp_decic=temp,
        base_hum_decip=hum,
        noise=NoiseModel(t_bound, h_bound),
    )


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(),
    t_bound=st.one_of(st.integers(0, TEMP_MAX_DECIC - TEMP_MIN_DECIC), st.sampled_from(POWER_BOUNDS)),
    h_bound=st.one_of(st.integers(0, HUM_MAX_DECIP - HUM_MIN_DECIP), st.sampled_from(POWER_BOUNDS)),
    temp=st.integers(TEMP_MIN_DECIC, TEMP_MAX_DECIC),
    hum=st.integers(HUM_MIN_DECIP, HUM_MAX_DECIP),
)
@example(seed=0, t_bound=0, h_bound=20, temp=40, hum=520)
@example(seed=0, t_bound=5, h_bound=0, temp=40, hum=520)
@example(seed=0, t_bound=1650, h_bound=1000, temp=1250, hum=0)
def test_noise_draw_is_randint_inlined(seed, t_bound, h_bound, temp, hum):
    spec = _noisy(seed, t_bound, h_bound, temp, hum)
    assert generate_trace(spec, TH, 60 * 30) == _randint_trace(spec, 60)


@pytest.mark.parametrize("bound", POWER_BOUNDS)
def test_noise_draw_at_power_of_two_bounds(bound):
    spec = _noisy(11, bound, bound, temp=400, hum=500)
    assert generate_trace(spec, TH, 500 * 30) == _randint_trace(spec, 500)


# -- the trace writer ----------------------------------------------------------

DEVICE_IDS = st.text(
    alphabet=st.one_of(st.sampled_from(',"\r\n \tx\u00e9\u2603'), st.characters()),
    min_size=1,
    max_size=12,
)


def _csv_module_trace(readings: list[Reading]) -> bytes:
    """The trace as csv.writer writes it. A device id holding a carriage
    return is quoted: csv leaves it bare when rows end in LF, and a bare CR
    ends the row for any CSV reader."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(TRACE_HEADER)
    cr = bool(readings) and "\r" in readings[0].device_id
    w = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC if cr else csv.QUOTE_MINIMAL)
    for r in readings:
        w.writerow([r.at, r.device_id, r.temp_decic, r.hum_decip])
    return buf.getvalue().encode("utf-8")


@settings(max_examples=200, deadline=None)
@given(
    device=DEVICE_IDS,
    values=st.lists(
        st.tuples(
            st.integers(TEMP_MIN_DECIC, TEMP_MAX_DECIC), st.integers(HUM_MIN_DECIP, HUM_MAX_DECIP)
        ),
        max_size=12,
    ),
)
@example(device="a,b", values=[(40, 520)])
@example(device='say "hi"', values=[(40, 520)])
@example(device="cr\rlf\n", values=[(40, 520), (41, 521)])
@example(device="\r", values=[(40, 520)])
@example(device="  leading", values=[(-400, 0)])
@example(device="k\u00fchlschrank-\u2603", values=[(1250, 1000)])
@example(device="fridge-\udcff", values=[(40, 520)])
def test_trace_file_is_the_csv_modules_and_reads_back(device, values):
    readings = [Reading(device, 30 * (k + 1), t, h) for k, (t, h) in enumerate(values)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        utf8 = device.encode("utf-8", "replace").decode("utf-8") == device
        if readings and not utf8:  # a lone surrogate: a UTF-8 trace cannot hold it
            with pytest.raises(ValueError, match="is not UTF-8 text"):
                write_trace(readings, path)
            return
        assert write_trace(readings, path) == len(readings)
        assert path.read_bytes() == _csv_module_trace(readings)
        assert replay_trace(path, sample_ticks(0, 30 * len(values), 30)) == readings


@pytest.mark.parametrize("ahead", [0, 2], ids=["first-row", "after-two-rows"])
def test_a_refused_device_id_leaves_no_trace_file(tmp_path, ahead):
    readings = [Reading("fridge-1", 30 * (k + 1), 40, 520) for k in range(ahead)]
    readings.append(Reading("fridge-\udcff", 30 * (ahead + 1), 40, 520))
    path = tmp_path / "trace.csv"
    with pytest.raises(ValueError, match="is not UTF-8 text"):
        write_trace(readings, path)
    assert not path.exists()
