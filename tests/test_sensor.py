import csv
import dataclasses
import io
import random
import tempfile
import tracemalloc
from array import array
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from coldwatch import sensor
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
    DROPPED,
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
    Trace,
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


def readings(trace: Trace) -> list[Reading]:
    """The trace's readings in tick order; a dropped tick has none."""
    return [
        Reading(trace.device_id, at, temp, hum)
        for at, temp, hum in zip(trace.ticks, trace.temps, trace.hums)
        if temp != DROPPED
    ]


def test_normal_day_has_exactly_one_reading_per_tick():
    # 86400 / 30 = 2880
    trace = generate_trace(normal_day(seed=1), TH, 86400)
    taken = readings(trace)
    assert len(trace) == len(taken) == 2880
    assert taken[0].at == 30
    assert taken[-1].at == 86400


def test_zero_noise_identity():
    spec = ScenarioSpec(kind=ScenarioKind.NORMAL_DAY, base_temp_decic=40, noise=NoiseModel(0, 0))
    trace = generate_trace(spec, TH, 3600)
    assert all(r.temp_decic == 40 for r in readings(trace))
    assert all(r.hum_decip == 520 for r in readings(trace))


def test_breach_window_forces_out_of_range_values():
    spec = ScenarioSpec(
        kind=ScenarioKind.BREACH_DAY,
        breach_window=BreachWindow(start=7200, end=10800, forced_temp_decic=85),
    )
    trace = generate_trace(spec, TH, 86400)
    in_window = [r for r in readings(trace) if 7200 <= r.at < 10800]
    assert len(in_window) == 3600 // 30
    for r in in_window:
        assert abs(r.temp_decic - 85) <= spec.noise.temp_bound_decic
        assert out_of_band(r.temp_decic, r.hum_decip, TH)


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
    assert max(abs(r.temp_decic - spec.base_temp_decic) for r in readings(trace)) <= 5
    assert max(abs(r.hum_decip - spec.base_hum_decip) for r in readings(trace)) <= 20


def test_normal_day_never_out_of_range():
    trace = generate_trace(normal_day(seed=5), TH, 86400)
    assert not any(out_of_band(r.temp_decic, r.hum_decip, TH) for r in readings(trace))


def test_peak_day_spikes_but_stays_in_range():
    start = 0
    trace = generate_trace(peak_hours(start, seed=5), TH, 86400, start=start)
    assert not any(out_of_band(r.temp_decic, r.hum_decip, TH) for r in readings(trace))
    spiked = [r for r in readings(trace) if 41400 <= r.at < 50400]
    calm = [r for r in readings(trace) if r.at < 41400]
    assert max(r.temp_decic for r in spiked) > max(r.temp_decic for r in calm)


def test_dropout_window_emits_nothing():
    spec = dataclasses.replace(
        normal_day(seed=2),
        faults=(FaultSpec(FaultKind.SENSOR_DROPOUT, start=3000, end=6000),),
    )
    trace = generate_trace(spec, TH, 86400)
    assert not any(3000 <= r.at < 6000 for r in readings(trace))
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


def _traced_peak(call):
    """call()'s result and the peak bytes Python allocated while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_30_day_trace_peaks_under_16_bytes_per_tick(tmp_path):
    # Two int16 columns hold 4 B per tick; a list of Readings holds some 170.
    horizon = 30 * 86400
    trace, peak = _traced_peak(lambda: generate_trace(normal_day(seed=7), TH, horizon))
    assert len(trace.ticks) == len(trace) == 86400
    assert peak < 16 * 86400
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    replayed, peak = _traced_peak(lambda: replay_trace(path, sample_ticks(0, horizon, 30)))
    assert len(replayed) == 86400
    assert peak < 16 * 86400


class TestReplay:
    def test_round_trip_is_lossless(self, tmp_path):
        trace = generate_trace(normal_day(seed=4), TH, 86400)
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        assert readings(replay_trace(path, DAY_TICKS)) == readings(trace)

    def test_header_only_file_is_empty(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("timestamp,device_id,temp_decic,hum_decip\n")
        trace = replay_trace(path, DAY_TICKS)
        assert readings(trace) == [] and len(trace) == 0

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
        "row", ["30,d,1251,500", "30,d,-401,500", "30,d,40,1001", "30,d,40,-1", "30,,40,500"]
    )
    def test_row_outside_the_envelope_or_without_a_device_is_a_parse_error(self, tmp_path, row):
        path = tmp_path / "trace.csv"
        path.write_text("timestamp,device_id,temp_decic,hum_decip\n" + row + "\n")
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
    """The trace as Random.randint draws it, one tick at a time: the base
    plus the spike deltas open at the tick (the breach window forcing the
    temperature), then the temperature and humidity noise; a bound of 0
    draws nothing; a tick inside a sensor dropout draws nothing and has no
    reading; values clamped to the envelope."""
    rng = random.Random(f"{spec.seed}:trace")
    t, h = spec.noise.temp_bound_decic, spec.noise.hum_bound_decip
    dropouts = [f for f in spec.faults if f.kind is FaultKind.SENSOR_DROPOUT]
    out = []
    for at in range(30, 30 * n + 1, 30):
        if any(f.start <= at < f.end for f in dropouts):
            continue
        spikes = [w for w in spec.spike_windows if w.start <= at < w.end]
        temp = spec.base_temp_decic + sum(w.temp_delta_decic for w in spikes)
        hum = spec.base_hum_decip + sum(w.hum_delta_decip for w in spikes)
        breach = spec.breach_window
        if breach is not None and breach.start <= at < breach.end:
            temp = breach.forced_temp_decic
        temp += rng.randint(-t, t) if t else 0
        hum += rng.randint(-h, h) if h else 0
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
    assert readings(generate_trace(spec, TH, 60 * 30)) == _randint_trace(spec, 60)


@pytest.mark.parametrize("bound", POWER_BOUNDS)
def test_noise_draw_at_power_of_two_bounds(bound):
    spec = _noisy(11, bound, bound, temp=400, hum=500)
    assert readings(generate_trace(spec, TH, 500 * 30)) == _randint_trace(spec, 500)


# Values before clamping may lie far outside the envelope (and int16): they
# clamp to its edge like any other.
@pytest.mark.parametrize(
    "spec",
    [
        dataclasses.replace(
            _noisy(3, 5, 20),
            spike_windows=(SpikeWindow(start=600, end=1200, temp_delta_decic=10**6),),
        ),
        dataclasses.replace(
            _noisy(3, 5, 20),
            spike_windows=(
                SpikeWindow(start=300, end=900, temp_delta_decic=-(10**6), hum_delta_decip=10**6),
            ),
        ),
        _noisy(4, 5, 20, hum=-(10**6)),
        _noisy(4, 5, 20, temp=10**6),
    ],
    ids=["spike-up", "spike-down", "base-hum-below", "base-temp-above"],
)
def test_values_beyond_int16_clamp_to_the_envelope(spec):
    taken = readings(generate_trace(spec, TH, 60 * 30))
    assert taken == _randint_trace(spec, 60)
    assert any(
        r.temp_decic in (TEMP_MIN_DECIC, TEMP_MAX_DECIC) or r.hum_decip in (HUM_MIN_DECIP, HUM_MAX_DECIP)
        for r in taken
    )


def test_a_dropout_over_the_first_and_the_last_tick(tmp_path):
    spec = dataclasses.replace(
        normal_day(seed=6),
        faults=(
            FaultSpec(FaultKind.SENSOR_DROPOUT, start=0, end=60),
            FaultSpec(FaultKind.SENSOR_DROPOUT, start=86400, end=86430),
        ),
    )
    trace = generate_trace(spec, TH, 86400)
    taken = readings(trace)
    assert taken == _randint_trace(spec, 2880)
    assert len(trace) == len(taken) == 2878
    assert (taken[0].at, taken[-1].at) == (60, 86370)
    path = tmp_path / "trace.csv"
    assert write_trace(trace, path) == 2878
    assert len(path.read_text().splitlines()) == 1 + 2878
    assert readings(replay_trace(path, DAY_TICKS)) == taken


# A window inside a 40-tick run; its ends fall on a tick or between two, and
# it may cover no tick at all.
_WINDOW = st.tuples(st.integers(0, 40 * 30 - 1), st.integers(1, 40 * 30)).map(
    lambda w: (w[0], min(w[0] + w[1], 40 * 30))
)
_DELTA = st.integers(-(10**5), 10**5)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    spikes=st.lists(st.tuples(_WINDOW, _DELTA, _DELTA), max_size=4),
    breach=st.none() | st.tuples(_WINDOW, _DELTA),
    dropouts=st.lists(_WINDOW, max_size=3),
)
def test_windows_match_the_tick_by_tick_reference(seed, spikes, breach, dropouts):
    """Overlapping spikes add up, the breach window forces the temperature
    under them, and dropouts may overlap each other and any window."""
    spec = dataclasses.replace(
        _noisy(seed, 5, 20),
        spike_windows=tuple(SpikeWindow(s, e, t, h) for (s, e), t, h in spikes),
        breach_window=None if breach is None else BreachWindow(*breach[0], breach[1]),
        faults=tuple(FaultSpec(FaultKind.SENSOR_DROPOUT, s, e) for s, e in dropouts),
    )
    trace = generate_trace(spec, TH, 40 * 30)
    expected = _randint_trace(spec, 40)
    assert readings(trace) == expected
    assert len(trace) == len(expected)


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


def _trace(device: str, values: list[tuple[int, int] | None]) -> Trace:
    """A trace with a slot every 30 s from 30, one per value; None is a
    slot without a reading."""
    return Trace(
        device,
        sample_ticks(0, 30 * len(values), 30),
        array("h", [DROPPED if v is None else v[0] for v in values]),
        array("h", [0 if v is None else v[1] for v in values]),
    )


@settings(max_examples=max(200, settings().max_examples), deadline=None)  # CI's 1000
@given(
    device=DEVICE_IDS,
    values=st.lists(
        st.none()
        | st.tuples(
            st.integers(TEMP_MIN_DECIC, TEMP_MAX_DECIC), st.integers(HUM_MIN_DECIP, HUM_MAX_DECIP)
        ),
        max_size=12,
    ),
    chunk=st.integers(1, 13),
)
@example(device="a,b", values=[(40, 520)], chunk=2880)
@example(device='say "hi"', values=[(40, 520)], chunk=2880)
@example(device="cr\rlf\n", values=[(40, 520), None, (41, 521)], chunk=2)
@example(device="\r", values=[(40, 520)], chunk=2880)
@example(device="  leading", values=[(-400, 0)], chunk=2880)
@example(device="k\u00fchlschrank-\u2603", values=[(1250, 1000)], chunk=2880)
@example(device="fridge-\udcff", values=[(40, 520)], chunk=2880)
@example(device="a%d%%b", values=[(40, 520), None, None, (41, 521)], chunk=2)
def test_trace_file_is_the_csv_modules_and_reads_back(device, values, chunk):
    """Also with chunks of 1 to 13 slots, so that drawn dropouts fall on
    either side of a chunk's edge."""
    trace = _trace(device, values)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(sensor, "_TRACE_CHUNK", chunk):
        path = Path(tmp) / "trace.csv"
        utf8 = device.encode("utf-8", "replace").decode("utf-8") == device
        if not utf8:  # a lone surrogate: a UTF-8 trace cannot hold it
            with pytest.raises(ValueError, match="is not UTF-8 text"):
                write_trace(trace, path)
            return
        taken = readings(trace)
        assert write_trace(trace, path) == len(taken)
        assert path.read_bytes() == _csv_module_trace(taken)
        assert readings(replay_trace(path, trace.ticks)) == taken


def test_a_refused_device_id_is_refused_before_the_trace_file_is_opened(tmp_path):
    trace = _trace("fridge-\udcff", [(40, 520), None, (41, 521)])
    path = tmp_path / "trace.csv"
    with pytest.raises(ValueError, match="is not UTF-8 text"):
        write_trace(trace, path)
    assert not path.exists()
    path.write_text("kept\n")
    with pytest.raises(ValueError, match="is not UTF-8 text"):
        write_trace(trace, path)
    assert path.read_text() == "kept\n"


# -- replay against the reference ----------------------------------------------


def _reference_replay(path: Path, ticks: range) -> tuple[str | None, list[int], list[int]]:
    """replay_trace as it was first written: one csv.reader, a Reading per
    row for the range check, then `in ticks` and `ticks.index` for the
    row's slot."""
    temps, hums = [DROPPED] * len(ticks), [0] * len(ticks)
    device_id, last = None, 0
    with open(path, encoding="utf-8", newline="") as f:
        for line_no, row in enumerate(csv.reader(f), start=1):
            if line_no == 1:
                if row != TRACE_HEADER:
                    raise ParseError(line_no, f"bad header {row!r}")
                continue
            if not row:
                continue
            if len(row) != 4:
                raise ParseError(line_no, f"expected 4 fields, got {len(row)}")
            try:
                reading = Reading(
                    device_id=row[1], at=int(row[0]), temp_decic=int(row[2]), hum_decip=int(row[3])
                )
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from exc
            if device_id is not None:
                if reading.at <= last:
                    raise NonMonotonicTimestamp(line_no, f"{reading.at} after {last}")
                if reading.device_id != device_id:
                    raise TraceError(line_no, f"device {reading.device_id!r} after {device_id!r}")
            if reading.at not in ticks:
                raise TraceError(
                    line_no,
                    f"{reading.at} is not a sample tick of the run: "
                    f"every {ticks.step} s from {ticks.start} through {ticks.stop - 1}",
                )
            i = ticks.index(reading.at)
            temps[i], hums[i] = reading.temp_decic, reading.hum_decip
            device_id, last = reading.device_id, reading.at
    return device_id, temps, hums


def _spellings(value: int) -> list[str]:
    """Other ways a trace file may write `value`: forms int() reads too (a
    sign, whitespace, `_`, non-ASCII digits), and text that is no integer."""
    digits, sign = str(abs(value)), "-" if value < 0 else ""
    arabic = "".join(chr(0x660 + int(d)) for d in digits)  # Arabic-Indic digits
    return [
        sign + digits if sign else "+" + digits,
        f" {value}\t",
        sign + "_".join(digits),
        sign + arabic,
        sign + digits + "_",
        f"{value}.0",
        "x",
        "",
    ]


_TRACE_DEVICES = st.one_of(
    st.sampled_from(["d", "a,b", 'say "hi"', "cr\rlf", "\u00e9", ""]),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4),
)

# How a drawn trace row may differ from a clean row one tick after the last.
_ROW_FAULTS = (
    "blank line",
    "same time",
    "earlier time",
    "skipped ticks",
    "off the grid",
    "second device",
    "3 fields",
    "5 fields",
    "quoting flipped",
    "time spelt",
    "temp spelt",
    "hum spelt",
    "temp at an edge",
    "hum at an edge",
)


# The ends of the envelope and the values just outside them.
_EDGE_TEMPS = st.sampled_from([-401, -400, 1250, 1251])
_EDGE_HUMS = st.sampled_from([-1, 0, 1000, 1001])


def _csv_line(fields: list[str], flip: bool) -> str:
    """The fields joined by commas, each quoted when it holds a comma, quote
    or line break; `flip` turns that round, so a plain field holding one
    splits or breaks the row."""
    return ",".join(
        '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') != flip else text
        for text in fields
    )


@st.composite
def _replay_files(draw):
    """A run's ticks and a trace file for it. A row is clean, one tick after
    the last, unless it draws one or two _ROW_FAULTS: every other row does
    in some files, one in eight in others."""
    period = draw(st.sampled_from([30, 60]))
    start = draw(st.sampled_from([0, 7, -90]))
    n_ticks = draw(st.integers(1, 8))
    ticks = sample_ticks(start, n_ticks * period, period)
    device = draw(_TRACE_DEVICES)
    odds = draw(st.sampled_from([8, 2]))
    lines = [",".join(TRACE_HEADER[:3] if draw(st.integers(0, 19)) == 1 else TRACE_HEADER)]
    at = start + period * draw(st.sampled_from([0, 0, 0, -1, 1]))
    for _ in range(draw(st.integers(1, n_ticks + 1))):
        faults = set()
        if draw(st.integers(0, odds - 1)) == 1:
            faults = set(draw(st.lists(st.sampled_from(_ROW_FAULTS), min_size=1, max_size=2)))
        if "blank line" in faults:
            lines.append("")
            continue
        if "same time" not in faults:
            ticks_on = -1 if "earlier time" in faults else 3 if "skipped ticks" in faults else 1
            at += period * ticks_on
        if "off the grid" in faults:
            at += draw(st.sampled_from([1, -7]))
        temp = draw(_EDGE_TEMPS if "temp at an edge" in faults else st.integers(20, 90))
        hum = draw(_EDGE_HUMS if "hum at an edge" in faults else st.integers(400, 700))
        row_device = draw(_TRACE_DEVICES) if "second device" in faults else device
        fields = [str(at), row_device, str(temp), str(hum)]
        for i, fault in ((0, "time spelt"), (2, "temp spelt"), (3, "hum spelt")):
            if fault in faults:
                fields[i] = draw(st.sampled_from(_spellings(int(fields[i]))))
        if "3 fields" in faults:
            fields.pop(draw(st.integers(0, 3)))
        if "5 fields" in faults:
            fields.append("0")
        lines.append(_csv_line(fields, flip="quoting flipped" in faults))
    eol = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return ticks, eol.join(lines) + draw(st.sampled_from([eol, eol, ""]))


def _outcome(replay, path: Path, ticks: range):
    try:
        device_id, temps, hums = replay(path, ticks)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)
    return device_id, list(temps), list(hums)


def _replay_columns(path: Path, ticks: range):
    trace = replay_trace(path, ticks)
    assert trace.ticks == ticks
    return trace.device_id, trace.temps, trace.hums


HEADER_LINE = ",".join(TRACE_HEADER) + "\n"
TICKS_30_TO_90 = sample_ticks(0, 90, 30)


@settings(max_examples=300, deadline=None)
@given(case=_replay_files())
@example(case=(TICKS_30_TO_90, HEADER_LINE + '30,"a,b",-400,0\n60,"a,b",1250,1000\n'))
@example(case=(TICKS_30_TO_90, HEADER_LINE + "30,d,1251,500\n"))
@example(case=(TICKS_30_TO_90, HEADER_LINE + "30,,1251,1001\n"))
@example(case=(TICKS_30_TO_90, HEADER_LINE + "\n+30,d, 4_0 ,\u0665\u0662\u0660\n"))
@example(case=(TICKS_30_TO_90, HEADER_LINE + "x,d,y,z\n"))  # at is read first,
@example(case=(TICKS_30_TO_90, HEADER_LINE + "30,d,y,z\n"))  # then temp, then hum
@example(case=(TICKS_30_TO_90, HEADER_LINE + "30,d,40,500\n30,d,40,500\n"))
def test_replay_matches_the_reference(case):
    ticks, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(_replay_columns, path, ticks) == _outcome(_reference_replay, path, ticks)
