import pytest

from coldwatch.model import (
    ModelError,
    Reading,
    Thresholds,
    day_start,
    date_to_ts,
    format_tenths,
    iso_to_ts,
    ts_to_date,
    ts_to_iso,
)


def test_format_tenths_examples():
    assert format_tenths(82) == "8.2"
    assert format_tenths(610) == "61.0"
    assert format_tenths(-5) == "-0.5"
    assert format_tenths(0) == "0.0"
    assert format_tenths(1250) == "125.0"


def test_iso_round_trip():
    ts = 1735689600
    assert ts_to_iso(ts) == "2025-01-01T00:00:00Z"
    assert iso_to_ts("2025-01-01T00:40:00Z") == ts + 2400
    assert iso_to_ts(ts_to_iso(ts + 12345)) == ts + 12345


def test_timestamp_range_covers_2020_to_2100():
    assert ts_to_iso(date_to_ts("2020-01-01")) == "2020-01-01T00:00:00Z"
    assert ts_to_iso(date_to_ts("2100-12-31")) == "2100-12-31T00:00:00Z"


@pytest.mark.parametrize(
    "date", ["0001-01-01", "0045-06-30", "0500-01-01", "0999-12-31", "9999-12-31"]
)
def test_dates_have_four_digit_years_and_read_back(date):
    ts = date_to_ts(date) + 30
    assert ts_to_date(ts) == date
    assert ts_to_iso(ts) == f"{date}T00:00:30Z"
    assert iso_to_ts(ts_to_iso(ts)) == ts


def test_day_start():
    ts = 1735689600 + 5000
    assert day_start(ts) == 1735689600
    assert day_start(1735689600) == 1735689600


class TestReading:
    def test_envelope_edges_ok(self):
        Reading("d", 0, -400, 0)
        Reading("d", 0, 1250, 1000)

    @pytest.mark.parametrize("temp,hum", [(-401, 500), (1251, 500), (40, -1), (40, 1001)])
    def test_out_of_envelope_rejected(self, temp, hum):
        with pytest.raises(ModelError):
            Reading("d", 0, temp, hum)

    def test_empty_device_rejected(self):
        with pytest.raises(ModelError):
            Reading("", 0, 40, 500)


class TestThresholds:
    def test_defaults(self):
        th = Thresholds()
        assert th.sample_period == 30
        assert th.normal_log_period == 1200
        assert th.breach_escalation == 2400
        assert th.critical_log_period == 30
        assert th.batch_anchor_period == 7200
        assert (th.temp_min_decic, th.temp_max_decic) == (20, 60)
        assert th.hysteresis_decic == 3

    def test_band_order_enforced(self):
        with pytest.raises(ModelError):
            Thresholds(temp_min_decic=60, temp_max_decic=60)
        with pytest.raises(ModelError):
            Thresholds(hum_min_decip=700, hum_max_decip=650)

    def test_sample_period_must_divide_cadences(self):
        with pytest.raises(ModelError):
            Thresholds(sample_period=7)
        Thresholds(sample_period=60, critical_log_period=60)

    def test_positive_periods(self):
        with pytest.raises(ModelError):
            Thresholds(breach_escalation=0)
