import contextlib
import csv
import io
import json
import os
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from coldwatch import cli, runner
from coldwatch.cli import main, parse_duration
from coldwatch.ledger import LedgerKind, load_ledger_entries, verify_entries
from coldwatch.energy import DutyPolicy, PowerProfile, energy_for_interval, render_csv, render_table
from coldwatch.model import DAY_SECONDS, DEFAULT_START as START, EventKind, MonitorEvent
from coldwatch.model import date_to_ts, day_start
from coldwatch.reports import REPORT_HEADER

CONFIG = """
[run]
device_id = cooler-7
start = 2025-03-01

[thresholds]
temp_min_decic = 10   ; 1.0 C
temp_max_decic = 80   ; 8.0 C
sample_period = 60
normal_log_period = 1200
critical_log_period = 60

[gas]
fee_per_gas_usd = 107/120000
"""


class TestParseDuration:
    @pytest.mark.parametrize(
        "text,expected",
        [("45s", 45), ("20m", 1200), ("24h", 86400), ("2d", 172800), ("90", 90), ("0s", 0),
         ("8h30m", 30600)],
    )
    def test_units(self, text, expected):
        assert parse_duration(text) == expected

    @pytest.mark.parametrize("text", ["", "h", "4.5h", "-30s", "10w", "8h30", "30x"])
    def test_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            parse_duration(text)


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run"
    code = main(["simulate", "--scenario", "normal", "--duration", "24h", "--seed", "7",
                 "--out", str(out)])
    assert code == 0
    return out


class TestSimulate:
    def test_manifest_counters(self, sim_dir):
        manifest = json.loads((sim_dir / "manifest.json").read_text())
        c = manifest["counters"]
        assert c["samples"] == 2880
        assert c["local_records"] == 72
        assert c["txs"] == 12
        assert c["alerts"] == 0

    def test_summary_line(self, sim_dir, capsys, tmp_path):
        code = main(["simulate", "--duration", "2h", "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert code == 0
        assert "samples=240" in out

    def test_breach_counters(self, tmp_path):
        out = tmp_path / "breach"
        assert main(["simulate", "--scenario", "breach", "--duration", "24h",
                     "--seed", "7", "--out", str(out)]) == 0
        c = json.loads((out / "manifest.json").read_text())["counters"]
        assert c["alerts"] == 1
        assert c["resolutions"] == 1
        assert c["txs"] == 14

    def test_zero_duration_produces_empty_artifacts(self, tmp_path):
        out = tmp_path / "empty"
        assert main(["simulate", "--duration", "0s", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert all(v == 0 for v in manifest["counters"].values())

    def test_non_empty_out_is_a_usage_error(self, tmp_path, capsys):
        # A second run would reopen the first one's outbox and leave its
        # second day's report behind.
        out = tmp_path / "run"
        assert main(["simulate", "--duration", "48h", "--seed", "7", "--out", str(out)]) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert main(["simulate", "--duration", "24h", "--seed", "7", "--out", str(out)]) == 2
        assert "not empty" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_breach_scenario_needs_enough_horizon(self, tmp_path, capsys):
        code = main(["simulate", "--scenario", "breach", "--duration", "1h",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_duration_is_a_usage_error(self, tmp_path):
        assert main(["simulate", "--duration", "one-day", "--out", str(tmp_path / "x")]) == 2

    def test_config_file_reshapes_the_run(self, tmp_path):
        cfg = tmp_path / "monitor.ini"
        cfg.write_text(CONFIG)
        out = tmp_path / "cfgrun"
        assert main(["simulate", "--duration", "2h", "--config", str(cfg),
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["device_id"] == "cooler-7"
        assert manifest["counters"]["samples"] == 120  # 60 s cadence
        assert manifest["thresholds"]["temp_max_decic"] == 80

    def test_broken_config_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "broken.ini"
        cfg.write_text("[thresholds]\nsample_period = soon\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "sample_period" in capsys.readouterr().err

    def test_fault_injection_flag(self, tmp_path):
        out = tmp_path / "fault"
        assert main(["simulate", "--duration", "24h", "--out", str(out),
                     "--fault", "ledger_outage:2h:3h"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["counters"]["txs"] == 12

    def test_fault_outside_the_run_is_a_usage_error(self, tmp_path, capsys):
        assert main(["simulate", "--duration", "2h", "--out", str(tmp_path / "x"),
                     "--fault", "ledger_outage:30h:31h"]) == 2
        assert "does not overlap the run" in capsys.readouterr().err

    def test_window_of_more_records_than_batch_limit_is_split(self, tmp_path):
        # A 5 s critical cadence puts 485 records in the breach's 2 h window.
        cfg = tmp_path / "fast.ini"
        cfg.write_text("[thresholds]\nsample_period = 5\ncritical_log_period = 5\n")
        out = tmp_path / "fast"
        assert main(["simulate", "--scenario", "breach", "--duration", "24h",
                     "--config", str(cfg), "--out", str(out)]) == 0
        entries = load_ledger_entries(out / "ledger.bin")
        assert verify_entries(entries).ok
        sizes = [len(e.payload.readings) for e in entries if e.kind is LedgerKind.READING_BATCH]
        assert max(sizes) == 256

    def test_compound_fault_offsets(self, tmp_path):
        # The README's crash example.
        assert main(["simulate", "--duration", "24h", "--out", str(tmp_path / "crash"),
                     "--fault", "process_crash:8h:8h30m"]) == 0

    def test_noise_config_reaches_the_scenario(self, tmp_path):
        cfg = tmp_path / "quiet.ini"
        cfg.write_text("[noise]\ntemp_bound_decic = 0\nhum_bound_decip = 0\n")
        out = tmp_path / "noiseless"
        assert main(["simulate", "--duration", "2h", "--config", str(cfg),
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "trace.csv").read_text().splitlines()[1:]]
        assert len(rows) == 240
        assert all(r[2:] == ["40", "520"] for r in rows)

    @pytest.mark.parametrize("flags", [["--realtime", "60"], ["--live-messenger"]])
    def test_wall_clock_pacing_and_the_live_messenger_are_unknown_options(
        self, tmp_path, capsys, flags
    ):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exit_:
            main(["simulate", "--duration", "5m", "--out", str(out), *flags])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
        assert not out.exists()

    def test_replay_scenario(self, sim_dir, tmp_path):
        out = tmp_path / "replayed"
        assert main(["simulate", "--scenario", "replay", "--seed", "7",
                     "--trace", str(sim_dir / "trace.csv"), "--duration", "24h",
                     "--out", str(out)]) == 0
        assert (out / "ledger.bin").read_bytes() == (sim_dir / "ledger.bin").read_bytes()
        assert (out / "events.log").read_bytes() == (sim_dir / "events.log").read_bytes()

    @pytest.mark.parametrize(
        "case,duration,offending",
        [("off_grid", "24h", START + 31), ("beyond_horizon", "12h", START + 43230),
         ("repeated", "24h", START + 60)],
    )
    def test_replay_rejects_rows_it_cannot_use(
        self, sim_dir, tmp_path, capsys, case, duration, offending
    ):
        header, *rows = (sim_dir / "trace.csv").read_text().splitlines()
        if case == "off_grid":
            rows = [f"{int(at) + 1},{rest}" for at, rest in (r.split(",", 1) for r in rows)]
        elif case == "repeated":
            rows.insert(2, rows[1])
        trace = tmp_path / "trace.csv"
        trace.write_text("\n".join([header, *rows]) + "\n")
        assert main(["simulate", "--scenario", "replay", "--trace", str(trace),
                     "--duration", duration, "--out", str(tmp_path / "x")]) == 2
        assert str(offending) in capsys.readouterr().err

    def test_replay_rejects_faults(self, sim_dir, tmp_path, capsys):
        assert main(["simulate", "--scenario", "replay", "--trace", str(sim_dir / "trace.csv"),
                     "--fault", "sensor_dropout:0h:1h", "--out", str(tmp_path / "x")]) == 2
        assert "--fault" in capsys.readouterr().err

    def test_replay_requires_a_trace(self, tmp_path):
        assert main(["simulate", "--scenario", "replay", "--out", str(tmp_path / "x")]) == 2

    def test_trace_needs_the_replay_scenario(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["simulate", "--scenario", "normal", "--trace", str(tmp_path / "none.csv"),
                     "--out", str(out)]) == 2
        assert "--trace" in capsys.readouterr().err
        assert not out.exists()

    def test_replay_rejects_a_device(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["simulate", "--scenario", "replay", "--trace", str(sim_dir / "trace.csv"),
                     "--device", "cooler-7", "--out", str(out)]) == 2
        assert "--device" in capsys.readouterr().err
        assert not out.exists()

    def test_replay_rejects_a_config_device_id(self, sim_dir, tmp_path, capsys):
        config = tmp_path / "monitor.ini"
        config.write_text("[run]\ndevice_id = cooler-3\n")
        out = tmp_path / "x"
        assert main(["simulate", "--scenario", "replay", "--trace", str(sim_dir / "trace.csv"),
                     "--config", str(config), "--out", str(out)]) == 2
        assert "[run] device_id" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "device",
        [
            "../../escaped", "..", ".", "a/b", "nul\0id", "",
            pytest.param("x" * 256, id="256-bytes"),
            pytest.param("\u00e9" * 128, id="128-two-byte-chars"),
        ],
    )
    def test_device_flag_must_be_one_path_component(self, tmp_path, capsys, device):
        out = tmp_path / "a" / "run"
        assert main(["simulate", "--duration", "1h", "--device", device, "--out", str(out)]) == 2
        assert "device" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_config_device_id_must_be_one_path_component(self, tmp_path, capsys):
        config = tmp_path / "monitor.ini"
        config.write_text("[run]\ndevice_id = ../../escaped\n")
        out = tmp_path / "a" / "run"
        assert main(["simulate", "--duration", "1h", "--config", str(config),
                     "--out", str(out)]) == 2
        assert "device id" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["monitor.ini"]

    def test_replayed_device_id_must_be_one_path_component(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        header = "timestamp,device_id,temp_decic,hum_decip"
        trace.write_text(f"{header}\n{START + 30},../../escaped,40,520\n")
        out = tmp_path / "a" / "run"
        assert main(["simulate", "--scenario", "replay", "--trace", str(trace),
                     "--duration", "1h", "--out", str(out)]) == 2
        assert "device id" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.csv"]

    def test_replayed_device_id_must_fit_a_file_name(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        header = "timestamp,device_id,temp_decic,hum_decip"
        trace.write_text(f"{header}\n{START + 30},{'x' * 256},40,520\n")
        out = tmp_path / "a" / "run"
        assert main(["simulate", "--scenario", "replay", "--trace", str(trace),
                     "--duration", "1h", "--out", str(out)]) == 2
        assert "255 UTF-8 bytes" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.csv"]

    @pytest.mark.parametrize(
        "device", ["x" * 255, "\u00e9" * 127 + "x"], ids=["255-bytes", "255-bytes-utf8"]
    )
    def test_a_device_id_of_255_bytes_names_the_report_directory(self, tmp_path, device):
        out = tmp_path / "run"
        assert main(["simulate", "--duration", "1h", "--device", device, "--out", str(out)]) == 0
        assert [p.name for p in (out / "reports").iterdir()] == [device]

    @pytest.mark.parametrize(
        "flags, config",
        [
            (["--duration", "1h"], "[run]\nstart = 1000000000000\n"),
            (["--duration", "1h"], "[run]\nstart = 100000000000000000000\n"),
            (["--start", "9999-12-31", "--duration", "2d"], ""),
            (["--duration", "1h"], "[run]\nstart = -62135596801\n"),
        ],
        ids=["year-33658", "past-time_t", "ends-in-year-10000", "starts-in-year-0"],
    )
    def test_a_run_without_utc_dates_writes_nothing(self, tmp_path, capsys, flags, config):
        ini = tmp_path / "monitor.ini"
        ini.write_text(config)
        out = tmp_path / "run"
        assert main(["simulate", *flags, "--config", str(ini), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "[run] start" in err and "--start" in err and "--duration" in err
        assert not out.exists()

    def test_a_run_may_end_at_the_last_dated_midnight(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--start", "9999-12-31", "--duration", "1d",
                     "--out", str(out)]) == 0
        assert (out / "reports" / "fridge-1" / "9999-12-31.csv").exists()

    def test_a_run_before_year_1000_writes_four_digit_years(self, tmp_path, capsys):
        ini = tmp_path / "monitor.ini"
        ini.write_text("[run]\nstart = -46388678400\n")  # 0500-01-01T00:00:00Z
        out = tmp_path / "run"
        assert main(["simulate", "--duration", "1h", "--config", str(ini),
                     "--out", str(out)]) == 0
        report = out / "reports" / "fridge-1" / "0500-01-01.csv"
        assert report.read_text().splitlines()[1].startswith("0500-01-01T00:00:30Z,fridge-1,")
        capsys.readouterr()
        assert main(["verify", "--ledger", str(out / "ledger.bin"), "--report", str(report)]) == 0
        assert "report verdict: Authentic" in capsys.readouterr().out

    @pytest.mark.parametrize("device", ["a,b", 'a"b', "a\rb", "a\nb", "a%db", "%s%%"])
    def test_report_rows_quote_the_device_id(self, tmp_path, capsys, device):
        out = tmp_path / "run"
        assert main(["simulate", "--duration", "1h", "--device", device, "--out", str(out)]) == 0
        report = out / "reports" / device / "2025-01-01.csv"
        with open(report, encoding="utf-8", newline="") as f:
            header, *rows = csv.reader(f)
        assert header == REPORT_HEADER.split(",")
        assert rows and all(len(row) == 6 and row[1] == device for row in rows)
        # The trace and event-log writers put the id into their row layouts.
        with open(out / "trace.csv", encoding="utf-8", newline="") as f:
            header, *rows = csv.reader(f)
        assert len(rows) == 120 and all(row[1] == device for row in rows)
        docs = [json.loads(line) for line in (out / "events.log").read_text("utf-8").splitlines()]
        readings = [doc["payload"].get("reading") or doc["payload"]["record"]["reading"]
                    for doc in docs if doc["kind"] in ("SampleTaken", "LocalLogWritten")]
        assert len(readings) == 120 + 3 and all(r["device_id"] == device for r in readings)
        capsys.readouterr()
        assert main(["verify", "--ledger", str(out / "ledger.bin"), "--report", str(report)]) == 0
        assert "report verdict: Authentic" in capsys.readouterr().out

    def test_device_id_that_is_not_utf8_text_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "run"
        # A --device byte that is not UTF-8 reaches Python as a lone surrogate.
        assert main(["simulate", "--duration", "1h", "--device", "fridge-\udcff",
                     "--out", str(out)]) == 2
        assert "is not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    def test_device_id_with_a_carriage_return_is_a_directory_name(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--duration", "1h", "--device", "cr\rid", "--out", str(out)]) == 0
        assert (out / "reports" / "cr\rid" / "2025-01-01.csv").exists()


class TestVerify:
    def test_fresh_artifacts_pass(self, sim_dir, capsys):
        code = main([
            "verify",
            "--ledger", str(sim_dir / "ledger.bin"),
            "--report", str(sim_dir / "reports" / "fridge-1" / "2025-01-01.csv"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "ledger ok" in out
        assert "Authentic" in out

    def test_flipped_bit_fails_with_location(self, sim_dir, tmp_path, capsys):
        data = bytearray((sim_dir / "ledger.bin").read_bytes())
        data[len(data) // 2] ^= 0x10
        bad = tmp_path / "tampered.bin"
        bad.write_bytes(bytes(data))
        code = main(["verify", "--ledger", str(bad)])
        assert code == 3
        assert "FAILED" in capsys.readouterr().out

    def test_tampered_report_fails(self, sim_dir, tmp_path, capsys):
        report = sim_dir / "reports" / "fridge-1" / "2025-01-01.csv"
        data = bytearray(report.read_bytes())
        data[50] ^= 0x01
        bad_dir = tmp_path / "reports" / "fridge-1"
        bad_dir.mkdir(parents=True)
        bad = bad_dir / "2025-01-01.csv"
        bad.write_bytes(bytes(data))
        code = main(["verify", "--ledger", str(sim_dir / "ledger.bin"), "--report", str(bad)])
        assert code == 3
        assert "DigestMismatch" in capsys.readouterr().out

    def test_a_copied_report_is_authentic_in_any_directory(self, sim_dir, tmp_path, capsys):
        # The digest covers every row's device id, so the directory names no device.
        copy = tmp_path / "copies" / "2025-01-01.csv"
        copy.parent.mkdir()
        copy.write_bytes((sim_dir / "reports" / "fridge-1" / "2025-01-01.csv").read_bytes())
        ledger = str(sim_dir / "ledger.bin")
        assert main(["verify", "--ledger", ledger, "--report", str(copy)]) == 0
        assert "Authentic" in capsys.readouterr().out
        assert main(["verify", "--ledger", ledger, "--report", str(copy), "--device", "cooler-9"]) == 3
        assert "NoAnchor" in capsys.readouterr().out

    def test_unanchored_day_reports_no_anchor(self, sim_dir, tmp_path, capsys):
        report = tmp_path / "2030-05-05.csv"
        report.write_text("timestamp,device_id,temp_c,hum_pct,mode,event\n")
        code = main(["verify", "--ledger", str(sim_dir / "ledger.bin"),
                     "--report", str(report), "--day", "2030-05-05"])
        assert code == 3
        assert "NoAnchor" in capsys.readouterr().out

    def test_missing_ledger_is_usage_error(self, tmp_path):
        assert main(["verify", "--ledger", str(tmp_path / "nope.bin")]) == 2

    @pytest.mark.parametrize("flag,value", [("--day", "2025-01-01"), ("--device", "fridge-1")])
    def test_report_flags_need_a_report(self, sim_dir, capsys, flag, value):
        assert main(["verify", "--ledger", str(sim_dir / "ledger.bin"), flag, value]) == 2
        out, err = capsys.readouterr()
        assert flag in err
        assert out == ""

    def test_unparseable_ledger_fails_verification(self, tmp_path, capsys):
        bad = tmp_path / "ledger.bin"
        bad.write_bytes(b"not a ledger")
        assert main(["verify", "--ledger", str(bad)]) == 3
        assert "ledger verification FAILED" in capsys.readouterr().out


class TestCost:
    def test_quiet_day_line_and_annualized(self, sim_dir, capsys):
        code = main(["cost", "--ledger", str(sim_dir / "ledger.bin")])
        out = capsys.readouterr().out
        assert code == 0
        assert "2025-01-01" in out
        assert "12" in out
        assert "$0.0107" in out
        assert "annualized (mean x 365): $3.91" in out

    def test_single_day_filter(self, sim_dir, capsys):
        code = main(["cost", "--ledger", str(sim_dir / "ledger.bin"), "--day", "2025-01-01"])
        assert code == 0
        assert "$0.0107" in capsys.readouterr().out

    def test_each_entry_is_billed_once(self, tmp_path, monkeypatch, capsys):
        from coldwatch import ledger

        out = tmp_path / "run"
        assert main(["simulate", "--duration", "3d", "--out", str(out)]) == 0
        entries = load_ledger_entries(out / "ledger.bin")
        billed, calls = ledger.accounting_day, []

        def counted(entry):
            calls.append(entry)
            return billed(entry)

        monkeypatch.setattr(ledger, "accounting_day", counted)
        capsys.readouterr()
        assert main(["cost", "--ledger", str(out / "ledger.bin")]) == 0
        assert len(calls) == len(entries) == 36
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[1:4]] == ["2025-01-01", "2025-01-02",
                                                             "2025-01-03"]
        assert lines[-1] == "annualized (mean x 365): $3.91"

    def test_a_day_without_entries_costs_nothing(self, sim_dir, capsys):
        code = main(["cost", "--ledger", str(sim_dir / "ledger.bin"), "--day", "2025-02-01"])
        assert code == 0
        assert "2025-02-01      0     0 $0.0000" in capsys.readouterr().out

    def test_unparseable_ledger_is_a_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "ledger.bin"
        bad.write_bytes(b"not a ledger")
        assert main(["cost", "--ledger", str(bad)]) == 2
        assert "unreadable ledger" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "gas, message",
        [("alert = 0", "[gas] alert must be > 0"),
         ("fee_per_gas_usd = -0.5", "[gas] fee_per_gas_usd must be >= 0")],
        ids=["zero-units", "negative-fee"],
    )
    def test_a_gas_schedule_it_cannot_bill_is_a_usage_error(
        self, sim_dir, tmp_path, capsys, gas, message
    ):
        ini = tmp_path / "gas.ini"
        ini.write_text(f"[gas]\n{gas}\n")
        assert main(["cost", "--ledger", str(sim_dir / "ledger.bin"), "--config", str(ini)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


class TestEnergy:
    def test_table_shows_96_7_percent_sensor_saving(self, sim_dir, capsys):
        code = main(["energy", "--events", str(sim_dir / "events.log")])
        out = capsys.readouterr().out
        assert code == 0
        assert "sensor" in out
        assert "96.7%" in out

    def test_csv_output(self, sim_dir, tmp_path, capsys):
        csv_path = tmp_path / "energy.csv"
        code = main(["energy", "--events", str(sim_dir / "events.log"),
                     "--csv", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "component,baseline_j,duty_j,saving_pct"
        sensor = next(l for l in lines if l.startswith("sensor,"))
        assert sensor.endswith("96.7")

    def test_single_day_filter(self, sim_dir, capsys):
        code = main(["energy", "--events", str(sim_dir / "events.log"),
                     "--day", "2025-01-01"])
        assert code == 0
        assert "96.7%" in capsys.readouterr().out

    def test_event_log_is_swept_once(self, sim_dir, tmp_path, monkeypatch):
        """A time-ordered log is read once, as a stream; one out of time
        order is read again, into a list."""
        reads = []
        read = runner.iter_events

        def counted(path, *name):
            reads.append(path)
            return read(path, *name)

        monkeypatch.setattr(runner, "iter_events", counted)  # events_from_log's
        monkeypatch.setattr(cli, "iter_events", counted)
        log, moved = sim_dir / "events.log", tmp_path / "moved.log"
        lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
        moved.write_text(lines[-1] + "".join(lines[:-1]), encoding="utf-8")
        for path, passes in ((log, 1), (moved, 2)):
            reads.clear()
            code = main(["energy", "--events", str(path), "--csv", str(tmp_path / "energy.csv")])
            assert code == 0
            assert reads == [path] * passes

    def test_a_moved_line_changes_no_figure(self, tmp_path, capsys):
        """The interval runs from the earliest event to the latest, wherever
        their lines are. Taken from the first and last lines, a two-day log
        whose last line was moved to the top covered its second day only."""
        run = tmp_path / "run"
        assert main(["simulate", "--scenario", "normal", "--seed", "7", "--duration", "2d",
                     "--out", str(run)]) == 0
        lines = (run / "events.log").read_text(encoding="utf-8").splitlines(keepends=True)
        moved = tmp_path / "moved.log"
        moved.write_text(lines[-1] + "".join(lines[:-1]), encoding="utf-8")
        capsys.readouterr()
        tables = []
        for path in (run / "events.log", moved):
            assert main(["energy", "--events", str(path)]) == 0
            tables.append(capsys.readouterr().out)
        assert tables[1] == tables[0]
        assert "1036800.0" in tables[0]  # the controller's baseline over two days

    def test_a_pipe_is_spooled_to_a_file_and_swept(self, sim_dir, tmp_path, capsys, monkeypatch):
        """A pipe can be read neither from its end nor twice, so it is
        copied to a file, which is swept as a stream like any other."""
        assert main(["energy", "--events", str(sim_dir / "events.log")]) == 0
        expected = capsys.readouterr().out
        swept = []
        read_events = cli.iter_events

        def recorded(path, *name):
            swept.append(Path(path).is_file())
            return read_events(path, *name)

        monkeypatch.setattr(cli, "iter_events", recorded)
        read, write = os.pipe()

        def feed():  # the 24 h log overfills a pipe's buffer
            with open(write, "wb") as f:
                f.write((sim_dir / "events.log").read_bytes())

        thread = threading.Thread(target=feed)
        thread.start()
        try:
            assert main(["energy", "--events", f"/dev/fd/{read}"]) == 0
        finally:
            os.close(read)
            thread.join()
        assert capsys.readouterr().out == expected
        assert swept == [True]

    def test_a_bad_line_over_a_pipe_is_named_by_the_path_given(self, capsys):
        """The pipe is spooled to a temporary file, which is gone when the
        command exits, so the message names the path on the command line."""
        read, write = os.pipe()
        with open(write, "wb") as f:
            f.write(b'{"at":1,"kind":"Nope","payload":{}}\n')
        try:
            assert main(["energy", "--events", f"/dev/fd/{read}"]) == 2
        finally:
            os.close(read)
        assert capsys.readouterr().err == (
            f"error: /dev/fd/{read}: line 1: unknown event kind 'Nope'\n"
        )

    def test_missing_events_is_usage_error(self, tmp_path):
        assert main(["energy", "--events", str(tmp_path / "missing.log")]) == 2

    def test_empty_log_needs_a_day(self, tmp_path, capsys):
        events = tmp_path / "events.log"
        events.touch()
        assert main(["energy", "--events", str(events)]) == 2
        assert "no --day" in capsys.readouterr().err
        assert main(["energy", "--events", str(events), "--day", "2025-01-01"]) == 0

    @pytest.mark.parametrize(
        "bad_line",
        [
            '{"at":1735689630,"payload":{}}',
            "[1]",
            '{"at":1735689630,"kind":"SampleSkipped","payload":{}}',
            '{"at":"x","kind":"SampleTaken","payload":{}}',
        ],
        ids=["no-kind", "not-an-object", "unknown-kind", "at-not-an-int"],
    )
    def test_malformed_event_line_is_a_usage_error_naming_it(
        self, sim_dir, tmp_path, capsys, bad_line
    ):
        lines = (sim_dir / "events.log").read_text(encoding="utf-8").splitlines(keepends=True)
        lines.insert(2, bad_line + "\n")
        events = tmp_path / "events.log"
        events.write_text("".join(lines), encoding="utf-8")
        assert main(["energy", "--events", str(events)]) == 2
        assert "line 3:" in capsys.readouterr().err

    def test_a_byte_that_is_not_utf8_is_a_usage_error_naming_its_line(
        self, sim_dir, tmp_path, capsys
    ):
        lines = (sim_dir / "events.log").read_bytes().splitlines(keepends=True)[:500]
        assert b'"device_id":"fridge-1"' in lines[300]
        lines[300] = lines[300].replace(b"fridge-1", b"fridge-\xff")
        events = tmp_path / "events.log"
        events.write_bytes(b"".join(lines))
        assert main(["energy", "--events", str(events)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {events}: line 301: byte 0xff is not UTF-8\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "draw, message",
        [
            ("1e308", "[power] sensor: active_mw"),  # no finite number of microwatts
            ("1.7e305", "[power] active draws"),  # 1.7e308 uW for a day overflows a float
        ],
    )
    def test_a_power_draw_too_large_to_account_is_a_usage_error(
        self, sim_dir, tmp_path, capsys, draw, message
    ):
        ini = tmp_path / "power.ini"
        ini.write_text(f"[power]\nsensor_active_mw = {draw}\n", encoding="utf-8")
        assert main(["energy", "--events", str(sim_dir / "events.log"),
                     "--profile", str(ini)]) == 2
        assert message in capsys.readouterr().err

    def test_display_idle_power_is_the_dim_level(self, sim_dir, tmp_path, capsys):
        def display_j(*profile):
            assert main(["energy", "--events", str(sim_dir / "events.log"), *profile]) == 0
            line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("display"))
            return line.split()[2]

        ini = tmp_path / "power.ini"
        ini.write_text("[power]\ndisplay_idle_mw = 5\n", encoding="utf-8")
        # 720 s awake at 200 mW, the rest of the day idle at 20 mW, or at 5 mW.
        assert display_j() == "1857.6"
        assert display_j("--profile", str(ini)) == "572.4"


@pytest.mark.parametrize(
    "argv, named",
    [
        (["simulate", "--start", "2025-02-30", "--out", "{tmp}/run"], "--start"),
        (["energy", "--events", "{run}/events.log", "--day", "2025-02-30"], "--day"),
        (["cost", "--ledger", "{run}/ledger.bin", "--day", "2025-13-01"], "--day"),
        (["verify", "--ledger", "{run}/ledger.bin", "--report", "x/2025-02-30.csv"],
         "--report x/2025-02-30.csv"),
        (["verify", "--ledger", "{run}/ledger.bin", "--report", "{run}/reports/fridge-1/a.csv",
          "--day", "2025-02-29"], "--day"),
    ],
    ids=["simulate-start", "energy-day", "cost-day", "verify-report-name", "verify-day"],
)
def test_a_date_that_is_no_calendar_day_is_named_before_any_output(
    sim_dir, tmp_path, capsys, argv, named
):
    assert main([arg.format(run=sim_dir, tmp=tmp_path) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: {named}: " in err and "is not a calendar day" in err
    assert not (tmp_path / "run").exists()


def test_internal_invariant_violation_exits_1(monkeypatch, capsys):
    def broken(args):
        raise AssertionError("seq went backwards")

    monkeypatch.setattr(cli, "cmd_cost", broken)
    assert main(["cost", "--ledger", "ledger.bin"]) == 1
    assert "internal error: seq went backwards" in capsys.readouterr().err


def reference_energy(path, day, csv_path):
    """`coldwatch energy` by the book: the whole log as a list, the interval
    from --day or else from the earliest and the latest event, and
    energy_for_interval. Its exit code, stdout, stderr and CSV text."""
    try:
        events = runner.events_from_log(path)
        if day is not None:
            start = date_to_ts(day)
            end = start + DAY_SECONDS
        elif events:
            start = day_start(min(event.at for event in events))
            end = -(-max(event.at for event in events) // DAY_SECONDS) * DAY_SECONDS
            end = max(end, start + DAY_SECONDS)
        else:
            return 2, "", "error: empty event log and no --day given\n", None
        duty = energy_for_interval(events, PowerProfile(), DutyPolicy(), start, end)
    except ValueError as exc:
        return 2, "", f"error: {exc}\n", None
    return 0, f"{render_table(duty)}\ncsv written to {csv_path}\n", "", render_csv(duty)


def drawn_line(offset, kind):
    at = START + offset
    if kind is EventKind.SAMPLE_TAKEN:
        return runner._SAMPLE_LINE % (at, at, '"fridge-1"', 550, 45) + "\n"
    return runner.event_to_json(MonitorEvent(kind, at, {})) + "\n"


# Instants over three days, many of them on or near a midnight (an interval's
# end), and close enough together for camera and buzzer windows to overlap.
OFFSETS = st.builds(
    lambda day, second: day * DAY_SECONDS + second,
    st.integers(0, 2),
    st.one_of(st.integers(-12, 12), st.integers(0, DAY_SECONDS - 1)),
)
LOG_EVENTS = st.lists(st.tuples(OFFSETS, st.sampled_from(list(EventKind))), max_size=8)
BAD_LINES = st.sampled_from(["[1]\n", "\n", '{"at":1', '{"at":1735689630,"kind":"Sample"}\n'])


@st.composite
def energy_logs(draw):
    """An events.log's text: time-ordered, with one line moved, or with a
    bad line before a bad last line."""
    drawn = sorted(draw(LOG_EVENTS), key=lambda event: event[0])
    lines = [drawn_line(offset, kind) for offset, kind in drawn]
    shape = draw(st.sampled_from(["ordered", "moved", "bad"]))
    if shape == "moved" and lines:
        line = lines.pop(draw(st.integers(0, len(lines) - 1)))
        lines.insert(draw(st.integers(0, len(lines))), line)
    elif shape == "bad":
        lines.insert(draw(st.integers(0, len(lines))), draw(BAD_LINES))
        last = draw(st.one_of(BAD_LINES, st.sampled_from(lines[-1:]).map(lambda l: l[:-9])))
        lines.append(last)
    return "".join(lines)


@settings(max_examples=200, deadline=None)
@given(energy_logs(), st.sampled_from([None, "2025-01-01", "2025-01-02", "2025-01-04"]))
def test_energy_streams_what_the_whole_list_gives(text, day):
    with tempfile.TemporaryDirectory() as tmp:
        path, csv_path = Path(tmp) / "events.log", Path(tmp) / "energy.csv"
        path.write_text(text, encoding="utf-8")
        expected = reference_energy(path, day, csv_path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["energy", "--events", str(path), "--csv", str(csv_path),
                         *(["--day", day] if day else [])])
        csv_text = csv_path.read_text(encoding="utf-8") if csv_path.exists() else None
        assert (code, out.getvalue(), err.getvalue(), csv_text) == expected
