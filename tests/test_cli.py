import json

import pytest

from coldwatch.cli import main, parse_duration
from coldwatch.model import DEFAULT_START as START

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

    def test_realtime_flag_paces_the_clock(self, tmp_path):
        out = tmp_path / "rt"
        assert main(["simulate", "--duration", "5m", "--out", str(out),
                     "--realtime", "100000"]) == 0

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

    def test_replay_requires_a_trace(self, tmp_path):
        assert main(["simulate", "--scenario", "replay", "--out", str(tmp_path / "x")]) == 2

    def test_live_messenger_requires_env_credentials(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("MONITOR_BOT_TOKEN", raising=False)
        monkeypatch.delenv("MONITOR_CHAT_ID", raising=False)
        code = main(["simulate", "--duration", "1h", "--out", str(tmp_path / "x"),
                     "--live-messenger"])
        assert code == 2
        assert "MONITOR_BOT_TOKEN" in capsys.readouterr().err


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

    def test_unanchored_day_reports_no_anchor(self, sim_dir, tmp_path, capsys):
        report = tmp_path / "2030-05-05.csv"
        report.write_text("timestamp,device_id,temp_c,hum_pct,mode,event\n")
        code = main(["verify", "--ledger", str(sim_dir / "ledger.bin"),
                     "--report", str(report), "--day", "2030-05-05"])
        assert code == 3
        assert "NoAnchor" in capsys.readouterr().out

    def test_missing_ledger_is_usage_error(self, tmp_path):
        assert main(["verify", "--ledger", str(tmp_path / "nope.bin")]) == 2


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

    def test_missing_events_is_usage_error(self, tmp_path):
        assert main(["energy", "--events", str(tmp_path / "missing.log")]) == 2
