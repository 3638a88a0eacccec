"""INI configuration: every section parses into its dataclass, and every
malformed file fails with a ConfigError that names the section and option."""

from fractions import Fraction

import pytest

from coldwatch.config import AppConfig, ConfigError, load_config
from coldwatch.energy import ComponentPower, DutyPolicy, PowerProfile
from coldwatch.ledger import GasSchedule, LedgerKind
from coldwatch.model import DEFAULT_START, Thresholds, date_to_ts
from coldwatch.sensor import NoiseModel

FULL = """
[run]
device_id = cooler-7
chat_id = kitchen
start = 2025-03-01

[thresholds]
temp_min_decic = 10
temp_max_decic = 80
hum_min_decip = 300
hum_max_decip = 700
hysteresis_decic = 5
breach_escalation = 1800
sample_period = 60
normal_log_period = 600
critical_log_period = 120
batch_anchor_period = 3600

[noise]
temp_bound_decic = 0
hum_bound_decip = 7

[gas]
fee_per_gas_usd = 107/120000
reading_batch = 200
report_anchor = 300

[power]
controller_active_mw = 5000
controller_idle_mw = 2000
camera_active_mw = 1500.5
display_idle_mw = 0

[duty]
sensor_active_s_per_sample = 2
display_hold_s = 30
camera_active_s_per_capture = 4
buzzer_active_s_per_alert = 0
"""


def load(tmp_path, text):
    path = tmp_path / "monitor.ini"
    path.write_text(text, encoding="utf-8")
    return load_config(path)


def test_no_file_gives_the_defaults():
    assert load_config(None) == AppConfig()


def test_empty_file_gives_the_defaults(tmp_path):
    assert load(tmp_path, "") == AppConfig()


def test_every_section_reaches_its_dataclass(tmp_path):
    cfg = load(tmp_path, FULL)
    assert cfg.device_id == "cooler-7"
    assert cfg.chat_id == "kitchen"
    assert cfg.start == date_to_ts("2025-03-01")
    assert cfg.thresholds == Thresholds(
        temp_min_decic=10,
        temp_max_decic=80,
        hum_min_decip=300,
        hum_max_decip=700,
        hysteresis_decic=5,
        breach_escalation=1800,
        sample_period=60,
        normal_log_period=600,
        critical_log_period=120,
        batch_anchor_period=3600,
    )
    assert cfg.noise == NoiseModel(temp_bound_decic=0, hum_bound_decip=7)
    units = dict(GasSchedule().gas)
    units[LedgerKind.READING_BATCH] = 200
    units[LedgerKind.REPORT_ANCHOR] = 300
    assert cfg.gas == GasSchedule(gas=units, fee_per_gas_usd=Fraction(107, 120000))
    assert cfg.power == PowerProfile(
        controller=ComponentPower(active_mw=5000.0, idle_mw=2000.0),
        camera=ComponentPower(active_mw=1500.5, idle_mw=PowerProfile().camera.idle_mw),
        display=ComponentPower(active_mw=PowerProfile().display.active_mw, idle_mw=0.0),
    )
    assert cfg.duty == DutyPolicy(
        sensor_active_s_per_sample=2,
        display_hold_s=30,
        camera_active_s_per_capture=4,
        buzzer_active_s_per_alert=0,
    )


def test_omitted_options_keep_their_defaults(tmp_path):
    cfg = load(tmp_path, "[thresholds]\nsample_period = 15\n[noise]\n[power]\n[duty]\n")
    assert cfg.thresholds == Thresholds(sample_period=15)
    assert cfg.noise == NoiseModel()
    assert cfg.power == PowerProfile()
    assert cfg.duty == DutyPolicy()
    assert cfg.start == DEFAULT_START


def test_power_options_of_one_component_apply_together(tmp_path):
    # An idle draw above the default active draw is valid once the new
    # active draw is in place, whichever option comes first.
    cfg = load(tmp_path, "[power]\ndisplay_idle_mw = 250\ndisplay_active_mw = 300\n")
    assert cfg.power.display == ComponentPower(active_mw=300.0, idle_mw=250.0)


def test_start_accepts_unix_seconds(tmp_path):
    assert load(tmp_path, "[run]\nstart = 86400\n").start == 86400


@pytest.mark.parametrize(
    "text,message",
    [
        ("[extra]\nx = 1\n", "unknown section [extra]"),
        ("[run]\nowner = me\n", "[run] unknown option 'owner'"),
        ("[run]\nstart = someday\n", "[run] start"),
        ("[thresholds]\nsample_rate = 30\n", "[thresholds] unknown option 'sample_rate'"),
        ("[thresholds]\nsample_period = 30s\n", "[thresholds] sample_period: expected integer"),
        ("[thresholds]\nsample_period = 0\n", "[thresholds] sample_period must be positive"),
        ("[thresholds]\nnormal_log_period = 1000\n", "[thresholds] sample_period must divide"),
        ("[noise]\nbound = 3\n", "[noise] unknown option 'bound'"),
        ("[noise]\ntemp_bound_decic = 0.5\n", "[noise] temp_bound_decic: expected integer"),
        ("[noise]\ntemp_bound_decic = -3\n", "[noise] temp_bound_decic must be >= 0"),
        ("[noise]\nhum_bound_decip = -1\n", "[noise] hum_bound_decip must be >= 0"),
        ("[gas]\nfee_per_gas_usd = cheap\n", "[gas] fee_per_gas_usd: expected decimal"),
        ("[gas]\nfee_per_gas_usd = 1/0\n", "[gas] fee_per_gas_usd: expected decimal"),
        ("[gas]\nmint = 5\n", "[gas] unknown option 'mint'"),
        ("[gas]\nalert = many\n", "[gas] alert: expected integer"),
        ("[gas]\nalert = 0\n", "[gas] alert must be > 0"),
        ("[gas]\nreading_batch = -2\n", "[gas] reading_batch must be > 0"),
        ("[gas]\nfee_per_gas_usd = -0.5\n", "[gas] fee_per_gas_usd must be >= 0"),
        ("[power]\nfan_active_mw = 1\n", "[power] unknown option 'fan_active_mw'"),
        ("[power]\nsensor_busy_mw = 1\n", "[power] unknown option 'sensor_busy_mw'"),
        ("[power]\nsensor_active_mw = lots\n", "[power] sensor_active_mw: expected number"),
        ("[power]\nsensor_idle_mw = 9\n", "[power] sensor: need active_mw >= idle_mw >= 0"),
        ("[power]\ndisplay_idle_mw = dim\n", "[power] display_idle_mw: expected number"),
        ("[power]\ndisplay_idle_mw = -20\n", "[power] display: need active_mw >= idle_mw >= 0"),
        ("[power]\ndisplay_active_mw = 10\n", "[power] display: need active_mw >= idle_mw >= 0"),
        ("[power]\nsensor_active_mw = inf\n", "[power] sensor: active_mw inf is not a finite"),
        ("[power]\nsensor_active_mw = 1e400\n", "[power] sensor: active_mw inf is not a finite"),
        ("[power]\nsensor_active_mw = 1e308\n", "[power] sensor: active_mw 1e+308 is not a finite"),
        ("[duty]\nsleep_s = 1\n", "[duty] unknown option 'sleep_s'"),
        ("[duty]\ndisplay_hold_s = 1.5\n", "[duty] display_hold_s: expected integer"),
        ("[duty]\ndisplay_dim = no\n", "[duty] unknown option 'display_dim'"),
        ("[duty]\nsensor_active_s_per_sample = -1\n", "[duty] sensor_active_s_per_sample must be >= 0"),
        ("[run\n", "config parse error"),
        ("[run]\n[run]\n", "config parse error"),
    ],
)
def test_each_error_names_its_section_and_option(tmp_path, text, message):
    with pytest.raises(ConfigError) as info:
        load(tmp_path, text)
    assert message in str(info.value)


def test_unreadable_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "missing.ini")
