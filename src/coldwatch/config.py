"""INI configuration: thresholds, noise, gas, power and duty settings.

Every Thresholds field is configurable; anything omitted keeps the
documented default. Errors name the offending section and option (or
carry the parser's line diagnostics) so the CLI can exit with a usable
message.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .energy import ComponentPower, DutyPolicy, PowerProfile, COMPONENTS
from .ledger import GasSchedule, LedgerKind
from .model import DEFAULT_START, ModelError, Thresholds, Timestamp, date_to_ts
from .sensor import NoiseModel


class ConfigError(ValueError):
    pass


@dataclass
class AppConfig:
    device_id: str = "fridge-1"
    chat_id: str = "owner"
    start: Timestamp = DEFAULT_START
    thresholds: Thresholds = field(default_factory=Thresholds)
    noise: NoiseModel = field(default_factory=NoiseModel)
    gas: GasSchedule = field(default_factory=GasSchedule)
    power: PowerProfile = field(default_factory=PowerProfile)
    duty: DutyPolicy = field(default_factory=DutyPolicy)


_THRESHOLD_FIELDS = (
    "temp_min_decic",
    "temp_max_decic",
    "hum_min_decip",
    "hum_max_decip",
    "hysteresis_decic",
    "breach_escalation",
    "sample_period",
    "normal_log_period",
    "critical_log_period",
    "batch_anchor_period",
)
_DUTY_INT_FIELDS = (
    "sensor_active_s_per_sample",
    "display_hold_s",
    "camera_active_s_per_capture",
    "buzzer_active_s_per_alert",
)


def _get(parser, section, option, conv, errors: str):
    raw = parser.get(section, option)
    try:
        return conv(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"[{section}] {option}: {errors} (got {raw!r})") from exc


def load_config(path: Path | None) -> AppConfig:
    if path is None:
        return AppConfig()
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, encoding="utf-8") as f:
            parser.read_file(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        # configparser messages carry line numbers.
        raise ConfigError(f"config parse error: {exc}") from exc

    known = {"run", "thresholds", "noise", "gas", "power", "duty"}
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"unknown section [{section}]")

    cfg = AppConfig()
    if parser.has_section("run"):
        for option in parser.options("run"):
            if option == "device_id":
                cfg.device_id = parser.get("run", "device_id")
            elif option == "chat_id":
                cfg.chat_id = parser.get("run", "chat_id")
            elif option == "start":
                raw = parser.get("run", "start")
                try:
                    cfg.start = int(raw) if raw.lstrip("-").isdigit() else date_to_ts(raw)
                except ValueError as exc:
                    raise ConfigError("[run] start: expected YYYY-MM-DD or unix seconds") from exc
            else:
                raise ConfigError(f"[run] unknown option {option!r}")

    if parser.has_section("thresholds"):
        values = {}
        for option in parser.options("thresholds"):
            if option not in _THRESHOLD_FIELDS:
                raise ConfigError(f"[thresholds] unknown option {option!r}")
            values[option] = _get(parser, "thresholds", option, int, "expected integer")
        try:
            cfg.thresholds = Thresholds(**values)
        except ModelError as exc:
            raise ConfigError(f"[thresholds] {exc}") from exc

    if parser.has_section("noise"):
        values = {}
        for option in parser.options("noise"):
            if option not in ("temp_bound_decic", "hum_bound_decip"):
                raise ConfigError(f"[noise] unknown option {option!r}")
            values[option] = _get(parser, "noise", option, int, "expected integer")
        cfg.noise = NoiseModel(**values)

    if parser.has_section("gas"):
        units = dict(GasSchedule().gas)
        fee = GasSchedule().fee_per_gas_usd
        for option in parser.options("gas"):
            if option == "fee_per_gas_usd":
                fee = _get(parser, "gas", option, Fraction, "expected decimal")
            else:
                kind = _kind_for(option)
                units[kind] = _get(parser, "gas", option, int, "expected integer")
        cfg.gas = GasSchedule(gas=units, fee_per_gas_usd=fee)

    if parser.has_section("power"):
        powers = {name: dict(active_mw=None, idle_mw=None) for name in COMPONENTS}
        for option in parser.options("power"):
            # options look like controller_active_mw / controller_idle_mw
            parts = option.rsplit("_", 2)
            if len(parts) != 3 or parts[0] not in COMPONENTS or parts[2] != "mw":
                raise ConfigError(f"[power] unknown option {option!r}")
            component, kind = parts[0], parts[1]
            if kind not in ("active", "idle"):
                raise ConfigError(f"[power] unknown option {option!r}")
            powers[component][f"{kind}_mw"] = _get(
                parser, "power", option, float, "expected number"
            )
        defaults = PowerProfile()
        built = {}
        for name in COMPONENTS:
            base = defaults.component(name)
            active = powers[name]["active_mw"]
            idle = powers[name]["idle_mw"]
            try:
                built[name] = ComponentPower(
                    active_mw=base.active_mw if active is None else active,
                    idle_mw=base.idle_mw if idle is None else idle,
                )
            except ValueError as exc:
                raise ConfigError(f"[power] {name}: {exc}") from exc
        cfg.power = PowerProfile(**built)

    if parser.has_section("duty"):
        values = {}
        for option in parser.options("duty"):
            if option in _DUTY_INT_FIELDS:
                values[option] = _get(parser, "duty", option, int, "expected integer")
            elif option == "display_dim_mw":
                values[option] = _get(parser, "duty", option, float, "expected number")
            elif option == "display_dim":
                try:
                    values[option] = parser.getboolean("duty", option)
                except ValueError as exc:
                    raise ConfigError(f"[duty] display_dim: expected boolean") from exc
            else:
                raise ConfigError(f"[duty] unknown option {option!r}")
        cfg.duty = DutyPolicy(**values)

    return cfg


def _kind_for(option: str) -> LedgerKind:
    try:
        return LedgerKind[option.upper()]
    except KeyError:
        raise ConfigError(f"[gas] unknown option {option!r}") from None
