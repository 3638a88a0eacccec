"""INI configuration: thresholds, noise, gas, power and duty settings.

Every Thresholds field is configurable; anything omitted keeps the
documented default. Errors name the offending section and option (or
carry the parser's line diagnostics) so the CLI can exit with a usable
message.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from pathlib import Path

from .energy import COMPONENTS, DutyPolicy, PowerProfile
from .ledger import GasSchedule, LedgerKind
from .model import DEFAULT_START, Thresholds, Timestamp, date_to_ts
from .sensor import NoiseModel


class ConfigError(ValueError):
    pass


@dataclass
class AppConfig:
    device_id: str | None = None  # None: not set, the run's default applies
    chat_id: str = "owner"
    start: Timestamp = DEFAULT_START
    thresholds: Thresholds = field(default_factory=Thresholds)
    noise: NoiseModel = field(default_factory=NoiseModel)
    gas: GasSchedule = field(default_factory=GasSchedule)
    power: PowerProfile = field(default_factory=PowerProfile)
    duty: DutyPolicy = field(default_factory=DutyPolicy)


def _get(parser, section, option, conv, errors: str):
    raw = parser.get(section, option)
    try:
        return conv(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"[{section}] {option}: {errors} (got {raw!r})") from exc


def _section(parser, name: str, cls):
    """Build dataclass `cls`, whose fields are all integers, from section
    `name`: one option per field, omitted options keep the field defaults."""
    names = {f.name for f in fields(cls)}
    values = {}
    for option in parser.options(name):
        if option not in names:
            raise ConfigError(f"[{name}] unknown option {option!r}")
        values[option] = _get(parser, name, option, int, "expected integer")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"[{name}] {exc}") from exc


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
        cfg.thresholds = _section(parser, "thresholds", Thresholds)
    if parser.has_section("noise"):
        cfg.noise = _section(parser, "noise", NoiseModel)

    if parser.has_section("gas"):
        units = dict(GasSchedule().gas)
        fee = GasSchedule().fee_per_gas_usd
        for option in parser.options("gas"):
            if option == "fee_per_gas_usd":
                fee = _get(parser, "gas", option, Fraction, "expected decimal")
            elif option.upper() in LedgerKind.__members__:
                kind = LedgerKind[option.upper()]
                units[kind] = _get(parser, "gas", option, int, "expected integer")
            else:
                raise ConfigError(f"[gas] unknown option {option!r}")
        try:
            cfg.gas = GasSchedule(gas=units, fee_per_gas_usd=fee)
        except ValueError as exc:
            raise ConfigError(f"[gas] {exc}") from exc

    if parser.has_section("power"):
        overrides: dict[str, dict[str, float]] = {}
        for option in parser.options("power"):
            # options look like controller_active_mw / controller_idle_mw
            component, _, field_name = option.partition("_")
            if component not in COMPONENTS or field_name not in ("active_mw", "idle_mw"):
                raise ConfigError(f"[power] unknown option {option!r}")
            overrides.setdefault(component, {})[field_name] = _get(
                parser, "power", option, float, "expected number"
            )
        for component, values in overrides.items():
            try:
                part = replace(getattr(cfg.power, component), **values)
            except ValueError as exc:
                raise ConfigError(f"[power] {component}: {exc}") from exc
            cfg.power = replace(cfg.power, **{component: part})

    if parser.has_section("duty"):
        cfg.duty = _section(parser, "duty", DutyPolicy)

    return cfg
