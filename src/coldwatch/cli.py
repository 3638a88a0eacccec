"""Operator CLI: simulate, verify, cost, energy.

Exit codes are stable: 0 success, 1 internal invariant violation,
2 usage/config/IO error, 3 verification failure.

Everything is flag-driven except the optional real messenger adapter:
`simulate --live-messenger` reads MONITOR_BOT_TOKEN and MONITOR_CHAT_ID
from the environment and sends alerts over the Telegram bot API in
addition to the offline capture file.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys
from pathlib import Path

from . import energy as energy_mod
from .config import ConfigError, load_config
from .ledger import (
    LedgerFileError,
    annualized_usd,
    cost_report,
    format_usd,
    load_ledger_entries,
    observed_days,
    verify_entries,
)
from .model import DAY_SECONDS, ModelError, date_to_ts, ts_to_date
from .reports import Verdict, verify_report
from .runner import RunConfig, run_simulation, events_from_log
from .sensor import FaultKind, FaultSpec, InvalidScenario, ScenarioKind, scenario_for

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_VERIFY = 3

_DURATION_RE = re.compile(r"(?:\d+[smhd])+|\d+")
_DURATION_PART_RE = re.compile(r"(\d+)([smhd]?)")
_DURATION_UNITS = {"": 1, "s": 1, "m": 60, "h": 3600, "d": 86400}


def parse_duration(text: str) -> int:
    """Seconds in a duration such as 90, 45s, 24h or 8h30m."""
    text = text.strip()
    if not _DURATION_RE.fullmatch(text):
        raise ValueError(f"bad duration {text!r} (use e.g. 45s, 20m, 24h, 2d, 8h30m)")
    return sum(int(n) * _DURATION_UNITS[unit] for n, unit in _DURATION_PART_RE.findall(text))


def _parse_fault(text: str, start: int) -> FaultSpec:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"bad fault {text!r} (use kind:start:end, e.g. ledger_outage:2h:3h)")
    kind = FaultKind(parts[0])
    return FaultSpec(
        kind=kind, start=start + parse_duration(parts[1]), end=start + parse_duration(parts[2])
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coldwatch")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario and write artifacts")
    sim.add_argument("--scenario", default="normal", choices=[k.value for k in ScenarioKind])
    sim.add_argument("--trace", type=Path, help="trace CSV to replay (scenario=replay)")
    sim.add_argument("--duration", default="24h")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--config", type=Path)
    sim.add_argument("--out", type=Path, default=Path("monitor-run"))
    sim.add_argument("--device")
    sim.add_argument("--start", help="run start, YYYY-MM-DD (default 2025-01-01)")
    sim.add_argument("--realtime", type=float, metavar="SPEEDUP", help="pace to wall time")
    sim.add_argument(
        "--fault",
        action="append",
        default=[],
        metavar="KIND:START:END",
        help="inject sensor_dropout / ledger_outage / process_crash (offsets from start)",
    )
    sim.add_argument(
        "--live-messenger",
        action="store_true",
        help="also send alerts via the Telegram bot API (env: MONITOR_BOT_TOKEN, MONITOR_CHAT_ID)",
    )

    ver = sub.add_parser("verify", help="verify a ledger file and optionally a report")
    ver.add_argument("--ledger", type=Path, required=True)
    ver.add_argument("--report", type=Path)
    ver.add_argument("--day", help="report day YYYY-MM-DD (default: from the file)")
    ver.add_argument("--device")

    cost = sub.add_parser("cost", help="per-day transaction counts and USD")
    cost.add_argument("--ledger", type=Path, required=True)
    cost.add_argument("--day", help="limit to one day, YYYY-MM-DD")
    cost.add_argument("--config", type=Path)

    en = sub.add_parser("energy", help="per-component energy and duty-cycle savings")
    en.add_argument("--events", type=Path, required=True)
    en.add_argument("--profile", type=Path, help="config file with [power]/[duty] sections")
    en.add_argument("--day", help="limit to one day, YYYY-MM-DD")
    en.add_argument("--csv", type=Path, help="also write the machine-readable CSV here")
    return parser


def cmd_simulate(args) -> int:
    cfg_file = load_config(args.config)
    start = cfg_file.start if args.start is None else date_to_ts(args.start)
    horizon = parse_duration(args.duration)
    device = args.device or cfg_file.device_id
    faults = tuple(_parse_fault(f, start) for f in args.fault)

    if args.scenario == ScenarioKind.REPLAY.value:
        if args.trace is None:
            raise ConfigError("scenario=replay requires --trace")
        scenario = None
    else:
        base = scenario_for(args.scenario, start, horizon, args.seed)
        scenario = dataclasses.replace(base, noise=cfg_file.noise, faults=faults)

    run_cfg = RunConfig(
        out_dir=args.out,
        scenario=scenario,
        trace_path=args.trace if args.scenario == ScenarioKind.REPLAY.value else None,
        horizon=horizon,
        seed=args.seed,
        start=start,
        device_id=device,
        thresholds=cfg_file.thresholds,
        gas=cfg_file.gas,
        chat_id=cfg_file.chat_id,
        realtime_speed=args.realtime,
        scenario_name=args.scenario,
        live_messenger=args.live_messenger,
    )
    result = run_simulation(run_cfg)
    c = result.manifest["counters"]
    print(
        f"samples={c['samples']} local_records={c['local_records']} "
        f"txs={c['txs']} alerts={c['alerts']} resolutions={c['resolutions']} "
        f"reports={c['reports']}"
    )
    print(f"artifacts in {result.out_dir}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if not args.ledger.exists():
        print(f"error: no such file {args.ledger}", file=sys.stderr)
        return EXIT_USAGE
    try:
        entries = load_ledger_entries(args.ledger)
    except LedgerFileError as exc:
        print(f"ledger verification FAILED: {exc}")
        return EXIT_VERIFY
    report = verify_entries(entries)
    if not report.ok:
        print(f"ledger verification FAILED: bad index {report.bad_index} ({report.reason})")
        return EXIT_VERIFY
    print(f"ledger ok: {len(entries)} entries")

    if args.report is not None:
        if not args.report.exists():
            print(f"error: no such file {args.report}", file=sys.stderr)
            return EXIT_USAGE
        day = None
        if args.day is not None:
            day = date_to_ts(args.day)
        else:
            m = re.match(r"^(\d{4}-\d{2}-\d{2})\.csv$", args.report.name)
            if m:
                day = date_to_ts(m.group(1))
        device = args.device
        if device is None and args.report.parent.name not in ("", "."):
            device = args.report.parent.name
        verdict = verify_report(args.report.read_bytes(), entries, day=day, device_id=device)
        print(f"report verdict: {verdict.value}")
        if verdict is not Verdict.AUTHENTIC:
            return EXIT_VERIFY
    return EXIT_OK


def cmd_cost(args) -> int:
    cfg = load_config(args.config)
    if not args.ledger.exists():
        print(f"error: no such file {args.ledger}", file=sys.stderr)
        return EXIT_USAGE
    try:
        entries = load_ledger_entries(args.ledger)
    except LedgerFileError as exc:
        print(f"error: unreadable ledger: {exc}", file=sys.stderr)
        return EXIT_USAGE
    days = observed_days(entries)
    if args.day is not None:
        days = [date_to_ts(args.day)]
    print(f"{'day':<12} {'txs':>4} {'gas':>5} {'usd':>10}")
    for day in days:
        tally = cost_report(entries, day, cfg.gas)
        print(
            f"{ts_to_date(day):<12} {tally.tx_total:>4} {tally.gas_total:>5} "
            f"${format_usd(tally.usd_total)}"
        )
    annual = annualized_usd(entries, cfg.gas)
    print(f"annualized (mean x 365): ${format_usd(annual, places=2)}")
    return EXIT_OK


def cmd_energy(args) -> int:
    cfg = load_config(args.profile)
    if not args.events.exists():
        print(f"error: no such file {args.events}", file=sys.stderr)
        return EXIT_USAGE
    events = events_from_log(args.events)
    if args.day is not None:
        start = date_to_ts(args.day)
        end = start + DAY_SECONDS
    elif events:
        start = events[0].at - events[0].at % DAY_SECONDS
        end = events[-1].at
        end = end + (DAY_SECONDS - end % DAY_SECONDS) % DAY_SECONDS
        if end == start:
            end = start + DAY_SECONDS
    else:
        print("error: empty event log and no --day given", file=sys.stderr)
        return EXIT_USAGE
    duty = energy_mod.energy_for_interval(events, cfg.power, cfg.duty, start, end)
    base = energy_mod.baseline_energy(cfg.power, start, end)
    savings = energy_mod.saving_ratio(events, cfg.power, cfg.duty, start, end)
    print(energy_mod.render_table(duty, base, savings))
    if args.csv is not None:
        args.csv.write_text(energy_mod.render_csv(duty, base, savings), encoding="utf-8")
        print(f"csv written to {args.csv}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "verify": cmd_verify,
        "cost": cmd_cost,
        "energy": cmd_energy,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, InvalidScenario, ModelError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:  # internal invariant violation
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
