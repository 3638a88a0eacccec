"""Wall time and peak RSS of `coldwatch simulate` at a given horizon, and of reading its run back.

    python3 tools/rss_horizon.py --days 90 [--replay] [--energy] [--repeat N]

Runs `coldwatch simulate --scenario normal --seed 7 --duration <days>d` in
a fresh Python process on the sources under this checkout's src/, and
prints one JSON line: the run, the days, the wall time and the child's
peak resident set size in MiB. With --replay it then replays that run's
trace.csv (`--scenario replay --trace`) in another fresh process, and with
--energy it runs `coldwatch energy` over the run's events.log in another,
and once more with the log fed by `cat` through a pipe (`--events
/dev/stdin`, which energy copies to a temporary file, as it cannot read
a pipe twice); each prints one more line. Each child is reaped with os.wait4, so
each line's peak is that child's own (resource.getrusage(RUSAGE_CHILDREN)
would fold every child reaped so far into one maximum). With --repeat N each command
runs N times, each in a fresh process, and its line gives the minimum
wall time, the highest peak and "repeat": N; a run's output directory is
removed before each rerun, which writes the same bytes again. The run
directories live in a temporary directory removed on exit. A child that
exits non-zero ends the script with its status.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def measure(args: list[str], piped: Path | None = None) -> dict:
    """Run `coldwatch <args>` in a fresh interpreter; its wall time and peak
    RSS. With `piped`, `cat` feeds that file to the child's stdin through a
    pipe; the figures are the child's alone."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "coldwatch.cli", *args]
    actions = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    start = time.perf_counter()
    if piped is not None:
        # Both ends are close-on-exec; each child gets its own as a standard stream.
        read, write = os.pipe()
        cat = os.posix_spawnp("cat", ["cat", str(piped)], env,
                              file_actions=[(os.POSIX_SPAWN_DUP2, write, 1)])
        actions.append((os.POSIX_SPAWN_DUP2, read, 0))
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    if piped is not None:
        os.close(read)
        os.close(write)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    if piped is not None:
        os.waitpid(cat, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        sys.exit(f"{' '.join(argv)} exited with {code}")
    # ru_maxrss is in KiB on Linux.
    return {"wall_s": round(wall, 3), "peak_rss_mb": round(usage.ru_maxrss / 1024, 2)}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--days", type=int, required=True, help="simulated horizon in days")
    parser.add_argument("--replay", action="store_true", help="also replay the run's trace.csv")
    parser.add_argument(
        "--energy", action="store_true", help="also run energy over its events.log, and over a pipe"
    )
    parser.add_argument("--repeat", type=int, help="run each command N times; min wall, max peak")
    args = parser.parse_args(argv)
    if args.days < 1:
        parser.error("--days must be at least 1")
    if args.repeat is not None and args.repeat < 1:
        parser.error("--repeat must be at least 1")
    with tempfile.TemporaryDirectory(prefix="rss-horizon-") as tmp:
        run, duration = Path(tmp) / "run", ["--seed", "7", "--duration", f"{args.days}d"]
        runs = {"simulate": ["simulate", "--scenario", "normal", *duration, "--out", str(run)]}
        if args.replay:
            runs["replay"] = [
                "simulate", "--scenario", "replay", "--trace", str(run / "trace.csv"),
                *duration, "--out", str(Path(tmp) / "replay"),
            ]
        piped = {}
        if args.energy:
            runs["energy"] = ["energy", "--events", str(run / "events.log")]
            runs["energy_pipe"] = ["energy", "--events", "/dev/stdin"]
            piped["energy_pipe"] = run / "events.log"
        for name, cmd in runs.items():
            results = [measure(cmd, piped.get(name))]
            for _ in range((args.repeat or 1) - 1):
                if "--out" in cmd:  # simulate refuses a directory that is not empty
                    shutil.rmtree(cmd[cmd.index("--out") + 1])
                results.append(measure(cmd, piped.get(name)))
            line = {
                "run": name,
                "days": args.days,
                "wall_s": min(r["wall_s"] for r in results),
                "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
            }
            if args.repeat is not None:
                line["repeat"] = args.repeat
            print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
