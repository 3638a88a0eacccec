"""Run the benchmark in alternating parent/change pairs; write BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent REV --pr N --seed S --seconds 30 \
        --pairs audit=10 --pairs quiet=3 --pairs incident=3 [--traced audit]

Run from anywhere inside a source checkout. Both sides run from sibling
temporary directories named `parent` and `change`, because the bench's
peak RSS moves with the checkout's path alone. The parent side is `git
archive REV` unpacked; the change side is a copy of this working tree's
files that git tracks or would track (`git ls-files --cached --others
--exclude-standard`), as they are on disk.
Each side runs its own unmodified bench/run.py, one invocation at a time.
Pair k runs the parent first when k is even and the change first when k
is odd, so slow drift of the host falls on both sides alike.

A run's value is the bench's own median over its reps (the metrics of its
last stdout line). Per side the file keeps every run, their median and
quartiles; per metric the pairs the change won or tied (better as
BENCHMARK.json declares it), the median ratio and gap, and the parent's
interquartile range. --traced adds TRACED_RUNS `--trace 1` invocations
per side, alternating which side runs first as the pairs do; per side the
file keeps every traced run's per-layer metrics and each metric's minimum
over them, because one traced run cannot show a 10-15% move on a span of
a few ms.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE_RE = re.compile(r"\((seed-state baseline: [^)]*)\)")
STATISTIC = (
    "each run's value is the bench's own median over its reps; "
    "quartiles are statistics.quantiles(n=4) over runs"
)
TRACED_RUNS = 3  # traced invocations per side and traced workload


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One bench/run.py invocation: its JSON line plus the baseline status."""
    cmd = [
        sys.executable, "bench/run.py",
        "--workload", workload, "--seed", str(seed),
        "--seconds", f"{seconds:g}", "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} in {checkout} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["baseline"] = BASELINE_RE.findall(proc.stdout)
    return result


def side_summary(runs: list[float]) -> dict:
    p25, median, p75 = statistics.quantiles(runs, n=4) if len(runs) > 1 else runs * 3
    return {"median": median, "p25": p25, "p75": p75, "runs": runs}


def compare(unit: str, better: str, parent: list[float], change: list[float]) -> dict:
    sign = 1 if better == "higher" else -1
    p, c = side_summary(parent), side_summary(change)
    return {
        "unit": unit,
        "parent": p,
        "change": c,
        "change_wins": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
        "ties": sum(a == b for a, b in zip(parent, change)),
        "median_ratio_change_over_parent": c["median"] / p["median"] if p["median"] else None,
        "median_gap": c["median"] - p["median"],
        "parent_iqr": p["p75"] - p["p25"],
    }


def measure_pairs(sides: dict[str, Path], workload: str, pairs: int, args, metrics: list) -> dict:
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for k in range(pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            r = run_bench(sides[side], workload, args.seed, args.seconds, trace=0)
            results[side].append(r)
            wall = r["metrics"]["wall_s"]["value"]
            print(f"{workload} pair {k} {side}: wall_s {wall:.4f} correct={r['correct']} "
                  f"{r['baseline']}", file=sys.stderr)
    every = results["parent"] + results["change"]
    return {
        "pairs": pairs,
        "all_correct": all(r["correct"] for r in every),
        "fail_ratio_zero": all(r["failed"] == 0 for r in every),
        "baseline": sorted({line for r in every for line in r["baseline"]}),
        "metrics": {
            m["name"]: compare(
                m["unit"],
                m["better"],
                [r["metrics"][m["name"]]["value"] for r in results["parent"]],
                [r["metrics"][m["name"]]["value"] for r in results["change"]],
            )
            for m in metrics
        },
    }


def measure_traced(sides: dict[str, Path], workload: str, parent_first: bool, args) -> dict:
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for k in range(TRACED_RUNS):
        order = ("parent", "change") if (k % 2 == 0) == parent_first else ("change", "parent")
        for side in order:
            r = run_bench(sides[side], workload, args.seed, args.seconds, trace=1)
            runs[side].append({
                "correct": r["correct"],
                "baseline": r["baseline"],
                "per_layer": {name: m["value"] for name, m in r["metrics"].items()},
            })
            print(f"{workload} traced run {k} {side}: correct={r['correct']}", file=sys.stderr)
    return {
        side: {
            "per_layer_min": {
                name: min(run["per_layer"][name] for run in side_runs)
                for name in side_runs[0]["per_layer"]
            },
            "runs": side_runs,
        }
        for side, side_runs in runs.items()
    }


def parent_checkout(rev: str, into: Path) -> None:
    into.mkdir()
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, stdout=subprocess.PIPE, check=True
    )
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)


def change_checkout(into: Path) -> None:
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, stdout=subprocess.PIPE, check=True,
    ).stdout
    for name in map(os.fsdecode, filter(None, listed.split(b"\0"))):
        if (ROOT / name).is_file():  # a tracked file deleted from the tree is no part of the change
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, into / name)


def host() -> str:
    return (
        f"{os.cpu_count()}-core {platform.machine()} host, {platform.system()}, "
        f"Python {platform.python_version()}; one bench invocation at a time"
    )


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--pr", type=int, required=True, help="N of the BENCH_<N>.json written")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument(
        "--pairs", action="append", required=True, metavar="WORKLOAD=N",
        help="alternating pairs to run for a workload (repeatable)",
    )
    parser.add_argument(
        "--traced", action="append", default=[], metavar="WORKLOAD",
        help=f"also {TRACED_RUNS} --trace 1 invocations per side (repeatable)",
    )
    parser.add_argument("--seed-note", default="", help="why the seed is a fair one")
    args = parser.parse_args(argv)
    plan = {}
    for spec in args.pairs:
        workload, _, n = spec.partition("=")
        if not n.isdigit() or int(n) < 1:
            parser.error(f"--pairs {spec!r}: use WORKLOAD=N with N >= 1")
        plan[workload] = int(n)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = benchmark["end_to_end"]
    parent_rev = subprocess.run(
        ["git", "rev-parse", "--verify", f"{args.parent}^{{commit}}"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    ).stdout.strip()

    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    sides = {"parent": work / "parent", "change": work / "change"}
    try:
        parent_checkout(parent_rev, sides["parent"])
        change_checkout(sides["change"])
        workloads = {w: measure_pairs(sides, w, n, args, metrics) for w, n in plan.items()}
        traced = {
            w: measure_traced(sides, w, parent_first=i % 2 == 0, args=args)
            for i, w in enumerate(args.traced)
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    doc = {
        "command": f"python3 bench/run.py --workload W --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace T",
        "made_by": "tools/bench_pairs.py",
        "host": host(),
        "seed": args.seed,
        "seed_note": args.seed_note,
        "parent": parent_rev,
        "sides": "sibling temporary checkouts parent/ (git archive) and change/ (working tree)",
        "order": "pairs alternate which side runs first (pair 0: parent first)",
        "statistic": STATISTIC,
        "workloads": workloads,
    }
    if traced:
        doc["traced"] = traced
        doc["traced_note"] = (
            f"{TRACED_RUNS} --trace 1 invocations per side; they alternate which side runs "
            "first, the first traced workload starting with the parent and the next with the "
            "change; each run's per-layer value is the bench's median over its traced reps, "
            "and per_layer_min is each metric's minimum over the runs; per-layer times are "
            "raw host seconds, trace.overhead_s is normalized"
        )
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
