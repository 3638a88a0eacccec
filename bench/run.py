"""coldwatch benchmark: one workload, one seed, one command.

    python3 bench/run.py --workload {quiet,incident,audit} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout. The program is imported from
src/; nothing is installed. Every measurement runs in a worker process
(bench/worker.py), one at a time. coldwatch is a single-process batch
simulator with no arrival process, so each workload is a closed loop
with one client: the next repetition starts when the previous one ends.

Times in the JSON (wall_s, ticks_per_s, setup_s) are normalized to a
fixed host speed (hostspeed.py); the table also prints them raw.
trace 0 prints the end-to-end metrics, trace 1 the per-layer metrics of
two traced runs after the same untraced runs. The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}. Work
files go to .bench_work/ in the checkout; spans stay in
.bench_work/spans/ and the full result in .bench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import normalized

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

# Set-up is measured in SETUP_PROBES worker processes that only set up,
# plus the TIMED_WORKERS that then repeat the timed section.
SETUP_PROBES = 15
TIMED_WORKERS = 5
TRACED_RUNS = 2
DEADLINE_S = 170  # the whole invocation, all workers included

END_TO_END = {
    "wall_s": "s",
    "ticks_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "usd_per_day": "USD/day",
}
# Printed beside them: raw host times and the probe that normalizes them.
HOST_TIMES = {"wall_host_s": "s", "setup_host_s": "s", "probe_s": "s"}


class BenchError(Exception):
    """The benchmark could not run (as opposed to a run that failed its gate)."""


def per_layer_unit(name: str) -> str:
    if name == "ledger.confirm_lag_max_s":
        return "sim_s"  # virtual-clock seconds, not host time
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if ".us_per_" in name:
        return "us"
    if name.endswith("bytes_appended"):
        return "B"
    return "count"


class Workers:
    """Starts worker processes one at a time under one overall deadline."""

    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S

    def run(self, mode: str, *extra: str) -> dict:
        cmd = [
            sys.executable,
            str(BENCH / "worker.py"),
            mode,
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--work", str(self.work),
            *extra,
        ]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting a worker")
        try:
            proc = subprocess.run(
                cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {mode} timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker {mode} exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, label: str, problems: list[str]) -> None:
        """One gated output: a timed rep, a traced run or the audit input."""
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += [f"{label}: {p}" for p in problems]

    def same(self, what: str, labelled: dict[str, dict]) -> None:
        """Outputs of one seed must be byte-identical wherever they were made."""
        first_label, first = next(iter(labelled.items()))
        for label, digests in labelled.items():
            if digests != first:
                self.problems.append(f"{what} of {label} differ from {first_label}")


def quartiles(values: list[float]) -> tuple[float, float, float, int]:
    """(p25, median, p75, n)"""
    if len(values) < 2:
        return values[0], values[0], values[0], len(values)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, len(values)


def set_digest(digests: dict[str, str]) -> str:
    """One SHA-256 over a whole artifact set, as `sha256sum` lines."""
    lines = "".join(f"{digests[k]}  {k}\n" for k in sorted(digests))
    return hashlib.sha256(lines.encode()).hexdigest()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["quiet", "incident", "audit"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark still kills and reaps its worker (subprocess.run
    # does so on any exception) and removes its work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "coldwatch" / "__init__.py").is_file():
        print(f"error: no coldwatch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = measure(Workers(args, work), args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    report(args, result)
    print(json.dumps(result["line"], sort_keys=True))
    return 0


def measure(workers: Workers, args) -> dict:
    tally = Tally()
    outputs: dict[str, dict] = {}  # label -> digests of a simulated artifact directory
    audits: dict[str, dict] = {}  # label -> digest of an audit result
    missed: list[str] = []
    prepare_s = None

    if args.workload == "audit":
        prepared = workers.run("prepare")
        tally.run("audit input", prepared["problems"])
        outputs["audit input"] = prepared["digests"]
        missed += prepared["missed_corruptions"]
        prepare_s = prepared["wall_s"]

    setups = [workers.run("timed") for _ in range(SETUP_PROBES)]
    reps: list[dict] = []
    rss: list[float] = []
    for i in range(TIMED_WORKERS):
        extra = ["--budget", str(args.seconds / TIMED_WORKERS), "--index", str(i)]
        if i == 0:
            extra.append("--check-gate")
        w = workers.run("timed", *extra)
        setups.append(w)
        rss.append(w["peak_rss_mb"])
        for j, rep in enumerate(w["reps"]):
            tally.run(f"worker {i} rep {j}", rep["problems"])
        reps += w["reps"]
        (outputs if args.workload != "audit" else audits)[f"timed worker {i}"] = w["digests"]
        missed += w.get("missed_corruptions", [])
    if missed:
        tally.problems.append(f"gate missed corruptions: {missed}")

    traced = []
    if args.trace:
        for i in range(TRACED_RUNS):
            t = workers.run("traced", "--index", str(i))
            tally.run(f"traced run {i}", t["problems"])
            outputs[f"traced run {i}"] = t["digests"]
            traced.append(t)
        if any(t["counts"] != traced[0]["counts"] for t in traced[1:]):
            tally.problems.append("per-layer counts differ between traced runs of one seed")

    tally.same("artifacts", outputs)
    digests = dict(next(iter(outputs.values())))
    if audits:
        tally.same("audit results", audits)
        digests.update(next(iter(audits.values())))

    walls = [normalized(r["wall_s"], r["probe_s"]) for r in reps]
    summary = {
        "wall_s": quartiles(walls),
        "ticks_per_s": quartiles([r["ticks"] / w for r, w in zip(reps, walls)]),
        "peak_rss_mb": quartiles(rss),
        "setup_s": quartiles([normalized(w["setup_s"], w["setup_probe_s"]) for w in setups]),
        "usd_per_day": quartiles([r["usd_per_day"] for r in reps]),
        "wall_host_s": quartiles([r["wall_s"] for r in reps]),
        "setup_host_s": quartiles([w["setup_s"] for w in setups]),
        "probe_s": quartiles([r["probe_s"] for r in reps]),
    }
    latencies = [r["alert_latency_max_s"] for r in reps if r.get("alert_latency_max_s")]

    if args.trace:
        per_layer = {}
        for name in traced[0]["per_layer"]:
            values = [t["per_layer"][name] for t in traced]
            per_layer[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
        # Normalized on both sides: the traced and untraced runs ran at
        # different times, so raw host seconds would include host drift.
        traced_s = statistics.median(normalized(t["timed_s"], t["probe_s"]) for t in traced)
        per_layer["trace.overhead_s"] = traced_s - summary["wall_s"][1]
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in per_layer.items()}
    else:
        metrics = {k: {"value": summary[k][1], "unit": u} for k, u in END_TO_END.items()}

    return {
        "line": {
            "correct": not tally.problems and tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        },
        "summary": summary,
        "problems": tally.problems,
        "alert_latency_max_s": max(latencies) if latencies else None,
        "digests": digests,
        "set_sha256": set_digest(digests),
        "prepare_s": prepare_s,
        "traced": [
            {k: t[k] for k in ("timed_s", "probe_s", "self_s", "spans", "spans_file", "counts")}
            for t in traced
        ],
    }


def report(args, result: dict) -> None:
    """Human-readable table; the JSON line follows it."""
    line = result["line"]
    print(
        f"coldwatch benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    print(f"{'metric':<22}{'median':>14}{'p25':>14}{'p75':>14}{'n':>6}  unit")
    for name, unit in {**END_TO_END, **HOST_TIMES}.items():
        q1, med, q3, n = result["summary"][name]
        print(f"{name:<22}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{n:>6}  {unit}")
    attempted, failed = line["attempted"], line["failed"]
    print(f"{'fail_ratio':<22}{failed / attempted:>14.6g}{'':>28}{attempted:>6}  ratio")
    latency = result["alert_latency_max_s"]
    if latency is not None:
        n = result["summary"]["wall_s"][3]
        print(f"{'alert_latency_max_s':<22}{latency:>14}{'(max)':>28}{n:>6}  sim_s")
    if result["prepare_s"] is not None:
        print(f"audit input produced in {result['prepare_s']:.3f} s, outside the timed section")
    if result["traced"]:
        wall = result["summary"]["wall_s"][1]
        overhead = line["metrics"]["trace.overhead_s"]["value"]
        print(f"tracing overhead: {overhead:.4f} s on a {wall:.4f} s untraced median "
              f"({overhead / wall:+.1%}), both normalized")
        print("per-layer metrics (inclusive host time per entry point):")
        for name, m in line["metrics"].items():
            print(f"  {name:<30}{m['value']:>16.6g}  {m['unit']}")
        print("self time by span, first traced run:")
        for name, v in sorted(result["traced"][0]["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"  {name:<30}{v:>16.6f}  s")
        for t in result["traced"]:
            print(f"spans: {t['spans']} written to {t['spans_file']}")
    baseline = _baseline_set(args.workload, args.seed)
    status = "not recorded"
    if baseline is not None:
        status = "match" if baseline == result["set_sha256"] else "DIFFER"
    print(f"artifact set sha256 {result['set_sha256']} (seed-state baseline: {status})")
    digests = result["digests"]
    for k in sorted(digests):
        print(f"  {digests[k]}  {k}")
    for p in result["problems"]:
        print(f"PROBLEM: {p}")


def _baseline_set(workload: str, seed: int) -> str | None:
    path = BENCH / "baseline.json"
    if not path.is_file():
        return None
    data = json.loads(path.read_text())
    return data["artifact_sets"].get(workload, {}).get(str(seed))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
