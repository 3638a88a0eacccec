"""The correctness gate must pass a clean run and flag corrupted copies.

    PYTHONPATH=src python3 -m pytest bench/test_gate.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import workloads  # noqa: E402
from coldwatch import runner  # noqa: E402


def test_gate_passes_a_clean_run_and_flags_each_corruption(tmp_path):
    # One incident day: alerts, resolutions, an outage and a crash.
    wl = workloads.Workload("incident", days=1, simulates=True)
    run_dir = tmp_path / "run"
    runner.run_simulation(workloads.run_config(wl, seed=3, out_dir=run_dir))

    facts = gate.check_run(run_dir)
    assert facts.problems == []
    assert facts.alert_latency_max_s is not None

    assert gate.missed_corruptions(run_dir, tmp_path) == []
