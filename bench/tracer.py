"""Traced run: spans and exact counts at each coldwatch module's entry points.

The tracer patches public functions where the caller looks them up (the
runner imports some helpers by name, so those are patched on the runner
module) and restores them on exit. Nothing under src/ changes.

A span is (id, parent id, name, start ns, end ns) for one run id. Spans
stay in flat in-memory arrays until `write_spans`. Counts come from
arguments and return values only, so two traced runs of one seed give
identical counts.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

from coldwatch import alerts, clock, energy, engine, ledger, outbox, reports, runner, storage

Hook = Callable[[Counter, tuple, dict, object], None]


def _readings(c: Counter, args, kwargs, result) -> None:
    c["sensor.readings"] += len(result)


def _step_events(c: Counter, args, kwargs, result) -> None:
    c["engine.events"] += len(result)


def _drain_retry(c: Counter, args, kwargs, result) -> None:
    c["outbox.retries"] += result.retry_at is not None


def _appended(c: Counter, args, kwargs, result) -> None:
    c["storage.bytes_appended"] += len(args[1])


def _report_rows(c: Counter, args, kwargs, result) -> None:
    c["reports.rows"] += result.row_count


def _confirm_lag(c: Counter, args, kwargs, result) -> None:
    # submit(self, request, credential, now=None); now defaults to request.at
    request = args[1]
    now = kwargs.get("now", args[3] if len(args) > 3 else None)
    lag = 0 if now is None else now - request.at
    c["ledger.confirm_lag_max_s"] = max(c["ledger.confirm_lag_max_s"], lag)


# (owner, attribute, span name, hook)
ENTRY_POINTS: list[tuple[object, str, str, Hook | None]] = [
    (runner, "run_simulation", "runner.run_simulation", None),
    (runner, "generate_trace", "sensor.generate_trace", _readings),
    (runner, "write_trace", "sensor.write_trace", None),
    (runner, "event_to_json", "runner.event_to_json", None),
    (runner, "build_report", "reports.build_report", _report_rows),
    (runner, "events_from_log", "runner.events_from_log", None),
    (clock.VirtualClock, "schedule", "clock.schedule", None),
    (engine.MonitorEngine, "step", "engine.step", _step_events),
    (outbox.Outbox, "__init__", "outbox.open", None),
    (outbox.Outbox, "add_row", "outbox.add_row", None),
    (outbox.Outbox, "enqueue", "outbox.enqueue", None),
    (outbox.Outbox, "drain", "outbox.drain", _drain_retry),
    (outbox.Outbox, "compact", "outbox.compact", None),
    (storage.RecordFile, "append", "storage.append", _appended),
    (storage.RecordFile, "rewrite", "storage.rewrite", None),
    (ledger.Ledger, "submit", "ledger.submit", _confirm_lag),
    (ledger, "load_ledger_entries", "ledger.load", None),
    (ledger, "verify_entries", "ledger.verify", None),
    (ledger, "cost_report", "ledger.cost", None),
    (reports, "verify_report", "reports.verify", None),
    (alerts.AlertDispatcher, "dispatch", "alerts.dispatch", None),
    # Daily report notices share the dispatcher's fan-out; quiet days have no alerts.
    (alerts.AlertDispatcher, "dispatch_notice", "alerts.dispatch", None),
    (alerts.AlertDispatcher, "flush", "alerts.flush", None),
    (energy, "energy_for_interval", "energy.interval", None),
    (energy, "saving_ratio", "energy.saving", None),
]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def phase(self, name: str):
        """A root span around one stretch of the traced run."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def __enter__(self) -> "Tracer":
        for owner, attr, name, hook in ENTRY_POINTS:
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, hook))
            self._patches.append((owner, attr, original))
        return self

    def __exit__(self, *exc) -> bool:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, original, name: str, hook: Hook | None):
        nid = self._name_id(name)
        calls, counts, errors = self.calls, self.counts, self.errors
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            calls[name] += 1
            idx = open_(nid)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                close(idx)
                errors[f"{name}:{type(exc).__name__}"] += 1
                raise
            close(idx)
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    # -- results -------------------------------------------------------------

    def totals(self) -> tuple[dict[str, int], dict[str, int]]:
        """Inclusive and self nanoseconds per span name."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        inclusive: Counter[str] = Counter()
        self_ns: Counter[str] = Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            inclusive[name] += dur[i]
            self_ns[name] += dur[i] - child[i]
        return dict(inclusive), dict(self_ns)

    def write_spans(self, path: Path) -> int:
        """Write every span as gzipped CSV; returns the span count."""
        with gzip.open(path, "wt", encoding="utf-8", newline="\n", compresslevel=1) as f:
            f.write("span,parent,name,start_ns,end_ns,run\n")
            for i in range(len(self.span_start)):
                f.write(
                    f"{i},{self.span_parent[i]},{self.names[self.span_name[i]]},"
                    f"{self.span_start[i]},{self.span_end[i]},{self.run_id}\n"
                )
        return len(self.span_start)
