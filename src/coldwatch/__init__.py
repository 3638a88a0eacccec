"""Desk-scale cold-chain monitor: deterministic sensor simulation, a
breach-escalation state machine, a tamper-evident hash-chained ledger,
crash-safe delivery, daily report anchoring, and cost/energy models."""

__version__ = "0.1.0"
