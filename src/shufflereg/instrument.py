"""Lightweight call counters used to audit the solver cost budget.

Counts are advisory diagnostics (tests assert one assignment solve and one
least-squares solve per one-step estimate) and do not participate in any
numeric output. ``record`` is thread-safe, so sweep workers that record
concurrently lose no increments; ``counters`` is one process-wide tally.
"""

from __future__ import annotations

import threading
from collections import Counter

counters: Counter = Counter()
_lock = threading.Lock()


def record(event: str) -> None:
    with _lock:
        counters[event] += 1


def snapshot() -> dict:
    return dict(counters)


def delta_since(before: dict) -> dict:
    return {k: counters[k] - before.get(k, 0) for k in counters if counters[k] != before.get(k, 0)}
