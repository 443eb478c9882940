"""Spans around shufflereg's public functions, recorded from outside the library.

``Tracer.install`` replaces each target name in the module that *calls* it
(``shufflereg.estimators.lap_maximize`` rather than ``shufflereg.lap``),
because a ``from ... import`` binding in the caller would bypass a wrapper on
the defining module. ``Tracer.uninstall`` puts the original objects back.

Every wrapped call records one span: trace id, span id, parent span id, name,
start, end, thread and one number of call-specific detail. ``run_trial`` and
the benchmark's own closed-loop calls start a new trace id, so the spans of
one sweep trial share an id even when the trial runs on a pool thread. Spans
stay in memory until the benchmark writes them out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import threading
import time
from typing import NamedTuple

import numpy as np


class TracerError(RuntimeError):
    """A wrap target is missing, so its layer cannot be measured."""


def _cost_bytes(args, kwargs, result) -> float:
    n = np.shape(args[0] if args else kwargs["cost"])[0]
    return 8.0 * n * n


def _path_bytes(arg_index):
    def detail(args, kwargs, result) -> float:
        return float(os.path.getsize(args[arg_index] if len(args) > arg_index else kwargs["path"]))

    return detail


def _trial_failed(args, kwargs, result) -> float:
    return 0.0 if result.ok else 1.0


def _altmin_iterations(args, kwargs, result) -> float:
    return float(result.iterations)


# (calling module, name looked up there, detail recorded on return, starts a trace)
TARGETS = (
    ("shufflereg.experiments", "run_trial", _trial_failed, True),
    ("shufflereg.experiments", "synthesize_instance", None, False),
    ("shufflereg.experiments", "one_step_estimate", None, False),
    ("shufflereg.experiments", "alternating_minimization", _altmin_iterations, False),
    ("shufflereg.estimators", "build_onestep_cost", None, False),
    ("shufflereg.estimators", "lap_maximize", _cost_bytes, False),
    ("shufflereg.estimators", "least_squares_signal", None, False),
    ("shufflereg.lap", "linear_sum_assignment", None, False),
    ("shufflereg.cli", "read_matrix", _path_bytes(0), False),
    ("shufflereg.cli", "write_matrix", _path_bytes(1), False),
    ("shufflereg.cli", "write_permutation", _path_bytes(1), False),
    ("shufflereg.cli", "one_step_estimate", None, False),
)

CALL = "bench.call"
_RAISED = object()


class Span(NamedTuple):
    trace: int
    span: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    detail: float | None

    @property
    def ms(self) -> float:
        return 1e3 * (self.end - self.start)


class Tracer:
    """Thread-safe in-memory span recorder that wraps names in shufflereg modules."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._call: tuple[int, int] | None = None
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        resolved = []
        missing = []
        for module_name, attr, detail, root in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                missing.append(f"{module_name}.{attr}")
            resolved.append((module, attr, original, detail, root))
        if missing:
            raise TracerError(
                "cannot trace: these names are missing or not callable: " + ", ".join(missing)
            )
        for module, attr, original, detail, root in resolved:
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            setattr(module, attr, self._wrap(name, original, detail, root))
            self._saved.append((module, attr, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, root: bool) -> tuple[int, int, int | None]:
        stack = self._stack()
        parent = stack[-1] if stack else self._call
        span_id = next(self._ids)
        trace_id = span_id if root or parent is None else parent[1]
        stack.append((span_id, trace_id))
        return span_id, trace_id, None if parent is None else parent[0]

    def _exit(self, ids, name: str, start: float, end: float, detail: float | None) -> None:
        self._stack().pop()
        span = Span(ids[1], ids[0], ids[2], name, start, end, threading.get_ident(), detail)
        with self._lock:
            self.spans.append(span)

    def _wrap(self, name, fn, detail, root):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ids = self._enter(root)
            start = time.perf_counter()
            result = _RAISED
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                value = None if detail is None or result is _RAISED else detail(args, kwargs, result)
                self._exit(ids, name, start, end, value)

        return traced

    @contextlib.contextmanager
    def call(self):
        """Span for one closed-loop call made by the benchmark; it starts a new trace."""
        ids = self._enter(root=True)
        self._call = ids[:2]
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._call = None
            self._exit(ids, CALL, start, end, None)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")

