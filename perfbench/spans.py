"""In-memory span tracing of the simulator's layer boundaries.

The benchmark wraps the public functions and methods at each layer
boundary from outside the program; nothing under ``src/`` knows it is
being traced.  A span records its name, start, end, the span that was
open when it started (its parent) and an optional work count.  A
layer's self time is its span time minus the time its child spans
cover, so self times of nested layers add up to the traced wall time
without double counting.

Boundaries are looked up at run time.  A boundary that no longer exists
(a module deleted, a function renamed) is skipped with a note, so the
benchmark keeps running across refactors of the program.

Pool workers forked from a traced operation inherit the wrappers; each
appends its finished top-level spans to ``spans-<pid>.jsonl`` in the
operation's work directory, which :func:`load_worker_spans` reads back.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional


class Tracer:
    """Collects spans in memory; one per traced operation process."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        #: [name, start, end, parent index or None, count]
        self.spans: List[list] = []
        self.notes: List[str] = []
        self._stack: List[int] = []
        self._worker_file: Optional[Path] = None
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self._stack = []
        self._worker_file = self.workdir / f"spans-{os.getpid()}.jsonl"

    def open(self, name: str) -> list:
        """Start a span by hand (the benchmark's root span)."""
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), 0.0, parent, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()
        if self._worker_file is not None and not self._stack:
            self._flush_worker_spans()

    def _flush_worker_spans(self) -> None:
        with open(self._worker_file, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(self.spans) + "\n")
        self.spans = []

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """``fn`` recording a ``name`` span per call.

        ``count(args, result)`` gives the span's work count (records
        generated, instructions warmed) when the layer reports one.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    record[4] = count(args, result)
                return result
            finally:
                tracer.close(record)

        return traced

    def wrap_function(self, module: str, attr: str, name: str, count=None) -> None:
        """Wrap ``module.attr`` in every loaded ``repro`` namespace bound to it.

        Modules that import the function by name (``from m import f``)
        hold their own reference, so each is rebound.
        """
        try:
            original = getattr(importlib.import_module(module), attr)
        except (ImportError, AttributeError):
            self.notes.append(f"boundary {module}.{attr} not found; {name} not traced")
            return
        traced = self.wrap(name, original, count)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded_name.split(".")[0] != "repro" or loaded is None:
                continue
            if getattr(loaded, attr, None) is original:
                setattr(loaded, attr, traced)

    def wrap_methods(self, classes, attrs, name: str, count=None) -> None:
        """Wrap each method in ``attrs`` that a class in ``classes`` defines."""
        wrapped = 0
        for cls in classes:
            for attr in attrs:
                method = cls.__dict__.get(attr)
                if callable(method):
                    setattr(cls, attr, self.wrap(name, method, count))
                    wrapped += 1
        if not wrapped:
            self.notes.append(f"no {'/'.join(attrs)} on {classes}; {name} not traced")

    def wrap_class_method(self, module: str, qualname: str, name: str, count=None) -> None:
        """Wrap ``module.Class.method`` (and the same method on its subclasses)."""
        class_name, attr = qualname.split(".")
        try:
            cls = getattr(importlib.import_module(module), class_name)
        except (ImportError, AttributeError):
            self.notes.append(f"boundary {module}.{qualname} not found; {name} not traced")
            return
        self.wrap_methods(subclasses(cls), [attr], name, count)


def subclasses(cls) -> list:
    """``cls`` and every loaded subclass, found at run time."""
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in subclasses(sub) if c not in found)
    return found


def self_times(spans: List[list]) -> Dict[str, float]:
    """Per-name self time: span time minus the time its children cover.

    Spans of one process are properly nested, so the direct children
    of a span never overlap and their durations simply add.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: Dict[str, float] = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - child_time[index]
    return totals


def counts(spans: List[list]) -> Dict[str, int]:
    """Per-name work counts (only the innermost boundary of a layer counts)."""
    totals: Dict[str, int] = {}
    for name, _, _, _, count in spans:
        totals[name] = totals.get(name, 0) + count
    return totals


def load_worker_spans(workdir: Path) -> List[List[list]]:
    """Span batches written by forked pool workers (one list per flush)."""
    batches = []
    for path in sorted(workdir.glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            batches.extend(json.loads(line) for line in handle if line.strip())
    return batches
