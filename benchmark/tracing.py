"""Spans and counters for the benchmark's traced runs.

A span is (name, start, end, parent); the parent is the index of the span
that was open when this one started.  Everything stays in memory and is
written once, at the end of the run.  A disabled tracer records nothing.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

TRACE_FORMAT = "phs-forge-bench-trace"
TRACE_VERSION = 1


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.origin = time.perf_counter()
        self.spans = []  # [name, start, end, parent], times relative to origin
        self.counters = {}
        self._open = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter() - self.origin, None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter() - self.origin

    def count(self, name: str, amount=1) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + amount

    def mark(self) -> int:
        """Index of the next span; spans recorded later have an index >= it."""
        return len(self.spans)

    def durations(self, name: str, since: int = 0, until=None) -> list:
        """Durations of the closed spans called ``name`` in a mark range."""
        return [s[2] - s[1] for s in self.spans[since:until] if s[0] == name and s[2] is not None]

    def busy(self, name: str, since: int = 0, until=None) -> float:
        return sum(self.durations(name, since, until))

    def calls(self, name: str, since: int = 0, until=None) -> int:
        return len(self.durations(name, since, until))

    @contextmanager
    def wrapping(self, module, attrs: dict):
        """Replace ``module.<attr>`` by a spanning wrapper for the duration.

        ``attrs`` maps attribute name to span name.  Callers inside the
        module resolve these names at call time, so their calls are spanned
        too; the originals are put back on exit.
        """
        originals = {attr: getattr(module, attr) for attr in attrs}

        def spanned(fn, span_name):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(span_name):
                    return fn(*args, **kwargs)

            return wrapper

        if self.enabled:
            for attr, span_name in attrs.items():
                setattr(module, attr, spanned(originals[attr], span_name))
        try:
            yield
        finally:
            for attr, fn in originals.items():
                setattr(module, attr, fn)

    def write(self, path: str, meta: dict) -> None:
        payload = {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            **meta,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
            ],
            "counters": dict(sorted(self.counters.items())),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
            fh.write("\n")


def check_trace_schema(payload: dict) -> list:
    """Problems with a written trace; empty when it keeps its schema."""
    problems = []
    if payload.get("format") != TRACE_FORMAT or payload.get("version") != TRACE_VERSION:
        problems.append("wrong format or version")
    spans = payload.get("spans")
    if not isinstance(spans, list) or not spans:
        return problems + ["no spans"]
    for i, span in enumerate(spans):
        if set(span) != {"name", "start", "end", "parent"}:
            problems.append(f"span {i}: keys {sorted(span)}")
            continue
        if not isinstance(span["name"], str) or not span["name"]:
            problems.append(f"span {i}: bad name")
        if not (isinstance(span["start"], float) and isinstance(span["end"], float)):
            problems.append(f"span {i}: times are not numbers")
        elif span["end"] < span["start"]:
            problems.append(f"span {i}: ends before it starts")
        parent = span["parent"]
        if parent is not None:
            if not (isinstance(parent, int) and 0 <= parent < i):
                problems.append(f"span {i}: bad parent {parent!r}")
            elif not spans[parent]["start"] <= span["start"] <= span["end"] <= spans[parent]["end"]:
                problems.append(f"span {i}: not inside its parent")
    if not isinstance(payload.get("counters"), dict):
        problems.append("no counters")
    return problems
