"""Spans recorded around calls into restfuzz's modules, from outside them.

A wrapper replaces a module or class attribute. Each call it sees becomes a
span: (id, parent id, name, test id, start, end, count). The parent is the
innermost span open on the same thread, or the campaign's root span. The
test id is the ``test_index`` of the ``execute_sequence`` call the thread
ran last, for spans that belong to a test, so all spans of one test share
it. Spans stay in memory until the campaign has ended.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

ROOT = "campaign"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root: tuple[int, float] | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        in_test: bool = False,
        starts_test: bool = False,
        count: Callable[[object], int] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``in_test`` marks spans that belong to a test; ``starts_test`` marks
        the call whose ``test_index`` keyword names the test; ``count`` maps
        the return value to a work count stored with the span.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if starts_test:
                self._local.test = kwargs.get("test_index")
            stack = self._stack()
            parent = stack[-1] if stack else (self._root[0] if self._root else None)
            span_id = next(self._ids)
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                test = getattr(self._local, "test", None) if in_test else None
                n = count(result) if count is not None and result is not None else 1
                with self._lock:
                    self.spans.append((span_id, parent, name, test, start, end, n))

        setattr(owner, attr, wrapper)

    def open_root(self) -> None:
        self._root = (next(self._ids), time.perf_counter())

    def close_root(self) -> None:
        span_id, start = self._root
        self._root = None
        self.spans.append((span_id, None, ROOT, None, start, time.perf_counter(), 1))

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "parent", "name", "test", "start", "end", "count"), span))) + "\n")


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def _percentile(sorted_values: list[float], share: float) -> float:
    return sorted_values[round(share * (len(sorted_values) - 1))]


def layer_stats(spans: list[tuple], keep: Callable[[tuple, dict], bool]) -> dict:
    """Per span name: calls, summed count, busy (inclusive) and self time,
    and the sorted durations, over the spans ``keep(span, spans_by_id)``
    accepts. A span's self time is its duration minus the part of it that
    its children cover; children on other threads may overlap, hence the
    union."""
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[s[1]].append((s[4], s[5]))
    stats: dict[str, dict] = {}
    for s in spans:
        if not keep(s, by_id):
            continue
        span_id, _, name, _, start, end, n = s
        entry = stats.setdefault(name, {"calls": 0, "count": 0, "busy_s": 0.0, "self_s": 0.0,
                                        "durations": []})
        entry["calls"] += 1
        entry["count"] += n
        entry["busy_s"] += end - start
        entry["self_s"] += (end - start) - _covered(start, end, children.get(span_id, []))
        entry["durations"].append(end - start)
    for entry in stats.values():
        entry["durations"].sort()
    return stats


def summarize(spans: list[tuple]) -> dict[str, float]:
    """Flatten span statistics into the benchmark's per-layer metrics.

    The probe's TCP connect happens before the campaign, outside any
    ``send_request``; only connects made by ``send_request`` are counted.
    """
    def keep(span, by_id):
        if span[2] != "executor.connect":
            return True
        parent = by_id.get(span[1])
        return parent is not None and parent[2] == "executor.send_request"

    stats = layer_stats(spans, keep)
    empty = {"calls": 0, "count": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []}

    def get(name):
        return stats.get(name, empty)

    def pct(name, share, scale):
        values = get(name)["durations"]
        return _percentile(values, share) * scale if values else 0.0

    wall = get(ROOT)["busy_s"]
    out = {
        "campaign.self_s": get(ROOT)["self_s"],
        "compiler.parse_spec_s": get("compiler.parse_spec")["busy_s"],
        "compiler.compile_grammar_s": get("compiler.compile_grammar")["busy_s"],
        "engine.extend.calls": get("engine.extend")["calls"],
        "engine.extend.candidates": get("engine.extend")["count"],
        "engine.extend.share": get("engine.extend")["busy_s"] / wall if wall else 0.0,
        "engine.execute_sequence.p50_ms": pct("engine.execute_sequence", 0.5, 1e3),
        "engine.execute_sequence.p99_ms": pct("engine.execute_sequence", 0.99, 1e3),
        "grammar.render.calls": get("grammar.render")["calls"],
        "grammar.assemble.calls": get("grammar.assemble")["calls"],
        "executor.send_request.calls": get("executor.send_request")["calls"],
        "executor.send_request.p50_ms": pct("executor.send_request", 0.5, 1e3),
        "executor.send_request.p99_ms": pct("executor.send_request", 0.99, 1e3),
        "executor.connect.calls": get("executor.connect")["calls"],
        "executor.connect.p50_us": pct("executor.connect", 0.5, 1e6),
        "executor.connect.p99_us": pct("executor.connect", 0.99, 1e6),
        "executor.extract.calls": get("executor.extract")["calls"],
        "telemetry.record_exchange.calls": get("telemetry.record_exchange")["calls"],
        "telemetry.record_exchange.p50_us": pct("telemetry.record_exchange", 0.5, 1e6),
        "telemetry.record_exchange.p99_us": pct("telemetry.record_exchange", 0.99, 1e6),
        "telemetry.emit_report_s": get("telemetry.emit_report")["busy_s"],
        "buckets.record.calls": get("buckets.record")["calls"],
    }
    for name in LAYERS:
        out[f"{name}.busy_s"] = get(name)["busy_s"]
        out[f"{name}.self_s"] = get(name)["self_s"]
    return out


# Span names, in the order the harness installs them; see campaign.py.
LAYERS = (
    "engine.extend",
    "grammar.render",
    "engine.execute_sequence",
    "grammar.assemble",
    "executor.send_request",
    "executor.connect",
    "executor.extract",
    "telemetry.record_exchange",
    "telemetry.emit_report",
    "buckets.record",
    "target.stub",
)
