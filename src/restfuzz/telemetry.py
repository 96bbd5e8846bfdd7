"""Client-side observation of a fuzzing run.

Every request/response pair is recorded three ways:

* an in-memory timeline used for live stats and the final report,
* ``events.jsonl`` — machine-readable, one JSON object per event, request
  and response bytes base64-encoded as they crossed the wire, except that a
  chunked response body is stored de-chunked,
* ``wire.log`` — human-readable traces ("Sending:" / "Received:" blocks)
  with the auth header value redacted; only this copy is redacted.

``emit_report`` turns the accumulated data into ``status_timeline.csv``
(cumulative counts per status class over time), ``per_length.csv`` (tests,
sequence-set size and dynamic objects per sequence length), ``summary.txt``
and ``report.json``. The ``report`` CLI subcommand can rebuild all of those
from ``events.jsonl`` alone, so the JSONL file is the durable record.

CSV schemas:

* status_timeline.csv: elapsed_seconds, test_index, sequence_length,
  template_id, status, status_class, response_class, cumulative_valid,
  cumulative_invalid, cumulative_bug
* per_length.csv: length, tests, seqset_size, dynamic_objects
"""

from __future__ import annotations

import base64
import csv
import functools
import io
import json
import logging
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .executor import (
    DEFAULT_ERROR_STATUS_CLASSES,
    ExchangeContext,
    HttpExchange,
    Memo,
    classify_status,
    redact_header_value,
    status_class_label,
)

logger = logging.getLogger(__name__)

EVENTS_FILENAME = "events.jsonl"
WIRE_LOG_FILENAME = "wire.log"


@dataclass(slots=True)
class TimelinePoint:
    elapsed: float
    test_index: int
    sequence_length: int
    step_index: int
    template_id: str
    status: int
    response_class: str


@dataclass(frozen=True)
class PerLengthRow:
    length: int
    tests: int
    seqset_size: int
    dynamic_objects: int


class TelemetrySink:
    """Collects exchanges; optionally streams them to an output directory.

    Disk trouble degrades the sink (one error log, in-memory data keeps
    accumulating) instead of killing the run.
    """

    def __init__(
        self,
        out_dir: Path | None = None,
        auth_header_name: str = "PRIVATE-TOKEN",
        error_classes: Sequence[str] = DEFAULT_ERROR_STATUS_CLASSES,
    ):
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.auth_header_name = auth_header_name
        self.error_classes = tuple(error_classes)
        self.timeline: list[TimelinePoint] = []
        self.per_length: list[PerLengthRow] = []
        self.degraded = False
        self._classes = Memo(functools.partial(classify_status, error_classes=self.error_classes))
        self._auth_needle = auth_header_name.lower().encode("latin-1") + b":"
        self._lock = threading.Lock()
        self._start_monotonic = time.monotonic()
        self._start_wall = time.time()
        self._events_fh: io.TextIOBase | None = None
        self._wire_fh: io.BufferedIOBase | None = None
        if self.out_dir is not None:
            try:
                self.out_dir.mkdir(parents=True, exist_ok=True)
                self._events_fh = open(self.out_dir / EVENTS_FILENAME, "a", encoding="utf-8")
                self._wire_fh = open(self.out_dir / WIRE_LOG_FILENAME, "ab")
            except OSError as exc:
                self._degrade(exc)

    # -- low-level plumbing --------------------------------------------------

    def _degrade(self, exc: OSError) -> None:
        if not self.degraded:
            logger.error("telemetry storage failed, continuing in memory only: %s", exc)
        self.degraded = True

    def _write(self, fh, data) -> None:
        if fh is None or self.degraded:
            return
        try:
            fh.write(data)
            fh.flush()
        except OSError as exc:
            self._degrade(exc)

    def _write_event(self, event: dict) -> None:
        self._write(self._events_fh, json.dumps(event, sort_keys=True) + "\n")

    def elapsed(self) -> float:
        return time.monotonic() - self._start_monotonic

    # -- recording ------------------------------------------------------------

    def record_run_start(self, config: dict) -> None:
        with self._lock:
            self._write_event(
                {"type": "run_start", "wall_time": self._start_wall, "config": config}
            )

    def record_exchange(self, exchange: HttpExchange, context: ExchangeContext) -> None:
        """Append the exchange to the timeline, ``events.jsonl`` and
        ``wire.log``, flushing both files.

        The response bytes are built once, and the event line is encoded
        with the default encoder over keys written in sorted order, which
        gives the bytes ``sort_keys=True`` gives. Both are encoded before
        the lock is taken.
        """
        status = exchange.status
        response_class = self._classes[status]
        point = TimelinePoint(
            elapsed=self.elapsed(),
            test_index=context.test_index,
            sequence_length=context.sequence_length,
            step_index=context.step_index,
            template_id=context.template_id,
            status=status,
            response_class=response_class,
        )
        response = exchange.response_head() + exchange.body
        line = json.dumps(
            {
                "duration": exchange.duration,
                "elapsed": point.elapsed,
                "reason": exchange.reason,
                "rendering_index": context.rendering_index,
                "request_b64": base64.b64encode(exchange.request).decode("ascii"),
                "response_b64": base64.b64encode(response).decode("ascii"),
                "response_class": response_class,
                "sequence_length": context.sequence_length,
                "status": status,
                "step_index": context.step_index,
                "template_id": context.template_id,
                "test_index": context.test_index,
                "type": "exchange",
            }
        )
        wire = b"Sending: %s\n\nReceived: %s\n\n" % (
            self._wire_text(exchange.request),
            self._wire_text(response),
        )
        with self._lock:
            self.timeline.append(point)
            self._write(self._events_fh, line + "\n")
            self._write(self._wire_fh, wire)

    def record_failure(self, context: ExchangeContext, phase: str, detail: str) -> None:
        with self._lock:
            self._write_event(
                {
                    "type": "transport_failure",
                    "elapsed": self.elapsed(),
                    "test_index": context.test_index,
                    "template_id": context.template_id,
                    "step_index": context.step_index,
                    "phase": phase,
                    "detail": detail,
                }
            )
            self._write(
                self._wire_fh,
                f"Transport failure ({phase}): {detail}\n\n".encode("utf-8", "replace"),
            )

    def record_length_stats(self, row: PerLengthRow) -> None:
        with self._lock:
            self.per_length.append(row)
            self._write_event(
                {
                    "type": "length_stats",
                    "length": row.length,
                    "tests": row.tests,
                    "seqset_size": row.seqset_size,
                    "dynamic_objects": row.dynamic_objects,
                }
            )

    def record_bucket(self, bucket_id: str, defining_sequence: Sequence[str], created: bool) -> None:
        event = {
            "type": "bucket",
            "elapsed": self.elapsed(),
            "bucket_id": bucket_id,
            "defining_sequence": list(defining_sequence),
            "created": created,
        }
        with self._lock:
            self._write_event(event)

    def record_run_end(self, reason: str, report: dict | None = None) -> None:
        with self._lock:
            event = {"type": "run_end", "elapsed": self.elapsed(), "reason": reason}
            if report is not None:
                event["report"] = report
            self._write_event(event)

    def close(self) -> None:
        with self._lock:
            for fh in (self._events_fh, self._wire_fh):
                if fh is not None:
                    try:
                        fh.close()
                    except OSError:
                        pass
            self._events_fh = None
            self._wire_fh = None

    # -- formatting -------------------------------------------------------------

    def _wire_text(self, message: bytes) -> bytes:
        """``message`` as ``wire.log`` shows it: auth value redacted, bare
        newlines, no trailing ones, each byte read as latin-1 and written as
        UTF-8."""
        head_end = message.find(b"\r\n\r\n")
        head = message if head_end < 0 else message[:head_end]
        if self._auth_needle in head.lower():
            message = redact_header_value(message, self.auth_header_name)
        text = message.replace(b"\r\n", b"\n").rstrip(b"\n")
        return text if text.isascii() else text.decode("latin-1").encode("utf-8")


# ------------------------------------------------------------------------------
# Report files


def _write_timeline_csv(path: Path, timeline: Iterable[TimelinePoint]) -> None:
    cumulative = Counter()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "elapsed_seconds",
                "test_index",
                "sequence_length",
                "template_id",
                "status",
                "status_class",
                "response_class",
                "cumulative_valid",
                "cumulative_invalid",
                "cumulative_bug",
            ]
        )
        for point in timeline:
            cumulative[point.response_class] += 1
            writer.writerow(
                [
                    f"{point.elapsed:.6f}",
                    point.test_index,
                    point.sequence_length,
                    point.template_id,
                    point.status,
                    status_class_label(point.status),
                    point.response_class,
                    cumulative["valid"],
                    cumulative["invalid"],
                    cumulative["bug"],
                ]
            )


def _write_per_length_csv(path: Path, rows: Iterable[PerLengthRow]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["length", "tests", "seqset_size", "dynamic_objects"])
        for row in rows:
            writer.writerow([row.length, row.tests, row.seqset_size, row.dynamic_objects])


def _write_summary(
    path: Path,
    report: dict,
    buckets: Sequence[dict],
) -> None:
    lines = ["fuzzing run summary", "===================", ""]
    for key in (
        "strategy",
        "max_length_reached",
        "total_tests",
        "restarts",
        "behavioral_coverage",
        "stopped_reason",
        "elapsed_seconds",
    ):
        if key in report:
            lines.append(f"{key}: {report[key]}")
    totals = report.get("status_totals", {})
    if totals:
        lines.append("")
        lines.append("responses by class:")
        for name in sorted(totals):
            lines.append(f"  {name}: {totals[name]}")
    lines.append("")
    lines.append(f"bug buckets: {len(buckets)}")
    for bucket in buckets:
        lines.append(f"  {bucket['bucket_id']} ({bucket.get('instances', '?')} instance(s))")
        for tid in bucket["defining_sequence"]:
            lines.append(f"    {tid}")
    path.write_text("\n".join(lines) + "\n")


def emit_report(out_dir: Path, report: dict, timeline: Sequence[TimelinePoint],
                per_length: Sequence[PerLengthRow], buckets: Sequence[dict]) -> None:
    """Write the four report files into ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_timeline_csv(out_dir / "status_timeline.csv", timeline)
    _write_per_length_csv(out_dir / "per_length.csv", per_length)
    _write_summary(out_dir / "summary.txt", report, buckets)
    (out_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def load_events(path: Path) -> list[dict]:
    events = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                logger.warning("%s:%d: skipping corrupt event: %s", path, line_no, exc)
    return events


def rebuild_from_events(events: Sequence[dict]) -> tuple[
    list[TimelinePoint], list[PerLengthRow], list[dict], dict
]:
    """Reconstruct report inputs from a saved events.jsonl."""
    timeline: list[TimelinePoint] = []
    per_length: list[PerLengthRow] = []
    buckets: dict[str, dict] = {}
    report: dict = {}
    for event in events:
        kind = event.get("type")
        if kind == "exchange":
            timeline.append(
                TimelinePoint(
                    elapsed=event["elapsed"],
                    test_index=event["test_index"],
                    sequence_length=event["sequence_length"],
                    step_index=event["step_index"],
                    template_id=event["template_id"],
                    status=event["status"],
                    response_class=event.get("response_class")
                    or classify_status(event["status"]),
                )
            )
        elif kind == "length_stats":
            per_length.append(
                PerLengthRow(
                    length=event["length"],
                    tests=event["tests"],
                    seqset_size=event["seqset_size"],
                    dynamic_objects=event["dynamic_objects"],
                )
            )
        elif kind == "bucket":
            entry = buckets.setdefault(
                event["bucket_id"],
                {
                    "bucket_id": event["bucket_id"],
                    "defining_sequence": event["defining_sequence"],
                    "instances": 0,
                },
            )
            entry["instances"] += 1
        elif kind == "run_end" and "report" in event:
            report = event["report"]
    return timeline, per_length, sorted(buckets.values(), key=lambda b: b["bucket_id"]), report
