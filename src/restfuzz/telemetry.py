"""Client-side observation of a fuzzing run.

The sink appends every event of a run to one file, ``events.jsonl``: one
JSON object per line, request and response bytes base64-encoded as they
crossed the wire (except that a chunked response body is stored de-chunked),
the auth token included. It keeps nothing in memory. The engine is its only
caller: it hands over each finished test's exchanges and its transport
failure or unresolvable consumer, in the order the worker ran them, then a
``bucket`` event when the test hit a bug, and the run's start, per-length
rows and end. An exchange's ``elapsed`` is when its response arrived, taken
from the exchange's own start and duration.

``events.jsonl`` is the durable record, and the only record of a bug
instance. ``emit_report`` is its one reader. In a single pass over the file
it writes ``status_timeline.csv`` (cumulative counts per response class over
time), ``per_length.csv`` (tests, sequence-set size and dynamic objects per
sequence length), ``wire.log`` (human-readable "Sending:" / "Received:"
blocks with the auth header value redacted; the header is the one
``config.json`` names) and each bug instance's trace in the bucket
directory, then each bucket's metadata, ``summary.txt`` and ``report.json``.
``restfuzz fuzz`` calls it when the run ends and ``restfuzz report`` calls
it on a saved run directory, so both write the same bytes.

CSV schemas:

* status_timeline.csv: elapsed_seconds, test_index, sequence_length,
  template_id, status, status_class, response_class, cumulative_valid,
  cumulative_invalid, cumulative_bug
* per_length.csv: length, tests, seqset_size, dynamic_objects

Bucket directory, ``buckets/<id>/``: ``bucket.json`` (id, defining sequence,
instance count), ``defining_sequence.txt``, ``replay.sh`` and one
``instance-NNNN.txt`` per instance, numbered in the order of the ``bucket``
events, each a numbered request/response trace redacted as ``wire.log`` is.
"""

from __future__ import annotations

import base64
import csv
import io
import json
import logging
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence

from .executor import DEFAULT_AUTH_HEADER, HttpExchange, TransportFailure, human_text, status_class_label

if TYPE_CHECKING:
    from .buckets import BugBucket, BugInstance
    from .grammar import ResourceType

logger = logging.getLogger(__name__)

EVENTS_FILENAME = "events.jsonl"
WIRE_LOG_FILENAME = "wire.log"
BUCKETS_DIRNAME = "buckets"
_BUCKET_META_FORMAT = "restfuzz-bucket/1"


@dataclass(frozen=True)
class PerLengthRow:
    length: int
    tests: int
    seqset_size: int
    dynamic_objects: int


class TelemetrySink:
    """Appends a run's events to ``events.jsonl`` in ``out_dir``.

    Disk trouble degrades the sink instead of killing the run: one error is
    logged, nothing more is written, and the run continues. ``events.jsonl``
    and the reports built from it then hold only what came before the
    failure.
    """

    def __init__(self, out_dir: Path):
        self.degraded = False
        self._lock = threading.Lock()
        self._start_monotonic = time.monotonic()
        self._start_wall = time.time()
        self._events_fh: io.TextIOBase | None = None
        out_dir = Path(out_dir)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            self._events_fh = open(out_dir / EVENTS_FILENAME, "a", encoding="utf-8")
        except OSError as exc:
            self._degrade(exc)

    # -- low-level plumbing --------------------------------------------------

    def _degrade(self, exc: OSError) -> None:
        if not self.degraded:
            logger.error(
                "telemetry storage failed; the run continues, but events.jsonl and "
                "the reports built from it are incomplete: %s",
                exc,
            )
        self.degraded = True

    def _write(self, line: str) -> None:
        if self._events_fh is None or self.degraded:
            return
        try:
            self._events_fh.write(line)
            self._events_fh.flush()
        except OSError as exc:
            self._degrade(exc)

    def _write_event(self, event: dict) -> None:
        self._write(json.dumps(event, sort_keys=True) + "\n")

    def elapsed(self) -> float:
        return time.monotonic() - self._start_monotonic

    # -- recording ------------------------------------------------------------

    def record_run_start(self, config: dict) -> None:
        with self._lock:
            self._write_event(
                {"type": "run_start", "wall_time": self._start_wall, "config": config}
            )

    def record_exchange(
        self,
        test_index: int,
        steps: Sequence[tuple[str, int]],
        step_index: int,
        exchange: HttpExchange,
        response_class: str,
    ) -> None:
        """Append the exchange of step ``step_index`` of test ``test_index``,
        whose steps are (template id, rendering index) pairs, and flush it.

        The event line is encoded before the lock is taken, with the default
        encoder over keys written in sorted order, which gives the bytes
        ``sort_keys=True`` gives.
        """
        template_id, rendering_index = steps[step_index]
        line = json.dumps(
            {
                "duration": exchange.duration,
                "elapsed": exchange.started + exchange.duration - self._start_wall,
                "reason": exchange.reason,
                "rendering_index": rendering_index,
                "request_b64": base64.b64encode(exchange.request).decode("ascii"),
                "response_b64": base64.b64encode(
                    exchange.response_head() + exchange.body
                ).decode("ascii"),
                "response_class": response_class,
                "sequence_length": len(steps),
                "status": exchange.status,
                "step_index": step_index,
                "template_id": template_id,
                "test_index": test_index,
                "type": "exchange",
            }
        )
        with self._lock:
            self._write(line + "\n")

    def record_failure(
        self,
        test_index: int,
        steps: Sequence[tuple[str, int]],
        step_index: int,
        failure: TransportFailure,
    ) -> None:
        self._record_step_event(
            "transport_failure", test_index, steps, step_index,
            phase=failure.phase, detail=str(failure),
        )

    def record_unresolvable(
        self,
        test_index: int,
        steps: Sequence[tuple[str, int]],
        step_index: int,
        resource: ResourceType,
    ) -> None:
        """Step ``step_index`` consumes ``resource``, which nothing produced,
        so it was not sent and the test ended Invalid."""
        self._record_step_event(
            "unresolvable_consumer", test_index, steps, step_index, resource=str(resource)
        )

    def _record_step_event(
        self, kind: str, test_index: int, steps: Sequence[tuple[str, int]], step_index: int,
        **fields,
    ) -> None:
        with self._lock:
            self._write_event(
                {
                    "type": kind,
                    "elapsed": self.elapsed(),
                    "test_index": test_index,
                    "template_id": steps[step_index][0],
                    "step_index": step_index,
                    **fields,
                }
            )

    def record_length_stats(self, row: PerLengthRow) -> None:
        with self._lock:
            self._write_event(
                {
                    "type": "length_stats",
                    "length": row.length,
                    "tests": row.tests,
                    "seqset_size": row.seqset_size,
                    "dynamic_objects": row.dynamic_objects,
                }
            )

    def record_bucket(
        self, test_index: int, instance: BugInstance, bucket: BugBucket, created: bool
    ) -> None:
        """Test ``test_index`` hit a bug, ``instance``, filed under ``bucket``."""
        event = {
            "type": "bucket",
            "elapsed": self.elapsed(),
            "bucket_id": bucket.bucket_id,
            "defining_sequence": list(bucket.defining_sequence),
            "created": created,
            "test_index": test_index,
            "steps": [list(step) for step in instance.steps],
            "final_status": instance.final_status,
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
            if self._events_fh is not None:
                try:
                    self._events_fh.close()
                except OSError:
                    pass
            self._events_fh = None


# ------------------------------------------------------------------------------
# The reader and the report files


def iter_events(path: Path) -> Iterator[dict]:
    """Yield the events of an ``events.jsonl`` in order, one line at a time.

    Blank lines are skipped, and so are lines that are not JSON (a write
    cut short by a full disk), each with a warning.
    """
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                logger.warning("%s:%d: skipping corrupt event: %s", path, line_no, exc)
                continue
            yield event


def emit_report(run_dir: Path) -> int:
    """Write the report files and the bucket directory of ``run_dir`` from
    its ``events.jsonl``; return the number of exchanges it records.

    One pass over the events writes each CSV row, each ``wire.log`` block
    and each bug instance's trace as its event is read. Workers interleave
    their lines, so the human text of each test still in flight is held,
    by test index, until its last event: the exchange that ends it, its
    transport failure or unresolvable consumer, or, for a bug, its
    ``bucket`` event. Beyond those, only the cumulative class counts, the
    bucket tallies and the report are held: memory does not grow with the
    length of the run. The report is the one the ``run_end`` event
    carries; a run without one (killed, or its sink degraded) gets a report
    of the recorded class totals.
    """
    run_dir = Path(run_dir)
    # A directory only a sink wrote has no config.json; an older run's may name no header.
    config_path = run_dir / "config.json"
    config = json.loads(config_path.read_text()) if config_path.is_file() else {}
    auth_header = config.get("auth_header") or DEFAULT_AUTH_HEADER
    cumulative: Counter[str] = Counter()
    in_flight: dict[int, list[tuple[str, str]]] = {}  # test index -> (request, response) texts
    buckets: dict[str, dict] = {}
    report: dict = {}
    with open(run_dir / "status_timeline.csv", "w", newline="", encoding="utf-8") as timeline_fh, \
            open(run_dir / "per_length.csv", "w", newline="", encoding="utf-8") as per_length_fh, \
            open(run_dir / WIRE_LOG_FILENAME, "w", newline="", encoding="utf-8",
                 errors="replace") as wire:
        timeline = csv.writer(timeline_fh)
        timeline.writerow(
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
        per_length = csv.writer(per_length_fh)
        per_length.writerow(["length", "tests", "seqset_size", "dynamic_objects"])
        for event in iter_events(run_dir / EVENTS_FILENAME):
            kind = event.get("type")
            if kind == "exchange":
                response_class = event["response_class"]
                cumulative[response_class] += 1
                timeline.writerow(
                    [
                        f"{event['elapsed']:.6f}",
                        event["test_index"],
                        event["sequence_length"],
                        event["template_id"],
                        event["status"],
                        status_class_label(event["status"]),
                        response_class,
                        cumulative["valid"],
                        cumulative["invalid"],
                        cumulative["bug"],
                    ]
                )
                request = human_text(base64.b64decode(event["request_b64"]), auth_header)
                response = human_text(base64.b64decode(event["response_b64"]), auth_header)
                wire.write(f"Sending: {request}\n\nReceived: {response}\n\n")
                in_flight.setdefault(event["test_index"], []).append((request, response))
                # A bug's test ends at its bucket event; any other test at
                # its first exchange that is not Valid, or at its last step.
                last_step = event["step_index"] == event["sequence_length"] - 1
                if response_class != "bug" and (response_class != "valid" or last_step):
                    del in_flight[event["test_index"]]
            elif kind == "transport_failure":
                wire.write(f"Transport failure ({event['phase']}): {event['detail']}\n\n")
                in_flight.pop(event["test_index"], None)
            elif kind == "unresolvable_consumer":
                wire.write(
                    f"Unresolvable consumer ({event['resource']}): step {event['step_index'] + 1} "
                    f"{event['template_id']} not sent\n\n"
                )
                in_flight.pop(event["test_index"], None)
            elif kind == "length_stats":
                per_length.writerow(
                    [event["length"], event["tests"], event["seqset_size"],
                     event["dynamic_objects"]]
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
                # An older run's bucket events name no test; its traces are already on disk.
                texts = in_flight.pop(event.get("test_index"), None)
                if texts is not None:
                    directory = run_dir / BUCKETS_DIRNAME / entry["bucket_id"]
                    directory.mkdir(parents=True, exist_ok=True)
                    (directory / f"instance-{entry['instances']:04d}.txt").write_text(
                        _instance_trace(texts), encoding="utf-8"
                    )
            elif kind == "run_end" and "report" in event:
                report = event["report"]
    if not report:
        report = {
            "total_tests": None,
            "status_totals": dict(cumulative),
            "stopped_reason": "unknown (no run_end event)",
        }
    ordered = sorted(buckets.values(), key=lambda b: b["bucket_id"])
    for bucket in ordered:
        _write_bucket(run_dir / BUCKETS_DIRNAME / bucket["bucket_id"], bucket)
    _write_summary(run_dir / "summary.txt", report, ordered)
    (run_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return sum(cumulative.values())


def _instance_trace(texts: Sequence[tuple[str, str]]) -> str:
    """A bug instance's trace: each request, numbered, then its response."""
    return "\n".join(
        f"{number}/{len(texts)}: {request}\n\n=> {response}\n"
        for number, (request, response) in enumerate(texts, start=1)
    )


def _write_bucket(directory: Path, bucket: dict) -> None:
    """A bucket's metadata, defining sequence and replay script."""
    directory.mkdir(parents=True, exist_ok=True)
    meta = {
        "format": _BUCKET_META_FORMAT,
        "bucket_id": bucket["bucket_id"],
        "defining_sequence": bucket["defining_sequence"],
        "instance_count": bucket["instances"],
    }
    (directory / "bucket.json").write_text(json.dumps(meta, indent=2) + "\n")
    (directory / "defining_sequence.txt").write_text(
        "".join(f"{tid}\n" for tid in bucket["defining_sequence"]), encoding="utf-8"
    )
    script = directory / "replay.sh"
    script.write_text(
        "#!/bin/sh\n"
        "# Replay this bug bucket against a live target: replay.sh HOST:PORT\n"
        'exec restfuzz replay --out "$(dirname "$0")/../.." '
        f'--bucket {bucket["bucket_id"]} --target "${{1:?usage: replay.sh host:port}}"\n'
    )
    script.chmod(0o755)


def _write_summary(path: Path, report: dict, buckets: Sequence[dict]) -> None:
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
        lines.append(f"  {bucket['bucket_id']} ({bucket['instances']} instance(s))")
        for tid in bucket["defining_sequence"]:
            lines.append(f"    {tid}")
    path.write_text("\n".join(lines) + "\n")
