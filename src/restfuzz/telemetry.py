"""Client-side observation of a fuzzing run, and the run's report.

The sink appends every event of a run to one file, ``events.jsonl``: one
JSON object per line, request and response bytes base64-encoded as they
crossed the wire (except that a chunked response body is stored de-chunked),
the auth token included. It keeps nothing in memory. The engine is its only
caller: it hands over each finished test's exchanges and its transport
failure or unresolvable consumer, in the order the worker ran them, then a
``bucket`` event when the test hit a bug, and the run's start, per-length
rows, random-walk restarts (``restart``: the next test's index and the
walk's length) and end, which carries only the stop reason and
``FuzzEngine.run``'s elapsed time. Every event's ``elapsed`` is read on the
monotonic clock from the sink's start; an exchange's is when its response
arrived, taken from the exchange's own start and duration.

``FuzzReport`` is the run's report as a fold of those facts. The engine
feeds one during the run; ``emit_report`` feeds a fresh one from the events.
It is the one place a bucket's instances are counted: the bucket index,
``buckets.BucketStore``, holds only each bucket's id and defining sequence.

``events.jsonl`` is the durable record, and the only record of a bug
instance. ``emit_report`` is its one reader. In a single pass over the file
it writes ``status_timeline.csv`` (cumulative counts per response class over
time), ``wire.log`` (human-readable "Sending:" / "Received:" blocks with the
auth header value redacted; the header is the one ``config.json`` names)
and each bug instance's trace in the bucket directory, then, from the
folded report, ``per_length.csv`` (tests, sequence-set size and dynamic
objects per sequence length, one row per length), each bucket's metadata,
``summary.txt`` and ``report.json``.
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
from dataclasses import astuple, asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .executor import DEFAULT_AUTH_HEADER, HttpExchange, TransportFailure, human_text, status_class_label

if TYPE_CHECKING:
    from .buckets import BugInstance
    from .grammar import ResourceType

logger = logging.getLogger(__name__)

EVENTS_FILENAME = "events.jsonl"
CONFIG_FILENAME = "config.json"
WIRE_LOG_FILENAME = "wire.log"
BUCKETS_DIRNAME = "buckets"
_BUCKET_META_FORMAT = "restfuzz-bucket/1"


@dataclass(frozen=True)
class PerLengthRow:
    length: int
    tests: int
    seqset_size: int
    dynamic_objects: int


class FuzzReport:
    """What a run did, folded one fact at a time by the ``add_*`` methods.

    It holds counters, the behaviours, a row per length and an entry per
    bucket (id, defining sequence and instance count): it does not grow
    with the number of tests. It takes no lock.
    """

    def __init__(self, strategy: str | None = None):
        self.strategy = strategy
        self.max_length_reached = 0
        self.total_tests = 0
        self.status_totals: Counter[str] = Counter()
        self.status_group_totals: Counter[str] = Counter()
        self.behaviors: set[tuple[str, str]] = set()  # (template id, status group)
        self.restarts = 0
        self.transport_failures = 0
        self.stopped_reason = "unknown (no run_end event)"
        self.elapsed_seconds: float | None = None
        self._rows: dict[int, PerLengthRow] = {}
        self._buckets: dict[str, dict] = {}

    def add_test(
        self, behaviors: Iterable[tuple[str, str]], final_class: str, transport_failed: bool
    ) -> None:
        """One finished test: the (template id, status group) pair of each
        of its exchanges, its final class, and whether a transport failure
        ended it."""
        self.total_tests += 1
        self.status_totals[final_class] += 1
        self.transport_failures += transport_failed
        for behavior in behaviors:
            self.status_group_totals[behavior[1]] += 1
            self.behaviors.add(behavior)

    def add_bucket_instance(self, bucket_id: str, defining_sequence: Sequence[str]) -> int:
        """One bug instance filed under ``bucket_id``; return how many that
        bucket now holds."""
        bucket = self._buckets.setdefault(
            bucket_id,
            {"bucket_id": bucket_id, "defining_sequence": list(defining_sequence), "instances": 0},
        )
        bucket["instances"] += 1
        return bucket["instances"]

    def add_length_row(self, row: PerLengthRow) -> None:
        """The cumulative row of one sequence length, which replaces the
        length's earlier row; a length that kept sequences was reached."""
        self._rows[row.length] = row
        if row.seqset_size:
            self.max_length_reached = max(self.max_length_reached, row.length)

    def add_restart(self) -> None:
        """One random-walk restart from the empty sequence."""
        self.restarts += 1

    def length_row(self, length: int) -> PerLengthRow:
        """The cumulative row of ``length`` so far (zeros before its first)."""
        return self._rows.get(length) or PerLengthRow(length, 0, 0, 0)

    @property
    def per_length(self) -> list[PerLengthRow]:
        return [self._rows[length] for length in sorted(self._rows)]

    @property
    def buckets(self) -> list[dict]:
        return [self._buckets[bucket_id] for bucket_id in sorted(self._buckets)]

    @property
    def behavioral_coverage(self) -> int:
        return len(self.behaviors)

    def fingerprint(self) -> dict:
        """Everything reproducible about the run — no wall-clock times."""
        return {
            "strategy": self.strategy,
            "max_length_reached": self.max_length_reached,
            "total_tests": self.total_tests,
            "status_totals": dict(sorted(self.status_totals.items())),
            "status_group_totals": dict(sorted(self.status_group_totals.items())),
            "per_length": [list(astuple(row)) for row in self.per_length],
            "buckets": [
                dict(b, defining_sequence=list(b["defining_sequence"])) for b in self.buckets
            ],
            "restarts": self.restarts,
            "behaviors": [list(pair) for pair in sorted(self.behaviors)],
            "behavioral_coverage": self.behavioral_coverage,
            "stopped_reason": self.stopped_reason,
            "transport_failures": self.transport_failures,
        }

    def to_dict(self) -> dict:
        data = self.fingerprint()
        data["elapsed_seconds"] = (
            None if self.elapsed_seconds is None else round(self.elapsed_seconds, 3)
        )
        return data


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

    def _record(self, kind: str, **fields) -> None:
        """Append an event of type ``kind`` stamped with the run's elapsed time."""
        with self._lock:
            self._write_event({"type": kind, "elapsed": self.elapsed(), **fields})

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
                "elapsed": exchange.started + exchange.duration - self._start_monotonic,
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
        self._record(
            kind, test_index=test_index, template_id=steps[step_index][0], step_index=step_index,
            **fields,
        )

    def record_length_stats(self, row: PerLengthRow) -> None:
        with self._lock:
            self._write_event({"type": "length_stats", **asdict(row)})

    def record_bucket(
        self,
        test_index: int,
        instance: BugInstance,
        bucket_id: str,
        defining_sequence: Sequence[str],
        created: bool,
    ) -> None:
        """Test ``test_index`` hit a bug, ``instance``, filed under the bucket
        ``bucket_id`` defined by ``defining_sequence``; ``created`` when this
        instance founded it."""
        self._record(
            "bucket",
            bucket_id=bucket_id,
            defining_sequence=list(defining_sequence),
            created=created,
            test_index=test_index,
            steps=[list(step) for step in instance.steps],
            final_status=instance.final_status,
        )

    def record_restart(self, test_index: int, length: int) -> None:
        """The random walk restarts from the empty sequence after reaching
        ``length``; its next test is ``test_index``."""
        self._record("restart", test_index=test_index, length=length)

    def record_run_end(self, reason: str, elapsed_seconds: float) -> None:
        """The run stopped for ``reason``; ``FuzzEngine.run`` took ``elapsed_seconds``."""
        self._record("run_end", reason=reason, elapsed_seconds=elapsed_seconds)

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

    Blank lines are skipped, and so are lines that are not a JSON object
    (a write cut short by a full disk), each with a warning.
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
            if not isinstance(event, dict):
                logger.warning("%s:%d: skipping corrupt event: not a JSON object", path, line_no)
                continue
            yield event


def run_config(run_dir: Path) -> dict:
    """The ``config.json`` that ``restfuzz fuzz`` wrote in ``run_dir``: the
    engine config, target, ``secure`` and ``auth_header``. A directory only
    a sink wrote has none, and reads as ``{}``."""
    path = Path(run_dir) / CONFIG_FILENAME
    return json.loads(path.read_text()) if path.is_file() else {}


def emit_report(run_dir: Path) -> int:
    """Write the report files and the bucket directory of ``run_dir`` from
    its ``events.jsonl``; return the number of exchanges it records.

    One pass over the events writes each timeline row, each ``wire.log``
    block and each bug instance's trace as its event is read, and feeds
    each fact to a ``FuzzReport``, which the other files are written from.
    Workers interleave their lines, so the behaviours and human text of
    each test still in flight are held, by test index, until its last
    event: the exchange that ends it, its transport failure or unresolvable
    consumer, or, for a bug's text, its ``bucket`` event. Beyond those, only
    the cumulative class counts and the report are held: memory does not
    grow with the length of the run.
    """
    run_dir = Path(run_dir)
    # An older run's config may name no header.
    auth_header = run_config(run_dir).get("auth_header") or DEFAULT_AUTH_HEADER
    cumulative: Counter[str] = Counter()
    # test index -> its (template id, status group) pairs and (request, response) texts
    in_flight: dict[int, tuple[list[tuple[str, str]], list[tuple[str, str]]]] = {}
    report = FuzzReport()
    with open(run_dir / "status_timeline.csv", "w", newline="", encoding="utf-8") as timeline_fh, \
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
        for event in iter_events(run_dir / EVENTS_FILENAME):
            kind = event.get("type")
            if kind == "exchange":
                response_class = event["response_class"]
                status_group = status_class_label(event["status"])
                cumulative[response_class] += 1
                timeline.writerow(
                    [
                        f"{event['elapsed']:.6f}",
                        event["test_index"],
                        event["sequence_length"],
                        event["template_id"],
                        event["status"],
                        status_group,
                        response_class,
                        cumulative["valid"],
                        cumulative["invalid"],
                        cumulative["bug"],
                    ]
                )
                request = human_text(base64.b64decode(event["request_b64"]), auth_header)
                response = human_text(base64.b64decode(event["response_b64"]), auth_header)
                wire.write(f"Sending: {request}\n\nReceived: {response}\n\n")
                behaviors, texts = in_flight.setdefault(event["test_index"], ([], []))
                behaviors.append((event["template_id"], status_group))
                texts.append((request, response))
                if response_class != "valid" or event["step_index"] == event["sequence_length"] - 1:
                    report.add_test(behaviors, response_class, transport_failed=False)
                    if response_class != "bug":
                        del in_flight[event["test_index"]]
            elif kind == "transport_failure":
                wire.write(f"Transport failure ({event['phase']}): {event['detail']}\n\n")
                behaviors, _ = in_flight.pop(event["test_index"], ([], []))
                report.add_test(behaviors, "invalid", transport_failed=True)
            elif kind == "unresolvable_consumer":
                wire.write(
                    f"Unresolvable consumer ({event['resource']}): step {event['step_index'] + 1} "
                    f"{event['template_id']} not sent\n\n"
                )
                behaviors, _ = in_flight.pop(event["test_index"], ([], []))
                report.add_test(behaviors, "invalid", transport_failed=False)
            elif kind == "length_stats":
                row = PerLengthRow(
                    event["length"], event["tests"], event["seqset_size"], event["dynamic_objects"]
                )
                report.add_length_row(row)
            elif kind == "bucket":
                instances = report.add_bucket_instance(
                    event["bucket_id"], event["defining_sequence"]
                )
                # An older run's bucket events name no test; its traces are already on disk.
                held = in_flight.pop(event.get("test_index"), None)
                if held is not None:
                    directory = run_dir / BUCKETS_DIRNAME / event["bucket_id"]
                    directory.mkdir(parents=True, exist_ok=True)
                    (directory / f"instance-{instances:04d}.txt").write_text(
                        _instance_trace(held[1]), encoding="utf-8"
                    )
            elif kind == "restart":
                report.add_restart()
            elif kind == "run_start":
                report.strategy = event["config"].get("strategy")
            elif kind == "run_end":
                report.stopped_reason = event["reason"]
                report.elapsed_seconds = event.get("elapsed_seconds")
    with open(run_dir / "per_length.csv", "w", newline="", encoding="utf-8") as per_length_fh:
        per_length = csv.writer(per_length_fh)
        per_length.writerow(["length", "tests", "seqset_size", "dynamic_objects"])
        per_length.writerows(astuple(row) for row in report.per_length)
    data = report.to_dict()
    for bucket in data["buckets"]:
        _write_bucket(run_dir / BUCKETS_DIRNAME / bucket["bucket_id"], bucket)
    _write_summary(run_dir / "summary.txt", data)
    (run_dir / "report.json").write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
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


def _write_summary(path: Path, report: dict) -> None:
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
        lines.append(f"{key}: {report[key]}")
    totals = report["status_totals"]
    if totals:
        lines.append("")
        lines.append("tests by final class:")
        for name in sorted(totals):
            lines.append(f"  {name}: {totals[name]}")
    lines.append("")
    lines.append(f"bug buckets: {len(report['buckets'])}")
    for bucket in report["buckets"]:
        lines.append(f"  {bucket['bucket_id']} ({bucket['instances']} instance(s))")
        for tid in bucket["defining_sequence"]:
            lines.append(f"    {tid}")
    path.write_text("\n".join(lines) + "\n")
