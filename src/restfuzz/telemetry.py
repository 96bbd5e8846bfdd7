"""Client-side observation of a fuzzing run, and the run's report.

The sink appends every event of a run to one file, ``events.jsonl``: one
JSON object per line. An exchange's request is base64-encoded as sent,
except that ``SocketTransport`` has already redacted the auth header's
value, so the token is nowhere in the run directory. Its response is not
the bytes received: it is ``HttpExchange.response_head`` (a head rebuilt
from the parsed status line and headers, with values trimmed, lines
without a colon left out and interim 1xx heads gone) followed by the body,
without trailers and de-chunked. It keeps nothing in memory. The engine is its only
caller. The first event, ``run_start``, written when the sink opens the
file, carries the events ``schema`` number and the run's settings, recorded
nowhere else: the engine ``config``, the ``target``, ``secure``, both
timeouts and ``auth_header``. Each finished test is one ``test`` event, written
with one write and one flush: its index, [template id, rendering index]
``steps``, final class, ``exchanges`` and ``extracted``, the number of
objects extracted during it; ``failure`` or ``unresolved`` when a step
failed below HTTP or consumed a value nothing produced (the step after the
last exchange); and ``bucket`` when it hit a bug. The rest is derived: an
exchange's step is its position, its class is the test's final class for
the last exchange of a test that ended on a response and Valid otherwise,
and a bug instance is the steps up to the last exchange, with its status.
The only other events are random-walk restarts (``restart``: the next
test's index and the walk's length) and the run's end, ``run_end``, which
carries only the stop reason and ``FuzzEngine.run``'s elapsed time. Every
event's ``elapsed`` is read on the monotonic clock from the sink's start; an
exchange's is when its response arrived, taken from the exchange's own
start and duration. ``iter_events`` refuses, with ``EventFormatError``, a
file whose first event is not a ``run_start`` naming this ``EVENTS_SCHEMA``,
such as a run recorded by an older restfuzz, or records settings of the
wrong shape, and a file with no event at all.

``FuzzReport`` is the run's report as a fold of those facts. The engine
feeds one during the run; ``emit_report`` feeds a fresh one from the events.
It is the one place a bucket's instances are counted, so a ``test``
event's ``created`` comes from it: the bucket index,
``buckets.BucketStore``, holds only each bucket's id and defining sequence.

``events.jsonl`` is the durable record, and the only record of a bug
instance. ``emit_report`` is its one reader. In a single pass over the file
it writes ``status_timeline.csv`` (cumulative counts per response class over
time), ``wire.log`` (human-readable "Sending:" / "Received:" blocks with the
auth header value redacted; the header is the one ``run_start`` names)
and each bug instance's trace in the bucket directory, then, from the
folded report, ``per_length.csv`` (tests, sequence-set size and dynamic
objects per sequence length, one row per length, folded from the ``test``
events), each bucket's metadata,
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
``instance-NNNN.txt`` per instance, numbered in the order of the ``test``
events filed under the bucket, each a numbered request/response trace
redacted as ``wire.log`` is.
"""

from __future__ import annotations

import base64
import csv
import io
import json
import logging
import time
from collections import Counter
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .executor import (
    ExecutionResult,
    HttpExchange,
    ResponseClass,
    human_text,
    status_class_label,
)

logger = logging.getLogger(__name__)

EVENTS_FILENAME = "events.jsonl"
WIRE_LOG_FILENAME = "wire.log"
BUCKETS_DIRNAME = "buckets"
_BUCKET_META_FORMAT = "restfuzz-bucket/1"
# The version of the events ``run_start`` names; the reader reads only its own.
EVENTS_SCHEMA = 2


@dataclass
class PerLengthRow:
    length: int
    tests: int = 0
    seqset_size: int = 0
    dynamic_objects: int = 0


class FuzzReport:
    """What a run did, folded one fact at a time by the ``add_*`` methods.

    It holds counters, the behaviours, a row per length and an entry per
    bucket (id, defining sequence and instance count): it does not grow
    with the number of tests. It takes no lock. It reads the strategy and
    ``no_feedback`` from ``config``, the engine config ``run_start`` records.
    """

    def __init__(self, config: dict | None = None):
        config = config or {}
        self.strategy = config.get("strategy")
        self._retain_all = bool(config.get("no_feedback"))
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
        self._iteration_length: int | None = None  # the length of the iteration under way
        self._buckets: dict[str, dict] = {}

    def add_test(self, length: int, behaviors: Iterable[tuple[str, str]], final_class: str,
                 transport_failed: bool, extracted: int) -> bool:
        """One finished test of ``length`` steps: the (template id, status
        group) pair of each of its exchanges, its final class, whether a
        transport failure ended it, and the objects extracted during it.
        Return whether the search retains it: the paper's feedback rule
        keeps a Valid test, or every test when feedback is off. A test at
        another length than the one before, or the first after a restart,
        starts a search iteration, whose retained tests are the length's
        sequence-set size."""
        self.total_tests += 1
        self.status_totals[final_class] += 1
        self.transport_failures += transport_failed
        for behavior in behaviors:
            self.status_group_totals[behavior[1]] += 1
            self.behaviors.add(behavior)
        row = self._rows.get(length)
        if row is None:
            row = self._rows[length] = PerLengthRow(length)
        if length != self._iteration_length:
            self._iteration_length = length
            row.seqset_size = 0
        row.tests += 1
        row.dynamic_objects += extracted
        retained = self._retain_all or final_class == ResponseClass.VALID
        if retained:
            row.seqset_size += 1
            self.max_length_reached = max(self.max_length_reached, length)
        return retained

    def add_bucket_instance(self, bucket_id: str, defining_sequence: Sequence[str]) -> int:
        """One bug instance filed under ``bucket_id``; return how many that
        bucket now holds."""
        bucket = self._buckets.setdefault(
            bucket_id,
            {"bucket_id": bucket_id, "defining_sequence": list(defining_sequence), "instances": 0},
        )
        bucket["instances"] += 1
        return bucket["instances"]

    def add_restart(self) -> None:
        """One random-walk restart: the next test starts a search iteration."""
        self.restarts += 1
        self._iteration_length = None

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
    """Appends a run's events to ``events.jsonl`` in ``out_dir``, starting
    with the ``run_start`` that records the run's ``settings``.

    The engine is its only caller and serialises its calls, writing each
    ``test`` event under its commit lock, so the sink takes no lock.

    Disk trouble degrades the sink instead of killing the run: one error is
    logged, nothing more is written, and the run continues. ``events.jsonl``
    and the reports built from it then hold only what came before the
    failure.
    """

    def __init__(self, out_dir: Path, settings: dict):
        self.degraded = False
        self._start_monotonic = time.monotonic()
        self._events_fh: io.TextIOBase | None = None
        out_dir = Path(out_dir)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            self._events_fh = open(out_dir / EVENTS_FILENAME, "a", encoding="utf-8")
        except OSError as exc:
            self._degrade(exc)
        self._record("run_start", schema=EVENTS_SCHEMA, wall_time=time.time(), **settings)

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

    def _record(self, kind: str, **fields) -> None:
        """Append an event of type ``kind`` stamped with the run's elapsed time."""
        event = {"type": kind, "elapsed": self.elapsed(), **fields}
        self._write(json.dumps(event, sort_keys=True) + "\n")

    def elapsed(self) -> float:
        return time.monotonic() - self._start_monotonic

    # -- recording ------------------------------------------------------------

    def record_exchange(self, exchange: HttpExchange) -> dict:
        """One exchange's entry in its test's ``exchanges``. Its ``elapsed``
        is when its response arrived, taken from its own start and
        duration."""
        return {
            "duration": exchange.duration,
            "elapsed": exchange.started + exchange.duration - self._start_monotonic,
            "reason": exchange.reason,
            "request_b64": base64.b64encode(exchange.request).decode("ascii"),
            "response_b64": base64.b64encode(
                exchange.response_head() + exchange.body
            ).decode("ascii"),
            "status": exchange.status,
        }

    def record_test(
        self,
        test_index: int,
        steps: Sequence[tuple[str, int]],
        result: ExecutionResult,
        filed: tuple[str, Sequence[str], bool] | None,
    ) -> None:
        """Append test ``test_index``, whose steps are (template id,
        rendering index) pairs, as one ``test`` line, and flush it.
        ``filed`` is (bucket id, defining sequence, created) when the test
        hit a bug, ``created`` being whether it was the bucket's first
        instance. The line is encoded by one ``json.dumps``."""
        event: dict = {
            "elapsed": self.elapsed(),
            "exchanges": [self.record_exchange(exchange) for exchange in result.exchanges],
            "extracted": result.extracted,
            "final_class": result.final_class,
            "steps": steps,
            "test_index": test_index,
            "type": "test",
        }
        if filed is not None:
            bucket_id, defining_sequence, created = filed
            event["bucket"] = {
                "bucket_id": bucket_id,
                "created": created,
                "defining_sequence": list(defining_sequence),
            }
        if result.failure is not None:
            event["failure"] = {"detail": str(result.failure), "phase": result.failure.phase}
        if result.unresolved is not None:
            event["unresolved"] = str(result.unresolved)
        self._write(json.dumps(event, sort_keys=True) + "\n")

    def record_restart(self, test_index: int, length: int) -> None:
        """The random walk restarts from the empty sequence after reaching
        ``length``; its next test is ``test_index``."""
        self._record("restart", test_index=test_index, length=length)

    def record_run_end(self, reason: str, elapsed_seconds: float) -> None:
        """The run stopped for ``reason``; ``FuzzEngine.run`` took ``elapsed_seconds``."""
        self._record("run_end", reason=reason, elapsed_seconds=elapsed_seconds)

    def close(self) -> None:
        if self._events_fh is not None:
            try:
                self._events_fh.close()
            except OSError:
                pass
        self._events_fh = None


# ------------------------------------------------------------------------------
# The reader and the report files


class EventFormatError(Exception):
    """A run directory this restfuzz cannot read: an ``events.jsonl`` that
    does not start with a ``run_start`` of ``EVENTS_SCHEMA`` whose settings
    have the shape the readers rely on."""


def iter_events(path: Path) -> Iterator[dict]:
    """Yield the events of an ``events.jsonl`` in order, one line at a time.

    Blank lines are skipped, and so are lines that are not a JSON object
    (a write cut short by a full disk), each with a warning. A first event
    that is not a ``run_start`` naming ``EVENTS_SCHEMA``, or whose
    ``config`` is not an object, ``config.error_status_classes`` not a list,
    ``auth_header`` not a string or ``secure`` not a bool, raises
    ``EventFormatError``: such a file is not read at all rather than
    misread. So does a file with no event, so a reader can take the first
    event as the run's settings.
    """
    checked = False
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
            if not checked:
                if event.get("type") != "run_start" or event.get("schema") != EVENTS_SCHEMA:
                    raise EventFormatError(
                        f"{path}:{line_no}: a {event.get('type')!r} event of events schema "
                        f"{event.get('schema')!r}, where this restfuzz reads only a run that "
                        f"starts with a 'run_start' of schema {EVENTS_SCHEMA} (a run recorded "
                        "by an older restfuzz names an older one, or none)"
                    )
                if not isinstance(config := event.get("config"), dict):
                    problem = "a config that is not a JSON object"
                elif not isinstance(config.get("error_status_classes"), list):
                    problem = "error_status_classes that are not a list"
                elif not isinstance(event.get("auth_header"), str):
                    problem = "an auth_header that is not a string"
                elif not isinstance(event.get("secure"), bool):
                    problem = "a secure that is not true or false"
                else:
                    problem = None
                if problem is not None:
                    raise EventFormatError(f"{path}:{line_no}: the run_start records {problem}")
                checked = True
            yield event
    if not checked:
        raise EventFormatError(f"{path} holds no event, so no run_start")


def emit_report(run_dir: Path) -> int:
    """Write the report files and the bucket directory of ``run_dir`` from
    its ``events.jsonl``; return the number of exchanges it records.

    One pass over the events writes each timeline row, each ``wire.log``
    block and each bug instance's trace as its ``test`` event is read, and
    feeds each fact to a ``FuzzReport``, which the other files are written
    from. Only the event being read, the cumulative class counts and the
    report are held: memory does not grow with the length of the run.
    """
    run_dir = Path(run_dir)
    events = iter_events(run_dir / EVENTS_FILENAME)
    # The reader checks the first event, the run's settings, before a report
    # file is opened.
    start = next(events)
    report = FuzzReport(start["config"])
    auth_header = start["auth_header"]
    cumulative: Counter[str] = Counter()
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
        for event in events:
            kind = event.get("type")
            if kind == "test":
                steps, exchanges = event["steps"], event["exchanges"]
                failure, unresolved = event.get("failure"), event.get("unresolved")
                # Execution stops at the first step that is not Valid: every
                # exchange is Valid but the last one of a test that no failure
                # or unresolved consumer ended, which has the test's class.
                last = len(exchanges) - 1 if failure is None and unresolved is None else None
                behaviors: list[tuple[str, str]] = []
                texts: list[tuple[str, str]] = []
                for step_index, exchange in enumerate(exchanges):
                    template_id = steps[step_index][0]
                    response_class = event["final_class"] if step_index == last else "valid"
                    status_group = status_class_label(exchange["status"])
                    cumulative[response_class] += 1
                    timeline.writerow(
                        [
                            f"{exchange['elapsed']:.6f}",
                            event["test_index"],
                            len(steps),
                            template_id,
                            exchange["status"],
                            status_group,
                            response_class,
                            cumulative["valid"],
                            cumulative["invalid"],
                            cumulative["bug"],
                        ]
                    )
                    request = human_text(base64.b64decode(exchange["request_b64"]), auth_header)
                    response = human_text(base64.b64decode(exchange["response_b64"]), auth_header)
                    wire.write(f"Sending: {request}\n\nReceived: {response}\n\n")
                    behaviors.append((template_id, status_group))
                    texts.append((request, response))
                if failure is not None:
                    wire.write(f"Transport failure ({failure['phase']}): {failure['detail']}\n\n")
                if unresolved is not None:
                    wire.write(
                        f"Unresolvable consumer ({unresolved}): step {len(exchanges) + 1} "
                        f"{steps[len(exchanges)][0]} not sent\n\n"
                    )
                report.add_test(
                    len(steps), behaviors, event["final_class"], failure is not None,
                    event["extracted"],
                )
                bucket = event.get("bucket")
                if bucket is not None:
                    instances = report.add_bucket_instance(
                        bucket["bucket_id"], bucket["defining_sequence"]
                    )
                    directory = run_dir / BUCKETS_DIRNAME / bucket["bucket_id"]
                    directory.mkdir(parents=True, exist_ok=True)
                    (directory / f"instance-{instances:04d}.txt").write_text(
                        _instance_trace(texts), encoding="utf-8"
                    )
            elif kind == "restart":
                report.add_restart()
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
