"""Telemetry tests: event stream fidelity, wire log redaction, CSV reports.

The contract under test: the sink writes one file, events.jsonl, the
durable machine record (one ``test`` line per finished test, bytes
base64'd exactly as sent, auth token included); emit_report() builds every
report file from it alone, in memory that does not grow with the run,
among them wire.log, the human copy with the auth value of the header
the ``run_start`` event names redacted. The engine's side of the stream (which steps,
exchanges and class each test event names) is checked in test_engine.py.
"""

from __future__ import annotations

import base64
import csv
import json
import sys
import tempfile
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from restfuzz.engine import EngineConfig, FuzzEngine, Strategy
from restfuzz.executor import (
    ExecutionResult,
    HttpExchange,
    TransportFailure,
    redact_header_value,
    status_class_label,
)
from restfuzz.grammar import (
    FuzzingDictionary,
    GrammarProgram,
    RequestTemplate,
    ResourceType,
    StaticSlot,
)
from restfuzz.telemetry import (
    EVENTS_FILENAME,
    EVENTS_SCHEMA,
    WIRE_LOG_FILENAME,
    EventFormatError,
    FuzzReport,
    TelemetrySink,
    emit_report,
    iter_events,
)

from helpers import committing_engine, run_settings, step

TOKEN_REQUEST = b"POST /x HTTP/1.1\r\nPRIVATE-TOKEN: hunter2\r\nHost: h\r\n\r\npayload"


def make_exchange(status=200, request=TOKEN_REQUEST, body=b'{"ok": 1}', started=0.0):
    return HttpExchange(
        request=request,
        status=status,
        reason="OK" if status == 200 else "NO",
        headers=(("Content-Type", "application/json"),),
        body=body,
        started=started,
        duration=0.001,
    )


def exchange_at(sink, elapsed, status=200, **kwargs):
    """An exchange whose response arrived ``elapsed`` seconds into the
    sink's run."""
    exchange = make_exchange(status, **kwargs)
    exchange.started = sink._start_monotonic + elapsed - exchange.duration
    return exchange


SETTINGS = run_settings(EngineConfig(strategy=Strategy.BFS))


def started_sink(run_dir, auth_header_name="PRIVATE-TOKEN"):
    """A sink whose first event is the ``run_start`` of a bfs run that
    names ``auth_header_name``."""
    return TelemetrySink(out_dir=run_dir, settings=dict(SETTINGS, auth_header=auth_header_name))


def record(sink, exchanges, final_class, test_index=0, length=None, template="POST /x",
           rendering=0, failure=None, filed=None, extracted=0):
    """Hand the sink test ``test_index``: ``length`` steps (by default one
    per exchange), each (``template``, ``rendering``), whose ``exchanges``
    were sent before it ended ``final_class``, its transport ``failure``,
    ``filed``, the bucket it was filed in, and the number of objects
    ``extracted`` during it."""
    steps = ((template, rendering),) * (length or len(exchanges))
    result = ExecutionResult(
        exchanges=list(exchanges),
        final_class=final_class,
        extracted=extracted,
        failure=failure,
    )
    sink.record_test(test_index, steps, result, filed)


def record_failure(sink, phase, detail, test_index=0, template="POST /x"):
    """Test ``test_index``: one step that failed below HTTP."""
    record(sink, [], "invalid", test_index, length=1, template=template,
           failure=TransportFailure(phase, detail))


def record_bug(sink, test_index, created, defining=("POST /x", "PUT /x"), exchange=None):
    """Test ``test_index``: one step, ``PUT /x`` answered 500, filed under
    bucket abc123def456."""
    record(sink, [exchange or make_exchange(500)], "bug", test_index, template="PUT /x",
           filed=("abc123def456", defining, created))


class StatusTransport:
    """Answers ``GET /<status>`` with that status."""

    def roundtrip(self, request):
        status = int(request.split(b" ")[1][1:])
        return make_exchange(status, request=request, started=time.monotonic())


def run_into(run_dir, statuses, error_classes=("5xx",)):
    """Run one single-request test per status, ``GET /<status>``, through
    an engine that classifies with ``error_classes`` and records into a
    sink in ``run_dir``."""
    grammar = GrammarProgram(
        templates=tuple(
            RequestTemplate(
                id=f"GET /{status}",
                method="GET",
                slots=(StaticSlot(f"GET /{status} HTTP/1.1\r\nHost: h\r\n".encode()),),
            )
            for status in statuses
        )
    )
    config = EngineConfig(strategy=Strategy.BFS, max_length=1, error_status_classes=error_classes)
    sink = TelemetrySink(out_dir=run_dir, settings=run_settings(config))
    try:
        FuzzEngine(grammar, FuzzingDictionary.default(), config, StatusTransport, sink=sink).run()
    finally:
        sink.close()


def recorded_events(run_dir):
    return list(iter_events(run_dir / EVENTS_FILENAME))


def recorded_tests(run_dir):
    return [event for event in recorded_events(run_dir) if event["type"] == "test"]


def recorded_exchanges(run_dir):
    """Each recorded exchange with its response class, by the rule the
    reader applies: the last exchange of a test that no failure or
    unresolved consumer ended has the test's final class, every other one
    is Valid."""
    for test in recorded_tests(run_dir):
        ended = "failure" not in test and "unresolved" not in test
        for step_index, exchange in enumerate(test["exchanges"]):
            last = ended and step_index == len(test["exchanges"]) - 1
            yield dict(exchange, response_class=test["final_class"] if last else "valid")


def csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# --------------------------------------------------------------------------
# Accounting, as the event stream records it


def exchange_counts(tmp_path, key) -> Counter:
    return Counter(key(e) for e in recorded_exchanges(tmp_path))


def test_counters_track_classes_and_status_groups(tmp_path):
    run_into(tmp_path, [200, 201, 404, 500])
    classes = exchange_counts(tmp_path, lambda e: e["response_class"])
    groups = exchange_counts(tmp_path, lambda e: status_class_label(e["status"]))
    assert classes == {"valid": 2, "invalid": 1, "bug": 1}
    assert groups == {"2xx": 2, "4xx": 1, "5xx": 1}
    assert emit_report(tmp_path) == 4


def test_custom_error_classes_change_the_recorded_class(tmp_path):
    run_into(tmp_path, [404, 500], error_classes=("404",))
    classes = exchange_counts(tmp_path, lambda e: e["response_class"])
    assert classes == {"bug": 1, "invalid": 1}


def test_failures_are_counted(tmp_path):
    sink = started_sink(tmp_path)
    record_failure(sink, "connect", "refused")
    sink.close()
    phases = Counter(e["failure"]["phase"] for e in recorded_tests(tmp_path) if "failure" in e)
    assert phases == {"connect": 1}


# --------------------------------------------------------------------------
# The event stream


def recorded_sink(tmp_path):
    """Four tests: Valid with one object extracted, a bug that founds
    bucket abc123def456, a transport failure, and a second instance of the
    bug; then a restart."""
    sink = started_sink(tmp_path)
    record(sink, [make_exchange(201)], "valid", extracted=1)
    record_bug(sink, 1, created=True)
    record_failure(sink, "read", "timed out", test_index=2)
    record_bug(sink, 3, created=False)
    sink.record_restart(4, 1)
    sink.record_run_end("completed", 1.5)
    sink.close()
    return sink


def test_event_stream_structure(tmp_path):
    recorded_sink(tmp_path)
    events = recorded_events(tmp_path)
    assert [e["type"] for e in events] == [
        "run_start",
        "test",
        "test",
        "test",
        "test",
        "restart",
        "run_end",
    ]
    assert [e["test_index"] for e in events[1:5]] == [0, 1, 2, 3]
    assert [e["extracted"] for e in events[1:5]] == [1, 0, 0, 0]
    assert {k: v for k, v in events[0].items() if k not in ("elapsed", "wall_time")} == {
        "type": "run_start", "schema": EVENTS_SCHEMA, **SETTINGS,
    }
    assert events[-2]["test_index"] == 4 and events[-2]["length"] == 1
    assert {k: v for k, v in events[-1].items() if k != "elapsed"} == {
        "type": "run_end", "reason": "completed", "elapsed_seconds": 1.5,
    }


def test_machine_record_is_byte_identical_and_unredacted(tmp_path):
    recorded_sink(tmp_path)
    events = recorded_events(tmp_path)
    exchange_event = next(e for e in events if e["type"] == "test")["exchanges"][0]
    raw = base64.b64decode(exchange_event["request_b64"])
    assert raw == TOKEN_REQUEST  # token and all
    response = base64.b64decode(exchange_event["response_b64"])
    assert response.startswith(b"HTTP/1.1 201 ")
    assert response.endswith(b'{"ok": 1}')


def test_sink_writes_only_the_event_stream(tmp_path):
    recorded_sink(tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == [EVENTS_FILENAME]


def test_wire_log_is_the_redacted_human_copy(tmp_path):
    recorded_sink(tmp_path)
    emit_report(tmp_path)
    wire = (tmp_path / WIRE_LOG_FILENAME).read_text()
    assert "Sending: POST /x HTTP/1.1" in wire
    assert "Received: HTTP/1.1 201" in wire
    assert "Transport failure (read): read: timed out" in wire
    assert "hunter2" not in wire
    assert "PRIVATE-TOKEN: [FILTERED]" in wire
    # ... while the machine copy does carry the token (checked above), so
    # the two files must genuinely be different renderings.
    events_text = (tmp_path / EVENTS_FILENAME).read_text()
    assert "hunter2" not in events_text  # base64'd, not plain
    assert base64.b64encode(TOKEN_REQUEST).decode() in events_text


def test_custom_auth_header_redaction(tmp_path):
    sink = started_sink(tmp_path, "X-Key")
    request = b"GET / HTTP/1.1\r\nX-Key: opensesame\r\n\r\n"
    record(sink, [make_exchange(request=request)], "valid")
    sink.close()
    emit_report(tmp_path)
    wire = (tmp_path / WIRE_LOG_FILENAME).read_text()
    assert "opensesame" not in wire
    assert "X-Key: [FILTERED]" in wire


def test_a_run_start_without_an_auth_header_is_refused(tmp_path):
    """wire.log redacts the header ``run_start`` names, so a run_start that
    names none is refused rather than redacted by a guess."""
    settings = dict(SETTINGS)
    del settings["auth_header"]
    sink = TelemetrySink(out_dir=tmp_path, settings=settings)
    record(sink, [make_exchange()], "valid")
    sink.close()
    with pytest.raises(EventFormatError, match=r"events\.jsonl:1: the run_start records an "
                       "auth_header that is not a string"):
        emit_report(tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == [EVENTS_FILENAME]


def test_rendering_index_travels_with_the_event(tmp_path):
    sink = started_sink(tmp_path)
    record(sink, [make_exchange()], "valid", rendering=7)
    sink.close()
    assert recorded_tests(tmp_path)[0]["steps"] == [["POST /x", 7]]


def test_bucket_event_carries_the_instance(tmp_path):
    """The instance is the test's steps up to its last exchange, and that
    exchange's status."""
    recorded_sink(tmp_path)
    bug = next(e for e in recorded_tests(tmp_path) if "bucket" in e)
    assert {k: v for k, v in bug.items() if k not in ("elapsed", "exchanges")} == {
        "type": "test",
        "bucket": {
            "bucket_id": "abc123def456",
            "defining_sequence": ["POST /x", "PUT /x"],
            "created": True,
        },
        "test_index": 1,
        "steps": [["PUT /x", 0]],
        "final_class": "bug",
        "extracted": 0,
    }
    assert [exchange["status"] for exchange in bug["exchanges"]] == [500]


def test_unresolvable_consumer_is_one_event_and_one_wire_log_line(tmp_path):
    sink = started_sink(tmp_path)
    result = ExecutionResult(
        exchanges=[make_exchange(201)], final_class="invalid",
        unresolved=ResourceType("x/id"),
    )
    sink.record_test(0, (("POST /x", 0), ("GET /x/{id}", 0)), result, None)
    sink.close()
    [event] = recorded_tests(tmp_path)
    assert {k: v for k, v in event.items() if k not in ("elapsed", "exchanges")} == {
        "type": "test",
        "test_index": 0,
        "steps": [["POST /x", 0], ["GET /x/{id}", 0]],
        "final_class": "invalid",
        "extracted": 0,
        "unresolved": "x/id",
    }
    assert [exchange["status"] for exchange in event["exchanges"]] == [201]
    emit_report(tmp_path)
    wire = (tmp_path / WIRE_LOG_FILENAME).read_text()
    assert wire.endswith("\n\nUnresolvable consumer (x/id): step 2 GET /x/{id} not sent\n\n")


def test_instance_trace_holds_only_its_own_tests_exchanges(tmp_path):
    """Two workers commit their tests at once: each test is one line, so a
    bug's trace holds only its own test's exchanges."""
    sink = started_sink(tmp_path)
    bug = ExecutionResult(
        exchanges=[make_exchange(201), make_exchange(500, body=b"boom")],
        final_class="bug",
    )
    other = ExecutionResult(
        exchanges=[make_exchange(201, body=b"other"), make_exchange(200, body=b"other")],
        final_class="valid",
    )
    failed = ExecutionResult(
        exchanges=[], final_class="invalid",
        failure=TransportFailure("read", "timed out"),
    )
    bug_steps = (step("POST /x"), step("PUT /x"))
    other_steps = (step("POST /x"), step("GET /x"))
    engine = committing_engine(sink)
    start = threading.Barrier(2)

    def worker(*tests):
        start.wait()
        for test in tests:
            engine._record_test(*test)

    threads = [
        threading.Thread(target=worker, args=((7, bug_steps, bug),)),
        threading.Thread(
            target=worker, args=((8, other_steps, other), (9, other_steps, failed))
        ),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    sink.close()
    assert sorted(e["test_index"] for e in recorded_tests(tmp_path)) == [7, 8, 9]
    emit_report(tmp_path)
    [bucket] = engine.report.buckets
    trace = (tmp_path / "buckets" / bucket["bucket_id"] / "instance-0001.txt").read_text()
    request = "POST /x HTTP/1.1\nPRIVATE-TOKEN: [FILTERED]\nHost: h\n\npayload"
    head = "Content-Type: application/json\n"
    assert trace == (
        f"1/2: {request}\n\n=> HTTP/1.1 201 NO\n{head}\n{{\"ok\": 1}}\n"
        "\n"
        f"2/2: {request}\n\n=> HTTP/1.1 500 NO\n{head}\nboom\n"
    )


def test_concurrent_tests_are_whole_lines(tmp_path):
    """More workers than cores, switching as often as they can: each test
    is still one line that parses, and each test index is there once."""
    sink = started_sink(tmp_path)
    engine = committing_engine(sink)
    workers = 8

    def worker(first):
        for test_index in range(first, 200, workers):
            exchanges = [make_exchange(201), make_exchange(500, body=b"x" * 2000)]
            engine._record_test(test_index, (step("POST /x"), step("POST /x")),
                                ExecutionResult(exchanges, "bug"))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(workers)]
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(switch_interval)
    assert not any(thread.is_alive() for thread in threads)
    sink.close()
    lines = (tmp_path / EVENTS_FILENAME).read_text().splitlines()
    tests = [json.loads(line) for line in lines[1:]]  # after the run_start
    assert sorted(test["test_index"] for test in tests) == list(range(200))
    assert all(len(test["exchanges"]) == 2 for test in tests)


def reference_records(
    exchange, test_index, steps, final_class, failure, elapsed, exchange_elapsed,
    auth_header_name,
):
    """The ``events.jsonl`` line and ``wire.log`` bytes of a test whose one
    exchange ``failure`` followed, written the plain way: one ``sort_keys``
    dump of the whole event, the response rebuilt for each use, every
    message redacted and decoded as latin-1 text that a UTF-8 file
    (``errors="replace"``) encodes."""
    event = {
        "type": "test",
        "elapsed": elapsed,
        "test_index": test_index,
        "steps": [list(step) for step in steps],
        "final_class": final_class,
        "extracted": 0,
        "exchanges": [
            {
                "elapsed": exchange_elapsed,
                "status": exchange.status,
                "reason": exchange.reason,
                "duration": exchange.duration,
                "request_b64": base64.b64encode(exchange.request).decode("ascii"),
                "response_b64": base64.b64encode(
                    exchange.response_head() + exchange.body
                ).decode("ascii"),
            }
        ],
        "failure": {"phase": failure.phase, "detail": str(failure)},
    }
    line = (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")
    request = redact_header_value(exchange.request, auth_header_name)
    response = redact_header_value(exchange.response_head() + exchange.body, auth_header_name)
    req_text = request.decode("latin-1").replace("\r\n", "\n").rstrip("\n")
    resp_text = response.decode("latin-1").replace("\r\n", "\n").rstrip("\n")
    wire = f"Sending: {req_text}\n\nReceived: {resp_text}\n\n".encode("utf-8", "replace")
    return line, wire


header_text = st.text(st.characters(min_codepoint=32, max_codepoint=255), max_size=12)


@settings(max_examples=150, deadline=None)
@given(
    request=st.binary(max_size=80),
    auth_line=st.sampled_from(
        [b"", b"PRIVATE-TOKEN: hunter2\r\n", b"private-Token:hunter2\r\n", b"X-Key: k\r\n"]
    ),
    body=st.binary(max_size=60),
    status=st.integers(0, 999),
    reason=header_text,
    headers=st.lists(st.tuples(header_text, header_text), max_size=3),
    template_id=st.text(max_size=10),
    auth_header_name=st.sampled_from(["PRIVATE-TOKEN", "x-key"]),
    final_class=st.sampled_from(["valid", "invalid", "bug"]),
)
@example(
    request=b"POST /x HTTP/1.1\r\nHost: h",
    auth_line=b"pRiVaTe-ToKeN: hunter2\r\n",
    body="caf\u00e9 \u00ff".encode("latin-1") + b"\r\nPRIVATE-TOKEN: not-a-header\r\n\r\n",
    status=500,
    reason="Erreur \u00e9",
    headers=[("Private-Token", "echoed"), ("Content-Type", "text/plain; charset=latin-1")],
    template_id="POST /caf\u00e9",
    auth_header_name="PRIVATE-TOKEN",
    final_class="invalid",
)
def test_event_and_wire_bytes_match_the_reference_writer(
    request, auth_line, body, status, reason, headers, template_id, auth_header_name, final_class
):
    head, sep, rest = request.partition(b"\r\n\r\n")
    request = head + b"\r\n" + auth_line + b"\r\n" + rest if sep else request + auth_line
    steps = ((template_id, 5),) * 2
    with tempfile.TemporaryDirectory() as out:
        out = Path(out)
        sink = started_sink(out, auth_header_name)
        exchange = HttpExchange(
            request=request,
            status=status,
            reason=reason,
            headers=tuple(headers),
            body=body,
            started=sink._start_monotonic + 1.5,
            duration=0.0125,
        )
        failure = TransportFailure("read", "timed out \u00e9")
        result = ExecutionResult([exchange], final_class, failure=failure)
        sink.record_test(3, steps, result, None)
        sink.close()
        emit_report(out)
        _, events = (out / EVENTS_FILENAME).read_bytes().splitlines(keepends=True)
        wire = (out / WIRE_LOG_FILENAME).read_bytes()
    elapsed = json.loads(events)["elapsed"]  # when the sink took the test
    exchange_elapsed = exchange.started + exchange.duration - sink._start_monotonic
    line, wire_record = reference_records(
        exchange, 3, steps, final_class, failure, elapsed, exchange_elapsed, auth_header_name
    )
    assert events == line
    failure = "Transport failure (read): read: timed out \u00e9\n\n"
    assert wire == wire_record + failure.encode("utf-8")


# --------------------------------------------------------------------------
# Reading the stream back


def test_report_files_match_the_recorded_stream(tmp_path):
    recorded_sink(tmp_path)
    elapsed = [f"{e['elapsed']:.6f}" for e in recorded_exchanges(tmp_path)]
    assert emit_report(tmp_path) == 3
    assert csv_rows(tmp_path / "status_timeline.csv")[1:] == [
        [elapsed[0], "0", "1", "POST /x", "201", "2xx", "valid", "1", "0", "0"],
        [elapsed[1], "1", "1", "PUT /x", "500", "5xx", "bug", "1", "0", "1"],
        [elapsed[2], "3", "1", "PUT /x", "500", "5xx", "bug", "1", "0", "2"],
    ]
    assert csv_rows(tmp_path / "per_length.csv")[1:] == [["1", "4", "1", "1"]]
    summary = (tmp_path / "summary.txt").read_text().splitlines()
    assert summary[-4:] == [
        "bug buckets: 1",
        "  abc123def456 (2 instance(s))",
        "    POST /x",
        "    PUT /x",
    ]
    # Four tests ended: Valid, a bug, a transport failure and the bug again.
    assert json.loads((tmp_path / "report.json").read_text()) == {
        "strategy": "bfs",
        "max_length_reached": 1,
        "total_tests": 4,
        "status_totals": {"bug": 2, "invalid": 1, "valid": 1},
        "status_group_totals": {"2xx": 1, "5xx": 2},
        "per_length": [[1, 4, 1, 1]],
        "buckets": [
            {"bucket_id": "abc123def456", "defining_sequence": ["POST /x", "PUT /x"],
             "instances": 2},
        ],
        "restarts": 1,
        "behaviors": [["POST /x", "2xx"], ["PUT /x", "5xx"]],
        "behavioral_coverage": 2,
        "stopped_reason": "completed",
        "transport_failures": 1,
        "elapsed_seconds": 1.5,
    }


def test_rebuild_keeps_custom_response_classes(tmp_path):
    run_into(tmp_path, [404], error_classes=("404",))
    emit_report(tmp_path)
    assert csv_rows(tmp_path / "status_timeline.csv")[1][6] == "bug"


def test_corrupt_lines_are_skipped_not_fatal(tmp_path, caplog):
    recorded_sink(tmp_path)
    events = recorded_events(tmp_path)
    path = tmp_path / EVENTS_FILENAME
    with open(path, "a") as fh:
        fh.write("{this is not json\n")
        fh.write("\n")  # blank lines are fine
        fh.write("[]\n3\n")  # JSON, but not an event
    with caplog.at_level("WARNING"):
        assert recorded_events(tmp_path) == events
    messages = [r.message for r in caplog.records]
    assert len(messages) == 3 and all("skipping corrupt event" in m for m in messages)
    assert sum(m.endswith("not a JSON object") for m in messages) == 2


def test_report_memory_does_not_grow_with_the_run(tmp_path):
    """emit_report streams: ten times the exchanges, about the same peak."""

    def peak_bytes(exchanges):
        run_dir = tmp_path / str(exchanges)
        sink = started_sink(run_dir)
        for test_index in range(exchanges - 1):
            record(sink, [make_exchange()], "valid", test_index=test_index)
        record_bug(sink, exchanges - 1, created=True, defining=("PUT /x",))
        sink.record_run_end("completed", 1.0)
        sink.close()
        tracemalloc.start()
        try:
            assert emit_report(run_dir) == exchanges
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak_bytes(300), peak_bytes(3000)
    assert large < 1.5 * small, (small, large)


# --------------------------------------------------------------------------
# Degradation


def test_unwritable_out_dir_degrades_without_raising(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("in the way")
    sink = started_sink(blocker / "sub")
    assert sink.degraded
    record(sink, [make_exchange()], "valid")  # must not raise
    sink.close()
    assert not (blocker / "sub").exists()  # nothing was recorded


def test_midstream_write_error_degrades_once(tmp_path, caplog):
    sink = started_sink(tmp_path)
    record(sink, [make_exchange()], "valid")

    class Exploding:
        def write(self, _):
            raise OSError("disk full")

        def flush(self):
            pass

        def close(self):
            pass

    sink._events_fh.close()
    sink._events_fh = Exploding()
    with caplog.at_level("ERROR"):
        record(sink, [make_exchange()], "valid", test_index=1)
        assert sink.degraded
        record(sink, [make_exchange()], "valid", test_index=2)
    sink.close()
    assert [r.levelname for r in caplog.records] == ["ERROR"]
    # The record, and every report built from it, holds what came before.
    assert emit_report(tmp_path) == 1


# --------------------------------------------------------------------------
# Report files


@pytest.fixture()
def report_dir(tmp_path):
    """A run directory whose stream holds four one-exchange tests at 0.1,
    0.2, 0.3 and 0.4 s, the last two filed in one bucket, and the run's end,
    with the report files built from it. The tests run at lengths 1, 1, 2
    and 1: the last, a bug, starts a second iteration at length 1."""
    sink = started_sink(tmp_path)
    record(sink, [exchange_at(sink, 0.1, 200)], "valid", template="POST /x", extracted=1)
    record(sink, [exchange_at(sink, 0.2, 404)], "invalid", test_index=1, template="GET /x")
    record(sink, [exchange_at(sink, 0.3, 500)], "bug", test_index=2, length=2, template="PUT /x",
           filed=("abc123def456", ("POST /x", "PUT /x"), True), extracted=2)
    record_bug(sink, 3, created=False, exchange=exchange_at(sink, 0.4, 500))
    sink.record_run_end("completed", 0.5)
    sink.close()
    emit_report(tmp_path)
    return tmp_path


def test_timeline_csv_has_cumulative_columns(report_dir):
    rows = csv_rows(report_dir / "status_timeline.csv")
    assert rows[0] == [
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
    assert rows[1] == ["0.100000", "0", "1", "POST /x", "200", "2xx", "valid", "1", "0", "0"]
    assert rows[2] == ["0.200000", "1", "1", "GET /x", "404", "4xx", "invalid", "1", "1", "0"]
    assert rows[3] == ["0.300000", "2", "2", "PUT /x", "500", "5xx", "bug", "1", "1", "1"]
    assert rows[4] == ["0.400000", "3", "1", "PUT /x", "500", "5xx", "bug", "1", "1", "2"]


def test_per_length_csv(report_dir):
    assert csv_rows(report_dir / "per_length.csv") == [
        ["length", "tests", "seqset_size", "dynamic_objects"],
        ["1", "3", "0", "1"],
        ["2", "1", "0", "2"],
    ]


def test_report_json_round_trips(report_dir):
    """report.json is the report folded from the facts the stream records."""
    report = FuzzReport({"strategy": "bfs"})
    report.add_test(1, [("POST /x", "2xx")], "valid", False, 1)
    report.add_test(1, [("GET /x", "4xx")], "invalid", False, 0)
    report.add_test(2, [("PUT /x", "5xx")], "bug", False, 2)
    report.add_test(1, [("PUT /x", "5xx")], "bug", False, 0)
    report.add_bucket_instance("abc123def456", ("POST /x", "PUT /x"))
    report.add_bucket_instance("abc123def456", ("POST /x", "PUT /x"))
    report.stopped_reason = "completed"
    report.elapsed_seconds = 0.5
    assert json.loads((report_dir / "report.json").read_text()) == report.to_dict()


def test_summary_mentions_the_essentials(report_dir):
    summary = (report_dir / "summary.txt").read_text()
    assert "strategy: bfs" in summary
    assert "total_tests: 4" in summary
    assert "tests by final class:\n  bug: 2\n  invalid: 1\n  valid: 1\n" in summary
    assert "bug buckets: 1" in summary
    assert "abc123def456" in summary
    assert "POST /x" in summary


def per_length(report):
    return [(r.length, r.tests, r.seqset_size, r.dynamic_objects) for r in report.per_length]


def test_per_length_rows_are_folded_from_the_tests():
    """A length's row counts its tests and their objects; its sequence-set
    size is the retained tests of the latest iteration at that length,
    which starts when the length changes or after a restart."""
    report = FuzzReport({"strategy": "random-walk"})
    retained = [
        report.add_test(length, [], final_class, False, extracted)
        for length, final_class, extracted in [
            (1, "valid", 1), (1, "invalid", 0), (2, "valid", 2), (2, "bug", 0), (2, "valid", 1),
        ]
    ]
    # The search retains what the rows count: the Valid tests.
    assert retained == [True, False, True, False, True]
    assert per_length(report) == [(1, 2, 1, 1), (2, 3, 2, 3)]
    report.add_restart()
    report.add_test(1, [], "valid", False, 1)
    report.add_test(1, [], "valid", False, 0)
    report.add_test(2, [], "invalid", False, 0)
    assert per_length(report) == [(1, 4, 2, 2), (2, 4, 0, 3)]
    # A walk stuck at length 1 restarts into another iteration at length 1.
    report.add_restart()
    report.add_test(1, [], "valid", False, 0)
    report.add_restart()
    report.add_test(1, [], "invalid", False, 0)
    assert per_length(report) == [(1, 6, 0, 2), (2, 4, 0, 3)]
    assert report.max_length_reached == 2
    assert sum(row.tests for row in report.per_length) == report.total_tests == 10


def test_without_feedback_every_test_is_retained():
    report = FuzzReport({"strategy": "bfs", "no_feedback": True})
    assert report.add_test(1, [], "invalid", False, 0)
    assert report.add_test(2, [], "bug", False, 0)
    assert per_length(report) == [(1, 1, 1, 0), (2, 1, 1, 0)]
    assert report.max_length_reached == 2


@pytest.mark.parametrize(
    "first",
    [
        {"type": "run_start", "config": {}},
        {"type": "run_start", "schema": EVENTS_SCHEMA + 1, "config": {}},
        {"type": "test", "test_index": 0},
    ],
    ids=["no-schema", "other-schema", "no-run-start"],
)
def test_a_file_of_another_schema_is_refused(tmp_path, first):
    """Only a file that starts with a run_start of this schema is read; the
    report files are not opened for another."""
    sink = started_sink(tmp_path)
    record(sink, [make_exchange()], "valid")
    sink.close()
    lines = (tmp_path / EVENTS_FILENAME).read_text().splitlines(keepends=True)
    (tmp_path / EVENTS_FILENAME).write_text(json.dumps(first) + "\n" + lines[1])
    with pytest.raises(EventFormatError, match=f"reads only a run that starts with a 'run_start' "
                       f"of schema {EVENTS_SCHEMA}"):
        next(iter_events(tmp_path / EVENTS_FILENAME))
    with pytest.raises(EventFormatError):
        emit_report(tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == [EVENTS_FILENAME]


def test_a_file_with_no_event_is_refused(tmp_path):
    """A reader takes the first event as the run's settings, so a file with
    none is refused before a report file is opened."""
    (tmp_path / EVENTS_FILENAME).write_text("\n")
    with pytest.raises(EventFormatError, match="holds no event, so no run_start"):
        emit_report(tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == [EVENTS_FILENAME]
