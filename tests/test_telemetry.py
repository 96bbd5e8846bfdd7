"""Telemetry tests: event stream fidelity, wire log redaction, CSV reports.

The contract under test: the sink writes one file, events.jsonl, the
durable machine record (bytes base64'd exactly as sent, auth token
included); emit_report() builds every report file from it alone, in memory
that does not grow with the run, among them wire.log, the human copy with
the auth value of the header config.json names redacted. The engine's
side of the stream (which test, step and class each event names) is
checked in test_engine.py.
"""

from __future__ import annotations

import base64
import csv
import json
import tempfile
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from restfuzz.buckets import BugInstance
from restfuzz.engine import EngineConfig, FuzzEngine, Strategy
from restfuzz.executor import (
    HttpExchange,
    TransportFailure,
    classify_status,
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
    WIRE_LOG_FILENAME,
    FuzzReport,
    PerLengthRow,
    TelemetrySink,
    emit_report,
    iter_events,
)

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


def record(sink, exchange, response_class, test_index=0, length=1, step=0,
           template="POST /x", rendering=0):
    """Hand ``exchange`` to the sink as step ``step`` of a test of
    ``length`` steps, each (``template``, ``rendering``)."""
    steps = ((template, rendering),) * length
    sink.record_exchange(test_index, steps, step, exchange, response_class)


def record_failure(sink, phase, detail, test_index=0, template="POST /x"):
    sink.record_failure(test_index, ((template, 0),), 0, TransportFailure(phase, detail))


def record_bug(sink, test_index, created, defining=("POST /x", "PUT /x")):
    """File test ``test_index``, whose one step was ``PUT /x`` answered
    500, under bucket abc123def456."""
    instance = BugInstance(steps=(("PUT /x", 0),), final_status=500)
    sink.record_bucket(test_index, instance, "abc123def456", defining, created)


class StatusTransport:
    """Answers ``GET /<status>`` with that status."""

    def roundtrip(self, request):
        status = int(request.split(b" ")[1][1:])
        return make_exchange(status, request=request, started=time.monotonic())


def run_into(sink, statuses, error_classes=("5xx",)):
    """Run one single-request test per status, ``GET /<status>``, through
    an engine that classifies with ``error_classes`` and records into
    ``sink``."""
    grammar = GrammarProgram(
        templates=tuple(
            RequestTemplate(
                id=f"GET /{status}",
                method="GET",
                slots=(StaticSlot(f"GET /{status} HTTP/1.1\r\nHost: h\r\n".encode()),),
                declaration_index=index,
            )
            for index, status in enumerate(statuses)
        )
    )
    config = EngineConfig(strategy=Strategy.BFS, max_length=1, error_status_classes=error_classes)
    FuzzEngine(grammar, FuzzingDictionary.default(), config, StatusTransport, sink=sink).run()


def recorded_events(run_dir):
    return list(iter_events(run_dir / EVENTS_FILENAME))


def csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# --------------------------------------------------------------------------
# Accounting, as the event stream records it


def event_counts(tmp_path, type_: str, key) -> Counter:
    return Counter(key(e) for e in recorded_events(tmp_path) if e["type"] == type_)


def test_counters_track_classes_and_status_groups(tmp_path):
    sink = TelemetrySink(out_dir=tmp_path)
    run_into(sink, [200, 201, 404, 500])
    sink.close()
    classes = event_counts(tmp_path, "exchange", lambda e: e["response_class"])
    groups = event_counts(tmp_path, "exchange", lambda e: status_class_label(e["status"]))
    assert classes == {"valid": 2, "invalid": 1, "bug": 1}
    assert groups == {"2xx": 2, "4xx": 1, "5xx": 1}
    assert emit_report(tmp_path) == 4


def test_custom_error_classes_change_the_recorded_class(tmp_path):
    sink = TelemetrySink(out_dir=tmp_path)
    run_into(sink, [404, 500], error_classes=("404",))
    sink.close()
    classes = event_counts(tmp_path, "exchange", lambda e: e["response_class"])
    assert classes == {"bug": 1, "invalid": 1}


def test_failures_are_counted(tmp_path):
    sink = TelemetrySink(out_dir=tmp_path)
    record_failure(sink, "connect", "refused")
    sink.close()
    assert event_counts(tmp_path, "transport_failure", lambda e: e["phase"]) == {"connect": 1}


# --------------------------------------------------------------------------
# The event stream


def recorded_sink(tmp_path, **kwargs):
    sink = TelemetrySink(out_dir=tmp_path, **kwargs)
    sink.record_run_start({"strategy": "bfs"})
    record(sink, make_exchange(201), "valid")
    record(sink, make_exchange(500), "bug", test_index=1, template="PUT /x")
    record_failure(sink, "read", "timed out", test_index=2)
    sink.record_length_stats(PerLengthRow(1, 3, 2, 1))
    record_bug(sink, 1, created=True)
    record_bug(sink, 1, created=False)
    sink.record_restart(3, 1)
    sink.record_run_end("completed", 1.5)
    sink.close()
    return sink


def test_event_stream_structure(tmp_path):
    recorded_sink(tmp_path)
    events = recorded_events(tmp_path)
    assert [e["type"] for e in events] == [
        "run_start",
        "exchange",
        "exchange",
        "transport_failure",
        "length_stats",
        "bucket",
        "bucket",
        "restart",
        "run_end",
    ]
    assert events[0]["config"] == {"strategy": "bfs"}
    assert events[-2]["test_index"] == 3 and events[-2]["length"] == 1
    assert {k: v for k, v in events[-1].items() if k != "elapsed"} == {
        "type": "run_end", "reason": "completed", "elapsed_seconds": 1.5,
    }


def test_machine_record_is_byte_identical_and_unredacted(tmp_path):
    recorded_sink(tmp_path)
    events = recorded_events(tmp_path)
    exchange_event = next(e for e in events if e["type"] == "exchange")
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


def write_config(run_dir, auth_header_name):
    (run_dir / "config.json").write_text(json.dumps({"auth_header": auth_header_name}))


def test_custom_auth_header_redaction(tmp_path):
    write_config(tmp_path, "X-Key")
    sink = TelemetrySink(out_dir=tmp_path)
    request = b"GET / HTTP/1.1\r\nX-Key: opensesame\r\n\r\n"
    record(sink, make_exchange(request=request), "valid")
    sink.close()
    emit_report(tmp_path)
    wire = (tmp_path / WIRE_LOG_FILENAME).read_text()
    assert "opensesame" not in wire
    assert "X-Key: [FILTERED]" in wire


def test_config_without_an_auth_header_redacts_the_default_one(tmp_path):
    write_config(tmp_path, None)
    recorded_sink(tmp_path)
    emit_report(tmp_path)
    wire = (tmp_path / WIRE_LOG_FILENAME).read_text()
    assert "hunter2" not in wire
    assert "PRIVATE-TOKEN: [FILTERED]" in wire


def test_rendering_index_travels_with_the_event(tmp_path):
    sink = TelemetrySink(out_dir=tmp_path)
    record(sink, make_exchange(), "valid", rendering=7)
    sink.close()
    events = recorded_events(tmp_path)
    assert events[0]["rendering_index"] == 7


def test_bucket_event_carries_the_instance(tmp_path):
    recorded_sink(tmp_path)
    bucket = next(e for e in recorded_events(tmp_path) if e["type"] == "bucket")
    assert {k: v for k, v in bucket.items() if k != "elapsed"} == {
        "type": "bucket",
        "bucket_id": "abc123def456",
        "defining_sequence": ["POST /x", "PUT /x"],
        "created": True,
        "test_index": 1,
        "steps": [["PUT /x", 0]],
        "final_status": 500,
    }


def test_unresolvable_consumer_is_one_event_and_one_wire_log_line(tmp_path):
    sink = TelemetrySink(out_dir=tmp_path)
    steps = (("POST /x", 0), ("GET /x/{id}", 0))
    sink.record_exchange(0, steps, 0, make_exchange(201), "valid")
    sink.record_unresolvable(0, steps, 1, ResourceType("x/id"))
    sink.close()
    event = recorded_events(tmp_path)[-1]
    assert {k: v for k, v in event.items() if k != "elapsed"} == {
        "type": "unresolvable_consumer",
        "test_index": 0,
        "template_id": "GET /x/{id}",
        "step_index": 1,
        "resource": "x/id",
    }
    emit_report(tmp_path)
    wire = (tmp_path / WIRE_LOG_FILENAME).read_text()
    assert wire.endswith("\n\nUnresolvable consumer (x/id): step 2 GET /x/{id} not sent\n\n")


def test_instance_trace_holds_only_its_own_tests_exchanges(tmp_path):
    """Workers interleave their lines: the reader keeps each test's
    exchanges apart until the test ends."""
    write_config(tmp_path, "PRIVATE-TOKEN")
    sink = TelemetrySink(out_dir=tmp_path)
    bug_steps = (("POST /x", 0), ("PUT /x", 0))
    other_steps = (("POST /x", 0), ("GET /x", 0))
    sink.record_exchange(7, bug_steps, 0, make_exchange(201), "valid")
    sink.record_exchange(8, other_steps, 0, make_exchange(201, body=b"other"), "valid")
    sink.record_exchange(7, bug_steps, 1, make_exchange(500, body=b"boom"), "bug")
    sink.record_exchange(8, other_steps, 1, make_exchange(200, body=b"other"), "valid")
    sink.record_failure(9, other_steps, 0, TransportFailure("read", "timed out"))
    instance = BugInstance(steps=bug_steps, final_status=500)
    sink.record_bucket(7, instance, "abc123def456", ("PUT /x",), True)
    sink.close()
    emit_report(tmp_path)
    trace = (tmp_path / "buckets" / "abc123def456" / "instance-0001.txt").read_text()
    request = "POST /x HTTP/1.1\nPRIVATE-TOKEN: [FILTERED]\nHost: h\n\npayload"
    head = "Content-Type: application/json\n"
    assert trace == (
        f"1/2: {request}\n\n=> HTTP/1.1 201 NO\n{head}\n{{\"ok\": 1}}\n"
        "\n"
        f"2/2: {request}\n\n=> HTTP/1.1 500 NO\n{head}\nboom\n"
    )


def reference_records(
    exchange, test_index, steps, step_index, elapsed, error_classes, auth_header_name
):
    """The ``events.jsonl`` line and ``wire.log`` bytes of one exchange as
    the sink first wrote them: a ``sort_keys`` dump, the response rebuilt
    for each use, every message redacted and decoded as latin-1 text that a
    UTF-8 file (``errors="replace"``) encodes."""
    response_class = classify_status(exchange.status, error_classes)
    event = {
        "type": "exchange",
        "elapsed": elapsed,
        "test_index": test_index,
        "sequence_length": len(steps),
        "step_index": step_index,
        "template_id": steps[step_index][0],
        "rendering_index": steps[step_index][1],
        "status": exchange.status,
        "reason": exchange.reason,
        "response_class": response_class,
        "duration": exchange.duration,
        "request_b64": base64.b64encode(exchange.request).decode("ascii"),
        "response_b64": base64.b64encode(exchange.response_head() + exchange.body).decode("ascii"),
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
    error_classes=st.sampled_from([("5xx",), ("404", "5xx"), ("2xx",)]),
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
    error_classes=("5xx",),
)
def test_event_and_wire_bytes_match_the_reference_writer(
    request, auth_line, body, status, reason, headers, template_id, auth_header_name, error_classes
):
    head, sep, rest = request.partition(b"\r\n\r\n")
    request = head + b"\r\n" + auth_line + b"\r\n" + rest if sep else request + auth_line
    steps = ((template_id, 5),) * 2
    with tempfile.TemporaryDirectory() as out:
        out = Path(out)
        write_config(out, auth_header_name)
        sink = TelemetrySink(out_dir=out)
        exchange = HttpExchange(
            request=request,
            status=status,
            reason=reason,
            headers=tuple(headers),
            body=body,
            started=sink._start_monotonic + 1.5,
            duration=0.0125,
        )
        sink.record_exchange(3, steps, 1, exchange, classify_status(status, error_classes))
        sink.record_failure(3, steps, 1, TransportFailure("read", "timed out \u00e9"))
        sink.close()
        emit_report(out)
        events = (out / EVENTS_FILENAME).read_bytes()
        wire = (out / WIRE_LOG_FILENAME).read_bytes()
    elapsed = exchange.started + exchange.duration - sink._start_monotonic
    line, wire_record = reference_records(
        exchange, 3, steps, 1, elapsed, error_classes, auth_header_name
    )
    assert events.startswith(line)
    failure = "Transport failure (read): read: timed out \u00e9\n\n"
    assert wire == wire_record + failure.encode("utf-8")


# --------------------------------------------------------------------------
# Reading the stream back


def test_report_files_match_the_recorded_stream(tmp_path):
    recorded_sink(tmp_path)
    elapsed = [
        f"{e['elapsed']:.6f}" for e in recorded_events(tmp_path) if e["type"] == "exchange"
    ]
    assert emit_report(tmp_path) == 2
    assert csv_rows(tmp_path / "status_timeline.csv")[1:] == [
        [elapsed[0], "0", "1", "POST /x", "201", "2xx", "valid", "1", "0", "0"],
        [elapsed[1], "1", "1", "PUT /x", "500", "5xx", "bug", "1", "0", "1"],
    ]
    assert csv_rows(tmp_path / "per_length.csv")[1:] == [["1", "3", "2", "1"]]
    summary = (tmp_path / "summary.txt").read_text().splitlines()
    assert summary[-4:] == [
        "bug buckets: 1",
        "  abc123def456 (2 instance(s))",
        "    POST /x",
        "    PUT /x",
    ]
    # Three tests ended: Valid, a bug, and a transport failure.
    assert json.loads((tmp_path / "report.json").read_text()) == {
        "strategy": "bfs",
        "max_length_reached": 1,
        "total_tests": 3,
        "status_totals": {"bug": 1, "invalid": 1, "valid": 1},
        "status_group_totals": {"2xx": 1, "5xx": 1},
        "per_length": [[1, 3, 2, 1]],
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
    sink = TelemetrySink(out_dir=tmp_path)
    run_into(sink, [404], error_classes=("404",))
    sink.close()
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
        sink = TelemetrySink(out_dir=run_dir)
        sink.record_run_start({"strategy": "bfs"})
        for test_index in range(exchanges):
            record(sink, make_exchange(), "valid", test_index=test_index)
        sink.record_length_stats(PerLengthRow(1, exchanges, exchanges, 0))
        record_bug(sink, exchanges - 1, created=True, defining=("POST /x",))
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
    sink = TelemetrySink(out_dir=blocker / "sub")
    assert sink.degraded
    record(sink, make_exchange(), "valid")  # must not raise
    sink.close()
    assert not (blocker / "sub").exists()  # nothing was recorded


def test_midstream_write_error_degrades_once(tmp_path, caplog):
    sink = TelemetrySink(out_dir=tmp_path)
    record(sink, make_exchange(), "valid")

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
        record(sink, make_exchange(), "valid", test_index=1)
        assert sink.degraded
        record(sink, make_exchange(), "valid", test_index=2)
    sink.close()
    assert [r.levelname for r in caplog.records] == ["ERROR"]
    # The record, and every report built from it, holds what came before.
    assert emit_report(tmp_path) == 1


# --------------------------------------------------------------------------
# Report files


@pytest.fixture()
def report_dir(tmp_path):
    """A run directory whose stream holds three one-exchange tests at 0.1,
    0.2 and 0.3 s, two length rows, one bucket seen twice and the run's
    end, with the report files built from it."""
    sink = TelemetrySink(out_dir=tmp_path)
    sink.record_run_start({"strategy": "bfs"})
    record(sink, exchange_at(sink, 0.1, 200), "valid", template="POST /x")
    record(sink, exchange_at(sink, 0.2, 404), "invalid", test_index=1, template="GET /x")
    record(sink, exchange_at(sink, 0.3, 500), "bug", test_index=2, length=2, step=1,
           template="PUT /x")
    sink.record_length_stats(PerLengthRow(1, 3, 2, 1))
    sink.record_length_stats(PerLengthRow(2, 8, 6, 8))
    record_bug(sink, 2, created=True)
    record_bug(sink, 2, created=False)
    sink.record_run_end("completed", 0.4)
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


def test_per_length_csv(report_dir):
    assert csv_rows(report_dir / "per_length.csv") == [
        ["length", "tests", "seqset_size", "dynamic_objects"],
        ["1", "3", "2", "1"],
        ["2", "8", "6", "8"],
    ]


def test_report_json_round_trips(report_dir):
    """report.json is the report folded from the facts the stream records."""
    report = FuzzReport("bfs")
    report.add_test([("POST /x", "2xx")], "valid", transport_failed=False)
    report.add_test([("GET /x", "4xx")], "invalid", transport_failed=False)
    report.add_test([("PUT /x", "5xx")], "bug", transport_failed=False)
    report.add_length_row(PerLengthRow(1, 3, 2, 1))
    report.add_length_row(PerLengthRow(2, 8, 6, 8))
    report.add_bucket_instance("abc123def456", ("POST /x", "PUT /x"))
    report.add_bucket_instance("abc123def456", ("POST /x", "PUT /x"))
    report.stopped_reason = "completed"
    report.elapsed_seconds = 0.4
    assert json.loads((report_dir / "report.json").read_text()) == report.to_dict()


def test_summary_mentions_the_essentials(report_dir):
    summary = (report_dir / "summary.txt").read_text()
    assert "strategy: bfs" in summary
    assert "total_tests: 3" in summary
    assert "tests by final class:\n  bug: 1\n  invalid: 1\n  valid: 1\n" in summary
    assert "bug buckets: 1" in summary
    assert "abc123def456" in summary
    assert "POST /x" in summary
