"""Execution-layer tests.

Framing is exercised against a scripted TCP server so each response-body
rule (bodiless, Content-Length, chunked, read-to-close) is pinned byte for
byte, and so is the choice between keeping a connection and opening a new
one; sequence semantics run against the live reference service.
"""

from __future__ import annotations

import re
import socket
import threading
import time
from contextlib import contextmanager
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from restfuzz.compiler import compile_grammar
from restfuzz.executor import (
    AuthConfig,
    BodyParseError,
    ConnectionConfig,
    DynamicObjectPool,
    ExecutorError,
    HttpExchange,
    ResponseClass,
    SequenceExecutor,
    SocketTransport,
    TargetUnreachable,
    TransportFailure,
    UnresolvableConsumer,
    classify_status,
    extract_objects,
    inject_header,
    probe_target,
    redact_header_value,
    send_request,
    status_class_label,
    validate_status_patterns,
    value_to_text,
)
from restfuzz.grammar import (
    ConsumerSlot,
    FuzzingDictionary,
    ProducerSpec,
    RenderedRequest,
    RequestTemplate,
    ResourceType,
    StaticSlot,
    render_combinations,
)

rt = ResourceType


def closed_port() -> int:
    """A port that was just released, so nothing is listening on it."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def exchange_with_body(body: bytes) -> HttpExchange:
    return HttpExchange(
        request=b"GET / HTTP/1.1\r\n\r\n",
        status=200,
        reason="OK",
        headers=(("Content-Type", "application/json"),),
        body=body,
        started=0.0,
        duration=0.0,
    )


# --------------------------------------------------------------------------
# Classification


class TestClassification:
    def test_defaults_are_total_over_all_statuses(self):
        for status in range(100, 600):
            label = classify_status(status)
            if 500 <= status <= 599:
                assert label == ResponseClass.BUG
            elif 200 <= status <= 299:
                assert label == ResponseClass.VALID
            else:
                assert label == ResponseClass.INVALID

    def test_redirects_are_invalid_not_followed(self):
        assert classify_status(301) == ResponseClass.INVALID
        assert classify_status(307) == ResponseClass.INVALID

    def test_exact_code_pattern(self):
        assert classify_status(404, ("404",)) == ResponseClass.BUG
        assert classify_status(405, ("404",)) == ResponseClass.INVALID
        assert classify_status(500, ("404",)) == ResponseClass.INVALID

    def test_class_pattern_and_mixtures(self):
        classes = ("4xx", "503")
        assert classify_status(400, classes) == ResponseClass.BUG
        assert classify_status(503, classes) == ResponseClass.BUG
        assert classify_status(500, classes) == ResponseClass.INVALID

    def test_bug_patterns_take_precedence_over_valid(self):
        # A deliberately odd configuration: even 2xx can be declared a bug,
        # and the bug check runs first.
        assert classify_status(204, ("2xx",)) == ResponseClass.BUG

    def test_pattern_validation(self):
        assert validate_status_patterns(["5xx", "503", "4XX"]) == ("5xx", "503", "4XX")
        for bad in ("", "50", "5xxx", "xxx", "1234", "5x"):
            with pytest.raises(ExecutorError):
                validate_status_patterns([bad])

    def test_status_class_label(self):
        assert status_class_label(204) == "2xx"
        assert status_class_label(599) == "5xx"
        assert status_class_label(99) == "other"
        assert status_class_label(600) == "other"


# --------------------------------------------------------------------------
# Header surgery


class TestHeaders:
    def test_inject_header_lands_immediately_before_blank_line(self):
        request = b"GET / HTTP/1.1\r\nHost: h\r\n\r\nBODY"
        out = inject_header(request, b"PRIVATE-TOKEN: tok\r\n")
        assert out == b"GET / HTTP/1.1\r\nHost: h\r\nPRIVATE-TOKEN: tok\r\n\r\nBODY"

    def test_inject_header_appends_crlf_when_missing(self):
        out = inject_header(b"GET / HTTP/1.1\r\n\r\n", b"X: 1")
        assert out == b"GET / HTTP/1.1\r\nX: 1\r\n\r\n"

    def test_inject_header_requires_separator(self):
        with pytest.raises(ExecutorError):
            inject_header(b"GET / HTTP/1.1\r\n", b"X: 1\r\n")

    def test_redaction_hides_value_case_insensitively(self):
        msg = b"GET / HTTP/1.1\r\nprivate-token: s3cret\r\nHost: h\r\n\r\ns3cret-in-body"
        out = redact_header_value(msg, "PRIVATE-TOKEN")
        assert b"s3cret\r\n" not in out
        assert b"private-token: [FILTERED]\r\n" in out
        assert out.endswith(b"\r\n\r\ns3cret-in-body")  # body is left alone

    def test_redaction_is_a_noop_without_the_header(self):
        msg = b"GET / HTTP/1.1\r\nHost: h\r\n\r\n"
        assert redact_header_value(msg, "PRIVATE-TOKEN") == msg


class TestValueText:
    @pytest.mark.parametrize(
        ("value", "expect"),
        [
            ("plain", "plain"),
            (True, "true"),
            (False, "false"),
            (None, "null"),
            (7, "7"),
            (2.5, "2.5"),
            ({"a": 1}, '{"a":1}'),
            ([1, "x"], '[1,"x"]'),
            ({"k": [True, None]}, '{"k":[true,null]}'),
        ],
    )
    def test_rendering(self, value, expect):
        assert value_to_text(value) == expect


# --------------------------------------------------------------------------
# Dynamic object pool


class TestPool:
    def test_fifo_then_sticky_reuse(self):
        pool = DynamicObjectPool()
        for value in (10, 20, 30):
            pool.add(rt("posts/id"), value)
        assert pool.resolve(rt("posts/id")) == 10
        assert pool.resolve(rt("posts/id")) == 20
        assert pool.resolve(rt("posts/id")) == 30
        # Exhausted: the newest value is reused without being re-marked.
        assert pool.resolve(rt("posts/id")) == 30
        assert pool.resolve(rt("posts/id")) == 30

    def test_types_do_not_interfere(self):
        pool = DynamicObjectPool()
        pool.add(rt("a/id"), 1)
        pool.add(rt("b/id"), 2)
        assert pool.resolve(rt("b/id")) == 2
        assert pool.resolve(rt("a/id")) == 1
        # Each type holds exactly its own one value: both are exhausted now
        # and repeat it, and a type nobody added holds nothing.
        assert pool.resolve(rt("a/id")) == 1
        assert pool.resolve(rt("b/id")) == 2
        with pytest.raises(UnresolvableConsumer):
            pool.resolve(rt("c/id"))

    def test_external_value_is_a_fallback_only(self):
        pool = DynamicObjectPool({rt("posts/id"): "fromconfig"})
        assert pool.resolve(rt("posts/id")) == "fromconfig"
        pool.add(rt("posts/id"), 41)
        assert pool.resolve(rt("posts/id")) == 41

    def test_empty_pool_raises(self):
        with pytest.raises(UnresolvableConsumer):
            DynamicObjectPool().resolve(rt("posts/id"))

    @given(
        values=st.lists(st.integers(), min_size=1, max_size=12),
        resolves=st.integers(min_value=1, max_value=20),
    )
    def test_resolution_order_matches_production_order(self, values, resolves):
        pool = DynamicObjectPool()
        for v in values:
            pool.add(rt("t/id"), v)
        got = [pool.resolve(rt("t/id")) for _ in range(resolves)]
        expected = [values[i] if i < len(values) else values[-1] for i in range(resolves)]
        assert got == expected


# --------------------------------------------------------------------------
# Object extraction


class TestExtraction:
    def test_extracts_named_fields(self):
        specs = (
            ProducerSpec(rt("posts/id"), ("id",)),
            ProducerSpec(rt("posts/body"), ("body",)),
        )
        got = extract_objects(exchange_with_body(b'{"id": 3, "body": "x"}'), specs)
        assert got == [(rt("posts/id"), 3), (rt("posts/body"), "x")]

    def test_integer_steps_index_arrays(self):
        specs = (
            ProducerSpec(rt("posts/id"), (0, "id")),
            ProducerSpec(rt("posts/last"), (-1, "id")),
        )
        body = b'[{"id": 1}, {"id": 2}, {"id": 9}]'
        got = extract_objects(exchange_with_body(body), specs)
        assert got == [(rt("posts/id"), 1), (rt("posts/last"), 9)]

    def test_missing_path_warns_once_and_yields_nothing(self, caplog):
        warned = SequenceExecutor(SimpleNamespace(), {}.get).warned_missing_paths
        spec = (ProducerSpec(rt("posts/gone"), ("nope",)),)
        with caplog.at_level("WARNING"):
            assert extract_objects(exchange_with_body(b"{}"), spec, warned) == []
            assert extract_objects(exchange_with_body(b"{}"), spec, warned) == []
        hits = [r for r in caplog.records if "missing in response" in r.message]
        assert len(hits) == 1

    def test_missing_path_warnings_belong_to_one_executor(self, caplog):
        template = RequestTemplate(
            id="GET /t",
            method="GET",
            slots=(StaticSlot(b"GET /t HTTP/1.1\r\n"),),
            producers=(ProducerSpec(rt("posts/gone"), ("nope",)),),
        )
        rendered = render_combinations(template, FuzzingDictionary.default())[0]
        transport = SimpleNamespace(roundtrip=lambda request: exchange_with_body(b"{}"))

        def executor():
            return SequenceExecutor(transport, {template.id: template}.__getitem__)

        with caplog.at_level("WARNING"):
            first = executor()
            first.execute_sequence([rendered])
            first.execute_sequence([rendered])
            executor().execute_sequence([rendered])
            extract_objects(exchange_with_body(b"{}"), template.producers)
            extract_objects(exchange_with_body(b"{}"), template.producers)
        hits = [r for r in caplog.records if "missing in response" in r.message]
        # Once per executor, nothing carried over between them; without a
        # set every occurrence is logged.
        assert len(hits) == 4

    def test_unstructured_body_raises(self):
        spec = (ProducerSpec(rt("posts/id"), ("id",)),)
        with pytest.raises(BodyParseError):
            extract_objects(exchange_with_body(b"<html>oops</html>"), spec)

    def test_no_producers_means_no_parsing(self):
        # Bodies are only parsed when something will be extracted from them.
        assert extract_objects(exchange_with_body(b"<html>oops</html>"), ()) == []

    def test_empty_body_is_just_a_missing_path(self):
        spec = (ProducerSpec(rt("posts/id"), ("id",)),)
        assert extract_objects(exchange_with_body(b""), spec) == []


# --------------------------------------------------------------------------
# Wire framing, against a scripted server


class ServerLog(list):
    """The requests a scripted server received, in order.

    ``accepts`` counts the connections it accepted; ``hung_up`` is set each
    time it closes a connection of its own accord.
    """

    def __init__(self):
        super().__init__()
        self.accepts = 0
        self.hung_up = threading.Event()


def _read_request(conn: socket.socket) -> bytes | None:
    """One request (head plus Content-Length body), or None when the client
    closed the connection before sending anything."""
    data = bytearray()
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(65536)
        if not chunk:
            if not data:
                return None
            break
        data.extend(chunk)
    head, _, rest = bytes(data).partition(b"\r\n\r\n")
    match = re.search(rb"content-length:\s*(\d+)", head, re.I)
    want = int(match.group(1)) if match else 0
    body = bytearray(rest)
    while len(body) < want:
        chunk = conn.recv(65536)
        if not chunk:
            break
        body.extend(chunk)
    return head + b"\r\n\r\n" + bytes(body)


@contextmanager
def scripted_server(*scripts: bytes, close_after=None):
    """Answer the n-th request with the n-th canned script.

    Requests are read from one connection until the client closes it, then
    from the next one accepted. The server closes a connection itself after
    the scripts whose indices are in ``close_after`` (default: the last).
    """
    if close_after is None:
        close_after = {len(scripts) - 1}
    log = ServerLog()
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]

    def run():
        served = 0
        while served < len(scripts):
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            log.accepts += 1
            conn.settimeout(5)
            hang_up = False
            try:
                while not hang_up:
                    request = _read_request(conn)
                    if request is None:
                        break
                    log.append(request)
                    if served == len(scripts):
                        break  # nothing left to answer with
                    conn.sendall(scripts[served])
                    hang_up = served in close_after
                    served += 1
            finally:
                conn.close()
                if hang_up:
                    log.hung_up.set()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        yield port, log
    finally:
        try:
            listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        listener.close()
        thread.join(timeout=5)


PLAIN_GET = b"GET / HTTP/1.1\r\nHost: t\r\n\r\n"


def send_once(request: bytes, conn: ConnectionConfig) -> HttpExchange:
    """One round trip on a transport of its own, closed afterwards."""
    transport = SocketTransport(conn)
    try:
        return send_request(request, transport)
    finally:
        transport.close()


class TestFraming:
    def test_content_length_takes_exactly_that_many_bytes(self):
        script = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhelloNOISE"
        with scripted_server(script) as (port, _):
            ex = send_once(PLAIN_GET, ConnectionConfig("127.0.0.1", port))
        assert (ex.status, ex.reason, ex.body) == (200, "OK", b"hello")

    def test_chunked_reassembly_with_extension_and_trailer(self):
        script = (
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"5;note=1\r\nhello\r\n6\r\n world\r\n0\r\nX-Trailer: yes\r\n\r\n"
        )
        with scripted_server(script) as (port, _):
            ex = send_once(PLAIN_GET, ConnectionConfig("127.0.0.1", port))
        assert ex.body == b"hello world"

    def test_no_framing_header_reads_until_close(self):
        script = b"HTTP/1.1 200 OK\r\nX-Note: stream\r\n\r\neverything until FIN"
        with scripted_server(script) as (port, _):
            ex = send_once(PLAIN_GET, ConnectionConfig("127.0.0.1", port))
        assert ex.body == b"everything until FIN"

    def test_missing_reason_phrase_is_tolerated(self):
        script = b"HTTP/1.1 204\r\nContent-Length: 0\r\n\r\n"
        with scripted_server(script) as (port, _):
            ex = send_once(PLAIN_GET, ConnectionConfig("127.0.0.1", port))
        assert (ex.status, ex.reason, ex.body) == (204, "", b"")

    def test_non_http_status_line_is_a_frame_failure(self):
        with scripted_server(b"SMTP ready\r\n\r\n") as (port, _):
            with pytest.raises(TransportFailure) as info:
                send_once(PLAIN_GET, ConnectionConfig("127.0.0.1", port))
        assert info.value.phase == "frame"

    def test_close_before_head_is_a_frame_failure(self):
        with scripted_server(b"") as (port, _):
            with pytest.raises(TransportFailure) as info:
                send_once(PLAIN_GET, ConnectionConfig("127.0.0.1", port))
        assert info.value.phase == "frame"

    def test_garbage_chunk_size_is_a_frame_failure(self):
        script = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n"
        with scripted_server(script) as (port, _):
            with pytest.raises(TransportFailure):
                send_once(PLAIN_GET, ConnectionConfig("127.0.0.1", port))

    def test_unparseable_content_length_is_a_frame_failure(self):
        script = b"HTTP/1.1 200 OK\r\nContent-Length: lots\r\n\r\n"
        with scripted_server(script) as (port, _):
            with pytest.raises(TransportFailure):
                send_once(PLAIN_GET, ConnectionConfig("127.0.0.1", port))

    def test_absurd_content_length_is_rejected_before_reading(self):
        script = b"HTTP/1.1 200 OK\r\nContent-Length: 104857600\r\n\r\n"
        with scripted_server(script) as (port, _):
            with pytest.raises(TransportFailure):
                send_once(PLAIN_GET, ConnectionConfig("127.0.0.1", port))

    def test_connect_refused_is_a_connect_failure(self):
        with pytest.raises(TransportFailure) as info:
            send_once(PLAIN_GET, ConnectionConfig("127.0.0.1", closed_port(), connect_timeout=1.0))
        assert info.value.phase == "connect"


    def test_head_response_has_no_body_whatever_its_content_length(self):
        # The server keeps the connection open: a client that waited for
        # the 42 announced bytes would hang until its read timeout.
        script = b"HTTP/1.1 200 OK\r\nContent-Length: 42\r\n\r\n"
        with scripted_server(script, close_after=()) as (port, _):
            t0 = time.monotonic()
            ex = send_once(b"HEAD / HTTP/1.1\r\nHost: t\r\n\r\n", ConnectionConfig("127.0.0.1", port))
            assert time.monotonic() - t0 < 1.0
        assert (ex.status, ex.body, ex.headers) == (200, b"", (("Content-Length", "42"),))

    def test_bare_204_ends_with_its_head(self):
        script = b"HTTP/1.1 204 No Content\r\n\r\n"
        with scripted_server(script, close_after=()) as (port, _):
            t0 = time.monotonic()
            ex = send_once(b"DELETE /x HTTP/1.1\r\nHost: t\r\n\r\n", ConnectionConfig("127.0.0.1", port))
            assert time.monotonic() - t0 < 1.0
        assert (ex.status, ex.body) == (204, b"")

    def test_interim_responses_are_skipped(self):
        script = (
            b"HTTP/1.1 100 Continue\r\n\r\n"
            b"HTTP/1.1 103 Early Hints\r\nLink: </s.css>; rel=preload\r\n\r\n"
            b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello"
        )
        with scripted_server(script) as (port, _):
            ex = send_once(PLAIN_GET, ConnectionConfig("127.0.0.1", port))
        assert (ex.status, ex.reason, ex.body) == (200, "OK", b"hello")
        assert ex.headers == (("Content-Length", "5"),)

    def test_status_line_version_is_recorded_as_received(self):
        script = b"HTTP/1.0 200 OK\r\nContent-Length: 5\r\n\r\nhello"
        with scripted_server(script) as (port, _):
            ex = send_once(PLAIN_GET, ConnectionConfig("127.0.0.1", port))
        assert ex.version == "HTTP/1.0"
        assert ex.response_head() + ex.body == script


# --------------------------------------------------------------------------
# Connection reuse


def response(status: str, body: bytes = b"", extra: bytes = b"") -> bytes:
    head = b"HTTP/1.1 " + status.encode() + b"\r\n" + extra
    return head + b"Content-Length: %d\r\n\r\n" % len(body) + body


OK_HI = response("200 OK", b"hi")


def quick(port: int) -> ConnectionConfig:
    return ConnectionConfig("127.0.0.1", port, connect_timeout=2.0, read_timeout=5.0)


def plain_step(path: bytes) -> RenderedRequest:
    return RenderedRequest(
        template_id="GET " + path.decode(),
        rendering_index=0,
        parts=(b"GET " + path + b" HTTP/1.1\r\nHost: t\r\n",),
        body_start=1,
    )


class TestKeepAlive:
    def test_blog_sequence_runs_on_one_connection(self, blog_model, dictionary):
        grammar = compile_grammar(blog_model, host="t")
        scripts = (
            response("201 Created", b'{"body": "x", "id": 7}'),
            response("200 OK", b'{"body": "x", "checksum": "c0ffee", "id": 7}'),
            response("500 Internal Server Error", b'{"error": "internal server error"}'),
        )
        with scripted_server(*scripts, close_after=()) as (port, log):
            executor = SequenceExecutor(SocketTransport(quick(port)), grammar.template_by_id)
            result = executor.execute_sequence([
                rendering_of(grammar, POST, dictionary),
                rendering_of(grammar, GET_ONE, dictionary),
                rendering_of(grammar, PUT_ONE, dictionary),
            ])
        assert [e.status for e in result.exchanges] == [201, 200, 500]
        assert log.accepts == 1
        assert len(log) == 3
        assert log[1].startswith(b"GET /api/blog/posts/7 HTTP/1.1")
        assert b"c0ffee" in log[2]

    def test_all_2xx_sequences_share_one_connection(self):
        with scripted_server(OK_HI, OK_HI, OK_HI, close_after=()) as (port, log):
            executor = SequenceExecutor(
                SocketTransport(quick(port)), lambda tid: SimpleNamespace(producers=())
            )
            try:
                first = executor.execute_sequence([plain_step(b"/a"), plain_step(b"/b")])
                second = executor.execute_sequence([plain_step(b"/c")])
            finally:
                executor.close()
        assert first.final_class == second.final_class == ResponseClass.VALID
        assert log.accepts == 1
        assert [r.split(b" ")[1] for r in log] == [b"/a", b"/b", b"/c"]

    @pytest.mark.parametrize(
        "final",
        [
            response("404 Not Found", b"gone"),
            response("500 Internal Server Error", b"oops"),
            b"SMTP ready\r\n\r\n",
        ],
        ids=["404", "500", "transport-failure"],
    )
    def test_sequence_not_ending_2xx_closes_its_connection(self, final):
        # The server would keep the connection: only the client closes it.
        with scripted_server(OK_HI, final, OK_HI, close_after=()) as (port, log):
            executor = SequenceExecutor(
                SocketTransport(quick(port)), lambda tid: SimpleNamespace(producers=())
            )
            try:
                first = executor.execute_sequence([plain_step(b"/a"), plain_step(b"/b")])
                assert executor.transport.sock is None
                second = executor.execute_sequence([plain_step(b"/c")])
            finally:
                executor.close()
        assert first.final_class != ResponseClass.VALID
        assert second.final_class == ResponseClass.VALID
        assert log.accepts == 2
        assert [r.split(b" ")[1] for r in log] == [b"/a", b"/b", b"/c"]

    def test_sequence_that_raises_closes_its_connection(self):
        class Explodes:
            closes = 0

            def roundtrip(self, request):
                raise RuntimeError("boom")

            def close(self):
                self.closes += 1

        transport = Explodes()
        executor = SequenceExecutor(transport, lambda tid: SimpleNamespace(producers=()))
        with pytest.raises(RuntimeError, match="boom"):
            executor.execute_sequence([plain_step(b"/a")])
        assert transport.closes == 1

    @pytest.mark.parametrize(
        ("first", "close_after"),
        [
            (response("200 OK", b"hello", b"Connection: close\r\n"), ()),
            (b"HTTP/1.1 200 OK\r\n\r\nhello", {0}),
            (b"HTTP/1.0 200 OK\r\nContent-Length: 5\r\n\r\nhello", ()),
            (b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhelloNOISE", ()),
        ],
        ids=["connection-close", "close-delimited", "http-1.0", "trailing-bytes"],
    )
    def test_response_that_forbids_reuse_forces_a_new_connection(self, first, close_after):
        with scripted_server(first, OK_HI, close_after=close_after) as (port, log):
            transport = SocketTransport(quick(port))
            try:
                bodies = [transport.roundtrip(PLAIN_GET).body]
                # Dropped on reading the response, not later found stale.
                assert transport.sock is None
                bodies.append(transport.roundtrip(PLAIN_GET).body)
            finally:
                transport.close()
        assert bodies == [b"hello", b"hi"]
        assert log.accepts == 2
        assert len(log) == 2

    def test_kept_connection_closed_while_idle_is_replaced(self):
        class WaitForHangUp(SocketTransport):
            """Returns each exchange only once the server has hung up."""

            def roundtrip(self, request):
                exchange = super().roundtrip(request)
                assert log.hung_up.wait(5)
                return exchange

        with scripted_server(OK_HI, OK_HI, close_after={0}) as (port, log):
            executor = SequenceExecutor(
                WaitForHangUp(quick(port)), lambda tid: SimpleNamespace(producers=())
            )
            try:
                result = executor.execute_sequence([plain_step(b"/a"), plain_step(b"/b")])
            finally:
                executor.close()
        assert result.final_class == ResponseClass.VALID
        assert [e.status for e in result.exchanges] == [200, 200]
        assert log.accepts == 2
        # The second request went out once, on the new connection.
        assert [r.split(b" ")[1] for r in log] == [b"/a", b"/b"]

    def test_request_asking_for_close_is_not_followed_on_its_connection(self):
        closing = b"GET / HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        with scripted_server(OK_HI, OK_HI, close_after=()) as (port, log):
            transport = SocketTransport(quick(port))
            try:
                transport.roundtrip(closing)
                transport.roundtrip(PLAIN_GET)
            finally:
                transport.close()
        assert log.accepts == 2


# --------------------------------------------------------------------------
# Auth and probing


class TestAuth:
    def test_transport_injects_token_before_blank_line(self):
        script = b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"
        with scripted_server(script) as (port, captured):
            transport = SocketTransport(
                ConnectionConfig("127.0.0.1", port),
                AuthConfig(token="hunter2"),
            )
            try:
                transport.roundtrip(PLAIN_GET)
            finally:
                transport.close()
        assert captured[0].endswith(b"PRIVATE-TOKEN: hunter2\r\n\r\n")

    def test_token_file_is_reread_each_request(self, tmp_path):
        token_file = tmp_path / "token"
        token_file.write_text("first\n")
        auth = AuthConfig(header_name="X-Auth", token_file=token_file)
        script = b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"

        def roundtrip_once(port: int) -> None:
            transport = SocketTransport(ConnectionConfig("127.0.0.1", port), auth)
            try:
                transport.roundtrip(PLAIN_GET)
            finally:
                transport.close()

        with scripted_server(script) as (port, captured):
            roundtrip_once(port)
        assert b"X-Auth: first\r\n" in captured[0]

        token_file.write_text("second\n")
        with scripted_server(script) as (port, captured):
            roundtrip_once(port)
        assert b"X-Auth: second\r\n" in captured[0]

    def test_no_token_means_no_header(self):
        assert AuthConfig().header_line() is None

    def test_unreadable_token_file_falls_back_to_static_token(self, tmp_path):
        auth = AuthConfig(token="fallback", token_file=tmp_path / "gone")
        assert auth.current_token() == "fallback"


class TestProbe:
    def test_probe_passes_on_live_server(self, blog_conn):
        probe_target(blog_conn)  # must not raise

    def test_probe_raises_on_dead_port(self):
        with pytest.raises(TargetUnreachable):
            probe_target(ConnectionConfig("127.0.0.1", closed_port(), connect_timeout=1.0))


# --------------------------------------------------------------------------
# Sequence execution against the live service


def rendering_of(grammar, template_id, dictionary, index=0):
    template = grammar.template_by_id(template_id)
    return render_combinations(template, dictionary, cap=index + 1)[index]


class StatusTransport:
    """Answers every request with the status it is set to."""

    status = 200

    def roundtrip(self, request):
        return HttpExchange(request, self.status, "", (), b"", 0.0, 0.0)


@pytest.mark.parametrize(
    "error_classes",
    [("5xx",), ("404",), ("4xx", "503"), ("2xx",), ("1XX", "999"), ()],
    ids=lambda c: ",".join(c) or "none",
)
def test_memoized_status_class_matches_classify_status(error_classes):
    transport = StatusTransport()
    executor = SequenceExecutor(
        transport, lambda tid: SimpleNamespace(producers=()), error_classes=error_classes
    )
    step = plain_step(b"/")
    for _ in range(2):  # the first pass fills the memo, the second reads it
        for status in range(1000):
            transport.status = status
            result = executor.execute_sequence([step])
            assert result.final_class == classify_status(status, error_classes), status


POST = "POST /api/blog/posts"
GET_ONE = "GET /api/blog/posts/{id}"
PUT_ONE = "PUT /api/blog/posts/{id}"
DELETE_ONE = "DELETE /api/blog/posts/{id}"


@pytest.fixture()
def blog_executor(blog_conn, blog_grammar):
    made = []

    def make(error_classes=("5xx",)):
        made.append(
            SequenceExecutor(
                SocketTransport(blog_conn),
                blog_grammar.template_by_id,
                error_classes=error_classes,
            )
        )
        return made[-1]

    yield make
    for executor in made:
        executor.close()


class TestSequenceExecution:
    def test_empty_sequence_is_trivially_valid(self, blog_executor):
        result = blog_executor().execute_sequence([])
        assert result.final_class == ResponseClass.VALID
        assert result.exchanges == []
        assert result.steps_executed == 0

    def test_create_then_fetch_chains_the_id(self, blog_grammar, dictionary, blog_executor):
        steps = [
            rendering_of(blog_grammar, POST, dictionary),
            rendering_of(blog_grammar, GET_ONE, dictionary),
        ]
        result = blog_executor().execute_sequence(steps)
        assert result.final_class == ResponseClass.VALID
        assert [e.status for e in result.exchanges] == [201, 200]
        # The GET's request line carries the id the POST produced.
        assert result.exchanges[1].request.startswith(b"GET /api/blog/posts/1 HTTP/1.1")
        # POST yields the id; the fetch yields the checksum. Fields the
        # client itself sent are not treated as produced.
        assert result.extracted == 2

    def test_destroyed_object_reuse_is_an_observable_404(self, blog_grammar, dictionary, blog_executor):
        steps = [
            rendering_of(blog_grammar, POST, dictionary),
            rendering_of(blog_grammar, DELETE_ONE, dictionary),
            rendering_of(blog_grammar, GET_ONE, dictionary),
        ]
        result = blog_executor().execute_sequence(steps)
        assert [e.status for e in result.exchanges] == [201, 200, 404]
        assert result.final_class == ResponseClass.INVALID
        assert result.steps_executed == 3

    def test_planted_defect_chain_classifies_as_bug(self, blog_grammar, dictionary, blog_executor):
        steps = [
            rendering_of(blog_grammar, POST, dictionary),
            rendering_of(blog_grammar, GET_ONE, dictionary),
            rendering_of(blog_grammar, PUT_ONE, dictionary),
        ]
        result = blog_executor().execute_sequence(steps)
        assert [e.status for e in result.exchanges] == [201, 200, 500]
        assert result.final_class == ResponseClass.BUG

    def test_execution_stops_at_first_non_valid_step(
        self, blog_grammar, dictionary, blog_executor, caplog
    ):
        # PUT straight away: its consumers resolve to nothing -> the
        # executor logs the engine-level fault without crashing. Nothing
        # was sent, so it is not a transport failure.
        steps = [
            rendering_of(blog_grammar, PUT_ONE, dictionary),
            rendering_of(blog_grammar, POST, dictionary),
        ]
        with caplog.at_level("ERROR", logger="restfuzz.executor"):
            result = blog_executor().execute_sequence(steps)
        assert result.final_class == ResponseClass.INVALID
        assert result.exchanges == []
        assert result.steps_executed == 1
        assert result.failure is None
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].startswith("step 1: "), errors

    def test_custom_error_classes_rescope_the_bug_oracle(self, blog_grammar, dictionary, blog_executor):
        steps = [
            rendering_of(blog_grammar, POST, dictionary),
            rendering_of(blog_grammar, DELETE_ONE, dictionary),
            rendering_of(blog_grammar, GET_ONE, dictionary),
        ]
        result = blog_executor(error_classes=("404",)).execute_sequence(steps)
        assert result.final_class == ResponseClass.BUG

    def test_external_values_satisfy_foreign_consumers(self):
        rendered = RenderedRequest(
            template_id="GET /widgets/{id}",
            rendering_index=0,
            parts=(
                b"GET /widgets/",
                ConsumerSlot(rt("widgets/id")),
                b" HTTP/1.1\r\nHost: t\r\n",
            ),
            body_start=3,
        )
        script = b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"
        with scripted_server(script) as (port, captured):
            executor = SequenceExecutor(
                SocketTransport(ConnectionConfig("127.0.0.1", port)),
                lambda tid: SimpleNamespace(producers=()),
                external_values={rt("widgets/id"): "777"},
            )
            try:
                result = executor.execute_sequence([rendered])
            finally:
                executor.close()
        assert result.final_class == ResponseClass.VALID
        assert captured[0].startswith(b"GET /widgets/777 HTTP/1.1")
