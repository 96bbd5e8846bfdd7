"""Execution-layer tests.

Framing is exercised against a scripted TCP server so each response-body
rule (bodiless, Content-Length, chunked, read-to-close) is pinned byte for
byte, and so is the choice between keeping a connection and opening a new
one; sequence semantics run against the live reference service.
"""

from __future__ import annotations

import itertools
import re
import socket
import threading
import time
from contextlib import contextmanager
from types import SimpleNamespace

import pytest
from hypothesis import example, given, strategies as st

from restfuzz.compiler import compile_grammar
from restfuzz.executor import (
    AuthConfig,
    BodyParseError,
    ConnectionConfig,
    DEFAULT_ERROR_STATUS_CLASSES,
    DynamicObjectPool,
    ExecutorError,
    HttpExchange,
    ResponseClass,
    SequenceExecutor,
    SocketTransport,
    TargetUnreachable,
    TransportFailure,
    UnresolvableConsumer,
    _MAX_HEAD_BYTES,
    _MAX_INTERIM_RESPONSES,
    _Reader,
    _read_head,
    _read_response,
    bug_statuses,
    classify_status,
    extract_objects,
    inject_header,
    probe_target,
    redact_header_value,
    send_request,
    status_class_label,
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
        bugs = bug_statuses(DEFAULT_ERROR_STATUS_CLASSES)
        for status in range(100, 600):
            label = classify_status(status, bugs)
            if 500 <= status <= 599:
                assert label == ResponseClass.BUG
            elif 200 <= status <= 299:
                assert label == ResponseClass.VALID
            else:
                assert label == ResponseClass.INVALID

    def test_redirects_are_invalid_not_followed(self):
        bugs = bug_statuses(DEFAULT_ERROR_STATUS_CLASSES)
        assert classify_status(301, bugs) == ResponseClass.INVALID
        assert classify_status(307, bugs) == ResponseClass.INVALID

    def test_exact_code_pattern(self):
        bugs = bug_statuses(("404",))
        assert bugs == {404}
        assert classify_status(404, bugs) == ResponseClass.BUG
        assert classify_status(405, bugs) == ResponseClass.INVALID
        assert classify_status(500, bugs) == ResponseClass.INVALID

    def test_class_pattern_and_mixtures(self):
        bugs = bug_statuses(("4xx", "503"))
        assert classify_status(400, bugs) == ResponseClass.BUG
        assert classify_status(503, bugs) == ResponseClass.BUG
        assert classify_status(500, bugs) == ResponseClass.INVALID

    def test_bug_patterns_take_precedence_over_valid(self):
        # A deliberately odd configuration: even 2xx can be declared a bug,
        # and the bug check runs first.
        assert classify_status(204, bug_statuses(("2xx",))) == ResponseClass.BUG

    def test_pattern_validation(self):
        assert bug_statuses(["5xx", "503", "4XX"]) == set(range(400, 600))
        assert bug_statuses(["0xx"]) == set(range(100))
        assert bug_statuses([]) == frozenset()
        # Only ASCII digits: "٥٠٣" is three Arabic-Indic digits.
        for bad in ("", "50", "5xxx", "xxx", "1234", "5x", "x5x", "5xy", "٥٠٣", 503):
            with pytest.raises(ExecutorError, match="bad status pattern"):
                bug_statuses([bad])

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
        warned = SequenceExecutor(SimpleNamespace()).warned_missing_paths
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
            return SequenceExecutor(transport)

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

    def test_a_rendering_extracts_by_its_own_producers(self):
        post = RenderedRequest(
            template_id="POST /w",
            rendering_index=0,
            parts=(b"POST /w HTTP/1.1\r\n",),
            body_start=1,
            producers=(ProducerSpec(rt("w/id"), ("id",)),),
        )
        get = RenderedRequest(
            template_id="GET /w/{id}",
            rendering_index=0,
            parts=(b"GET /w/", ConsumerSlot(rt("w/id")), b" HTTP/1.1\r\n"),
            body_start=3,
        )
        bodies = iter([b'{"id": 42}', b"{}"])
        transport = SimpleNamespace(
            roundtrip=lambda request: HttpExchange(request, 200, "OK", (), next(bodies), 0.0, 0.0)
        )
        # No grammar anywhere: the renderings are all the executor is given.
        result = SequenceExecutor(transport).execute_sequence([post, get])
        assert result.extracted == 1
        assert result.exchanges[1].request.startswith(b"GET /w/42 HTTP/1.1")

    @pytest.mark.parametrize("producers", [(), (ProducerSpec(rt("w/id"), ("id",)),)])
    def test_only_a_rendering_with_producers_parses_its_body(self, producers, caplog):
        rendered = RenderedRequest(
            template_id="GET /w",
            rendering_index=0,
            parts=(b"GET /w HTTP/1.1\r\n",),
            body_start=1,
            producers=producers,
        )
        transport = SimpleNamespace(roundtrip=lambda request: exchange_with_body(b"<html>"))
        with caplog.at_level("WARNING"):
            result = SequenceExecutor(transport).execute_sequence([rendered])
        assert result.final_class == ResponseClass.VALID
        unparsed = [r for r in caplog.records if "not valid JSON" in r.getMessage()]
        assert len(unparsed) == len(producers)

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
def scripted_server(*scripts: bytes, close_after=None, delay: float = 0.0):
    """Answer the n-th request with the n-th canned script, ``delay``
    seconds after reading the request.

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
                    time.sleep(delay)
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

    def test_negative_chunk_size_is_a_frame_failure(self):
        script = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n-2\r\nxx\r\n"
        with scripted_server(script) as (port, _):
            with pytest.raises(TransportFailure) as info:
                send_once(PLAIN_GET, ConnectionConfig("127.0.0.1", port))
        assert str(info.value) == "frame: bad chunk size b'-2'"

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
        # Bytes past ASCII in the reason and a header value come back as sent.
        script = b"HTTP/1.1 201 Cr\xe9\xe9\r\nX-Note: caf\xe9\r\nContent-Length: 5\r\n\r\nhello"
        with scripted_server(script) as (port, _):
            ex = send_once(PLAIN_GET, ConnectionConfig("127.0.0.1", port))
        assert (ex.reason, ex.headers[0]) == ("Cr\u00e9\u00e9", ("X-Note", "caf\u00e9"))
        assert ex.response_head() + ex.body == script

    def test_unending_chunk_size_line_is_a_frame_failure(self):
        # Past the head bound with no CRLF, the line is refused at once
        # rather than left to grow until the read timeout.
        script = (
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
            + b"f" * (_MAX_HEAD_BYTES + 1)
        )
        with stalling_server(script) as port:
            t0 = time.monotonic()
            with pytest.raises(TransportFailure) as info:
                send_once(PLAIN_GET, ConnectionConfig("127.0.0.1", port, read_timeout=5))
            assert time.monotonic() - t0 < 1.0
        assert info.value.phase == "frame"

    def test_endless_interim_responses_are_a_frame_failure(self):
        script = b"HTTP/1.1 100 Continue\r\n\r\n" * 10_000
        with stalling_server(script) as port:
            t0 = time.monotonic()
            with pytest.raises(TransportFailure) as info:
                send_once(PLAIN_GET, ConnectionConfig("127.0.0.1", port, read_timeout=5))
            assert time.monotonic() - t0 < 1.0
        assert info.value.phase == "frame"
        assert str(_MAX_INTERIM_RESPONSES) in str(info.value)

    @pytest.mark.parametrize("read_size", [1, 2, 3, 5])
    def test_head_split_into_small_reads_parses_as_one_read(self, read_size):
        # Each recv ends at another byte of the head, so the blank line that
        # ends it arrives split every way across two reads.
        script = (
            b"HTTP/1.1 100 Continue\r\n\r\n"
            b"HTTP/1.1 201 Created\r\nX-A:v\r\nX-B:   w  \r\nContent-Length: 2\r\n\r\nhi"
        )

        def read_heads(size):
            reader = chunked_reader(script, size)
            heads = [_read_head(reader), _read_head(reader)]
            return heads, bytes(reader.buffer) + reader.sock.rest

        whole = read_heads(len(script))
        assert whole == ([
            (b"HTTP/1.1", 100, "Continue", []),
            (b"HTTP/1.1", 201, "Created", [("X-A", "v"), ("X-B", "w"), ("Content-Length", "2")]),
        ], b"hi")
        assert read_heads(read_size) == whole


class ChunkedSocket:
    """A socket whose ``recv`` hands over ``data`` in pieces of at most
    ``sizes[0]``, ``sizes[1]``, ... bytes, starting over after the last."""

    def __init__(self, data: bytes, *sizes: int):
        self.rest, self.sizes = data, itertools.cycle(sizes)

    def recv(self, limit: int) -> bytes:
        size = next(self.sizes)
        chunk, self.rest = self.rest[:size], self.rest[size:]
        return chunk

    def settimeout(self, timeout: float) -> None:
        pass


def chunked_reader(data: bytes, *sizes: int) -> _Reader:
    """A reader over ``data`` split as ``ChunkedSocket`` splits it, with a
    deadline it never reaches."""
    return _Reader(ChunkedSocket(data, *sizes), time.monotonic() + 60)


@contextmanager
def stalling_server(script: bytes, drip: bytes = b""):
    """Answer one request with ``script``, then with ``drip`` one byte every
    0.3 s, then send nothing more until the client hangs up.
    A client that stops reading early may reset the connection under the
    write; that is expected, not an error."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def run():
        try:
            conn, _ = listener.accept()
        except OSError:
            return
        with conn:
            conn.settimeout(10)
            try:
                if _read_request(conn) is not None:
                    conn.sendall(script)
                    for byte in drip:
                        time.sleep(0.3)
                        conn.sendall(bytes([byte]))
                    while conn.recv(65536):
                        pass
            except OSError:
                pass

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[1]
    finally:
        listener.close()
        thread.join(timeout=10)


HEADER_VALUES = st.text(alphabet="abcXYZ019 ;=,/\u00e9", max_size=10)
EXTRA_HEADERS = st.lists(
    st.tuples(st.sampled_from(["X-A", "Server", "ETag"]), HEADER_VALUES), max_size=3
)
CHUNK_EXTENSIONS = st.sampled_from([b"", b";a=1", b";note", b' ; x="y"'])


def head_bytes(version: str, status: int, reason: str, headers) -> bytes:
    lines = [f"{version} {status} {reason}"] + [f"{k}: {v}" for k, v in headers]
    return "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n"


def dechunk(framed: bytes) -> bytes:
    """Plain RFC 9112 section 7.1 de-chunking of one complete chunked body."""
    body = b""
    while True:
        line, framed = framed.split(b"\r\n", 1)
        size = int(line.split(b";")[0], 16)
        if size == 0:
            return body
        body, framed = body + framed[:size], framed[size + 2 :]


@st.composite
def valid_responses(draw):
    """One valid response to GET or HEAD after up to three interim heads:
    (the bytes sent, the method, what ``_read_response`` must return)."""
    interim = draw(st.lists(st.tuples(st.sampled_from([100, 102, 103]), EXTRA_HEADERS), max_size=3))
    wire = b"".join(head_bytes("HTTP/1.1", status, "Wait", h) for status, h in interim)
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0"]))
    reason = draw(st.sampled_from(["OK", "", "Not Found", "Cr\u00e9\u00e9"]))
    headers = draw(EXTRA_HEADERS)
    reusable = version == "HTTP/1.1"
    if draw(st.booleans()):
        connection = draw(st.sampled_from(["close", "keep-alive", "Keep-Alive, Close"]))
        headers.append(("Connection", connection))
        reusable = reusable and "close" not in connection.lower()
    method, status = "GET", draw(st.sampled_from([200, 201, 404, 500]))
    body = draw(st.binary(max_size=300))
    kind = draw(st.sampled_from(["length", "chunked", "bodiless", "head", "close", "coded"]))
    if kind == "length":
        headers.append(("Content-Length", str(len(body))))
        framed = body
    elif kind == "chunked":
        headers.append(("Transfer-Encoding", "chunked"))
        framed = b""
        for chunk in draw(st.lists(st.binary(min_size=1, max_size=60), max_size=4)) + [b""]:
            size = draw(st.sampled_from(["%x", "%X", "0%x"])) % len(chunk)
            framed += size.encode() + draw(CHUNK_EXTENSIONS) + b"\r\n" + chunk
            framed += b"\r\n" if chunk else b""
        trailers = draw(EXTRA_HEADERS)
        framed += b"".join(f"{k}: {v}\r\n".encode("latin-1") for k, v in trailers) + b"\r\n"
        body = dechunk(framed)
    elif kind == "bodiless":
        status = draw(st.sampled_from([204, 304]))
        framed = body = b""
    elif kind == "head":
        method = "HEAD"
        headers.append(("Content-Length", str(len(body))))
        framed = body = b""
    else:  # the body ends when the connection does
        if kind == "coded":  # a final coding other than chunked overrides any Content-Length
            codings = draw(st.sampled_from(["gzip", "chunked, gzip", "notchunked"]))
            headers.append(("Transfer-Encoding", codings))
            if draw(st.booleans()):
                headers.append(("Content-Length", str(len(body) // 2)))
        framed = body
        reusable = False
    wire += head_bytes(version, status, reason, headers) + framed
    parsed_headers = tuple((k, v.strip()) for k, v in headers)
    return wire, method, (version.encode(), status, reason, parsed_headers, body, reusable)


@given(valid_responses(), st.lists(st.integers(1, 64), min_size=1, max_size=6))
def test_a_response_read_in_pieces_reads_as_it_does_whole(response, sizes):
    wire, method, expected = response
    assert _read_response(chunked_reader(wire, len(wire)), method) == expected
    reader = chunked_reader(wire, *sizes)
    assert _read_response(reader, method) == expected
    assert reader.buffer == reader.sock.rest == b""


class TestStrictNumbers:
    """RFC 9112's numbers are digits only: what Python's ``int`` accepts
    beyond them (a sign, ``_``, a ``0x`` prefix) is a frame failure, and so
    are repeated Content-Length headers that disagree."""

    @pytest.mark.parametrize(
        ("wire", "detail"),
        [
            (b"HTTP/1.1 200 OK\r\nContent-Length: +10\r\n\r\n0123456789",
             "bad Content-Length '+10'"),
            (b"HTTP/1.1 200 OK\r\nContent-Length: 1_0\r\n\r\n0123456789",
             "bad Content-Length '1_0'"),
            (b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\nContent-Length: 3\r\n\r\n0123456789",
             "bad Content-Length '10, 3'"),
            (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0x5\r\nhello\r\n0\r\n\r\n",
             "bad chunk size b'0x5'"),
            (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n+5\r\nhello\r\n0\r\n\r\n",
             "bad chunk size b'+5'"),
            (b"HTTP/1.1 +200 OK\r\nContent-Length: 0\r\n\r\n",
             "bad status code in b'HTTP/1.1 +200 OK'"),
            (b"HTTP/1.1 2_00 OK\r\nContent-Length: 0\r\n\r\n",
             "bad status code in b'HTTP/1.1 2_00 OK'"),
        ],
        ids=["length-sign", "length-underscore", "length-conflict", "chunk-0x", "chunk-sign",
             "status-sign", "status-underscore"],
    )
    def test_a_number_python_reads_but_rfc_9112_does_not_is_a_frame_failure(self, wire, detail):
        with pytest.raises(TransportFailure) as info:
            _read_response(chunked_reader(wire, len(wire)), "GET")
        assert (info.value.phase, str(info.value)) == ("frame", f"frame: {detail}")

    def test_a_content_length_past_the_int_digit_limit_is_a_frame_failure(self):
        # int() raises ValueError on a decimal string of over 4300 digits.
        wire = b"HTTP/1.1 200 OK\r\nContent-Length: " + b"1" * 5000 + b"\r\n\r\nhello"
        with pytest.raises(TransportFailure) as info:
            _read_response(chunked_reader(wire, len(wire)), "GET")
        assert (info.value.phase, str(info.value)) == ("frame", "frame: response body too large")

    def test_leading_zeros_past_the_int_digit_limit_still_frame_the_body(self):
        wire = b"HTTP/1.1 200 OK\r\nContent-Length: " + b"0" * 5000 + b"5\r\n\r\nhello"
        assert _read_response(chunked_reader(wire, len(wire)), "GET")[4] == b"hello"

    def test_repeated_equal_content_lengths_frame_the_body(self):
        wire = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello"
        reader = chunked_reader(wire, len(wire))
        assert _read_response(reader, "GET")[4:] == (b"hello", True)

    def test_a_close_in_any_connection_header_closes(self):
        wire = b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\nConnection: close\r\n\r\n"
        assert _read_response(chunked_reader(wire, len(wire)), "HEAD")[5] is False


class TestTransferCodings:
    """RFC 9112 section 6.3: a Transfer-Encoding overrides a Content-Length.
    A final ``chunked`` coding is de-chunked, any other final coding reads
    to the close, and a reply with both headers never keeps its connection."""

    CHUNKED = b"5\r\nhello\r\n0\r\n\r\n"

    @pytest.mark.parametrize(
        ("fields", "payload", "body", "reusable"),
        [
            (b"Transfer-Encoding: gzip\r\nContent-Length: 5\r\n", b"helloNOISE",
             b"helloNOISE", False),
            (b"Transfer-Encoding: chunked, gzip\r\n", CHUNKED, CHUNKED, False),
            (b"Transfer-Encoding: notchunked\r\n", CHUNKED, CHUNKED, False),
            (b"Transfer-Encoding: gzip, chunked\r\n", CHUNKED, b"hello", True),
            (b"Transfer-Encoding: gzip\r\nTransfer-Encoding:  Chunked ,\r\n", CHUNKED,
             b"hello", True),
            (b"Transfer-Encoding: chunked\r\nContent-Length: 3\r\n", CHUNKED, b"hello", False),
        ],
        ids=["gzip-over-length", "chunked-then-gzip", "notchunked", "gzip-then-chunked",
             "repeated-header-final-chunked", "chunked-and-length"],
    )
    def test_the_final_coding_frames_the_body(self, fields, payload, body, reusable):
        wire = b"HTTP/1.1 200 OK\r\n" + fields + b"\r\n" + payload
        assert _read_response(chunked_reader(wire, len(wire)), "GET")[4:] == (body, reusable)

    def test_a_bodiless_reply_with_both_headers_is_not_kept(self):
        wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 5\r\n\r\n"
        assert _read_response(chunked_reader(wire, len(wire)), "HEAD")[4:] == (b"", False)


class TestDeadline:
    """``read_timeout`` bounds one whole exchange, not each ``recv``."""

    @pytest.mark.parametrize(
        ("script", "drip"),
        [
            (b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n", b"0123456789"),
            (b"", b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"),
        ],
        ids=["body", "head"],
    )
    def test_a_dripped_response_is_a_read_failure_at_the_deadline(self, script, drip):
        # One byte every 0.3 s: every recv returns well inside 0.5 s.
        with stalling_server(script, drip) as port:
            t0 = time.monotonic()
            with pytest.raises(TransportFailure) as info:
                send_once(PLAIN_GET, ConnectionConfig("127.0.0.1", port, read_timeout=0.5))
            elapsed = time.monotonic() - t0
        assert info.value.phase == "read"
        assert 0.5 <= elapsed < 0.5 + 0.5

    def test_each_exchange_on_a_kept_connection_gets_a_full_deadline(self):
        # Each answer takes 70 % of the deadline, so a deadline that the
        # connection's exchanges shared would run out in the second one.
        with scripted_server(OK_HI, OK_HI, close_after=(), delay=0.7) as (port, log):
            transport = SocketTransport(ConnectionConfig("127.0.0.1", port, read_timeout=1.0))
            try:
                bodies = [transport.roundtrip(PLAIN_GET).body for _ in range(2)]
            finally:
                transport.close()
        assert bodies == [b"hi", b"hi"]
        assert log.accepts == 1


class TestBodyBound:
    """``_MAX_BODY_BYTES`` holds for every framing. It is lowered here, so
    that no test sends 64 MiB."""

    @pytest.mark.parametrize("read_size", [64, 1 << 16])
    @pytest.mark.parametrize("framing", ["content-length", "chunked", "close"])
    def test_a_body_past_the_bound_is_a_frame_failure(self, framing, read_size, monkeypatch):
        monkeypatch.setattr("restfuzz.executor._MAX_BODY_BYTES", 1000)

        def read(size: int) -> bytes:
            body = b"x" * size
            if framing == "content-length":
                wire = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % size + body
            elif framing == "chunked":
                half = size // 2
                wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                wire += b"%x\r\n%s\r\n" % (half, body[:half])
                wire += b"%x\r\n%s\r\n0\r\n\r\n" % (size - half, body[half:])
            else:
                wire = b"HTTP/1.1 200 OK\r\n\r\n" + body
            return _read_response(chunked_reader(wire, read_size), "GET")[4]

        assert read(1000) == b"x" * 1000
        with pytest.raises(TransportFailure) as info:
            read(1001)
        assert (info.value.phase, str(info.value)) == ("frame", "frame: response body too large")

    def test_a_chunk_past_the_bound_is_refused_before_its_data_is_read(self, monkeypatch):
        # The chunk announces 8 GiB, 4 MiB of it arrive, then nothing more:
        # a client that read the chunk before checking it would wait for
        # the deadline.
        monkeypatch.setattr("restfuzz.executor._MAX_BODY_BYTES", 1 << 20)
        script = (
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n200000000\r\n"
            + b"x" * (4 << 20)
        )
        with stalling_server(script) as port:
            t0 = time.monotonic()
            with pytest.raises(TransportFailure) as info:
                send_once(PLAIN_GET, ConnectionConfig("127.0.0.1", port, read_timeout=5))
            assert time.monotonic() - t0 < 1.0
        assert info.value.phase == "frame"


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
            executor = SequenceExecutor(SocketTransport(quick(port)))
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
            executor = SequenceExecutor(SocketTransport(quick(port)))
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
            executor = SequenceExecutor(SocketTransport(quick(port)))
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

    def test_only_the_responses_status_decides_reuse_not_the_bug_oracle(self):
        # Every response on the connection was 2xx, so it is kept although
        # the error classes call the first sequence a bug.
        with scripted_server(OK_HI, OK_HI, close_after=()) as (port, log):
            executor = SequenceExecutor(SocketTransport(quick(port)), error_classes=("2xx",))
            try:
                first = executor.execute_sequence([plain_step(b"/a")])
                second = executor.execute_sequence([plain_step(b"/b")])
            finally:
                executor.close()
        assert first.final_class == second.final_class == ResponseClass.BUG
        assert log.accepts == 1

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
            executor = SequenceExecutor(WaitForHangUp(quick(port)))
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
                exchange = transport.roundtrip(PLAIN_GET)
            finally:
                transport.close()
        assert captured[0].endswith(b"PRIVATE-TOKEN: hunter2\r\n\r\n")
        # The exchange handed on to be recorded holds the header, not the token.
        assert exchange.request == captured[0].replace(b"hunter2", b"[FILTERED]")

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
    # The executor decides its bug statuses once; every status it can see
    # must still get the class classify_status gives it.
    transport = StatusTransport()
    executor = SequenceExecutor(transport, error_classes=error_classes)
    bugs = bug_statuses(error_classes)
    step = plain_step(b"/")
    for status in range(1000):
        transport.status = status
        result = executor.execute_sequence([step])
        assert result.final_class == classify_status(status, bugs), status


def matches(status: int, pattern: str) -> bool:
    """Whether one status pattern names ``status``, decided digit by digit:
    each of the pattern's characters is the status's digit there or an x."""
    return all(p in (digit, "x", "X") for p, digit in zip(pattern, f"{status:03d}"))


status_patterns = st.one_of(
    st.integers(0, 999).map(lambda n: f"{n:03d}"),
    st.builds(lambda d, xx: f"{d}{xx}", st.integers(0, 9), st.sampled_from(["xx", "XX", "xX"])),
)


@given(st.lists(status_patterns, max_size=4), st.lists(st.integers(0, 999), min_size=1))
@example(["1XX", "999"], [99, 100, 199, 200, 998, 999])
@example([], [0, 200, 500])
def test_the_final_class_follows_a_per_pattern_matcher(patterns, statuses):
    transport = StatusTransport()
    executor = SequenceExecutor(transport, error_classes=patterns)
    step = plain_step(b"/")
    for status in statuses:
        transport.status = status
        if any(matches(status, p) for p in patterns):
            expected = ResponseClass.BUG
        elif 200 <= status <= 299:
            expected = ResponseClass.VALID
        else:
            expected = ResponseClass.INVALID
        assert executor.execute_sequence([step]).final_class == expected, (patterns, status)


POST = "POST /api/blog/posts"
GET_ONE = "GET /api/blog/posts/{id}"
PUT_ONE = "PUT /api/blog/posts/{id}"
DELETE_ONE = "DELETE /api/blog/posts/{id}"


@pytest.fixture()
def blog_executor(blog_conn, blog_grammar):
    made = []

    def make(error_classes=("5xx",)):
        made.append(
            SequenceExecutor(SocketTransport(blog_conn), error_classes=error_classes)
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
                external_values={rt("widgets/id"): "777"},
            )
            try:
                result = executor.execute_sequence([rendered])
            finally:
                executor.close()
        assert result.final_class == ResponseClass.VALID
        assert captured[0].startswith(b"GET /widgets/777 HTTP/1.1")
