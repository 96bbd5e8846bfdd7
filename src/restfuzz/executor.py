"""HTTP/1.1 execution layer: sockets, framing, object pool, sequences.

Requests go out as raw bytes, because the whole point of a fuzzer is that
nothing between the grammar and the wire "helpfully" rewrites the message.
A SequenceExecutor's transport keeps one TCP connection across requests and
across sequences. ``send_request`` alone decides whether to keep it: only
after a 2xx HTTP/1.1 response framed by Content-Length or a final chunked
coding, with no ``Connection: close`` and no bytes left over; otherwise it
closes it, and the next request opens a new one. So each request goes out
on a fresh connection or on one whose earlier responses were all 2xx; a
target that answers 4xx/5xx without reading the request body cannot spill
into the next test. A written request is never sent twice. Responses are
parsed with the framing rules of RFC 9112 (bodiless responses,
Content-Length, chunked, connection close), whose numbers are strict: a
status code is three digits, a Content-Length ``1*DIGIT`` (repeated only
as the same value) and a chunk size ``1*HEXDIG``; anything else is a
``frame`` failure. A Transfer-Encoding overrides a Content-Length: its body
is de-chunked when its final coding is chunked and read to the close
otherwise, and a response with both headers never keeps its connection.
Responses are classified as Bug (a status that the configured error
patterns name, 5xx by default), Valid (2xx) or Invalid (everything else;
redirects are never followed). ``bug_statuses`` turns the patterns into
that set of statuses once per executor, and refuses a bad pattern: so
``restfuzz fuzz --error-status 5x`` is exit 2, and so is ``restfuzz replay``
of a run whose ``run_start`` event records one, before it connects.

Every response byte goes through one ``_Reader``, the only caller of
``recv``. ``ConnectionConfig.read_timeout`` bounds one exchange, from the
start of the request write to the last byte of the response, interim 1xx
heads and trailers included: each ``recv`` waits at most the time left, and
past the deadline the request is a ``read`` failure, so a target that drips
its reply byte by byte cannot hold a worker longer. Each request, on a kept
connection too, gets a deadline of its own. ``connect_timeout`` bounds the
connect and the TLS handshake. A head, chunk-size line or trailer line over
``_MAX_HEAD_BYTES`` (1 MiB), a body over ``_MAX_BODY_BYTES`` (64 MiB;
refused before it is read whenever a length or chunk size announces it) and
more than ``_MAX_INTERIM_RESPONSES`` interim heads are ``frame`` failures.

With ``ConnectionConfig.secure`` each connection is wrapped in TLS by a
context built once per transport, so per worker, with verification off. On a
2-vCPU VM a context takes 44-56 ms to build, a new TLS connection to a
loopback target 2.4-2.8 ms, and a plain TCP connect 0.04-0.14 ms. The
``ssl`` module is imported only by a secure transport, so a plain run never
loads it.

While a sequence runs, values extracted from 2xx responses live in a
DynamicObjectPool private to that one execution. Consumers receive values in
production order; once every value of a type has been consumed, later
consumers reuse the most recent one, which is how destroyed-object reuse
turns into an observable 4xx instead of a dead end.

The executor only runs sequences and records nothing: an execution returns
its exchanges, its final class and the transport failure or unresolvable
consumer that ended it, if any, and the engine records the finished test.
"""

from __future__ import annotations

import json
import logging
import re
import select
import socket
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Protocol, Sequence

from .grammar import ProducerSpec, RenderedRequest, ResourceType

logger = logging.getLogger(__name__)

DEFAULT_AUTH_HEADER = "PRIVATE-TOKEN"
_MAX_HEAD_BYTES = 1 << 20  # also bounds one chunk-size or trailer line
_MAX_BODY_BYTES = 1 << 26
_MAX_INTERIM_RESPONSES = 16  # 1xx heads allowed before the final response
# RFC 9112's numbers; Python's int() also takes signs, underscores and 0x.
_STATUS_CODE = re.compile(rb"[0-9]{3}")
_CONTENT_LENGTH = re.compile(r"[0-9]+")
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]+")


class ExecutorError(Exception):
    pass


class TransportFailure(ExecutorError):
    """A single request failed below HTTP: connect/write/read/framing."""

    def __init__(self, phase: str, detail: str):
        super().__init__(f"{phase}: {detail}")
        self.phase = phase


class TargetUnreachable(ExecutorError):
    """The no-op reachability probe could not open a TCP connection."""


class UnresolvableConsumer(ExecutorError):
    """The pool holds no value at all for a consumed resource type.

    With sound dependency inference this indicates a bug in the engine or
    the grammar, not in the target.
    """


class BodyParseError(ExecutorError):
    """A 2xx response body was not parseable for object extraction."""


class ResponseClass:
    VALID = "valid"
    INVALID = "invalid"
    BUG = "bug"


DEFAULT_ERROR_STATUS_CLASSES = ("5xx",)
_STATUS_PATTERN = re.compile(r"[0-9]([0-9]{2}|[xX]{2})")


def bug_statuses(patterns: Sequence[str]) -> frozenset[int]:
    """The statuses that ``patterns`` name: ``"503"`` names 503 and
    ``"5xx"`` (any case) names 500-599. A bad pattern raises ExecutorError."""
    statuses: set[int] = set()
    for p in patterns:
        if not isinstance(p, str) or not _STATUS_PATTERN.fullmatch(p):
            raise ExecutorError(f"bad status pattern {p!r} (want e.g. '5xx' or '503')")
        hundred = int(p[0]) * 100
        statuses.update(range(hundred, hundred + 100) if p[1] in "xX" else (int(p),))
    return frozenset(statuses)


def classify_status(status: int, bugs: frozenset[int]) -> str:
    """Total classification: a status in ``bugs`` first, then 2xx, then invalid."""
    if status in bugs:
        return ResponseClass.BUG
    if 200 <= status <= 299:
        return ResponseClass.VALID
    return ResponseClass.INVALID


_STATUS_GROUPS = ("1xx", "2xx", "3xx", "4xx", "5xx")


def status_class_label(status: int) -> str:
    return _STATUS_GROUPS[status // 100 - 1] if 100 <= status <= 599 else "other"


@dataclass(frozen=True)
class ConnectionConfig:
    host: str
    port: int
    secure: bool = False
    connect_timeout: float = 5.0
    read_timeout: float = 30.0


@dataclass
class AuthConfig:
    """Where the auth header comes from. Tokens never travel via argv."""

    header_name: str = DEFAULT_AUTH_HEADER
    token: str | None = None
    token_file: Path | None = None

    def current_token(self) -> str | None:
        if self.token_file is not None:
            try:
                return Path(self.token_file).read_text().strip() or None
            except OSError as exc:
                logger.warning("could not refresh auth token: %s", exc)
                return self.token
        return self.token

    def header_line(self) -> bytes | None:
        token = self.current_token()
        if token is None:
            return None
        return f"{self.header_name}: {token}\r\n".encode("utf-8")


@dataclass(slots=True)
class HttpExchange:
    """One request/response pair: the request's bytes as sent (with
    ``SocketTransport``'s auth header value redacted), and the final
    response's parsed fields, not its bytes. ``response_head`` rebuilds a
    head from them with names and values trimmed, lines without a colon and
    interim 1xx heads gone; trailers are dropped, and a chunked body is
    stored de-chunked under its unchanged Transfer-Encoding header.

    One is built per request, so it is a plain slotted record: 0.79 us to
    build on a 2-vCPU VM, against 1.77 us as a frozen dataclass. Nothing
    hashes it or changes it after construction.
    """

    request: bytes
    status: int
    reason: str
    headers: tuple[tuple[str, str], ...]
    body: bytes
    started: float  # time.monotonic() when the request began
    duration: float
    version: str = "HTTP/1.1"

    def response_head(self) -> bytes:
        """A status line and headers rebuilt from the parsed fields, latin-1
        as ``_read_head`` decoded them; not the bytes that were received."""
        lines = [f"{self.version} {self.status} {self.reason}".encode("latin-1")]
        lines += [f"{k}: {v}".encode("latin-1") for k, v in self.headers]
        return b"\r\n".join(lines) + b"\r\n\r\n"


def inject_header(request: bytes, header_line: bytes) -> bytes:
    """Insert one header line immediately before the blank line."""
    head, sep, rest = request.partition(b"\r\n\r\n")
    if not sep:
        raise ExecutorError("request has no header/body separator")
    if not header_line.endswith(b"\r\n"):
        header_line += b"\r\n"
    return head + b"\r\n" + header_line + b"\r\n" + rest


def redact_header_value(message: bytes, header_name: str) -> bytes:
    """Replace a header's value with [FILTERED] so secrets never hit disk."""
    head, sep, rest = message.partition(b"\r\n\r\n")
    needle = header_name.lower().encode("latin-1") + b":"
    if needle not in head.lower():
        return message
    lines = []
    for line in head.split(b"\r\n"):
        if line.lower().startswith(needle):
            lines.append(line.split(b":", 1)[0] + b": [FILTERED]")
        else:
            lines.append(line)
    return b"\r\n".join(lines) + sep + rest


def human_text(message: bytes, header_name: str) -> str:
    """``message`` as the human-readable traces show it: the header's value
    redacted, CRLF turned into LF, trailing newlines stripped, read as latin-1."""
    text = redact_header_value(message, header_name).replace(b"\r\n", b"\n")
    return text.rstrip(b"\n").decode("latin-1")


def target_address(conn: ConnectionConfig) -> tuple[str | bytes, int]:
    """``conn``'s (host, port) as ``getaddrinfo`` takes it. An ASCII host
    goes as the ASCII bytes the IDNA codec would make of it, so that codec
    (with ``stringprep`` and ``unicodedata``, 1.9-2.4 ms and 0.4 MB to import
    on a 2-vCPU VM) is loaded only for a host that needs it."""
    host = conn.host
    return (host.encode("ascii") if host.isascii() else host), conn.port


def probe_target(conn: ConnectionConfig) -> None:
    """No-op reachability check: open and close one TCP connection."""
    try:
        sock = socket.create_connection(target_address(conn), timeout=conn.connect_timeout)
        sock.close()
    except OSError as exc:
        raise TargetUnreachable(f"{conn.host}:{conn.port} is unreachable: {exc}") from exc


def _close(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:
        pass


class Transport(Protocol):
    """Sends one request and returns its exchange. A transport may also
    have a ``close()``, which the executor's own ``close()`` calls; whether
    a connection outlives an exchange is the transport's to decide."""

    def roundtrip(self, request: bytes) -> HttpExchange: ...


class SocketTransport:
    """Production transport: auth injection plus one connection kept
    across requests until ``close``, and with ``conn.secure`` one TLS
    context for all of its connections."""

    def __init__(self, conn: ConnectionConfig, auth: AuthConfig | None = None):
        self.conn = conn
        self.auth = auth
        self.sock: socket.socket | None = None
        self.tls = None
        if conn.secure:
            import ssl

            self.tls = ssl.create_default_context()
            self.tls.check_hostname = False
            self.tls.verify_mode = ssl.CERT_NONE

    def roundtrip(self, request: bytes) -> HttpExchange:
        """Send ``request`` with the auth header, if there is a token; the
        exchange returned holds the request with that header's value
        redacted, so the token goes on the wire and nowhere else."""
        line = self.auth.header_line() if self.auth is not None else None
        if line is None:
            return send_request(request, self)
        exchange = send_request(inject_header(request, line), self)
        exchange.request = redact_header_value(exchange.request, self.auth.header_name)
        return exchange

    def connection(self) -> socket.socket:
        """Hand over the kept socket, or a new connection when there is none
        or it went stale. A socket that is readable before the request is
        written has been closed by the server or holds bytes nobody asked for."""
        sock, self.sock = self.sock, None
        if sock is not None:
            if not select.select([sock], [], [], 0)[0]:
                return sock
            _close(sock)
        address = target_address(self.conn)
        try:
            sock = socket.create_connection(address, timeout=self.conn.connect_timeout)
        except OSError as exc:
            raise TransportFailure("connect", str(exc)) from exc
        if self.tls is not None:
            try:
                sock = self.tls.wrap_socket(sock, server_hostname=address[0])
            except OSError as exc:  # ssl.SSLError included
                _close(sock)
                raise TransportFailure("connect", f"TLS handshake failed: {exc}") from exc
        return sock

    def close(self) -> None:
        sock, self.sock = self.sock, None
        if sock is not None:
            _close(sock)


_REQUEST_CLOSE = re.compile(rb"\r\nconnection:[^\r\n]*\bclose\b", re.IGNORECASE)


def send_request(request: bytes, transport: SocketTransport) -> HttpExchange:
    """One complete HTTP/1.1 round trip on ``transport``'s connection.

    The write and the whole response share one deadline, ``read_timeout``
    seconds after the write starts. The connection goes back to the
    transport after a 2xx response that allows another request on it, and
    is closed otherwise. Nothing is retried: a request is written at most once.
    """
    started = time.monotonic()
    sock = transport.connection()
    reusable = False
    try:
        timeout = transport.conn.read_timeout
        reader = _Reader(sock, time.monotonic() + timeout)
        try:
            sock.settimeout(timeout)
            sock.sendall(request)
        except OSError as exc:
            raise TransportFailure("write", str(exc)) from exc
        method = request.split(b" ", 1)[0].decode("latin-1")
        version, status, reason, headers, body, reusable = _read_response(reader, method)
        head = request.partition(b"\r\n\r\n")[0]
        reusable = reusable and 200 <= status < 300 and not _REQUEST_CLOSE.search(head)
    finally:
        if reusable:
            transport.sock = sock
        else:
            _close(sock)
    return HttpExchange(
        request=request,
        status=status,
        reason=reason,
        headers=headers,
        body=body,
        started=started,
        duration=time.monotonic() - started,
        version=version.decode("latin-1"),
    )


class _Reader:
    """Reads one exchange's response from ``sock`` before ``deadline`` (a
    ``time.monotonic()`` reading). ``buffer`` holds what was read and not
    yet taken. ``fill`` is the only caller of ``recv``."""

    def __init__(self, sock: socket.socket, deadline: float):
        self.sock = sock
        self.buffer = bytearray()
        self.deadline = deadline

    def fill(self) -> bool:
        """Add one ``recv``'s bytes to the buffer, waiting at most the time
        left; False when the peer has closed."""
        left = self.deadline - time.monotonic()
        try:
            if left <= 0:
                raise socket.timeout
            self.sock.settimeout(left)
            chunk = self.sock.recv(65536)
        except socket.timeout as exc:
            raise TransportFailure("read", "timed out waiting for response") from exc
        except OSError as exc:
            raise TransportFailure("read", str(exc)) from exc
        self.buffer.extend(chunk)
        return bool(chunk)

    def until(self, delimiter: bytes, what: str) -> bytes:
        """The bytes before the next ``delimiter``, which is taken too; at
        most ``_MAX_HEAD_BYTES`` of them. ``what`` names them in a frame
        failure. Each ``recv`` scans only the bytes it added."""
        buffer = self.buffer
        start = 0
        while (end := buffer.find(delimiter, start)) < 0:
            if len(buffer) > _MAX_HEAD_BYTES:
                raise TransportFailure("frame", f"{what} too long")
            start = max(len(buffer) - len(delimiter) + 1, 0)
            if not self.fill():
                raise TransportFailure("frame", f"connection closed inside {what}")
        out = bytes(buffer[:end])
        del buffer[: end + len(delimiter)]
        return out

    def exact(self, count: int) -> bytes:
        """The next ``count`` bytes."""
        while len(self.buffer) < count:
            if not self.fill():
                raise TransportFailure("frame", "connection closed mid-body")
        out = bytes(self.buffer[:count])
        del self.buffer[:count]
        return out

    def to_close(self) -> bytes:
        """Everything until the peer closes, at most ``_MAX_BODY_BYTES``."""
        while len(self.buffer) <= _MAX_BODY_BYTES:
            if not self.fill():
                return self.exact(len(self.buffer))
        raise TransportFailure("frame", "response body too large")


def _read_head(reader: _Reader) -> tuple[bytes, int, str, list[tuple[str, str]]]:
    """Status line and headers of one response: (version, status, reason,
    headers). What follows the head stays in the reader's buffer."""
    lines = reader.until(b"\r\n\r\n", "response head").split(b"\r\n")
    parts = lines[0].split(None, 2)
    if len(parts) < 2 or not parts[0].startswith(b"HTTP/"):
        raise TransportFailure("frame", f"bad status line {lines[0]!r}")
    if not _STATUS_CODE.fullmatch(parts[1]):
        raise TransportFailure("frame", f"bad status code in {lines[0]!r}")
    status = int(parts[1])
    reason = parts[2].decode("latin-1") if len(parts) == 3 else ""

    headers: list[tuple[str, str]] = []
    for raw in lines[1:]:
        name, sep, value = raw.partition(b":")
        if sep:
            headers.append((name.decode("latin-1").strip(), value.decode("latin-1").strip()))
    return parts[0], status, reason, headers


def _read_response(
    reader: _Reader, method: str
) -> tuple[bytes, int, str, tuple[tuple[str, str], ...], bytes, bool]:
    """Read the final response to a ``method`` request.

    Returns (version, status, reason, headers, body, reusable);
    ``reusable`` says whether the connection may carry another request.
    Up to ``_MAX_INTERIM_RESPONSES`` interim 1xx heads other than 101 are
    skipped; one more is a frame failure.
    """
    version, status, reason, headers = _read_head(reader)
    interim = 0
    while 100 <= status < 200 and status != 101:
        interim += 1
        if interim > _MAX_INTERIM_RESPONSES:
            raise TransportFailure(
                "frame", f"more than {_MAX_INTERIM_RESPONSES} interim responses"
            )
        version, status, reason, headers = _read_head(reader)

    def field_values(name: str) -> list[str]:
        """The values of every ``name`` header, in order."""
        return [value for key, value in headers if key.lower() == name]

    def tokens(name: str) -> list[str]:
        """The elements of every ``name`` header, trimmed and lowercased, in
        order (RFC 9110 section 5.3: repeated list fields combine; empty
        elements are ignored)."""
        return [t.strip().lower() for v in field_values(name) for t in v.split(",") if t.strip()]

    reusable = version == b"HTTP/1.1" and status >= 200 and "close" not in tokens("connection")
    transfer = tokens("transfer-encoding")
    lengths = field_values("content-length")
    if transfer and lengths:
        # RFC 9112 section 6.3: Transfer-Encoding overrides Content-Length,
        # and a reply with both may be smuggling another after its body.
        reusable = False
    if method == "HEAD" or status < 200 or status in (204, 304):
        # RFC 9112 section 6.3: these responses end with their head.
        body = b""
    elif transfer[-1:] == ["chunked"]:
        chunks = bytearray()
        while True:
            size_line = reader.until(b"\r\n", "chunked framing line")
            size_text = size_line.split(b";", 1)[0].strip()
            if not _CHUNK_SIZE.fullmatch(size_text):
                raise TransportFailure("frame", f"bad chunk size {size_line!r}")
            size = int(size_text, 16)
            if size == 0:
                # consume trailer lines until the final blank
                while reader.until(b"\r\n", "chunked framing line") != b"":
                    pass
                break
            if len(chunks) + size > _MAX_BODY_BYTES:
                raise TransportFailure("frame", "response body too large")
            chunks.extend(reader.exact(size))
            if reader.exact(2) != b"\r\n":
                raise TransportFailure("frame", "chunk missing terminator")
        body = bytes(chunks)
    elif lengths and not transfer:
        # Repeats must agree; a recipient may take one of equal values.
        if len(set(lengths)) > 1 or not _CONTENT_LENGTH.fullmatch(lengths[0]):
            raise TransportFailure("frame", f"bad Content-Length {', '.join(lengths)!r}")
        # int() refuses a decimal string of over 4300 digits, leading zeros
        # included, so the digit count is bounded before the conversion.
        digits = lengths[0].lstrip("0") or "0"
        if len(digits) > len(str(_MAX_BODY_BYTES)) or (length := int(digits)) > _MAX_BODY_BYTES:
            raise TransportFailure("frame", "response body too large")
        body = reader.exact(length)
    else:
        # No framing header, or a final coding other than chunked: the body
        # ends when the server closes the connection.
        body = reader.to_close()
        reusable = False
    return version, status, reason, tuple(headers), body, reusable and not reader.buffer


# --------------------------------------------------------------------------
# Dynamic objects


def value_to_text(value) -> str:
    """Render an extracted JSON value as request text."""
    if isinstance(value, str):
        return value
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if isinstance(value, (dict, list)):
        return json.dumps(value, separators=(",", ":"))
    return str(value)


class DynamicObjectPool:
    """Values extracted during one sequence execution, FIFO per type."""

    def __init__(self, external_values: Mapping[ResourceType, str] | None = None):
        self._values: dict[ResourceType, list[object]] = {}
        self._consumed: dict[ResourceType, int] = {}
        self._external = external_values or {}

    def add(self, resource: ResourceType, value: object) -> None:
        self._values.setdefault(resource, []).append(value)

    def resolve(self, resource: ResourceType) -> object:
        """Earliest unconsumed value; after exhaustion, reuse the newest."""
        values = self._values.get(resource)
        if values:
            consumed = self._consumed.get(resource, 0)
            if consumed == len(values):
                return values[-1]
            self._consumed[resource] = consumed + 1
            return values[consumed]
        if resource in self._external:
            return self._external[resource]
        raise UnresolvableConsumer(f"no value of type {resource} was ever produced")


def extract_objects(
    exchange: HttpExchange,
    producers: Sequence[ProducerSpec],
    warned: set[tuple[str, str]] | None = None,
) -> list[tuple[ResourceType, object]]:
    """Pull produced values out of a 2xx response body.

    Raises BodyParseError when the body is not structured; a missing
    extraction path is only a warning (that producer yields nothing).
    Producers already in ``warned`` are not logged again; each one logged
    is added to it. Without ``warned`` every occurrence is logged.
    """
    if not producers:
        return []
    try:
        parsed = json.loads(exchange.body.decode("utf-8")) if exchange.body else None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise BodyParseError(f"response body is not valid JSON: {exc}") from exc

    out: list[tuple[ResourceType, object]] = []
    for spec in producers:
        node = parsed
        ok = True
        for step in spec.extraction_path:
            if isinstance(step, int) and not isinstance(step, bool):
                if isinstance(node, list) and -len(node) <= step < len(node):
                    node = node[step]
                else:
                    ok = False
                    break
            else:
                if isinstance(node, dict) and step in node:
                    node = node[step]
                else:
                    ok = False
                    break
        if ok:
            out.append((spec.resource, node))
        else:
            key = (spec.resource, repr(spec.extraction_path))
            if warned is not None:
                if key in warned:
                    continue
                warned.add(key)
            logger.warning(
                "producer %s: extraction path %r missing in response "
                "(further occurrences suppressed)",
                spec.resource,
                list(spec.extraction_path),
            )
    return out


# --------------------------------------------------------------------------
# Sequence execution


@dataclass
class ExecutionResult:
    """One sequence execution. ``final_class`` is the last executed step's
    class. A step that failed below HTTP has no exchange, and ``failure`` is
    its TransportFailure; a step with an unresolvable consumer has none
    either, but sent nothing, so it ends the sequence Invalid without a
    failure, and ``unresolved`` is the resource type nothing produced.
    """

    exchanges: list[HttpExchange]
    final_class: str
    extracted: int = 0
    failure: TransportFailure | None = None
    unresolved: ResourceType | None = None

    @property
    def steps_executed(self) -> int:
        """The steps attempted: one per exchange, and the step that ended
        the sequence without one."""
        return len(self.exchanges) + (self.failure is not None or self.unresolved is not None)


class SequenceExecutor:
    """Executes rendered request sequences against one transport, whose
    connection it closes only when it is closed itself."""

    def __init__(
        self,
        transport: Transport,
        error_classes: Sequence[str] = DEFAULT_ERROR_STATUS_CLASSES,
        external_values: Mapping[ResourceType, str] | None = None,
    ):
        self.transport = transport
        self.bug_statuses = bug_statuses(error_classes)
        self.external_values = external_values or {}
        # Producers whose missing extraction path was already logged.
        self.warned_missing_paths: set[tuple[str, str]] = set()

    def execute_sequence(self, steps: Sequence[RenderedRequest]) -> ExecutionResult:
        """Run the steps in order with a fresh pool, extracting each 2xx
        step's values by its rendering's ``producers``.

        Execution stops at the first non-2xx step; the returned class is the
        last executed step's class (an empty sequence is trivially valid).
        A transport failure is logged and returned, and the sequence ends
        Invalid.
        """
        pool = DynamicObjectPool(self.external_values)
        exchanges: list[HttpExchange] = []
        extracted = 0
        final_class = ResponseClass.VALID
        failure: TransportFailure | None = None
        unresolved: ResourceType | None = None

        for step_index, rendered in enumerate(steps):
            try:
                values: dict[ResourceType, bytes] = {}
                for resource in rendered.consumer_resources():
                    values[resource] = value_to_text(pool.resolve(resource)).encode("utf-8")
            except UnresolvableConsumer as exc:
                # Dependency checking should make this impossible; if it
                # happens anyway the run must not crash mid-campaign.
                logger.error("step %d: %s", step_index + 1, exc)
                unresolved = resource
                final_class = ResponseClass.INVALID
                break
            request = rendered.assemble(values)

            try:
                exchange = self.transport.roundtrip(request)
            except TransportFailure as exc:
                logger.warning("step %d %s failure: %s", step_index + 1, exc.phase, exc)
                failure = exc
                final_class = ResponseClass.INVALID
                break

            exchanges.append(exchange)
            final_class = classify_status(exchange.status, self.bug_statuses)
            if final_class != ResponseClass.VALID:
                break

            if rendered.producers:
                try:
                    for resource, value in extract_objects(
                        exchange, rendered.producers, self.warned_missing_paths
                    ):
                        pool.add(resource, value)
                        extracted += 1
                except BodyParseError as exc:
                    logger.warning("%s: %s", rendered.template_id, exc)

        return ExecutionResult(
            exchanges=exchanges,
            final_class=final_class,
            extracted=extracted,
            failure=failure,
            unresolved=unresolved,
        )

    def close(self) -> None:
        """Close the transport's connection, when the transport has one."""
        close = getattr(self.transport, "close", None)
        if close is not None:
            close()
