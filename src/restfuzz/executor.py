"""HTTP/1.1 execution layer: sockets, framing, object pool, sequences.

Requests go out as raw bytes, because the whole point of a fuzzer is that
nothing between the grammar and the wire "helpfully" rewrites the message.
A SequenceExecutor's transport keeps one TCP connection across requests and
across sequences: it is kept after an HTTP/1.1 response framed by
Content-Length or chunked encoding, with no ``Connection: close`` and no
bytes left over, and replaced by a new one otherwise. The executor closes it
after every sequence whose final class is not Valid, so each request goes
out on a fresh connection or on one whose earlier responses were all 2xx; a
target that answers 4xx/5xx without reading the request body cannot spill
into the next test. A written request is never sent twice. Responses are
parsed with the framing rules of RFC 9112 (bodiless responses,
Content-Length, chunked, connection close) and classified as Valid (2xx),
Bug (matches the configured error classes, 5xx by default) or Invalid
(everything else; redirects are never followed).

With ``ConnectionConfig.secure`` each connection is wrapped in TLS by a
context built once per transport, so per worker, with verification off. On a
2-vCPU VM a context takes 44-56 ms to build, a new TLS connection to a
loopback target 2.4-2.8 ms, and a plain TCP connect 0.04-0.14 ms.

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

import functools
import json
import logging
import re
import select
import socket
import ssl
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Protocol, Sequence

from .grammar import ProducerSpec, RenderedRequest, RequestTemplate, ResourceType

logger = logging.getLogger(__name__)

DEFAULT_AUTH_HEADER = "PRIVATE-TOKEN"
_MAX_HEAD_BYTES = 1 << 20
_MAX_BODY_BYTES = 1 << 26


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


def _match_status(status: int, pattern: str) -> bool:
    if pattern.isdigit():
        return status == int(pattern)
    return len(pattern) == 3 and str(status // 100) == pattern[0] and pattern[1:].lower() == "xx"


def validate_status_patterns(patterns: Sequence[str]) -> tuple[str, ...]:
    for p in patterns:
        ok = (p.isdigit() and len(p) == 3) or (
            len(p) == 3 and p[0].isdigit() and p[1:].lower() == "xx"
        )
        if not ok:
            raise ExecutorError(f"bad status pattern {p!r} (want e.g. '5xx' or '503')")
    return tuple(patterns)


def classify_status(status: int, error_classes: Sequence[str] = DEFAULT_ERROR_STATUS_CLASSES) -> str:
    """Total classification: bug patterns first, then 2xx, then invalid."""
    if any(_match_status(status, p) for p in error_classes):
        return ResponseClass.BUG
    if 200 <= status <= 299:
        return ResponseClass.VALID
    return ResponseClass.INVALID


def status_class_label(status: int) -> str:
    if 100 <= status <= 599:
        return f"{status // 100}xx"
    return "other"


class Memo(dict):
    """A dict that fills a missing key with ``function(key)`` on first use.

    Per-request facts that depend only on the status (its response class,
    its status group) are looked up here: a hit is one dict lookup (0.02 us
    on a 2-vCPU VM) instead of a call to the rule (0.8 us for
    ``classify_status``). Concurrent first uses of a key compute the same
    value, so sharing one between threads is harmless.
    """

    def __init__(self, function: Callable[[int], str]):
        super().__init__()
        self.function = function

    def __missing__(self, key):
        value = self[key] = self.function(key)
        return value


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
    """One request/response pair, bytes as they crossed the wire (a chunked
    body is stored de-chunked).

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
        lines = [f"{self.version} {self.status} {self.reason}".encode("utf-8")]
        lines += [f"{k}: {v}".encode("utf-8") for k, v in self.headers]
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
    have a ``close()``, which the executor calls after a sequence whose
    final class is not Valid or that raised, and from its own ``close()``."""

    def roundtrip(self, request: bytes) -> HttpExchange: ...


class SocketTransport:
    """Production transport: auth injection plus one connection kept
    across requests until ``close``, and with ``conn.secure`` one TLS
    context for all of its connections."""

    def __init__(self, conn: ConnectionConfig, auth: AuthConfig | None = None):
        self.conn = conn
        self.auth = auth
        self.sock: socket.socket | None = None
        self.tls = ssl.create_default_context() if conn.secure else None
        if self.tls is not None:
            self.tls.check_hostname = False
            self.tls.verify_mode = ssl.CERT_NONE

    def roundtrip(self, request: bytes) -> HttpExchange:
        if self.auth is not None:
            line = self.auth.header_line()
            if line is not None:
                request = inject_header(request, line)
        return send_request(request, self)

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
        sock.settimeout(self.conn.read_timeout)
        return sock

    def close(self) -> None:
        sock, self.sock = self.sock, None
        if sock is not None:
            _close(sock)


_REQUEST_CLOSE = re.compile(rb"\r\nconnection:[^\r\n]*\bclose\b", re.IGNORECASE)


def send_request(request: bytes, transport: SocketTransport) -> HttpExchange:
    """One complete HTTP/1.1 round trip on ``transport``'s connection.

    The connection goes back to the transport when the response allows
    another request on it, and is closed otherwise. Nothing is retried: a
    request is written at most once.
    """
    started = time.monotonic()
    sock = transport.connection()
    reusable = False
    try:
        try:
            sock.sendall(request)
        except OSError as exc:
            raise TransportFailure("write", str(exc)) from exc
        method = request.split(b" ", 1)[0].decode("latin-1")
        version, status, reason, headers, body, reusable = _read_response(sock, method)
        head = request.partition(b"\r\n\r\n")[0]
        reusable = reusable and not _REQUEST_CLOSE.search(head)
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


def _read_exact(sock: socket.socket, buffer: bytearray, count: int) -> bytes:
    while len(buffer) < count:
        chunk = _recv(sock)
        if not chunk:
            raise TransportFailure("frame", "connection closed mid-body")
        buffer.extend(chunk)
    out = bytes(buffer[:count])
    del buffer[:count]
    return out


def _recv(sock: socket.socket) -> bytes:
    try:
        return sock.recv(65536)
    except socket.timeout as exc:
        raise TransportFailure("read", "timed out waiting for response") from exc
    except OSError as exc:
        raise TransportFailure("read", str(exc)) from exc


def _read_line(sock: socket.socket, buffer: bytearray) -> bytes:
    while b"\r\n" not in buffer:
        chunk = _recv(sock)
        if not chunk:
            raise TransportFailure("frame", "connection closed inside chunked framing")
        buffer.extend(chunk)
    line, _, rest = bytes(buffer).partition(b"\r\n")
    del buffer[: len(line) + 2]
    return line


def _read_head(
    sock: socket.socket, buffer: bytearray
) -> tuple[bytes, int, str, list[tuple[str, str]]]:
    """Status line and headers of one response: (version, status, reason,
    headers). What follows the head stays in ``buffer``."""
    while b"\r\n\r\n" not in buffer:
        chunk = _recv(sock)
        if not chunk:
            raise TransportFailure("frame", "connection closed before response head")
        buffer.extend(chunk)
        if len(buffer) > _MAX_HEAD_BYTES:
            raise TransportFailure("frame", "response head too large")
    head, _, remainder = bytes(buffer).partition(b"\r\n\r\n")
    buffer[:] = remainder

    lines = head.split(b"\r\n")
    parts = lines[0].split(None, 2)
    if len(parts) < 2 or not parts[0].startswith(b"HTTP/"):
        raise TransportFailure("frame", f"bad status line {lines[0]!r}")
    try:
        status = int(parts[1])
    except ValueError as exc:
        raise TransportFailure("frame", f"bad status code in {lines[0]!r}") from exc
    reason = parts[2].decode("latin-1") if len(parts) == 3 else ""

    headers: list[tuple[str, str]] = []
    for raw in lines[1:]:
        name, sep, value = raw.partition(b":")
        if sep:
            headers.append((name.decode("latin-1").strip(), value.decode("latin-1").strip()))
    return parts[0], status, reason, headers


def _read_response(
    sock: socket.socket, method: str
) -> tuple[bytes, int, str, tuple[tuple[str, str], ...], bytes, bool]:
    """Read the final response to a ``method`` request.

    Returns (version, status, reason, headers, body, reusable);
    ``reusable`` says whether the connection may carry another request.
    Interim 1xx heads other than 101 are skipped.
    """
    buffer = bytearray()
    version, status, reason, headers = _read_head(sock, buffer)
    while 100 <= status < 200 and status != 101:
        version, status, reason, headers = _read_head(sock, buffer)

    def header(name: str) -> str | None:
        for key, value in headers:
            if key.lower() == name:
                return value
        return None

    tokens = {t.strip().lower() for t in (header("connection") or "").split(",")}
    reusable = version == b"HTTP/1.1" and status >= 200 and "close" not in tokens

    transfer = (header("transfer-encoding") or "").lower()
    length_value = header("content-length")
    if method == "HEAD" or status < 200 or status in (204, 304):
        # RFC 9112 section 6.3: these responses end with their head.
        body = b""
    elif "chunked" in transfer:
        chunks = bytearray()
        while True:
            size_line = _read_line(sock, buffer)
            try:
                size = int(size_line.split(b";", 1)[0].strip(), 16)
            except ValueError as exc:
                raise TransportFailure("frame", f"bad chunk size {size_line!r}") from exc
            if size == 0:
                # consume trailer lines until the final blank
                while _read_line(sock, buffer) != b"":
                    pass
                break
            chunks.extend(_read_exact(sock, buffer, size))
            if _read_exact(sock, buffer, 2) != b"\r\n":
                raise TransportFailure("frame", "chunk missing terminator")
            if len(chunks) > _MAX_BODY_BYTES:
                raise TransportFailure("frame", "response body too large")
        body = bytes(chunks)
    elif length_value is not None:
        try:
            length = int(length_value)
            if length < 0:
                raise ValueError(length)
        except ValueError as exc:
            raise TransportFailure("frame", f"bad Content-Length {length_value!r}") from exc
        if length > _MAX_BODY_BYTES:
            raise TransportFailure("frame", "response body too large")
        body = _read_exact(sock, buffer, length)
    else:
        # No framing header: read until the server closes the connection.
        chunks = bytearray(buffer)
        buffer.clear()
        while True:
            chunk = _recv(sock)
            if not chunk:
                break
            chunks.extend(chunk)
            if len(chunks) > _MAX_BODY_BYTES:
                raise TransportFailure("frame", "response body too large")
        body = bytes(chunks)
        reusable = False
    return version, status, reason, tuple(headers), body, reusable and not buffer


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
            key = (spec.resource.name, repr(spec.extraction_path))
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
    steps_executed: int
    extracted: int = 0
    failure: TransportFailure | None = None
    unresolved: ResourceType | None = None


class SequenceExecutor:
    """Executes rendered request sequences against one transport."""

    def __init__(
        self,
        transport: Transport,
        template_lookup: Callable[[str], RequestTemplate],
        error_classes: Sequence[str] = DEFAULT_ERROR_STATUS_CLASSES,
        external_values: Mapping[ResourceType, str] | None = None,
    ):
        self.transport = transport
        self.template_lookup = template_lookup
        self.error_classes = tuple(error_classes)
        self.external_values = external_values or {}
        self.status_classes = Memo(
            functools.partial(classify_status, error_classes=self.error_classes)
        )
        # Producers whose missing extraction path was already logged.
        self.warned_missing_paths: set[tuple[str, str]] = set()

    def execute_sequence(self, steps: Sequence[RenderedRequest]) -> ExecutionResult:
        """Run the steps in order with a fresh pool.

        Execution stops at the first non-2xx step; the returned class is the
        last executed step's class (an empty sequence is trivially valid).
        A transport failure is logged and returned, and the sequence ends
        Invalid. The transport's connection carries on into the next
        sequence only when this one ended Valid; otherwise, or when this
        raises, it is closed.
        """
        try:
            result = self._execute(steps)
        except BaseException:
            self.close()
            raise
        if result.final_class != ResponseClass.VALID:
            self.close()
        return result

    def close(self) -> None:
        """Close the transport's connection, when the transport has one."""
        close = getattr(self.transport, "close", None)
        if close is not None:
            close()

    def _execute(self, steps: Sequence[RenderedRequest]) -> ExecutionResult:
        pool = DynamicObjectPool(self.external_values)
        exchanges: list[HttpExchange] = []
        extracted = 0
        attempted = 0
        final_class = ResponseClass.VALID
        failure: TransportFailure | None = None
        unresolved: ResourceType | None = None

        for step_index, rendered in enumerate(steps):
            attempted += 1
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
            final_class = self.status_classes[exchange.status]
            if final_class != ResponseClass.VALID:
                break

            template = self.template_lookup(rendered.template_id)
            if template.producers:
                try:
                    for resource, value in extract_objects(
                        exchange, template.producers, self.warned_missing_paths
                    ):
                        pool.add(resource, value)
                        extracted += 1
                except BodyParseError as exc:
                    logger.warning("%s: %s", rendered.template_id, exc)

        return ExecutionResult(
            exchanges=exchanges,
            final_class=final_class,
            steps_executed=attempted,
            extracted=extracted,
            failure=failure,
            unresolved=unresolved,
        )
