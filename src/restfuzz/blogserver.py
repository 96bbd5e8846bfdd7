"""In-process blog-posts service used as the fuzzing reference target.

Five operations over an in-memory store:

* ``GET /api/blog/posts`` lists every post.
* ``POST /api/blog/posts`` creates a post from ``{"body": ...}``.
* ``GET /api/blog/posts/{id}`` returns one post plus the SHA-1 checksum of
  its body.
* ``DELETE /api/blog/posts/{id}`` removes a post.
* ``PUT /api/blog/posts/{id}`` replaces the body; the request must carry the
  checksum of the version being replaced.

The PUT handler contains one planted defect: when the supplied checksum
matches the stored one (the intended success path of the optimistic
concurrency check) it raises, and the framework wrapper surfaces that as a
500. Every other path answers 2xx or 4xx, so a fuzzer's 5xx report isolates
exactly this branch.

Run standalone with ``python -m restfuzz.blogserver --port 8888``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import threading
from contextlib import contextmanager
from pathlib import Path
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

logger = logging.getLogger(__name__)

COLLECTION_PATH = "/api/blog/posts"


class ChecksumCollision(RuntimeError):
    """Planted defect: raised when a PUT names the current checksum."""


def body_checksum(body: str) -> str:
    return hashlib.sha1(body.encode("utf-8")).hexdigest()


class BlogStore:
    """Thread-safe in-memory post store. Ids grow monotonically from 1."""

    def __init__(self):
        self._lock = threading.Lock()
        self._posts: dict[int, str] = {}
        self._next_id = 1

    def create(self, body: str) -> int:
        with self._lock:
            post_id = self._next_id
            self._next_id += 1
            self._posts[post_id] = body
            return post_id

    def get(self, post_id: int) -> str | None:
        with self._lock:
            return self._posts.get(post_id)

    def update(self, post_id: int, body: str) -> bool:
        with self._lock:
            if post_id not in self._posts:
                return False
            self._posts[post_id] = body
            return True

    def delete(self, post_id: int) -> bool:
        with self._lock:
            return self._posts.pop(post_id, None) is not None

    def list_posts(self) -> list[tuple[int, str]]:
        with self._lock:
            return sorted(self._posts.items())


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class _BlogHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "BlogPosts/0.1"
    # Head and body go out in separate writes. With Nagle on, the second
    # write of a reply on a kept-alive connection waits for the client's
    # delayed ACK (about 40 ms).
    disable_nagle_algorithm = True

    # The store is attached to the server object by serve().

    def do_GET(self):
        self._dispatch("GET")

    def do_POST(self):
        self._dispatch("POST")

    def do_PUT(self):
        self._dispatch("PUT")

    def do_DELETE(self):
        self._dispatch("DELETE")

    def do_PATCH(self):
        self._dispatch("PATCH")

    def do_HEAD(self):
        self._dispatch("HEAD")

    def do_OPTIONS(self):
        self._dispatch("OPTIONS")

    def log_message(self, fmt, *args):  # quiet by default
        logger.debug("%s - %s", self.address_string(), fmt % args)

    # -- framework layer: routing plus uncaught-exception handling ---------

    def _dispatch(self, method: str):
        try:
            # Read the whole request before routing, so that an early 404
            # or 405 leaves no bytes of it on a kept-alive connection.
            self._body = self._read_body()
            status, payload = self._route(method)
        except _HttpError as exc:
            self._send(exc.status, {"error": exc.message})
        except Exception:
            # Uncaught handler errors surface as a generic 500 page, the way
            # a web framework would report them.
            logger.debug("handler raised", exc_info=True)
            self._send(500, {"error": "internal server error"})
        else:
            self._send(status, payload)

    def _route(self, method: str):
        path = self.path.split("?", 1)[0]
        if path != "/" and path.endswith("/"):
            path = path[:-1]

        if path == COLLECTION_PATH:
            if method == "GET":
                return self._list()
            if method == "POST":
                return self._create()
            raise _HttpError(405, f"method {method} not allowed here")

        if path.startswith(COLLECTION_PATH + "/"):
            ident = path[len(COLLECTION_PATH) + 1 :]
            if "/" not in ident:
                post_id = self._parse_id(ident)
                if method == "GET":
                    return self._fetch(post_id)
                if method == "DELETE":
                    return self._remove(post_id)
                if method == "PUT":
                    return self._replace(post_id)
                raise _HttpError(405, f"method {method} not allowed here")

        raise _HttpError(404, "no such route")

    # -- handlers -----------------------------------------------------------

    def _list(self):
        posts = [{"body": body, "id": post_id} for post_id, body in self.server.store.list_posts()]
        return 200, posts

    def _create(self):
        body = self._require_post_body(self._read_json())
        post_id = self.server.store.create(body)
        return 201, {"body": body, "id": post_id}

    def _fetch(self, post_id: int):
        body = self.server.store.get(post_id)
        if body is None:
            raise _HttpError(404, f"no post with id {post_id}")
        return 200, {"body": body, "checksum": body_checksum(body), "id": post_id}

    def _remove(self, post_id: int):
        if not self.server.store.delete(post_id):
            raise _HttpError(404, f"no post with id {post_id}")
        return 200, {}

    def _replace(self, post_id: int):
        payload = self._read_json()
        new_body = self._require_post_body(payload)
        checksum = payload.get("checksum")
        if not isinstance(checksum, str):
            raise _HttpError(400, "checksum must be a string")
        current = self.server.store.get(post_id)
        if current is None:
            raise _HttpError(404, f"no post with id {post_id}")
        if checksum == body_checksum(current):
            # Intended success path of the concurrency check; the planted
            # defect trips before the update happens.
            raise ChecksumCollision(f"checksum collision on post {post_id}")
        self.server.store.update(post_id, new_body)
        return 200, {"body": new_body, "checksum": body_checksum(new_body), "id": post_id}

    # -- request plumbing ----------------------------------------------------

    @staticmethod
    def _parse_id(ident: str) -> int:
        try:
            return int(ident)
        except ValueError:
            raise _HttpError(404, f"no post with id {ident!r}") from None

    def _read_body(self) -> bytes:
        length_header = self.headers.get("Content-Length")
        try:
            length = int(length_header) if length_header else 0
            if length < 0:
                raise ValueError(length_header)
        except ValueError:
            # The request cannot be framed, so neither can the next one.
            self.close_connection = True
            raise _HttpError(400, "bad Content-Length") from None
        return self.rfile.read(length) if length else b""

    def _read_json(self) -> dict:
        try:
            parsed = json.loads(self._body.decode("utf-8")) if self._body else None
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise _HttpError(400, "request body is not valid JSON") from None
        if not isinstance(parsed, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return parsed

    @staticmethod
    def _require_post_body(payload: dict) -> str:
        body = payload.get("body")
        if not isinstance(body, str):
            raise _HttpError(400, "body must be a string")
        if body == "":
            raise _HttpError(400, "body must be a non-empty string")
        return body

    def _send(self, status: int, payload):
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(data)


@dataclass
class ServerHandle:
    server: ThreadingHTTPServer
    thread: threading.Thread
    store: BlogStore

    @property
    def port(self) -> int:
        return self.server.server_address[1]

    @property
    def address(self) -> str:
        return f"127.0.0.1:{self.port}"

    def stop(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)


def serve(port: int = 0, store: BlogStore | None = None) -> ServerHandle:
    """Start the service on 127.0.0.1 (port 0 picks a free one)."""
    store = store or BlogStore()
    server = ThreadingHTTPServer(("127.0.0.1", port), _BlogHandler)
    server.daemon_threads = True
    server.store = store  # type: ignore[attr-defined]
    thread = threading.Thread(target=server.serve_forever, name="blogserver", daemon=True)
    thread.start()
    return ServerHandle(server=server, thread=thread, store=store)


@contextmanager
def running(port: int = 0, store: BlogStore | None = None):
    handle = serve(port=port, store=store)
    try:
        yield handle
    finally:
        handle.stop()


def bundled_spec_path() -> Path:
    """Filesystem path of the API description shipped with the package."""
    from importlib.resources import files

    return Path(str(files("restfuzz").joinpath("specs/blog_posts.yaml")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the blog-posts reference service.")
    parser.add_argument("--port", type=int, default=8888)
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    handle = serve(port=args.port)
    print(f"blog-posts service listening on http://{handle.address}")
    print(f"API description: {bundled_spec_path()}")
    try:
        handle.thread.join()
    except KeyboardInterrupt:
        handle.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
