"""Contract tests for the reference blog-posts service.

The service is the ground truth the fuzzer is measured against, so its
behaviour is pinned here independently: checksums against digests computed
by hand, the planted defect's trigger chain, and the guarantee that no
route other than that chain can answer 5xx.
"""

from __future__ import annotations

import http.client
import json
import re
import socket

import pytest

from restfuzz.blogserver import BlogStore, body_checksum, serve

# sha1 digests computed independently (hashlib in a throwaway shell) and
# frozen so a quiet change to the checksum scheme fails loudly.
SHA1_X = "11f6ad8ec52a2984abaafd7c3b516503785c2072"
SHA1_SAMPLE = "1b148280f3320d31c3b0425c2ff09b6c9da9b8e0"


def call(handle, method, path, payload=None, raw=None):
    """One request on a fresh connection; returns (status, decoded body)."""
    conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=5)
    try:
        body = raw if raw is not None else (
            json.dumps(payload).encode() if payload is not None else None
        )
        conn.request(method, path, body=body, headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        data = resp.read() if method != "HEAD" else b""
        decoded = json.loads(data) if data else None
        return resp.status, decoded
    finally:
        conn.close()


@pytest.fixture()
def handle():
    h = serve()
    yield h
    h.stop()


def test_checksum_matches_independent_sha1():
    assert body_checksum("x") == SHA1_X
    assert body_checksum("sampleString") == SHA1_SAMPLE


def test_create_returns_201_with_body_and_id(handle):
    status, doc = call(handle, "POST", "/api/blog/posts", {"body": "x"})
    assert status == 201
    assert doc == {"body": "x", "id": 1}


def test_list_reflects_creations(handle):
    assert call(handle, "GET", "/api/blog/posts") == (200, [])
    call(handle, "POST", "/api/blog/posts", {"body": "first"})
    call(handle, "POST", "/api/blog/posts", {"body": "second"})
    status, doc = call(handle, "GET", "/api/blog/posts")
    assert status == 200
    assert doc == [{"body": "first", "id": 1}, {"body": "second", "id": 2}]


def test_fetch_includes_checksum(handle):
    call(handle, "POST", "/api/blog/posts", {"body": "x"})
    status, doc = call(handle, "GET", "/api/blog/posts/1")
    assert status == 200
    assert doc == {"body": "x", "checksum": SHA1_X, "id": 1}


def test_ids_grow_monotonically_and_are_never_reused(handle):
    ids = [call(handle, "POST", "/api/blog/posts", {"body": "p"})[1]["id"] for _ in range(3)]
    assert ids == [1, 2, 3]
    call(handle, "DELETE", "/api/blog/posts/3")
    _, doc = call(handle, "POST", "/api/blog/posts", {"body": "p"})
    assert doc["id"] == 4


def test_delete_then_fetch_is_404(handle):
    call(handle, "POST", "/api/blog/posts", {"body": "x"})
    assert call(handle, "DELETE", "/api/blog/posts/1")[0] == 200
    assert call(handle, "GET", "/api/blog/posts/1")[0] == 404
    assert call(handle, "DELETE", "/api/blog/posts/1")[0] == 404


def test_put_with_current_checksum_is_the_planted_500(handle):
    call(handle, "POST", "/api/blog/posts", {"body": "x"})
    _, doc = call(handle, "GET", "/api/blog/posts/1")
    status, err = call(
        handle, "PUT", "/api/blog/posts/1",
        {"body": "replacement", "checksum": doc["checksum"]},
    )
    assert status == 500
    assert err == {"error": "internal server error"}
    # The defect trips before the write: the stored body is untouched.
    assert call(handle, "GET", "/api/blog/posts/1")[1]["body"] == "x"


def test_put_with_stale_checksum_updates(handle):
    call(handle, "POST", "/api/blog/posts", {"body": "x"})
    status, doc = call(
        handle, "PUT", "/api/blog/posts/1",
        {"body": "sampleString", "checksum": "0" * 40},
    )
    assert status == 200
    assert doc == {"body": "sampleString", "checksum": SHA1_SAMPLE, "id": 1}
    assert call(handle, "GET", "/api/blog/posts/1")[1]["body"] == "sampleString"


def test_put_unknown_id_is_404_even_with_checksum(handle):
    status, _ = call(
        handle, "PUT", "/api/blog/posts/9",
        {"body": "x", "checksum": SHA1_X},
    )
    assert status == 404


@pytest.mark.parametrize(
    "payload",
    [
        {},                                  # body missing
        {"body": ""},                        # empty string rejected
        {"body": 7},                         # wrong type
        {"body": None},
    ],
)
def test_create_rejects_bad_body_with_400(handle, payload):
    status, doc = call(handle, "POST", "/api/blog/posts", payload)
    assert status == 400
    assert "error" in doc


def test_put_requires_string_checksum(handle):
    call(handle, "POST", "/api/blog/posts", {"body": "x"})
    for payload in ({"body": "y"}, {"body": "y", "checksum": 5}):
        status, _ = call(handle, "PUT", "/api/blog/posts/1", payload)
        assert status == 400


@pytest.mark.parametrize(
    "raw",
    [b"not json", b"[1, 2]", b'"just a string"', b"\xff\xfe"],
)
def test_non_object_request_bodies_are_400(handle, raw):
    assert call(handle, "POST", "/api/blog/posts", raw=raw)[0] == 400


def test_unknown_and_non_integer_ids_are_404(handle):
    assert call(handle, "GET", "/api/blog/posts/42")[0] == 404
    assert call(handle, "GET", "/api/blog/posts/abc")[0] == 404
    assert call(handle, "GET", "/api/blog/posts/1/extra")[0] == 404
    assert call(handle, "GET", "/api/other")[0] == 404


def test_unsupported_methods_answer_405_never_501(handle):
    call(handle, "POST", "/api/blog/posts", {"body": "x"})
    cases = [
        ("PUT", "/api/blog/posts"),
        ("DELETE", "/api/blog/posts"),
        ("PATCH", "/api/blog/posts"),
        ("POST", "/api/blog/posts/1"),
        ("PATCH", "/api/blog/posts/1"),
        ("HEAD", "/api/blog/posts"),
        ("OPTIONS", "/api/blog/posts/1"),
    ]
    for method, path in cases:
        status, _ = call(handle, method, path)
        assert status == 405, f"{method} {path} -> {status}"


def test_trailing_slash_is_normalized(handle):
    call(handle, "POST", "/api/blog/posts/", {"body": "x"})
    assert call(handle, "GET", "/api/blog/posts/")[0] == 200
    assert call(handle, "GET", "/api/blog/posts/1/")[0] == 200
    # Normalization maps the slashed form onto the same route table, so the
    # method rules still apply there.
    assert call(handle, "PUT", "/api/blog/posts/")[0] == 405


def test_query_string_is_ignored_for_routing(handle):
    call(handle, "POST", "/api/blog/posts", {"body": "x"})
    assert call(handle, "GET", "/api/blog/posts?page=2")[0] == 200
    assert call(handle, "GET", "/api/blog/posts/1?verbose=1")[0] == 200


def test_collision_is_the_only_5xx_source(handle):
    """Sweep every handler branch; only the planted chain may answer 5xx."""
    call(handle, "POST", "/api/blog/posts", {"body": "x"})
    checksum = call(handle, "GET", "/api/blog/posts/1")[1]["checksum"]
    sweep = [
        ("GET", "/api/blog/posts", None, None),
        ("POST", "/api/blog/posts", {"body": "ok"}, None),
        ("POST", "/api/blog/posts", {"body": ""}, None),
        ("POST", "/api/blog/posts", None, b"broken"),
        ("GET", "/api/blog/posts/1", None, None),
        ("GET", "/api/blog/posts/999", None, None),
        ("GET", "/api/blog/posts/zzz", None, None),
        ("PUT", "/api/blog/posts/1", {"body": "new", "checksum": "0" * 40}, None),
        ("PUT", "/api/blog/posts/1", {"body": "new"}, None),
        ("PUT", "/api/blog/posts/999", {"body": "new", "checksum": "0" * 40}, None),
        ("DELETE", "/api/blog/posts/999", None, None),
        ("PATCH", "/api/blog/posts", None, None),
        ("OPTIONS", "/api/blog/posts/1", None, None),
        ("GET", "/api/nothing/here", None, None),
        ("DELETE", "/api/blog/posts/2", None, None),
    ]
    for method, path, payload, raw in sweep:
        status, _ = call(handle, method, path, payload, raw)
        assert status < 500, f"{method} {path} -> {status}"
    # ... and the planted chain does.
    body = call(handle, "GET", "/api/blog/posts/1")[1]
    status, _ = call(
        handle, "PUT", "/api/blog/posts/1",
        {"body": "boom", "checksum": body["checksum"]},
    )
    assert status == 500
    assert checksum  # sweep above must not have destroyed post 1 silently


def raw_exchange(sock, request: bytes) -> tuple[bytes, bytes]:
    """Send one request on a raw socket; return the response head and the
    body its Content-Length announces (none after a HEAD)."""
    sock.sendall(request)
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, "connection closed before the response head"
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    if not request.startswith(b"HEAD "):
        length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
        while len(body) < length:
            chunk = sock.recv(65536)
            assert chunk, "connection closed mid-body"
            body += chunk
    return head, body


@pytest.mark.parametrize(
    "first",
    [
        b"HEAD /api/blog/posts HTTP/1.1\r\nHost: t\r\n\r\n",
        b"POST /api/blog/posts/1 HTTP/1.1\r\nHost: t\r\nContent-Length: 13\r\n\r\n"
        b'{"body": "x"}',
    ],
    ids=["head", "405-with-body"],
)
def test_kept_connection_stays_framed_after_an_early_answer(handle, first):
    with socket.create_connection(("127.0.0.1", handle.port), timeout=5) as sock:
        head, body = raw_exchange(sock, first)
        assert head.startswith(b"HTTP/1.1 405 ")
        if first.startswith(b"HEAD "):
            assert b"Content-Length: " in head and body == b""
        # Any byte the server left behind would come before this head.
        head, body = raw_exchange(sock, b"GET /api/blog/posts HTTP/1.1\r\nHost: t\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 ")
        assert json.loads(body) == []


def test_unframeable_request_is_400_and_ends_the_connection(handle):
    with socket.create_connection(("127.0.0.1", handle.port), timeout=5) as sock:
        head, body = raw_exchange(
            sock, b"GET /api/blog/posts HTTP/1.1\r\nHost: t\r\nContent-Length: -1\r\n\r\n"
        )
        assert head.startswith(b"HTTP/1.1 400 ")
        assert json.loads(body) == {"error": "bad Content-Length"}
        assert sock.recv(1) == b""


def test_store_can_be_preseeded():
    store = BlogStore()
    first = store.create("seeded")
    handle = serve(store=store)
    try:
        status, doc = call(handle, "GET", f"/api/blog/posts/{first}")
        assert status == 200
        assert doc["body"] == "seeded"
    finally:
        handle.stop()
