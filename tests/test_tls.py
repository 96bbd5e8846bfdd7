"""Campaigns, replay and connection setup over TLS.

The target is the blog service with its listening socket wrapped in TLS
(``tls_blog_server``), using the self-signed certificate in ``tests/data``.
The client never verifies it.
"""

from __future__ import annotations

import json
import socket
import ssl
import time

import pytest

from restfuzz.blogserver import bundled_spec_path
from restfuzz.cli import EXIT_OK, main
from restfuzz.engine import Strategy
from restfuzz.executor import ConnectionConfig, SocketTransport, TransportFailure

LIST_POSTS = b"GET /api/blog/posts HTTP/1.1\r\nHost: t\r\n\r\n"


@pytest.fixture()
def contexts(monkeypatch):
    """One entry per TLS client context built while the test runs."""
    built = []
    create_default_context = ssl.create_default_context

    def counted_context(*args, **kwargs):
        built.append(None)
        return create_default_context(*args, **kwargs)

    monkeypatch.setattr(ssl, "create_default_context", counted_context)
    return built


@pytest.mark.parametrize("workers", [1, 2])
def test_secure_campaign_reports_what_the_plain_one_does(
    run_campaign, run_tls_campaign, workers, contexts
):
    config = dict(strategy=Strategy.BFS, max_length=3, worker_count=workers)
    plain = run_campaign(**config)
    assert contexts == []
    secure = run_tls_campaign(**config)
    assert len(contexts) == workers  # one per worker's transport
    assert secure.fingerprint() == plain.fingerprint()
    assert secure.transport_failures == 0
    assert secure.status_totals["bug"] > 0


def test_tls_context_is_built_once_per_transport(tls_blog_server, monkeypatch, contexts):
    connects = []
    create_connection = socket.create_connection

    def counted_connect(*args, **kwargs):
        connects.append(None)
        return create_connection(*args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", counted_connect)
    transport = SocketTransport(ConnectionConfig("127.0.0.1", tls_blog_server.port, secure=True))
    try:
        for _ in range(3):
            assert transport.roundtrip(LIST_POSTS).status == 200
            transport.close()  # the next request needs a new connection
    finally:
        transport.close()
    assert (len(contexts), len(connects)) == (1, 3)


@pytest.mark.parametrize("replay_flags", [["--secure"], []], ids=["flag", "recorded"])
def test_replay_over_tls_reproduces_the_bug(tls_blog_server, tmp_path, capsys, replay_flags):
    """Without ``--secure``, replay takes TLS from the settings the run's
    ``run_start`` event records, as the bucket's replay.sh relies on."""
    target = ["--target", f"127.0.0.1:{tls_blog_server.port}"]
    out = tmp_path / "run"
    code = main(
        ["fuzz", "--spec", str(bundled_spec_path()), "--strategy", "bfs", "--max-length", "3",
         "--out", str(out), *target, "--secure"]
    )
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["transport_failures"] == 0
    [bucket] = report["buckets"]
    capsys.readouterr()
    replay = ["replay", "--out", str(out), "--bucket", bucket["bucket_id"], *target, *replay_flags]
    assert main(replay) == EXIT_OK
    assert "reproduced — final class bug (status 500)" in capsys.readouterr().out


def test_secure_client_against_plain_target_fails_at_connect(blog_server):
    transport = SocketTransport(ConnectionConfig("127.0.0.1", blog_server.port, secure=True))
    started = time.monotonic()
    try:
        with pytest.raises(TransportFailure) as info:
            transport.roundtrip(LIST_POSTS)
    finally:
        transport.close()
    assert info.value.phase == "connect"
    assert time.monotonic() - started < 5
