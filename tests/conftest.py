from __future__ import annotations

import ssl
from pathlib import Path

import pytest

from restfuzz.blogserver import bundled_spec_path, serve
from restfuzz.compiler import compile_grammar, parse_spec
from restfuzz.engine import EngineConfig, FuzzEngine
from restfuzz.executor import ConnectionConfig, SocketTransport, probe_target
from restfuzz.grammar import FuzzingDictionary


TLS_DATA = Path(__file__).parent / "data"


@pytest.fixture()
def blog_server():
    handle = serve()
    yield handle
    handle.stop()


@pytest.fixture()
def tls_blog_server():
    """The blog service behind TLS: its listening socket is wrapped server
    side with the self-signed certificate in ``tests/data``, so each
    connection it accepts completes a handshake first."""
    handle = serve()
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(TLS_DATA / "tls-cert.pem", TLS_DATA / "tls-key.pem")
    handle.server.socket = context.wrap_socket(handle.server.socket, server_side=True)
    yield handle
    handle.stop()


@pytest.fixture(scope="session")
def blog_model():
    return parse_spec(bundled_spec_path().read_text())


@pytest.fixture()
def blog_grammar(blog_server, blog_model):
    return compile_grammar(blog_model, host=f"127.0.0.1:{blog_server.port}")


@pytest.fixture()
def dictionary():
    return FuzzingDictionary.default()


@pytest.fixture()
def blog_conn(blog_server):
    return ConnectionConfig("127.0.0.1", blog_server.port)


def campaign_runner(handle, model, secure=False):
    """Run one engine campaign against the service behind ``handle``;
    returns the report."""

    def _run(sink=None, **config_kwargs):
        grammar = compile_grammar(model, host=f"127.0.0.1:{handle.port}")
        conn = ConnectionConfig("127.0.0.1", handle.port, secure=secure)
        engine = FuzzEngine(
            grammar,
            dictionary=FuzzingDictionary.default(),
            config=EngineConfig(**config_kwargs),
            transport_factory=lambda: SocketTransport(conn),
            sink=sink,
            probe=lambda: probe_target(conn),
        )
        return engine.run()

    return _run


@pytest.fixture()
def run_campaign(blog_server, blog_model):
    """Run one engine campaign against the fixture service; returns the report."""
    return campaign_runner(blog_server, blog_model)


@pytest.fixture()
def run_tls_campaign(tls_blog_server, blog_model):
    """``run_campaign`` over TLS, against the TLS-wrapped fixture service."""
    return campaign_runner(tls_blog_server, blog_model, secure=True)
