from __future__ import annotations

import pytest

from restfuzz.blogserver import bundled_spec_path, serve
from restfuzz.compiler import compile_grammar, parse_spec
from restfuzz.engine import EngineConfig, FuzzEngine
from restfuzz.executor import ConnectionConfig, SocketTransport, probe_target
from restfuzz.grammar import FuzzingDictionary


@pytest.fixture()
def blog_server():
    handle = serve()
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


@pytest.fixture()
def run_campaign(blog_server, blog_model, dictionary):
    """Run one engine campaign against the fixture service; returns the report."""

    def _run(sink=None, **config_kwargs):
        grammar = compile_grammar(blog_model, host=f"127.0.0.1:{blog_server.port}")
        conn = ConnectionConfig("127.0.0.1", blog_server.port)
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
