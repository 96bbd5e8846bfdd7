"""Document lowering and dependency inference, pinned against hand-derived
expectations for the bundled reference API."""

from __future__ import annotations

from pathlib import Path

import pytest
import yaml

import restfuzz.compiler as compiler
from restfuzz.blogserver import bundled_spec_path
from restfuzz.compiler import (
    AnnotationOverrides,
    MalformedDocument,
    UnsatisfiableConsumer,
    UnsupportedVersion,
    compile_grammar,
    infer_dependencies,
    parse_spec,
)
from restfuzz.grammar import (
    ConsumerSlot,
    FuzzableSlot,
    ResourceType,
    StaticSlot,
    consumes,
    produces,
    render_combinations,
    FuzzingDictionary,
)

DATA = Path(__file__).parent / "data"


def rt(name):
    return ResourceType(name)


# ---------------------------------------------------------------------------
# Golden test: the one-operation document


@pytest.fixture(scope="module")
def minimal_grammar():
    return compile_grammar(parse_spec((DATA / "minimal_post.yaml").read_text()))


class TestMinimalPostDocument:
    @pytest.fixture()
    def grammar(self, minimal_grammar):
        return minimal_grammar

    def test_single_template(self, grammar):
        assert [t.id for t in grammar.templates] == ["POST /api/blog/posts/"]

    def test_first_rendering_bytes(self, grammar):
        (template,) = grammar.templates
        rendered = render_combinations(template, FuzzingDictionary.default())
        request = rendered[0].assemble({})
        head, _, body = request.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        assert lines[0] == b"POST /api/blog/posts/ HTTP/1.1"
        assert body == b'{"body":"sampleString"}'
        assert b"Content-Length: 23" in head
        assert b"Accept: application/json" in head
        assert b"Content-Type: application/json" in head
        # no host in the document, so the default is baked in
        assert b"Host: localhost:8888" in head

    def test_second_rendering_is_empty_string(self, grammar):
        (template,) = grammar.templates
        rendered = render_combinations(template, FuzzingDictionary.default())
        assert len(rendered) == 2
        assert rendered[1].assemble({}).endswith(b'{"body":""}')

    def test_no_responses_means_no_producers(self, grammar):
        # The document declares no responses at all, so nothing is produced;
        # the bundled five-operation document covers producer inference.
        (template,) = grammar.templates
        assert produces(template) == frozenset()


# ---------------------------------------------------------------------------
# The bundled five-operation document


class TestBlogDependencies:
    """consumes/produces per operation, derived by hand from the rules:

    a 2xx response field is produced unless it names one of the operation's
    own path parameters, is required in its own request body, or is
    client-originating under the path stem; path parameters are always
    consumed; required body fields are consumed only when produced somewhere.
    """

    EXPECTED = {
        "GET /api/blog/posts": (set(), set()),
        "POST /api/blog/posts": (set(), {"posts/id"}),
        "DELETE /api/blog/posts/{id}": ({"posts/id"}, set()),
        "GET /api/blog/posts/{id}": ({"posts/id"}, {"posts/checksum"}),
        "PUT /api/blog/posts/{id}": ({"posts/id", "posts/checksum"}, set()),
    }

    def test_template_ids_in_declaration_order(self, blog_model):
        grammar = compile_grammar(blog_model)
        assert [t.id for t in grammar.templates] == list(self.EXPECTED)

    def test_consumes_and_produces(self, blog_model):
        grammar = compile_grammar(blog_model)
        for template in grammar.templates:
            want_consumes, want_produces = self.EXPECTED[template.id]
            assert {str(r) for r in consumes(template)} == want_consumes, template.id
            assert {str(r) for r in produces(template)} == want_produces, template.id

    def test_no_operation_excluded(self, blog_model):
        grammar = compile_grammar(blog_model)
        assert grammar.excluded_operations == ()
        assert grammar.unsatisfiable == frozenset()

    def test_put_body_shape(self, blog_model):
        grammar = compile_grammar(blog_model)
        put = grammar.template_by_id("PUT /api/blog/posts/{id}")
        body = put.slots[put.body_start :]
        assert body == (
            StaticSlot(b"{"),
            StaticSlot(b'"body":'),
            StaticSlot(b'"'),
            FuzzableSlot("string"),
            StaticSlot(b'"'),
            StaticSlot(b","),
            StaticSlot(b'"checksum":'),
            StaticSlot(b'"'),
            ConsumerSlot(rt("posts/checksum")),
            StaticSlot(b'"'),
            StaticSlot(b"}"),
        )

    def test_path_param_is_consumer(self, blog_model):
        grammar = compile_grammar(blog_model)
        get_one = grammar.template_by_id("GET /api/blog/posts/{id}")
        assert ConsumerSlot(rt("posts/id")) in get_one.slots

    def test_host_priority(self, blog_model):
        explicit = compile_grammar(blog_model, host="10.0.0.5:9999")
        header = next(
            s.text
            for s in explicit.templates[0].slots
            if isinstance(s, StaticSlot) and s.text.startswith(b"Host:")
        )
        assert header == b"Host: 10.0.0.5:9999\r\n"
        from_doc = compile_grammar(blog_model)
        header = next(
            s.text
            for s in from_doc.templates[0].slots
            if isinstance(s, StaticSlot) and s.text.startswith(b"Host:")
        )
        assert header == b"Host: localhost:8888\r\n"  # the document's own host


# ---------------------------------------------------------------------------
# Inference rules on purpose-built documents


def _doc(paths, definitions=None, base="/api"):
    return {
        "swagger": "2.0",
        "basePath": base,
        "definitions": definitions or {},
        "paths": paths,
    }


def _compile(doc, **kwargs):
    import json

    return compile_grammar(parse_spec(json.dumps(doc)), **kwargs)


def test_client_originating_field_not_produced_elsewhere():
    # 'name' is required by the POST and echoed in its response, so the GET
    # echoing it back must not become a producer of things/name.
    doc = _doc(
        {
            "/things": {
                "post": {
                    "parameters": [
                        {
                            "in": "body",
                            "name": "payload",
                            "required": True,
                            "schema": {
                                "type": "object",
                                "properties": {"name": {"type": "string"}},
                                "required": ["name"],
                            },
                        }
                    ],
                    "responses": {
                        "201": {
                            "schema": {
                                "type": "object",
                                "properties": {
                                    "name": {"type": "string"},
                                    "id": {"type": "integer"},
                                },
                            }
                        }
                    },
                }
            },
            "/things/{id}": {
                "get": {
                    "parameters": [{"in": "path", "name": "id", "type": "integer"}],
                    "responses": {
                        "200": {
                            "schema": {
                                "type": "object",
                                "properties": {
                                    "name": {"type": "string"},
                                    "rev": {"type": "string"},
                                },
                            }
                        }
                    },
                }
            },
        }
    )
    grammar = _compile(doc)
    get_one = grammar.template_by_id("GET /api/things/{id}")
    assert produces(get_one) == {rt("things/rev")}  # name suppressed, rev kept


def test_own_path_param_never_produced():
    doc = _doc(
        {
            "/things/{id}": {
                "get": {
                    "parameters": [{"in": "path", "name": "id", "type": "integer"}],
                    "responses": {
                        "200": {
                            "schema": {
                                "type": "object",
                                "properties": {"id": {"type": "integer"}},
                            }
                        }
                    },
                }
            },
            "/things": {
                "post": {
                    "responses": {
                        "201": {
                            "schema": {
                                "type": "object",
                                "properties": {"id": {"type": "integer"}},
                            }
                        }
                    }
                }
            },
        }
    )
    grammar = _compile(doc)
    assert produces(grammar.template_by_id("GET /api/things/{id}")) == frozenset()
    assert produces(grammar.template_by_id("POST /api/things")) == {rt("things/id")}


def test_unsatisfiable_path_param_excludes_operation_with_fixpoint():
    # Nothing produces gadgets/id, so the GET is dropped; dropping it removes
    # the only producer of gadgets/rev, which then drops the DELETE too.
    doc = _doc(
        {
            "/gadgets/{id}": {
                "get": {
                    "parameters": [{"in": "path", "name": "id", "type": "integer"}],
                    "responses": {
                        "200": {
                            "schema": {
                                "type": "object",
                                "properties": {"rev": {"type": "string"}},
                            }
                        }
                    },
                }
            },
            "/gadgets/{id}/revs/{rev}": {
                "delete": {
                    "parameters": [
                        {"in": "path", "name": "id", "type": "integer"},
                        {"in": "path", "name": "rev", "type": "string"},
                    ],
                    "responses": {"200": {}},
                }
            },
            "/ping": {"get": {"responses": {"200": {}}}},
        }
    )
    grammar = _compile(doc)
    excluded = dict(grammar.excluded_operations)
    assert set(excluded) == {"GET /api/gadgets/{id}", "DELETE /api/gadgets/{id}/revs/{rev}"}
    assert [t.id for t in grammar.templates] == ["GET /api/ping"]
    assert rt("gadgets/id") in grammar.unsatisfiable


def test_external_value_satisfies_otherwise_excluded_operation():
    doc = _doc(
        {
            "/gadgets/{id}": {
                "get": {
                    "parameters": [{"in": "path", "name": "id", "type": "integer"}],
                    "responses": {"200": {}},
                }
            }
        }
    )
    overrides = AnnotationOverrides.from_json('{"external": {"gadgets/id": "42"}}')
    grammar = _compile(doc, overrides=overrides)
    assert grammar.excluded_operations == ()
    assert grammar.external_values == {rt("gadgets/id"): "42"}


def test_forced_consumer_without_producer_is_an_error():
    doc = _doc(
        {
            "/things": {
                "post": {
                    "parameters": [
                        {
                            "in": "body",
                            "name": "payload",
                            "required": True,
                            "schema": {
                                "type": "object",
                                "properties": {"tag": {"type": "string"}},
                                "required": ["tag"],
                            },
                        }
                    ],
                    "responses": {"201": {}},
                }
            }
        }
    )
    overrides = AnnotationOverrides.from_json(
        '{"consumers": [{"operation": "POST /api/things",'
        ' "parameter": "tag", "resource": "labels/tag"}]}'
    )
    with pytest.raises(UnsatisfiableConsumer):
        _compile(doc, overrides=overrides)


def test_suppressed_producer_excludes_path_consumers():
    doc = _doc(
        {
            "/things": {
                "post": {
                    "responses": {
                        "201": {
                            "schema": {
                                "type": "object",
                                "properties": {"id": {"type": "integer"}},
                            }
                        }
                    }
                }
            },
            "/things/{id}": {
                "delete": {
                    "parameters": [{"in": "path", "name": "id", "type": "integer"}],
                    "responses": {"200": {}},
                }
            },
        }
    )
    overrides = AnnotationOverrides.from_json(
        '{"suppress_producers": [{"operation": "POST /api/things",'
        ' "resource": "things/id"}]}'
    )
    grammar = _compile(doc, overrides=overrides)
    excluded = dict(grammar.excluded_operations)
    assert "DELETE /api/things/{id}" in excluded


def test_suppressed_producer_reverts_body_consumers_to_fuzzable():
    # A body field wired to a producer that gets suppressed cannot be
    # resolved at run time, so it degrades to a plain fuzzable value.
    doc = _doc(
        {
            "/things": {
                "post": {
                    "responses": {
                        "201": {
                            "schema": {
                                "type": "object",
                                "properties": {"rev": {"type": "string"}},
                            }
                        }
                    }
                },
                "put": {
                    "parameters": [
                        {
                            "in": "body",
                            "name": "payload",
                            "required": True,
                            "schema": {
                                "type": "object",
                                "properties": {"rev": {"type": "string"}},
                                "required": ["rev"],
                            },
                        }
                    ],
                    "responses": {"200": {}},
                },
            }
        }
    )
    wired = _compile(doc)
    put = wired.template_by_id("PUT /api/things")
    assert ConsumerSlot(rt("things/rev")) in put.slots

    overrides = AnnotationOverrides.from_json(
        '{"suppress_producers": [{"operation": "POST /api/things",'
        ' "resource": "things/rev"}]}'
    )
    stripped = _compile(doc, overrides=overrides)
    put = stripped.template_by_id("PUT /api/things")
    assert not any(isinstance(s, ConsumerSlot) for s in put.slots)
    assert FuzzableSlot("string") in put.slots
    assert stripped.excluded_operations == ()


def test_optional_body_field_needs_opt_in():
    doc = _doc(
        {
            "/things": {
                "post": {
                    "parameters": [
                        {
                            "in": "body",
                            "name": "payload",
                            "required": True,
                            "schema": {
                                "type": "object",
                                "properties": {
                                    "name": {"type": "string"},
                                    "note": {"type": "string"},
                                },
                                "required": ["name"],
                            },
                        }
                    ],
                    "responses": {"201": {}},
                }
            }
        }
    )
    default_body = _first_body(_compile(doc))
    assert b"note" not in default_body
    opted_body = _first_body(_compile(doc, include_optional=("note",)))
    assert opted_body == b'{"name":"sampleString","note":"sampleString"}'


def _first_body(grammar):
    (template,) = grammar.templates
    request = render_combinations(template, FuzzingDictionary.default())[0].assemble({})
    return request.partition(b"\r\n\r\n")[2]


def test_query_parameters_rendered():
    doc = _doc(
        {
            "/search": {
                "get": {
                    "parameters": [
                        {"in": "query", "name": "q", "type": "string", "required": True},
                        {"in": "query", "name": "limit", "type": "integer", "required": True},
                    ],
                    "responses": {"200": {}},
                }
            }
        }
    )
    grammar = _compile(doc)
    first = render_combinations(grammar.templates[0], FuzzingDictionary.default())[0]
    assert first.assemble({}).startswith(b"GET /api/search?q=sampleString&limit=0 HTTP/1.1")


# ---------------------------------------------------------------------------
# Parsing edge cases


def test_undeclared_path_placeholder_synthesized():
    doc = _doc({"/a/{x}": {"get": {"responses": {"200": {}}}}})
    model = parse_spec(__import__("json").dumps(doc))
    assert any("undeclared" in w for w in model.warnings)
    (op,) = model.operations
    assert [p.name for p in op.path_parameters] == ["x"]


def test_number_coerced_to_integer_with_warning():
    doc = _doc(
        {
            "/a": {
                "get": {
                    "parameters": [
                        {"in": "query", "name": "f", "type": "number", "required": True}
                    ],
                    "responses": {"200": {}},
                }
            }
        }
    )
    model = parse_spec(__import__("json").dumps(doc))
    assert any("number" in w for w in model.warnings)
    (op,) = model.operations
    assert op.query_parameters[0].kind == "integer"


def test_version_check():
    with pytest.raises(UnsupportedVersion):
        parse_spec('{"swagger": "3.0", "paths": {}}')
    with pytest.raises(UnsupportedVersion):
        parse_spec('{"openapi": "3.0.0", "paths": {}}')


def test_malformed_documents():
    with pytest.raises(MalformedDocument):
        parse_spec("- just\n- a\n- list\n")
    with pytest.raises(MalformedDocument):
        parse_spec("{broken json")
    with pytest.raises(MalformedDocument):
        parse_spec('{"swagger": "2.0", "paths": []}')


YAML_LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])


@pytest.mark.parametrize(
    "path", [bundled_spec_path(), DATA / "minimal_post.yaml"], ids=lambda p: p.name
)
def test_yaml_loaders_agree(path):
    text = path.read_text()
    docs = [yaml.load(text, Loader=loader) for loader in YAML_LOADERS]
    assert all(doc == docs[0] for doc in docs)
    assert compiler._load_document(text) == docs[0]


def test_yaml_documents_go_through_libyaml_when_available(monkeypatch):
    assert compiler._YAML_LOADER is YAML_LOADERS[-1]
    used = []

    class Recording(yaml.SafeLoader):
        def __init__(self, stream):
            used.append(stream)
            super().__init__(stream)

    monkeypatch.setattr(compiler, "_YAML_LOADER", Recording)
    parse_spec((DATA / "minimal_post.yaml").read_text())
    assert len(used) == 1


@pytest.mark.parametrize("loader", YAML_LOADERS, ids=lambda loader: loader.__name__)
def test_malformed_yaml_raises_malformed_document_with_each_loader(loader, monkeypatch):
    monkeypatch.setattr(compiler, "_YAML_LOADER", loader)
    for text in ("paths: [unclosed\n", "swagger: '2.0'\n\tpaths: {}\n", "a: b: c\n"):
        with pytest.raises(MalformedDocument):
            parse_spec(text)


def test_json_documents_accepted(blog_model):
    import json as _json

    # Hand-translate the reference document to JSON and expect the same grammar.
    import yaml

    from restfuzz.blogserver import bundled_spec_path

    doc = yaml.safe_load(bundled_spec_path().read_text())
    model = parse_spec(_json.dumps(doc))
    assert [op.op_id for op in model.operations] == [
        op.op_id for op in blog_model.operations
    ]


def test_infer_dependencies_pure(blog_model):
    first = infer_dependencies(blog_model)
    second = infer_dependencies(blog_model)
    assert first.producers == second.producers
    assert first.consumers == second.consumers
