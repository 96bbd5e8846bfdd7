"""Document lowering and dependency inference, pinned against hand-derived
expectations for the bundled reference API."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest
import yaml

import restfuzz.compiler as compiler
from restfuzz.blogserver import bundled_spec_path
from restfuzz.compiler import (
    AnnotationOverrides,
    CompileError,
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
    dump_grammar,
    load_grammar,
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


@pytest.mark.parametrize(
    ("overrides", "named"),
    [
        ({"producers": [{"operation": "POST /nowhere", "resource": "posts/id", "path": ["id"]}]},
         "override names operation 'POST /nowhere'"),
        ({"suppress_producers": [{"operation": "POST /nowhere", "resource": "posts/id"}]},
         "override names operation 'POST /nowhere'"),
        ({"consumers": [{"operation": "PUT /api/blog/posts/{id}", "parameter": "no_such_param",
                         "resource": "posts/id"}]},
         "override names parameter 'no_such_param' of PUT /api/blog/posts/{id}"),
        ({"consumers": [{"operation": "PUT /nowhere", "parameter": "id", "resource": "posts/id"}]},
         "override names operation 'PUT /nowhere'"),
        ({"suppress_consumers": [{"operation": "PUT /api/blog/posts/{id}", "parameter": "nope"}]},
         "override names parameter 'nope' of PUT /api/blog/posts/{id}"),
        ({"suppress_consumers": [{"operation": "GET /nowhere", "parameter": "id"}]},
         "override names operation 'GET /nowhere'"),
    ],
    ids=["producer", "producer-suppression", "consumer", "consumer-operation",
         "consumer-suppression", "consumer-suppression-operation"],
)
def test_override_of_what_the_document_lacks_is_refused(blog_model, overrides, named):
    """Such an override would change nothing, so it is an error, not a no-op."""
    with pytest.raises(CompileError, match=re.escape(named)):
        compile_grammar(blog_model, AnnotationOverrides.from_json(json.dumps(overrides)))


def test_override_names_match_parameters_and_body_fields_in_any_case(blog_model):
    overrides = {
        "consumers": [
            {"operation": "PUT /api/blog/posts/{id}", "parameter": "ID", "resource": "posts/id"},
            {"operation": "PUT /api/blog/posts/{id}", "parameter": "Checksum",
             "resource": "posts/id"},
        ],
        "suppress_consumers": [{"operation": "POST /api/blog/posts", "parameter": "body"}],
    }
    grammar = compile_grammar(blog_model, AnnotationOverrides.from_json(json.dumps(overrides)))
    plain = compile_grammar(blog_model)
    assert [t.id for t in grammar.templates] == [t.id for t in plain.templates]


def test_consumer_override_opts_in_an_optional_body_field(blog_model):
    # POST's ``id`` is optional; binding it emits it, as --include-optional would.
    overrides = {"consumers": [
        {"operation": "POST /api/blog/posts", "parameter": "id", "resource": "posts/id"}
    ]}
    grammar = compile_grammar(blog_model, AnnotationOverrides.from_json(json.dumps(overrides)))
    post = grammar.template_by_id("POST /api/blog/posts")
    assert consumes(post) == {rt("posts/id")}
    assert post.slots[post.body_start :][-3:] == (
        StaticSlot(b'"id":'), ConsumerSlot(rt("posts/id")), StaticSlot(b"}")
    )


def test_consumer_override_opts_in_an_optional_query_parameter():
    doc = _doc(
        {
            "/things": {
                "get": {
                    "parameters": [{"in": "query", "name": "after", "type": "string"}],
                    "responses": {"200": {}},
                }
            }
        }
    )
    overrides = AnnotationOverrides.from_json(json.dumps({
        "consumers": [{"operation": "GET /api/things", "parameter": "after",
                       "resource": "cursors/after"}],
        "external": {"cursors/after": "c1"},
    }))
    (template,) = _compile(doc, overrides=overrides).templates
    (rendering,) = render_combinations(template, FuzzingDictionary.default())
    request = rendering.assemble({rt("cursors/after"): b"c1"})
    assert request.startswith(b"GET /api/things?after=c1 HTTP/1.1\r\n")


QUERY_X = {"in": "query", "name": "x", "type": "string"}
PATH_X = {"in": "path", "name": "x", "type": "string"}


@pytest.mark.parametrize(
    ("parameters", "consumed"),
    [
        ([QUERY_X, PATH_X], [rt("ext/v")]),
        ([PATH_X, QUERY_X], [rt("a/x"), rt("ext/v")]),
        ([QUERY_X], [rt("ext/v")]),
    ],
    ids=["path-declared-last", "query-declared-last", "path-undeclared"],
)
def test_override_of_a_name_both_path_and_query_binds_the_later_declared(parameters, consumed):
    """A consumer override naming ``x`` binds the parameter declared last; a
    placeholder without a declaration counts as declared after all others."""
    doc = _doc({"/a/{x}": {"get": {"parameters": parameters, "responses": {"200": {}}}}})
    overrides = AnnotationOverrides.from_json(json.dumps({
        "consumers": [{"operation": "GET /api/a/{x}", "parameter": "X", "resource": "ext/v"}],
        "external": {"a/x": "1", "ext/v": "2"},
    }))
    (template,) = _compile(doc, overrides=overrides).templates
    assert [s.resource for s in template.slots if isinstance(s, ConsumerSlot)] == consumed


def test_yaml_status_codes_beside_a_default_response():
    """YAML reads ``201:`` as an int and ``default:`` as a str; the 2xx
    schema is still the one whose fields are produced."""
    text = """
swagger: '2.0'
paths:
  /things:
    post:
      responses:
        default:
          schema: {type: object, properties: {error: {type: string}}}
        201:
          schema: {type: object, properties: {id: {type: integer}}}
"""
    (template,) = compile_grammar(parse_spec(text)).templates
    assert produces(template) == {rt("things/id")}


MALFORMED_SHAPES = {
    "properties-list": (
        "    post:\n"
        "      parameters:\n"
        "        - {in: body, name: p, schema: {type: object, properties: [a, b]}}\n"
        "      responses: {200: {}}\n",
        "POST /things: ignoring non-object properties",
    ),
    "required-true": (
        "    post:\n"
        "      parameters:\n"
        "        - {in: body, name: p, schema: {type: object, required: true}}\n"
        "      responses: {200: {}}\n",
        "POST /things: ignoring non-list required",
    ),
    "method-key-not-a-string": (
        "    get: {responses: {200: {}}}\n"
        "    1: {responses: {200: {}}}\n",
        "ignoring unsupported construct '/things'.1",
    ),
}


@pytest.mark.parametrize("shape", MALFORMED_SHAPES, ids=list(MALFORMED_SHAPES))
def test_malformed_schema_shapes_are_warnings(shape, tmp_path, capsys):
    from restfuzz.cli import main

    operations, warning = MALFORMED_SHAPES[shape]
    text = "swagger: '2.0'\npaths:\n  /things:\n" + operations
    assert parse_spec(text).warnings == (warning,)
    spec = tmp_path / "spec.yaml"
    spec.write_text(text)
    assert main(["compile", "--spec", str(spec), "--out", str(tmp_path / "g.json")]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    ("document", "named"),
    [
        ({"consumers": [{"operation": "GET /api/blog/posts/{id}"}]},
         "consumers[0] needs operation, parameter and resource"),
        ({"producers": [{"operation": "POST /api/blog/posts", "resource": "r", "path": "id"}]},
         "producers[0] path must be a JSON list"),
        ({"suppress_producers": ["POST /api/blog/posts"]},
         "suppress_producers[0] needs operation and resource"),
        ({"suppress_consumers": {"operation": "POST /api/blog/posts"}},
         "suppress_consumers must be a JSON list"),
        ({"external": ["posts/id"]}, "external must be a JSON object"),
    ],
    ids=["missing-key", "path-not-a-list", "entry-not-an-object", "section-not-a-list",
         "external-not-an-object"],
)
def test_malformed_override_entries_are_refused_by_name(document, named):
    with pytest.raises(MalformedDocument, match=re.escape(named)):
        AnnotationOverrides.from_json(json.dumps(document))


# ---------------------------------------------------------------------------
# The compiler's output, pinned byte for byte


@pytest.mark.parametrize(
    ("golden", "kwargs"),
    [
        ("blog_grammar.json", {}),
        ("blog_grammar_optional.json", {"include_optional": ("id",)}),
        ("blog_grammar_overrides.json", {"overrides": "blog_overrides.json"}),
    ],
    ids=["plain", "include-optional", "overrides"],
)
def test_bundled_document_compiles_to_its_golden_grammar(blog_model, golden, kwargs):
    """The overrides use all five kinds: a producer added and one suppressed
    (which reverts PUT's checksum to fuzzable), a path and a body consumer
    forced to external values, and a path consumer suppressed."""
    if "overrides" in kwargs:
        kwargs = {"overrides": AnnotationOverrides.from_json((DATA / kwargs["overrides"]).read_text())}
    text = dump_grammar(compile_grammar(blog_model, **kwargs)) + "\n"
    assert text == (DATA / golden).read_text()


def test_grammar_with_derived_keys_loads_to_an_equal_program():
    """A grammar.json that still holds ``declaration_index`` and
    ``resource_types`` loads to the program it was written from."""
    text = (DATA / "blog_grammar_overrides.json").read_text()
    doc = json.loads(text)
    for index, template in enumerate(doc["templates"]):
        template["declaration_index"] = index
    doc["resource_types"] = ["stale/type"]
    loaded = load_grammar(json.dumps(doc))
    assert loaded == load_grammar(text)
    assert dump_grammar(loaded) + "\n" == text


# ---------------------------------------------------------------------------
# Parsing edge cases


def test_undeclared_path_placeholder_synthesized():
    doc = _doc({"/a/{x}": {"get": {"responses": {"200": {}}}}})
    model = parse_spec(__import__("json").dumps(doc))
    assert any("undeclared" in w for w in model.warnings)
    (op,) = model.operations
    assert [p.name for p in op.path_parameters] == ["x"]


def test_path_placeholders_match_declared_names_in_any_case():
    get_one = "GET /api/groups/{groupId}/things/{thingId}"
    doc = _doc(
        {
            "/groups/{groupId}/things/{thingId}": {
                "get": {
                    "parameters": [
                        {"in": "path", "name": "groupid", "type": "string"},
                        {"in": "path", "name": "thingid", "type": "integer"},
                    ],
                    "responses": {"200": {}},
                }
            }
        }
    )
    model = parse_spec(json.dumps(doc))
    assert not model.warnings
    (op,) = model.operations
    assert [(p.name, p.kind) for p in op.path_parameters] == [
        ("groupid", "string"), ("thingid", "integer")
    ]
    # Each placeholder is a resource of the segment before it.
    assert {resource for _, resource in infer_dependencies(model)[1][get_one].values()} == {
        rt("groups/groupid"), rt("things/thingid")
    }
    # With its binding suppressed, a placeholder is fuzzed as declared.
    overrides = AnnotationOverrides.from_json(json.dumps({"suppress_consumers": [
        {"operation": get_one, "parameter": "groupid"},
        {"operation": get_one, "parameter": "thingid"},
    ]}))
    (template,) = compile_grammar(model, overrides).templates
    assert [s for s in template.slots if isinstance(s, FuzzableSlot)][:2] == [
        FuzzableSlot("string"), FuzzableSlot("integer")
    ]


def test_include_optional_name_the_document_lacks_is_refused(blog_model):
    with pytest.raises(CompileError, match="include_optional names nosuch, "):
        compile_grammar(blog_model, include_optional=("id", "nosuch"))


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


@pytest.mark.parametrize("base", ["api", 5])
def test_a_base_path_without_a_leading_slash_gets_one_and_a_warning(base):
    """Swagger 2.0 requires basePath to start with a slash; without one a
    request line would not be in origin form."""
    model = parse_spec(json.dumps(_doc({"/a": {"get": {"responses": {"200": {}}}}}, base=base)))
    assert model.warnings == (f"basePath '{base}' does not start with '/', prepending one",)
    (template,) = compile_grammar(model).templates
    assert template.id == f"GET /{base}/a"
    assert StaticSlot(f"/{base}/a".encode()) in template.slots


def test_a_non_string_host_is_one_warning_and_the_default_host():
    doc = dict(_doc({"/a": {"get": {"responses": {"200": {}}}}}), host={"a": 1})
    model = parse_spec(json.dumps(doc))
    assert model.warnings == ("ignoring non-string host {'a': 1}",)
    assert model.host is None
    (template,) = compile_grammar(model).templates
    assert StaticSlot(f"Host: {compiler.DEFAULT_HOST}\r\n".encode()) in template.slots


@pytest.mark.parametrize("level", ["path", "operation"])
@pytest.mark.parametrize("parameters", ["abc", {"in": "query", "name": "q"}],
                         ids=["string", "object"])
def test_non_list_parameters_are_one_warning(level, parameters):
    """Not one warning per character of a string or key of an object."""
    operation = {"responses": {"200": {}}}
    path_item = {"get": operation}
    (path_item if level == "path" else operation)["parameters"] = parameters
    model = parse_spec(json.dumps(_doc({"/a": path_item})))
    context = "path '/a'" if level == "path" else "GET /api/a"
    assert model.warnings == (f"{context}: ignoring non-list parameters",)
    (op,) = model.operations
    assert op.query_parameters == op.path_parameters == ()


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
    assert first == second
