"""Grammar model: rendering enumeration, assembly, serialization."""

from __future__ import annotations

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restfuzz.grammar import (
    ConsumerSlot,
    FuzzableSlot,
    FuzzingDictionary,
    GrammarError,
    GrammarProgram,
    MissingDictionaryKind,
    ProducerSpec,
    RenderedRequest,
    RequestTemplate,
    ResourceType,
    StaticSlot,
    dump_grammar,
    load_grammar,
    render_combinations,
)


def template_of(*slots, body_start=-1, tid="T /x", method="GET", producers=()):
    return RequestTemplate(
        id=tid, method=method, slots=tuple(slots), producers=tuple(producers),
        body_start=body_start,
    )


class TestResourceType:
    def test_normalization(self):
        assert ResourceType("Posts/Id").name == "posts/id"
        assert ResourceType(" posts//id/ ").name == "posts/id"
        assert ResourceType("posts/id") == ResourceType("POSTS/ID")

    def test_empty_rejected(self):
        with pytest.raises(GrammarError):
            ResourceType("///")


class TestDictionary:
    def test_default_values(self):
        d = FuzzingDictionary.default()
        assert d.candidates("string") == ("sampleString", "")
        assert d.candidates("integer") == ("0", "1")
        assert d.candidates("boolean") == ("true", "false")

    def test_missing_kind(self):
        d = FuzzingDictionary({"string": ("a",)})
        with pytest.raises(MissingDictionaryKind):
            d.candidates("integer")

    def test_duplicates_rejected(self):
        with pytest.raises(GrammarError):
            FuzzingDictionary({"string": ("a", "a")})

    def test_json_round_trip(self):
        d = FuzzingDictionary({"string": ("x", ""), "integer": ("7",)})
        assert FuzzingDictionary.from_json(d.to_json()) == d


class TestRendering:
    """Enumeration order oracle: expected outputs written out by hand."""

    def test_cross_product_order_frozen(self):
        # Two fuzzable slots: values must run slot-major, dictionary-minor.
        d = FuzzingDictionary({"string": ("s0", "s1"), "integer": ("i0", "i1")})
        t = template_of(
            StaticSlot(b"A "), FuzzableSlot("string"), StaticSlot(b" B "),
            FuzzableSlot("integer"), StaticSlot(b"\r\n"),
        )
        rendered = render_combinations(t, d)
        assembled = [r.assemble({}) for r in rendered]
        assert assembled == [
            b"A s0 B i0\r\n\r\n",
            b"A s0 B i1\r\n\r\n",
            b"A s1 B i0\r\n\r\n",
            b"A s1 B i1\r\n\r\n",
        ]
        assert [r.rendering_index for r in rendered] == [0, 1, 2, 3]

    def test_cap_keeps_prefix(self):
        # 2*2*2 = 8 combinations; cap 5 must keep exactly the first five.
        d = FuzzingDictionary({"boolean": ("t", "f")})
        t = template_of(
            FuzzableSlot("boolean"), FuzzableSlot("boolean"), FuzzableSlot("boolean"),
        )
        full = [r.assemble({}) for r in render_combinations(t, d, cap=1000)]
        capped = [r.assemble({}) for r in render_combinations(t, d, cap=5)]
        assert len(full) == 8
        assert capped == full[:5]
        assert capped[0] == b"ttt\r\n" and capped[4] == b"ftt\r\n"

    def test_no_fuzzables_is_one_rendering(self):
        t = template_of(StaticSlot(b"GET / HTTP/1.1\r\n"))
        assert len(render_combinations(t, FuzzingDictionary.default())) == 1

    def test_missing_kind_raises(self):
        t = template_of(FuzzableSlot("integer"))
        with pytest.raises(MissingDictionaryKind):
            render_combinations(t, FuzzingDictionary({"string": ("a",)}))

    def test_bad_cap(self):
        t = template_of(StaticSlot(b"x"))
        with pytest.raises(GrammarError):
            render_combinations(t, FuzzingDictionary.default(), cap=0)

    @given(
        slot_count=st.integers(min_value=0, max_value=4),
        dict_size=st.integers(min_value=1, max_value=4),
        cap=st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=60)
    def test_count_matches_brute_force(self, slot_count, dict_size, cap):
        """Rendering count == min(product of dictionary sizes, cap)."""
        d = FuzzingDictionary({"string": tuple(f"v{i}" for i in range(dict_size))})
        slots = []
        for _ in range(slot_count):
            slots.append(FuzzableSlot("string"))
            slots.append(StaticSlot(b"/"))
        slots.append(StaticSlot(b"end"))
        t = template_of(*slots)
        expected = list(
            itertools.product(*[d.candidates("string") for _ in range(slot_count)])
        )
        rendered = render_combinations(t, d, cap=cap)
        assert len(rendered) == min(len(expected), cap)
        # determinism: same inputs, same output
        again = render_combinations(t, d, cap=cap)
        assert [r.assemble({}) for r in rendered] == [r.assemble({}) for r in again]


class TestAssemble:
    def test_body_gets_content_length(self):
        t = template_of(
            StaticSlot(b"POST /p HTTP/1.1\r\n"), StaticSlot(b"Host: h\r\n"),
            StaticSlot(b'{"v":'), FuzzableSlot("integer"), StaticSlot(b"}"),
            body_start=2,
        )
        req = render_combinations(t, FuzzingDictionary.default())[0].assemble({})
        head, _, body = req.partition(b"\r\n\r\n")
        assert body == b'{"v":0}'
        assert b"Content-Length: 7" in head

    def test_no_body_no_content_length(self):
        t = template_of(StaticSlot(b"GET /p HTTP/1.1\r\n"), StaticSlot(b"Host: h\r\n"))
        req = render_combinations(t, FuzzingDictionary.default())[0].assemble({})
        assert req == b"GET /p HTTP/1.1\r\nHost: h\r\n\r\n"

    def test_same_type_consumers_bind_one_value(self):
        rt = ResourceType("posts/id")
        t = template_of(
            StaticSlot(b"PUT /p/"), ConsumerSlot(rt), StaticSlot(b" HTTP/1.1\r\n"),
            StaticSlot(b'{"id":'), ConsumerSlot(rt), StaticSlot(b"}"),
            body_start=3,
        )
        rendered = render_combinations(t, FuzzingDictionary.default())[0]
        assert rendered.consumer_resources() == (rt,)
        req = rendered.assemble({rt: b"41"})
        assert b"PUT /p/41 HTTP/1.1" in req
        assert req.endswith(b'{"id":41}')

    def test_unresolved_consumer_raises(self):
        t = template_of(StaticSlot(b"GET /"), ConsumerSlot(ResourceType("a/b")))
        rendered = render_combinations(t, FuzzingDictionary.default())[0]
        with pytest.raises(GrammarError):
            rendered.assemble({})


def reference_assemble(rendered: RenderedRequest, consumer_values) -> bytes:
    """``RenderedRequest.assemble`` as first written: join every part on
    each call."""
    filled = []
    for part in rendered.parts:
        if isinstance(part, ConsumerSlot):
            try:
                filled.append(consumer_values[part.resource])
            except KeyError:
                raise GrammarError(f"no value supplied for consumer {part.resource}") from None
        else:
            filled.append(part)
    head = b"".join(filled[: rendered.body_start])
    body = b"".join(filled[rendered.body_start :])
    if rendered.has_body:
        head += b"Content-Length: %d\r\n" % len(body)
    return head + b"\r\n" + body


RESOURCES = [ResourceType(name) for name in ("posts/id", "posts/checksum", "users/id")]


@st.composite
def renderings_and_values(draw):
    parts = draw(
        st.lists(st.one_of(st.binary(max_size=8), st.sampled_from(RESOURCES).map(ConsumerSlot)),
                 min_size=1, max_size=10)
    )
    body_start = draw(st.integers(0, len(parts)))
    rendered = RenderedRequest("T /x", 0, tuple(parts), body_start)
    values = draw(st.dictionaries(st.sampled_from(RESOURCES), st.binary(max_size=6)))
    return rendered, values


@settings(max_examples=400, deadline=None)
@given(renderings_and_values())
def test_assemble_matches_the_reference_join(case):
    rendered, values = case
    try:
        expected = reference_assemble(rendered, values)
    except GrammarError as exc:
        with pytest.raises(GrammarError, match=re.escape(str(exc))):
            rendered.assemble(values)
    else:
        assert rendered.assemble(values) == expected
        assert rendered.assemble(values) == expected  # and again, from what is kept
        if not rendered.consumer_resources():
            assert rendered.assemble({}) is rendered.assemble(values)  # built once
    consumed = [p.resource for p in rendered.parts if isinstance(p, ConsumerSlot)]
    assert rendered.consumer_resources() == tuple(dict.fromkeys(consumed))


class TestProgram:
    def test_consumed_must_be_produced(self):
        consumer = template_of(
            StaticSlot(b"GET /"), ConsumerSlot(ResourceType("a/b")), tid="GET /a/{b}"
        )
        with pytest.raises(GrammarError, match="unproduced"):
            GrammarProgram(templates=(consumer,))

    def test_external_values_count_as_produced(self):
        consumer = template_of(
            StaticSlot(b"GET /"), ConsumerSlot(ResourceType("a/b")), tid="GET /a/{b}"
        )
        program = GrammarProgram(
            templates=(consumer,), external_values={ResourceType("a/b"): "fixed"}
        )
        assert program.template_by_id("GET /a/{b}") is consumer

    def test_template_by_id_returns_the_template_or_raises_key_error(self):
        a = template_of(StaticSlot(b"GET /a"), tid="GET /a")
        b = template_of(StaticSlot(b"GET /b"), tid="GET /b")
        program = GrammarProgram(templates=(a, b))
        assert program.template_by_id("GET /a") is a
        assert program.template_by_id("GET /b") is b
        with pytest.raises(KeyError):
            program.template_by_id("GET /c")
        # The lookup table is not part of the program's value.
        assert program == GrammarProgram(templates=(a, b))

    def test_duplicate_ids_rejected(self):
        t = template_of(StaticSlot(b"x"), tid="GET /same")
        with pytest.raises(GrammarError):
            GrammarProgram(templates=(t, t))

    def test_without_dependencies_degrades_consumers(self):
        producer = template_of(
            StaticSlot(b"POST /a\r\n"), tid="POST /a",
            producers=[ProducerSpec(ResourceType("a/b"), ("b",))],
        )
        consumer = template_of(
            StaticSlot(b"GET /a/"), ConsumerSlot(ResourceType("a/b")), tid="GET /a/{b}"
        )
        stripped = GrammarProgram(templates=(producer, consumer)).without_dependencies()
        slots = stripped.template_by_id("GET /a/{b}").slots
        assert slots == (StaticSlot(b"GET /a/"), FuzzableSlot("string"))


def test_serialization_round_trip(blog_model):
    from restfuzz.compiler import compile_grammar

    program = compile_grammar(blog_model, host="h:1")
    loaded = load_grammar(dump_grammar(program))
    assert loaded.templates == program.templates
    assert loaded.resource_types == program.resource_types
    assert loaded.external_values == program.external_values
    d = FuzzingDictionary.default()
    for before, after in zip(program.templates, loaded.templates):
        old = [r.parts for r in render_combinations(before, d)]
        new = [r.parts for r in render_combinations(after, d)]
        assert old == new


def test_load_rejects_garbage():
    from restfuzz.grammar import GrammarFormatError

    with pytest.raises(GrammarFormatError):
        load_grammar("not json at all {{{")
    with pytest.raises(GrammarFormatError):
        load_grammar('{"format": "something-else/9", "templates": []}')
