"""Swagger 2.0 compiler: documents in, executable fuzzing grammars out.

The compiler runs in three stages:

1. :func:`parse_spec` lowers a JSON or YAML document into a resolved
   :class:`SpecModel` (refs inlined, unsupported constructs collected as
   warnings rather than errors).
2. :func:`infer_dependencies` returns the two tables stage 3 emits from:
   per operation, the response fields that are server-created values
   (producers), and the parameters that must be wired from them (consumer
   bindings, keyed by location and lowercased name). A response field
   becomes a producer unless it merely echoes client input: its own
   operation's path parameter, a required field of its own body, or a field
   some operation under the same resource stem both requires in its body and
   echoes back in its response. Path parameters always consume; required
   body fields consume only when something actually produces a matching
   resource type, otherwise they stay fuzzable.
3. :func:`compile_grammar` applies the overrides to those tables in place
   (``suppress_consumers`` removes bindings, then ``consumers`` forces
   others; a forced binding opts its optional parameter or field in, as
   ``include_optional`` would), then emits one request template per
   operation: request line, headers and a compact JSON body skeleton as
   static slots, with fuzzable/consumer slots where values go. Operations
   whose path parameters cannot be satisfied by any producer are excluded
   (iterated to a fixpoint, since dropping an operation can orphan other
   producers) and reported.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from typing import Iterator

import yaml

from .grammar import (
    ConsumerSlot,
    FuzzableSlot,
    GrammarProgram,
    ProducerSpec,
    RequestTemplate,
    ResourceType,
    Slot,
    StaticSlot,
)

logger = logging.getLogger(__name__)

DEFAULT_HOST = "localhost:8888"

_SUPPORTED_METHODS = ("get", "put", "post", "delete", "patch", "head", "options")
_PATH_PARAM_RE = re.compile(r"\{([^{}]+)\}")
_MAX_REF_DEPTH = 8


class CompileError(Exception):
    """Base class for compiler failures."""


class MalformedDocument(CompileError):
    """The input is not a parseable JSON/YAML object."""


class UnsupportedVersion(CompileError):
    """The document is not a Swagger 2.0 description."""


class UnsatisfiableConsumer(CompileError):
    """An override demands a binding no producer or external value satisfies."""


@dataclass(frozen=True)
class Schema:
    """Resolved slice of a body/response schema: just enough to build JSON."""

    type: str
    properties: tuple[tuple[str, "Schema"], ...] = ()
    required: frozenset[str] = frozenset()
    items: "Schema | None" = None


@dataclass(frozen=True)
class Parameter:
    """A path or query parameter."""

    name: str
    required: bool
    kind: str  # string | integer | boolean


@dataclass(frozen=True)
class Operation:
    method: str
    path: str  # includes basePath, keeps {param} placeholders
    op_id: str
    path_parameters: tuple[Parameter, ...]
    query_parameters: tuple[Parameter, ...]
    body_schema: Schema | None
    response_schema: Schema | None
    # Where an override naming a lowercased name binds: a path or query
    # parameter of that name (the later-declared one, if both), else a
    # top-level body field.
    consumer_locations: dict[str, str]


@dataclass(frozen=True)
class SpecModel:
    base_path: str
    host: str | None
    operations: tuple[Operation, ...]
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class AnnotationOverrides:
    """Hand-written corrections applied on top of inference."""

    producers: tuple[tuple[str, str, tuple[str | int, ...]], ...] = ()  # (op, resource, path)
    consumers: tuple[tuple[str, str, str], ...] = ()  # (op, parameter, resource)
    suppress_producers: tuple[tuple[str, str], ...] = ()  # (op, resource)
    suppress_consumers: tuple[tuple[str, str], ...] = ()  # (op, parameter)
    external: tuple[tuple[str, str], ...] = ()  # (resource, constant value)

    @classmethod
    def from_json(cls, text: str) -> "AnnotationOverrides":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MalformedDocument(f"overrides file is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise MalformedDocument("overrides document must be a JSON object")

        def entries(section: str, *keys: str) -> list[list]:
            """Each entry of ``section``, as the list of its ``keys``' values."""
            listed = raw.get(section, [])
            if not isinstance(listed, list):
                raise MalformedDocument(f"overrides {section} must be a JSON list")
            for index, entry in enumerate(listed):
                if not isinstance(entry, dict) or not all(k in entry for k in keys):
                    raise MalformedDocument(
                        f"overrides {section}[{index}] needs {', '.join(keys[:-1])} "
                        f"and {keys[-1]}: {entry!r}"
                    )
            return [[entry[k] for k in keys] for entry in listed]

        def steps(index: int, path) -> tuple[str | int, ...]:
            if not isinstance(path, list):
                raise MalformedDocument(f"overrides producers[{index}] path must be a JSON list")
            return tuple(int(s) if isinstance(s, int) else str(s) for s in path)

        def texts(section: str, *keys: str) -> tuple[tuple[str, ...], ...]:
            return tuple(tuple(map(str, entry)) for entry in entries(section, *keys))

        external = raw.get("external", {})
        if not isinstance(external, dict):
            raise MalformedDocument("overrides external must be a JSON object")
        return cls(
            producers=tuple(
                (str(op), str(resource), steps(index, path))
                for index, (op, resource, path) in enumerate(
                    entries("producers", "operation", "resource", "path")
                )
            ),
            consumers=texts("consumers", "operation", "parameter", "resource"),
            suppress_producers=texts("suppress_producers", "operation", "resource"),
            suppress_consumers=texts("suppress_consumers", "operation", "parameter"),
            external=tuple((str(k), str(v)) for k, v in external.items()),
        )

    def external_values(self) -> dict[ResourceType, str]:
        return {ResourceType(name): value for name, value in self.external}


# --------------------------------------------------------------------------
# Stage 1: parsing


def parse_spec(text: str | bytes) -> SpecModel:
    """Lower a Swagger 2.0 document (JSON or YAML) into a SpecModel."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    doc = _load_document(text)
    version = doc.get("swagger")
    if version != "2.0":
        raise UnsupportedVersion(
            f"expected a Swagger 2.0 document, found version {version!r}"
        )

    warnings: list[str] = []
    definitions = doc.get("definitions") or {}
    if not isinstance(definitions, dict):
        warnings.append("ignoring non-object definitions section")
        definitions = {}
    base_path = str(doc.get("basePath", "") or "")
    if base_path and not base_path.startswith("/"):
        warnings.append(f"basePath {base_path!r} does not start with '/', prepending one")
        base_path = "/" + base_path
    host = doc.get("host") or None
    if host is not None and not isinstance(host, str):
        warnings.append(f"ignoring non-string host {host!r}")
        host = None

    operations: list[Operation] = []
    paths = doc.get("paths")
    if paths is None:
        paths = {}
    if not isinstance(paths, dict):
        raise MalformedDocument("paths section must be an object")
    for raw_path, path_item in paths.items():
        if not isinstance(path_item, dict):
            warnings.append(f"ignoring non-object path item {raw_path!r}")
            continue
        shared_params = _parameter_list(path_item, f"path {raw_path!r}", warnings)
        for method, op_obj in path_item.items():
            if method == "parameters":
                continue
            if not isinstance(method, str) or method.lower() not in _SUPPORTED_METHODS:
                warnings.append(f"ignoring unsupported construct {raw_path!r}.{method}")
                continue
            if not isinstance(op_obj, dict):
                warnings.append(f"ignoring non-object operation {method} {raw_path}")
                continue
            operations.append(_parse_operation(
                method=method,
                raw_path=str(raw_path),
                base_path=base_path,
                op_obj=op_obj,
                shared_params=shared_params,
                definitions=definitions,
                warnings=warnings,
            ))

    return SpecModel(
        base_path=base_path,
        host=host,
        operations=tuple(operations),
        warnings=tuple(warnings),
    )


# libyaml's loader when PyYAML was built with it: it parses the bundled spec
# in 0.7 ms instead of 8.4 ms (2-vCPU VM), to an equal document.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _load_document(text: str) -> dict:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MalformedDocument(f"document is not valid JSON: {exc}") from exc
    else:
        try:
            doc = yaml.load(text, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            raise MalformedDocument(f"document is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedDocument("document root must be an object")
    return doc


def _parameter_list(obj: dict, context: str, warnings: list[str]) -> list:
    """The ``parameters`` list of a path item or operation: a missing or
    null one is empty, and another that is not a list is one warning."""
    raw = obj.get("parameters")
    if raw is None:
        return []
    if not isinstance(raw, list):
        warnings.append(f"{context}: ignoring non-list parameters")
        return []
    return raw


def _join_paths(base_path: str, path: str) -> str:
    base = base_path.rstrip("/")
    if not path.startswith("/"):
        path = "/" + path
    return base + path


def _parse_operation(
    method: str,
    raw_path: str,
    base_path: str,
    op_obj: dict,
    shared_params: list,
    definitions: dict,
    warnings: list[str],
) -> Operation:
    full_path = _join_paths(base_path, raw_path)
    op_id = f"{method.upper()} {full_path}"

    raw_params = shared_params + _parameter_list(op_obj, op_id, warnings)
    params: dict[str, list[Parameter]] = {"path": [], "query": []}
    bodies: list[Schema | None] = []  # the first body parameter is the body
    named: dict[str, str] = {}  # lowercased path/query name -> location
    seen_names: set[tuple[str, str]] = set()
    for rp in raw_params:
        if not isinstance(rp, dict):
            warnings.append(f"{op_id}: ignoring non-object parameter")
            continue
        name = str(rp.get("name", ""))
        location = str(rp.get("in", ""))
        if (location, name.lower()) in seen_names:
            continue
        seen_names.add((location, name.lower()))
        if location == "body":
            bodies.append(_resolve_schema(rp.get("schema"), definitions, warnings, op_id))
        elif location in ("path", "query"):
            kind = _primitive_kind(rp.get("type"), warnings, f"{op_id} parameter {name!r}")
            required = location == "path" or bool(rp.get("required"))
            params[location].append(Parameter(name=name, required=required, kind=kind))
            named[name.lower()] = location
        else:
            warnings.append(f"{op_id}: ignoring unsupported parameter location {location!r}")

    # Every placeholder in the path template must have a parameter entry,
    # matched case-insensitively as parameters are deduplicated.
    declared = {p.name.lower() for p in params["path"]}
    for placeholder in _PATH_PARAM_RE.findall(full_path):
        if placeholder.lower() not in declared:
            warnings.append(
                f"{op_id}: path parameter {placeholder!r} undeclared, assuming string"
            )
            params["path"].append(Parameter(name=placeholder, required=True, kind="string"))
            named[placeholder.lower()] = "path"

    response_schema = _success_response_schema(op_obj.get("responses"), definitions, warnings, op_id)
    body_schema = bodies[0] if bodies else None
    body_fields = body_schema.properties if body_schema else ()

    return Operation(
        method=method.upper(),
        path=full_path,
        op_id=op_id,
        path_parameters=tuple(params["path"]),
        query_parameters=tuple(params["query"]),
        body_schema=body_schema,
        response_schema=response_schema,
        consumer_locations={name.lower(): "body" for name, _ in body_fields} | named,
    )


def _primitive_kind(raw_type, warnings: list[str], context: str) -> str:
    if raw_type in ("string", "integer", "boolean"):
        return raw_type
    if raw_type == "number":
        warnings.append(f"{context}: treating number as integer")
        return "integer"
    warnings.append(f"{context}: unsupported type {raw_type!r}, treating as string")
    return "string"


def _success_response_schema(responses, definitions, warnings, op_id) -> Schema | None:
    if not isinstance(responses, dict):
        return None
    # YAML reads ``201:`` as an int and ``default:`` as a str.
    for status in sorted(responses, key=str):
        code = str(status)
        if len(code) == 3 and code.startswith("2"):
            body = responses[status]
            if isinstance(body, dict) and body.get("schema") is not None:
                return _resolve_schema(body["schema"], definitions, warnings, op_id)
    return None


def _resolve_schema(raw, definitions, warnings, context, depth: int = 0) -> Schema | None:
    if raw is None:
        return None
    if depth > _MAX_REF_DEPTH:
        warnings.append(f"{context}: schema nesting too deep, truncating")
        return None
    if not isinstance(raw, dict):
        warnings.append(f"{context}: ignoring non-object schema")
        return None

    ref = raw.get("$ref") or raw.get("ref")
    if ref:
        target = str(ref)
        for prefix in ("#/definitions/", "/definitions/", "definitions/"):
            if target.startswith(prefix):
                target = target[len(prefix):]
                break
        resolved = definitions.get(target)
        if resolved is None:
            warnings.append(f"{context}: unresolved schema reference {ref!r}")
            return None
        return _resolve_schema(resolved, definitions, warnings, context, depth + 1)

    declared = raw.get("type")
    properties = raw.get("properties")
    if properties is not None or declared == "object":
        if not isinstance(properties, dict):
            if properties is not None:
                warnings.append(f"{context}: ignoring non-object properties")
            properties = {}
        props: list[tuple[str, Schema]] = []
        for name, sub in properties.items():
            sub_schema = _resolve_schema(sub, definitions, warnings, f"{context}.{name}", depth + 1)
            if sub_schema is not None:
                props.append((str(name), sub_schema))
        required = raw.get("required") or []
        if not isinstance(required, list):
            warnings.append(f"{context}: ignoring non-list required")
            required = []
        return Schema(
            type="object",
            properties=tuple(props),
            required=frozenset(str(r) for r in required),
        )
    if declared == "array" or raw.get("items") is not None:
        items = _resolve_schema(raw.get("items"), definitions, warnings, f"{context}[]", depth + 1)
        return Schema(type="array", items=items)
    if declared in ("string", "integer", "boolean"):
        return Schema(type=declared)
    if declared == "number":
        warnings.append(f"{context}: treating number as integer")
        return Schema(type="integer")
    warnings.append(f"{context}: unsupported schema type {declared!r}, treating as string")
    return Schema(type="string")


# --------------------------------------------------------------------------
# Stage 2: dependency inference


def _static_segments(path: str) -> list[str]:
    return [seg for seg in path.split("/") if seg and not _PATH_PARAM_RE.fullmatch(seg)]


def _stem_for_fields(path: str) -> str:
    """Resource stem naming values found in an operation's body/response."""
    segments = _static_segments(path)
    return segments[-1].lower() if segments else "root"


def _stem_for_path_param(path: str, param_name: str) -> str:
    """Resource stem for a path parameter: last static segment before it."""
    last_static = None
    for seg in (s for s in path.split("/") if s):
        match = _PATH_PARAM_RE.fullmatch(seg)
        if match and match.group(1).lower() == param_name.lower():
            break
        if not match:
            last_static = seg
    return last_static.lower() if last_static else _stem_for_fields(path)


def _response_fields(op: Operation) -> tuple[tuple[str, Schema], ...]:
    schema = op.response_schema
    if schema is None or schema.type != "object":
        return ()
    return schema.properties


def _required_body_fields(op: Operation) -> frozenset[str]:
    schema = op.body_schema
    if schema is None or schema.type != "object":
        return frozenset()
    return frozenset(name.lower() for name in schema.required)


# Per operation id: its consumer bindings by (location, lowercased name),
# each the parameter's or field's name and the resource type it consumes.
Bindings = dict[str, dict[tuple[str, str], tuple[str, ResourceType]]]


def infer_dependencies(
    model: SpecModel,
) -> tuple[dict[str, list[ProducerSpec]], Bindings]:
    """Derive the producers and the consumer bindings of every operation,
    the two tables ``compile_grammar`` emits from.

    Producers never depend on consumer decisions, so inference is two
    passes with no fixpoint.
    """
    per_op = [(op, _stem_for_fields(op.path), _required_body_fields(op)) for op in model.operations]

    # Fields that originate with the client under each stem: some operation
    # requires them as body input and echoes them back in its own response.
    client_originating: dict[str, set[str]] = {}
    for op, stem, own_required in per_op:
        echoes = own_required & {name.lower() for name, _ in _response_fields(op)}
        client_originating.setdefault(stem, set()).update(echoes)

    producers: dict[str, list[ProducerSpec]] = {}
    for op, stem, own_required in per_op:
        own_path_params = {p.name.lower() for p in op.path_parameters}
        specs: list[ProducerSpec] = []
        for name, _sub in _response_fields(op):
            lowered = name.lower()
            if lowered in own_path_params:
                continue  # echo of the operation's own address
            if lowered in own_required:
                continue  # echo of what the client just sent
            if lowered in client_originating[stem]:
                continue  # some operation under this stem authors the field
            specs.append(
                ProducerSpec(ResourceType(f"{stem}/{lowered}"), (name,))
            )
        producers[op.op_id] = specs

    produced = {p.resource for specs in producers.values() for p in specs}

    bindings: Bindings = {}
    for op, stem, _ in per_op:
        table = bindings[op.op_id] = {
            ("path", param.name.lower()): (
                param.name,
                ResourceType(f"{_stem_for_path_param(op.path, param.name)}/{param.name.lower()}"),
            )
            for param in op.path_parameters
        }
        schema = op.body_schema
        if schema is not None and schema.type == "object":
            for name, _sub in schema.properties:
                if name not in schema.required:
                    continue
                resource = ResourceType(f"{stem}/{name.lower()}")
                if resource in produced:
                    table["body", name.lower()] = (name, resource)
                # otherwise the field stays fuzzable

    return producers, bindings


# --------------------------------------------------------------------------
# Stage 3: emission


def compile_grammar(
    model: SpecModel,
    overrides: AnnotationOverrides | None = None,
    host: str | None = None,
    include_optional: tuple[str, ...] = (),
) -> GrammarProgram:
    """Emit a grammar program for the model.

    ``host`` fills the Host header (falling back to the document's host
    field, then a localhost default). ``include_optional`` names optional
    parameters/fields to fuzz; everything optional is otherwise omitted. A
    name that no query parameter or body field (at any depth) of the
    document has is a CompileError, as it would change nothing.
    """
    overrides = overrides or AnnotationOverrides()
    ops = {op.op_id: op for op in model.operations}
    _check_override_targets(ops, overrides)
    host_value = host or model.host or DEFAULT_HOST
    include_lc = frozenset(n.lower() for n in include_optional)
    optional_names: set[str] = set()
    for op in model.operations:
        optional_names.update(p.name.lower() for p in op.query_parameters)
        optional_names.update(_field_names(op.body_schema))
    if unknown := sorted(include_lc - optional_names):
        raise CompileError(
            f"include_optional names {', '.join(unknown)}, which no query parameter "
            "or body field of the document has"
        )
    external = overrides.external_values()

    producers, bindings = infer_dependencies(model)
    for op_id, resource, path in overrides.producers:
        producers[op_id].append(ProducerSpec(ResourceType(resource), tuple(path)))
    for op_id, resource in overrides.suppress_producers:
        rt = ResourceType(resource)
        producers[op_id] = [p for p in producers[op_id] if p.resource != rt]

    # Each operation's consumer bindings: the inferred ones, less the
    # suppressed names, then the forced ones.
    for op_id, name in overrides.suppress_consumers:
        bindings[op_id] = {k: b for k, b in bindings[op_id].items() if k[1] != name.lower()}
    for op_id, name, resource in overrides.consumers:
        location = ops[op_id].consumer_locations[name.lower()]
        bindings[op_id][location, name.lower()] = (name, ResourceType(resource))

    # Exclude operations whose path parameters nothing can satisfy; iterate,
    # because dropping an operation drops its producers too. The pass that
    # changes nothing leaves ``produced`` as what the kept operations produce.
    excluded: dict[str, str] = {}
    unsatisfiable: set[ResourceType] = set()
    while True:
        produced = set(external)
        for op_id, specs in producers.items():
            if op_id not in excluded:
                produced |= {p.resource for p in specs}
        changed = False
        for op in model.operations:
            if op.op_id in excluded:
                continue
            for (location, _), (name, resource) in bindings[op.op_id].items():
                if location == "path" and resource not in produced:
                    excluded[op.op_id] = (
                        f"path parameter {name!r} needs {resource} which nothing produces"
                    )
                    unsatisfiable.add(resource)
                    changed = True
                    break
        if not changed:
            break

    for op_id, name, resource in overrides.consumers:
        rt = ResourceType(resource)
        if rt not in produced:
            raise UnsatisfiableConsumer(
                f"override binds {op_id} parameter {name!r} to {rt}, "
                "which nothing produces and no external value supplies"
            )

    for op_id, reason in excluded.items():
        logger.warning("excluding operation %s: %s", op_id, reason)
    for warning in model.warnings:
        logger.warning("%s", warning)

    # A kept operation's path bindings are all produced. A body binding an
    # exclusion above left without its producer reverts to fuzzable.
    templates = tuple(
        _build_template(
            op=op,
            host=host_value,
            producers=tuple(producers[op.op_id]),
            bindings={
                key: resource
                for key, (_, resource) in bindings[op.op_id].items()
                if resource in produced
            },
            include_lc=include_lc,
        )
        for op in model.operations
        if op.op_id not in excluded
    )
    return GrammarProgram(
        templates=templates,
        unsatisfiable=frozenset(unsatisfiable),
        excluded_operations=tuple(sorted(excluded.items())),
        external_values=external,
    )


def _check_override_targets(ops: dict[str, Operation], overrides: AnnotationOverrides) -> None:
    """Refuse an override that names an operation, or a consumer parameter
    of one (a path or query parameter or a top-level body field), that the
    document does not have: it would change nothing."""
    named = [(op_id, None) for op_id, *_ in overrides.producers + overrides.suppress_producers]
    consumers = overrides.consumers + overrides.suppress_consumers
    named += [(op_id, name) for op_id, name, *_ in consumers]
    for op_id, name in named:
        if op_id not in ops:
            raise CompileError(f"override names operation {op_id!r}, which the document lacks")
        if name is not None and name.lower() not in ops[op_id].consumer_locations:
            raise CompileError(f"override names parameter {name!r} of {op_id}, which it lacks")


def _field_names(schema: Schema | None) -> Iterator[str]:
    """The lowercased property names of ``schema``, at any depth."""
    if schema is None:
        return
    for name, sub in schema.properties:
        yield name.lower()
        yield from _field_names(sub)
    yield from _field_names(schema.items)


def _build_template(
    op: Operation,
    host: str,
    producers: tuple[ProducerSpec, ...],
    bindings: dict[tuple[str, str], ResourceType],
    include_lc: frozenset[str],
) -> RequestTemplate:
    """``bindings`` maps (location, lowercased name) to the resource type a
    parameter or top-level body field consumes; a bound optional one is
    emitted as if ``include_lc`` named it."""
    slots: list[Slot] = [StaticSlot(f"{op.method} ".encode())]

    param_kinds = {p.name.lower(): p.kind for p in op.path_parameters}
    for kind, chunk in _split_path(op.path):
        if kind == "static":
            slots.append(StaticSlot(chunk.encode()))
        elif (bound := bindings.get(("path", chunk.lower()))) is not None:
            slots.append(ConsumerSlot(bound))
        else:
            slots.append(FuzzableSlot(param_kinds[chunk.lower()]))

    active_query = [
        p
        for p in op.query_parameters
        if p.required or p.name.lower() in include_lc or ("query", p.name.lower()) in bindings
    ]
    for i, param in enumerate(active_query):
        sep = "?" if i == 0 else "&"
        slots.append(StaticSlot(f"{sep}{param.name}=".encode()))
        bound = bindings.get(("query", param.name.lower()))
        if bound is not None:
            slots.append(ConsumerSlot(bound))
        else:
            slots.append(FuzzableSlot(param.kind))

    slots.append(StaticSlot(b" HTTP/1.1\r\n"))
    slots.append(StaticSlot(b"Accept: application/json\r\n"))
    slots.append(StaticSlot(b"Content-Type: application/json\r\n"))
    slots.append(StaticSlot(f"Host: {host}\r\n".encode()))

    body_start = len(slots)
    schema = op.body_schema
    if schema is not None:
        body_slots, skipped = _object_slots(schema, bindings, include_lc, depth=0)
        for message in skipped:
            logger.warning("%s: %s", op.op_id, message)
        slots.extend(body_slots)

    return RequestTemplate(
        id=op.op_id,
        method=op.method,
        slots=tuple(slots),
        producers=producers,
        body_start=body_start if schema is not None else len(slots),
    )


def _split_path(path: str) -> list[tuple[str, str]]:
    """Split a path template into static chunks and parameter names."""
    parts: list[tuple[str, str]] = []
    cursor = 0
    for match in _PATH_PARAM_RE.finditer(path):
        if match.start() > cursor:
            parts.append(("static", path[cursor : match.start()]))
        parts.append(("param", match.group(1)))
        cursor = match.end()
    if cursor < len(path):
        parts.append(("static", path[cursor:]))
    return parts


def _object_slots(
    schema: Schema,
    bindings: dict[tuple[str, str], ResourceType],
    include_lc: frozenset[str],
    depth: int,
) -> tuple[list[Slot], list[str]]:
    """Compact JSON object skeleton; returns (slots, skip warnings)."""
    skipped: list[str] = []
    groups: list[list[Slot]] = []
    for name, sub in schema.properties:
        opted_in = name.lower() in include_lc or (depth == 0 and ("body", name.lower()) in bindings)
        if name not in schema.required and not opted_in:
            continue
        value, why = _value_slots(name, sub, bindings, include_lc, depth + 1)
        if value is None:
            skipped.append(why or f"skipping field {name!r}")
            continue
        groups.append([StaticSlot(f'"{name}":'.encode())] + value)

    slots: list[Slot] = [StaticSlot(b"{")]
    for i, group in enumerate(groups):
        if i:
            slots.append(StaticSlot(b","))
        slots.extend(group)
    slots.append(StaticSlot(b"}"))
    return slots, skipped


def _value_slots(
    name: str,
    schema: Schema,
    bindings: dict[tuple[str, str], ResourceType],
    include_lc: frozenset[str],
    depth: int,
) -> tuple[list[Slot] | None, str | None]:
    bound = bindings.get(("body", name.lower())) if depth == 1 else None
    if bound is not None:
        inner: Slot = ConsumerSlot(bound)
        if schema.type == "string":
            return [StaticSlot(b'"'), inner, StaticSlot(b'"')], None
        return [inner], None

    if schema.type == "string":
        return [StaticSlot(b'"'), FuzzableSlot("string"), StaticSlot(b'"')], None
    if schema.type in ("integer", "boolean"):
        return [FuzzableSlot(schema.type)], None
    if schema.type == "object":
        if depth > 1:
            return None, f"skipping field {name!r}: object nesting deeper than one level"
        slots, skipped = _object_slots(schema, bindings, include_lc, depth)
        if skipped:
            return None, f"skipping field {name!r}: {'; '.join(skipped)}"
        return slots, None
    if schema.type == "array":
        if schema.items is None:
            return [StaticSlot(b"[]")], None
        if depth > 2:
            return None, f"skipping field {name!r}: array nesting deeper than supported"
        item, why = _value_slots(name, schema.items, bindings, include_lc, depth + 1)
        if item is None:
            return None, why
        return [StaticSlot(b"[")] + item + [StaticSlot(b"]")], None
    return None, f"skipping field {name!r}: unsupported value shape {schema.type!r}"
