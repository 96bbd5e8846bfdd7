"""Swagger 2.0 compiler: documents in, executable fuzzing grammars out.

The compiler runs in three stages:

1. :func:`parse_spec` lowers a JSON or YAML document into a resolved
   :class:`SpecModel` (refs inlined, unsupported constructs collected as
   warnings rather than errors).
2. :func:`infer_dependencies` decides which response fields are
   server-created values (producers) and which parameters must be wired from
   them (consumers). A response field becomes a producer unless it merely
   echoes client input: its own operation's path parameter, a required field
   of its own body, or a field some operation under the same resource stem
   both requires in its body and echoes back in its response. Path parameters
   always consume; required body fields consume only when something actually
   produces a matching resource type, otherwise they stay fuzzable.
3. :func:`compile_grammar` emits one request template per operation: request
   line, headers and a compact JSON body skeleton as static slots, with
   fuzzable/consumer slots where values go. Operations whose path parameters
   cannot be satisfied by any producer are excluded (iterated to a fixpoint,
   since dropping an operation can orphan other producers) and reported.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field

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
    name: str
    location: str  # path | query | body
    required: bool
    kind: str | None = None  # declared primitive type for path/query
    schema: Schema | None = None  # body parameters only


@dataclass(frozen=True)
class Operation:
    method: str
    path: str  # includes basePath, keeps {param} placeholders
    op_id: str
    parameters: tuple[Parameter, ...]
    response_schema: Schema | None
    declaration_index: int

    @property
    def path_parameters(self) -> tuple[Parameter, ...]:
        return tuple(p for p in self.parameters if p.location == "path")

    @property
    def query_parameters(self) -> tuple[Parameter, ...]:
        return tuple(p for p in self.parameters if p.location == "query")

    @property
    def body_schema(self) -> Schema | None:
        for p in self.parameters:
            if p.location == "body":
                return p.schema
        return None


@dataclass(frozen=True)
class SpecModel:
    base_path: str
    host: str | None
    operations: tuple[Operation, ...]
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class ConsumerBinding:
    location: str  # path | body | query
    name: str
    resource: ResourceType


@dataclass(frozen=True)
class DependencyMap:
    producers: dict[str, tuple[ProducerSpec, ...]]
    consumers: dict[str, tuple[ConsumerBinding, ...]]


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

        def _steps(path) -> tuple[str | int, ...]:
            return tuple(int(s) if isinstance(s, int) else str(s) for s in path)

        return cls(
            producers=tuple(
                (str(e["operation"]), str(e["resource"]), _steps(e["path"]))
                for e in raw.get("producers", ())
            ),
            consumers=tuple(
                (str(e["operation"]), str(e["parameter"]), str(e["resource"]))
                for e in raw.get("consumers", ())
            ),
            suppress_producers=tuple(
                (str(e["operation"]), str(e["resource"]))
                for e in raw.get("suppress_producers", ())
            ),
            suppress_consumers=tuple(
                (str(e["operation"]), str(e["parameter"]))
                for e in raw.get("suppress_consumers", ())
            ),
            external=tuple(
                (str(k), str(v)) for k, v in raw.get("external", {}).items()
            ),
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
    host = doc.get("host")
    host = str(host) if host else None

    operations: list[Operation] = []
    paths = doc.get("paths")
    if paths is None:
        paths = {}
    if not isinstance(paths, dict):
        raise MalformedDocument("paths section must be an object")
    index = 0
    for raw_path, path_item in paths.items():
        if not isinstance(path_item, dict):
            warnings.append(f"ignoring non-object path item {raw_path!r}")
            continue
        shared_params = path_item.get("parameters", [])
        for method, op_obj in path_item.items():
            if method == "parameters":
                continue
            if method.lower() not in _SUPPORTED_METHODS:
                warnings.append(f"ignoring unsupported construct {raw_path!r}.{method}")
                continue
            if not isinstance(op_obj, dict):
                warnings.append(f"ignoring non-object operation {method} {raw_path}")
                continue
            op = _parse_operation(
                method=method,
                raw_path=str(raw_path),
                base_path=base_path,
                op_obj=op_obj,
                shared_params=shared_params,
                definitions=definitions,
                warnings=warnings,
                index=index,
            )
            operations.append(op)
            index += 1

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
    shared_params,
    definitions: dict,
    warnings: list[str],
    index: int,
) -> Operation:
    full_path = _join_paths(base_path, raw_path)
    op_id = f"{method.upper()} {full_path}"

    raw_params = list(shared_params or []) + list(op_obj.get("parameters") or [])
    parameters: list[Parameter] = []
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
            schema = _resolve_schema(rp.get("schema"), definitions, warnings, op_id)
            parameters.append(
                Parameter(name=name, location="body", required=bool(rp.get("required")), schema=schema)
            )
        elif location in ("path", "query"):
            kind = _primitive_kind(rp.get("type"), warnings, f"{op_id} parameter {name!r}")
            parameters.append(
                Parameter(
                    name=name,
                    location=location,
                    required=True if location == "path" else bool(rp.get("required")),
                    kind=kind,
                )
            )
        else:
            warnings.append(f"{op_id}: ignoring unsupported parameter location {location!r}")

    # Every placeholder in the path template must have a parameter entry.
    declared = {p.name for p in parameters if p.location == "path"}
    for placeholder in _PATH_PARAM_RE.findall(full_path):
        if placeholder not in declared:
            warnings.append(
                f"{op_id}: path parameter {placeholder!r} undeclared, assuming string"
            )
            parameters.append(
                Parameter(name=placeholder, location="path", required=True, kind="string")
            )

    response_schema = _success_response_schema(op_obj.get("responses"), definitions, warnings, op_id)

    return Operation(
        method=method.upper(),
        path=full_path,
        op_id=op_id,
        parameters=tuple(parameters),
        response_schema=response_schema,
        declaration_index=index,
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
    for status in sorted(responses):
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
        props: list[tuple[str, Schema]] = []
        for name, sub in (properties or {}).items():
            sub_schema = _resolve_schema(sub, definitions, warnings, f"{context}.{name}", depth + 1)
            if sub_schema is not None:
                props.append((str(name), sub_schema))
        required = raw.get("required") or ()
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
        if match and match.group(1) == param_name:
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


def infer_dependencies(model: SpecModel) -> DependencyMap:
    """Derive producer and consumer annotations for every operation.

    Producers never depend on consumer decisions, so inference is two
    passes with no fixpoint.
    """
    # Fields that originate with the client under each stem: some operation
    # requires them as body input and echoes them back in its own response.
    client_originating: dict[str, set[str]] = {}
    for op in model.operations:
        stem = _stem_for_fields(op.path)
        echoes = _required_body_fields(op) & {
            name.lower() for name, _ in _response_fields(op)
        }
        client_originating.setdefault(stem, set()).update(echoes)

    producers: dict[str, tuple[ProducerSpec, ...]] = {}
    for op in model.operations:
        stem = _stem_for_fields(op.path)
        own_path_params = {p.name.lower() for p in op.path_parameters}
        own_required = _required_body_fields(op)
        specs: list[ProducerSpec] = []
        for name, _sub in _response_fields(op):
            lowered = name.lower()
            if lowered in own_path_params:
                continue  # echo of the operation's own address
            if lowered in own_required:
                continue  # echo of what the client just sent
            if lowered in client_originating.get(stem, ()):
                continue  # some operation under this stem authors the field
            specs.append(
                ProducerSpec(ResourceType(f"{stem}/{lowered}"), (name,))
            )
        producers[op.op_id] = tuple(specs)

    produced: set[ResourceType] = set()
    for specs in producers.values():
        produced |= {p.resource for p in specs}

    consumers: dict[str, tuple[ConsumerBinding, ...]] = {}
    for op in model.operations:
        stem = _stem_for_fields(op.path)
        bindings: list[ConsumerBinding] = []
        for param in op.path_parameters:
            resource = ResourceType(
                f"{_stem_for_path_param(op.path, param.name)}/{param.name.lower()}"
            )
            bindings.append(ConsumerBinding("path", param.name, resource))
        schema = op.body_schema
        if schema is not None and schema.type == "object":
            for name, _sub in schema.properties:
                if name not in schema.required:
                    continue
                resource = ResourceType(f"{stem}/{name.lower()}")
                if resource in produced:
                    bindings.append(ConsumerBinding("body", name, resource))
                # otherwise the field stays fuzzable
        consumers[op.op_id] = tuple(bindings)

    return DependencyMap(producers=producers, consumers=consumers)


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
    parameters/fields to fuzz; everything optional is otherwise omitted.
    """
    overrides = overrides or AnnotationOverrides()
    host_value = host or model.host or DEFAULT_HOST
    include_lc = frozenset(n.lower() for n in include_optional)
    external = overrides.external_values()

    deps = infer_dependencies(model)
    producers = {op: list(specs) for op, specs in deps.producers.items()}

    for op_id, resource, path in overrides.producers:
        producers.setdefault(op_id, []).append(
            ProducerSpec(ResourceType(resource), tuple(path))
        )
    for op_id, resource in overrides.suppress_producers:
        rt = ResourceType(resource)
        producers[op_id] = [p for p in producers.get(op_id, []) if p.resource != rt]

    suppressed = {(op_id, name.lower()) for op_id, name in overrides.suppress_consumers}
    forced: dict[tuple[str, str], ResourceType] = {
        (op_id, name.lower()): ResourceType(resource)
        for op_id, name, resource in overrides.consumers
    }

    # Exclude operations whose path parameters nothing can satisfy; iterate,
    # because dropping an operation drops its producers too. The pass that
    # changes nothing leaves ``produced`` as what the kept operations produce.
    ops = {op.op_id: op for op in model.operations}
    excluded: dict[str, str] = {}
    unsatisfiable: set[ResourceType] = set()
    while True:
        produced = set(external)
        for op_id, specs in producers.items():
            if op_id not in excluded and op_id in ops:
                produced |= {p.resource for p in specs}
        changed = False
        for op in model.operations:
            if op.op_id in excluded:
                continue
            for binding in deps.consumers[op.op_id]:
                if binding.location != "path":
                    continue
                key = (op.op_id, binding.name.lower())
                if key in suppressed:
                    continue
                resource = forced.get(key, binding.resource)
                if resource not in produced:
                    excluded[op.op_id] = (
                        f"path parameter {binding.name!r} needs {resource} "
                        "which nothing produces"
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

    templates: list[RequestTemplate] = []
    declaration = 0
    for op in model.operations:
        if op.op_id in excluded:
            continue
        body_bindings: dict[str, ResourceType] = {}
        path_bindings: dict[str, ResourceType] = {}
        query_bindings: dict[str, ResourceType] = {}
        for binding in deps.consumers[op.op_id]:
            key = (op.op_id, binding.name.lower())
            if key in suppressed:
                continue
            resource = forced.get(key, binding.resource)
            if binding.location == "path":
                path_bindings[binding.name] = resource
            elif binding.location == "body" and resource in produced:
                # An exclusion above may have dropped the producer this field
                # was wired to; in that case it reverts to fuzzable.
                body_bindings[binding.name.lower()] = resource
        for (op_id, name_lc), resource in forced.items():
            if op_id != op.op_id:
                continue
            locations = {p.name.lower(): p.location for p in op.parameters}
            where = locations.get(name_lc)
            if where == "path":
                original = next(p.name for p in op.path_parameters if p.name.lower() == name_lc)
                path_bindings[original] = resource
            elif where == "query":
                query_bindings[name_lc] = resource
            else:
                body_bindings[name_lc] = resource

        template = _build_template(
            op=op,
            host=host_value,
            producers=tuple(producers.get(op.op_id, ())),
            path_bindings=path_bindings,
            body_bindings=body_bindings,
            query_bindings=query_bindings,
            include_lc=include_lc,
            declaration_index=declaration,
        )
        templates.append(template)
        declaration += 1

    referenced: set[ResourceType] = set(external)
    for t in templates:
        referenced |= {s.resource for s in t.slots if isinstance(s, ConsumerSlot)}
        referenced |= {p.resource for p in t.producers}

    return GrammarProgram(
        templates=tuple(templates),
        resource_types=frozenset(referenced),
        unsatisfiable=frozenset(unsatisfiable),
        excluded_operations=tuple(sorted(excluded.items())),
        external_values=external,
    )


def _build_template(
    op: Operation,
    host: str,
    producers: tuple[ProducerSpec, ...],
    path_bindings: dict[str, ResourceType],
    body_bindings: dict[str, ResourceType],
    query_bindings: dict[str, ResourceType],
    include_lc: frozenset[str],
    declaration_index: int,
) -> RequestTemplate:
    slots: list[Slot] = [StaticSlot(f"{op.method} ".encode())]

    param_kinds = {p.name: (p.kind or "string") for p in op.path_parameters}
    for kind, chunk in _split_path(op.path):
        if kind == "static":
            slots.append(StaticSlot(chunk.encode()))
        else:
            if chunk in path_bindings:
                slots.append(ConsumerSlot(path_bindings[chunk]))
            else:
                slots.append(FuzzableSlot(param_kinds.get(chunk, "string")))

    active_query = [
        p
        for p in op.query_parameters
        if p.required or p.name.lower() in include_lc
    ]
    for i, param in enumerate(active_query):
        sep = "?" if i == 0 else "&"
        slots.append(StaticSlot(f"{sep}{param.name}=".encode()))
        bound = query_bindings.get(param.name.lower())
        if bound is not None:
            slots.append(ConsumerSlot(bound))
        else:
            slots.append(FuzzableSlot(param.kind or "string"))

    slots.append(StaticSlot(b" HTTP/1.1\r\n"))
    slots.append(StaticSlot(b"Accept: application/json\r\n"))
    slots.append(StaticSlot(b"Content-Type: application/json\r\n"))
    slots.append(StaticSlot(f"Host: {host}\r\n".encode()))

    body_start = len(slots)
    schema = op.body_schema
    if schema is not None:
        body_slots, skipped = _object_slots(
            schema, body_bindings, include_lc, depth=0
        )
        for message in skipped:
            logger.warning("%s: %s", op.op_id, message)
        slots.extend(body_slots)

    return RequestTemplate(
        id=op.op_id,
        method=op.method,
        slots=tuple(slots),
        producers=producers,
        declaration_index=declaration_index,
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
    body_bindings: dict[str, ResourceType],
    include_lc: frozenset[str],
    depth: int,
) -> tuple[list[Slot], list[str]]:
    """Compact JSON object skeleton; returns (slots, skip warnings)."""
    skipped: list[str] = []
    groups: list[list[Slot]] = []
    for name, sub in schema.properties:
        if name not in schema.required and name.lower() not in include_lc:
            continue
        value, why = _value_slots(name, sub, body_bindings, include_lc, depth + 1)
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
    body_bindings: dict[str, ResourceType],
    include_lc: frozenset[str],
    depth: int,
) -> tuple[list[Slot] | None, str | None]:
    bound = body_bindings.get(name.lower()) if depth == 1 else None
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
        slots, skipped = _object_slots(schema, body_bindings, include_lc, depth)
        if skipped:
            return None, f"skipping field {name!r}: {'; '.join(skipped)}"
        return slots, None
    if schema.type == "array":
        if schema.items is None:
            return [StaticSlot(b"[]")], None
        if depth > 2:
            return None, f"skipping field {name!r}: array nesting deeper than supported"
        item, why = _value_slots(name, schema.items, body_bindings, include_lc, depth + 1)
        if item is None:
            return None, why
        return [StaticSlot(b"[")] + item + [StaticSlot(b"]")], None
    return None, f"skipping field {name!r}: unsupported value shape {schema.type!r}"
