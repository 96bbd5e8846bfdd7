"""The ``wide-stub`` workload: a seeded synthetic API and an in-process stub.

Sizes. The document has 40 collections of 5 operations each, 200 request
templates in all, and the campaign runs BFS-Fast to length 10. BFS-Fast keeps
its frontier at most one sequence per template, so every length from 3 on
tries all 200 templates, and ``extend`` checks each (template, frontier
sequence) pair by recomputing what the sequence produces. With 200 templates
and length 10 that search cost outweighs executing the candidates, which is
what this workload is for; with a handful of templates (the blog service)
search is under 1 % of the run. 40 collections also give 40 independent
planted defects, so bucketing does real work, and a campaign takes two
to three seconds, so a run holds several.

What the seed changes: collection and field names, the order of fields in
each body, and therefore every byte on the wire and every server-assigned
id. What it keeps: the shape of collection ``i`` (the kinds of its fields),
so the search has the same structure for every seed, and the fingerprint
with template ids replaced by (collection index, operation) is the same.

The stub decides each reply from the request bytes alone:

* 400 when a top-level string field of the body is empty;
* POST: 201 with an id hashed from the request bytes;
* GET and PATCH: 200 with the object's current etag;
* PUT carrying the object's current etag: 500, the planted defect, one per
  collection;
* anything else that is routable: 2xx.

The etag of an object is a hash of (collection, id), so it never changes and
the stub keeps no per-object state. Only reading the object yields its etag,
so, as with the blog service's checksum, the defect takes create, read,
replace: the first bug comes at length 3, a tenth of the way into the
campaign rather than in its first milliseconds, which keeps
``time_to_first_bug_s`` long enough to measure steadily.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
import time

from restfuzz.executor import HttpExchange

COLLECTIONS = 40
MAX_LENGTH = 10
BASE_PATH = "/api"

# Field kinds of collection i are SHAPES[i % len(SHAPES)]. Every shape has a
# string field, so every body can draw a 400 from the empty-string candidate.
SHAPES = (
    ("string",),
    ("string", "integer"),
    ("string", "boolean"),
    ("string", "string"),
)

_OPERATIONS = ("create", "fetch", "replace", "amend", "remove")


def _names(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    out = []
    while len(out) < count:
        name = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(4, 9)))
        if name not in taken:
            taken.add(name)
            out.append(name)
    return out


def generate(seed: int) -> tuple[str, dict[str, str]]:
    """Return the Swagger 2.0 document (JSON text) and a template-id map.

    The map sends each template id the compiler will emit to a seed-free
    name such as ``c07.replace``; it is used only to compare fingerprints
    across seeds and is never shown to the fuzzer.
    """
    rng = random.Random(seed)
    taken = {"id", "etag", "api"}
    collections = _names(rng, COLLECTIONS, taken)
    paths: dict[str, dict] = {}
    canonical: dict[str, str] = {}
    for index, name in enumerate(collections):
        kinds = SHAPES[index % len(SHAPES)]
        fields = list(zip(_names(rng, len(kinds), set(taken)), kinds))
        rng.shuffle(fields)
        first_string = next(f for f, kind in fields if kind == "string")
        props = {f: {"type": kind} for f, kind in fields}
        required = [f for f, _ in fields]
        created = {"type": "object", "properties": {"id": {"type": "integer"}, **props}}
        item = {
            "type": "object",
            "properties": {"id": {"type": "integer"}, "etag": {"type": "string"}, **props},
        }
        id_param = {"in": "path", "name": "id", "required": True, "type": "integer"}

        def body(properties: dict, required_fields: list[str]) -> dict:
            return {
                "in": "body",
                "name": "payload",
                "required": True,
                "schema": {"type": "object", "properties": properties, "required": required_fields},
            }

        collection_path = f"/{name}"
        item_path = f"/{name}/{{id}}"
        paths[collection_path] = {
            "post": {
                "parameters": [body(props, required)],
                "responses": {"201": {"description": "created", "schema": created}},
            }
        }
        paths[item_path] = {
            "get": {
                "parameters": [id_param],
                "responses": {"200": {"description": "the object", "schema": item}},
            },
            # The PUT response must not echo etag: a field an operation both
            # requires and echoes counts as client-authored, and then nothing
            # would produce the etag the PUT consumes.
            "put": {
                "parameters": [
                    id_param,
                    body({**props, "etag": {"type": "string"}}, required + ["etag"]),
                ],
                "responses": {
                    "200": {
                        "description": "replaced",
                        "schema": {"type": "object", "properties": props},
                    }
                },
            },
            "patch": {
                "parameters": [id_param, body({first_string: {"type": "string"}}, [first_string])],
                "responses": {"200": {"description": "amended", "schema": item}},
            },
            "delete": {
                "parameters": [id_param],
                "responses": {"200": {"description": "removed"}},
            },
        }
        full_collection = BASE_PATH + collection_path
        full_item = BASE_PATH + item_path
        tag = f"c{index:02d}"
        canonical[f"POST {full_collection}"] = f"{tag}.create"
        for method, op in zip(("GET", "PUT", "PATCH", "DELETE"), _OPERATIONS[1:]):
            canonical[f"{method} {full_item}"] = f"{tag}.{op}"
    doc = {
        "swagger": "2.0",
        "info": {"title": f"synthetic service {seed}", "version": "1.0"},
        "host": "stub.invalid",
        "basePath": BASE_PATH,
        "consumes": ["application/json"],
        "produces": ["application/json"],
        "paths": paths,
    }
    return json.dumps(doc, indent=1), canonical


def etag(collection: str, object_id: int) -> str:
    return hashlib.sha1(f"{collection}/{object_id}".encode()).hexdigest()[:16]


class StubTransport:
    """Deterministic in-process target; see the module docstring."""

    _REASONS = {200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
                500: "Internal Server Error"}

    def __init__(self):
        self.served_500 = 0
        self._lock = threading.Lock()

    def roundtrip(self, request: bytes) -> HttpExchange:
        started = time.time()
        t0 = time.perf_counter()
        status, payload = self._reply(request)
        if status == 500:
            with self._lock:
                self.served_500 += 1
        data = json.dumps(payload).encode()
        return HttpExchange(
            request=request,
            status=status,
            reason=self._REASONS[status],
            headers=(("Content-Type", "application/json"), ("Content-Length", str(len(data)))),
            body=data,
            started=started,
            duration=time.perf_counter() - t0,
        )

    @staticmethod
    def _reply(request: bytes) -> tuple[int, object]:
        head, _, raw_body = request.partition(b"\r\n\r\n")
        method, target, _ = head.split(b"\r\n", 1)[0].decode("latin-1").split(" ", 2)
        body = json.loads(raw_body) if raw_body else {}
        if any(value == "" for value in body.values()):
            return 400, {"error": "empty string field"}
        segments = target.split("?", 1)[0].strip("/").split("/")
        if len(segments) == 2 and method == "POST":
            object_id = int.from_bytes(hashlib.sha1(request).digest()[:4], "big")
            return 201, {"id": object_id, **body}
        if len(segments) != 3 or not segments[2].isdigit():
            return 404, {"error": "no such route"}
        collection, object_id = segments[1], int(segments[2])
        current = etag(collection, object_id)
        if method == "PUT":
            if body.get("etag") == current:
                return 500, {"error": "internal server error"}
            return 200, {k: v for k, v in body.items() if k != "etag"}
        if method in ("GET", "PATCH"):
            return 200, {"id": object_id, "etag": current, **body}
        if method == "DELETE":
            return 200, {}
        return 404, {"error": "no such route"}


def canonical_fingerprint(fingerprint: dict, canonical: dict[str, str]) -> dict:
    """The fingerprint with template ids mapped to seed-free names.

    Bucket ids hash template ids, so they are dropped; buckets and behaviours
    are re-sorted after renaming.
    """
    rename = canonical.__getitem__
    out = dict(fingerprint)
    out["behaviors"] = sorted([rename(t), group] for t, group in fingerprint["behaviors"])
    out["buckets"] = sorted(
        ({"defining_sequence": [rename(t) for t in b["defining_sequence"]],
          "instances": b["instances"]} for b in fingerprint["buckets"]),
        key=lambda b: b["defining_sequence"],
    )
    return out
