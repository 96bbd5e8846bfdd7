"""Bug deduplication by request-type suffix, plus replayable bucket storage.

Every bug is a request sequence whose final response matched a bug status
class. Two bugs are "the same" when one's type-level sequence ends with the
other's: when a new bug arrives, its non-empty suffixes are checked from
shortest to longest against existing buckets' defining sequences, and the
first match absorbs it. Otherwise the full sequence founds a new bucket.
Renderings and server-assigned values are deliberately ignored, so under
breadth-first search each bucket is named by the shortest sequence that
reaches the bug.

In memory the store is only an index: each bucket's id, defining sequence
and instance count. The instances themselves live only on disk, where each
bucket is a directory: a metadata file, one machine-readable and one
human-readable trace per instance (auth header values replaced by
[FILTERED] — replays re-render from the grammar, so stored bytes are purely
forensic), and a replay script. A store without a root keeps no instances
at all, so only a rooted store can replay.
"""

from __future__ import annotations

import base64
import hashlib
import json
import logging
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .executor import ResponseClass, SequenceExecutor, human_text, redact_header_value
from .grammar import FuzzingDictionary, GrammarProgram, render_combinations

logger = logging.getLogger(__name__)

BUCKET_ID_HEX_DIGITS = 12
_BUCKET_META_FORMAT = "restfuzz-bucket/1"


class BucketError(Exception):
    pass


class UnknownBucket(BucketError):
    """Lookup of a bucket id that the store has never seen."""


class StorageFailure(BucketError):
    """Bucket data on disk is missing, unreadable, or corrupt."""


def bucket_id_for(template_ids: Sequence[str]) -> str:
    digest = hashlib.sha1(";".join(template_ids).encode("utf-8")).hexdigest()
    return digest[:BUCKET_ID_HEX_DIGITS]


@dataclass(frozen=True)
class BugInstance:
    """One concrete bug occurrence: the full rendered sequence that hit it."""

    steps: tuple[tuple[str, int], ...]  # (template id, rendering index) per step
    requests: tuple[bytes, ...]
    responses: tuple[bytes, ...]
    final_status: int
    found_at: float

    def __post_init__(self):
        if not self.steps:
            raise BucketError("a bug instance needs at least one step")
        if not (len(self.steps) == len(self.requests) == len(self.responses)):
            raise BucketError("steps, requests and responses must align")

    @property
    def template_ids(self) -> tuple[str, ...]:
        return tuple(tid for tid, _ in self.steps)


@dataclass
class BugBucket:
    bucket_id: str
    defining_sequence: tuple[str, ...]
    instance_count: int


def _suffixes_shortest_first(ids: Sequence[str]) -> Iterable[tuple[str, ...]]:
    for length in range(1, len(ids) + 1):
        yield tuple(ids[len(ids) - length :])


class BucketStore:
    """Thread-safe bucket index; instances are written to disk, never kept."""

    def __init__(self, root: Path | None = None, auth_header_name: str = "PRIVATE-TOKEN"):
        self.root = Path(root) if root is not None else None
        self.auth_header_name = auth_header_name
        self._lock = threading.Lock()
        self._by_sequence: dict[tuple[str, ...], BugBucket] = {}
        self._by_id: dict[str, BugBucket] = {}
        self.storage_errors = 0

    # -- recording ---------------------------------------------------------

    def record(self, instance: BugInstance) -> tuple[BugBucket, bool]:
        """File the instance under the first suffix-matching bucket.

        The suffix scan and the possible insert happen under one lock so
        concurrent workers cannot race two buckets into existence for the
        same sequence.
        """
        with self._lock:
            for suffix in _suffixes_shortest_first(instance.template_ids):
                bucket = self._by_sequence.get(suffix)
                if bucket is not None:
                    bucket.instance_count += 1
                    self._persist_instance(bucket, instance)
                    return bucket, False
            bucket = BugBucket(
                bucket_id=bucket_id_for(instance.template_ids),
                defining_sequence=instance.template_ids,
                instance_count=1,
            )
            self._by_sequence[bucket.defining_sequence] = bucket
            self._by_id[bucket.bucket_id] = bucket
            self._persist_new_bucket(bucket)
            self._persist_instance(bucket, instance)
            return bucket, True

    # -- lookup ------------------------------------------------------------

    def get(self, bucket_id: str) -> BugBucket:
        with self._lock:
            try:
                return self._by_id[bucket_id]
            except KeyError:
                raise UnknownBucket(f"unknown bucket id {bucket_id!r}") from None

    def buckets(self) -> list[BugBucket]:
        with self._lock:
            return sorted(self._by_id.values(), key=lambda b: b.bucket_id)

    # -- persistence -------------------------------------------------------

    def _bucket_dir(self, bucket: BugBucket) -> Path:
        assert self.root is not None
        return self.root / bucket.bucket_id

    def _persist_new_bucket(self, bucket: BugBucket) -> None:
        if self.root is None:
            return
        try:
            directory = self._bucket_dir(bucket)
            directory.mkdir(parents=True, exist_ok=True)
            (directory / "defining_sequence.txt").write_text(
                "".join(f"{tid}\n" for tid in bucket.defining_sequence)
            )
            script = directory / "replay.sh"
            script.write_text(
                "#!/bin/sh\n"
                '# Replay this bug bucket against a live target: replay.sh HOST:PORT\n'
                'exec restfuzz replay --out "$(dirname "$0")/../.." '
                f'--bucket {bucket.bucket_id} --target "${{1:?usage: replay.sh host:port}}"\n'
            )
            script.chmod(0o755)
        except OSError as exc:
            self.storage_errors += 1
            logger.error("could not persist bucket %s: %s", bucket.bucket_id, exc)

    def _persist_instance(self, bucket: BugBucket, instance: BugInstance) -> None:
        if self.root is None:
            return
        redact = lambda blob: redact_header_value(blob, self.auth_header_name)
        try:
            directory = self._bucket_dir(bucket)
            directory.mkdir(parents=True, exist_ok=True)
            stem = directory / f"instance-{bucket.instance_count:04d}"
            payload = {
                "steps": [[tid, idx] for tid, idx in instance.steps],
                "requests": [base64.b64encode(redact(r)).decode("ascii") for r in instance.requests],
                "responses": [base64.b64encode(redact(r)).decode("ascii") for r in instance.responses],
                "final_status": instance.final_status,
                "found_at": instance.found_at,
            }
            stem.with_suffix(".json").write_text(json.dumps(payload, indent=2) + "\n")
            stem.with_suffix(".txt").write_text(format_instance_trace(instance, self.auth_header_name))
            meta = {
                "format": _BUCKET_META_FORMAT,
                "bucket_id": bucket.bucket_id,
                "defining_sequence": list(bucket.defining_sequence),
                "instance_count": bucket.instance_count,
            }
            (directory / "bucket.json").write_text(json.dumps(meta, indent=2) + "\n")
        except OSError as exc:
            self.storage_errors += 1
            logger.error("could not persist bucket %s instance: %s", bucket.bucket_id, exc)

    @classmethod
    def load(cls, root: Path) -> "BucketStore":
        """Rebuild a store from a bucket directory written by a past run; a
        bucket's next instance takes the ordinal after the highest on disk."""
        store = cls(root=root)
        root = Path(root)
        if not root.is_dir():
            raise StorageFailure(f"no bucket directory at {root}")
        for meta_path in sorted(root.glob("*/bucket.json")):
            files = meta_path.parent.glob("instance-*.json")
            try:
                meta = json.loads(meta_path.read_text())
                bucket = BugBucket(
                    bucket_id=meta["bucket_id"],
                    defining_sequence=tuple(meta["defining_sequence"]),
                    instance_count=max((int(f.stem[len("instance-"):]) for f in files), default=0),
                )
            except (OSError, KeyError, ValueError) as exc:
                raise StorageFailure(f"corrupt bucket data under {meta_path.parent}: {exc}") from exc
            store._by_sequence[bucket.defining_sequence] = bucket
            store._by_id[bucket.bucket_id] = bucket
        return store

    def instance(self, bucket_id: str, index: int) -> BugInstance:
        """Read instance #index (zero-based) of a bucket back from its file."""
        bucket = self.get(bucket_id)
        missing = f"bucket {bucket_id} has no instance #{index}"
        if self.root is None or index < 0:
            raise BucketError(missing)
        path = self._bucket_dir(bucket) / f"instance-{index + 1:04d}.json"
        try:
            data = json.loads(path.read_text())
            return BugInstance(
                steps=tuple((tid, idx) for tid, idx in data["steps"]),
                requests=tuple(base64.b64decode(r) for r in data["requests"]),
                responses=tuple(base64.b64decode(r) for r in data["responses"]),
                final_status=data["final_status"],
                found_at=data["found_at"],
            )
        except FileNotFoundError:
            raise BucketError(missing) from None
        except (OSError, KeyError, TypeError, ValueError, BucketError) as exc:
            raise StorageFailure(f"corrupt bucket data in {path}: {exc}") from exc


def format_instance_trace(instance: BugInstance, auth_header_name: str = "PRIVATE-TOKEN") -> str:
    """Human-readable trace: numbered requests, then each response."""
    total = len(instance.steps)
    blocks: list[str] = []
    for i, ((_tid, _idx), request, response) in enumerate(
        zip(instance.steps, instance.requests, instance.responses), start=1
    ):
        req_text = human_text(request, auth_header_name)
        resp_text = human_text(response, auth_header_name)
        blocks.append(f"{i}/{total}: {req_text}\n\n=> {resp_text}\n")
    return "\n".join(blocks)


# --------------------------------------------------------------------------
# Replay


@dataclass(frozen=True)
class ReplayResult:
    bucket_id: str
    final_class: str
    final_status: int | None
    diverged_step: int | None  # 1-based step whose class changed, if any

    @property
    def reproduced(self) -> bool:
        return self.final_class == ResponseClass.BUG


def replay_bucket(
    bucket_id: str,
    instance: BugInstance,
    grammar: GrammarProgram,
    dictionary: FuzzingDictionary,
    executor: SequenceExecutor,
) -> ReplayResult:
    """Re-render a stored instance from its rendering indices and re-run it.

    The stored wire bytes are never resent; rendering the same grammar with
    the same dictionary at the recorded indices reproduces them, and dynamic
    values (fresh ids) are re-resolved live — which is exactly what makes the
    bug reproducible rather than replay-only.
    """
    rendered_steps = []
    for template_id, rendering_index in instance.steps:
        template = grammar.template_by_id(template_id)
        combos = render_combinations(template, dictionary, cap=rendering_index + 1)
        if rendering_index >= len(combos):
            raise BucketError(
                f"rendering {rendering_index} of {template_id} does not exist "
                "(dictionary mismatch with the recording run?)"
            )
        rendered_steps.append(combos[rendering_index])

    result = executor.execute_sequence(rendered_steps)
    final_status = result.exchanges[-1].status if result.exchanges else None

    diverged: int | None = None
    if result.final_class != ResponseClass.BUG:
        # Some step changed class since recording: either a prefix step
        # stopped being Valid, or the final step no longer errors.
        diverged = result.steps_executed
        logger.warning(
            "bucket %s not reproduced: step %d/%d is now %s",
            bucket_id,
            diverged,
            len(instance.steps),
            result.final_class,
        )
    return ReplayResult(
        bucket_id=bucket_id,
        final_class=result.final_class,
        final_status=final_status,
        diverged_step=diverged,
    )
