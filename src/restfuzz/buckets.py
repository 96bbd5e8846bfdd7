"""Bug deduplication by request-type suffix, and replay of a recorded bug.

Every bug is a request sequence whose final response matched a bug status
class. Two bugs are "the same" when one's type-level sequence ends with the
other's: when a new bug arrives, its non-empty suffixes are checked from
shortest to longest against existing buckets' defining sequences, and the
first match absorbs it. Otherwise the full sequence founds a new bucket.
Renderings and server-assigned values are deliberately ignored, so under
breadth-first search each bucket is named by the shortest sequence that
reaches the bug.

The store is only that suffix index: each bucket's defining sequence and
id. It counts nothing and writes nothing; the run's ``FuzzReport`` counts
each bucket's instances. A bug instance is recorded once, in
``events.jsonl``: the engine's ``bucket`` event names the test whose
exchanges hit the bug, its (template id, rendering index) steps and its
final status. ``telemetry.emit_report`` writes the bucket directory from
those events, and ``recorded_instance`` reads one back for replay, so a run
that was killed before its reports were written still replays.
"""

from __future__ import annotations

import hashlib
import logging
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .executor import ResponseClass, SequenceExecutor, TransportFailure
from .grammar import FuzzingDictionary, GrammarProgram, render_combinations
from .telemetry import iter_events

logger = logging.getLogger(__name__)

BUCKET_ID_HEX_DIGITS = 12


class BucketError(Exception):
    pass


class UnknownBucket(BucketError):
    """Lookup of a bucket id that the record has never seen."""


def bucket_id_for(template_ids: Sequence[str]) -> str:
    digest = hashlib.sha1(";".join(template_ids).encode("utf-8")).hexdigest()
    return digest[:BUCKET_ID_HEX_DIGITS]


@dataclass(frozen=True)
class BugInstance:
    """One concrete bug occurrence: the rendered steps that hit it."""

    steps: tuple[tuple[str, int], ...]  # (template id, rendering index) per step
    final_status: int

    def __post_init__(self):
        if not self.steps:
            raise BucketError("a bug instance needs at least one step")

    @property
    def template_ids(self) -> tuple[str, ...]:
        return tuple(tid for tid, _ in self.steps)


def _suffixes_shortest_first(ids: Sequence[str]) -> Iterable[tuple[str, ...]]:
    for length in range(1, len(ids) + 1):
        yield tuple(ids[len(ids) - length :])


class BucketStore:
    """Thread-safe suffix index: defining sequence -> bucket id."""

    def __init__(self):
        self._lock = threading.Lock()
        self._ids: dict[tuple[str, ...], str] = {}

    def record(self, instance: BugInstance) -> tuple[str, tuple[str, ...], bool]:
        """File the instance under the first suffix-matching bucket; return
        that bucket's id and defining sequence, and whether this instance
        founded it.

        The suffix scan and the possible insert happen under one lock so
        concurrent workers cannot race two buckets into existence for the
        same sequence.
        """
        with self._lock:
            for suffix in _suffixes_shortest_first(instance.template_ids):
                bucket_id = self._ids.get(suffix)
                if bucket_id is not None:
                    return bucket_id, suffix, False
            defining = instance.template_ids
            bucket_id = self._ids[defining] = bucket_id_for(defining)
            return bucket_id, defining, True


def recorded_instance(events_path: Path, bucket_id: str, index: int) -> BugInstance:
    """Instance #index (zero-based) of a bucket: the steps and final status
    of the (index + 1)-th ``bucket`` event of that id in ``events_path``."""
    seen = 0
    for event in iter_events(events_path):
        if event.get("type") != "bucket" or event.get("bucket_id") != bucket_id:
            continue
        if seen == index:
            try:
                steps = tuple((tid, rendering) for tid, rendering in event["steps"])
                return BugInstance(steps=steps, final_status=event["final_status"])
            except KeyError as exc:
                raise BucketError(
                    f"instance #{index} of bucket {bucket_id} cannot be replayed: its "
                    f"bucket event has no {exc.args[0]!r} field (recorded by an older version)"
                ) from None
            except (TypeError, ValueError) as exc:
                raise BucketError(
                    f"instance #{index} of bucket {bucket_id} has malformed steps: {exc}"
                ) from None
        seen += 1
    if not seen:
        raise UnknownBucket(f"unknown bucket id {bucket_id!r}")
    raise BucketError(f"bucket {bucket_id} has no instance #{index}")


# --------------------------------------------------------------------------
# Replay


@dataclass(frozen=True)
class ReplayResult:
    """``final_status`` is the status of the last executed step's response,
    if it got one. A replay that ends short of the bug either diverged, at
    the 1-based ``diverged_step`` whose class changed, or hit ``failure``:
    a step that failed below HTTP and got no response at all."""

    bucket_id: str
    final_class: str
    final_status: int | None
    diverged_step: int | None
    failure: TransportFailure | None

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
    """Re-render a recorded instance from its rendering indices and re-run it.

    The recorded wire bytes are never resent; rendering the same grammar with
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
    # A step that failed below HTTP, or whose consumer nothing produced, got no response.
    answered = len(result.exchanges) == result.steps_executed
    final_status = result.exchanges[-1].status if answered else None

    diverged: int | None = None
    if result.final_class != ResponseClass.BUG:
        # Unless a step failed below HTTP, some step changed class since
        # recording: either a prefix step stopped being Valid, or the final
        # step no longer errors.
        if result.failure is None:
            diverged = result.steps_executed
        logger.warning(
            "bucket %s not reproduced: step %d/%d %s",
            bucket_id,
            result.steps_executed,
            len(instance.steps),
            f"is now {result.final_class}" if diverged else f"got no response: {result.failure}",
        )
    return ReplayResult(bucket_id, result.final_class, final_status, diverged, result.failure)
