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
each bucket's instances, and the bug that is a bucket's first founded it.
A bug instance is recorded once, in ``events.jsonl``: the ``test`` event
of the test that hit the bug names its bucket, and the instance is that
test's (template id, rendering index) steps up to its last exchange, with
that exchange's status. ``telemetry.emit_report`` writes the bucket
directory from those events, and ``recorded_instance`` reads one back for
replay, so a run that was killed before its reports were written still
replays.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .executor import ResponseClass, SequenceExecutor, TransportFailure
from .grammar import FuzzingDictionary, GrammarProgram, render_combinations
from .telemetry import iter_events

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
    """Suffix index: defining sequence -> bucket id. The engine files every
    bug under its commit lock, so the store takes none."""

    def __init__(self):
        self._ids: dict[tuple[str, ...], str] = {}

    def record(self, instance: BugInstance) -> tuple[str, tuple[str, ...]]:
        """File the instance under the first suffix-matching bucket, founding
        one on its full sequence if none matches; return that bucket's id
        and defining sequence."""
        for suffix in _suffixes_shortest_first(instance.template_ids):
            bucket_id = self._ids.get(suffix)
            if bucket_id is not None:
                return bucket_id, suffix
        defining = instance.template_ids
        bucket_id = self._ids[defining] = bucket_id_for(defining)
        return bucket_id, defining


def recorded_instance(events_path: Path, bucket_id: str, index: int) -> BugInstance:
    """Instance #index (zero-based) of a bucket, from the (index + 1)-th
    ``test`` event in ``events_path`` filed under that id: the test's steps
    up to its last exchange, and that exchange's status."""
    seen = 0
    for event in iter_events(events_path):
        bucket = event.get("bucket") if event.get("type") == "test" else None
        if not isinstance(bucket, dict) or bucket.get("bucket_id") != bucket_id:
            continue
        if seen == index:
            try:
                exchanges = event["exchanges"]
                steps = event["steps"][: len(exchanges)]
                return BugInstance(
                    steps=tuple((tid, rendering) for tid, rendering in steps),
                    final_status=exchanges[-1]["status"],
                )
            except KeyError as exc:
                raise BucketError(
                    f"instance #{index} of bucket {bucket_id} cannot be replayed: its "
                    f"test event has no {exc.args[0]!r} field"
                ) from None
            except (TypeError, ValueError, IndexError) as exc:
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
    answered = result.failure is None and result.unresolved is None
    final_status = result.exchanges[-1].status if answered else None

    diverged: int | None = None
    if result.final_class != ResponseClass.BUG and result.failure is None:
        # The step that ended the replay changed class since recording:
        # either a prefix step stopped being Valid, or the final step no
        # longer errors. The caller reports the verdict.
        diverged = result.steps_executed
    return ReplayResult(bucket_id, result.final_class, final_status, diverged, result.failure)
