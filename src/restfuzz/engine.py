"""Dependency-aware sequence search: BFS, BFS-Fast and RandomWalk.

The search keeps a set of valid rendered sequences of uniform length n
(initially the singleton empty sequence). Each iteration extends those
sequences by one request whose dependencies are satisfied, renders the new
last request every way the dictionary allows (capped), executes each
candidate front to back on its worker's connection, and keeps the renderings
whose final response was 2xx. Bug-class finals are filed in the bucket
index; nothing non-2xx is extended further unless feedback is disabled. A worker's
connection carries on into its next request, in this test or the next, only
while every response on it was 2xx; after any other response, or a transport
failure, the transport opens a new one. ``FuzzEngine.run`` closes every
worker's connection when it returns or raises.

One partition runner serves every worker count: worker ``w`` of ``n`` runs
candidates ``w``, ``w + n``, ... of an iteration, the engine's own thread as
worker 0 and each other worker on a thread of its own. One check,
``FuzzEngine._stop_reason``, stops the run: each worker asks it before each
test, and the loop before each iteration, which records its answer. A worker
that raises stops the others at their next test, and its exception is
re-raised once they have returned.

The executor only runs tests. ``FuzzEngine._record_test`` commits each
finished test under the engine's one lock: it files a bug in the bucket
index, which names its bucket; adds the test and any bug instance to the
run's ``FuzzReport``, whose instance count alone says whether the test
founded its bucket, and whose ``add_test`` alone applies the feedback rule
that decides whether the search retains the test (so the frontier and the
per-length sequence-set sizes cannot disagree); and writes the test to the
sink as one ``test`` event: the test's steps, exchanges, final class,
objects extracted, any transport failure or unresolvable consumer, and its
bucket. So at any worker count a bucket's first ``test`` line founded it.
That event is the only record of a bug instance, and the report folds each
length's row from the tests alone. The ``run`` loop gives the report and
the sink each restart alike; ``run_end`` carries only the stop reason and
elapsed time, since ``emit_report`` folds the rest from events.

Strategies differ only in the extension step:

* BFS: every (sequence, template) pair with satisfied dependencies, in
  sequence-major, declaration-order-minor order.
* BFS-Fast: one extension per template — the first sequence that satisfies
  it — so the frontier stays at most |templates| wide while every
  satisfiable template still appears as a final request each iteration.
* RandomWalk: a single uniformly random satisfiable (sequence, template)
  draw. It ignores max_length, needs a time budget and one worker (each
  step is one candidate, so a second worker would sit idle), and restarts from
  scratch (without memoizing) whenever the walk cannot be extended; a
  restart that makes no progress past the empty sequence ends the run.

Dependency checks compute one produced-set per frontier sequence (and one
consumed-set per template) per iteration, then only compare the two.

A sequence is the renderings it runs: each template's ``RenderedRequest``s
are built once, and every sequence that ends in (or extends) one of them
holds that one object, which the executor runs as it is. A retained sequence
then costs its own tuple and nothing per step. The (template id, rendering
index) pairs that name a test's steps are built only where they are
written: in a bug's ``BugInstance`` and in the sink's ``test`` event.
"""

from __future__ import annotations

import enum
import logging
import math
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .buckets import BucketStore, BugInstance
from .executor import (
    DEFAULT_ERROR_STATUS_CLASSES,
    ExecutionResult,
    ExecutorError,
    ResponseClass,
    SequenceExecutor,
    Transport,
    bug_statuses,
    status_class_label,
)
from .grammar import (
    DEFAULT_COMBINATION_CAP,
    FuzzingDictionary,
    GrammarProgram,
    RenderedRequest,
    ResourceType,
    consumes,
    produces,
    render_combinations,
)
from .telemetry import FuzzReport, TelemetrySink

logger = logging.getLogger(__name__)


class ConfigError(Exception):
    pass


def check_seconds(name: str, value: float) -> None:
    """Refuse a duration that is not a finite positive number of seconds."""
    if not 0 < value < math.inf:
        raise ConfigError(f"{name} must be a finite positive number of seconds, not {value}")


class Strategy(enum.Enum):
    BFS = "bfs"
    BFS_FAST = "bfs-fast"
    RANDOM_WALK = "random-walk"

    @classmethod
    def parse(cls, text: str) -> "Strategy":
        normalized = text.strip().lower().replace("_", "-")
        for member in cls:
            if member.value == normalized:
                return member
        choices = ", ".join(m.value for m in cls)
        raise ConfigError(f"unknown strategy {text!r} (choose from: {choices})")


@dataclass(frozen=True)
class EngineConfig:
    strategy: Strategy = Strategy.BFS_FAST
    max_length: int = 3
    time_budget: float | None = None
    combination_cap: int = DEFAULT_COMBINATION_CAP
    error_status_classes: tuple[str, ...] = DEFAULT_ERROR_STATUS_CLASSES
    rng_seed: int = 0
    worker_count: int = 1
    no_deps: bool = False
    no_feedback: bool = False

    def validate(self) -> None:
        if self.max_length < 1:
            raise ConfigError("max_length must be >= 1")
        if self.worker_count < 1:
            raise ConfigError("worker_count must be >= 1")
        if self.combination_cap < 1:
            raise ConfigError("combination_cap must be >= 1")
        if self.time_budget is not None:
            check_seconds("time_budget", self.time_budget)
        if self.strategy is Strategy.RANDOM_WALK and self.time_budget is None:
            raise ConfigError("random-walk has no length bound; a time budget is required")
        if self.strategy is Strategy.RANDOM_WALK and self.worker_count > 1:
            raise ConfigError("random-walk runs one test at a time; it takes one worker")
        try:
            bug_statuses(self.error_status_classes)
        except ExecutorError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy.value,
            "max_length": self.max_length,
            "time_budget": self.time_budget,
            "combination_cap": self.combination_cap,
            "error_status_classes": list(self.error_status_classes),
            "rng_seed": self.rng_seed,
            "worker_count": self.worker_count,
            "no_deps": self.no_deps,
            "no_feedback": self.no_feedback,
        }


RenderedSteps = tuple[RenderedRequest, ...]


@dataclass(frozen=True, slots=True)
class CandidateExtension:
    """A validated prefix plus one not-yet-rendered template to append."""

    prefix: RenderedSteps
    template_id: str


def sequence_produces(
    steps: Iterable[RenderedRequest], grammar: GrammarProgram
) -> frozenset[ResourceType]:
    produced: set[ResourceType] = set(grammar.external_values)
    for step in steps:
        produced |= produces(grammar.template_by_id(step.template_id))
    return frozenset(produced)


def extend(
    seq_set: Sequence[RenderedSteps],
    grammar: GrammarProgram,
    strategy: Strategy,
    rng: random.Random | None = None,
) -> list[CandidateExtension]:
    """One search iteration's worth of unrendered candidate sequences.

    An empty result means the search is exhausted at this length.
    """
    if strategy is Strategy.RANDOM_WALK and rng is None:
        raise ValueError("random-walk extension needs an rng")
    needs = [(template.id, consumes(template)) for template in grammar.templates]
    haves = [(steps, sequence_produces(steps, grammar)) for steps in seq_set]
    if strategy is Strategy.BFS_FAST:
        out = []
        for template_id, need in needs:
            first = next((steps for steps, have in haves if need <= have), None)
            if first is not None:
                out.append(CandidateExtension(first, template_id))
        return out
    if strategy not in (Strategy.BFS, Strategy.RANDOM_WALK):
        raise ValueError(f"unhandled strategy {strategy}")
    satisfiable = [
        CandidateExtension(steps, template_id)
        for steps, have in haves
        for template_id, need in needs
        if need <= have
    ]
    if strategy is Strategy.RANDOM_WALK:
        return [rng.choice(satisfiable)] if satisfiable else []
    return satisfiable


def _pairs(steps: RenderedSteps) -> tuple[tuple[str, int], ...]:
    """The (template id, rendering index) pairs that name ``steps`` where
    they are written."""
    return tuple((step.template_id, step.rendering_index) for step in steps)


# ----------------------------------------------------------------------------
# Engine


class FuzzEngine:
    """Wires the search loop to executors, the bucket index and telemetry.

    ``transport_factory`` is called once per worker so each worker owns its
    own connection handling. The candidate list of each iteration is
    partitioned round-robin over the workers, the thread that calls ``run``
    being worker 0, so a single worker starts no thread and the whole
    campaign is deterministic against a deterministic target. Retained
    sequences are merged back in candidate order, so the search frontier is
    the same at any worker count even though bucket discovery order may not.
    Workers commit their tests one at a time, under ``_lock``, so the bucket
    index and the sink, which only the commit calls, need no lock.
    """

    def __init__(
        self,
        grammar: GrammarProgram,
        dictionary: FuzzingDictionary,
        config: EngineConfig,
        transport_factory: Callable[[], Transport],
        sink: TelemetrySink | None = None,
    ):
        config.validate()
        self.grammar = grammar.without_dependencies() if config.no_deps else grammar
        self.dictionary = dictionary
        self.config = config
        self.transport_factory = transport_factory
        self.sink = sink
        self.bucket_store = BucketStore()
        self.stop_requested = threading.Event()
        self._deadline: float | None = None  # the time budget's end, set by run
        self._render_cache: dict[str, tuple[RenderedRequest, ...]] = {}  # by template id
        self.report = FuzzReport(config.to_dict())
        self._lock = threading.Lock()  # held by each commit, see _record_test

    # -- helpers -----------------------------------------------------------

    def _renderings(self, template_id: str) -> tuple[RenderedRequest, ...]:
        """The template's renderings, built on first use; every retained
        sequence holds these objects."""
        cached = self._render_cache.get(template_id)
        if cached is None:
            template = self.grammar.template_by_id(template_id)
            cached = self._render_cache[template_id] = render_combinations(
                template, self.dictionary, self.config.combination_cap
            )
        return cached

    def _make_executor(self) -> SequenceExecutor:
        return SequenceExecutor(
            transport=self.transport_factory(),
            error_classes=self.config.error_status_classes,
            external_values=self.grammar.external_values,
        )

    def _record_test(self, test_index: int, steps: RenderedSteps, result: ExecutionResult) -> bool:
        """Commit a finished test: under the engine's one lock, file it in
        the bucket index when its final response was a bug, add it and its
        bug instance to the report, and write its ``test`` line. Return
        whether the search retains it, as the report decides."""
        behaviors = [
            (step.template_id, status_class_label(exchange.status))
            for step, exchange in zip(steps, result.exchanges)
        ]
        with self._lock:
            filed = None
            if result.final_class == ResponseClass.BUG:
                instance = BugInstance(
                    steps=_pairs(steps[: len(result.exchanges)]),
                    final_status=result.exchanges[-1].status,
                )
                bucket_id, defining = self.bucket_store.record(instance)
                created = self.report.add_bucket_instance(bucket_id, defining) == 1
                filed = bucket_id, defining, created
                logger.info(
                    "bug (status %d) filed under bucket %s%s: %s",
                    instance.final_status,
                    bucket_id,
                    " [new]" if created else "",
                    " -> ".join(instance.template_ids),
                )
            retained = self.report.add_test(len(steps), behaviors, result.final_class,
                                            result.failure is not None, result.extracted)
            if self.sink is not None:
                self.sink.record_test(test_index, _pairs(steps), result, filed)
        return retained

    def _stop_reason(self) -> str | None:
        """Why the run stops before its next test: ``"interrupted"`` once
        ``stop_requested`` is set, ``"time_budget"`` once the budget has run
        out, else None."""
        if self.stop_requested.is_set():
            return "interrupted"
        if self._deadline is not None and time.monotonic() >= self._deadline:
            return "time_budget"
        return None

    # -- validation --------------------------------------------------------

    def _execute_candidates(
        self,
        candidates: Sequence[CandidateExtension],
        executors: Sequence[SequenceExecutor],
    ) -> list[RenderedSteps]:
        """Render and run every candidate; return the retained sequences in
        candidate order.

        Test indices are assigned up front, from the report's test count and
        the rendering counts, so they are stable no matter how many workers
        execute the partitions. Worker 0 runs on this thread.
        """
        plans = []  # (first test index, renderings), one per candidate
        next_index = self.report.total_tests
        for candidate in candidates:
            renderings = self._renderings(candidate.template_id)
            plans.append((next_index, renderings))
            next_index += len(renderings)

        results: list[list[RenderedSteps]] = [[] for _ in candidates]
        errors: list[BaseException] = []

        def run_partition(worker_id: int) -> None:
            executor = executors[worker_id]
            try:
                for position in range(worker_id, len(plans), len(executors)):
                    first_index, renderings = plans[position]
                    prefix = candidates[position].prefix
                    for offset, rendering in enumerate(renderings):
                        if errors or self._stop_reason() is not None:
                            return
                        steps = prefix + (rendering,)
                        result = executor.execute_sequence(steps)
                        if self._record_test(first_index + offset, steps, result):
                            results[position].append(steps)
                        elif result.exchanges and logger.isEnabledFor(logging.DEBUG):
                            logger.debug(
                                "dropped %s (final status %d)",
                                " -> ".join(s.template_id for s in steps),
                                result.exchanges[-1].status,
                            )
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=run_partition, args=(worker_id,), daemon=True)
            for worker_id in range(1, len(executors))
        ]
        for thread in threads:
            thread.start()
        run_partition(0)
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return [steps for retained in results for steps in retained]

    # -- main loop ---------------------------------------------------------

    def run(self) -> FuzzReport:
        started = time.monotonic()

        executors = [self._make_executor() for _ in range(self.config.worker_count)]
        if self.config.time_budget is not None:
            self._deadline = time.monotonic() + self.config.time_budget
        rng = random.Random(self.config.rng_seed)

        seq_set: list[RenderedSteps] = [()]
        length = 0
        progressed_since_restart = False
        is_walk = self.config.strategy is Strategy.RANDOM_WALK

        try:
            while True:
                # Also where an iteration that a stop cut short ends the run.
                if (stopped := self._stop_reason()) is not None:
                    self.report.stopped_reason = stopped
                    break
                if not is_walk and length >= self.config.max_length:
                    self.report.stopped_reason = "max_length"
                    break

                candidates = extend(seq_set, self.grammar, self.config.strategy, rng)
                if not candidates:
                    if is_walk:
                        if not progressed_since_restart:
                            self.report.stopped_reason = "exhausted"
                            break
                        self.report.add_restart()
                        if self.sink is not None:
                            self.sink.record_restart(self.report.total_tests, length)
                        progressed_since_restart = False
                        seq_set = [()]
                        length = 0
                        continue
                    self.report.stopped_reason = "exhausted"
                    break

                seq_set = self._execute_candidates(candidates, executors)
                length += 1
                if seq_set:
                    progressed_since_restart = True
        finally:
            for executor in executors:
                executor.close()

        self.report.elapsed_seconds = time.monotonic() - started
        if self.sink is not None:
            self.sink.record_run_end(self.report.stopped_reason, self.report.elapsed_seconds)
        return self.report
