"""Dependency-aware sequence search: BFS, BFS-Fast and RandomWalk.

The search keeps a set of valid rendered sequences of uniform length n
(initially the singleton empty sequence). Each iteration extends those
sequences by one request whose dependencies are satisfied, renders the new
last request every way the dictionary allows (capped), executes each
candidate front to back on its worker's connection, and keeps the renderings
whose final response was 2xx. Bug-class finals are filed in the bucket
index; nothing non-2xx is extended further unless feedback is disabled. A worker's
connection carries on into its next candidate only while every response on
it was 2xx; after any other final class, or a transport failure, the next
candidate starts on a new one. ``FuzzEngine.run`` closes every worker's
connection when it returns or raises.

The executor only runs tests. ``FuzzEngine._record_test`` is the one reader
of a finished test's exchanges: it adds the test to the run's
``FuzzReport``, hands the exchanges and any transport failure or
unresolvable consumer to the sink, and files a bug: the bucket index names
its bucket, the report counts it, and its ``bucket`` event in the sink's
stream is the only record of the instance. The ``run`` loop gives the
report and the sink each length's row and each restart alike; ``run_end``
carries only the stop reason and elapsed time, since ``emit_report`` folds
the rest from events.

Strategies differ only in the extension step:

* BFS: every (sequence, template) pair with satisfied dependencies, in
  sequence-major, declaration-order-minor order.
* BFS-Fast: one extension per template — the first sequence that satisfies
  it — so the frontier stays at most |templates| wide while every
  satisfiable template still appears as a final request each iteration.
* RandomWalk: a single uniformly random satisfiable (sequence, template)
  draw. It ignores max_length, needs a time budget, and restarts from
  scratch (without memoizing) whenever the walk cannot be extended; a
  restart that makes no progress past the empty sequence ends the run.

Dependency checks compute one produced-set per frontier sequence (and one
consumed-set per template) per iteration, then only compare the two.
"""

from __future__ import annotations

import enum
import logging
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from .buckets import BucketStore, BugInstance
from .executor import (
    DEFAULT_ERROR_STATUS_CLASSES,
    ExecutionResult,
    Memo,
    ResponseClass,
    SequenceExecutor,
    Transport,
    status_class_label,
    validate_status_patterns,
)
from .grammar import (
    DEFAULT_COMBINATION_CAP,
    FuzzingDictionary,
    GrammarProgram,
    RenderedRequest,
    RequestTemplate,
    ResourceType,
    consumes,
    produces,
    render_combinations,
)
from .telemetry import FuzzReport, PerLengthRow, TelemetrySink

logger = logging.getLogger(__name__)


class ConfigError(Exception):
    pass


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
        if self.time_budget is not None and self.time_budget <= 0:
            raise ConfigError("time_budget must be positive")
        if self.strategy is Strategy.RANDOM_WALK and self.time_budget is None:
            raise ConfigError("random-walk has no length bound; a time budget is required")
        try:
            validate_status_patterns(self.error_status_classes)
        except Exception as exc:
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


class SequenceStep(NamedTuple):
    """One rendered step of a retained sequence.

    A named tuple rather than a frozen dataclass: one is built per test and
    retained sequences are hashed for de-duplication, and a tuple is hashed
    in C. Building one and hashing a sequence of it takes 0.40 us on a
    2-vCPU VM, against 0.72 us as a frozen dataclass.
    """

    template_id: str
    rendering_index: int


RenderedSteps = tuple[SequenceStep, ...]


@dataclass(frozen=True)
class CandidateExtension:
    """A validated prefix plus one not-yet-rendered template to append."""

    prefix: RenderedSteps
    template_id: str


def sequence_produces(
    steps: Iterable[SequenceStep], grammar: GrammarProgram
) -> frozenset[ResourceType]:
    produced: set[ResourceType] = set(grammar.external_values)
    for step in steps:
        produced |= produces(grammar.template_by_id(step.template_id))
    return frozenset(produced)


def dependencies_satisfied(
    steps: RenderedSteps, template: RequestTemplate, grammar: GrammarProgram
) -> bool:
    return consumes(template) <= sequence_produces(steps, grammar)


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


class _Budget:
    def __init__(self, seconds: float | None):
        self._deadline = None if seconds is None else time.monotonic() + seconds

    def expired(self) -> bool:
        return self._deadline is not None and time.monotonic() >= self._deadline


class _Validation(NamedTuple):
    """Sequences kept and objects extracted: one candidate's or one iteration's."""

    retained: list[RenderedSteps]
    extracted: int


# ----------------------------------------------------------------------------
# Engine


class FuzzEngine:
    """Wires the search loop to executors, the bucket index and telemetry.

    ``transport_factory`` is called once per worker so each worker owns its
    own connection handling; with the default single worker everything runs
    inline and the whole campaign is deterministic against a deterministic
    target. With several workers the candidate list of each iteration is
    partitioned round-robin; retained sequences are merged back in candidate
    order, so the search frontier stays deterministic even though bucket
    discovery order may not.
    """

    def __init__(
        self,
        grammar: GrammarProgram,
        dictionary: FuzzingDictionary,
        config: EngineConfig,
        transport_factory: Callable[[], Transport],
        sink: TelemetrySink | None = None,
        probe: Callable[[], None] | None = None,
    ):
        config.validate()
        self.grammar = grammar.without_dependencies() if config.no_deps else grammar
        self.dictionary = dictionary
        self.config = config
        self.transport_factory = transport_factory
        self.sink = sink
        self.bucket_store = BucketStore()
        self.probe = probe
        self.stop_requested = threading.Event()
        self._render_cache: dict[str, tuple[RenderedRequest, ...]] = {}
        self._status_labels = Memo(status_class_label)
        self.report = FuzzReport(config.strategy.value)
        self._stats_lock = threading.Lock()  # guards self.report while workers run

    # -- helpers -----------------------------------------------------------

    def _renderings(self, template_id: str) -> tuple[RenderedRequest, ...]:
        cached = self._render_cache.get(template_id)
        if cached is None:
            template = self.grammar.template_by_id(template_id)
            cached = tuple(
                render_combinations(template, self.dictionary, self.config.combination_cap)
            )
            self._render_cache[template_id] = cached
        return cached

    def _rendered_request(self, step: SequenceStep) -> RenderedRequest:
        return self._renderings(step.template_id)[step.rendering_index]

    def _make_executor(self) -> SequenceExecutor:
        return SequenceExecutor(
            transport=self.transport_factory(),
            template_lookup=self.grammar.template_by_id,
            error_classes=self.config.error_status_classes,
            external_values=self.grammar.external_values,
        )

    def _record_test(self, test_index: int, steps: RenderedSteps, result: ExecutionResult) -> None:
        """Add a finished test to the report, hand it to the sink, and file
        it when its final response was a bug.

        The exchange of each step but the last executed one was Valid, since
        execution stops at the first step that is not.
        """
        last = result.steps_executed - 1
        behaviors: list[tuple[str, str]] = []
        for index, exchange in enumerate(result.exchanges):
            behaviors.append((steps[index].template_id, self._status_labels[exchange.status]))
            if self.sink is not None:
                response_class = result.final_class if index == last else ResponseClass.VALID
                self.sink.record_exchange(test_index, steps, index, exchange, response_class)
        if self.sink is not None:
            if result.failure is not None:
                self.sink.record_failure(test_index, steps, last, result.failure)
            if result.unresolved is not None:
                self.sink.record_unresolvable(test_index, steps, last, result.unresolved)
        with self._stats_lock:
            self.report.add_test(behaviors, result.final_class, result.failure is not None)
        if result.final_class != ResponseClass.BUG:
            return
        instance = BugInstance(
            steps=steps[: len(result.exchanges)], final_status=result.exchanges[-1].status
        )
        bucket_id, defining_sequence, created = self.bucket_store.record(instance)
        with self._stats_lock:
            self.report.add_bucket_instance(bucket_id, defining_sequence)
        logger.info(
            "bug (status %d) filed under bucket %s%s: %s",
            instance.final_status,
            bucket_id,
            " [new]" if created else "",
            " -> ".join(instance.template_ids),
        )
        if self.sink is not None:
            self.sink.record_bucket(test_index, instance, bucket_id, defining_sequence, created)

    # -- validation --------------------------------------------------------

    def _execute_candidates(
        self,
        candidates: Sequence[CandidateExtension],
        executors: Sequence[SequenceExecutor],
        budget: _Budget,
    ) -> _Validation:
        """Render and run every candidate, preserving candidate order.

        Test indices are assigned up front, from the report's test count and
        the rendering counts, so they are stable no matter how many workers
        execute the partitions.
        """
        plans = []  # (candidate_index, first_test_index, renderings)
        next_index = self.report.total_tests
        for position, candidate in enumerate(candidates):
            renderings = self._renderings(candidate.template_id)
            plans.append((position, next_index, renderings))
            next_index += len(renderings)

        results: list[_Validation | None] = [None] * len(candidates)
        stop_flag = threading.Event()

        def run_partition(worker_id: int) -> None:
            executor = executors[worker_id]
            for position, first_index, renderings in plans[worker_id :: len(executors)]:
                candidate = candidates[position]
                prefix = [self._rendered_request(s) for s in candidate.prefix]
                retained: list[RenderedSteps] = []
                extracted = 0
                for offset, last_rendering in enumerate(renderings):
                    if stop_flag.is_set():
                        break
                    if budget.expired() or self.stop_requested.is_set():
                        stop_flag.set()
                        break
                    steps = candidate.prefix + (
                        SequenceStep(candidate.template_id, last_rendering.rendering_index),
                    )
                    result = executor.execute_sequence(prefix + [last_rendering])
                    self._record_test(first_index + offset, steps, result)
                    extracted += result.extracted
                    if result.final_class == ResponseClass.VALID or self.config.no_feedback:
                        retained.append(steps)
                    elif result.exchanges and logger.isEnabledFor(logging.DEBUG):
                        logger.debug(
                            "dropped %s (final status %d)",
                            " -> ".join(s.template_id for s in steps),
                            result.exchanges[-1].status,
                        )
                results[position] = _Validation(retained, extracted)
                if stop_flag.is_set():
                    break

        if len(executors) == 1:
            run_partition(0)
        else:
            errors: list[BaseException] = []

            def run_worker(worker_id: int) -> None:
                try:
                    run_partition(worker_id)
                except BaseException as exc:
                    errors.append(exc)
                    stop_flag.set()

            threads = [
                threading.Thread(target=run_worker, args=(i,), daemon=True)
                for i in range(len(executors))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if errors:
                raise errors[0]

        ran = [result for result in results if result is not None]
        merged: list[RenderedSteps] = []
        seen: set[RenderedSteps] = set()
        for result in ran:
            for steps in result.retained:
                if steps not in seen:  # uniqueness by (template, rendering) ids
                    seen.add(steps)
                    merged.append(steps)
        return _Validation(merged, sum(result.extracted for result in ran))

    # -- main loop ---------------------------------------------------------

    def run(self) -> FuzzReport:
        started = time.monotonic()
        if self.probe is not None:
            self.probe()
        if self.sink is not None:
            self.sink.record_run_start(self.config.to_dict())

        executors = [self._make_executor() for _ in range(self.config.worker_count)]
        budget = _Budget(self.config.time_budget)
        rng = random.Random(self.config.rng_seed)

        seq_set: list[RenderedSteps] = [()]
        length = 0
        progressed_since_restart = False
        is_walk = self.config.strategy is Strategy.RANDOM_WALK

        try:
            while True:
                # Also where an iteration that a stop cut short ends the run.
                if budget.expired() or self.stop_requested.is_set():
                    self.report.stopped_reason = (
                        "interrupted" if self.stop_requested.is_set() else "time_budget"
                    )
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

                tests_so_far = self.report.total_tests
                outcome = self._execute_candidates(candidates, executors, budget)
                length += 1
                previous = self.report.length_row(length)
                row = PerLengthRow(
                    length,
                    previous.tests + self.report.total_tests - tests_so_far,
                    len(outcome.retained),
                    previous.dynamic_objects + outcome.extracted,
                )
                self.report.add_length_row(row)
                if self.sink is not None:
                    self.sink.record_length_stats(row)
                seq_set = outcome.retained
                if seq_set:
                    progressed_since_restart = True
        finally:
            for executor in executors:
                executor.close()

        self.report.elapsed_seconds = time.monotonic() - started
        if self.sink is not None:
            self.sink.record_run_end(self.report.stopped_reason, self.report.elapsed_seconds)
        return self.report
