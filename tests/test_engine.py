"""Search-engine tests.

Strategy semantics are pinned three ways: worked examples on the blog
grammar, a hypothesis property over randomly generated abstract grammars
(BFS-Fast must cover exactly the satisfiable templates, once each, with the
first satisfying prefix), and full campaigns against the live service whose
counts were frozen from hand-simulated runs. Campaigns recorded through a
real telemetry sink check that the event stream names each test's steps as
the engine ran them and adds up to the report.
"""

from __future__ import annotations

import base64
import itertools
import json
import random
import shutil
import threading
import time
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from restfuzz.blogserver import serve
from restfuzz.cli import EXIT_OK, main
from restfuzz.compiler import compile_grammar
from restfuzz.engine import (
    CandidateExtension,
    ConfigError,
    EngineConfig,
    FuzzEngine,
    Strategy,
    extend,
    sequence_produces,
)
from restfuzz.executor import (
    ConnectionConfig,
    HttpExchange,
    SocketTransport,
    TransportFailure,
    status_class_label,
)
from restfuzz.grammar import (
    ConsumerSlot,
    FuzzableSlot,
    FuzzingDictionary,
    GrammarProgram,
    ProducerSpec,
    RequestTemplate,
    ResourceType,
    StaticSlot,
)
from restfuzz.telemetry import EVENTS_FILENAME, TelemetrySink, emit_report, iter_events

from helpers import dependencies_satisfied, run_settings, step

GET_COLL = "GET /api/blog/posts"
POST = "POST /api/blog/posts"
DELETE_ONE = "DELETE /api/blog/posts/{id}"
GET_ONE = "GET /api/blog/posts/{id}"
PUT_ONE = "PUT /api/blog/posts/{id}"


@pytest.fixture(scope="module")
def pure_grammar(blog_model):
    # Dependency logic does not touch the network; the baked host is moot.
    return compile_grammar(blog_model)


# --------------------------------------------------------------------------
# Config


class TestConfig:
    def test_strategy_parsing_normalizes_separators(self):
        assert Strategy.parse("bfs") is Strategy.BFS
        assert Strategy.parse("BFS_FAST") is Strategy.BFS_FAST
        assert Strategy.parse(" random_walk ") is Strategy.RANDOM_WALK
        with pytest.raises(ConfigError, match="unknown strategy"):
            Strategy.parse("dfs")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_length": 0},
            {"worker_count": 0},
            {"combination_cap": 0},
            {"time_budget": -1.0},
            {"strategy": Strategy.RANDOM_WALK},  # needs a budget
            {"strategy": Strategy.RANDOM_WALK, "time_budget": 5.0, "worker_count": 2},
            {"error_status_classes": ("5xxx",)},
            {"time_budget": float("nan")},  # its deadline would never come
            {"time_budget": float("inf")},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            EngineConfig(**kwargs).validate()

    def test_defaults_validate(self):
        EngineConfig().validate()
        EngineConfig(strategy=Strategy.RANDOM_WALK, time_budget=5.0).validate()

    def test_to_dict_is_json_shaped(self):
        data = EngineConfig().to_dict()
        assert data["strategy"] == "bfs-fast"
        assert data["error_status_classes"] == ["5xx"]


# --------------------------------------------------------------------------
# Dependency checking


class TestDependencies:
    def test_no_consumers_is_satisfied_by_anything(self, pure_grammar):
        template = pure_grammar.template_by_id(GET_COLL)
        assert dependencies_satisfied((), template, pure_grammar)

    def test_consumer_blocks_until_produced(self, pure_grammar):
        template = pure_grammar.template_by_id(GET_ONE)
        assert not dependencies_satisfied((), template, pure_grammar)
        assert dependencies_satisfied((step(POST),), template, pure_grammar)

    def test_all_consumed_types_must_be_covered(self, pure_grammar):
        put = pure_grammar.template_by_id(PUT_ONE)
        # POST yields the id but not the checksum; the fetch adds it.
        assert not dependencies_satisfied((step(POST),), put, pure_grammar)
        assert dependencies_satisfied((step(POST), step(GET_ONE)), put, pure_grammar)

    def test_sequence_produces_includes_externals(self):
        key = ResourceType("cfg/key")
        template = RequestTemplate(
            id="T0",
            method="GET",
            slots=(StaticSlot(b"GET /t HTTP/1.1\r\n"), ConsumerSlot(key)),
            producers=(),
        )
        grammar = GrammarProgram(templates=(template,), external_values={key: "abc"})
        assert key in sequence_produces((), grammar)
        assert dependencies_satisfied((), template, grammar)


# --------------------------------------------------------------------------
# Extension strategies, worked examples


class TestExtendExamples:
    def test_initial_frontier_is_the_dependency_free_templates(self, pure_grammar):
        candidates = extend([()], pure_grammar, Strategy.BFS)
        assert [(c.prefix, c.template_id) for c in candidates] == [
            ((), GET_COLL),
            ((), POST),
        ]

    def test_bfs_is_sequence_major_declaration_minor(self, pure_grammar):
        seq_a = (step(POST),)
        seq_b = (step(GET_COLL),)
        candidates = extend([seq_a, seq_b], pure_grammar, Strategy.BFS)
        assert [(c.prefix, c.template_id) for c in candidates] == [
            (seq_a, GET_COLL),
            (seq_a, POST),
            (seq_a, DELETE_ONE),
            (seq_a, GET_ONE),
            (seq_b, GET_COLL),
            (seq_b, POST),
        ]

    def test_bfs_fast_takes_first_satisfying_sequence_per_template(self, pure_grammar):
        seq_a = (step(POST),)
        seq_b = (step(GET_COLL),)
        candidates = extend([seq_a, seq_b], pure_grammar, Strategy.BFS_FAST)
        assert [(c.prefix, c.template_id) for c in candidates] == [
            (seq_a, GET_COLL),
            (seq_a, POST),
            (seq_a, DELETE_ONE),
            (seq_a, GET_ONE),
        ]

    def test_exhaustion_is_an_empty_candidate_list(self, pure_grammar):
        assert extend([], pure_grammar, Strategy.BFS) == []
        assert extend([], pure_grammar, Strategy.BFS_FAST) == []
        assert extend([], pure_grammar, Strategy.RANDOM_WALK, random.Random(0)) == []

    def test_walk_draws_one_candidate_deterministically(self, pure_grammar):
        seq_set = [(), (step(POST),)]
        first = extend(seq_set, pure_grammar, Strategy.RANDOM_WALK, random.Random(7))
        again = extend(seq_set, pure_grammar, Strategy.RANDOM_WALK, random.Random(7))
        assert len(first) == 1
        assert first == again

    def test_walk_without_rng_is_a_programming_error(self, pure_grammar):
        with pytest.raises(ValueError):
            extend([()], pure_grammar, Strategy.RANDOM_WALK)


# --------------------------------------------------------------------------
# Extension strategies, property over random grammars


def abstract_grammar(produce_sets, consume_sets, external=()):
    templates = []
    for i, (prod, cons) in enumerate(zip(produce_sets, consume_sets)):
        slots = [StaticSlot(f"GET /t{i} HTTP/1.1\r\n".encode())]
        slots += [ConsumerSlot(ResourceType(r)) for r in sorted(cons)]
        templates.append(
            RequestTemplate(
                id=f"T{i}",
                method="GET",
                slots=tuple(slots),
                producers=tuple(ProducerSpec(ResourceType(r), ("x",)) for r in sorted(prod)),
            )
        )
    return GrammarProgram(
        templates=tuple(templates),
        external_values={ResourceType(r): "fixed" for r in external},
    )


@st.composite
def grammar_and_frontier(draw):
    count = draw(st.integers(min_value=1, max_value=5))
    resources = ("r0", "r1", "r2")
    produce_sets = [
        draw(st.sets(st.sampled_from(resources), max_size=2)) for _ in range(count)
    ]
    pool = sorted(set().union(*produce_sets))
    consume_sets = [
        draw(st.sets(st.sampled_from(pool), max_size=2)) if pool else set()
        for _ in range(count)
    ]
    grammar = abstract_grammar(produce_sets, consume_sets)

    # Take the frontier a real accept-everything search would reach.
    depth = draw(st.integers(min_value=0, max_value=2))
    seq_set = [()]
    for _ in range(depth):
        candidates = extend(seq_set, grammar, Strategy.BFS)
        if not candidates:
            break
        seq_set = [c.prefix + (step(c.template_id),) for c in candidates]
    return grammar, seq_set


@settings(max_examples=200, deadline=None)
@given(grammar_and_frontier())
def test_bfs_fast_covers_each_satisfiable_template_exactly_once(case):
    grammar, seq_set = case
    bfs = extend(seq_set, grammar, Strategy.BFS)
    fast = extend(seq_set, grammar, Strategy.BFS_FAST)

    # Fast candidates are a subset of full-BFS candidates ...
    assert set(fast) <= set(bfs)
    # ... at most one per template ...
    assert len(fast) <= len(grammar.templates)
    assert len(fast) == len({c.template_id for c in fast})
    # ... covering exactly the templates BFS would cover ...
    assert {c.template_id for c in fast} == {c.template_id for c in bfs}
    # ... each paired with the first sequence that satisfies it.
    for candidate in fast:
        template = grammar.template_by_id(candidate.template_id)
        first = next(s for s in seq_set if dependencies_satisfied(s, template, grammar))
        assert candidate.prefix == first


def reference_extend(seq_set, grammar, strategy, rng=None):
    """Brute-force extension: one dependencies_satisfied call per pair."""
    pairs = [
        CandidateExtension(steps, template.id)
        for steps in seq_set
        for template in grammar.templates
        if dependencies_satisfied(steps, template, grammar)
    ]
    if strategy is Strategy.BFS:
        return pairs
    if strategy is Strategy.RANDOM_WALK:
        return [rng.choice(pairs)] if pairs else []
    fast = []
    for template in grammar.templates:
        for steps in seq_set:
            if dependencies_satisfied(steps, template, grammar):
                fast.append(CandidateExtension(steps, template.id))
                break
    return fast


@st.composite
def synthetic_grammar(draw):
    count = draw(st.integers(min_value=1, max_value=6))
    resources = ("r0", "r1", "r2", "r3")
    produce_sets = [
        draw(st.sets(st.sampled_from(resources), max_size=2)) for _ in range(count)
    ]
    external = draw(st.sets(st.sampled_from(resources), max_size=1))
    pool = sorted(set(external).union(*produce_sets))
    consume_sets = [
        draw(st.sets(st.sampled_from(pool), max_size=3)) if pool else set()
        for _ in range(count)
    ]
    return abstract_grammar(produce_sets, consume_sets, external)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    strategy=st.sampled_from(Strategy),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_extend_matches_the_per_pair_reference(pure_grammar, data, strategy, seed):
    grammar = data.draw(st.one_of(st.just(pure_grammar), synthetic_grammar()))
    # Arbitrary frontiers, not only reachable ones: the check is pure set logic.
    ids = [t.id for t in grammar.templates]
    seq_set = data.draw(
        st.lists(
            st.lists(st.sampled_from(ids), max_size=4).map(
                lambda chosen: tuple(step(i) for i in chosen)
            ),
            max_size=8,
        )
    )
    rng, reference_rng = random.Random(seed), random.Random(seed)
    assert extend(seq_set, grammar, strategy, rng) == reference_extend(
        seq_set, grammar, strategy, reference_rng
    )
    # Both drew the same number of times, so later walk steps agree too.
    assert rng.getstate() == reference_rng.getstate()


# --------------------------------------------------------------------------
# Full campaigns against the live service
#
# The numbers asserted here were worked out by hand from the grammar and the
# service's behaviour (renderings per template, which finals stay 2xx), then
# confirmed live; they make any drift in search order, retention or
# extraction counting fail loudly.


def rows(report):
    return [(r.length, r.tests, r.seqset_size, r.dynamic_objects) for r in report.per_length]


class TestBfsCampaigns:
    def test_length_one_exact_counts(self, run_campaign):
        report = run_campaign(strategy=Strategy.BFS, max_length=1)
        assert report.total_tests == 3
        assert rows(report) == [(1, 3, 2, 1)]
        assert report.status_totals == {"valid": 2, "invalid": 1}
        assert report.stopped_reason == "max_length"
        assert report.buckets == []

    def test_length_three_full_campaign(self, run_campaign):
        report = run_campaign(strategy=Strategy.BFS, max_length=3)
        assert report.total_tests == 41
        assert rows(report) == [(1, 3, 2, 1), (2, 8, 6, 8), (3, 30, 20, 49)]
        assert report.status_totals == {"valid": 28, "invalid": 12, "bug": 1}
        assert report.status_group_totals == {"2xx": 96, "4xx": 12, "5xx": 1}
        assert report.max_length_reached == 3
        assert report.restarts == 0
        assert report.buckets == [
            {
                "bucket_id": "c46f74afdc64",
                "defining_sequence": [POST, GET_ONE, PUT_ONE],
                "instances": 1,
            }
        ]
        assert report.behavioral_coverage == 9
        assert (PUT_ONE, "5xx") in report.behaviors

    def test_bfs_fast_frozen_campaign(self, run_campaign):
        report = run_campaign(strategy=Strategy.BFS_FAST, max_length=3)
        assert report.total_tests == 15
        assert rows(report) == [(1, 3, 2, 1), (2, 5, 4, 4), (3, 7, 4, 8)]
        assert [b["bucket_id"] for b in report.buckets] == ["c46f74afdc64"]

    def test_no_feedback_keeps_every_rendering(self, run_campaign):
        report = run_campaign(strategy=Strategy.BFS, max_length=3, no_feedback=True)
        assert report.total_tests == 83
        assert [(r.length, r.tests, r.seqset_size) for r in report.per_length] == [
            (1, 3, 3),
            (2, 13, 13),
            (3, 67, 67),
        ]
        # Pruning pays: the same search with feedback needs half the tests.
        assert report.total_tests >= 2 * 41
        # The planted bug is still found either way.
        assert [b["bucket_id"] for b in report.buckets] == ["c46f74afdc64"]

    def test_no_deps_explodes_and_finds_nothing(self, run_campaign):
        report = run_campaign(strategy=Strategy.BFS, max_length=3, no_deps=True)
        assert report.total_tests == 195
        assert [(r.length, r.tests, r.seqset_size) for r in report.per_length] == [
            (1, 15, 3),
            (2, 45, 9),
            (3, 135, 27),
        ]
        assert report.buckets == []
        assert report.status_totals.get("bug", 0) == 0


    def test_retained_sequences_share_their_step_objects(self, blog_server, blog_model):
        grammar = compile_grammar(blog_model, host=f"127.0.0.1:{blog_server.port}")
        conn = ConnectionConfig("127.0.0.1", blog_server.port)
        engine = FuzzEngine(
            grammar,
            FuzzingDictionary.default(),
            EngineConfig(strategy=Strategy.BFS, max_length=3),
            transport_factory=lambda: SocketTransport(conn),
        )
        frontiers = []
        execute_candidates = engine._execute_candidates

        def recorded(*args):
            frontiers.append(execute_candidates(*args))
            return frontiers[-1]

        engine._execute_candidates = recorded
        engine.run()
        assert [len(frontier) for frontier in frontiers] == [2, 6, 20]
        held = [step for frontier in frontiers for steps in frontier for step in steps]
        # Many retained sequences hold the same rendering ...
        assert len(held) > 2 * len(set(held))
        # ... and each of them holds the engine's one object for it.
        renderings = engine._render_cache
        assert all(step is renderings[step.template_id][step.rendering_index] for step in held)


class TestWalkCampaigns:
    def test_walk_ignores_max_length_and_stops_on_budget(self, run_campaign):
        report = run_campaign(
            strategy=Strategy.RANDOM_WALK,
            max_length=1,
            time_budget=2.0,
            rng_seed=0,
        )
        assert report.stopped_reason == "time_budget"
        assert report.max_length_reached > 1
        assert report.total_tests > 0


class TestRunControl:
    def test_preset_stop_flag_interrupts_before_any_test(self, blog_server, blog_model):
        grammar = compile_grammar(blog_model, host=f"127.0.0.1:{blog_server.port}")
        conn = ConnectionConfig("127.0.0.1", blog_server.port)
        engine = FuzzEngine(
            grammar,
            FuzzingDictionary.default(),
            EngineConfig(strategy=Strategy.BFS, max_length=3),
            transport_factory=lambda: SocketTransport(conn),
        )
        engine.stop_requested.set()
        report = engine.run()
        assert report.stopped_reason == "interrupted"
        assert report.total_tests == 0

    def test_expired_budget_stops_immediately(self, run_campaign):
        report = run_campaign(strategy=Strategy.BFS, max_length=3, time_budget=1e-9)
        assert report.stopped_reason == "time_budget"
        assert report.total_tests == 0

    def test_an_interrupt_stops_every_worker_before_its_next_test(
        self, blog_server, blog_model
    ):
        engine, _ = lifetime_engine(
            blog_server, blog_model, acting_on_roundtrip(20, lambda: engine.stop_requested.set()),
            strategy=Strategy.BFS, max_length=3, worker_count=2,
        )
        starts = watch_test_starts(engine, engine.stop_requested.is_set)
        report = engine.run()
        assert report.stopped_reason == "interrupted"
        assert 0 < report.total_tests < 41
        assert len(starts.workers) == 2
        assert starts.late == []


# --------------------------------------------------------------------------
# Connection lifetime


class ExplodingTransport(SocketTransport):
    """A socket transport whose third round trip raises."""

    def __init__(self, conn):
        super().__init__(conn)
        self.roundtrips = 0

    def roundtrip(self, request):
        self.roundtrips += 1
        if self.roundtrips == 3:
            raise RuntimeError("transport exploded")
        return super().roundtrip(request)


def acting_on_roundtrip(number, action):
    """A socket transport class that calls ``action()`` on the run's
    ``number``-th round trip, whichever worker makes it. The 20th comes
    early in a BFS length-3 campaign's last iteration."""
    lock, roundtrips = threading.Lock(), itertools.count(1)

    class Acting(SocketTransport):
        def roundtrip(self, request):
            with lock:
                if next(roundtrips) == number:
                    action()
            return super().roundtrip(request)

    return Acting


def watch_test_starts(engine, stopped=None):
    """Watch every test the engine's workers start. The result's ``workers``
    are the executors that ran a test; its ``late`` names, once per test,
    each that started a test after finishing one with ``stopped()`` true.
    ``stopped()`` defaults to "some test has raised": from there to the
    engine's error list the exception passes no blocking call, so no other
    worker can finish a test and start one in between."""
    starts = SimpleNamespace(workers=set(), late=[])
    raised = []
    stopped = stopped or (lambda: bool(raised))
    make_executor = engine._make_executor

    def make_watched_executor():
        executor, saw_stop = make_executor(), []
        execute = executor.execute_sequence

        def watched(requests):
            starts.workers.add(executor)
            if saw_stop:
                starts.late.append(executor)
            try:
                return execute(requests)
            except BaseException:
                raised.append(executor)
                raise
            finally:
                if stopped():
                    saw_stop.append(True)

        executor.execute_sequence = watched
        return executor

    engine._make_executor = make_watched_executor
    return starts


def lifetime_engine(blog_server, blog_model, transport_class, **config_kwargs):
    """An engine plus the list of every transport its workers were given."""
    conn = ConnectionConfig("127.0.0.1", blog_server.port)
    transports = []

    def factory():
        transports.append(transport_class(conn))
        return transports[-1]

    engine = FuzzEngine(
        compile_grammar(blog_model, host=f"127.0.0.1:{blog_server.port}"),
        FuzzingDictionary.default(),
        EngineConfig(**config_kwargs),
        transport_factory=factory,
    )
    return engine, transports


class TestConnectionLifetime:
    @pytest.mark.parametrize(
        ("config", "stopped"),
        [
            ({"strategy": Strategy.BFS, "max_length": 3}, "max_length"),
            ({"strategy": Strategy.BFS, "max_length": 3, "worker_count": 2}, "max_length"),
            ({"strategy": Strategy.RANDOM_WALK, "time_budget": 0.3}, "time_budget"),
        ],
        ids=["search-done", "search-done-2w", "time-budget"],
    )
    def test_no_connection_outlives_the_run(self, blog_server, blog_model, config, stopped):
        engine, transports = lifetime_engine(blog_server, blog_model, SocketTransport, **config)
        report = engine.run()
        assert report.stopped_reason == stopped
        assert report.total_tests > 0
        assert len(transports) == config.get("worker_count", 1)
        assert all(t.sock is None for t in transports)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_exception_propagates_and_closes_connections(
        self, blog_server, blog_model, workers
    ):
        engine, transports = lifetime_engine(
            blog_server,
            blog_model,
            ExplodingTransport,
            strategy=Strategy.BFS,
            max_length=3,
            worker_count=workers,
        )
        with pytest.raises(RuntimeError, match="transport exploded"):
            engine.run()
        assert len(transports) == workers
        assert all(t.sock is None for t in transports)

    def test_a_raising_worker_stops_the_other_before_its_next_test(
        self, blog_server, blog_model
    ):
        def explode():
            raise RuntimeError("transport exploded")

        engine, transports = lifetime_engine(
            blog_server, blog_model, acting_on_roundtrip(20, explode),
            strategy=Strategy.BFS, max_length=3, worker_count=2,
        )
        starts = watch_test_starts(engine)
        with pytest.raises(RuntimeError, match="transport exploded"):
            engine.run()
        assert len(starts.workers) == 2
        assert starts.late == []
        assert all(t.sock is None for t in transports)

    def test_a_two_worker_iteration_starts_one_thread(self, pure_grammar, monkeypatch):
        started = []

        class CountedThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        workers = set()

        class Stub(EmptyObjectStub):
            def roundtrip(self, request):
                workers.add(threading.current_thread())
                return super().roundtrip(request)

        monkeypatch.setattr(threading, "Thread", CountedThread)
        engine = FuzzEngine(
            pure_grammar,
            FuzzingDictionary.default(),
            EngineConfig(strategy=Strategy.BFS, max_length=2, worker_count=2),
            transport_factory=Stub,
        )
        per_iteration = []
        execute_candidates = engine._execute_candidates

        def counted(*args):
            before = len(started)
            retained = execute_candidates(*args)
            per_iteration.append(len(started) - before)
            return retained

        engine._execute_candidates = counted
        assert engine.run().stopped_reason == "max_length"
        assert per_iteration == [1, 1]
        assert workers == {threading.main_thread(), *started}


# --------------------------------------------------------------------------
# Determinism


def run_on_fresh_server(blog_model, **config_kwargs):
    handle = serve()
    try:
        grammar = compile_grammar(blog_model, host=f"127.0.0.1:{handle.port}")
        conn = ConnectionConfig("127.0.0.1", handle.port)
        engine = FuzzEngine(
            grammar,
            FuzzingDictionary.default(),
            EngineConfig(**config_kwargs),
            transport_factory=lambda: SocketTransport(conn),
        )
        return engine.run()
    finally:
        handle.stop()


class TestDeterminism:
    def test_same_config_same_fingerprint_on_fresh_targets(self, blog_model):
        first = run_on_fresh_server(blog_model, strategy=Strategy.BFS, max_length=2)
        second = run_on_fresh_server(blog_model, strategy=Strategy.BFS, max_length=2)
        assert first.fingerprint() == second.fingerprint()

    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_count_does_not_change_the_outcome(self, blog_model, workers):
        solo = run_on_fresh_server(blog_model, strategy=Strategy.BFS, max_length=3)
        several = run_on_fresh_server(
            blog_model, strategy=Strategy.BFS, max_length=3, worker_count=workers
        )
        assert several.fingerprint() == solo.fingerprint()


# --------------------------------------------------------------------------
# The record of each finished test


def recorded_campaign(grammar, transport_factory, run_dir, **config_kwargs):
    """Run a campaign into a real sink in ``run_dir``; return its report,
    its events and, by test index, the steps the engine ran and the
    statuses of their exchanges. Each ``test`` event must name its steps
    by the (template id, rendering index) of the renderings that ran."""
    config = EngineConfig(**config_kwargs)
    sink = TelemetrySink(run_dir, run_settings(config))
    engine = FuzzEngine(
        grammar,
        FuzzingDictionary.default(),
        config,
        transport_factory=transport_factory,
        sink=sink,
    )
    tests = {}
    record_test = engine._record_test

    def keep(test_index, steps, result):
        tests[test_index] = (steps, [exchange.status for exchange in result.exchanges])
        return record_test(test_index, steps, result)

    engine._record_test = keep
    try:
        report = engine.run()
    finally:
        sink.close()
    events = list(iter_events(run_dir / EVENTS_FILENAME))
    for event in recorded_tests(events):
        steps = tests[event["test_index"]][0]
        assert event["steps"] == [[s.template_id, s.rendering_index] for s in steps]
    return report, events, tests


def recorded_tests(events):
    return [event for event in events if event["type"] == "test"]


def assert_stream_adds_up_to(report, events):
    """Each test is one event, Invalid after a transport failure or an
    unresolvable consumer; the events' final classes, exchanges and
    failures sum to the report's totals."""
    tests = recorded_tests(events)
    assert sorted(test["test_index"] for test in tests) == list(range(report.total_tests))
    for test in tests:
        if "failure" in test or "unresolved" in test:
            assert test["final_class"] == "invalid"
    assert Counter(test["final_class"] for test in tests) == report.status_totals
    groups = Counter(
        status_class_label(exchange["status"]) for test in tests for exchange in test["exchanges"]
    )
    assert groups == report.status_group_totals
    failures = [test for test in tests if "failure" in test]
    assert len(failures) == report.transport_failures


class FailingFetch(SocketTransport):
    """A socket transport whose fetches of one post time out unsent."""

    def roundtrip(self, request):
        if request.startswith(b"GET /api/blog/posts/"):
            raise TransportFailure("read", "timed out waiting for response")
        return super().roundtrip(request)


class EmptyObjectStub:
    """Answers every request 200 with ``{}``: nothing is ever produced."""

    def roundtrip(self, request):
        headers = (("Content-Length", "2"),)
        return HttpExchange(request, 200, "OK", headers, b"{}", time.monotonic(), 0.0)


class PutFailsStub:
    """An in-process target: ``POST`` answers 201 with id 1, ``PUT`` 500,
    and anything else 200 with ``{}``."""

    def roundtrip(self, request):
        method = request.split(b" ", 1)[0]
        status, body = {b"POST": (201, b'{"id": 1}'), b"PUT": (500, b"")}.get(method, (200, b"{}"))
        headers = (("Content-Length", str(len(body))),)
        return HttpExchange(request, status, "", headers, body, time.monotonic(), 0.0)


def put_fails_grammar():
    """``POST /p``, with one rendering per dictionary string, produces a
    ``p/id`` that ``GET /p/{id}`` and ``PUT /p/{id}`` consume."""
    pid = ResourceType("p/id")
    head_end = StaticSlot(b" HTTP/1.1\r\nHost: h\r\n")
    return GrammarProgram(templates=(
        RequestTemplate("POST /p", "POST", (StaticSlot(b"POST /p?n="), FuzzableSlot("string"),
                                            head_end), producers=(ProducerSpec(pid, ("id",)),)),
        RequestTemplate("GET /p/{id}", "GET", (StaticSlot(b"GET /p/"), ConsumerSlot(pid), head_end)),
        RequestTemplate("PUT /p/{id}", "PUT", (StaticSlot(b"PUT /p/"), ConsumerSlot(pid), head_end)),
    ))


class TestRecording:
    def test_a_buckets_first_line_is_the_one_that_founded_it(self, tmp_path):
        """At length 2 the two ``PUT`` tests, one per ``POST`` rendering,
        fall to different workers. The worker that files its bug first is
        held, after filing it, until the other worker's bug test has
        reached its commit and 50 ms more: the bucket's first ``test`` line
        is still the one that says it founded the bucket."""
        config = EngineConfig(strategy=Strategy.BFS, max_length=2, worker_count=2)
        sink = TelemetrySink(tmp_path, run_settings(config))
        engine = FuzzEngine(
            put_fails_grammar(),
            FuzzingDictionary({"string": ("a", "b")}),
            config,
            transport_factory=PutFailsStub,
            sink=sink,
        )
        record_test, record = engine._record_test, engine.bucket_store.record
        bug_workers = set()
        both_committing = threading.Event()
        held = []

        def committing(test_index, steps, result):
            if result.final_class == "bug":
                bug_workers.add(threading.current_thread())
                if len(bug_workers) == 2:
                    both_committing.set()
            return record_test(test_index, steps, result)

        def record_and_hold(instance):
            filed = record(instance)
            if not held:
                held.append(instance)
                both_committing.wait(timeout=0.5)
                time.sleep(0.05)
            return filed

        engine._record_test, engine.bucket_store.record = committing, record_and_hold
        try:
            engine.run()
        finally:
            sink.close()
        assert both_committing.is_set()
        created = [
            event["bucket"]["created"]
            for event in recorded_tests(iter_events(tmp_path / EVENTS_FILENAME))
            if "bucket" in event
        ]
        assert created == [True, False]

    def test_sink_sees_every_exchange_with_context(self, blog_server, blog_model, tmp_path):
        conn = ConnectionConfig("127.0.0.1", blog_server.port)
        report, events, tests = recorded_campaign(
            compile_grammar(blog_model, host=f"127.0.0.1:{blog_server.port}"),
            lambda: SocketTransport(conn),
            tmp_path,
            strategy=Strategy.BFS,
            max_length=3,
        )
        assert report.total_tests == 41
        by_test = {test["test_index"]: test for test in recorded_tests(events)}
        assert len(by_test) == len(recorded_tests(events))  # one event per test
        assert sorted(by_test) == sorted(tests) == list(range(41))
        end = next(event["elapsed"] for event in events if event["type"] == "run_end")
        for test_index, (steps, statuses) in tests.items():
            recorded = by_test[test_index]["exchanges"]
            assert [e["status"] for e in recorded] == statuses
            for step, event in zip(steps, recorded):
                method = step.template_id.split(" ")[0].encode()
                assert base64.b64decode(event["request_b64"]).startswith(method + b" ")
            # Each response arrived after the one before it, within the run.
            arrivals = [e["elapsed"] for e in recorded]
            assert arrivals == sorted(arrivals)
            assert 0 < arrivals[0] and arrivals[-1] < end
        assert_stream_adds_up_to(report, events)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_test_is_one_event(self, blog_server, blog_model, tmp_path, workers):
        """One ``test`` line per test index, whatever the worker count, and
        no per-step events; its exchanges are the report's requests."""
        conn = ConnectionConfig("127.0.0.1", blog_server.port)
        report, events, _ = recorded_campaign(
            compile_grammar(blog_model, host=f"127.0.0.1:{blog_server.port}"),
            lambda: SocketTransport(conn),
            tmp_path,
            strategy=Strategy.BFS,
            max_length=3,
            worker_count=workers,
        )
        tests = recorded_tests(events)
        assert report.total_tests > 0
        assert sorted(test["test_index"] for test in tests) == list(range(report.total_tests))
        assert sum(len(test["exchanges"]) for test in tests) == sum(
            report.status_group_totals.values()
        )
        assert {event["type"] for event in events} == {"run_start", "test", "run_end"}

    @pytest.mark.parametrize(
        "config",
        [
            dict(strategy=Strategy.BFS, max_length=3),
            dict(strategy=Strategy.BFS, max_length=3, worker_count=2),
            dict(strategy=Strategy.BFS_FAST, max_length=4),
            dict(strategy=Strategy.RANDOM_WALK, time_budget=1.0, rng_seed=1),
            dict(strategy=Strategy.BFS, max_length=3, no_feedback=True),
            dict(strategy=Strategy.BFS, max_length=10, time_budget=1.0),
        ],
        ids=["bfs", "bfs-2-workers", "bfs-fast", "walk", "bfs-no-feedback", "bfs-budget-cut"],
    )
    def test_the_engine_and_the_events_fold_one_report(
        self, blog_server, blog_model, tmp_path, capsys, config
    ):
        """The report the engine folds is the one ``emit_report`` folds from
        the events, its per-length rows count every test, and ``restfuzz
        report`` rebuilds the report files and buckets byte for byte."""
        conn = ConnectionConfig("127.0.0.1", blog_server.port)
        run = tmp_path / "run"
        report, _, _ = recorded_campaign(
            compile_grammar(blog_model, host=f"127.0.0.1:{blog_server.port}"),
            lambda: SocketTransport(conn),
            run,
            **config,
        )
        if "time_budget" in config:
            assert report.stopped_reason == "time_budget"
        assert sum(row.tests for row in report.per_length) == report.total_tests > 0
        emit_report(run)
        folded = json.loads((run / "report.json").read_text())
        assert folded.pop("elapsed_seconds") == round(report.elapsed_seconds, 3)
        assert folded == report.fingerprint()

        written = {p.relative_to(run): p.read_bytes() for p in run.rglob("*") if p.is_file()}
        clone = tmp_path / "clone"
        shutil.copytree(run, clone)
        for name in ("status_timeline.csv", "per_length.csv", "wire.log", "summary.txt",
                     "report.json"):
            (clone / name).unlink()
        shutil.rmtree(clone / "buckets", ignore_errors=True)
        assert main(["report", "--out", str(clone)]) == EXIT_OK
        capsys.readouterr()
        assert {p.relative_to(clone): p.read_bytes() for p in clone.rglob("*") if p.is_file()} \
            == written

    def test_event_times_ignore_a_wall_clock_step(
        self, blog_server, blog_model, tmp_path, monkeypatch
    ):
        # Once the sink has started, the wall clock steps back an hour.
        conn = ConnectionConfig("127.0.0.1", blog_server.port)
        wall = time.time

        def stepped_clock_transport():
            monkeypatch.setattr(time, "time", lambda: wall() - 3600)
            return SocketTransport(conn)

        report, events, _ = recorded_campaign(
            compile_grammar(blog_model, host=f"127.0.0.1:{blog_server.port}"),
            stepped_clock_transport,
            tmp_path,
            strategy=Strategy.BFS,
            max_length=2,
        )
        assert report.total_tests > 0
        # Each exchange's arrival, then the time its test was recorded.
        times = []
        for event in events:
            times += [exchange["elapsed"] for exchange in event.get("exchanges", [])]
            if "elapsed" in event:
                times.append(event["elapsed"])
        assert times == sorted(times)
        assert 0 < times[0] and times[-1] < 60

    def test_transport_failure_reports_invalid_and_hits_sink(
        self, blog_server, blog_model, tmp_path
    ):
        conn = ConnectionConfig("127.0.0.1", blog_server.port)
        report, events, tests = recorded_campaign(
            compile_grammar(blog_model, host=f"127.0.0.1:{blog_server.port}"),
            lambda: FailingFetch(conn),
            tmp_path,
            strategy=Strategy.BFS,
            max_length=2,
        )
        failures = [event for event in recorded_tests(events) if "failure" in event]
        assert report.transport_failures == len(failures) > 0
        for failure in failures:
            steps, statuses = tests[failure["test_index"]]
            # The failed step is the one after the last exchange.
            step_index = len(failure["exchanges"])
            assert (failure["failure"]["phase"], step_index) == ("read", 1)
            assert failure["steps"][step_index][0] == steps[1].template_id == GET_ONE
            assert failure["failure"]["detail"] == "read: timed out waiting for response"
            assert statuses == [201]  # the create before it was sent and recorded
        assert report.status_totals["invalid"] >= len(failures)
        assert_stream_adds_up_to(report, events)

    def test_two_workers_record_what_they_report(self, blog_server, blog_model, tmp_path):
        conn = ConnectionConfig("127.0.0.1", blog_server.port)
        report, events, _ = recorded_campaign(
            compile_grammar(blog_model, host=f"127.0.0.1:{blog_server.port}"),
            lambda: FailingFetch(conn),
            tmp_path,
            strategy=Strategy.BFS,
            max_length=3,
            worker_count=2,
        )
        assert report.transport_failures > 0
        assert_stream_adds_up_to(report, events)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unresolvable_consumer_is_not_a_transport_failure(
        self, pure_grammar, tmp_path, workers
    ):
        # Nothing is extracted from {}, so each fetch of one post consumes
        # an id nobody produced: the test ends Invalid with nothing sent.
        report, events, tests = recorded_campaign(
            pure_grammar,
            EmptyObjectStub,
            tmp_path,
            strategy=Strategy.BFS,
            max_length=2,
            worker_count=workers,
        )
        assert report.transport_failures == 0
        assert report.status_totals == {"valid": 12, "invalid": 4}
        assert not [event for event in recorded_tests(events) if "failure" in event]
        unsent = {
            test_index: steps
            for test_index, (steps, statuses) in tests.items()
            if len(statuses) < len(steps)
        }
        assert len(unsent) == 4
        unresolved = [event for event in recorded_tests(events) if "unresolved" in event]
        assert sorted(
            (e["test_index"], e["steps"][len(e["exchanges"])][0], len(e["exchanges"]),
             e["unresolved"])
            for e in unresolved
        ) == sorted(
            (test_index, steps[1].template_id, 1, "posts/id")
            for test_index, steps in unsent.items()
        )
        assert_stream_adds_up_to(report, events)
