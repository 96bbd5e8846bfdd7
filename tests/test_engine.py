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
import random
import time
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from restfuzz.blogserver import serve
from restfuzz.compiler import compile_grammar
from restfuzz.engine import (
    CandidateExtension,
    ConfigError,
    EngineConfig,
    FuzzEngine,
    SequenceStep,
    Strategy,
    dependencies_satisfied,
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
    FuzzingDictionary,
    GrammarProgram,
    ProducerSpec,
    RequestTemplate,
    ResourceType,
    StaticSlot,
)
from restfuzz.telemetry import EVENTS_FILENAME, TelemetrySink, iter_events

GET_COLL = "GET /api/blog/posts"
POST = "POST /api/blog/posts"
DELETE_ONE = "DELETE /api/blog/posts/{id}"
GET_ONE = "GET /api/blog/posts/{id}"
PUT_ONE = "PUT /api/blog/posts/{id}"


def step(template_id, rendering=0):
    return SequenceStep(template_id, rendering)


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
            {"error_status_classes": ("5xxx",)},
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
            declaration_index=0,
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
                declaration_index=i,
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

    def test_worker_count_does_not_change_the_outcome(self, blog_model):
        solo = run_on_fresh_server(blog_model, strategy=Strategy.BFS, max_length=3)
        duo = run_on_fresh_server(
            blog_model, strategy=Strategy.BFS, max_length=3, worker_count=2
        )
        assert duo.fingerprint() == solo.fingerprint()


# --------------------------------------------------------------------------
# The record of each finished test


def recorded_campaign(grammar, transport_factory, run_dir, **config_kwargs):
    """Run a campaign into a real sink in ``run_dir``; return its report,
    its events and, by test index, the steps the engine ran and the
    statuses of their exchanges."""
    sink = TelemetrySink(run_dir)
    engine = FuzzEngine(
        grammar,
        FuzzingDictionary.default(),
        EngineConfig(**config_kwargs),
        transport_factory=transport_factory,
        sink=sink,
    )
    tests = {}
    record_test = engine._record_test

    def keep(test_index, steps, result):
        tests[test_index] = (steps, [exchange.status for exchange in result.exchanges])
        record_test(test_index, steps, result)

    engine._record_test = keep
    try:
        report = engine.run()
    finally:
        sink.close()
    return report, list(iter_events(run_dir / EVENTS_FILENAME)), tests


def assert_stream_adds_up_to(report, events):
    """Each test's final class is that of its last exchange event, or
    Invalid after a transport failure or an unresolvable consumer; the
    event classes sum to the report's totals."""
    finals = {}
    for event in events:
        if event["type"] == "exchange":
            finals[event["test_index"]] = event["response_class"]
        elif event["type"] in ("transport_failure", "unresolvable_consumer"):
            finals[event["test_index"]] = "invalid"
    assert sorted(finals) == list(range(report.total_tests))
    assert Counter(finals.values()) == report.status_totals
    groups = Counter(
        status_class_label(event["status"]) for event in events if event["type"] == "exchange"
    )
    assert groups == report.status_group_totals
    failures = [event for event in events if event["type"] == "transport_failure"]
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


class TestRecording:
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
        by_test = defaultdict(list)
        for event in events:
            if event["type"] == "exchange":
                by_test[event["test_index"]].append(event)
        assert sorted(by_test) == sorted(tests) == list(range(41))
        end = next(event["elapsed"] for event in events if event["type"] == "run_end")
        for test_index, (steps, statuses) in tests.items():
            recorded = by_test[test_index]
            assert [e["step_index"] for e in recorded] == list(range(len(statuses)))
            assert all(e["sequence_length"] == len(steps) for e in recorded)
            assert [(e["template_id"], e["rendering_index"]) for e in recorded] == list(
                steps[: len(statuses)]
            )
            assert [e["status"] for e in recorded] == statuses
            for event in recorded:
                method = event["template_id"].split(" ")[0].encode()
                assert base64.b64decode(event["request_b64"]).startswith(method + b" ")
            # Each response arrived after the one before it, within the run.
            arrivals = [e["elapsed"] for e in recorded]
            assert arrivals == sorted(arrivals)
            assert 0 < arrivals[0] and arrivals[-1] < end
        assert_stream_adds_up_to(report, events)

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
        times = [event["elapsed"] for event in events if "elapsed" in event]
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
        failures = [event for event in events if event["type"] == "transport_failure"]
        assert report.transport_failures == len(failures) > 0
        for failure in failures:
            steps, statuses = tests[failure["test_index"]]
            assert (failure["phase"], failure["step_index"]) == ("read", 1)
            assert failure["template_id"] == steps[1].template_id == GET_ONE
            assert failure["detail"] == "read: timed out waiting for response"
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
        assert not [event for event in events if event["type"] == "transport_failure"]
        unsent = {
            test_index: steps
            for test_index, (steps, statuses) in tests.items()
            if len(statuses) < len(steps)
        }
        assert len(unsent) == 4
        unresolved = [event for event in events if event["type"] == "unresolvable_consumer"]
        assert sorted(
            (e["test_index"], e["template_id"], e["step_index"], e["resource"]) for e in unresolved
        ) == sorted(
            (test_index, steps[1].template_id, 1, "posts/id")
            for test_index, steps in unsent.items()
        )
        assert_stream_adds_up_to(report, events)
