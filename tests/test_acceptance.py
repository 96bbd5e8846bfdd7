"""Acceptance gate: ten criteria, one printed PASS/FAIL line each.

Every test prints exactly one line of the form

    ACCEPTANCE  n: PASS — detail

(bypassing capture, so the verdicts always appear in the run log) and then
asserts the same condition. Property-style criteria run their hypothesis
body to completion first and announce once.
"""

from __future__ import annotations

import json
import time
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from restfuzz.blogserver import bundled_spec_path, serve
from restfuzz.buckets import BucketStore, BugInstance
from restfuzz.cli import main
from restfuzz.compiler import compile_grammar, parse_spec
from restfuzz.engine import (
    EngineConfig,
    FuzzEngine,
    SequenceStep,
    Strategy,
    dependencies_satisfied,
    extend,
)
from restfuzz.executor import ConnectionConfig, SocketTransport
from restfuzz.grammar import (
    PRIMITIVE_KINDS,
    ConsumerSlot,
    FuzzableSlot,
    FuzzingDictionary,
    GrammarProgram,
    ProducerSpec,
    RequestTemplate,
    ResourceType,
    StaticSlot,
    render_combinations,
)
from restfuzz.telemetry import FuzzReport

SPEC = str(bundled_spec_path())
POST = "POST /api/blog/posts"
GET_ONE = "GET /api/blog/posts/{id}"
PUT_ONE = "PUT /api/blog/posts/{id}"
PLANTED_SEQUENCE = [POST, GET_ONE, PUT_ONE]


def announce(capsys, number, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {number:2d}: {verdict} — {detail}")
    assert passed, f"criterion {number}: {detail}"


def announce_failure_and_reraise(capsys, number, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {number:2d}: FAIL — {detail}")


def cli_fuzz(out_dir, *extra):
    """One CLI campaign against a throwaway service; returns the report."""
    handle = serve()
    started = time.monotonic()
    try:
        code = main(
            ["fuzz", "--spec", SPEC, "--strategy", "bfs", "--max-length", "3",
             "--target", f"127.0.0.1:{handle.port}", "--out", str(out_dir), *extra]
        )
    finally:
        handle.stop()
    assert code == 0, f"fuzz exited {code}"
    report = json.loads((out_dir / "report.json").read_text())
    return report, time.monotonic() - started


def engine_run_on_fresh_target(blog_model, **config_kwargs):
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


@pytest.fixture(scope="module")
def default_bfs_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "bfs-run"
    report, elapsed = cli_fuzz(out)
    return out, report, elapsed


# --------------------------------------------------------------------------


def test_criterion_01_planted_bug_discovery(default_bfs_run, capsys):
    _, report, elapsed = default_bfs_run
    hits = [b for b in report["buckets"] if b["defining_sequence"] == PLANTED_SEQUENCE]
    passed = len(hits) >= 1 and elapsed < 300
    detail = (
        f"bfs max-length 3 found {len(hits)} bucket(s) with the POST → GET → PUT "
        f"defining sequence in {elapsed:.1f}s (< 300s)"
    )
    announce(capsys, 1, passed, detail)


def test_criterion_02_dependency_ablation(tmp_path, capsys):
    report, _ = cli_fuzz(tmp_path / "no-deps", "--no-deps")
    count = len(report["buckets"])
    announce(capsys, 2, count == 0, f"--no-deps found {count} bug buckets at max length 3")


def test_criterion_03_feedback_ablation(default_bfs_run, tmp_path, capsys):
    _, base_report, _ = default_bfs_run
    ablated, _ = cli_fuzz(tmp_path / "no-feedback", "--no-feedback")
    base = base_report["total_tests"]
    unpruned = ablated["total_tests"]
    ratio = unpruned / base
    announce(
        capsys, 3, unpruned >= 2 * base,
        f"{unpruned} tests without feedback vs {base} with — ratio {ratio:.2f} ≥ 2",
    )


# -- criterion 4: BFS-Fast bound (property) ----------------------------------


def abstract_grammar(produce_sets, consume_sets):
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
    return GrammarProgram(templates=tuple(templates))


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
    depth = draw(st.integers(min_value=0, max_value=2))
    seq_set = [()]
    for _ in range(depth):
        candidates = extend(seq_set, grammar, Strategy.BFS)
        if not candidates:
            break
        seq_set = [c.prefix + (SequenceStep(c.template_id, 0),) for c in candidates]
    return grammar, seq_set


def test_criterion_04_bfs_fast_bound(capsys):
    @settings(max_examples=300, deadline=None)
    @given(grammar_and_frontier())
    def prop(case):
        grammar, seq_set = case
        fast = extend(seq_set, grammar, Strategy.BFS_FAST)
        full = extend(seq_set, grammar, Strategy.BFS)
        assert len(fast) <= len(grammar.templates)
        assert len(fast) == len({c.template_id for c in fast})
        assert {c.template_id for c in fast} == {c.template_id for c in full}
        assert set(fast) <= set(full)
        for candidate in fast:
            template = grammar.template_by_id(candidate.template_id)
            assert dependencies_satisfied(candidate.prefix, template, grammar)

    try:
        prop()
    except BaseException:
        announce_failure_and_reraise(
            capsys, 4, "BFS-Fast bound/coverage property falsified (see hypothesis output)"
        )
        raise
    announce(
        capsys, 4, True,
        "|extend| ≤ |templates| and every satisfiable template appears exactly once "
        "(300 randomized grammars)",
    )


# -- criterion 5: render-count oracle (property) ------------------------------


def test_criterion_05_render_count_oracle(capsys):
    @settings(max_examples=300, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(PRIMITIVE_KINDS), min_size=0, max_size=4),
        sizes=st.fixed_dictionaries(
            {kind: st.integers(min_value=1, max_value=3) for kind in PRIMITIVE_KINDS}
        ),
        cap=st.integers(min_value=1, max_value=200),
    )
    def prop(kinds, sizes, cap):
        dictionary = FuzzingDictionary(
            {k: tuple(f"{k}{i}" for i in range(n)) for k, n in sizes.items()}
        )
        slots = [StaticSlot(b"GET /x HTTP/1.1\r\n")] + [FuzzableSlot(k) for k in kinds]
        template = RequestTemplate(
            id="T", method="GET", slots=tuple(slots), producers=(), declaration_index=0
        )
        brute_force = list(product(*[dictionary.candidates(k) for k in kinds]))
        got = render_combinations(template, dictionary, cap)
        assert len(got) == min(len(brute_force), cap)
        assembled = [r.assemble({}) for r in got]
        assert len(set(assembled)) == len(assembled)  # all distinct

    try:
        prop()
    except BaseException:
        announce_failure_and_reraise(
            capsys, 5, "render-count property falsified (see hypothesis output)"
        )
        raise
    announce(
        capsys, 5, True,
        "rendering count == min(cross-product size, cap) against brute-force "
        "enumeration (300 randomized templates)",
    )


# -- criterion 6: bucketization oracle (property) ------------------------------


def brute_force_bucketize(sequences):
    buckets = []  # [defining sequence, member sequences]
    for seq in sequences:
        home = None
        for length in range(1, len(seq) + 1):
            suffix = seq[len(seq) - length :]
            for entry in buckets:
                if entry[0] == suffix:
                    home = entry
                    break
            if home:
                break
        if home:
            home[1].append(seq)
        else:
            buckets.append([seq, [seq]])
    return buckets


def bug_instance(ids):
    return BugInstance(steps=tuple((tid, 0) for tid in ids), final_status=500)


def test_criterion_06_bucketization_oracle(capsys):
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.lists(st.sampled_from("ABCD"), min_size=1, max_size=4).map(tuple),
            min_size=0,
            max_size=14,
        )
    )
    def prop(sequences):
        # The store names each bug's bucket; the report, fed as the engine
        # feeds it, counts each bucket's instances.
        store = BucketStore()
        report = FuzzReport()
        homes = []
        for seq in sequences:
            bucket_id, defining, _ = store.record(bug_instance(seq))
            report.add_bucket_instance(bucket_id, defining)
            homes.append(bucket_id)
        expected = brute_force_bucketize(sequences)
        got = {tuple(b["defining_sequence"]):
               [seq for seq, home in zip(sequences, homes) if home == b["bucket_id"]]
               for b in report.buckets}
        assert got == {defining: members for defining, members in expected}
        assert {tuple(b["defining_sequence"]): b["instances"] for b in report.buckets} == {
            defining: len(members) for defining, members in expected
        }

    try:
        prop()
    except BaseException:
        announce_failure_and_reraise(
            capsys, 6, "bucketization property falsified (see hypothesis output)"
        )
        raise
    announce(
        capsys, 6, True,
        "store assignments match the brute-force suffix rule "
        "(300 randomized bug streams)",
    )


# --------------------------------------------------------------------------


def test_criterion_07_bucket_replay(default_bfs_run, capsys):
    out, report, _ = default_bfs_run
    bucket_id = report["buckets"][0]["bucket_id"]
    handle = serve()
    try:
        code = main(
            ["replay", "--out", str(out), "--bucket", bucket_id,
             "--target", f"127.0.0.1:{handle.port}"]
        )
        stdout = capsys.readouterr().out
    finally:
        handle.stop()
    passed = code == 0 and "reproduced — final class bug" in stdout
    announce(
        capsys, 7, passed,
        f"bucket {bucket_id} replayed on a fresh target → class bug",
    )


def test_criterion_08_determinism(blog_model, capsys):
    runs = [
        engine_run_on_fresh_target(
            blog_model, strategy=Strategy.BFS_FAST, max_length=3, rng_seed=7
        )
        for _ in range(2)
    ]
    fingerprints_match = runs[0].fingerprint() == runs[1].fingerprint()
    sequences_match = [b["defining_sequence"] for b in runs[0].buckets] == [
        b["defining_sequence"] for b in runs[1].buckets
    ]
    announce(
        capsys, 8, fingerprints_match and sequences_match,
        "two fixed-seed bfs-fast runs on fresh targets: identical fingerprints "
        "and defining sequences",
    )


def test_criterion_09_compiler_golden(capsys):
    doc = (Path(__file__).parent / "data" / "minimal_post.yaml").read_text()
    grammar = compile_grammar(parse_spec(doc))
    assert len(grammar.templates) == 1
    rendered = render_combinations(grammar.templates[0], FuzzingDictionary.default(), cap=1)[0]
    request = rendered.assemble({})
    body = request.partition(b"\r\n\r\n")[2]
    passed = body == b'{"body":"sampleString"}'
    announce(
        capsys, 9, passed,
        f'minimal document renders body {body.decode("latin-1")!r}, '
        'expected {"body":"sampleString"}',
    )


def test_criterion_10_strategy_comparison(blog_model, capsys):
    bfs = engine_run_on_fresh_target(blog_model, strategy=Strategy.BFS, max_length=3)
    walk = engine_run_on_fresh_target(
        blog_model,
        strategy=Strategy.RANDOM_WALK,
        time_budget=8.0,
        rng_seed=0,
    )
    passed = walk.max_length_reached >= bfs.max_length_reached
    announce(
        capsys, 10, passed,
        f"random-walk depth {walk.max_length_reached} (restarts {walk.restarts}, "
        f"{walk.total_tests} tests) ≥ bfs depth {bfs.max_length_reached} "
        f"({bfs.total_tests} tests)",
    )
