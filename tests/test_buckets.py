"""Bucketization, bucket directory and replay tests.

The suffix rule is checked two ways: worked examples frozen by hand, and a
hypothesis property comparing BucketStore against oracle_bucketize(), a
deliberately naive reimplementation kept free of the store's data
structures so the two can only agree by computing the same thing. The
store only names each bug's bucket; as in the engine, a FuzzReport fed from
each ``record`` result counts the bucket's instances. Bug
instances are recorded as the engine records them, through a real sink, so
the bucket directory and replay are checked against the event record alone.
"""

from __future__ import annotations

import gc
import json
import shutil
import stat
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from restfuzz.buckets import (
    BucketError,
    BucketStore,
    BugInstance,
    UnknownBucket,
    bucket_id_for,
    recorded_instance,
    replay_bucket,
)
from restfuzz.executor import HttpExchange, SequenceExecutor, SocketTransport, TransportFailure
from restfuzz.telemetry import EVENTS_FILENAME, FuzzReport, TelemetrySink, emit_report


def make_instance(ids, indices=None, status=500):
    indices = indices or [0] * len(ids)
    return BugInstance(steps=tuple(zip(ids, indices)), final_status=status)


class Filing:
    """A bucket store and the report fed from each of its ``record``
    results, as ``FuzzEngine._record_test`` feeds them."""

    def __init__(self):
        self.store = BucketStore()
        self.report = FuzzReport()

    def record(self, ids, indices=None):
        bucket_id, defining, created = self.store.record(make_instance(ids, indices))
        self.report.add_bucket_instance(bucket_id, defining)
        return bucket_id, defining, created

    def counts(self):
        """Defining sequence -> instance count, per bucket of the report."""
        return {tuple(b["defining_sequence"]): b["instances"] for b in self.report.buckets}


class RecordedRun:
    """A run directory whose bugs are recorded as the engine records them:
    each step's exchange, then the instance filed in a store and its
    ``bucket`` event; ``bug`` returns the bucket's id. Every request carries
    ``auth_header: secret``; every response but the last is a bodiless 200,
    the last one ``status oops`` with body ``boom``."""

    def __init__(self, run_dir, auth_header="PRIVATE-TOKEN"):
        self.dir = run_dir
        self.auth_header = auth_header
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "config.json").write_text(json.dumps({"auth_header": auth_header}))
        self.sink = TelemetrySink(run_dir)
        self.store = BucketStore()
        self.tests = 0

    def bug(self, ids, indices=None, status=500, requests=None, responses=None):
        instance = make_instance(ids, indices, status)
        for step_index, tid in enumerate(ids):
            final = step_index == len(ids) - 1
            request = f"GET /{tid} HTTP/1.1\r\n{self.auth_header}: secret\r\n\r\n".encode()
            exchange = HttpExchange(
                request=request if requests is None else requests[step_index],
                status=status if final else 200,
                reason="oops" if final else "OK",
                headers=(),
                body=b"boom" if final else b"",
                started=time.monotonic(),
                duration=0.0,
            )
            if responses is not None:
                exchange.status, exchange.reason = responses[step_index]
            self.sink.record_exchange(
                self.tests, instance.steps, step_index, exchange, "bug" if final else "valid"
            )
        bucket_id, defining, created = self.store.record(instance)
        self.sink.record_bucket(self.tests, instance, bucket_id, defining, created)
        self.tests += 1
        return bucket_id

    def close(self):
        """End the run and write its report files and bucket directory."""
        self.sink.close()
        emit_report(self.dir)
        return self.dir

    def instance(self, bucket_id, index):
        return recorded_instance(self.dir / EVENTS_FILENAME, bucket_id, index)


# --------------------------------------------------------------------------
# The suffix rule


class TestSuffixRule:
    def test_first_bug_founds_a_bucket(self):
        bugs = Filing()
        _, defining, created = bugs.record(["POST /projects", "POST /commits"])
        assert created
        assert defining == ("POST /projects", "POST /commits")
        assert len(bugs.report.buckets) == 1

    def test_longer_sequence_ending_the_same_way_is_absorbed(self):
        bugs = Filing()
        bugs.record(["POST /projects", "POST /commits"])
        _, defining, created = bugs.record(["POST /projects", "POST /projects", "POST /commits"])
        assert not created
        assert defining == ("POST /projects", "POST /commits")
        assert bugs.counts()[defining] == 2
        assert len(bugs.report.buckets) == 1

    def test_interleaved_sequence_is_a_different_bug(self):
        bugs = Filing()
        bugs.record(["B", "C"])
        _, defining, created = bugs.record(["A", "B", "X", "C"])
        # No suffix of A;B;X;C equals B;C, so this founds its own bucket.
        assert created
        assert defining == ("A", "B", "X", "C")
        assert len(bugs.report.buckets) == 2

    def test_shortest_suffix_wins_when_several_would_match(self):
        bugs = Filing()
        bugs.record(["B", "C"])
        bugs.record(["C"])
        _, defining, created = bugs.record(["A", "B", "C"])
        assert not created
        assert defining == ("C",)

    def test_renderings_do_not_split_buckets(self):
        bugs = Filing()
        bugs.record(["A", "B"], indices=[0, 0])
        _, defining, created = bugs.record(["A", "B"], indices=[3, 7])
        assert not created
        assert bugs.counts()[defining] == 2


def oracle_bucketize(sequences):
    """Reference implementation: linear scans, no hashing, no store."""
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


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from("ABCD"), min_size=1, max_size=4).map(tuple),
        min_size=0,
        max_size=14,
    )
)
def test_store_matches_brute_force_oracle(sequences):
    bugs = Filing()
    homes = [bugs.record(list(seq))[0] for seq in sequences]
    expected = oracle_bucketize(sequences)

    counts = bugs.counts()
    assert sorted(counts) == sorted(e[0] for e in expected)
    for defining, members in expected:
        bucket_id = bucket_id_for(defining)
        assert [seq for seq, home in zip(sequences, homes) if home == bucket_id] == members
        assert counts[defining] == len(members)


# --------------------------------------------------------------------------
# Identity and lookup


class TestIdentity:
    def test_bucket_id_is_a_12_char_hex_digest(self):
        bid = bucket_id_for(["POST /a", "GET /b"])
        assert len(bid) == 12
        assert all(c in "0123456789abcdef" for c in bid)
        assert bucket_id_for(["POST /a", "GET /b"]) == bid

    def test_bucket_id_depends_on_order(self):
        assert bucket_id_for(["A", "B"]) != bucket_id_for(["B", "A"])

    def test_buckets_listed_in_stable_order(self):
        bugs = Filing()
        bugs.record(["A"])
        bugs.record(["B"])
        listed = bugs.report.buckets
        assert [b["bucket_id"] for b in listed] == sorted(b["bucket_id"] for b in listed)


class TestInstanceValidation:
    def test_empty_instance_rejected(self):
        with pytest.raises(BucketError):
            BugInstance(steps=(), final_status=500)


# --------------------------------------------------------------------------
# Concurrency


def test_concurrent_records_agree_on_one_bucket():
    bugs = Filing()
    outcomes = []
    barrier = threading.Barrier(8)
    report_lock = threading.Lock()  # the engine's lock around its report

    def work():
        barrier.wait()
        bucket_id, defining, created = bugs.store.record(make_instance(["A", "B"]))
        with report_lock:
            bugs.report.add_bucket_instance(bucket_id, defining)
        outcomes.append(created)

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert len(bugs.report.buckets) == 1
    assert outcomes.count(True) == 1
    assert bugs.report.buckets[0]["instances"] == 8


# --------------------------------------------------------------------------
# The record of each instance, and the bucket directory built from it


class TestPersistence:
    def test_on_disk_layout(self, tmp_path):
        run = RecordedRun(tmp_path)
        bucket_id = run.bug(["POST /a", "PUT /b"])
        run.bug(["X", "POST /a", "PUT /b"])
        # Nothing is written under buckets/ while the run records.
        assert not (tmp_path / "buckets").exists()
        run.close()
        directory = tmp_path / "buckets" / bucket_id

        meta = json.loads((directory / "bucket.json").read_text())
        assert meta["bucket_id"] == bucket_id
        assert meta["defining_sequence"] == ["POST /a", "PUT /b"]
        assert meta["instance_count"] == 2

        assert (directory / "defining_sequence.txt").read_text() == "POST /a\nPUT /b\n"
        assert sorted(p.name for p in directory.iterdir()) == [
            "bucket.json",
            "defining_sequence.txt",
            "instance-0001.txt",
            "instance-0002.txt",
            "replay.sh",
        ]
        assert (directory / "instance-0002.txt").read_text().startswith("1/3: GET /X HTTP/1.1\n")

        script = directory / "replay.sh"
        assert script.stat().st_mode & stat.S_IXUSR
        assert bucket_id in script.read_text()

    def test_auth_value_never_reaches_disk(self, tmp_path):
        """... of the bucket directory: events.jsonl alone keeps the token."""
        run = RecordedRun(tmp_path)
        bucket_id = run.bug(["POST /a"])
        run.close()
        directory = tmp_path / "buckets" / bucket_id

        human = (directory / "instance-0001.txt").read_text()
        assert "PRIVATE-TOKEN: [FILTERED]" in human
        for path in directory.iterdir():
            assert b"secret" not in path.read_bytes(), path.name

    def test_custom_auth_header_is_redacted(self, tmp_path):
        run = RecordedRun(tmp_path, auth_header="X-Api-Key")
        bucket_id = run.bug(["A"])
        run.close()
        human = (tmp_path / "buckets" / bucket_id / "instance-0001.txt").read_text()
        assert "secret" not in human
        assert "X-Api-Key: [FILTERED]" in human

    def test_load_round_trips(self, tmp_path):
        """The bucket directory is a view of the record: rebuilt from
        events.jsonl alone, it is the same, byte for byte."""
        run = RecordedRun(tmp_path / "run")
        run.bug(["A", "B"])
        run.bug(["C"])
        run.bug(["X", "C"])
        run_dir = run.close()
        written = {p.relative_to(run_dir): p.read_bytes() for p in run_dir.glob("buckets/*/*")}
        assert len(written) == 2 * 3 + 3

        shutil.rmtree(run_dir / "buckets")
        emit_report(run_dir)
        assert {
            p.relative_to(run_dir): p.read_bytes() for p in run_dir.glob("buckets/*/*")
        } == written
        c_dir = run_dir / "buckets" / bucket_id_for(["C"])
        assert json.loads((c_dir / "bucket.json").read_text())["instance_count"] == 2

    def test_instance_reads_back_one_file(self, tmp_path):
        """An instance is read back from its bucket event in events.jsonl,
        with or without a bucket directory."""
        run = RecordedRun(tmp_path)
        bucket_id = run.bug(["A", "B"], indices=[1, 2], status=503)
        run.bug(["X", "A", "B"])
        run.sink.close()

        first = run.instance(bucket_id, 0)
        assert first == BugInstance(steps=(("A", 1), ("B", 2)), final_status=503)
        assert run.instance(bucket_id, 1).template_ids == ("X", "A", "B")
        assert not (tmp_path / "buckets").exists()

    @pytest.mark.parametrize("index", [2, -1])
    def test_instance_out_of_range_raises(self, tmp_path, index):
        run = RecordedRun(tmp_path)
        bucket_id = run.bug(["A"])
        run.bug(["B", "A"])
        run.close()
        with pytest.raises(BucketError, match=f"has no instance #{index}"):
            run.instance(bucket_id, index)

    def test_instance_of_unknown_bucket_raises(self, tmp_path):
        run = RecordedRun(tmp_path)
        run.bug(["A"])
        run.close()
        with pytest.raises(UnknownBucket, match="nosuch"):
            run.instance("nosuch", 0)

    @pytest.mark.parametrize(
        "drop, replace, message",
        [
            ("steps", {}, "has no 'steps' field"),
            ("final_status", {}, "has no 'final_status' field"),
            (None, {"steps": [["A"]]}, "malformed steps"),
            (None, {"steps": []}, "at least one step"),
        ],
        ids=["no-steps", "no-final-status", "short-step", "empty-steps"],
    )
    def test_unreplayable_bucket_event_is_an_error(self, tmp_path, drop, replace, message):
        """A bucket event without a usable instance, such as one recorded
        before events carried instances, is named in the error."""
        run = RecordedRun(tmp_path)
        bucket_id = run.bug(["A"])
        run.close()
        path = tmp_path / EVENTS_FILENAME
        events = [json.loads(line) for line in path.read_text().splitlines()]
        for event in events:
            if event["type"] == "bucket":
                event.pop(drop, None)
                event.update(replace)
        path.write_text("".join(json.dumps(event) + "\n" for event in events))
        with pytest.raises(BucketError, match=message):
            run.instance(bucket_id, 0)

    def test_memory_does_not_grow_with_recorded_instances(self):
        """The store holds its index, not the instances it filed."""

        def held(count):
            instances = [
                make_instance(["POST /a", "GET /b", f"PUT /c{i % 3}"]) for i in range(count)
            ]
            tracemalloc.start()
            try:
                store = BucketStore()
                for instance in instances:
                    store.record(instance)
                del instances
                gc.collect()
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        small = held(10)
        large = held(1000)
        assert large < 1.5 * small, (small, large)

    def test_write_errors_degrade_without_crashing(self, tmp_path):
        """The campaign writes no bucket files, so a bucket directory that
        cannot be made does not stop it; only the report fails."""
        (tmp_path / "buckets").write_text("a file where the bucket directory goes")
        run = RecordedRun(tmp_path)
        bucket_id = run.bug(["A"])
        assert bucket_id == bucket_id_for(["A"])
        run.sink.close()
        assert run.instance(bucket_id, 0).template_ids == ("A",)
        with pytest.raises(OSError):
            emit_report(tmp_path)


# --------------------------------------------------------------------------
# Human-readable trace


def test_trace_format_is_numbered_requests_then_responses(tmp_path):
    run = RecordedRun(tmp_path)
    bucket_id = run.bug(
        ["POST /a", "GET /b"],
        indices=[0, 1],
        requests=[b"POST /a HTTP/1.1\r\nHost: h\r\n\r\n", b"GET /b HTTP/1.1\r\n\r\n"],
        responses=[(200, "OK"), (500, "boom")],
    )
    run.close()
    assert (tmp_path / "buckets" / bucket_id / "instance-0001.txt").read_text() == (
        "1/2: POST /a HTTP/1.1\nHost: h\n"
        "\n"
        "=> HTTP/1.1 200 OK\n"
        "\n"
        "2/2: GET /b HTTP/1.1\n"
        "\n"
        "=> HTTP/1.1 500 boom\n"
        "\n"
        "boom\n"
    )


# --------------------------------------------------------------------------
# Replay against the live service


POST = "POST /api/blog/posts"
GET_ONE = "GET /api/blog/posts/{id}"
PUT_ONE = "PUT /api/blog/posts/{id}"
DELETE_ONE = "DELETE /api/blog/posts/{id}"


@pytest.fixture()
def live_executor(blog_conn, blog_grammar):
    executor = SequenceExecutor(SocketTransport(blog_conn), blog_grammar.template_by_id)
    yield executor
    executor.close()


def replay_stored(run, bucket_id, grammar, dictionary, executor, index=0):
    """Replay instance #index of a bucket as read back from the record."""
    return replay_bucket(bucket_id, run.instance(bucket_id, index), grammar, dictionary, executor)


class TestReplay:
    def test_planted_bug_reproduces(self, tmp_path, blog_grammar, dictionary, live_executor):
        run = RecordedRun(tmp_path)
        bucket_id = run.bug([POST, GET_ONE, PUT_ONE])
        run.close()
        result = replay_stored(run, bucket_id, blog_grammar, dictionary, live_executor)
        assert result.reproduced
        assert result.final_status == 500
        assert result.diverged_step is None

    def test_unreproducible_sequence_reports_divergence(
        self, tmp_path, blog_grammar, dictionary, live_executor
    ):
        # This chain was never a 500; replaying it lands on the 404 at step 3.
        run = RecordedRun(tmp_path)
        bucket_id = run.bug([POST, DELETE_ONE, GET_ONE])
        run.close()
        result = replay_stored(run, bucket_id, blog_grammar, dictionary, live_executor)
        assert not result.reproduced
        assert result.final_class == "invalid"
        assert result.final_status == 404
        assert result.diverged_step == 3

    def test_transport_failure_is_not_a_divergence(
        self, tmp_path, blog_conn, blog_grammar, dictionary
    ):
        class FailingFetch(SocketTransport):
            """The create goes through; the fetch after it gets no response."""

            def roundtrip(self, request):
                if request.startswith(b"GET "):
                    raise TransportFailure("read", "connection reset")
                return super().roundtrip(request)

        run = RecordedRun(tmp_path)
        bucket_id = run.bug([POST, GET_ONE, PUT_ONE])
        run.close()
        executor = SequenceExecutor(FailingFetch(blog_conn), blog_grammar.template_by_id)
        try:
            result = replay_stored(run, bucket_id, blog_grammar, dictionary, executor)
        finally:
            executor.close()
        assert not result.reproduced
        assert (result.final_class, result.final_status, result.diverged_step) == (
            "invalid", None, None
        )
        assert str(result.failure) == "read: connection reset"

    def test_rendering_index_outside_dictionary_is_an_error(
        self, tmp_path, blog_grammar, dictionary, live_executor
    ):
        run = RecordedRun(tmp_path)
        bucket_id = run.bug([POST], indices=[999])
        run.close()
        with pytest.raises(BucketError, match="dictionary mismatch"):
            replay_stored(run, bucket_id, blog_grammar, dictionary, live_executor)

    def test_missing_instance_index_is_an_error(
        self, tmp_path, blog_grammar, dictionary, live_executor
    ):
        run = RecordedRun(tmp_path)
        bucket_id = run.bug([POST])
        run.close()
        with pytest.raises(BucketError, match="no instance"):
            replay_stored(
                run, bucket_id, blog_grammar, dictionary, live_executor, index=5
            )
