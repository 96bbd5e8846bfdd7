"""Bucketization and replay tests.

The suffix rule is checked two ways: worked examples frozen by hand, and a
hypothesis property comparing BucketStore against oracle_bucketize(), a
deliberately naive reimplementation kept free of the store's data
structures so the two can only agree by computing the same thing.
"""

from __future__ import annotations

import base64
import json
import stat
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from restfuzz.buckets import (
    BucketError,
    BucketStore,
    BugInstance,
    StorageFailure,
    UnknownBucket,
    bucket_id_for,
    format_instance_trace,
    replay_bucket,
)
from restfuzz.executor import SequenceExecutor, SocketTransport
from restfuzz.grammar import FuzzingDictionary


def make_instance(ids, indices=None, status=500):
    indices = indices or [0] * len(ids)
    return BugInstance(
        steps=tuple(zip(ids, indices)),
        requests=tuple(
            f"GET /{tid} HTTP/1.1\r\nPRIVATE-TOKEN: secret\r\n\r\n".encode() for tid in ids
        ),
        responses=tuple(b"HTTP/1.1 500 oops\r\n\r\nboom" for _ in ids),
        final_status=status,
        found_at=1234.5,
    )


# --------------------------------------------------------------------------
# The suffix rule


class TestSuffixRule:
    def test_first_bug_founds_a_bucket(self):
        store = BucketStore()
        bucket, created = store.record(make_instance(["POST /projects", "POST /commits"]))
        assert created
        assert bucket.defining_sequence == ("POST /projects", "POST /commits")
        assert len(store.buckets()) == 1

    def test_longer_sequence_ending_the_same_way_is_absorbed(self):
        store = BucketStore()
        store.record(make_instance(["POST /projects", "POST /commits"]))
        bucket, created = store.record(
            make_instance(["POST /projects", "POST /projects", "POST /commits"])
        )
        assert not created
        assert bucket.defining_sequence == ("POST /projects", "POST /commits")
        assert bucket.instance_count == 2
        assert len(store.buckets()) == 1

    def test_interleaved_sequence_is_a_different_bug(self):
        store = BucketStore()
        store.record(make_instance(["B", "C"]))
        bucket, created = store.record(make_instance(["A", "B", "X", "C"]))
        # No suffix of A;B;X;C equals B;C, so this founds its own bucket.
        assert created
        assert bucket.defining_sequence == ("A", "B", "X", "C")
        assert len(store.buckets()) == 2

    def test_shortest_suffix_wins_when_several_would_match(self):
        store = BucketStore()
        store.record(make_instance(["B", "C"]))
        store.record(make_instance(["C"]))
        bucket, created = store.record(make_instance(["A", "B", "C"]))
        assert not created
        assert bucket.defining_sequence == ("C",)

    def test_renderings_do_not_split_buckets(self):
        store = BucketStore()
        store.record(make_instance(["A", "B"], indices=[0, 0]))
        bucket, created = store.record(make_instance(["A", "B"], indices=[3, 7]))
        assert not created
        assert bucket.instance_count == 2


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
    store = BucketStore()
    homes = [store.record(make_instance(list(seq)))[0] for seq in sequences]
    expected = oracle_bucketize(sequences)

    got = store.buckets()
    assert sorted(b.defining_sequence for b in got) == sorted(e[0] for e in expected)
    by_defining = {b.defining_sequence: b for b in got}
    for defining, members in expected:
        bucket = by_defining[defining]
        assert [seq for seq, home in zip(sequences, homes) if home is bucket] == members
        assert bucket.instance_count == len(members)


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

    def test_get_unknown_id_raises(self):
        store = BucketStore()
        with pytest.raises(UnknownBucket, match="nosuch"):
            store.get("nosuch")

    def test_get_returns_recorded_bucket(self):
        store = BucketStore()
        bucket, _ = store.record(make_instance(["A"]))
        assert store.get(bucket.bucket_id) is bucket

    def test_buckets_listed_in_stable_order(self):
        store = BucketStore()
        store.record(make_instance(["A"]))
        store.record(make_instance(["B"]))
        listed = store.buckets()
        assert [b.bucket_id for b in listed] == sorted(b.bucket_id for b in listed)


class TestInstanceValidation:
    def test_empty_instance_rejected(self):
        with pytest.raises(BucketError):
            BugInstance(steps=(), requests=(), responses=(), final_status=500, found_at=0.0)

    def test_misaligned_instance_rejected(self):
        with pytest.raises(BucketError):
            BugInstance(
                steps=(("A", 0),),
                requests=(b"r", b"extra"),
                responses=(b"s",),
                final_status=500,
                found_at=0.0,
            )


# --------------------------------------------------------------------------
# Concurrency


def test_concurrent_records_agree_on_one_bucket():
    store = BucketStore()
    outcomes = []
    barrier = threading.Barrier(8)

    def work():
        barrier.wait()
        _, created = store.record(make_instance(["A", "B"]))
        outcomes.append(created)

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert len(store.buckets()) == 1
    assert outcomes.count(True) == 1
    assert store.buckets()[0].instance_count == 8


# --------------------------------------------------------------------------
# Persistence


class TestPersistence:
    def test_on_disk_layout(self, tmp_path):
        store = BucketStore(root=tmp_path)
        bucket, _ = store.record(make_instance(["POST /a", "PUT /b"]))
        store.record(make_instance(["X", "POST /a", "PUT /b"]))
        directory = tmp_path / bucket.bucket_id

        meta = json.loads((directory / "bucket.json").read_text())
        assert meta["bucket_id"] == bucket.bucket_id
        assert meta["defining_sequence"] == ["POST /a", "PUT /b"]
        assert meta["instance_count"] == 2

        assert (directory / "defining_sequence.txt").read_text() == "POST /a\nPUT /b\n"
        for name in ("instance-0001.json", "instance-0001.txt",
                     "instance-0002.json", "instance-0002.txt"):
            assert (directory / name).is_file()

        script = directory / "replay.sh"
        assert script.stat().st_mode & stat.S_IXUSR
        assert bucket.bucket_id in script.read_text()

    def test_auth_value_never_reaches_disk(self, tmp_path):
        store = BucketStore(root=tmp_path)
        bucket, _ = store.record(make_instance(["POST /a"]))
        directory = tmp_path / bucket.bucket_id

        human = (directory / "instance-0001.txt").read_text()
        assert "secret" not in human
        assert "PRIVATE-TOKEN: [FILTERED]" in human

        machine = json.loads((directory / "instance-0001.json").read_text())
        raw = base64.b64decode(machine["requests"][0])
        assert b"secret" not in raw
        assert b"PRIVATE-TOKEN: [FILTERED]" in raw

    def test_custom_auth_header_is_redacted(self, tmp_path):
        store = BucketStore(root=tmp_path, auth_header_name="X-Api-Key")
        inst = BugInstance(
            steps=(("A", 0),),
            requests=(b"GET / HTTP/1.1\r\nX-Api-Key: topsecret\r\n\r\n",),
            responses=(b"HTTP/1.1 500 x\r\n\r\n",),
            final_status=500,
            found_at=0.0,
        )
        bucket, _ = store.record(inst)
        human = (tmp_path / bucket.bucket_id / "instance-0001.txt").read_text()
        assert "topsecret" not in human

    def test_load_round_trips(self, tmp_path):
        store = BucketStore(root=tmp_path)
        store.record(make_instance(["A", "B"]))
        store.record(make_instance(["C"]))
        store.record(make_instance(["X", "C"]))

        loaded = BucketStore.load(tmp_path)
        assert len(loaded.buckets()) == 2
        assert {b.defining_sequence for b in loaded.buckets()} == {("A", "B"), ("C",)}
        c_bucket = loaded.get(bucket_id_for(["C"]))
        assert c_bucket.instance_count == 2
        # Stored bytes come back redacted, as written.
        assert b"PRIVATE-TOKEN: [FILTERED]" in loaded.instance(c_bucket.bucket_id, 0).requests[0]

        # A reloaded store keeps deduplicating against the old buckets.
        _, created = loaded.record(make_instance(["Y", "A", "B"]))
        assert not created

    def test_instance_reads_back_one_file(self, tmp_path):
        store = BucketStore(root=tmp_path)
        bucket, _ = store.record(make_instance(["A", "B"], indices=[1, 2], status=503))
        store.record(make_instance(["X", "A", "B"]))

        first = store.instance(bucket.bucket_id, 0)
        assert first.steps == (("A", 1), ("B", 2))
        assert first.final_status == 503
        assert first.found_at == 1234.5
        assert first.responses == (b"HTTP/1.1 500 oops\r\n\r\nboom",) * 2
        assert store.instance(bucket.bucket_id, 1).template_ids == ("X", "A", "B")

    @pytest.mark.parametrize("index", [2, -1])
    def test_instance_out_of_range_raises(self, tmp_path, index):
        store = BucketStore(root=tmp_path)
        bucket, _ = store.record(make_instance(["A"]))
        store.record(make_instance(["B", "A"]))
        with pytest.raises(BucketError, match=f"has no instance #{index}"):
            store.instance(bucket.bucket_id, index)

    def test_store_without_root_keeps_no_instances(self):
        store = BucketStore()
        bucket, _ = store.record(make_instance(["A"]))
        with pytest.raises(BucketError, match="has no instance #0"):
            store.instance(bucket.bucket_id, 0)

    def test_instance_of_unknown_bucket_raises(self, tmp_path):
        with pytest.raises(UnknownBucket):
            BucketStore(root=tmp_path).instance("nosuch", 0)

    @pytest.mark.parametrize("content", ["{not json", '{"steps": []}', "[]"])
    def test_corrupt_instance_file_raises_storage_failure(self, tmp_path, content):
        store = BucketStore(root=tmp_path)
        bucket, _ = store.record(make_instance(["A"]))
        (tmp_path / bucket.bucket_id / "instance-0001.json").write_text(content)
        with pytest.raises(StorageFailure, match="instance-0001.json"):
            store.instance(bucket.bucket_id, 0)

    def test_load_counts_instance_files(self, tmp_path):
        store = BucketStore(root=tmp_path)
        bucket, _ = store.record(make_instance(["A"]))
        store.record(make_instance(["B", "A"]))
        store.record(make_instance(["C", "A"]))
        # The count comes from the files; their contents are not read.
        (tmp_path / bucket.bucket_id / "instance-0002.json").write_text("{not json")

        loaded = BucketStore.load(tmp_path)
        assert loaded.get(bucket.bucket_id).instance_count == 3
        _, created = loaded.record(make_instance(["D", "A"]))
        assert not created
        assert (tmp_path / bucket.bucket_id / "instance-0004.json").is_file()
        meta = json.loads((tmp_path / bucket.bucket_id / "bucket.json").read_text())
        assert meta["instance_count"] == 4

    def test_load_continues_after_the_highest_ordinal(self, tmp_path, monkeypatch):
        write_text = Path.write_text

        def full_disk_for_0002(path, *args, **kwargs):
            if path.name == "instance-0002.json":
                raise OSError(28, "No space left on device")
            return write_text(path, *args, **kwargs)

        store = BucketStore(root=tmp_path)
        monkeypatch.setattr(Path, "write_text", full_disk_for_0002)
        bucket, _ = store.record(make_instance(["A"]))
        store.record(make_instance(["B", "A"]))
        store.record(make_instance(["C", "A"]))
        monkeypatch.undo()
        directory = tmp_path / bucket.bucket_id
        assert store.storage_errors == 1
        assert sorted(p.name for p in directory.glob("instance-*.json")) == [
            "instance-0001.json",
            "instance-0003.json",
        ]
        newest = (directory / "instance-0003.json").read_bytes()

        loaded = BucketStore.load(tmp_path)
        assert loaded.get(bucket.bucket_id).instance_count == 3
        loaded.record(make_instance(["D", "A"]))
        assert (directory / "instance-0003.json").read_bytes() == newest
        assert loaded.instance(bucket.bucket_id, 3).template_ids == ("D", "A")

    def test_memory_does_not_grow_with_recorded_instances(self, tmp_path):
        body = b"x" * (16 * 1024)

        def peak(count, root):
            store = BucketStore(root=root)
            tracemalloc.start()
            try:
                for i in range(count):
                    ids = ["POST /a", "GET /b", f"PUT /c{i % 3}"]
                    store.record(
                        BugInstance(
                            steps=tuple((tid, 0) for tid in ids),
                            requests=tuple(f"GET /{tid} HTTP/1.1\r\n\r\n".encode() for tid in ids),
                            responses=tuple(b"HTTP/1.1 500 x\r\n\r\n" + body for _ in ids),
                            final_status=500,
                            found_at=float(i),
                        )
                    )
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = peak(10, tmp_path / "small")
        large = peak(100, tmp_path / "large")
        assert large < 1.5 * small, (small, large)

    def test_load_missing_directory_raises(self, tmp_path):
        with pytest.raises(StorageFailure):
            BucketStore.load(tmp_path / "never-written")

    def test_load_corrupt_metadata_raises(self, tmp_path):
        bad = tmp_path / "deadbeef0000"
        bad.mkdir()
        (bad / "bucket.json").write_text("{not json")
        with pytest.raises(StorageFailure):
            BucketStore.load(tmp_path)

    def test_write_errors_degrade_without_crashing(self, tmp_path):
        blocker = tmp_path / "occupied"
        blocker.write_text("a file where the store wants a directory")
        store = BucketStore(root=blocker)
        bucket, created = store.record(make_instance(["A"]))
        assert created
        assert bucket.defining_sequence == ("A",)
        assert store.storage_errors > 0


# --------------------------------------------------------------------------
# Human-readable trace


def test_trace_format_is_numbered_requests_then_responses():
    inst = BugInstance(
        steps=(("POST /a", 0), ("GET /b", 1)),
        requests=(b"POST /a HTTP/1.1\r\nHost: h\r\n\r\n", b"GET /b HTTP/1.1\r\n\r\n"),
        responses=(b"HTTP/1.1 200 OK\r\n\r\n", b"HTTP/1.1 500 boom\r\n\r\n"),
        final_status=500,
        found_at=0.0,
    )
    assert format_instance_trace(inst) == (
        "1/2: POST /a HTTP/1.1\nHost: h\n"
        "\n"
        "=> HTTP/1.1 200 OK\n"
        "\n"
        "2/2: GET /b HTTP/1.1\n"
        "\n"
        "=> HTTP/1.1 500 boom\n"
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


def replay_stored(store, bucket_id, grammar, dictionary, executor, index=0):
    """Replay instance #index of a bucket as read back from the store."""
    instance = store.instance(bucket_id, index)
    return replay_bucket(bucket_id, instance, grammar, dictionary, executor)


class TestReplay:
    def test_planted_bug_reproduces(self, tmp_path, blog_grammar, dictionary, live_executor):
        store = BucketStore(root=tmp_path)
        bucket, _ = store.record(make_instance([POST, GET_ONE, PUT_ONE]))
        result = replay_stored(store, bucket.bucket_id, blog_grammar, dictionary, live_executor)
        assert result.reproduced
        assert result.final_status == 500
        assert result.diverged_step is None

    def test_unreproducible_sequence_reports_divergence(
        self, tmp_path, blog_grammar, dictionary, live_executor
    ):
        # This chain was never a 500; replaying it lands on the 404 at step 3.
        store = BucketStore(root=tmp_path)
        bucket, _ = store.record(make_instance([POST, DELETE_ONE, GET_ONE]))
        result = replay_stored(store, bucket.bucket_id, blog_grammar, dictionary, live_executor)
        assert not result.reproduced
        assert result.final_class == "invalid"
        assert result.final_status == 404
        assert result.diverged_step == 3

    def test_rendering_index_outside_dictionary_is_an_error(
        self, tmp_path, blog_grammar, dictionary, live_executor
    ):
        store = BucketStore(root=tmp_path)
        bucket, _ = store.record(make_instance([POST], indices=[999]))
        with pytest.raises(BucketError, match="dictionary mismatch"):
            replay_stored(store, bucket.bucket_id, blog_grammar, dictionary, live_executor)

    def test_missing_instance_index_is_an_error(
        self, tmp_path, blog_grammar, dictionary, live_executor
    ):
        store = BucketStore(root=tmp_path)
        bucket, _ = store.record(make_instance([POST]))
        with pytest.raises(BucketError, match="no instance"):
            replay_stored(
                store, bucket.bucket_id, blog_grammar, dictionary, live_executor, index=5
            )
