"""End-to-end CLI tests: compile/fuzz/replay/report round trips, exit codes.

One full recorded campaign (module-scoped fixture) backs the artifact,
replay and report-parity checks, so the expensive part runs once.
"""

from __future__ import annotations

import base64
import contextlib
import itertools
import json
import shutil
import socket
import struct
import threading

import pytest

import restfuzz.cli as cli
from restfuzz.blogserver import bundled_spec_path, serve
from restfuzz.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_UNREACHABLE,
    baked_host,
    main,
    parse_target,
)
from restfuzz.compiler import compile_grammar, parse_spec
from restfuzz.engine import ConfigError, FuzzEngine
from restfuzz.executor import SocketTransport
from restfuzz.grammar import load_grammar
from restfuzz.telemetry import EVENTS_FILENAME, TelemetrySink

SPEC = str(bundled_spec_path())
BUCKET_ID = "c46f74afdc64"  # BFS depth 3 finds exactly this one


def closed_port() -> int:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


@contextlib.contextmanager
def resetting_server():
    """A target that accepts connections and answers every request with a
    TCP reset; yields its port."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve_resets():
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return  # the listener was closed
            with conn:
                if conn.recv(65536):
                    conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))

    thread = threading.Thread(target=serve_resets, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[1]
    finally:
        listener.close()
        thread.join(timeout=5)


def report_fingerprint(out_dir):
    data = json.loads((out_dir / "report.json").read_text())
    data.pop("elapsed_seconds", None)
    return data


# --------------------------------------------------------------------------
# Argument plumbing


class TestParseTarget:
    def test_host_and_port(self):
        assert parse_target("example.com:8080") == ("example.com", 8080)

    def test_default_ports(self):
        assert parse_target("example.com") == ("example.com", 80)
        assert parse_target("example.com", secure=True) == ("example.com", 443)

    def test_bad_targets(self):
        with pytest.raises(ConfigError):
            parse_target("host:notaport")
        with pytest.raises(ConfigError):
            parse_target(":8080")


def test_baked_host_round_trips(blog_model):
    assert baked_host(compile_grammar(blog_model)) == "localhost:8888"
    assert baked_host(compile_grammar(blog_model, host="10.0.0.5:9999")) == "10.0.0.5:9999"


# --------------------------------------------------------------------------
# Usage errors


class TestUsage:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        capsys.readouterr()

    def test_fuzz_requires_a_source(self, capsys):
        assert main(["fuzz", "--target", "localhost:1"]) == 2
        capsys.readouterr()

    def test_fuzz_rejects_both_sources(self, tmp_path, capsys):
        assert (
            main(["fuzz", "--spec", SPEC, "--grammar", SPEC, "--out", str(tmp_path / "o")])
            == 2
        )
        capsys.readouterr()

    def test_unknown_strategy(self, tmp_path, capsys):
        code = main(
            ["fuzz", "--spec", SPEC, "--strategy", "dfs", "--out", str(tmp_path / "o"),
             "--target", "localhost:1"]
        )
        assert code == EXIT_CONFIG
        assert "unknown strategy" in capsys.readouterr().err

    def test_bad_error_status_pattern(self, tmp_path, capsys):
        code = main(
            ["fuzz", "--spec", SPEC, "--error-status", "5xxx", "--out", str(tmp_path / "o"),
             "--target", "localhost:1"]
        )
        assert code == EXIT_CONFIG
        capsys.readouterr()

    @pytest.mark.parametrize("source", ["--spec", "--grammar"])
    def test_dictionary_gap_fails_before_writing(self, source, tmp_path, capsys):
        source_path = SPEC
        if source == "--grammar":
            source_path = str(tmp_path / "grammar.json")
            assert main(["compile", "--spec", SPEC, "--out", source_path]) == EXIT_OK
        no_strings = tmp_path / "dictionary.json"
        no_strings.write_text(json.dumps({"integer": ["0"]}))
        out = tmp_path / "o"
        code = main(
            ["fuzz", source, source_path, "--dictionary", str(no_strings),
             "--out", str(out), "--target", "localhost:1"]
        )
        assert code == EXIT_CONFIG
        assert "no candidates for kind 'string'" in capsys.readouterr().err
        assert not out.exists()

    def test_walk_without_budget(self, tmp_path, capsys):
        code = main(
            ["fuzz", "--spec", SPEC, "--strategy", "random-walk",
             "--out", str(tmp_path / "o"), "--target", "localhost:1"]
        )
        assert code == EXIT_CONFIG
        assert "time budget" in capsys.readouterr().err

    def test_unreachable_target_is_exit_3(self, tmp_path, capsys):
        code = main(
            ["fuzz", "--spec", SPEC, "--max-length", "1",
             "--out", str(tmp_path / "o"), "--target", f"127.0.0.1:{closed_port()}"]
        )
        assert code == EXIT_UNREACHABLE
        assert "unreachable" in capsys.readouterr().err


# --------------------------------------------------------------------------
# compile


class TestCompile:
    def test_compile_writes_a_loadable_grammar(self, tmp_path, capsys):
        out = tmp_path / "grammar.json"
        assert main(["compile", "--spec", SPEC, "--out", str(out)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "5 request templates" in stdout
        grammar = load_grammar(out.read_text())
        assert len(grammar.templates) == 5

    def test_compile_target_overrides_document_host(self, tmp_path, capsys):
        out = tmp_path / "grammar.json"
        main(["compile", "--spec", SPEC, "--out", str(out), "--target", "10.1.2.3:80"])
        capsys.readouterr()
        assert baked_host(load_grammar(out.read_text())) == "10.1.2.3:80"

    @pytest.mark.parametrize("command", ["compile", "fuzz"])
    def test_spec_warnings_are_logged_once(self, command, tmp_path, capsys, caplog):
        spec = tmp_path / "spec.yaml"
        spec.write_text(
            "swagger: '2.0'\n"
            "info: {title: t, version: '1'}\n"
            "paths:\n"
            "  /items:\n"
            "    x-internal: true\n"
            "    get:\n"
            "      parameters:\n"
            "        - {name: X-Trace, in: header, type: string}\n"
            "      responses: {'200': {description: ok}}\n"
        )
        argv, expected_code = (
            ["compile", "--spec", str(spec), "--out", str(tmp_path / "grammar.json")], EXIT_OK
        )
        if command == "fuzz":
            argv, expected_code = (
                ["fuzz", "--spec", str(spec), "--max-length", "1",
                 "--out", str(tmp_path / "o"), "--target", f"127.0.0.1:{closed_port()}"],
                EXIT_UNREACHABLE,
            )
        with caplog.at_level("WARNING"):
            assert main(argv) == expected_code
        capsys.readouterr()
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert sorted(warnings) == [
            "GET /items: ignoring unsupported parameter location 'header'",
            "ignoring unsupported construct '/items'.x-internal",
        ]

    def test_compile_missing_spec_file(self, tmp_path, capsys):
        code = main(["compile", "--spec", str(tmp_path / "nope.yaml")])
        assert code == EXIT_CONFIG
        capsys.readouterr()


# --------------------------------------------------------------------------
# One full recorded campaign, shared by the tests below


@pytest.fixture(scope="module")
def recorded_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "out"
    handle = serve()
    try:
        code = main(
            ["fuzz", "--spec", SPEC, "--strategy", "bfs", "--max-length", "3",
             "--target", f"127.0.0.1:{handle.port}", "--out", str(out)]
        )
    finally:
        handle.stop()
    assert code == EXIT_OK
    return out


class TestFuzzArtifacts:
    def test_everything_is_written(self, recorded_run):
        for name in (
            "events.jsonl",
            "wire.log",
            "status_timeline.csv",
            "per_length.csv",
            "summary.txt",
            "report.json",
            "grammar.json",
            "dictionary.json",
            "config.json",
        ):
            assert (recorded_run / name).is_file(), name

    def test_report_numbers_match_the_frozen_campaign(self, recorded_run):
        report = json.loads((recorded_run / "report.json").read_text())
        assert report["total_tests"] == 41
        assert report["status_totals"] == {"valid": 28, "invalid": 12, "bug": 1}
        assert [b["bucket_id"] for b in report["buckets"]] == [BUCKET_ID]

    def test_bucket_directory_is_replayable_in_shape(self, recorded_run):
        bucket_dir = recorded_run / "buckets" / BUCKET_ID
        assert (bucket_dir / "defining_sequence.txt").read_text() == (
            "POST /api/blog/posts\n"
            "GET /api/blog/posts/{id}\n"
            "PUT /api/blog/posts/{id}\n"
        )
        assert (bucket_dir / "replay.sh").is_file()
        assert (bucket_dir / "instance-0001.txt").is_file()

    def test_out_dir_reuse_is_refused(self, recorded_run, capsys):
        code = main(
            ["fuzz", "--spec", SPEC, "--max-length", "1",
             "--target", "127.0.0.1:1", "--out", str(recorded_run)]
        )
        assert code == EXIT_CONFIG
        assert "already holds a recorded run" in capsys.readouterr().err


def copy_run(run_dir, dest, rewrite=None):
    """Copy a run directory; ``rewrite(events)`` may edit its event list."""
    shutil.copytree(run_dir, dest)
    if rewrite is not None:
        path = dest / EVENTS_FILENAME
        events = [json.loads(line) for line in path.read_text().splitlines()]
        path.write_text("".join(json.dumps(e, sort_keys=True) + "\n" for e in rewrite(events)))
    return dest


def with_instance(template_ids):
    """An event rewrite that files one more instance under BUCKET_ID, as a
    bucket event whose test left no exchanges in the record."""

    def rewrite(events):
        bucket = next(e for e in events if e["type"] == "bucket")
        extra = dict(
            bucket,
            created=False,
            test_index=10**6,
            steps=[[tid, 0] for tid in template_ids],
        )
        return events + [extra]

    return rewrite


@pytest.fixture(scope="module")
def two_instance_run(recorded_run, tmp_path_factory):
    """The recorded run, with a second instance filed under its one bucket."""
    ids = (
        "POST /api/blog/posts",
        "POST /api/blog/posts",
        "GET /api/blog/posts/{id}",
        "PUT /api/blog/posts/{id}",
    )
    return copy_run(recorded_run, tmp_path_factory.mktemp("cli") / "out", with_instance(ids))


class TestReplayCommand:
    def test_recorded_bucket_reproduces_on_a_fresh_target(self, recorded_run, capsys):
        handle = serve()
        try:
            code = main(
                ["replay", "--out", str(recorded_run), "--bucket", BUCKET_ID,
                 "--target", f"127.0.0.1:{handle.port}"]
            )
        finally:
            handle.stop()
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "reproduced" in stdout
        assert "status 500" in stdout

    def test_unknown_bucket_is_a_config_error(self, recorded_run, capsys):
        handle = serve()
        try:
            code = main(
                ["replay", "--out", str(recorded_run), "--bucket", "ffffffffffff",
                 "--target", f"127.0.0.1:{handle.port}"]
            )
        finally:
            handle.stop()
        assert code == EXIT_CONFIG
        assert "unknown bucket" in capsys.readouterr().err

    def test_instance_selects_the_stored_file(self, two_instance_run, capsys):
        handle = serve()
        try:
            code = main(
                ["replay", "--out", str(two_instance_run), "--bucket", BUCKET_ID,
                 "--instance", "1", "--target", f"127.0.0.1:{handle.port}"]
            )
        finally:
            handle.stop()
        assert code == EXIT_OK
        assert "reproduced — final class bug (status 500)" in capsys.readouterr().out
        # Instance #1 opens with two POSTs; instance #0 with one.
        assert len(handle.store.list_posts()) == 2

    @pytest.mark.parametrize("index", ["5", "-1"])
    def test_instance_out_of_range_is_a_config_error(self, two_instance_run, index, capsys):
        def replay(port):
            return main(
                ["replay", "--out", str(two_instance_run), "--bucket", BUCKET_ID,
                 "--instance", index, "--target", f"127.0.0.1:{port}"]
            )

        handle = serve()
        try:
            code = replay(handle.port)
        finally:
            handle.stop()
        assert code == EXIT_CONFIG
        assert f"no instance #{index}" in capsys.readouterr().err
        # The instance is read before the target is probed, so a bad index
        # is reported as such when nothing listens, too.
        assert replay(closed_port()) == EXIT_CONFIG
        assert f"no instance #{index}" in capsys.readouterr().err

    def test_divergence_names_the_step_of_the_instance(self, recorded_run, tmp_path, capsys):
        """A 4-step instance of the 3-step bucket that no longer reaches
        the bug: its fetch of a deleted post is a 404 at step 3 of 4."""
        ids = (
            "POST /api/blog/posts",
            "DELETE /api/blog/posts/{id}",
            "GET /api/blog/posts/{id}",
            "PUT /api/blog/posts/{id}",
        )
        run = copy_run(recorded_run, tmp_path / "run", with_instance(ids))
        handle = serve()
        try:
            code = main(
                ["replay", "--out", str(run), "--bucket", BUCKET_ID, "--instance", "1",
                 "--target", f"127.0.0.1:{handle.port}"]
            )
        finally:
            handle.stop()
        assert code == EXIT_OK
        assert capsys.readouterr().out == (
            f"bucket {BUCKET_ID}: not reproduced — final class invalid (status 404)"
            " — diverged at step 3/4\n"
        )

    def test_transport_failure_is_not_reported_as_a_divergence(self, recorded_run, capsys):
        with resetting_server() as port:
            code = main(
                ["replay", "--out", str(recorded_run), "--bucket", BUCKET_ID,
                 "--target", f"127.0.0.1:{port}"]
            )
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert stdout.startswith(
            f"bucket {BUCKET_ID}: not reproduced — transport failure (read): read: "
        )
        assert "diverged" not in stdout
        assert "status" not in stdout

    @pytest.mark.parametrize(
        "flags, sent_header",
        [([], "X-Api-Key"), (["--auth-header", "X-Other"], "X-Other")],
        ids=["recorded", "flag"],
    )
    def test_auth_header_defaults_to_the_recording_runs(
        self, recorded_run, tmp_path, monkeypatch, capsys, flags, sent_header
    ):
        run = copy_run(recorded_run, tmp_path / "run")
        config = json.loads((run / "config.json").read_text())
        (run / "config.json").write_text(json.dumps(dict(config, auth_header="X-Api-Key")))
        monkeypatch.setenv("RF_TOKEN", "t0k")
        sent = []

        class Recording(SocketTransport):
            def roundtrip(self, request):
                exchange = super().roundtrip(request)
                sent.append(exchange.request)
                return exchange

        monkeypatch.setattr(cli, "SocketTransport", Recording)
        handle = serve()
        try:
            code = main(
                ["replay", "--out", str(run), "--bucket", BUCKET_ID,
                 "--target", f"127.0.0.1:{handle.port}", "--auth-token-env", "RF_TOKEN", *flags]
            )
        finally:
            handle.stop()
        assert code == EXIT_OK
        assert "reproduced — final class bug (status 500)" in capsys.readouterr().out
        assert len(sent) == 3
        assert all(f"\r\n{sent_header}: t0k\r\n".encode() in request for request in sent)

    def test_killed_run_replays_from_its_events_alone(self, recorded_run, tmp_path, capsys):
        """No bucket directory and no run_end event: the record is enough."""
        run = copy_run(recorded_run, tmp_path / "run", lambda events: events[:-1])
        assert "run_end" not in (run / EVENTS_FILENAME).read_text()
        shutil.rmtree(run / "buckets")
        handle = serve()
        try:
            code = main(
                ["replay", "--out", str(run), "--bucket", BUCKET_ID,
                 "--target", f"127.0.0.1:{handle.port}"]
            )
        finally:
            handle.stop()
        assert code == EXIT_OK
        assert "reproduced — final class bug (status 500)" in capsys.readouterr().out

    def test_run_recorded_before_instances_were_events(self, recorded_run, tmp_path, capsys):
        """Older bucket events name no test, steps or status: the reports
        are still rebuilt, and replay says which field is missing."""
        fields = ("test_index", "steps", "final_status")

        def strip(events):
            return [
                {k: v for k, v in e.items() if e["type"] != "bucket" or k not in fields}
                for e in events
            ]

        run = copy_run(recorded_run, tmp_path / "run", strip)
        written = {name: (run / name).read_bytes() for name in REPORT_FILES}
        for name in REPORT_FILES:
            (run / name).unlink()
        assert main(["report", "--out", str(run)]) == EXIT_OK
        for name, blob in written.items():
            assert (run / name).read_bytes() == blob, name
        capsys.readouterr()
        code = main(
            ["replay", "--out", str(run), "--bucket", BUCKET_ID,
             "--target", f"127.0.0.1:{closed_port()}"]
        )
        assert code == EXIT_CONFIG
        assert "has no 'steps' field" in capsys.readouterr().err

    def test_unreachable_replay_target_is_exit_3(self, recorded_run, capsys):
        code = main(
            ["replay", "--out", str(recorded_run), "--bucket", BUCKET_ID,
             "--target", f"127.0.0.1:{closed_port()}"]
        )
        assert code == EXIT_UNREACHABLE
        capsys.readouterr()


REPORT_FILES = ("status_timeline.csv", "per_length.csv", "wire.log", "summary.txt", "report.json")


def tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestReportCommand:
    def test_rebuild_reproduces_the_report_files_byte_for_byte(
        self, recorded_run, tmp_path, capsys
    ):
        clone = tmp_path / "clone"
        shutil.copytree(recorded_run, clone)
        originals = {name: (clone / name).read_bytes() for name in REPORT_FILES}
        for name in originals:
            (clone / name).unlink()

        assert main(["report", "--out", str(clone)]) == EXIT_OK
        capsys.readouterr()
        for name, blob in originals.items():
            assert (clone / name).read_bytes() == blob, name

    def test_per_length_csv_has_the_reports_one_row_per_length(self, tmp_path, capsys):
        """A walk writes a cumulative length row after every step."""
        out = tmp_path / "run"
        handle = serve()
        try:
            code = main(
                ["fuzz", "--spec", SPEC, "--strategy", "random-walk", "--time-budget", "1",
                 "--seed", "1", "--target", f"127.0.0.1:{handle.port}", "--out", str(out)]
            )
        finally:
            handle.stop()
        assert code == EXIT_OK
        capsys.readouterr()
        rows = (out / "per_length.csv").read_text().splitlines()
        assert rows[0] == "length,tests,seqset_size,dynamic_objects"
        report = json.loads((out / "report.json").read_text())
        assert rows[1:] == [",".join(map(str, row)) for row in report["per_length"]]
        events = (out / EVENTS_FILENAME).read_text().count('"type": "length_stats"')
        assert events > len(rows) - 1

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_rebuild_reproduces_the_bucket_directory_byte_for_byte(
        self, workers, tmp_path, capsys
    ):
        out = tmp_path / "out"
        handle = serve()
        try:
            code = main(
                ["fuzz", "--spec", SPEC, "--strategy", "bfs", "--max-length", "4",
                 "--workers", workers, "--target", f"127.0.0.1:{handle.port}",
                 "--out", str(out)]
            )
        finally:
            handle.stop()
        assert code == EXIT_OK
        buckets = tree_bytes(out / "buckets")
        names = {path.name for path in buckets}
        assert {"bucket.json", "defining_sequence.txt", "replay.sh", "instance-0002.txt"} <= names
        assert not [name for name in names if name.endswith(".json") and "instance" in name]

        clone = shutil.copytree(out, tmp_path / "clone")
        shutil.rmtree(clone / "buckets")
        assert main(["report", "--out", str(clone)]) == EXIT_OK
        capsys.readouterr()
        assert tree_bytes(clone / "buckets") == buckets
        assert all(
            (clone / "buckets" / path).stat().st_mode & 0o777 == 0o755
            for path in buckets if path.name == "replay.sh"
        )

    @pytest.mark.parametrize(
        "campaign",
        [
            ["--strategy", "bfs", "--max-length", "3"],
            ["--strategy", "bfs", "--max-length", "3", "--workers", "2"],
            ["--strategy", "random-walk", "--time-budget", "1", "--seed", "3"],
        ],
        ids=["bfs-1-worker", "bfs-2-workers", "random-walk"],
    )
    def test_rebuilt_report_is_the_one_the_engine_returned(
        self, campaign, tmp_path, monkeypatch, capsys
    ):
        reports = []
        run = FuzzEngine.run

        def keep(engine):
            reports.append(run(engine))
            return reports[-1]

        monkeypatch.setattr(FuzzEngine, "run", keep)
        out = tmp_path / "out"
        handle = serve()
        try:
            code = main(
                ["fuzz", "--spec", SPEC, *campaign, "--target", f"127.0.0.1:{handle.port}",
                 "--out", str(out)]
            )
        finally:
            handle.stop()
        assert code == EXIT_OK
        [report] = reports
        if "random-walk" in campaign:
            assert report.restarts > 0
        written = tree_bytes(out)

        clone = shutil.copytree(out, tmp_path / "clone")
        for name in REPORT_FILES:
            (clone / name).unlink()
        shutil.rmtree(clone / "buckets", ignore_errors=True)
        assert main(["report", "--out", str(clone)]) == EXIT_OK
        capsys.readouterr()
        assert json.loads((clone / "report.json").read_text()) == report.to_dict()
        assert tree_bytes(clone) == written

    @pytest.mark.parametrize("cut_after", ["test before the bug", "bug's test", "last test"])
    def test_killed_run_reports_the_tests_it_recorded(
        self, recorded_run, tmp_path, cut_after, capsys
    ):
        """events.jsonl cut after the last event of test k, run_end lost."""
        events = [
            json.loads(line) for line in (recorded_run / EVENTS_FILENAME).read_text().splitlines()
        ]
        bug_test = next(e["test_index"] for e in events if e["type"] == "bucket")
        k = {"test before the bug": bug_test - 1, "bug's test": bug_test, "last test": 40}[cut_after]
        cut = max(i for i, e in enumerate(events) if e.get("test_index") == k) + 1
        run = copy_run(recorded_run, tmp_path / "run", lambda events: events[:cut])
        assert "run_end" not in (run / EVENTS_FILENAME).read_text()
        assert main(["report", "--out", str(run)]) == EXIT_OK
        capsys.readouterr()
        report = json.loads((run / "report.json").read_text())
        assert report["total_tests"] == k + 1 == sum(report["status_totals"].values())
        assert report["buckets"] == [
            {"bucket_id": e["bucket_id"], "defining_sequence": e["defining_sequence"],
             "instances": 1}
            for e in events[:cut] if e["type"] == "bucket"
        ]
        assert report["stopped_reason"] == "unknown (no run_end event)"

    def test_lines_that_are_not_events_are_skipped(self, recorded_run, tmp_path, capsys, caplog):
        run = shutil.copytree(recorded_run, tmp_path / "run")
        with open(run / EVENTS_FILENAME, "a") as fh:
            fh.write("[]\n3\n")
        written = tree_bytes(run)
        for name in REPORT_FILES:
            (run / name).unlink()
        shutil.rmtree(run / "buckets")
        with caplog.at_level("WARNING"):
            assert main(["report", "--out", str(run)]) == EXIT_OK
        assert tree_bytes(run) == written
        assert sum("not a JSON object" in r.message for r in caplog.records) == 2
        handle = serve()
        try:
            code = main(
                ["replay", "--out", str(run), "--bucket", BUCKET_ID, "--instance", "0",
                 "--target", f"127.0.0.1:{handle.port}"]
            )
        finally:
            handle.stop()
        assert code == EXIT_OK
        assert "reproduced — final class bug (status 500)" in capsys.readouterr().out

    def test_missing_events_file(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path)]) == EXIT_CONFIG
        capsys.readouterr()

    def test_rebuild_without_run_end_synthesizes_a_report(self, tmp_path, capsys):
        run_dir = tmp_path / "partial"
        run_dir.mkdir()
        events = [
            {
                "type": "exchange", "elapsed": 0.1, "test_index": 0,
                "sequence_length": 1, "step_index": 0, "template_id": "GET /x",
                "status": 200, "response_class": "valid",
                "request_b64": base64.b64encode(b"GET /x HTTP/1.1\r\n\r\n").decode(),
                "response_b64": base64.b64encode(b"HTTP/1.1 200 OK\r\n\r\n").decode(),
            },
            {
                "type": "exchange", "elapsed": 0.2, "test_index": 1,
                "sequence_length": 1, "step_index": 0, "template_id": "GET /x",
                "status": 500, "response_class": "bug",
                "request_b64": base64.b64encode(b"GET /x HTTP/1.1\r\n\r\n").decode(),
                "response_b64": base64.b64encode(b"HTTP/1.1 500 Oops\r\n\r\n").decode(),
            },
        ]
        (run_dir / "events.jsonl").write_text(
            "".join(json.dumps(e) + "\n" for e in events)
        )
        assert main(["report", "--out", str(run_dir)]) == EXIT_OK
        capsys.readouterr()
        report = json.loads((run_dir / "report.json").read_text())
        assert report["status_totals"] == {"valid": 1, "bug": 1}
        assert "no run_end" in report["stopped_reason"]

    def test_sink_degraded_mid_run_reports_only_the_record(
        self, tmp_path, monkeypatch, capsys, caplog
    ):
        """The disk fills after ten events: the run still completes and
        prints the engine's totals, and its report files are exactly what
        ``restfuzz report`` rebuilds from the incomplete record."""

        class FullDisk:
            def write(self, _):
                raise OSError(28, "No space left on device")

            def close(self):
                pass

        events_written = itertools.count()
        write = TelemetrySink._write

        def write_until_full(self, line):
            if next(events_written) == 10:
                self._events_fh.close()
                self._events_fh = FullDisk()
            write(self, line)

        monkeypatch.setattr(TelemetrySink, "_write", write_until_full)
        out = tmp_path / "out"
        handle = serve()
        try:
            with caplog.at_level("ERROR"):
                code = main(
                    ["fuzz", "--spec", SPEC, "--strategy", "bfs", "--max-length", "3",
                     "--target", f"127.0.0.1:{handle.port}", "--out", str(out)]
                )
        finally:
            handle.stop()
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "41 tests" in stdout
        assert "  bug: 1\n  invalid: 12\n  valid: 28\n" in stdout
        assert [r.message for r in caplog.records if r.levelname == "ERROR"] == [
            "telemetry storage failed; the run continues, but events.jsonl and the "
            "reports built from it are incomplete: [Errno 28] No space left on device"
        ]

        written = {
            name: (out / name).read_bytes()
            for name in ("status_timeline.csv", "per_length.csv", "summary.txt", "report.json")
        }
        for name in written:
            (out / name).unlink()
        events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
        assert len(events) == 10
        recorded = sum(event["type"] == "exchange" for event in events)
        assert main(["report", "--out", str(out)]) == EXIT_OK
        assert f"from {recorded} recorded exchanges" in capsys.readouterr().out
        for name, blob in written.items():
            assert (out / name).read_bytes() == blob, name
        # The report counts the tests the record shows ending, not exchanges.
        ended = {
            event["test_index"] for event in events
            if event["type"] == "exchange"
            and (event["response_class"] != "valid"
                 or event["step_index"] == event["sequence_length"] - 1)
        }
        report = json.loads(written["report.json"])
        assert report["total_tests"] == len(ended) == sum(report["status_totals"].values())
        assert report["stopped_reason"] == "unknown (no run_end event)"


# --------------------------------------------------------------------------
# Grammar-file and spec-file paths agree


def test_fuzz_from_spec_and_from_grammar_agree(tmp_path, capsys):
    grammar_path = tmp_path / "grammar.json"
    assert main(["compile", "--spec", SPEC, "--out", str(grammar_path)]) == EXIT_OK

    results = []
    for source in (["--spec", SPEC], ["--grammar", str(grammar_path)]):
        out = tmp_path / f"out-{source[0].lstrip('-')}"
        handle = serve()
        try:
            code = main(
                ["fuzz", *source, "--strategy", "bfs", "--max-length", "2",
                 "--target", f"127.0.0.1:{handle.port}", "--out", str(out)]
            )
        finally:
            handle.stop()
        assert code == EXIT_OK
        results.append(report_fingerprint(out))
    capsys.readouterr()

    assert results[0] == results[1]


# --------------------------------------------------------------------------
# Auth plumbing


class TestAuth:
    def test_token_from_env_is_sent_but_never_stored_plain(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("RF_TOKEN", "topsecret")
        out = tmp_path / "out"
        handle = serve()
        try:
            code = main(
                ["fuzz", "--spec", SPEC, "--strategy", "bfs", "--max-length", "1",
                 "--target", f"127.0.0.1:{handle.port}", "--out", str(out),
                 "--auth-token-env", "RF_TOKEN"]
            )
        finally:
            handle.stop()
        capsys.readouterr()
        assert code == EXIT_OK

        # On the wire: present (proven via the machine record) ...
        events = [
            json.loads(line)
            for line in (out / "events.jsonl").read_text().splitlines()
        ]
        exchange = next(e for e in events if e["type"] == "exchange")
        assert b"PRIVATE-TOKEN: topsecret\r\n" in base64.b64decode(exchange["request_b64"])

        # ... but in no human-readable artifact.
        assert "topsecret" not in (out / "wire.log").read_text()
        assert "topsecret" not in (out / "config.json").read_text()

    def test_missing_env_var_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("RF_NOPE", raising=False)
        code = main(
            ["fuzz", "--spec", SPEC, "--max-length", "1", "--target", "localhost:1",
             "--out", str(tmp_path / "o"), "--auth-token-env", "RF_NOPE"]
        )
        assert code == EXIT_CONFIG
        assert "RF_NOPE" in capsys.readouterr().err

    def test_missing_token_file_is_a_config_error(self, tmp_path, capsys):
        code = main(
            ["fuzz", "--spec", SPEC, "--max-length", "1", "--target", "localhost:1",
             "--out", str(tmp_path / "o"), "--auth-token-file", str(tmp_path / "gone")]
        )
        assert code == EXIT_CONFIG
        capsys.readouterr()
