"""End-to-end CLI tests: compile/fuzz/replay/report round trips, exit codes.

One full recorded campaign (module-scoped fixture) backs the artifact,
replay and report-parity checks, so the expensive part runs once.
"""

from __future__ import annotations

import base64
import contextlib
import itertools
import json
import os
import shutil
import socket
import struct
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

import restfuzz.cli as cli
import restfuzz.executor as executor
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
from restfuzz.executor import send_request
from restfuzz.grammar import load_grammar
from restfuzz.telemetry import EVENTS_FILENAME, EVENTS_SCHEMA, TelemetrySink

from helpers import run_settings

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
        # Closing alone does not wake a blocked accept() on Linux; a shutdown does.
        listener.shutdown(socket.SHUT_RDWR)
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

    def test_ports_at_the_bounds(self):
        assert parse_target("example.com:1") == ("example.com", 1)
        assert parse_target("example.com:65535") == ("example.com", 65535)

    @pytest.mark.parametrize(
        "port",
        ["0", "65536", "70000", "123456", "1" * 5000, "\u00b2", "\u0665", "+80", " 80"],
        ids=["zero", "65536", "70000", "six-digits", "5000-digits", "superscript-two",
             "arabic-indic-five", "plus-sign", "leading-space"],
    )
    def test_a_port_outside_1_to_65535_is_exit_2(self, recorded_run, tmp_path, capsys, port):
        """The resolver takes a port modulo 65536, so a larger number would
        reach another port: only ASCII digits naming 1-65535 are a port.
        Neither fuzz nor replay writes or connects before refusing one."""
        target = ["--target", f"127.0.0.1:{port}"]
        with pytest.raises(ConfigError, match="bad port in target"):
            parse_target(target[1])
        out = tmp_path / "out"
        assert main(["fuzz", "--spec", SPEC, "--out", str(out), *target]) == EXIT_CONFIG
        assert not out.exists()
        replay = ["replay", "--out", str(recorded_run), "--bucket", BUCKET_ID, *target]
        assert main(replay) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("bad port in target") == 2 and "(want 1-65535)" in err


def test_baked_host_round_trips(blog_model):
    assert baked_host(compile_grammar(blog_model)) == "localhost:8888"
    assert baked_host(compile_grammar(blog_model, host="10.0.0.5:9999")) == "10.0.0.5:9999"


def test_a_plain_fuzz_process_loads_neither_tls_nor_an_http_stack():
    """What ``restfuzz fuzz`` (and the bench) imports leaves TLS to a secure
    transport and the HTTP server stack to ``blogserver.serve``."""
    unused = ("ssl", "http.server", "http.client", "email", "socketserver")
    code = (
        "import sys; before = set(sys.modules); "
        "import restfuzz.cli, restfuzz.blogserver; "
        f"print([m for m in {unused!r} if m in sys.modules and m not in before])"
    )
    source_root = str(Path(cli.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": source_root},
    )
    assert result.stdout.strip() == "[]"


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

    def test_unknown_include_optional_name(self, tmp_path, capsys):
        out = tmp_path / "grammar.json"
        code = main(["compile", "--spec", SPEC, "--include-optional", "nosuch", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "include_optional names nosuch" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "flag, document, named",
        [
            ("--annotations", {"consumers": [{"operation": "GET /api/blog/posts/{id}"}]},
             "consumers[0] needs operation, parameter and resource"),
            ("--dictionary", {"string": "ab"}, "dictionary kind 'string'"),
            ("--dictionary", {"string": 5}, "dictionary kind 'string'"),
        ],
        ids=["annotation-without-parameter", "dictionary-string", "dictionary-number"],
    )
    def test_bad_annotations_or_dictionary_file_is_exit_2(
        self, tmp_path, capsys, flag, document, named
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document))
        out = tmp_path / "o"
        code = main(
            ["fuzz", "--spec", SPEC, flag, str(bad), "--out", str(out),
             "--target", f"127.0.0.1:{closed_port()}"]
        )
        assert code == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_walk_without_budget(self, tmp_path, capsys):
        code = main(
            ["fuzz", "--spec", SPEC, "--strategy", "random-walk",
             "--out", str(tmp_path / "o"), "--target", "localhost:1"]
        )
        assert code == EXIT_CONFIG
        assert "time budget" in capsys.readouterr().err

    def test_walk_with_several_workers(self, tmp_path, capsys):
        # A walk runs one test at a time, so a second worker would sit idle.
        out = tmp_path / "o"
        code = main(
            ["fuzz", "--spec", SPEC, "--strategy", "random-walk", "--time-budget", "1",
             "--workers", "2", "--out", str(out), "--target", "localhost:1"]
        )
        assert code == EXIT_CONFIG
        assert "one worker" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, named",
        [
            ("--read-timeout", "-1", "--read-timeout"),
            ("--read-timeout", "nan", "--read-timeout"),
            ("--connect-timeout", "-1", "--connect-timeout"),
            ("--time-budget", "nan", "time_budget"),
            ("--time-budget", "inf", "time_budget"),
        ],
        ids=["read-negative", "read-nan", "connect-negative", "budget-nan", "budget-inf"],
    )
    def test_bad_timeout_or_budget_is_exit_2_before_anything_is_written(
        self, tmp_path, capsys, blog_server, flag, value, named
    ):
        out = tmp_path / "o"
        code = main(
            ["fuzz", "--spec", SPEC, "--strategy", "bfs", "--max-length", "1", flag, value,
             "--out", str(out), "--target", f"127.0.0.1:{blog_server.port}"]
        )
        assert code == EXIT_CONFIG
        assert f"{named} must be a finite positive number of seconds" in capsys.readouterr().err
        assert not (out / EVENTS_FILENAME).exists()

    def test_unreachable_target_is_exit_3(self, tmp_path, capsys, blog_server):
        out = tmp_path / "o"
        code = main(
            ["fuzz", "--spec", SPEC, "--max-length", "1",
             "--out", str(out), "--target", f"127.0.0.1:{closed_port()}"]
        )
        assert code == EXIT_UNREACHABLE
        assert "unreachable" in capsys.readouterr().err
        # No recorded run is left behind, so the directory takes the next run.
        assert not (out / EVENTS_FILENAME).exists()
        code = main(
            ["fuzz", "--spec", SPEC, "--max-length", "1",
             "--out", str(out), "--target", f"127.0.0.1:{blog_server.port}"]
        )
        assert code == EXIT_OK


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

    def test_override_of_an_unknown_operation_is_exit_2(self, tmp_path, capsys):
        annotations = tmp_path / "annotations.json"
        annotations.write_text(json.dumps(
            {"suppress_producers": [{"operation": "POST /nowhere", "resource": "posts/id"}]}
        ))
        out = tmp_path / "grammar.json"
        code = main(["compile", "--spec", SPEC, "--annotations", str(annotations),
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "operation 'POST /nowhere'" in capsys.readouterr().err
        assert not out.exists()

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
        ):
            assert (recorded_run / name).is_file(), name
        # The run's settings are recorded once, in run_start.
        assert not (recorded_run / "config.json").exists()

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

    def test_config_records_both_timeouts(self, tmp_path, capsys):
        out = tmp_path / "out"
        handle = serve()
        try:
            code = main(
                ["fuzz", "--spec", SPEC, "--max-length", "1", "--connect-timeout", "2.5",
                 "--read-timeout", "7", "--target", f"127.0.0.1:{handle.port}",
                 "--out", str(out)]
            )
        finally:
            handle.stop()
        capsys.readouterr()
        assert code == EXIT_OK
        config = json.loads((out / EVENTS_FILENAME).read_text().splitlines()[0])
        assert config["type"] == "run_start"
        assert config["target"] == f"127.0.0.1:{handle.port}"
        assert (config["connect_timeout"], config["read_timeout"]) == (2.5, 7.0)


def copy_run(run_dir, dest, rewrite=None):
    """Copy a run directory; ``rewrite(events)`` may edit its event list."""
    shutil.copytree(run_dir, dest)
    if rewrite is not None:
        path = dest / EVENTS_FILENAME
        events = [json.loads(line) for line in path.read_text().splitlines()]
        path.write_text("".join(json.dumps(e, sort_keys=True) + "\n" for e in rewrite(events)))
    return dest


def rewrite_start(run, edit):
    """Replace the first line of ``run``'s events.jsonl, the run_start that
    records the run's settings, with ``edit(start)``."""
    path = run / EVENTS_FILENAME
    start, rest = path.read_text().split("\n", 1)
    path.write_text(edit(json.loads(start)) + "\n" + rest)


def settings(**fields):
    """A ``rewrite_start`` edit that records ``fields`` in the run_start."""
    return lambda start: json.dumps(dict(start, **fields))


def with_instance(template_ids):
    """An event rewrite that files one more instance under BUCKET_ID: a
    copy of the bug's test event whose steps are ``template_ids``, each
    answered as the bug's last step was."""

    def rewrite(events):
        bug = next(e for e in events if "bucket" in e)
        extra = dict(
            bug,
            bucket=dict(bug["bucket"], created=False),
            test_index=10**6,
            steps=[[tid, 0] for tid in template_ids],
            exchanges=[bug["exchanges"][-1]] * len(template_ids),
        )
        return events + [extra]

    return rewrite


def without_schema(events):
    """The events as the restfuzz before the events schema wrote them: no
    ``schema`` in ``run_start`` and no ``extracted`` in a ``test``."""
    return [{k: v for k, v in e.items() if k not in ("schema", "extracted")} for e in events]


def in_older_format(events):
    """The events as an older restfuzz wrote them: no events schema, an
    ``exchange`` event per exchange, and for a bug a ``bucket`` event with
    no steps."""
    older = []
    for event in without_schema(events):
        if event["type"] != "test":
            older.append(event)
            continue
        for step_index, exchange in enumerate(event["exchanges"]):
            older.append(
                dict(exchange, type="exchange", test_index=event["test_index"],
                     step_index=step_index, template_id=event["steps"][step_index][0])
            )
        if "bucket" in event:
            older.append(dict(event["bucket"], type="bucket", elapsed=event["elapsed"]))
    return older


OLDER_FORMAT = "recorded by an older restfuzz"
NO_SCHEMA = "a 'run_start' event of events schema None"


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

    def test_divergence_names_the_step_of_the_instance(
        self, recorded_run, tmp_path, capsys, caplog
    ):
        """A 4-step instance of the 3-step bucket that no longer reaches
        the bug: its fetch of a deleted post is a 404 at step 3 of 4. The
        verdict is printed once and not logged as well."""
        ids = (
            "POST /api/blog/posts",
            "DELETE /api/blog/posts/{id}",
            "GET /api/blog/posts/{id}",
            "PUT /api/blog/posts/{id}",
        )
        run = copy_run(recorded_run, tmp_path / "run", with_instance(ids))
        handle = serve()
        try:
            with caplog.at_level("WARNING"):
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
        assert [r.getMessage() for r in caplog.records] == []

    def test_a_bad_recorded_error_pattern_is_exit_2_before_connecting(
        self, recorded_run, tmp_path, capsys
    ):
        run = copy_run(recorded_run, tmp_path / "run")
        rewrite_start(run, lambda start: json.dumps(
            dict(start, config=dict(start["config"], error_status_classes=["5x"]))))
        handle = serve()
        try:
            code = main(
                ["replay", "--out", str(run), "--bucket", BUCKET_ID,
                 "--target", f"127.0.0.1:{handle.port}"]
            )
        finally:
            handle.stop()
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "bad status pattern '5x'" in captured.err
        assert captured.out == ""
        assert handle.store.list_posts() == []  # nothing was sent
        code = main(
            ["replay", "--out", str(run), "--bucket", BUCKET_ID,
             "--target", f"127.0.0.1:{closed_port()}"]
        )
        assert code == EXIT_CONFIG  # refused before the probe, too

    @pytest.mark.parametrize(
        "damage, named",
        [
            (lambda run: rewrite_start(run, lambda start: "{"),
             f"{EVENTS_FILENAME}:2: a 'test' event of events schema None"),
            (lambda run: rewrite_start(run, lambda start: json.dumps(
                dict(start, config=dict(start["config"], error_status_classes=503)))),
             f"{EVENTS_FILENAME}:1: the run_start records error_status_classes that are not a "
             "list"),
            (lambda run: rewrite_start(run, settings(auth_header=7)),
             "the run_start records an auth_header that is not a string"),
            (lambda run: rewrite_start(
                run, lambda start: json.dumps({k: v for k, v in start.items() if k != "config"})),
             "the run_start records a config that is not a JSON object"),
            (lambda run: rewrite_start(run, settings(config=[1])),
             "the run_start records a config that is not a JSON object"),
            (lambda run: rewrite_start(run, settings(secure="no")),
             "the run_start records a secure that is not true or false"),
            (lambda run: (run / EVENTS_FILENAME).write_text(""),
             f"{EVENTS_FILENAME} holds no event, so no run_start"),
            (lambda run: (run / "dictionary.json").unlink(), "dictionary.json"),
        ],
        ids=["config-not-json", "error-classes-not-a-list", "auth-header-not-a-string",
             "config-missing", "config-not-an-object", "secure-not-a-bool", "events-empty",
             "dictionary-missing"],
    )
    def test_a_damaged_run_directory_is_exit_2_before_connecting(
        self, recorded_run, tmp_path, capsys, damage, named
    ):
        """A run fuzzed with --dictionary, --error-status, --secure or
        --auth-header would replay other requests, another oracle or
        another connection without its files and the settings its
        run_start records, so replay needs them as they were written."""
        run = copy_run(recorded_run, tmp_path / "run")
        damage(run)
        code = main(
            ["replay", "--out", str(run), "--bucket", BUCKET_ID,
             "--target", f"127.0.0.1:{closed_port()}"]
        )
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert named in captured.err
        assert str(run) in captured.err
        assert captured.out == ""

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
        rewrite_start(run, settings(auth_header="X-Api-Key"))
        monkeypatch.setenv("RF_TOKEN", "t0k")
        sent = []

        def recording(request, transport):
            sent.append(request)
            return send_request(request, transport)

        monkeypatch.setattr(executor, "send_request", recording)
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
        """A run in the older per-step format, or in the one-line-per-test
        format before the events schema, is not replayed: its run_start
        names no schema, so replay exits 2 saying so, before any connection
        is tried."""
        for rewrite in (in_older_format, without_schema):
            run = copy_run(recorded_run, tmp_path / rewrite.__name__, rewrite)
            capsys.readouterr()
            code = main(
                ["replay", "--out", str(run), "--bucket", BUCKET_ID,
                 "--target", f"127.0.0.1:{closed_port()}"]
            )
            assert code == EXIT_CONFIG
            err = capsys.readouterr().err
            assert OLDER_FORMAT in err and NO_SCHEMA in err

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

    @pytest.mark.parametrize(
        "edit", [lambda start: "[]", lambda start: "{", settings(config=[])],
        ids=["list", "not-json", "config-list"],
    )
    def test_a_damaged_config_json_is_exit_2(self, recorded_run, tmp_path, capsys, edit):
        """The run_start that records the run's config as JSON, damaged."""
        run = copy_run(recorded_run, tmp_path / "run")
        rewrite_start(run, edit)
        (run / "wire.log").unlink()
        assert main(["report", "--out", str(run)]) == EXIT_CONFIG
        assert f"{run / EVENTS_FILENAME}:" in capsys.readouterr().err
        assert not (run / "wire.log").exists()  # refused before a report file is written

    def test_per_length_csv_has_the_reports_one_row_per_length(self, tmp_path, capsys):
        """A walk's rows are folded from its ``test`` lines: each length's
        tests and the objects they extracted."""
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
        events = [json.loads(line) for line in (out / EVENTS_FILENAME).read_text().splitlines()]
        assert {event["type"] for event in events} == {"run_start", "test", "restart", "run_end"}
        tests = [event for event in events if event["type"] == "test"]
        assert len(tests) == report["total_tests"]
        lengths, objects = Counter(), Counter()
        for test in tests:
            lengths[len(test["steps"])] += 1
            objects[len(test["steps"])] += test["extracted"]
        assert [(length, tests, dynamic) for length, tests, _, dynamic in report["per_length"]] \
            == [(length, lengths[length], objects[length]) for length in sorted(lengths)]

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
        bug_test = next(e["test_index"] for e in events if "bucket" in e)
        k = {"test before the bug": bug_test - 1, "bug's test": bug_test, "last test": 40}[cut_after]
        cut = max(i for i, e in enumerate(events) if e.get("test_index") == k) + 1
        run = copy_run(recorded_run, tmp_path / "run", lambda events: events[:cut])
        assert "run_end" not in (run / EVENTS_FILENAME).read_text()
        assert main(["report", "--out", str(run)]) == EXIT_OK
        capsys.readouterr()
        report = json.loads((run / "report.json").read_text())
        assert report["total_tests"] == k + 1 == sum(report["status_totals"].values())
        assert report["buckets"] == [
            {"bucket_id": e["bucket"]["bucket_id"],
             "defining_sequence": e["bucket"]["defining_sequence"], "instances": 1}
            for e in events[:cut] if "bucket" in e
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

    def test_older_run_is_not_rebuilt_and_keeps_its_reports(self, recorded_run, tmp_path, capsys):
        """A run_start that names no events schema makes the report exit 2
        naming the older format; the report files already written stay as
        they were. Without the check, a run of the format before the schema
        would be folded with no dynamic objects."""
        for rewrite in (in_older_format, without_schema):
            run = copy_run(recorded_run, tmp_path / rewrite.__name__, rewrite)
            written = tree_bytes(run)
            assert main(["report", "--out", str(run)]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert OLDER_FORMAT in err and NO_SCHEMA in err
            assert tree_bytes(run) == written

    def test_rebuild_without_run_end_synthesizes_a_report(self, tmp_path, capsys):
        run_dir = tmp_path / "partial"
        run_dir.mkdir()

        def test_event(index, status, reason, final_class):
            response = f"HTTP/1.1 {status} {reason}\r\n\r\n".encode()
            exchange = {
                "elapsed": 0.1 * (index + 1), "status": status, "reason": reason,
                "duration": 0.01,
                "request_b64": base64.b64encode(b"GET /x HTTP/1.1\r\n\r\n").decode(),
                "response_b64": base64.b64encode(response).decode(),
            }
            return {
                "type": "test", "elapsed": 0.1 * (index + 1), "test_index": index,
                "steps": [["GET /x", 0]], "final_class": final_class, "exchanges": [exchange],
                "extracted": 0,
            }

        start = {"type": "run_start", "schema": EVENTS_SCHEMA, "elapsed": 0.0, **run_settings()}
        events = [start, test_event(0, 200, "OK", "valid"), test_event(1, 500, "Oops", "bug")]
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
        tests = [event for event in events if event["type"] == "test"]
        recorded = sum(len(event["exchanges"]) for event in tests)
        assert main(["report", "--out", str(out)]) == EXIT_OK
        assert f"from {recorded} recorded exchanges" in capsys.readouterr().out
        for name, blob in written.items():
            assert (out / name).read_bytes() == blob, name
        # The report counts the tests the record holds, not exchanges.
        ended = {event["test_index"] for event in tests}
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

        # The recorded request names the header with its value filtered ...
        events = [
            json.loads(line)
            for line in (out / "events.jsonl").read_text().splitlines()
        ]
        exchange = next(e for e in events if e["type"] == "test")["exchanges"][0]
        assert b"PRIVATE-TOKEN: [FILTERED]\r\n" in base64.b64decode(exchange["request_b64"])

        # ... and the token is in no file of the run, nor in a decoded payload.
        for path in out.rglob("*"):
            if path.is_file():
                assert b"topsecret" not in path.read_bytes(), path
        payloads = [
            base64.b64decode(x[key])
            for e in events if e["type"] == "test"
            for x in e["exchanges"]
            for key in ("request_b64", "response_b64")
        ]
        assert payloads and not any(b"topsecret" in payload for payload in payloads)

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
