"""Command-line front end.

Subcommands:

* ``compile`` — turn an API document into a grammar JSON file.
* ``fuzz``    — run a fuzzing campaign from a document or a grammar file.
* ``replay``  — re-execute a recorded bug bucket against a live target.
* ``report``  — regenerate report files from a run's events.jsonl.

Exit codes: 0 success (found bugs are output, not failure), 2 configuration
or usage problems, 3 unreachable target, 4 internal errors.

Auth tokens are taken from an environment variable or a file, never from a
command-line literal (argv is world-readable on most systems).
"""

from __future__ import annotations

import argparse
import logging
import os
import re
import signal
import sys
from pathlib import Path

from . import __version__
from .buckets import BucketError, recorded_instance, replay_bucket
from .compiler import AnnotationOverrides, CompileError, compile_grammar, parse_spec
from .engine import ConfigError, EngineConfig, FuzzEngine, Strategy, check_seconds
from .executor import (
    AuthConfig,
    ConnectionConfig,
    DEFAULT_AUTH_HEADER,
    DEFAULT_ERROR_STATUS_CLASSES,
    ExecutorError,
    SequenceExecutor,
    SocketTransport,
    TargetUnreachable,
    bug_statuses,
    probe_target,
)
from .grammar import (
    DEFAULT_COMBINATION_CAP,
    FuzzingDictionary,
    GrammarError,
    GrammarProgram,
    StaticSlot,
    dump_grammar,
    load_grammar,
)
from .telemetry import EVENTS_FILENAME, EventFormatError, TelemetrySink, emit_report, iter_events

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNREACHABLE = 3
EXIT_INTERNAL = 4


def _add_target_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--target", metavar="HOST[:PORT]", help="address to connect to")
    parser.add_argument("--secure", action="store_true",
                        help="wrap connections in TLS (replay does so when the recording run did)")
    parser.add_argument("--connect-timeout", type=float, default=5.0, metavar="SECONDS",
                        help="bound on a connect and its TLS handshake (default 5)")
    parser.add_argument("--read-timeout", type=float, default=30.0, metavar="SECONDS",
                        help="bound on one exchange, from the start of the request write "
                        "to the last byte of the response (default 30)")


def _add_auth_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--auth-header",
        metavar="NAME",
        help=f"auth header name (default {DEFAULT_AUTH_HEADER}; for replay, the recording run's)",
    )
    parser.add_argument(
        "--auth-token-env",
        metavar="VAR",
        help="environment variable holding the auth token",
    )
    parser.add_argument(
        "--auth-token-file",
        type=Path,
        metavar="FILE",
        help="file holding the auth token; re-read during the run so it can be rotated",
    )


def _add_compile_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--annotations",
        type=Path,
        metavar="FILE",
        help="JSON file overriding inferred producers/consumers",
    )
    parser.add_argument(
        "--include-optional",
        action="append",
        default=[],
        metavar="NAME",
        help="fuzz this optional parameter/field (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="restfuzz",
        description="Grammar-based stateful fuzzing for REST APIs described "
        "by Swagger 2.0 documents.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "-v", "--verbose", action="count", default=0, help="-v for info, -vv for debug"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile an API document to a grammar file")
    p_compile.add_argument("--spec", type=Path, required=True, metavar="FILE")
    p_compile.add_argument("--out", type=Path, default=Path("grammar.json"), metavar="FILE")
    p_compile.add_argument(
        "--target", metavar="HOST[:PORT]", help="bake this Host header instead of the document's"
    )
    _add_compile_options(p_compile)
    p_compile.set_defaults(func=cmd_compile)

    p_fuzz = sub.add_parser("fuzz", help="run a fuzzing campaign")
    source = p_fuzz.add_mutually_exclusive_group(required=True)
    source.add_argument("--spec", type=Path, metavar="FILE", help="API document to compile")
    source.add_argument("--grammar", type=Path, metavar="FILE", help="precompiled grammar file")
    p_fuzz.add_argument("--out", type=Path, default=Path("restfuzz-out"), metavar="DIR")
    p_fuzz.add_argument("--strategy", default=Strategy.BFS_FAST.value, metavar="NAME",
                        help="bfs, bfs-fast or random-walk (default bfs-fast)")
    p_fuzz.add_argument("--max-length", type=int, default=3, metavar="N")
    p_fuzz.add_argument("--time-budget", type=float, metavar="SECONDS")
    p_fuzz.add_argument("--dictionary", type=Path, metavar="FILE")
    p_fuzz.add_argument("--combination-cap", type=int, default=DEFAULT_COMBINATION_CAP,
                        metavar="N")
    p_fuzz.add_argument(
        "--error-status",
        action="append",
        default=[],
        metavar="PATTERN",
        help="status pattern counted as a bug, e.g. 5xx or 501 (repeatable; default 5xx)",
    )
    p_fuzz.add_argument("--seed", type=int, default=0, metavar="N")
    p_fuzz.add_argument("--workers", type=int, default=1, metavar="N")
    p_fuzz.add_argument("--no-deps", action="store_true",
                        help="ablation: treat consumed values as plain fuzzable strings")
    p_fuzz.add_argument("--no-feedback", action="store_true",
                        help="ablation: keep invalid sequences in the search frontier")
    _add_compile_options(p_fuzz)
    _add_target_options(p_fuzz)
    _add_auth_options(p_fuzz)
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_replay = sub.add_parser("replay", help="replay a recorded bug bucket")
    p_replay.add_argument("--out", type=Path, required=True, metavar="DIR",
                          help="output directory of the recording run")
    p_replay.add_argument("--bucket", required=True, metavar="ID")
    p_replay.add_argument("--instance", type=int, default=0, metavar="N",
                          help="zero-based instance of the bucket in events.jsonl (default 0)")
    _add_target_options(p_replay)
    _add_auth_options(p_replay)
    p_replay.set_defaults(func=cmd_replay)

    p_report = sub.add_parser("report", help="rebuild report files from events.jsonl")
    p_report.add_argument("--out", type=Path, required=True, metavar="DIR")
    p_report.set_defaults(func=cmd_report)

    return parser


# ----------------------------------------------------------------------------
# Shared bits


def parse_target(text: str, secure: bool = False) -> tuple[str, int]:
    host, sep, port_text = text.rpartition(":")
    if sep:
        if not host:
            raise ConfigError(f"bad target {text!r}")
        # A port is ASCII digits naming 1-65535: the resolver would wrap a
        # larger number modulo 65536.
        if not re.fullmatch(r"[0-9]{1,5}", port_text) or not 0 < int(port_text) < 65536:
            raise ConfigError(f"bad port in target {text!r} (want 1-65535)")
        return host, int(port_text)
    return text, 443 if secure else 80


def _auth_from_args(args, header_name: str) -> AuthConfig | None:
    token = None
    if args.auth_token_env:
        token = os.environ.get(args.auth_token_env)
        if token is None:
            raise ConfigError(f"environment variable {args.auth_token_env} is not set")
    token_file = args.auth_token_file
    if token_file is not None and not token_file.is_file():
        raise ConfigError(f"auth token file {token_file} does not exist")
    if token is None and token_file is None:
        return None
    return AuthConfig(header_name=header_name, token=token, token_file=token_file)


def _load_overrides(path: Path | None) -> AnnotationOverrides | None:
    if path is None:
        return None
    return AnnotationOverrides.from_json(_read_text(path))


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _load_dictionary(path: Path | None) -> FuzzingDictionary:
    if path is None:
        return FuzzingDictionary.default()
    return FuzzingDictionary.from_json(_read_text(path))


def baked_host(grammar: GrammarProgram) -> str | None:
    """Recover the Host header value the grammar was compiled with."""
    for template in grammar.templates:
        for slot in template.slots:
            if isinstance(slot, StaticSlot) and slot.text.lower().startswith(b"host: "):
                return slot.text[len(b"host: ") :].strip().decode("latin-1")
    return None


def _connection_from_args(args, fallback_host: str | None, secure: bool) -> ConnectionConfig:
    target = args.target or fallback_host
    if not target:
        raise ConfigError("no target address: pass --target or put a host in the document")
    host, port = parse_target(target, secure)
    check_seconds("--connect-timeout", args.connect_timeout)
    check_seconds("--read-timeout", args.read_timeout)
    return ConnectionConfig(
        host=host,
        port=port,
        secure=secure,
        connect_timeout=args.connect_timeout,
        read_timeout=args.read_timeout,
    )


# ----------------------------------------------------------------------------
# Subcommands


def cmd_compile(args) -> int:
    model = parse_spec(_read_text(args.spec))
    grammar = compile_grammar(
        model,
        overrides=_load_overrides(args.annotations),
        host=args.target,
        include_optional=tuple(args.include_optional),
    )
    args.out.write_text(dump_grammar(grammar) + "\n")
    print(f"wrote {args.out}: {len(grammar.templates)} request templates, "
          f"{len(grammar.resource_types)} resource types")
    for op_id, reason in grammar.excluded_operations:
        print(f"excluded {op_id}: {reason}")
    return EXIT_OK


def cmd_fuzz(args) -> int:
    dictionary = _load_dictionary(args.dictionary)
    if args.spec is not None:
        model = parse_spec(_read_text(args.spec))
        grammar = compile_grammar(
            model,
            overrides=_load_overrides(args.annotations),
            host=args.target,
            include_optional=tuple(args.include_optional),
        )
        fallback = model.host
    else:
        grammar = load_grammar(_read_text(args.grammar))
        fallback = baked_host(grammar)
    # Fail before anything is written if the dictionary cannot cover the
    # grammar's fuzzable kinds.
    for template in grammar.templates:
        for slot in template.fuzzable_slots():
            dictionary.candidates(slot.kind)

    config = EngineConfig(
        strategy=Strategy.parse(args.strategy),
        max_length=args.max_length,
        time_budget=args.time_budget,
        combination_cap=args.combination_cap,
        error_status_classes=tuple(args.error_status) or DEFAULT_ERROR_STATUS_CLASSES,
        rng_seed=args.seed,
        worker_count=args.workers,
        no_deps=args.no_deps,
        no_feedback=args.no_feedback,
    )
    config.validate()
    conn = _connection_from_args(args, fallback, args.secure)
    auth_header = args.auth_header or DEFAULT_AUTH_HEADER
    auth = _auth_from_args(args, auth_header)

    out_dir: Path = args.out
    if (out_dir / EVENTS_FILENAME).exists():
        raise ConfigError(
            f"{out_dir} already holds a recorded run; pick a fresh output directory"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "grammar.json").write_text(dump_grammar(grammar) + "\n")
    (out_dir / "dictionary.json").write_text(dictionary.to_json() + "\n")

    # Probe before the sink opens events.jsonl, so an unreachable target
    # leaves the directory free for the next run. The sink's run_start is
    # the one record of the run's settings.
    probe_target(conn)
    sink = TelemetrySink(
        out_dir,
        {
            "config": config.to_dict(),
            "target": f"{conn.host}:{conn.port}",
            "secure": conn.secure,
            "connect_timeout": conn.connect_timeout,
            "read_timeout": conn.read_timeout,
            "auth_header": auth_header,
        },
    )
    engine = FuzzEngine(
        grammar,
        dictionary,
        config,
        transport_factory=lambda: SocketTransport(conn, auth),
        sink=sink,
    )

    previous = {}
    try:
        for sig in (signal.SIGINT, signal.SIGTERM):
            previous[sig] = signal.signal(sig, lambda *_: engine.stop_requested.set())
    except ValueError:
        pass  # not the main thread; tests drive the engine directly

    try:
        report = engine.run()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        sink.close()

    emit_report(out_dir)
    print(f"{report.total_tests} tests, max length {report.max_length_reached}, "
          f"stopped: {report.stopped_reason}")
    for name in sorted(report.status_totals):
        print(f"  {name}: {report.status_totals[name]}")
    print(f"bug buckets: {len(report.buckets)}")
    for bucket in report.buckets:
        print(f"  {bucket['bucket_id']}: {' -> '.join(bucket['defining_sequence'])}")
    print(f"artifacts in {out_dir}")
    return EXIT_OK


def cmd_replay(args) -> int:
    run_dir: Path = args.out
    grammar = load_grammar(_read_text(run_dir / "grammar.json"))
    dictionary = _load_dictionary(run_dir / "dictionary.json")
    events_path = run_dir / EVENTS_FILENAME
    if not events_path.is_file():
        raise ConfigError(f"no {EVENTS_FILENAME} under {run_dir}")
    # The run's settings; a flag given here overrides what the run used.
    events = iter_events(events_path)
    recorded = next(events)
    events.close()
    error_classes = tuple(recorded["config"]["error_status_classes"])
    try:
        bug_statuses(error_classes)
    except ExecutorError as exc:
        raise ConfigError(f"{events_path}: run_start: {exc}") from exc
    secure = args.secure or recorded["secure"]
    auth_header = args.auth_header or recorded["auth_header"]
    instance = recorded_instance(events_path, args.bucket, args.instance)

    conn = _connection_from_args(args, baked_host(grammar), secure)
    probe_target(conn)
    auth = _auth_from_args(args, auth_header)
    executor = SequenceExecutor(
        transport=SocketTransport(conn, auth),
        error_classes=error_classes,
        external_values=grammar.external_values,
    )
    try:
        result = replay_bucket(args.bucket, instance, grammar, dictionary, executor)
    finally:
        executor.close()
    status = f" (status {result.final_status})" if result.final_status is not None else ""
    if result.reproduced:
        print(f"bucket {args.bucket}: reproduced — final class bug{status}")
    elif result.failure is not None:
        print(
            f"bucket {args.bucket}: not reproduced — transport failure "
            f"({result.failure.phase}): {result.failure}"
        )
    else:
        diverged = (
            f" — diverged at step {result.diverged_step}/{len(instance.steps)}"
            if result.diverged_step is not None
            else ""
        )
        print(
            f"bucket {args.bucket}: not reproduced — final class "
            f"{result.final_class}{status}{diverged}"
        )
    return EXIT_OK


def cmd_report(args) -> int:
    run_dir: Path = args.out
    if not (run_dir / EVENTS_FILENAME).is_file():
        raise ConfigError(f"no {EVENTS_FILENAME} under {run_dir}")
    exchanges = emit_report(run_dir)
    print(f"rebuilt report files in {run_dir} from {exchanges} recorded exchanges")
    return EXIT_OK


# ----------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors, 0 for --help
        return int(exc.code or 0)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ConfigError, CompileError, GrammarError, BucketError, EventFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TargetUnreachable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNREACHABLE
    except Exception:  # pragma: no cover - safety net
        logger.exception("internal error")
        return EXIT_INTERNAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
