"""Run one measured campaign in this process and write what it measured.

Started by run.py, one process per campaign, so that ``ru_maxrss`` is the
peak of this campaign alone. Usage:

    campaign.py fuzz --workload NAME --seed N --trace 0|1 --out DIR [--target HOST:PORT]
                     [--first-bug-only]
    campaign.py report --out RUN_DIR --result FILE

``fuzz`` writes ``DIR/result.json`` (and ``DIR/spans.jsonl`` when traced).
With ``--first-bug-only`` the process runs the same campaign, writes its
set-up time, its time to the first bug and that bug, and exits as soon as
the first ``BucketStore.record`` returns. Up to that point it runs exactly
the code a full campaign runs, so its timings sample the same interval at a
fraction of the cost.
The blog workloads go through ``restfuzz.cli.main`` with the argv a user
would type; ``wide-stub`` builds the engine the way scripts/run_ablations.py
does, with the stub transport from widestub.py and no run directory.

Phases, on the monotonic clock:

* set-up: from entering ``cmd_fuzz`` (parse spec, compile, check the
  dictionary, build sink, store and engine) until the target probe returns;
  for wide-stub, until the engine is built;
* campaign: from the end of set-up until the reports are written (blog) or
  ``FuzzEngine.run`` returns (wide-stub);
* first bug: until the first ``BucketStore.record`` returns.

These hooks sit on functions called at most a few hundred times per
campaign, so the untraced run pays nothing measurable for them. With
``--trace 1`` the wrappers of tracer.py go around the per-request calls as
well.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import tracer as tracing
import widestub

import restfuzz.cli as cli
import restfuzz.compiler as compiler
import restfuzz.engine as engine
import restfuzz.executor as executor
from restfuzz.blogserver import bundled_spec_path
from restfuzz.buckets import BucketStore
from restfuzz.grammar import FuzzingDictionary, RenderedRequest
from restfuzz.telemetry import TelemetrySink

BLOG_WORKERS = {"blog-bfs": 1, "blog-bfs-2w": 2}


class Marks:
    """Phase timestamps and what the hooks saw."""

    def __init__(self):
        self.setup_start = None
        self.campaign_start = None
        self.first_bug = None
        self.end = None
        self.cpu_start = None
        self.cpu_end = None
        self.report = None
        self.canonical: dict[str, str] | None = None
        self.bug_finals: set[tuple[str, int]] = set()


class _SocketModule:
    """Stands in for the ``socket`` module inside restfuzz.executor so that
    its TCP connects can be wrapped without touching the real module."""

    def __init__(self, real):
        self._real = real
        self.create_connection = real.create_connection

    def __getattr__(self, name):
        return getattr(self._real, name)


def _after(owner, attr, hook):
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        hook(args, result)
        return result

    setattr(owner, attr, wrapper)


def _before(owner, attr, hook):
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        hook()
        return original(*args, **kwargs)

    setattr(owner, attr, wrapper)


def install_tracer(tracer: tracing.Tracer) -> None:
    for module in (cli, compiler):
        tracer.wrap(module, "parse_spec", "compiler.parse_spec")
        tracer.wrap(module, "compile_grammar", "compiler.compile_grammar")
    tracer.wrap(engine, "extend", "engine.extend", count=len)
    tracer.wrap(engine, "render_combinations", "grammar.render", count=len)
    tracer.wrap(executor.SequenceExecutor, "execute_sequence", "engine.execute_sequence",
                in_test=True, starts_test=True)
    tracer.wrap(RenderedRequest, "assemble", "grammar.assemble", in_test=True)
    tracer.wrap(executor, "send_request", "executor.send_request", in_test=True)
    executor.socket = _SocketModule(executor.socket)
    tracer.wrap(executor.socket, "create_connection", "executor.connect", in_test=True)
    tracer.wrap(executor, "extract_objects", "executor.extract", in_test=True)
    tracer.wrap(TelemetrySink, "record_exchange", "telemetry.record_exchange", in_test=True)
    tracer.wrap(cli, "emit_report", "telemetry.emit_report")
    tracer.wrap(BucketStore, "record", "buckets.record", in_test=True)


def install_marks(marks: Marks, tracer: tracing.Tracer | None, on_first_bug=None):
    """Install the phase hooks; return the (start, end) campaign markers.

    ``on_first_bug(instance)`` is called once, after the first bug is
    recorded.
    """
    def start_campaign():
        marks.campaign_start = time.monotonic()
        marks.cpu_start = time.process_time()
        if tracer is not None:
            tracer.open_root()

    def end_campaign():
        marks.end = time.monotonic()
        marks.cpu_end = time.process_time()
        if tracer is not None:
            tracer.close_root()

    def bug_recorded(args, _result):
        instance = args[1]
        marks.bug_finals.add((instance.template_ids[-1], instance.final_status))
        if marks.first_bug is None:
            marks.first_bug = time.monotonic()
            if on_first_bug is not None:
                on_first_bug(instance)

    def setup_started():
        marks.setup_start = time.monotonic()

    def captured(_args, report):
        marks.report = report

    _before(cli, "cmd_fuzz", setup_started)
    _after(cli, "probe_target", lambda *_: start_campaign())
    _after(cli, "emit_report", lambda *_: end_campaign())
    _after(BucketStore, "record", bug_recorded)
    _after(engine.FuzzEngine, "run", captured)
    return start_campaign, end_campaign


def run_blog(args) -> dict:
    run_dir = args.out / "run"
    argv = [
        "fuzz", "--spec", str(bundled_spec_path()), "--strategy", "bfs", "--max-length", "5",
        "--workers", str(BLOG_WORKERS[args.workload]), "--seed", str(args.seed),
        "--out", str(run_dir), "--target", args.target,
    ]
    code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"restfuzz fuzz exited with {code}")
    return {"run_dir": str(run_dir)}


def run_wide(args, marks: Marks, tracer, start_campaign, end_campaign) -> dict:
    spec_text, canonical = widestub.generate(args.seed)
    marks.canonical = canonical
    if tracer is not None:
        tracer.wrap(widestub.StubTransport, "roundtrip", "target.stub", in_test=True)
    marks.setup_start = time.monotonic()
    model = compiler.parse_spec(spec_text)
    grammar = compiler.compile_grammar(model)
    dictionary = FuzzingDictionary.default()
    for template in grammar.templates:
        for slot in template.fuzzable_slots():
            dictionary.candidates(slot.kind)
    stubs: list[widestub.StubTransport] = []

    def transport_factory():
        stubs.append(widestub.StubTransport())
        return stubs[-1]

    fuzz = engine.FuzzEngine(
        grammar,
        dictionary,
        engine.EngineConfig(strategy=engine.Strategy.BFS_FAST, max_length=widestub.MAX_LENGTH),
        transport_factory=transport_factory,
    )
    start_campaign()
    fuzz.run()
    end_campaign()
    return {
        "stub_500s": sum(stub.served_500 for stub in stubs),
        "collections": widestub.COLLECTIONS,
        "canonical_fingerprint": widestub.canonical_fingerprint(
            marks.report.fingerprint(), canonical),
    }


def cmd_fuzz(args) -> int:
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        install_tracer(tracer)
    marks = Marks()

    def stop_at_first_bug(instance):
        sequence = list(instance.template_ids)
        if marks.canonical is not None:
            sequence = [marks.canonical[t] for t in sequence]
        (args.out / "result.json").write_text(json.dumps({
            "setup_s": marks.campaign_start - marks.setup_start,
            "first_bug_s": marks.first_bug - marks.campaign_start,
            "first_bug": {"sequence": sequence, "status": instance.final_status},
        }))
        # Leave at once, from whichever worker thread got here: the rest of
        # the campaign is not measured.
        os._exit(0)

    start_campaign, end_campaign = install_marks(
        marks, tracer, stop_at_first_bug if args.first_bug_only else None)
    if args.workload == "wide-stub":
        extra = run_wide(args, marks, tracer, start_campaign, end_campaign)
    else:
        extra = run_blog(args)
    report = marks.report
    result = {
        "setup_s": marks.campaign_start - marks.setup_start,
        "campaign_s": marks.end - marks.campaign_start,
        "first_bug_s": (marks.first_bug - marks.campaign_start
                        if marks.first_bug is not None else None),
        "cpu_s": marks.cpu_end - marks.cpu_start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "tests": report.total_tests,
        "requests": sum(report.status_group_totals.values()),
        "retained": sum(row.seqset_size for row in report.per_length),
        "status_totals": report.status_totals,
        "transport_failures": report.transport_failures,
        "buckets": [b["defining_sequence"] for b in report.buckets],
        "bug_finals": sorted(marks.bug_finals),
        "fingerprint": report.fingerprint(),
        **extra,
    }
    if tracer is not None:
        tracer.dump(args.out / "spans.jsonl")
        result["layers"] = tracing.summarize(tracer.spans)
    (args.out / "result.json").write_text(json.dumps(result))
    return 0


def cmd_report(args) -> int:
    start = time.monotonic()
    code = cli.main(["report", "--out", str(args.out)])
    elapsed = time.monotonic() - start
    if code != 0:
        raise SystemExit(f"restfuzz report exited with {code}")
    args.result.write_text(json.dumps({"rebuild_s": elapsed}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    fuzz = sub.add_parser("fuzz")
    fuzz.add_argument("--workload", required=True, choices=[*BLOG_WORKERS, "wide-stub"])
    fuzz.add_argument("--seed", type=int, required=True)
    fuzz.add_argument("--trace", type=int, choices=(0, 1), default=0)
    fuzz.add_argument("--out", type=Path, required=True)
    fuzz.add_argument("--target")
    fuzz.add_argument("--first-bug-only", action="store_true")
    fuzz.set_defaults(func=cmd_fuzz)
    report = sub.add_parser("report")
    report.add_argument("--out", type=Path, required=True)
    report.add_argument("--result", type=Path, required=True)
    report.set_defaults(func=cmd_report)
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
