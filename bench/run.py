#!/usr/bin/env python3
"""restfuzz campaign benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs fixed fuzzing campaigns back to back for about ``--seconds`` seconds,
checks every one of them, and prints one JSON line: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics. Each value is
the median over the campaigns of the run. A failed check exits 1 and prints
no result. Nothing is built: the campaigns import restfuzz from ``src/``.

Workloads. All are closed loops: a worker sends its next request only after
the reply to the previous one arrived.

* ``blog-bfs``: ``restfuzz fuzz --spec <bundled blog_posts.yaml> --strategy
  bfs --max-length 5 --workers 1`` against the bundled blog service in its
  own process. 571 tests, 2647 requests, 19 buckets. The paper's campaign
  shape; sockets, the target, telemetry and buckets do the work. The list
  endpoint returns every post so far, so replies grow during the run.
* ``blog-bfs-2w``: the same with ``--workers 2``. Runs the threaded
  partition path and the locks workers share (sink, bucket store, engine
  counters).
* ``wide-stub``: BFS-Fast to length 10 over a seeded synthetic document of
  200 templates, through ``FuzzEngine`` with an in-process stub transport
  and no run directory (see widestub.py). Search (``engine.extend``) takes
  most of the time; sockets and telemetry take none.

The blog campaigns do not depend on the seed: BFS is exhaustive. On
wide-stub the seed generates the document.

Process model. Every campaign runs in a fresh process (campaign.py), so that
its ``ru_maxrss`` is its own peak, and every blog campaign gets a fresh
target, because the posts stored by one campaign would change the list
replies of the next. The target is started with unbuffered stdout (it
announces its address with ``print``), on a port the OS picks, with a
start-up timeout; its CPU time is read from ``/proc/<pid>/stat`` before it
is terminated and reaped. Campaign and report files live under
``.bench_work/`` in the checkout and are deleted after each run; the spans
of the last traced campaign of each workload are kept there.

The harness pins itself, and so every process it starts, to one CPU. In a
closed loop the fuzzer and the target take turns, and on a 2-vCPU virtual
machine each turn across vCPUs waits for the host to wake the other vCPU.
Unpinned, blog-bfs campaigns ran at 40 to 130 tests/s, jumping from one
campaign to the next with host load; pinned, at 150 to 230 tests/s, drifting
over minutes rather than between campaigns.

Correctness, checked on every campaign:

* the fingerprint (``FuzzReport.fingerprint()``) equals the one in
  reference.json, recorded when this benchmark was added. Both blog
  workloads are held to the same reference, so they agree with each other
  whatever the worker count; wide-stub's is compared with template ids
  mapped to seed-free names, since the seed renames everything;
* no transport failures;
* blog: every bug is ``PUT /api/blog/posts/{id}`` answered with 500;
* wide-stub: the bug count equals the 500s the stub served, and there is
  exactly one bucket per collection, each ending in that collection's PUT;
* blog-bfs, once per run: ``restfuzz report`` on a copy of the run directory
  rewrites status_timeline.csv, per_length.csv, summary.txt and report.json
  byte for byte.

End-to-end metrics (``--trace 0``), per campaign:

* ``tests_per_s``, ``requests_per_s``: tests and HTTP exchanges per second
  of the campaign, i.e. ``FuzzEngine.run`` after the target probe plus
  writing the reports;
* ``time_to_first_bug_s``: campaign start to the first
  ``BucketStore.record`` returning;
* ``setup_s``: parse, compile, dictionary check, engine and sink
  construction and the target probe; starting the target is excluded;
* ``peak_rss_mb``: peak RSS of the fuzzer process, target excluded.

The first bug comes about 40 tests into a blog campaign (0.1 s) and 0.2 s
into a wide-stub one, and set-up takes 15 to 25 ms: single samples of such
short spans swing by 10 to 15 % with scheduling noise. So an untraced run
follows each full campaign with FIRST_BUG_ONLY_PER_FULL first-bug-only
campaigns (``campaign.py --first-bug-only``): the same command in a fresh
process against a fresh target, stopped as soon as the first bug is
recorded. ``time_to_first_bug_s`` and ``setup_s`` are the medians over all
campaigns of the run, full and first-bug-only; the other metrics come from
the full campaigns alone. A first-bug-only campaign is checked too: its bug
must be a 500 that ends one of the reference's buckets.

Per-layer metrics (``--trace 1``). The run alternates untraced and traced
campaigns. Process-level figures (CPU, disk, counts from the report) come
from the untraced ones; span figures from the traced ones, whose wrappers
(campaign.py, tracer.py) time calls into each module from outside ``src/``.
``<layer>.busy_s`` is inclusive time and ``<layer>.self_s`` excludes child
spans. ``tracing.overhead_pct`` is the drop of traced against untraced
``tests_per_s``. What each layer should move:

* compiler.*: ``setup_s`` on wide-stub;
* engine.extend.*: ``tests_per_s`` on wide-stub, nothing on blog-*;
* engine.execute_sequence.*: ``tests_per_s`` on blog-*;
* engine.requests_per_test: the cost of re-running prefixes, i.e.
  ``requests_per_s`` relative to ``tests_per_s``;
* grammar.*, executor.extract.*: ``tests_per_s`` on wide-stub;
* executor.send_request.*, executor.connect.*: ``requests_per_s`` on blog-*
  (connect calls equal requests while every request opens a connection);
* telemetry.record_exchange.*, telemetry.emit_report_s, rebuild_s:
  ``tests_per_s`` on blog-*; a higher cost per call on blog-bfs-2w than on
  blog-bfs means lock contention;
* run_dir_mb, telemetry.events_mb/wire_mb, buckets.*: disk, and
  ``time_to_first_bug_s`` on blog-*;
* blogserver.cpu_*: tells whether a change in ``requests_per_s`` on blog-*
  came from the fuzzer or the target; fuzzer.cpu_* is the fuzzer's side.

``run_dir_mb`` and ``failure_ratio`` are per-layer rather than end-to-end
because they are 0 on some workload (no run directory on wide-stub; no
transport failure anywhere, which the check enforces), and a 0 median has
no relative spread.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

WORKLOADS = ("blog-bfs", "blog-bfs-2w", "wide-stub")
BLOG_PUT = "PUT /api/blog/posts/{id}"
REPORT_FILES = ("status_timeline.csv", "per_length.csv", "summary.txt", "report.json")

TARGET_START_TIMEOUT_S = 20
# Every child must finish this long after the run started, so that the run
# ends, one way or the other, within three minutes.
RUN_LIMIT_S = 170
MB = 1 << 20
# First-bug-only campaigns run after each full one in an untraced run. They
# cost about 0.6 s against 3 to 4 s for a full campaign, and multiply the
# samples of the two short, noisy metrics: time_to_first_bug_s and setup_s.
FIRST_BUG_ONLY_PER_FULL = 4

END_TO_END = {
    "tests_per_s": "1/s",
    "requests_per_s": "1/s",
    "time_to_first_bug_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "campaign.self_s": "s",
    "compiler.parse_spec_s": "s",
    "compiler.compile_grammar_s": "s",
    "engine.extend.calls": "count",
    "engine.extend.candidates": "count",
    "engine.extend.busy_s": "s",
    "engine.extend.self_s": "s",
    "engine.extend.share": "ratio",
    "grammar.render.calls": "count",
    "grammar.render.busy_s": "s",
    "grammar.render.self_s": "s",
    "engine.execute_sequence.busy_s": "s",
    "engine.execute_sequence.self_s": "s",
    "engine.execute_sequence.p50_ms": "ms",
    "engine.execute_sequence.p99_ms": "ms",
    "engine.requests_per_test": "count",
    "engine.retained_per_test": "count",
    "grammar.assemble.calls": "count",
    "grammar.assemble.busy_s": "s",
    "grammar.assemble.self_s": "s",
    "executor.send_request.calls": "count",
    "executor.send_request.busy_s": "s",
    "executor.send_request.self_s": "s",
    "executor.send_request.p50_ms": "ms",
    "executor.send_request.p99_ms": "ms",
    "executor.connect.calls": "count",
    "executor.connect.busy_s": "s",
    "executor.connect.self_s": "s",
    "executor.connect.p50_us": "us",
    "executor.connect.p99_us": "us",
    "executor.extract.calls": "count",
    "executor.extract.busy_s": "s",
    "executor.extract.self_s": "s",
    "executor.transport_failures": "count",
    "failure_ratio": "ratio",
    "telemetry.record_exchange.calls": "count",
    "telemetry.record_exchange.busy_s": "s",
    "telemetry.record_exchange.self_s": "s",
    "telemetry.record_exchange.p50_us": "us",
    "telemetry.record_exchange.p99_us": "us",
    "telemetry.emit_report_s": "s",
    "telemetry.emit_report.self_s": "s",
    "telemetry.rebuild_s": "s",
    "telemetry.events_mb": "MB",
    "telemetry.wire_mb": "MB",
    "run_dir_mb": "MB",
    "buckets.record.calls": "count",
    "buckets.record.busy_s": "s",
    "buckets.record.self_s": "s",
    "buckets.count": "count",
    "buckets.files": "count",
    "buckets.mb": "MB",
    "target.stub.busy_s": "s",
    "blogserver.cpu_s": "s",
    "blogserver.cpu_per_request_us": "us",
    "fuzzer.cpu_s": "s",
    "fuzzer.cpu_per_request_us": "us",
    "tracing.overhead_pct": "%",
}


class BenchError(Exception):
    """A campaign failed, or its output failed a check."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# ----------------------------------------------------------------------------
# Target process


def start_target(log: Path) -> tuple[subprocess.Popen, int]:
    """Start the blog service on an OS-chosen port; return it and the port."""
    with open(log, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "restfuzz.blogserver", "--port", "0"],
            stdout=subprocess.PIPE, stderr=err, stdin=subprocess.DEVNULL,
            env=child_env(), cwd=ROOT,
        )
    try:
        announced = b""
        deadline = time.monotonic() + TARGET_START_TIMEOUT_S
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            while b"\n" not in announced:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    raise BenchError(f"target did not announce its address in "
                                     f"{TARGET_START_TIMEOUT_S} s")
                chunk = os.read(proc.stdout.fileno(), 4096)
                if not chunk:
                    raise BenchError(f"target exited during start-up; see {log.name}")
                announced += chunk
        match = re.search(rb"http://127\.0\.0\.1:(\d+)", announced)
        if match is None:
            raise BenchError(f"unexpected target announcement {announced!r}")
    except BaseException:
        stop_target(proc)
        raise
    return proc, int(match.group(1))


def cpu_seconds(pid: int) -> float:
    """utime + stime of a live process, from /proc/<pid>/stat."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def stop_target(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=5)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


# ----------------------------------------------------------------------------
# One campaign


def run_child(args: list[str], out: Path, hard_deadline: float) -> None:
    timeout = max(1.0, hard_deadline - time.monotonic())
    with open(out / "stdout.log", "wb") as stdout, open(out / "stderr.log", "wb") as stderr:
        try:
            code = subprocess.run(
                [sys.executable, str(HERE / "campaign.py"), *args],
                stdout=stdout, stderr=stderr, stdin=subprocess.DEVNULL,
                env=child_env(), cwd=ROOT, timeout=timeout,
            ).returncode
        except subprocess.TimeoutExpired:
            raise BenchError(f"campaign.py {args[0]} did not finish within the run's "
                             f"{RUN_LIMIT_S} s") from None
    if code != 0:
        tail = (out / "stderr.log").read_text(errors="replace")[-2000:]
        raise BenchError(f"campaign.py {args[0]} exited with {code}:\n{tail}")


def run_campaign(workload: str, seed: int, trace: bool, out: Path, hard_deadline: float,
                 first_bug_only: bool = False) -> dict:
    out.mkdir()
    args = ["fuzz", "--workload", workload, "--seed", str(seed), "--trace", str(int(trace)),
            "--out", str(out), *(["--first-bug-only"] if first_bug_only else [])]
    if workload == "wide-stub":
        run_child(args, out, hard_deadline)
        result = json.loads((out / "result.json").read_text())
        result["target_cpu_s"] = None
        return result
    proc, port = start_target(out / "target.log")
    try:
        cpu_before = cpu_seconds(proc.pid)
        run_child([*args, "--target", f"127.0.0.1:{port}"], out, hard_deadline)
        target_cpu = cpu_seconds(proc.pid) - cpu_before
    finally:
        stop_target(proc)
    result = json.loads((out / "result.json").read_text())
    result["target_cpu_s"] = target_cpu
    return result


def tree_size(path: Path) -> tuple[int, int]:
    """(files, bytes) under a directory."""
    files = size = 0
    for entry in path.rglob("*"):
        if entry.is_file():
            files += 1
            size += entry.stat().st_size
    return files, size


def check(workload: str, result: dict, reference: dict) -> None:
    if result["transport_failures"]:
        raise BenchError(f"{result['transport_failures']} transport failures")
    if workload == "wide-stub":
        observed, expected = result["canonical_fingerprint"], reference["wide-stub"]
    else:
        observed, expected = result["fingerprint"], reference["blog"]
    if observed != expected:
        WORK_ROOT.joinpath(f"fingerprint-{workload}.json").write_text(
            json.dumps(observed, indent=1, sort_keys=True) + "\n")
        differing = sorted(k for k in expected.keys() | observed.keys()
                           if expected.get(k) != observed.get(k))
        raise BenchError(f"fingerprint differs from reference.json in {differing}; "
                         f"observed one written to .bench_work/fingerprint-{workload}.json")
    finals = {tuple(pair) for pair in result["bug_finals"]}
    last_steps = [sequence[-1] for sequence in result["buckets"]]
    if workload != "wide-stub":
        if finals != {(BLOG_PUT, 500)} or set(last_steps) != {BLOG_PUT}:
            raise BenchError(f"want every bug to be {BLOG_PUT} with 500; got finals "
                             f"{sorted(finals)}, buckets ending {last_steps}")
        return
    bugs = result["status_totals"].get("bug", 0)
    if bugs != result["stub_500s"]:
        raise BenchError(f"{bugs} bugs reported, {result['stub_500s']} 500s served")
    final_templates = {template for template, _ in finals}
    one_per_collection = (
        len(last_steps) == result["collections"]
        and len(set(last_steps)) == len(last_steps)
        and set(last_steps) == final_templates
        and all(template.startswith("PUT ") for template in final_templates)
        and {status for _, status in finals} == {500}
    )
    if not one_per_collection:
        raise BenchError(f"want one bucket per collection, each ending in its PUT with 500; "
                         f"got buckets {result['buckets']}, finals {sorted(finals)}")


def check_round_trip(run_dir: Path, out: Path, hard_deadline: float) -> float:
    """Rebuild the reports of a copy of ``run_dir``; return the rebuild time."""
    copy = out / "copy"
    shutil.copytree(run_dir, copy)
    for name in REPORT_FILES:
        (copy / name).unlink()
    run_child(["report", "--out", str(copy), "--result", str(out / "rebuild.json")], out,
              hard_deadline)
    for name in REPORT_FILES:
        if (copy / name).read_bytes() != (run_dir / name).read_bytes():
            raise BenchError(f"restfuzz report rebuilt a different {name}")
    shutil.rmtree(copy)
    return json.loads((out / "rebuild.json").read_text())["rebuild_s"]


def process_metrics(result: dict) -> dict[str, float]:
    """Metrics of one untraced campaign."""
    campaign = result["campaign_s"]
    tests, requests = result["tests"], result["requests"]
    metrics = {
        "tests_per_s": tests / campaign,
        "requests_per_s": requests / campaign,
        "peak_rss_mb": result["peak_rss_mb"],
        "engine.requests_per_test": requests / tests,
        "engine.retained_per_test": result["retained"] / tests,
        "executor.transport_failures": result["transport_failures"],
        "failure_ratio": result["transport_failures"] / tests,
        "buckets.count": len(result["buckets"]),
        "fuzzer.cpu_s": result["cpu_s"],
        "fuzzer.cpu_per_request_us": result["cpu_s"] / requests * 1e6,
        "blogserver.cpu_s": 0.0,
        "blogserver.cpu_per_request_us": 0.0,
        "run_dir_mb": 0.0,
        "telemetry.events_mb": 0.0,
        "telemetry.wire_mb": 0.0,
        "buckets.files": 0,
        "buckets.mb": 0.0,
    }
    if result["target_cpu_s"] is not None:
        metrics["blogserver.cpu_s"] = result["target_cpu_s"]
        metrics["blogserver.cpu_per_request_us"] = result["target_cpu_s"] / requests * 1e6
        run_dir = Path(result["run_dir"])
        bucket_files, bucket_bytes = tree_size(run_dir / "buckets")
        metrics.update({
            "run_dir_mb": tree_size(run_dir)[1] / MB,
            "telemetry.events_mb": (run_dir / "events.jsonl").stat().st_size / MB,
            "telemetry.wire_mb": (run_dir / "wire.log").stat().st_size / MB,
            "buckets.files": bucket_files,
            "buckets.mb": bucket_bytes / MB,
        })
    return metrics


# ----------------------------------------------------------------------------
# A run


def median_of(samples: list[dict], names) -> dict[str, float]:
    return {name: statistics.median(sample[name] for sample in samples) for name in names}


def check_first_bug(workload: str, result: dict, reference: dict) -> None:
    """A first-bug-only campaign must stop at a bug of the reference."""
    bug = result["first_bug"]
    expected = reference["wide-stub" if workload == "wide-stub" else "blog"]
    sequences = [b["defining_sequence"] for b in expected["buckets"]]
    if bug["status"] != 500 or bug["sequence"] not in sequences:
        raise BenchError(f"first bug {bug} is not a 500 ending a reference bucket")


def schedule(trace: bool):
    """The kinds of campaign a run cycles through: (traced, first_bug_only)."""
    if trace:
        return [(False, False), (True, False)]
    return [(False, False)] + [(False, True)] * FIRST_BUG_ONLY_PER_FULL


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    reference = json.loads((HERE / "reference.json").read_text())
    deadline = time.monotonic() + seconds
    hard_deadline = time.monotonic() + RUN_LIMIT_S
    plain: list[dict] = []
    traced: list[dict] = []
    # (setup_s, first_bug_s) of every untraced campaign, full or not.
    starts: list[tuple[float, float]] = []
    rebuild_s = 0.0
    attempted = failed = 0
    longest: dict[tuple[bool, bool], float] = {}
    kinds = schedule(trace)
    index = 0
    while True:
        kind = kinds[index % len(kinds)]
        traced_now, first_bug_only = kind
        complete = plain and (traced or not trace)
        if complete and time.monotonic() + longest.get(kind, 0.0) > deadline:
            break
        out = work / f"campaign-{index}"
        started = time.monotonic()
        result = run_campaign(workload, seed, traced_now, out, hard_deadline, first_bug_only)
        longest[kind] = max(longest.get(kind, 0.0), time.monotonic() - started)
        index += 1
        if first_bug_only:
            check_first_bug(workload, result, reference)
            starts.append((result["setup_s"], result["first_bug_s"]))
            shutil.rmtree(out)
            continue
        check(workload, result, reference)
        attempted += result["tests"]
        failed += result["transport_failures"]
        if traced_now:
            traced.append(result)
            shutil.copyfile(out / "spans.jsonl", WORK_ROOT / f"spans-{workload}.jsonl")
        else:
            metrics = process_metrics(result)
            if workload == "blog-bfs" and not plain:
                rebuild_s = check_round_trip(Path(result["run_dir"]), out, hard_deadline)
            plain.append(metrics)
            starts.append((result["setup_s"], result["first_bug_s"]))
        shutil.rmtree(out)

    if not trace:
        metrics = median_of(plain, [n for n in END_TO_END if n in plain[0]])
        metrics["setup_s"] = statistics.median(setup for setup, _ in starts)
        metrics["time_to_first_bug_s"] = statistics.median(first for _, first in starts)
        units = END_TO_END
    else:
        layer_names = traced[0]["layers"].keys()
        metrics = median_of(plain, [n for n in PER_LAYER if n in plain[0]])
        metrics.update(median_of([r["layers"] for r in traced], layer_names))
        metrics["telemetry.rebuild_s"] = rebuild_s
        traced_tps = statistics.median(r["tests"] / r["campaign_s"] for r in traced)
        untraced_tps = statistics.median(p["tests_per_s"] for p in plain)
        metrics["tracing.overhead_pct"] = (1 - traced_tps / untraced_tps) * 100
        units = PER_LAYER
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="restfuzz campaign benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn termination into an exception, so that the finally blocks stop
    # the target and the children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (SRC / "restfuzz" / "cli.py").is_file():
        print(f"error: no restfuzz sources under {SRC}", file=sys.stderr)
        return 2
    # One CPU for the harness and everything it starts; see "Process model".
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
