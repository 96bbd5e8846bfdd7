#!/usr/bin/env python3
"""Peak memory of a plain BFS over the bench's wide-stub document.

    python3 scripts/wide_bfs_memory.py [--seed 1] [--max-length 3]

BFS keeps every valid sequence of a length before it extends them, so this
campaign measures what one retained sequence costs. It runs ``FuzzEngine``
with the in-process stub target of ``bench/widestub.py`` (no sockets, no run
directory) and prints one JSON line: tests, seconds, the process's peak RSS
in MB, and a digest of the fingerprint with template ids mapped to seed-free
names, which a change that only saves memory must leave as it is.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import widestub  # noqa: E402

from restfuzz.compiler import compile_grammar, parse_spec  # noqa: E402
from restfuzz.engine import EngineConfig, FuzzEngine, Strategy  # noqa: E402
from restfuzz.grammar import FuzzingDictionary  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="seed of the wide-stub document")
    parser.add_argument("--max-length", type=int, default=3)
    args = parser.parse_args(argv)

    spec_text, canonical = widestub.generate(args.seed)
    engine = FuzzEngine(
        compile_grammar(parse_spec(spec_text)),
        FuzzingDictionary.default(),
        EngineConfig(strategy=Strategy.BFS, max_length=args.max_length),
        transport_factory=widestub.StubTransport,
    )
    started = time.monotonic()
    report = engine.run()
    seconds = time.monotonic() - started
    fingerprint = widestub.canonical_fingerprint(report.fingerprint(), canonical)
    digest = hashlib.sha256(json.dumps(fingerprint, sort_keys=True).encode()).hexdigest()
    print(json.dumps({
        "tests": report.total_tests,
        "seconds": round(seconds, 2),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2),
        "fingerprint_sha256": digest[:16],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
