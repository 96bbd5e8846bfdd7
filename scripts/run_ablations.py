#!/usr/bin/env python3
"""Run each search strategy with each algorithm variant against the
reference service, under one time budget, and print one row per pair.

Variants: the full algorithm, dependency inference disabled (consumed
values degrade to dictionary strings), and feedback pruning disabled
(invalid sequences stay in the frontier). The full variant should find the
planted bug with far fewer tests than no-feedback, while no-deps finds
nothing at all. Of the strategies, BFS spends its budget widening shallow
levels while RandomWalk dives: it reaches lengths BFS never gets near, at
the cost of restarts and redundant work.

Every run gets a fresh service, so each starts from the same state.
"""

from __future__ import annotations

import argparse
import sys

from restfuzz.blogserver import bundled_spec_path, running
from restfuzz.compiler import compile_grammar, parse_spec
from restfuzz.engine import EngineConfig, FuzzEngine, Strategy
from restfuzz.executor import ConnectionConfig, SocketTransport
from restfuzz.grammar import FuzzingDictionary

VARIANTS = [
    ("full", {}),
    ("no-deps", {"no_deps": True}),
    ("no-feedback", {"no_feedback": True}),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--strategies", default="bfs,random-walk", metavar="NAMES",
                        help="comma-separated strategies (default bfs,random-walk)")
    parser.add_argument("--budget", type=float, default=5.0, help="seconds per run")
    parser.add_argument("--max-length", type=int, default=3, help="BFS length bound")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    strategies = [Strategy.parse(name) for name in args.strategies.split(",")]
    model = parse_spec(bundled_spec_path().read_text())

    print(
        f"{'strategy':<12} {'variant':<12} {'tests':>7} {'bugs':>6} {'max len':>8} "
        f"{'restarts':>9} {'buckets':>8} {'stopped':>12}"
    )
    for strategy in strategies:
        for name, flags in VARIANTS:
            with running() as handle:
                grammar = compile_grammar(model, host=f"127.0.0.1:{handle.port}")
                conn = ConnectionConfig("127.0.0.1", handle.port)
                config = EngineConfig(
                    strategy=strategy,
                    max_length=args.max_length,
                    time_budget=args.budget,
                    rng_seed=args.seed,
                    **flags,
                )
                engine = FuzzEngine(
                    grammar,
                    FuzzingDictionary.default(),
                    config,
                    transport_factory=lambda: SocketTransport(conn),
                )
                report = engine.run()
            print(
                f"{strategy.value:<12} {name:<12} {report.total_tests:>7} "
                f"{report.status_totals.get('bug', 0):>6} {report.max_length_reached:>8} "
                f"{report.restarts:>9} {len(report.buckets):>8} {report.stopped_reason:>12}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
