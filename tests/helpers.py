"""Helpers that tests share but the package does not need."""

from __future__ import annotations

from restfuzz.engine import EngineConfig, FuzzEngine, RenderedSteps, sequence_produces
from restfuzz.executor import DEFAULT_AUTH_HEADER
from restfuzz.grammar import (
    FuzzingDictionary,
    GrammarProgram,
    RenderedRequest,
    RequestTemplate,
    consumes,
)


def dependencies_satisfied(
    steps: RenderedSteps, template: RequestTemplate, grammar: GrammarProgram
) -> bool:
    """The per-pair dependency check that ``extend`` batches: every type
    ``template`` consumes is produced by ``steps`` or given externally."""
    return consumes(template) <= sequence_produces(steps, grammar)


def step(template_id, rendering=0):
    """A bodiless rendering of ``template_id``: the search and the commit
    read only its id and rendering index."""
    return RenderedRequest(template_id, rendering, parts=(), body_start=0)


def committing_engine(sink=None) -> FuzzEngine:
    """An engine that runs no test of its own, whose ``_record_test`` a
    test calls with finished tests, as the workers of a run do."""
    return FuzzEngine(
        GrammarProgram(templates=()), FuzzingDictionary.default(), EngineConfig(),
        transport_factory=None, sink=sink,
    )


def run_settings(config=None, auth_header=DEFAULT_AUTH_HEADER) -> dict:
    """The settings ``restfuzz fuzz`` hands its sink to record in
    ``run_start``, for a run of ``config`` (by default ``EngineConfig()``)
    that names ``auth_header``."""
    return {
        "config": (config or EngineConfig()).to_dict(),
        "target": "127.0.0.1:80",
        "secure": False,
        "connect_timeout": 5.0,
        "read_timeout": 30.0,
        "auth_header": auth_header,
    }
