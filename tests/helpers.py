"""Helpers that tests share but the package does not need."""

from __future__ import annotations

from restfuzz.engine import RenderedSteps, sequence_produces
from restfuzz.grammar import GrammarProgram, RequestTemplate, consumes


def dependencies_satisfied(
    steps: RenderedSteps, template: RequestTemplate, grammar: GrammarProgram
) -> bool:
    """The per-pair dependency check that ``extend`` batches: every type
    ``template`` consumes is produced by ``steps`` or given externally."""
    return consumes(template) <= sequence_produces(steps, grammar)
