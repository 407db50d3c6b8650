"""The tactical optimizer pipeline.

MonetDB's tactical optimizer is "a MAL to MAL transformation system" (§2);
this pipeline applies an ordered list of such transformations.  The default
order mirrors the paper's placement of the segment optimizer at the tactical
level: first plan hygiene (duplicate-bind merging), then the segment-aware
rewrite, then dead-code elimination to clean up binds the rewrite obsoleted.
"""

from __future__ import annotations

from typing import Callable

from repro.mal.program import MALProgram

OptimizerRule = Callable[[MALProgram], MALProgram]


class OptimizerPipeline:
    """An ordered list of MAL→MAL rules applied to every compiled plan."""

    def __init__(self, rules: list[OptimizerRule] | None = None) -> None:
        self.rules: list[OptimizerRule] = list(rules or [])

    def optimize(self, program: MALProgram) -> MALProgram:
        """Apply every rule in order and return the final program."""
        optimized = program
        for rule in self.rules:
            optimized = rule(optimized)
        return optimized

