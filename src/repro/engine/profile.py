"""Per-stage query profiling.

Every :class:`~repro.engine.result.QueryResult` carries a :class:`QueryProfile`
splitting the query's wall-clock time into the pipeline stages —

* ``parse``    — SQL text → AST, plus parameter extraction;
* ``optimize`` — the tactical MAL→MAL optimizer pipeline;
* ``compile``  — SQL→MAL code generation *and* the one-time lowering of the
  optimized program into a slot-based :class:`~repro.mal.compiled.CompiledPlan`;
* ``execute``  — running the (compiled) plan, including any piggy-backed
  adaptation work;

— plus per-opcode execution counters from the compiled plan.  On a warm query
(``cold`` is False) the optimize and compile stages are zero because the
cached plan was reused; parse is then the literal masking alone, and zero on
the prepared path.  The profiler exists so every perf change can be attributed
to a stage instead of argued about (cf. KnobCF/IWEK: you cannot tune what you
cannot attribute).
"""

from __future__ import annotations

#: Stage names in pipeline order (the keys of :meth:`QueryProfile.stage_seconds`).
STAGES = ("parse", "optimize", "compile", "execute")


class QueryProfile:
    """Wall-clock seconds per pipeline stage plus per-opcode counters.

    The per-opcode aggregation is lazy: the executor attaches its raw
    per-instruction counter array via :meth:`attach_counters` and the
    ``module.function → count`` mapping is materialized on first access of
    :attr:`opcode_counts` — profiling costs the hot path one list increment
    per executed instruction, nothing more.
    """

    __slots__ = (
        "parse_seconds",
        "optimize_seconds",
        "compile_seconds",
        "execute_seconds",
        "cold",
        "_plan",
        "_counts",
        "_opcode_counts",
    )

    def __init__(
        self,
        parse_seconds: float = 0.0,
        optimize_seconds: float = 0.0,
        compile_seconds: float = 0.0,
        execute_seconds: float = 0.0,
        cold: bool = True,
        opcode_counts: dict[str, int] | None = None,
    ) -> None:
        self.parse_seconds = parse_seconds
        self.optimize_seconds = optimize_seconds
        self.compile_seconds = compile_seconds
        self.execute_seconds = execute_seconds
        self.cold = cold
        self._plan = None
        self._counts: list[int] | None = None
        self._opcode_counts = opcode_counts

    def attach_counters(self, plan, counts: list[int]) -> None:
        """Attach a compiled plan's raw per-instruction execution counters."""
        self._plan = plan
        self._counts = counts
        self._opcode_counts = None

    @property
    def opcode_counts(self) -> dict[str, int]:
        """Executed-instruction counts aggregated by callee (lazy)."""
        if self._opcode_counts is None:
            if self._plan is not None and self._counts is not None:
                self._opcode_counts = self._plan.opcode_counts(self._counts)
            else:
                self._opcode_counts = {}
        return self._opcode_counts

    @property
    def plan_seconds(self) -> float:
        """Everything before execution: parse + optimize + compile."""
        return self.parse_seconds + self.optimize_seconds + self.compile_seconds

    @property
    def total_seconds(self) -> float:
        """Sum over all profiled stages."""
        return self.plan_seconds + self.execute_seconds

    def stage_seconds(self) -> dict[str, float]:
        """The per-stage split as a mapping, in pipeline order."""
        return {
            "parse": self.parse_seconds,
            "optimize": self.optimize_seconds,
            "compile": self.compile_seconds,
            "execute": self.execute_seconds,
        }

    def format(self) -> str:
        """A terminal-friendly rendering (see README: reading profiler output)."""
        temperature = "cold" if self.cold else "warm"
        lines = [f"-- query profile ({temperature}) --"]
        for stage, seconds in self.stage_seconds().items():
            lines.append(f"  {stage:<8s} {seconds * 1e6:10.1f} µs")
        lines.append(f"  {'total':<8s} {self.total_seconds * 1e6:10.1f} µs")
        if self.opcode_counts:
            ordered = sorted(self.opcode_counts.items(), key=lambda item: (-item[1], item[0]))
            rendered = ", ".join(f"{callee}×{count}" for callee, count in ordered)
            lines.append(f"  opcodes  {rendered}")
        return "\n".join(lines)
