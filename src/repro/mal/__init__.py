"""The MAL substrate: programs, operators and compiled plans.

MonetDB executes query plans expressed in the MonetDB Assembly Language (MAL):
sequences of instructions over BATs with functional abstractions, guarded
(barrier) blocks and materialize-everything operator semantics (§2).  This
package reproduces the slice of MAL the paper's plans use — enough to compile
the Figure-1 plan from SQL, let the segment optimizer rewrite it into the
segment-aware iterator form of §3.1, and run its straight-line lowering.
"""

from repro.mal.program import Const, Instruction, MALProgram, MALRuntimeError, Var
from repro.mal.builder import ProgramBuilder
from repro.mal.compiled import CompiledPlan, compile_program
from repro.mal.modules import ModuleRegistry, default_registry

__all__ = [
    "CompiledPlan",
    "Const",
    "Instruction",
    "MALProgram",
    "Var",
    "ProgramBuilder",
    "MALRuntimeError",
    "ModuleRegistry",
    "compile_program",
    "default_registry",
]
