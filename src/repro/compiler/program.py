"""Kernel compilation driver: frontend IR + passes -> CompiledProgram.

Specializations are cached per (constexpr binding, options) on the
:class:`repro.lang.dsl.KernelDef`, mirroring Triton's JIT cache.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any

from repro.errors import CompileError
from repro.lang.dsl import KernelDef
from repro.lang.ir import KernelIR
from repro.compiler.passes import (
    annotate_loops,
    enforce_consistency,
    pipeline_loops,
    verify_consistency,
)


@dataclass(frozen=True)
class CompileOptions:
    """Backend knobs (ablation switches of the A3 experiment).

    Parameters
    ----------
    num_stages:
        Software-pipeline depth; < 2 disables pipelining (and with it the
        load/compute overlap inside tile loops).
    enforce_consistency:
        Run the §4.2 memory-consistency pass.  Disabling it lets the
        pipeliner hoist loads above wait primitives — observable as wrong
        numerics in numeric mode.
    validate:
        Run the consistency checker after passes (raises
        :class:`repro.errors.ConsistencyError` on a bad schedule) and the
        structural half of the static synchronization analyzer (raises
        :class:`repro.errors.AnalysisError` on primitive misuse or a
        divergent ``barrier_all``).
    """

    num_stages: int = 3
    enforce_consistency: bool = True
    validate: bool = True


@dataclass
class CompiledProgram:
    """An annotated, specialization-bound kernel ready for launch."""

    name: str
    ir: KernelIR
    constexprs: dict[str, Any]
    options: CompileOptions
    #: block functions generated by ``repro.compiler.interp.lower``, keyed
    #: by numerics mode (filled at first launch)
    lowered: dict[bool, Any] = field(default_factory=dict, repr=False,
                                     compare=False)

    @property
    def tensor_params(self) -> list[str]:
        skip = set(self.ir.constexpr_params)
        if self.ir.channel_param:
            skip.add(self.ir.channel_param)
        return [p for p in self.ir.params if p not in skip]


def compile_kernel(kdef: KernelDef, constexprs: dict[str, Any],
                   options: CompileOptions | None = None) -> CompiledProgram:
    """Run the backend passes for one specialization (cached)."""
    options = options or CompileOptions()
    key = (kdef.specialization_key(constexprs), options)
    cached = kdef._programs.get(key)
    if cached is not None:
        return cached

    ir = copy.deepcopy(kdef.ir)
    for p, v in constexprs.items():
        if p not in ir.constexpr_params:
            raise CompileError(
                f"{kdef.name}: {p!r} is not a constexpr parameter")
    annotate_loops(ir)
    pipeline_loops(ir, num_stages=options.num_stages)
    if options.enforce_consistency:
        enforce_consistency(ir)
        if options.validate:
            verify_consistency(ir)
    if options.validate:
        # lazy import: the analyzer sits above the compiler in the layer
        # stack (it also drives whole launch plans)
        from repro.analyze.registry import check_compiled_ir

        check_compiled_ir(ir)
    program = CompiledProgram(
        name=kdef.name,
        ir=ir,
        constexprs={p: constexprs[p] for p in ir.constexpr_params},
        options=options,
    )
    kdef._programs[key] = program
    return program
