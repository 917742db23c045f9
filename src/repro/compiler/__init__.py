"""TileLink compiler backend.

Pipeline (paper §4, Figure 7)::

    KernelIR (frontend)
      -> analysis: mark aggregable loops              (passes.annotate_loops)
      -> pipelining: mark pipelined loops/prefetch    (passes.pipeline_loops)
      -> memory consistency: pin guarded loads        (passes.enforce_consistency)
      -> CompiledProgram                              (program.compile_kernel)
      -> lowering to a generated Python block         (interp.lower, once per
         function, at the program's first launch       program and numerics mode)
      -> one simulation process per block             (runtime.launcher)

The lowering translates tile ops and primitives into straight-line Python
against the BlockChannel's tile-centric mapping: signal primitives become
release-semantics atomic posts / acquire-semantics spin waits on
:class:`repro.memory.signals.SignalArray`, data primitives become
interconnect reservations with arrival-time data application.
"""

from repro.compiler.program import CompiledProgram, CompileOptions, compile_kernel

__all__ = ["CompiledProgram", "CompileOptions", "compile_kernel"]
