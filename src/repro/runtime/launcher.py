"""Kernel launcher: compile once, run SPMD on the simulated node.

A launch spawns one simulation process per block of the grid; blocks queue
FIFO on the device's SM pool (persistent-block kernels use ``grid <= SMs``
and stride over tiles internally, like the paper's Figure 4 kernels).
Launch overhead is charged on the stream, and the kernel process completes
when all its blocks have drained.
"""

from __future__ import annotations

from typing import Any

from repro.compiler.interp import lower
from repro.compiler.program import CompiledProgram, CompileOptions, compile_kernel
from repro.errors import RuntimeLaunchError
from repro.lang.block_channel import BlockChannel
from repro.lang.dsl import KernelDef
from repro.sim.engine import AllOf, Process, ProcessGen
from repro.sim.machine import Machine
from repro.sim.stream import Stream


def _split_args(program: CompiledProgram, args: dict[str, Any],
                rank: int) -> dict[str, Any]:
    """Per-rank view of launch arguments.

    Symmetric tensors stay as lists (kernels may index peers); BlockChannel
    lists are narrowed to the rank's instance.
    """
    bindings: dict[str, Any] = {}
    for name in program.tensor_params:
        if name not in args:
            raise RuntimeLaunchError(
                f"kernel {program.name!r}: missing argument {name!r}")
        bindings[name] = args[name]
    if program.ir.channel_param is not None:
        ch = args.get(program.ir.channel_param)
        if isinstance(ch, list):
            ch = ch[rank]
        if not isinstance(ch, BlockChannel):
            raise RuntimeLaunchError(
                f"kernel {program.name!r}: argument "
                f"{program.ir.channel_param!r} must be a BlockChannel")
        bindings[program.ir.channel_param] = ch
    return bindings


def kernel_process(program: CompiledProgram, machine: Machine, rank: int,
                   grid: int, bindings: dict[str, Any],
                   label: str | None = None) -> ProcessGen:
    """Generator running one rank's grid (usable inside stream enqueues)."""
    if grid < 1:
        raise RuntimeLaunchError(f"grid must be >= 1, got {grid}")
    device = machine.device(rank)
    label = label or program.name
    # generated once per program and numerics mode, at its first launch
    run = lower(program, machine.config.execute_numerics)

    def block(bid: int) -> ProcessGen:
        yield device.sms.acquire()
        try:
            yield from run(machine, rank, bid, grid, bindings, label)
        finally:
            device.sms.release()
        return None

    procs = [
        machine.spawn(block(bid), name=f"{label}[r{rank}b{bid}]")
        for bid in range(grid)
    ]
    yield AllOf(procs)
    return None


def launch_kernel(machine: Machine, kdef: KernelDef, grid: int, rank: int,
                  args: dict[str, Any],
                  options: CompileOptions | None = None,
                  stream: Stream | None = None,
                  label: str | None = None) -> Process:
    """Launch one rank's kernel; returns the stream-enqueued process."""
    if grid < 1:
        raise RuntimeLaunchError(f"grid must be >= 1, got {grid}")
    ir = kdef.ir
    constexprs = {p: args[p] for p in ir.constexpr_params if p in args}
    program = compile_kernel(kdef, constexprs, options)
    bindings = _split_args(program, args, rank)
    stream = stream or machine.stream(rank)
    gen = kernel_process(program, machine, rank, grid, bindings, label=label)
    return stream.enqueue(
        gen,
        name=label or f"{kdef.name}[{rank}]",
        start_delay=machine.cost.launch_overhead(),
    )


def launch_spmd(machine: Machine, kdef: KernelDef, grid: int,
                args: dict[str, Any],
                options: CompileOptions | None = None,
                stream_name: str = "default",
                label: str | None = None) -> list[Process]:
    """Launch the same kernel on every rank (SPMD, Figure 7's runtime)."""
    return [
        launch_kernel(machine, kdef, grid, rank, args, options,
                      stream=machine.stream(rank, stream_name), label=label)
        for rank in range(machine.world_size)
    ]
