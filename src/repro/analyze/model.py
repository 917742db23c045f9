"""Abstract execution model for the static synchronization analyzer.

The analyzer never runs the simulator.  Instead each kernel launch (and
each host-side comm thread) becomes a :class:`Thread`: a straight-line
trace of :class:`Event` records — signal waits/posts, tile reads/writes,
barriers — obtained by abstractly interpreting the kernel IR at a small
concrete instantiation (world size, tile-grid shape).

Plans are *recorded*, not hand-written: :class:`PlanContext` is a
:class:`~repro.runtime.context.DistContext` whose launches, streams and
host-side primitives record instead of simulate, so a family's own
``*_overlapped`` launcher, run against it, produces the plan.  Kernel
launches are kept for abstract interpretation; host generators enqueued on
a stream (``dma_all_gather``, the scatter procs) run to completion on the
spot, and their ``rank_copy_data`` / ``rank_wait`` / ``post_add`` calls
become the host thread's events.

Signals live in :class:`AbstractBank` objects.  A bank is a *name*, an
owning rank, and a cell count — it deliberately implements ``__len__`` so
it can be dropped into a real :class:`~repro.lang.block_channel.BlockChannel`
where the runtime would hold a ``SignalArray``; channels are built by the
runtime's own ``make_block_channels``, so all of the channel's
tile-to-channel/threshold metadata resolution is reused verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any

from repro.compiler.program import CompileOptions
from repro.config import SimConfig
from repro.errors import AnalysisError
from repro.lang.dsl import KernelDef
from repro.lang.ir import KernelIR
from repro.memory.symmetric import SymmetricHeap
from repro.memory.tensor import SimTensor
from repro.runtime.context import DistContext, Ranges
from repro.sim.engine import ProcessGen

#: lattice top for scalar abstract values
UNKNOWN = object()

#: (bank name, owning rank) — the analyzer's key for one signal array
BankKey = tuple[str, int]


class AbstractBank:
    """Stand-in for a ``SignalArray``: identity + size, no state.

    A host-side ``post_add`` records a notify into the host thread its
    :class:`PlanContext` is running.
    """

    def __init__(self, name: str, rank: int, size: int,
                 host: "_HostRecorder"):
        self.name = name
        self.rank = rank
        self.size = size
        self.host = host

    def __len__(self) -> int:
        return self.size

    @property
    def key(self) -> BankKey:
        return (self.name, self.rank)

    def post_add(self, index: int, amount: int, from_rank: int) -> None:
        self.host.event("notify", f"post_add cell {index} += {amount}",
                        bank=self.key, cell=index, amount=amount)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<AbstractBank {self.name}@{self.rank} x{self.size}>"


@dataclass(frozen=True)
class Site:
    """Where an event came from: kernel (or host label) + source line."""

    kernel: str
    lineno: int | None
    detail: str = ""

    def render(self) -> str:
        loc = self.kernel
        if self.lineno is not None:
            loc += f":{self.lineno}"
        return f"{loc} ({self.detail})" if self.detail else loc


@dataclass
class Event:
    """One abstract action in a thread's trace.

    ``kind`` is one of ``wait`` / ``notify`` / ``read`` / ``write`` /
    ``accum`` / ``barrier``.  Signal events carry ``(bank, cell)`` plus an
    ``amount`` (notify) or ``threshold`` (wait).  Access events carry the
    tensor's plan name, the instance rank, and half-open row/col ranges —
    ``None`` when the extent could not be resolved statically (such
    accesses are excluded from the race/coverage checks).
    ``guaranteed`` is False for events under a branch the analyzer could
    not decide.
    """

    kind: str
    site: Site
    guaranteed: bool = True
    bank: BankKey | None = None
    cell: int | None = None
    amount: int = 0
    threshold: int = 0
    tensor: str | None = None
    rank: int | None = None
    rows: tuple[int, int] | None = None
    cols: tuple[int, int] | None = None


@dataclass
class Thread:
    """One abstract execution: a kernel block on a rank, or a host proc."""

    key: str
    kernel: str
    rank: int
    group: str                      # launch id (barrier scope, ordering)
    events: list[Event] = field(default_factory=list)
    #: groups that must fully complete before this thread starts
    #: (same-stream launch ordering); transitively closed by the builder
    after: frozenset[str] = frozenset()
    #: barrier rendezvous scope: one SPMD launch across all ranks
    scope: str = ""


@dataclass
class LaunchPlan:
    """A fully-instantiated abstract execution: threads + declared outputs."""

    name: str
    family: str
    world: int
    threads: list[Thread] = field(default_factory=list)
    #: plan tensor name -> per-rank (rows, cols); symmetric across ranks
    tensors: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: tensor names whose full per-rank extent must be covered by writes
    outputs: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


class _HostRecorder:
    """The host thread a :class:`PlanContext` is running, if any.

    Shared by the context and its banks; it refers back to neither, so a
    recorded context is freed without a cycle collection.
    """

    def __init__(self):
        self.thread: Thread | None = None

    def event(self, kind: str, detail: str, **fields: Any) -> None:
        if self.thread is None:
            raise AnalysisError(
                f"host-side {kind} ({detail}) outside an enqueued host "
                "generator")
        self.thread.events.append(
            Event(kind, Site(self.thread.kernel, None, detail), **fields))


class _PlanHeap(SymmetricHeap):
    """Symmetric heap of shape-only tensors and abstract signal banks."""

    def __init__(self, machine: SimpleNamespace, host: _HostRecorder):
        super().__init__(machine)
        self.host = host

    def alloc_signals(self, name: str, n: int) -> list[AbstractBank]:
        return [AbstractBank(name, r, n, self.host)
                for r in range(self.machine.world_size)]


class _PlanStream:
    """A (rank, stream) of a :class:`PlanContext`: enqueue records."""

    def __init__(self, ctx: "PlanContext", rank: int, name: str):
        self.ctx = ctx
        self.rank = rank
        self.name = name

    def enqueue(self, gen: ProcessGen, name: str | None = None) -> None:
        self.ctx.record_host(self.rank, self.name, name or self.name, gen)


def _plan_shape(t: SimTensor) -> tuple[int, int]:
    """Per-rank (rows, cols) of a tensor; 1-d tables are one column."""
    return t.shape if len(t.shape) == 2 else (t.shape[0], 1)


class PlanContext(DistContext):
    """Records a :class:`LaunchPlan` from a real launcher.

    Implements the part of :class:`DistContext` the ``*_overlapped``
    launchers use — ``alloc``/``bind``/``heap.tensors``,
    ``make_block_channels``, ``launch`` and ``stream(...).enqueue`` — with
    DistContext's stream semantics: launches and host procs on one
    (rank, stream) serialize, and banks are shared across ranks.

    ``ir_overrides`` maps a kernel name to the IR interpreted in place of
    the shipped one (the mutant tests plant bugs this way).
    """

    def __init__(self, name: str, family: str, world: int, *,
                 ir_overrides: dict[str, KernelIR] | None = None):
        self.machine = SimpleNamespace(
            world_size=world,
            config=SimConfig(world_size=world, execute_numerics=False))
        self.host = _HostRecorder()
        self.heap = _PlanHeap(self.machine, self.host)
        self._channel_count = 0
        self.plan = LaunchPlan(name=name, family=family, world=world)
        self.ir_overrides = ir_overrides or {}
        self._launch_count = 0
        #: (rank, stream) -> group label of the last enqueued work
        self._stream_tail: dict[tuple[int, str], str] = {}
        #: group -> transitively-closed set of predecessor groups
        self._closure: dict[str, frozenset[str]] = {}
        self._pending: list[tuple] = []   # deferred kernel launches

    # -- outputs and notes --------------------------------------------------

    def output(self, name: str) -> None:
        """Declare a tensor whose full per-rank extent must be written."""
        self.heap.tensors(name)   # raises on an unknown tensor
        if name not in self.plan.outputs:
            self.plan.outputs.append(name)

    def note(self, text: str) -> None:
        self.plan.notes.append(text)

    # -- enqueue ordering ----------------------------------------------------

    def _enqueue(self, rank: int, stream: str, label: str) -> str:
        """Reserve a group label on (rank, stream); returns the label with
        its transitive predecessor closure recorded."""
        self._launch_count += 1
        group = f"{label}#{self._launch_count}"
        tail = self._stream_tail.get((rank, stream))
        preds: set[str] = set()
        if tail is not None:
            preds.add(tail)
            preds |= self._closure[tail]
        self._closure[group] = frozenset(preds)
        self._stream_tail[(rank, stream)] = group
        return group

    def stream(self, rank: int, name: str = "default") -> _PlanStream:
        return _PlanStream(self, rank, name)

    def launch(self, kdef: KernelDef, grid: int, args: dict[str, Any], *,
               options: CompileOptions | None = None,
               stream_name: str = "default",
               label: str | None = None) -> None:
        """Record an SPMD launch (one group per rank, like DistContext)."""
        ir = kdef.ir
        label = label or kdef.name
        constexprs = {p: args[p] for p in ir.constexpr_params if p in args}
        # kernel param -> plan tensor name (args hold per-rank tensor lists)
        skip = {*ir.constexpr_params, ir.channel_param}
        tensors = {p: args[p][0].name for p in ir.params if p not in skip}
        channels = args.get(ir.channel_param)
        for p in kdef.meta.get("outputs", ()):
            if p in tensors:
                self.output(tensors[p])
        self._launch_count += 1
        scope = f"{label}/{self._launch_count}"
        kir = self.ir_overrides.get(kdef.name, ir)
        for rank in range(self.world_size):
            group = self._enqueue(rank, stream_name, f"{label}[r{rank}]")
            channel = channels[rank] if channels is not None else None
            self._pending.append(
                (kdef.name, kir, grid, constexprs, tensors, channel, rank,
                 group, scope))

    # -- host threads -----------------------------------------------------------

    def record_host(self, rank: int, stream: str, label: str,
                    gen: ProcessGen) -> None:
        """Run a host generator to completion into one host thread.

        Its ``rank_copy_data`` / ``rank_wait`` / bank ``post_add`` calls
        become events; anything else it yields (a delay) is dropped.
        """
        group = self._enqueue(rank, stream, label)
        self.host.thread = Thread(
            key=f"{label}@{rank}", kernel=label, rank=rank, group=group,
            after=self._closure[group], scope=group)
        try:
            for _ in gen:
                pass
            self.plan.threads.append(self.host.thread)
        finally:
            self.host.thread = None

    def rank_copy_data(self, name: str, src_rank: int, dst_rank: int,
                       src_ranges: Ranges, dst_ranges: Ranges,
                       src_name: str | None = None) -> ProcessGen:
        src = src_name or name
        self.host.event("read", f"rank_copy_data read {src}@{src_rank}",
                        tensor=src, rank=src_rank, rows=src_ranges[0],
                        cols=src_ranges[1])
        self.host.event("write", f"rank_copy_data write {name}@{dst_rank}",
                        tensor=name, rank=dst_rank, rows=dst_ranges[0],
                        cols=dst_ranges[1])
        return
        yield  # pragma: no cover - generator marker

    def rank_wait(self, bank: AbstractBank, index: int, threshold: int,
                  host_synced: bool = False) -> ProcessGen:
        self.host.event("wait", f"rank_wait cell {index} >= {threshold}",
                        bank=bank.key, cell=index, threshold=threshold)
        return
        yield  # pragma: no cover - generator marker

    # -- build ----------------------------------------------------------------

    def build(self) -> tuple[LaunchPlan, list]:
        """Abstractly interpret all pending launches; returns the finished
        plan plus any findings raised during interpretation."""
        from repro.analyze.absint import interpret_launch

        self.plan.tensors = {name: _plan_shape(self.heap.tensors(name)[0])
                             for name in self.heap.names()}
        findings: list = []
        for (kname, kir, grid, constexprs, tensors, channel, rank,
             group, scope) in self._pending:
            for bid in range(grid):
                events, fs = interpret_launch(
                    kir, constexprs, channel, tensors, self.plan.tensors,
                    rank=rank, bid=bid, grid=grid, world=self.world_size)
                findings.extend(fs)
                self.plan.threads.append(Thread(
                    key=f"{kname}[r{rank}b{bid}]#{group}",
                    kernel=kname, rank=rank, group=group,
                    events=events, after=self._closure[group],
                    scope=scope))
        self._pending = []
        return self.plan, findings
