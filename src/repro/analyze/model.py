"""Abstract execution model for the static synchronization analyzer.

The analyzer never runs the simulator.  Instead each kernel launch (and
each host-side comm thread) becomes a :class:`Thread`: a straight-line
trace of :class:`Event` records — signal waits/posts, tile reads/writes,
barriers — obtained by abstractly interpreting the kernel IR at a small
concrete instantiation (world size, tile-grid shape).

Signals live in :class:`AbstractBank` objects.  A bank is a *name*, an
owning rank, and a cell count — it deliberately implements ``__len__`` so
it can be dropped into a real :class:`~repro.lang.block_channel.BlockChannel`
where the runtime would hold a ``SignalArray``; all of the channel's
tile-to-channel/threshold metadata resolution is then reused verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.lang.block_channel import BlockChannel
from repro.mapping.dynamic import TableTileMapping
from repro.mapping.layout import TileGrid
from repro.mapping.static import AffineTileMapping

#: lattice top for scalar abstract values
UNKNOWN = object()

#: (bank name, owning rank) — the analyzer's key for one signal array
BankKey = tuple[str, int]


class AbstractBank:
    """Stand-in for a ``SignalArray``: identity + size, no state."""

    def __init__(self, name: str, rank: int, size: int):
        self.name = name
        self.rank = rank
        self.size = size

    def __len__(self) -> int:
        return self.size

    @property
    def key(self) -> BankKey:
        return (self.name, self.rank)

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


class HostTrace:
    """Recorder for a host-side comm thread (DMA / copy-engine proc)."""

    def __init__(self, label: str, rank: int):
        self.label = label
        self.rank = rank
        self.events: list[Event] = []

    def _site(self, detail: str) -> Site:
        return Site(self.label, None, detail)

    def wait(self, bank: AbstractBank, cell: int, threshold: int) -> None:
        self.events.append(Event(
            "wait", self._site(f"rank_wait cell {cell} >= {threshold}"),
            bank=bank.key, cell=cell, threshold=threshold))

    def notify(self, bank: AbstractBank, cell: int, amount: int = 1) -> None:
        self.events.append(Event(
            "notify", self._site(f"rank_notify cell {cell} += {amount}"),
            bank=bank.key, cell=cell, amount=amount))

    def read(self, tensor: str, rank: int, rows: tuple[int, int],
             cols: tuple[int, int]) -> None:
        self.events.append(Event(
            "read", self._site(f"rank_copy_data read {tensor}@{rank}"),
            tensor=tensor, rank=rank, rows=rows, cols=cols))

    def write(self, tensor: str, rank: int, rows: tuple[int, int],
              cols: tuple[int, int]) -> None:
        self.events.append(Event(
            "write", self._site(f"rank_copy_data write {tensor}@{rank}"),
            tensor=tensor, rank=rank, rows=rows, cols=cols))


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


class PlanBuilder:
    """Builds a :class:`LaunchPlan`, mirroring ``DistContext`` channel and
    stream semantics (same-stream launches serialize; banks are shared)."""

    def __init__(self, name: str, family: str, world: int):
        self.name = name
        self.family = family
        self.world = world
        self.plan = LaunchPlan(name=name, family=family, world=world)
        self._channel_count = 0
        self._launch_count = 0
        #: (rank, stream) -> group label of the last enqueued work
        self._stream_tail: dict[tuple[int, str], str] = {}
        #: group -> transitively-closed set of predecessor groups
        self._closure: dict[str, frozenset[str]] = {}
        self._pending: list[tuple] = []   # deferred kernel launches

    # -- channels (mirrors DistContext.make_block_channels) -----------------

    def make_block_channels(
        self,
        name: str,
        mapping: AffineTileMapping | TableTileMapping | None = None,
        comm_grid: TileGrid | None = None,
        consumer_grid: TileGrid | None = None,
        peer_cells: int = 0,
        notify_target: str = "local",
        consumer_mapping: TableTileMapping | None = None,
        threshold_scale: int = 1,
        comm_blocks: int = 0,
        notify_counts: object | None = None,
    ) -> list[BlockChannel]:
        self._channel_count += 1
        uname = f"{name}.{self._channel_count}"
        n_channels = 1 if mapping is None else mapping.n_channels
        barriers = [AbstractBank(f"{uname}.bar", r, max(1, n_channels))
                    for r in range(self.world)]
        peers: list[AbstractBank] = []
        if peer_cells > 0:
            peers = [AbstractBank(f"{uname}.peer", r, peer_cells)
                     for r in range(self.world)]
        channels = []
        for rank in range(self.world):
            channels.append(BlockChannel(
                rank=rank,
                num_ranks=self.world,
                comm_blocks=comm_blocks,
                comm_grid=comm_grid,
                consumer_grid=consumer_grid,
                producer_mapping=mapping,
                barriers=barriers[rank],
                all_barriers=barriers,
                all_peer_barriers=peers,
                notify_target=notify_target,
                consumer_mapping=consumer_mapping,
                threshold_scale=threshold_scale,
                notify_counts=notify_counts,
            ))
        return channels

    # -- tensors ------------------------------------------------------------

    def tensor(self, name: str, shape: tuple[int, int]) -> str:
        self.plan.tensors[name] = shape
        return name

    def output(self, name: str) -> None:
        if name not in self.plan.tensors:
            raise KeyError(f"output {name!r} has no declared shape")
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

    def launch(self, kdef: Any, grid: int, constexprs: dict[str, Any],
               tensors: dict[str, str], channels: list[BlockChannel],
               stream: str = "default", ir: Any = None,
               label: str | None = None) -> None:
        """Record an SPMD launch (one group per rank, like launch_spmd)."""
        label = label or kdef.name
        for p in kdef.meta.get("outputs", ()):
            if p in tensors:
                self.output(tensors[p])
        self._launch_count += 1
        scope = f"{label}/{self._launch_count}"
        for rank in range(self.world):
            group = self._enqueue(rank, stream, f"{label}[r{rank}]")
            self._pending.append(
                (kdef, ir, grid, constexprs, dict(tensors),
                 channels[rank], rank, group, scope))

    def host(self, rank: int, label: str, stream: str = "comm") -> HostTrace:
        """Record a host-side comm thread; returns its event recorder."""
        trace = HostTrace(label, rank)
        group = self._enqueue(rank, stream, label)
        thread = Thread(key=f"{label}@{rank}", kernel=label, rank=rank,
                        group=group, events=trace.events,
                        after=self._closure[group], scope=group)
        self.plan.threads.append(thread)
        return trace

    # -- build ----------------------------------------------------------------

    def build(self) -> tuple[LaunchPlan, list]:
        """Abstractly interpret all pending launches; returns the finished
        plan plus any findings raised during interpretation."""
        from repro.analyze.absint import interpret_launch

        findings: list = []
        for (kdef, ir, grid, constexprs, tensors, channel, rank,
             group, scope) in self._pending:
            kir = ir if ir is not None else kdef.ir
            for bid in range(grid):
                events, fs = interpret_launch(
                    kir, constexprs, channel, tensors, self.plan.tensors,
                    rank=rank, bid=bid, grid=grid, world=self.world)
                findings.extend(fs)
                self.plan.threads.append(Thread(
                    key=f"{kdef.name}[r{rank}b{bid}]#{group}",
                    kernel=kdef.name, rank=rank, group=group,
                    events=events, after=self._closure[group],
                    scope=scope))
        self._pending = []
        # host threads recorded before later launches captured a stale
        # closure only if the host was enqueued first — recompute nothing:
        # closures were frozen at enqueue time, matching stream semantics.
        return self.plan, findings
