"""NVSHMEM-like symmetric heap across the simulated ranks.

The paper's runtime allocates tensors and barriers in NVSHMEM symmetric
memory so any rank can address a peer's buffer by (symbol, rank) — Figure 7
("NVSHMEM init / Alloc SHMEM / ... / Free SHMEM").  :class:`SymmetricHeap`
reproduces that contract: :meth:`alloc` creates one identically-shaped
tensor per rank under a shared name; remote puts/gets move tile payloads
over the interconnect and apply them at arrival time, so an unguarded read
of a peer buffer observes stale data exactly like real hardware would.
"""

from __future__ import annotations

import numpy as np

from repro.errors import RuntimeLaunchError, ShapeError
from repro.memory.signals import SignalArray
from repro.memory.tensor import SimTensor, resolve_dtype
from repro.sim.engine import Awaitable, Timeout
from repro.sim.machine import Machine

Ranges = tuple[tuple[int, int], ...]


class SymmetricHeap:
    """Per-name, per-rank tensor and signal allocations."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self._tensors: dict[str, list[SimTensor]] = {}
        self._signals: dict[str, list[SignalArray]] = {}

    # -- allocation ---------------------------------------------------------------

    def alloc(self, name: str, shape: tuple[int, ...], dtype: str | np.dtype,
              fill: float | None = 0.0) -> list[SimTensor]:
        """Allocate a symmetric tensor: one instance per rank.

        ``fill=None`` leaves numeric-mode data uninitialised garbage
        (uniform noise) to make missing-synchronization bugs observable.
        """
        if name in self._tensors:
            raise RuntimeLaunchError(f"symmetric tensor {name!r} already allocated")
        materialize = self.machine.config.execute_numerics
        tensors = []
        rng = np.random.default_rng(self.machine.config.seed ^ hash(name) & 0xFFFF) \
            if materialize and fill is None else None
        for rank in range(self.machine.world_size):
            if not materialize:
                t = SimTensor(name, shape, dtype, rank, data=None)
            elif fill is None:
                noise = rng.standard_normal(shape).astype(resolve_dtype(dtype))
                t = SimTensor(name, shape, dtype, rank, data=noise)
            else:
                data = np.full(shape, fill, dtype=resolve_dtype(dtype))
                t = SimTensor(name, shape, dtype, rank, data=data)
            tensors.append(t)
        self._tensors[name] = tensors
        return tensors

    def bind(self, name: str, per_rank_arrays: list[np.ndarray]) -> list[SimTensor]:
        """Allocate a symmetric tensor initialised from per-rank arrays."""
        if name in self._tensors:
            raise RuntimeLaunchError(f"symmetric tensor {name!r} already allocated")
        if len(per_rank_arrays) != self.machine.world_size:
            raise RuntimeLaunchError(
                f"bind({name!r}) needs {self.machine.world_size} arrays, "
                f"got {len(per_rank_arrays)}"
            )
        shape = tuple(per_rank_arrays[0].shape)
        for a in per_rank_arrays:
            if tuple(a.shape) != shape:
                raise ShapeError(f"bind({name!r}): ragged per-rank shapes")
        materialize = self.machine.config.execute_numerics
        tensors = [
            SimTensor(name, shape, per_rank_arrays[r].dtype, r,
                      data=per_rank_arrays[r].copy() if materialize else None)
            for r in range(self.machine.world_size)
        ]
        self._tensors[name] = tensors
        return tensors

    def alloc_signals(self, name: str, n: int) -> list[SignalArray]:
        """Allocate a symmetric bank of ``n`` signal cells per rank."""
        if name in self._signals:
            raise RuntimeLaunchError(f"signal bank {name!r} already allocated")
        banks = [
            SignalArray(self.machine.sim, self.machine.cost, rank, n,
                        name=f"{name}[{rank}]")
            for rank in range(self.machine.world_size)
        ]
        self._signals[name] = banks
        return banks

    def free(self, name: str) -> None:
        self._tensors.pop(name, None)
        self._signals.pop(name, None)

    # -- lookup -------------------------------------------------------------------

    def tensor(self, name: str, rank: int) -> SimTensor:
        try:
            return self._tensors[name][rank]
        except KeyError:
            raise RuntimeLaunchError(f"no symmetric tensor named {name!r}") from None

    def tensors(self, name: str) -> list[SimTensor]:
        try:
            return self._tensors[name]
        except KeyError:
            raise RuntimeLaunchError(f"no symmetric tensor named {name!r}") from None

    def signals(self, name: str, rank: int) -> SignalArray:
        try:
            return self._signals[name][rank]
        except KeyError:
            raise RuntimeLaunchError(f"no signal bank named {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._tensors)

    # -- remote data movement -------------------------------------------------------

    def put_tile(self, name: str, src_rank: int, dst_rank: int,
                 src_ranges: Ranges, dst_ranges: Ranges,
                 protocol: str = "p2p",
                 src_name: str | None = None) -> Awaitable:
        """Push a tile from ``src_rank``'s buffer into ``dst_rank``'s buffer.

        Returns an awaitable that completes at data-arrival time; the numpy
        effect is applied *at arrival*, not at issue, so unsynchronized
        remote reads see stale data (this is what the memory-consistency
        tests rely on).
        """
        src = self.tensor(src_name or name, src_rank)
        dst = self.tensor(name, dst_rank)
        nbytes = src.tile_bytes(src_ranges)
        payload = src.read_tile(src_ranges)
        _start, arrival = self.machine.interconnect.reserve(
            src_rank, dst_rank, nbytes, protocol)
        delay = max(0.0, arrival - self.machine.sim.now)

        if payload is not None or not self.machine.config.execute_numerics:
            def apply() -> None:
                dst.write_tile(dst_ranges, payload)
            self.machine.sim.call_later(delay, apply)
        if self.machine.config.trace:
            self.machine.record(src_rank, "comm", f"put:{name}",
                                self.machine.sim.now, arrival)
        return Timeout(delay)

    def get_tile(self, name: str, src_rank: int, dst_rank: int,
                 src_ranges: Ranges, dst_ranges: Ranges,
                 protocol: str = "p2p",
                 dst_name: str | None = None) -> Awaitable:
        """Pull a tile from a peer into the local buffer (pull mode).

        The payload is snapshotted at *issue* time on the source — a pull
        that races an unsynchronized producer reads whatever was there.
        """
        src = self.tensor(name, src_rank)
        dst = self.tensor(dst_name or name, dst_rank)
        nbytes = src.tile_bytes(src_ranges)
        payload = src.read_tile(src_ranges)
        _start, arrival = self.machine.interconnect.reserve(
            src_rank, dst_rank, nbytes, protocol)
        delay = max(0.0, arrival - self.machine.sim.now)

        if payload is not None or not self.machine.config.execute_numerics:
            def apply() -> None:
                dst.write_tile(dst_ranges, payload)
            self.machine.sim.call_later(delay, apply)
        if self.machine.config.trace:
            self.machine.record(dst_rank, "comm", f"get:{name}",
                                self.machine.sim.now, arrival)
        return Timeout(delay)
