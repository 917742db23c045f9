"""Backend interpreter: executes a CompiledProgram block on the simulator.

One invocation of :func:`run_block` is one block (CTA) of the launch grid:
a simulation process that walks the annotated IR, advancing simulated time
per tile operation (cost model), applying numpy effects in numeric mode,
and interacting with signal banks / the interconnect for TileLink
primitives.

Scheduling semantics implemented here (see compiler/passes.py for how the
annotations are produced):

* **aggregable loops** are priced analytically: the first iteration is
  cost-probed, then one timed event covers all iterations (pipelined loops
  price ``max(load, compute)`` per iteration, otherwise the sum).  In
  numeric mode every iteration's numpy effect still runs.
* **pipelined non-aggregable loops** prefetch their ``prefetchable`` loads
  at iteration start — address computation replayed from the body's scalar
  statements, value snapshotted *before* any wait primitive runs.  Loads
  pinned by the consistency pass execute in place, after their guards.
* **signal primitives** lower to release-semantics posts (fire and forget)
  and acquire-semantics waits on :class:`repro.memory.signals.SignalArray`.
* **data primitives and remote loads** reserve interconnect pipes; payloads
  land at arrival time, so unguarded remote reads observe stale data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import LoweringError, RuntimeLaunchError, ShapeError, SimulationError
from repro.lang.block_channel import BlockChannel
from repro.lang.ir import (
    AssignScalar,
    BinOp,
    ChannelField,
    Const,
    Expr,
    For,
    If,
    Name,
    Primitive,
    Return,
    Stmt,
    TensorRef,
    TileOp,
    UnaryOp,
)
from repro.compiler.program import CompiledProgram
from repro.compiler.values import (
    ELEMENTWISE_FLOPS,
    TileVal,
    apply_binary,
    apply_unary,
    padded_to,
)
from repro.memory.tensor import SimTensor, resolve_dtype
from repro.sim.engine import Timeout
from repro.sim.machine import Machine


class _ReturnSignal(Exception):
    """Internal: a Return statement unwound the block."""


@dataclass
class CostRec:
    """Per-op cost: SM compute time, SM load time, HBM bytes to charge."""

    compute: float = 0.0
    load: float = 0.0
    hbm_bytes: float = 0.0

    def add(self, other: "CostRec") -> None:
        self.compute += other.compute
        self.load += other.load
        self.hbm_bytes += other.hbm_bytes


class BlockInterp:
    """Interpreter state for one block of one rank's launch."""

    #: fraction of aggregable-loop load bytes that miss L2 and hit HBM
    AGG_DRAM_DISCOUNT = 0.22

    def __init__(self, program: CompiledProgram, machine: Machine, rank: int,
                 block_id: int, n_blocks: int, bindings: dict[str, Any],
                 label: str = ""):
        self.program = program
        self.machine = machine
        self.rank = rank
        self.device = machine.device(rank)
        self.cost = machine.cost
        self.bindings = bindings
        self.execute = machine.config.execute_numerics
        self.label = label or program.name
        self.channel: BlockChannel | None = None
        if program.ir.channel_param is not None:
            ch = bindings.get(program.ir.channel_param)
            if not isinstance(ch, BlockChannel):
                raise RuntimeLaunchError(
                    f"kernel {program.name!r} expects a BlockChannel for "
                    f"parameter {program.ir.channel_param!r}")
            self.channel = ch
        self.scalars: dict[str, Any] = {"$bid": block_id, "$nblocks": n_blocks}
        self.scalars.update(program.constexprs)
        for p in program.tensor_params:
            if p not in bindings:
                raise RuntimeLaunchError(
                    f"kernel {program.name!r} missing argument {p!r}")
            v = bindings[p]
            if isinstance(v, (int, float)):
                self.scalars[p] = v
        self.tiles: dict[str, TileVal] = {}

    # ------------------------------------------------------------------ utils

    def _trace(self, category: str, start: float, end: float) -> None:
        if self.machine.config.trace and end > start:
            self.machine.record(self.rank, category, self.label, start, end)

    def _charge(self, rec: CostRec, category: str = "compute"):
        """Generator: advance simulated time for a cost record."""
        t0 = self.machine.now
        arrival = t0
        if rec.hbm_bytes > 0:
            arrival = self.device.reserve_hbm(rec.hbm_bytes)
        dur = max(rec.compute + rec.load, arrival - t0)
        if dur > 0:
            yield Timeout(dur)
        self._trace(category, t0, self.machine.now)

    def require_channel(self) -> BlockChannel:
        if self.channel is None:
            raise LoweringError(
                f"kernel {self.program.name!r} uses primitives but has no "
                "BlockChannel parameter")
        return self.channel

    # -------------------------------------------------------------- expressions

    def eval(self, e: Expr, env: dict[str, Any] | None = None) -> Any:
        scope = env if env is not None else self.scalars
        if isinstance(e, Const):
            return e.value
        if isinstance(e, Name):
            if e.id in scope:
                return scope[e.id]
            if e.id in self.scalars:
                return self.scalars[e.id]
            raise LoweringError(
                f"{self.program.name}: undefined scalar {e.id!r}")
        if isinstance(e, ChannelField):
            return self.require_channel().scalar_field(e.field_name)
        if isinstance(e, UnaryOp):
            v = self.eval(e.operand, env)
            return -v if e.op == "-" else (not v)
        if isinstance(e, BinOp):
            op = e.op
            if op == "and":
                return self.eval(e.left, env) and self.eval(e.right, env)
            if op == "or":
                return self.eval(e.left, env) or self.eval(e.right, env)
            a = self.eval(e.left, env)
            b = self.eval(e.right, env)
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            if op == "//":
                return a // b
            if op == "/":
                return a / b
            if op == "%":
                return a % b
            if op == "**":
                return a ** b
            if op == "cdiv":
                return -(-a // b)
            if op == "min":
                return min(a, b)
            if op == "max":
                return max(a, b)
            if op == "<":
                return a < b
            if op == "<=":
                return a <= b
            if op == ">":
                return a > b
            if op == ">=":
                return a >= b
            if op == "==":
                return a == b
            if op == "!=":
                return a != b
            raise LoweringError(f"unknown scalar op {op!r}")
        raise LoweringError(f"cannot evaluate expression {e!r}")

    def _range_pair(self, arg: Any, env: dict[str, Any] | None) -> tuple[int, int]:
        if not (isinstance(arg, tuple) and len(arg) == 2):
            raise LoweringError(f"expected (lo, hi) range, got {arg!r}")
        return int(self.eval(arg[0], env)), int(self.eval(arg[1], env))

    def _operand(self, arg: Any, env: dict[str, Any] | None) -> Any:
        """A TileOp operand: tile name -> TileVal, Expr -> scalar."""
        if isinstance(arg, str):
            if arg in self.tiles:
                return self.tiles[arg]
            raise LoweringError(f"undefined tile {arg!r}")
        if isinstance(arg, Expr):
            return self.eval(arg, env)
        raise LoweringError(f"bad tile operand {arg!r}")

    def resolve_tensor(self, ref: TensorRef,
                       env: dict[str, Any] | None) -> tuple[SimTensor, int]:
        """Bind a TensorRef to a concrete instance; returns (tensor, rank)."""
        bound = self.bindings.get(ref.name)
        if bound is None:
            raise RuntimeLaunchError(
                f"kernel {self.program.name!r}: no binding for tensor "
                f"{ref.name!r}")
        if isinstance(bound, list):
            rank = self.rank if ref.rank is None else int(self.eval(ref.rank, env))
            if not 0 <= rank < len(bound):
                raise RuntimeLaunchError(
                    f"tensor {ref.name!r} indexed with rank {rank} out of "
                    f"range [0, {len(bound)})")
            return bound[rank], rank
        if isinstance(bound, SimTensor):
            if ref.rank is not None:
                rank = int(self.eval(ref.rank, env))
                if rank != bound.rank:
                    raise RuntimeLaunchError(
                        f"tensor {ref.name!r} is not symmetric; cannot index "
                        f"rank {rank}")
            return bound, bound.rank
        raise RuntimeLaunchError(
            f"binding for {ref.name!r} must be SimTensor or list, got "
            f"{type(bound).__name__}")

    # ------------------------------------------------------------- tile ops

    def eval_tile_op(self, s: TileOp, env: dict[str, Any] | None,
                     snapshot: bool = True
                     ) -> tuple[TileVal | None, CostRec, Any]:
        """Evaluate one tile op: (value, cost, deferred_effect).

        ``deferred_effect`` is a zero-arg callable applying the numpy write
        (store/atomic ops), or None.  ``snapshot=False`` skips numeric data
        (pure cost probe).
        """
        op = s.op
        numeric = self.execute and snapshot
        spec = self.cost.spec
        feed = spec.smem_bandwidth_per_sm

        if op in ("zeros", "full"):
            shape = tuple(int(self.eval(x, env)) for x in s.args[0]) \
                if isinstance(s.args[0], tuple) else (int(self.eval(s.args[0], env)),)
            if op == "zeros":
                dtype = resolve_dtype(s.args[1] if len(s.args) > 1 else "float32")
                data = np.zeros(shape, dtype) if numeric else None
            else:
                value = self.eval(s.args[1], env)
                dtype = resolve_dtype(s.args[2] if len(s.args) > 2 else "float32")
                data = np.full(shape, value, dtype) if numeric else None
            return TileVal(shape, dtype, data), CostRec(), None

        if op == "copy":
            src = self._operand(s.args[0], env)
            data = None
            if numeric and src.data is not None:
                data = src.data.copy()
            return TileVal(src.shape, src.dtype, data), CostRec(), None

        if op in ("load", "load_vec"):
            ref = s.args[0]
            tensor, owner = self.resolve_tensor(ref, env)
            if op == "load":
                rows = self._range_pair(s.args[1], env)
                cols = self._range_pair(s.args[2], env)
                shape = (rows[1] - rows[0], cols[1] - cols[0])
                ranges = (rows, cols)
            else:
                span = self._range_pair(s.args[1], env)
                shape = (span[1] - span[0],)
                ranges = (span,)
            if any(d < 0 for d in shape):
                raise ShapeError(f"negative load extent {shape}")
            nbytes = int(np.prod(shape)) * tensor.itemsize
            data = None
            if numeric:
                data = padded_to(tensor.read_tile(ranges), shape, tensor.dtype)
            if owner != self.rank:
                # remote read over the interconnect (pull)
                _st, arrival = self.machine.interconnect.reserve(
                    owner, self.rank, nbytes, "p2p")
                rec = CostRec(load=max(0.0, arrival - self.machine.now))
                return TileVal(shape, tensor.dtype, data), rec, None
            rec = CostRec(load=nbytes / feed, hbm_bytes=nbytes)
            return TileVal(shape, tensor.dtype, data), rec, None

        if op == "gather_rows":
            ref = s.args[0]
            tensor, owner = self.resolve_tensor(ref, env)
            if owner != self.rank:
                raise LoweringError("gather_rows requires a local tensor")
            idx = self._operand(s.args[1], env)
            cols = self._range_pair(s.args[2], env)
            n_rows = idx.shape[0]
            shape = (n_rows, cols[1] - cols[0])
            nbytes = int(np.prod(shape)) * tensor.itemsize
            data = None
            if numeric:
                if idx.data is None:
                    raise ShapeError("gather_rows index tile has no data")
                ids = np.clip(idx.data.astype(np.int64), 0, tensor.shape[0] - 1)
                data = tensor.data[ids, cols[0]:cols[1]].astype(tensor.dtype)
                data = padded_to(data, shape, tensor.dtype)
            # random-access gather: 1.5x streaming cost
            rec = CostRec(load=1.5 * nbytes / feed, hbm_bytes=1.5 * nbytes)
            return TileVal(shape, tensor.dtype, data), rec, None

        if op in ("store", "store_vec", "atomic_add"):
            ref = s.args[0]
            tensor, owner = self.resolve_tensor(ref, env)
            if owner != self.rank:
                raise LoweringError(
                    f"{op} targets a remote tensor; use tl.tile_push_data")
            if op == "store_vec":
                ranges = (self._range_pair(s.args[1], env),)
                val = self._operand(s.args[2], env)
            else:
                ranges = (self._range_pair(s.args[1], env),
                          self._range_pair(s.args[2], env))
                val = self._operand(s.args[3], env)
            if not isinstance(val, TileVal):
                raise LoweringError(f"{op} value must be a tile")
            nbytes = val.nbytes
            factor = 2.0 if op == "atomic_add" else 1.0
            rec = CostRec(load=factor * nbytes / feed,
                          hbm_bytes=factor * nbytes)
            effect = None
            if numeric:
                data = val.data

                def effect(t=tensor, r=ranges, d=data, acc=(op == "atomic_add")):
                    if acc:
                        t.accumulate_tile(r, d)
                    else:
                        t.write_tile(r, d)
            return None, rec, effect

        if op == "load_scalar":
            ref = s.args[0]
            tensor, owner = self.resolve_tensor(ref, env)
            if owner != self.rank:
                raise LoweringError("load_scalar requires a local tensor")
            idx = int(self.eval(s.args[1], env))
            value = 0
            if numeric and tensor.data is not None:
                flat = tensor.data.reshape(-1)
                if not 0 <= idx < flat.shape[0]:
                    raise ShapeError(
                        f"load_scalar index {idx} out of range "
                        f"({tensor.name}, {tensor.size} elements)")
                value = int(flat[idx])
            return value, CostRec(load=tensor.itemsize / feed,
                                  hbm_bytes=tensor.itemsize), None

        if op == "scatter_add_rows":
            ref = s.args[0]
            tensor, owner = self.resolve_tensor(ref, env)
            if owner != self.rank:
                raise LoweringError("scatter_add_rows requires a local tensor")
            idx = self._operand(s.args[1], env)
            cols = self._range_pair(s.args[2], env)
            val = self._operand(s.args[3], env)
            if not isinstance(val, TileVal):
                raise LoweringError("scatter_add_rows value must be a tile")
            nbytes = val.nbytes
            rec = CostRec(load=2.5 * nbytes / feed, hbm_bytes=2.5 * nbytes)
            effect = None
            if numeric:
                if idx.data is None or val.data is None:
                    raise ShapeError("scatter_add_rows needs numeric operands")
                ids = idx.data.astype(np.int64)
                data = val.data

                def effect(t=tensor, i=ids, c=cols, d=data):
                    if i.max(initial=-1) >= t.shape[0] or i.min(initial=0) < 0:
                        raise ShapeError(
                            f"scatter_add_rows index out of range on {t.name}")
                    region = t.data[:, c[0]:c[1]]
                    np.add.at(region, i[:d.shape[0]],
                              d[:len(i)].astype(t.dtype))
            return None, rec, effect

        if op == "dot":
            a = self._operand(s.args[0], env)
            b = self._operand(s.args[1], env)
            acc = s.kwargs.get("acc")
            acc_val = self._operand(acc, env) if acc is not None else None
            if len(a.shape) != 2 or len(b.shape) != 2 or a.shape[1] != b.shape[0]:
                raise ShapeError(f"dot shape mismatch {a.shape} x {b.shape}")
            m, k = a.shape
            n = b.shape[1]
            eff = self.cost.tile_efficiency(m, n, k)
            compute = 2.0 * m * n * k / (self.cost.per_sm_tensor_flops * eff)
            data = None
            if numeric:
                lhs = a.data.astype(np.float32)
                rhs = b.data.astype(np.float32)
                data = lhs @ rhs
                if acc_val is not None and acc_val.data is not None:
                    data = data + acc_val.data.astype(np.float32)
            return TileVal((m, n), np.dtype(np.float32), data), \
                CostRec(compute=compute), None

        if op in ("exp", "log", "relu", "neg", "silu", "gelu"):
            x = self._operand(s.args[0], env)
            out = apply_unary(op, x) if numeric else \
                TileVal.stub(x.shape, np.float32 if op in
                             ("exp", "log", "silu", "gelu") else x.dtype)
            compute = self.cost.vector_tile_time(
                x.size, ELEMENTWISE_FLOPS[op], 0.0)
            return out, CostRec(compute=compute), None

        if op in ("add", "sub", "mul", "div", "maximum_tile", "minimum_tile"):
            a = self._operand(s.args[0], env)
            b = self._operand(s.args[1], env)
            if numeric:
                out = apply_binary(op, a, b)
            else:
                sa = a.shape if isinstance(a, TileVal) else ()
                sb = b.shape if isinstance(b, TileVal) else ()
                da = a.dtype if isinstance(a, TileVal) else np.dtype(np.float32)
                db = b.dtype if isinstance(b, TileVal) else np.dtype(np.float32)
                out = TileVal.stub(tuple(np.broadcast_shapes(sa, sb)),
                                   np.result_type(da, db))
            compute = self.cost.vector_tile_time(
                out.size, ELEMENTWISE_FLOPS[op], 0.0)
            return out, CostRec(compute=compute), None

        if op == "cast":
            x = self._operand(s.args[0], env)
            dtype = resolve_dtype(s.args[1])
            data = x.data.astype(dtype) if (numeric and x.data is not None) else None
            return TileVal(x.shape, dtype, data), \
                CostRec(compute=self.cost.vector_tile_time(x.size, 1.0, 0.0)), None

        if op == "expand_dims":
            x = self._operand(s.args[0], env)
            shape = (*x.shape, 1)
            data = x.data.reshape(shape) if (numeric and x.data is not None) else None
            return TileVal(shape, x.dtype, data), CostRec(), None

        if op in ("row_max", "row_sum"):
            x = self._operand(s.args[0], env)
            if len(x.shape) != 2:
                raise ShapeError(f"{op} expects a 2-d tile, got {x.shape}")
            shape = (x.shape[0],)
            data = None
            if numeric and x.data is not None:
                fn = np.max if op == "row_max" else np.sum
                data = fn(x.data.astype(np.float32), axis=1)
            compute = self.cost.vector_tile_time(x.size,
                                                 ELEMENTWISE_FLOPS[op], 0.0)
            return TileVal(shape, np.dtype(np.float32), data), \
                CostRec(compute=compute), None

        raise LoweringError(f"unknown tile op {op!r}")

    # ------------------------------------------------------------ primitives

    def exec_primitive(self, s: Primitive, env: dict[str, Any] | None):
        """Generator executing one TileLink primitive."""
        ch = self.require_channel()
        name = s.name

        if name == "producer_tile_notify":
            tid = int(self.eval(s.args[0], env))
            mode = s.args[1] if len(s.args) > 1 else s.kwargs.get("mode", "p2p")
            if ch.notify_counts is not None and mode == "broadcast":
                # dynamic fan-out: one tile feeds several local channels
                for channel_idx, amount in enumerate(ch.notify_counts[tid]):
                    if amount > 0:
                        ch.barriers.post_add(int(channel_idx), int(amount),
                                             from_rank=self.rank)
                return
            channel_idx = ch.producer_channel(tid)
            if mode == "p2p":
                target = s.kwargs.get("to")
                if target is not None:
                    dst = int(self.eval(target, env))
                elif getattr(ch, "notify_target", "local") == "mapped":
                    dst = ch.producer_rank(tid)
                else:
                    dst = self.rank
                ch.all_barriers[dst].post_add(channel_idx, 1, from_rank=self.rank)
            elif mode == "broadcast":
                for dst in range(ch.num_ranks):
                    ch.all_barriers[dst].post_add(channel_idx, 1,
                                                  from_rank=self.rank)
            else:
                raise LoweringError(f"unknown notify mode {mode!r}")
            return

        if name == "consumer_tile_wait":
            tid = int(self.eval(s.args[0], env))
            t0 = self.machine.now
            for channel_idx, threshold in ch.consumer_wait_list(tid):
                yield ch.barriers.wait_geq(channel_idx, threshold)
            self._trace("sync", t0, self.machine.now)
            return

        if name == "peer_tile_notify":
            cell = int(self.eval(s.args[0], env))
            dst = int(self.eval(s.args[1], env))
            if not ch.all_peer_barriers:
                raise LoweringError("BlockChannel has no peer barriers")
            ch.all_peer_barriers[dst].post_add(cell, 1, from_rank=self.rank)
            return

        if name == "peer_tile_wait":
            cell = int(self.eval(s.args[0], env))
            rank = int(self.eval(s.args[1], env))
            count = int(self.eval(s.kwargs["count"], env)) \
                if "count" in s.kwargs else 1
            if not ch.all_peer_barriers:
                raise LoweringError("BlockChannel has no peer barriers")
            t0 = self.machine.now
            yield ch.all_peer_barriers[rank].wait_geq(cell, count)
            self._trace("sync", t0, self.machine.now)
            return

        if name == "tile_push_data":
            ref = s.args[0]
            if not isinstance(ref, TensorRef):
                raise LoweringError("tile_push_data needs a tensor argument")
            tid_m = int(self.eval(s.args[1], env))
            tid_n = int(self.eval(s.args[2], env))
            val = self._operand(s.args[3], env)
            if ch.comm_grid is None:
                raise LoweringError("tile_push_data needs a comm grid")
            dst_tensor, dst_rank = self.resolve_tensor(ref, env)
            ranges = ch.comm_grid.ranges(ch.comm_grid.tile_id(tid_m, tid_n))
            t0 = self.machine.now
            if dst_rank == self.rank:
                rec = CostRec(load=val.nbytes / self.cost.spec.smem_bandwidth_per_sm,
                              hbm_bytes=val.nbytes)
                yield from self._charge(rec, category="comm")
                if self.execute:
                    dst_tensor.write_tile(ranges, val.data)
            else:
                _st, arrival = self.machine.interconnect.reserve(
                    self.rank, dst_rank, val.nbytes, "p2p")
                delay = max(0.0, arrival - self.machine.now)
                if self.execute:
                    data = val.data

                    def apply(t=dst_tensor, r=ranges, d=data):
                        t.write_tile(r, d)
                    self.machine.sim.call_later(delay, apply)
                if delay > 0:
                    yield Timeout(delay)
                self._trace("comm", t0, self.machine.now)
            return

        raise LoweringError(f"unsupported primitive {name!r}")

    def eval_pull(self, s: Primitive, env: dict[str, Any] | None
                  ) -> tuple[TileVal, float]:
        """tile_pull_data: returns (value, arrival_delay).

        The payload is snapshotted at issue time on the source rank —
        matching NVSHMEM get semantics.
        """
        ch = self.require_channel()
        ref = s.args[0]
        if not isinstance(ref, TensorRef):
            raise LoweringError("tile_pull_data needs a tensor argument")
        tid_m = int(self.eval(s.args[1], env))
        tid_n = int(self.eval(s.args[2], env)) if len(s.args) > 2 else 0
        if ch.comm_grid is None:
            raise LoweringError("tile_pull_data needs a comm grid")
        mapping = ch.require_mapping()
        src_rank = mapping.rank_of(tid_m)
        (r0, r1), (c0, c1) = ch.comm_grid.ranges(
            ch.comm_grid.tile_id(tid_m, tid_n))
        bound = self.bindings.get(ref.name)
        if not isinstance(bound, list):
            raise LoweringError("tile_pull_data source must be symmetric")
        src = bound[src_rank]
        per_rank = mapping.per_rank if hasattr(mapping, "per_rank") else \
            src.shape[0]
        lo_local = r0 - src_rank * per_rank
        hi_local = r1 - src_rank * per_rank
        if lo_local < 0 or hi_local > src.shape[0]:
            raise LoweringError(
                f"tile_pull_data tile {tid_m} rows [{r0},{r1}) fall outside "
                f"rank {src_rank}'s shard")
        shape = (r1 - r0, c1 - c0)
        nbytes = int(np.prod(shape)) * src.itemsize
        data = None
        if self.execute:
            data = padded_to(src.read_tile(((lo_local, hi_local), (c0, c1))),
                             shape, src.dtype)
        if src_rank == self.rank:
            delay = nbytes / self.cost.spec.smem_bandwidth_per_sm
        else:
            _st, arrival = self.machine.interconnect.reserve(
                src_rank, self.rank, nbytes, "p2p")
            delay = max(0.0, arrival - self.machine.now)
        return TileVal(shape, src.dtype, data), delay

    # -------------------------------------------------------------- statements

    def exec_body(self, body: list[Stmt], env: dict[str, Any] | None = None):
        for s in body:
            yield from self.exec_stmt(s, env)

    def exec_stmt(self, s: Stmt, env: dict[str, Any] | None = None):
        if isinstance(s, AssignScalar):
            self.scalars[s.target] = self.eval(s.value, env)
            return
        if isinstance(s, TileOp):
            # prefetched value available? (pipelined loop hoisting)
            cached = self.tiles.pop(f"$prefetch:{id(s)}", None)
            if cached is not None:
                if s.target is not None:
                    self.tiles[s.target] = cached
                return
            val, rec, effect = self.eval_tile_op(s, env)
            category = "compute"
            yield from self._charge(rec, category=category)
            if effect is not None:
                effect()
            if s.target is not None:
                if s.op == "load_scalar":
                    self.scalars[s.target] = val
                else:
                    assert val is not None
                    self.tiles[s.target] = val
            return
        if isinstance(s, Primitive):
            if s.name == "tile_pull_data":
                t0 = self.machine.now
                val, delay = self.eval_pull(s, env)
                if delay > 0:
                    yield Timeout(delay)
                self._trace("comm", t0, self.machine.now)
                if s.target is not None:
                    self.tiles[s.target] = val
                return
            yield from self.exec_primitive(s, env)
            return
        if isinstance(s, If):
            branch = s.then if self.eval(s.cond, env) else s.orelse
            yield from self.exec_body(branch, env)
            return
        if isinstance(s, For):
            yield from self.exec_for(s, env)
            return
        if isinstance(s, Return):
            raise _ReturnSignal()
        raise LoweringError(f"unknown statement {type(s).__name__}")

    # ------------------------------------------------------------------- loops

    def _loop_range(self, s: For, env: dict[str, Any] | None) -> range:
        """The loop variable's values, with Python ``range`` semantics for
        either step sign; ``len()`` of the result is the trip count every
        walker (timed, cost probe, numeric replay) agrees on."""
        start = int(self.eval(s.start, env))
        stop = int(self.eval(s.stop, env))
        step = int(self.eval(s.step, env))
        if step == 0:
            raise SimulationError("loop step of 0")
        return range(start, stop, step)

    def exec_for(self, s: For, env: dict[str, Any] | None):
        iters = self._loop_range(s, env)
        if not iters:
            return
        if s.aggregable and len(iters) > 1:
            yield from self._exec_aggregable(s, iters, env)
            return
        # ordinary (or single-trip) loop: step iterations
        for value in iters:
            self.scalars[s.var] = value
            if s.pipelined:
                self._prefetch(s, env)
            yield from self.exec_body(s.body, env)

    def _exec_aggregable(self, s: For, iters: range,
                         env: dict[str, Any] | None):
        """Analytic pricing of a primitive-free loop (+ full numeric effects)."""
        # cost probe on the first iteration
        trips = len(iters)
        self.scalars[s.var] = iters[0]
        probe = CostRec()
        self._probe_body(s.body, env, probe)
        if s.pipelined:
            per_iter = max(probe.load, probe.compute)
        else:
            per_iter = probe.load + probe.compute
        total = self.cost.MMA_PROLOGUE + trips * per_iter
        hbm = trips * probe.hbm_bytes * self.AGG_DRAM_DISCOUNT
        t0 = self.machine.now
        arrival = self.device.reserve_hbm(hbm) if hbm > 0 else t0
        dur = max(total, arrival - t0)
        yield Timeout(dur)
        self._trace("compute", t0, self.machine.now)
        if self.execute:
            for value in iters:
                self.scalars[s.var] = value
                self._exec_numeric_body(s.body, env)

    def _probe_body(self, body: list[Stmt], env: dict[str, Any] | None,
                    acc: CostRec) -> None:
        """Accumulate one iteration's cost without effects or yields."""
        for s in body:
            if isinstance(s, AssignScalar):
                self.scalars[s.target] = self.eval(s.value, env)
            elif isinstance(s, TileOp):
                val, rec, _ = self.eval_tile_op(s, env, snapshot=False)
                acc.add(rec)
                if s.target is not None:
                    if s.op == "load_scalar":
                        self.scalars[s.target] = val
                    elif val is not None:
                        self.tiles[s.target] = val
            elif isinstance(s, If):
                branch = s.then if self.eval(s.cond, env) else s.orelse
                self._probe_body(branch, env, acc)
            elif isinstance(s, For):
                iters = self._loop_range(s, env)
                if not iters:
                    continue
                self.scalars[s.var] = iters[0]
                inner = CostRec()
                self._probe_body(s.body, env, inner)
                factor = len(iters)
                if s.pipelined:
                    acc.compute += factor * max(inner.load, inner.compute)
                else:
                    acc.compute += factor * (inner.load + inner.compute)
                acc.hbm_bytes += factor * inner.hbm_bytes
            elif isinstance(s, Return):
                raise _ReturnSignal()
            elif isinstance(s, Primitive):
                raise LoweringError("primitive inside aggregable loop")

    def _exec_numeric_body(self, body: list[Stmt],
                           env: dict[str, Any] | None) -> None:
        """Apply one iteration's numpy effects (no time advanced)."""
        for s in body:
            if isinstance(s, AssignScalar):
                self.scalars[s.target] = self.eval(s.value, env)
            elif isinstance(s, TileOp):
                val, _rec, effect = self.eval_tile_op(s, env)
                if effect is not None:
                    effect()
                if s.target is not None:
                    if s.op == "load_scalar":
                        self.scalars[s.target] = val
                    elif val is not None:
                        self.tiles[s.target] = val
            elif isinstance(s, If):
                branch = s.then if self.eval(s.cond, env) else s.orelse
                self._exec_numeric_body(branch, env)
            elif isinstance(s, For):
                for value in self._loop_range(s, env):
                    self.scalars[s.var] = value
                    self._exec_numeric_body(s.body, env)
            elif isinstance(s, Return):
                raise _ReturnSignal()
            else:
                raise LoweringError("primitive inside aggregable loop")

    def _prefetch(self, s: For, env: dict[str, Any] | None) -> None:
        """Hoist prefetchable loads to iteration start (pipeliner model).

        Scalar statements are replayed to materialize addresses; values are
        snapshotted *now*, i.e. potentially before the body's waits run —
        which is safe only for loads the consistency pass left unpinned.
        The prefetched value costs nothing at its use point (it overlapped
        with the previous iteration).
        """
        saved: dict[str, Any] = {}
        replayed: list[str] = []
        for t in s.body:
            if isinstance(t, AssignScalar):
                if t.target in self.scalars and t.target not in saved:
                    saved[t.target] = self.scalars[t.target]
                replayed.append(t.target)
                try:
                    self.scalars[t.target] = self.eval(t.value, env)
                except LoweringError:
                    break  # address depends on a tile/wait result; stop
            elif isinstance(t, TileOp) and t.prefetchable and t.op in (
                    "load", "load_vec"):
                try:
                    val, _rec, _eff = self.eval_tile_op(t, env)
                except (LoweringError, ShapeError):
                    continue
                self.tiles[f"$prefetch:{id(t)}"] = val
        for name in replayed:
            if name in saved:
                self.scalars[name] = saved[name]
            else:
                self.scalars.pop(name, None)

    # --------------------------------------------------------------------- top

    def run(self):
        """The block's simulation process."""
        try:
            yield from self.exec_body(self.program.ir.body)
        except _ReturnSignal:
            pass
        return None


def run_block(program: CompiledProgram, machine: Machine, rank: int,
              block_id: int, n_blocks: int, bindings: dict[str, Any],
              label: str = ""):
    """Build the simulation-process generator for one block."""
    interp = BlockInterp(program, machine, rank, block_id, n_blocks,
                         bindings, label=label)
    return interp.run()
