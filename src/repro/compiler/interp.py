"""Backend: lowers a CompiledProgram to generated Python, once per program.

:func:`lower` translates the annotated tile IR of one
:class:`~repro.compiler.program.CompiledProgram` into the source of one
generator function, passes it through :func:`compile` + ``exec`` and
caches the result on the program (which ``compile_kernel`` already
memoises per specialization).  Timing mode and numeric mode get separate
functions: timing-mode code never touches numpy data.  One call of the
function is one block (CTA) of the launch grid, a simulation process that
advances simulated time per tile operation (cost model), applies numpy
effects in numeric mode and interacts with signal banks and the
interconnect for TileLink primitives.

The lowering turns scalar ``Expr`` trees into native Python expressions
(constexprs are inlined and constant-folded), ``For`` into ``range``
loops, ``If`` into ``if`` and ``Return`` into a plain ``return``; tile ops
compute their cost inline, in the same float operation order as the
reference walker in ``tests/interp_reference.py``, which the golden suite
``tests/test_lowering.py`` pins bit-identical.  Kernel scalars and tiles
become Python locals; a name that may be read before it is assigned is
checked at the read and raises :class:`~repro.errors.LoweringError`, like
an unbound name in the walker.

**Static tile shapes.**  Tile shapes are compile-time constants in
TileLink, so the lowering infers them before it emits code
(:meth:`_Lowering.flow`, a fixpoint over loops): a load's extent is static
when both bounds are literal or the range is ``(e, e + c)`` for an
int-valued ``e`` (``tid * B, tid * B + B``); ``zeros``/``full`` shapes
follow from non-negative literal dims and ``dot``, ``cast``, the unary, binary and row
ops from their operands.  Dtypes are tokens: a constant, the dtype of the
block's local instance of a tensor parameter, or the promotion of two
tokens.  Everything an op computes from static shapes alone moves into a
**per-block prologue** that runs once before the block's first tile: byte
counts, load and store costs, the dot's cost (one
``CostModel.tile_efficiency`` call), vector-op durations and their
``Timeout`` (immutable, so re-yielded per tile), the shared timing-mode
result ``TileVal`` stubs, ``channel.<field>`` reads, the channel's
barrier banks and its notify target.  An aggregable loop whose whole body
is static and whose trip count is constant gets its probe totals in the
prologue too, and its per-tile code shrinks to the scalar statements, the
tile assignments and one ``reserve_hbm`` plus one yield; a flag computed
in the prologue sends the loop to the ordinary probe when some tensor has
no local instance.

What stays per tile: every check that can raise (unbound names, range
bounds that are not plain int arithmetic, bindings, remote stores), each
at its op with the walker's exception and message; remote and ``rank=``
loads, whose interconnect reservation happens at the op's own time;
``reserve_hbm``; all of numeric mode's data reads and writes (numeric
mode only takes the hoisted dot and vector costs).  Hoisted expressions
keep the walker's float operation order, so every simulated number is
bit-identical, and the prologue itself never raises: it reads machine
rates that ``HardwareSpec`` keeps positive, and tensor bindings only
behind a None test.

Scheduling semantics (see compiler/passes.py for how the annotations are
produced):

* **aggregable loops** with more than one trip are priced analytically:
  the first iteration is cost-probed (its scalar and tile assignments
  stay visible afterwards), then one timed event covers all iterations
  (pipelined loops price ``max(load, compute)`` per iteration, otherwise
  the sum).  In numeric mode a replay loop then applies every
  iteration's numpy effects.
* **pipelined loops** stepped one iteration at a time prefetch their
  ``prefetchable`` ``load``/``load_vec`` ops at iteration start: address
  scalars are recomputed into temporaries from the body's top-level
  scalar statements, and the value is snapshotted *before* any wait
  primitive of the body runs.  Loads pinned by the consistency pass
  execute in place, after their guards.
* **signal primitives** lower to release-semantics posts (fire and forget)
  and acquire-semantics waits on :class:`repro.memory.signals.SignalArray`.
* **data primitives and remote loads** reserve interconnect pipes; payloads
  land at arrival time, so unguarded remote reads observe stale data.

Generated code is compiled under a virtual file name inside this package
(``<lowered kernel-name timing|numeric #n>``), so profilers charge its time
to ``repro.compiler``.  :mod:`linecache` regenerates the source on demand
(:func:`lowered_source` returns it too), so tracebacks show the generated
line, under a comment naming the kernel source line it came from.
"""

from __future__ import annotations

import ast
import functools
import itertools
import linecache
import math
import weakref
from pathlib import Path
from typing import Any, Callable, NamedTuple

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
    walk_block,
)
from repro.compiler.program import CompiledProgram
from repro.compiler.values import (
    ELEMENTWISE_FLOPS,
    TileVal,
    apply_binary,
    apply_unary,
    padded_to,
    tile_of,
)
from repro.memory.tensor import SimTensor, resolve_dtype
from repro.sim.engine import ProcessGen, Timeout
from repro.sim.machine import Machine

#: fraction of aggregable-loop load bytes that miss L2 and hit HBM
AGG_DRAM_DISCOUNT = 0.22

_PROGRAM_IDS = itertools.count()

#: signature of a lowered block: (machine, rank, block_id, n_blocks,
#: bindings, label) -> the block's simulation process
BlockFn = Callable[[Machine, int, int, int, dict, str], ProcessGen]


def lower(program: CompiledProgram, execute: bool) -> BlockFn:
    """The lowered block function of ``program`` (generated on first use).

    ``execute`` selects numeric mode (numpy effects) or timing mode.
    """
    fn = program.lowered.get(execute)
    if fn is None:
        fn = program.lowered[execute] = _Lowering(program, execute).build()
    return fn


def lowered_source(program: CompiledProgram, execute: bool) -> str:
    """The generated source behind :func:`lower` (for reading and tests)."""
    return _Lowering(program, execute).source()


# ---------------------------------------------------------------------------
# runtime helpers (called from generated code)
# ---------------------------------------------------------------------------


#: value of a kernel local that has not been assigned yet
_UNSET = object()
_F32 = np.dtype(np.float32)


def _binding(bindings: dict[str, Any], name: str, kname: str) -> Any:
    bound = bindings.get(name)
    if bound is None:
        raise RuntimeLaunchError(
            f"kernel {kname!r}: no binding for tensor {name!r}")
    return bound


def _select(bound: Any, name: str, rank: int | None,
            my_rank: int) -> tuple[SimTensor, int]:
    """Bind a tensor to a concrete instance; ``rank=None`` is the local one.

    Returns ``(tensor, owning rank)``.
    """
    if isinstance(bound, list):
        r = my_rank if rank is None else rank
        if not 0 <= r < len(bound):
            raise RuntimeLaunchError(
                f"tensor {name!r} indexed with rank {r} out of "
                f"range [0, {len(bound)})")
        return bound[r], r
    if isinstance(bound, SimTensor):
        if rank is not None and rank != bound.rank:
            raise RuntimeLaunchError(
                f"tensor {name!r} is not symmetric; cannot index rank {rank}")
        return bound, bound.rank
    raise RuntimeLaunchError(
        f"binding for {name!r} must be SimTensor or list, got "
        f"{type(bound).__name__}")


def _local_binding(bound: Any, name: str,
                   my_rank: int) -> tuple[SimTensor, int] | None:
    """The instance :func:`_select` picks for ``rank=None``, or None where
    it would raise or pick something other than a tensor."""
    if isinstance(bound, list):
        inst = bound[my_rank] if 0 <= my_rank < len(bound) else None
        return (inst, my_rank) if isinstance(inst, SimTensor) else None
    if isinstance(bound, SimTensor):
        return bound, bound.rank
    return None


def _scalar_binding(bound: Any) -> Any:
    """A tensor parameter bound to a number is a kernel scalar."""
    return bound if isinstance(bound, (int, float)) else _UNSET


def _channel(bindings: dict[str, Any], param: str, kname: str) -> BlockChannel:
    ch = bindings.get(param)
    if not isinstance(ch, BlockChannel):
        raise RuntimeLaunchError(
            f"kernel {kname!r} expects a BlockChannel for parameter {param!r}")
    return ch


def _field(ch: BlockChannel, name: str) -> Any:
    """``ch.scalar_field(name)``, or _UNSET where that would raise."""
    try:
        return ch.scalar_field(name)
    except LoweringError:
        return _UNSET


def _promote(a: np.dtype | None, b: np.dtype | None) -> np.dtype | None:
    """``np.result_type(a, b)``, or None where that would raise."""
    if a is None or b is None:
        return None
    try:
        return np.result_type(a, b)
    except TypeError:
        return None


def _timeout(delay: float) -> Timeout | None:
    """A reusable Timeout of a constant delay, or None where Timeout() raises."""
    return Timeout(delay) if 0 < delay < math.inf else None


def _fail(exc: type[Exception], msg: str, *_evaluated: Any) -> Any:
    """Raise ``exc(msg)``; usable inside an expression (after its operands)."""
    raise exc(msg)


def _binary_stub(a: Any, b: Any) -> TileVal:
    """Timing-mode result of a tile/scalar elementwise binary op."""
    sa, da = (a.shape, a.dtype) if isinstance(a, TileVal) else ((), _F32)
    sb, db = (b.shape, b.dtype) if isinstance(b, TileVal) else ((), _F32)
    return TileVal.stub(tuple(np.broadcast_shapes(sa, sb)), np.result_type(da, db))


def _gather_rows(tensor: SimTensor, idx: TileVal, c0: int, c1: int,
                 numeric: bool) -> TileVal:
    shape = (idx.shape[0], c1 - c0)
    data = None
    if numeric:
        if idx.data is None:
            raise ShapeError("gather_rows index tile has no data")
        ids = np.clip(idx.data.astype(np.int64), 0, tensor.shape[0] - 1)
        data = tensor.data[ids, c0:c1].astype(tensor.dtype)
        data = padded_to(data, shape, tensor.dtype)
    return TileVal(shape, tensor.dtype, data)


def _scatter_add_effect(tensor: SimTensor, idx: TileVal, c0: int, c1: int,
                        val: TileVal) -> Callable[[], None]:
    if idx.data is None or val.data is None:
        raise ShapeError("scatter_add_rows needs numeric operands")
    ids = idx.data.astype(np.int64)
    data = val.data

    def effect() -> None:
        if ids.max(initial=-1) >= tensor.shape[0] or ids.min(initial=0) < 0:
            raise ShapeError(
                f"scatter_add_rows index out of range on {tensor.name}")
        region = tensor.data[:, c0:c1]
        np.add.at(region, ids[:data.shape[0]], data[:len(ids)].astype(tensor.dtype))
    return effect


def _load_scalar(tensor: SimTensor, idx: int, numeric: bool) -> int:
    if not (numeric and tensor.data is not None):
        return 0
    flat = tensor.data.reshape(-1)
    if not 0 <= idx < flat.shape[0]:
        raise ShapeError(
            f"load_scalar index {idx} out of range "
            f"({tensor.name}, {tensor.size} elements)")
    return int(flat[idx])


def _pull(ch: BlockChannel, bindings: dict[str, Any], name: str, tid_m: int,
          tid_n: int, machine: Machine, rank: int,
          numeric: bool) -> tuple[TileVal, float]:
    """tile_pull_data: returns (value, arrival delay).

    The payload is snapshotted at issue time on the source rank, matching
    NVSHMEM get semantics.
    """
    if ch.comm_grid is None:
        raise LoweringError("tile_pull_data needs a comm grid")
    mapping = ch.require_mapping()
    src_rank = mapping.rank_of(tid_m)
    (r0, r1), (c0, c1) = ch.comm_grid.ranges(ch.comm_grid.tile_id(tid_m, tid_n))
    bound = bindings.get(name)
    if not isinstance(bound, list):
        raise LoweringError("tile_pull_data source must be symmetric")
    src = bound[src_rank]
    per_rank = mapping.per_rank if hasattr(mapping, "per_rank") else src.shape[0]
    lo_local = r0 - src_rank * per_rank
    hi_local = r1 - src_rank * per_rank
    if lo_local < 0 or hi_local > src.shape[0]:
        raise LoweringError(
            f"tile_pull_data tile {tid_m} rows [{r0},{r1}) fall outside "
            f"rank {src_rank}'s shard")
    shape = (r1 - r0, c1 - c0)
    nbytes = shape[0] * shape[1] * src.itemsize
    data = None
    if numeric:
        data = padded_to(src.read_tile(((lo_local, hi_local), (c0, c1))),
                         shape, src.dtype)
    if src_rank == rank:
        delay = nbytes / machine.cost.spec.smem_bandwidth_per_sm
    else:
        _st, arrival = machine.interconnect.reserve(src_rank, rank, nbytes, "p2p")
        delay = max(0.0, arrival - machine.now)
    return TileVal(shape, src.dtype, data), delay


_RUNTIME = {
    "_U": _UNSET, "_F32": _F32, "_ONCE": (None,),
    "_TileVal": TileVal, "_tile": tile_of, "_Timeout": Timeout,
    "_LoweringError": LoweringError, "_ShapeError": ShapeError,
    "_SimulationError": SimulationError, "_RuntimeLaunchError": RuntimeLaunchError,
    "_binding": _binding, "_select": _select, "_local_binding": _local_binding,
    "_scalar_binding": _scalar_binding, "_channel": _channel, "_fail": _fail,
    "_field": _field, "_promote": _promote, "_timeout": _timeout,
    "_binary_stub": _binary_stub, "_apply_binary": apply_binary,
    "_apply_unary": apply_unary, "_padded_to": padded_to,
    "_gather_rows": _gather_rows, "_scatter_add_effect": _scatter_add_effect,
    "_load_scalar": _load_scalar, "_pull": _pull,
    "_np": np, "_partial": functools.partial,
}

# ---------------------------------------------------------------------------
# code generation
# ---------------------------------------------------------------------------

_ARITH = {"+", "-", "*", "//", "/", "%", "**", "<", "<=", ">", ">=", "==", "!="}
#: scalar ops that cannot raise on numbers
_TOTAL_OPS = (_ARITH - {"/", "//", "%", "**"}) | {"and", "or", "min", "max"}
_UNARY_TILE = ("exp", "log", "relu", "neg", "silu", "gelu")
_BINARY_TILE = ("add", "sub", "mul", "div", "maximum_tile", "minimum_tile")

#: emission modes of a statement block
_TIMED, _PROBE, _REPLAY = "timed", "probe", "replay"


def _literal(value: Any) -> str | None:
    """Python source for a constant, or None if it has no exact literal."""
    if isinstance(value, bool) or value is None:
        return repr(value)
    if isinstance(value, (int, str)) and type(value) in (int, str):
        return f"({value!r})" if isinstance(value, int) and value < 0 else repr(value)
    if type(value) is float and math.isfinite(value):
        return f"({value!r})" if math.copysign(1.0, value) < 0 else repr(value)
    return None


def _int_literal(src: str) -> int | None:
    """The value of an int literal's source, else None."""
    try:
        value = ast.literal_eval(src)
    except (ValueError, SyntaxError):
        return None
    return value if type(value) is int else None


class _Cost:
    """Cost expressions of one tile op: SM compute, SM load, HBM bytes.

    ``None`` marks a component that is statically zero.
    """

    __slots__ = ("compute", "load", "hbm")

    def __init__(self, compute: str | None = None, load: str | None = None,
                 hbm: str | None = None):
        self.compute, self.load, self.hbm = compute, load, hbm


# -- static shapes ------------------------------------------------------------
#
# A dtype *token* names a tile dtype the lowering can rebuild once per
# block: ("c", np.dtype) a constant, ("b", tensor) the dtype of the block's
# local instance of a tensor parameter, ("rt", x, y) np.result_type of two
# tokens.


class _Static(NamedTuple):
    """What the lowering knows of a tile value at one program point: its
    shape (None: unknown) and the set of dtype tokens it may hold."""

    shape: tuple[int, ...] | None
    dtypes: frozenset | None

    @property
    def dtype(self) -> tuple | None:
        """The tile's one possible dtype token, or None."""
        if self.dtypes is not None and len(self.dtypes) == 1:
            return next(iter(self.dtypes))
        return None


_F32_TOKENS = frozenset({("c", _F32)})
#: a scalar operand of an elementwise op, as ``_binary_stub`` sees it
_SCALAR = _Static((), _F32_TOKENS)
#: dtype sets larger than this are treated as unknown (ends loop fixpoints)
_MAX_DTYPES = 4


def _static(shape: tuple[int, ...] | None,
            dtypes: frozenset | None) -> _Static | None:
    return None if shape is None and dtypes is None else _Static(shape, dtypes)


def _promote_token(x: tuple, y: tuple) -> tuple | None:
    """Token of ``np.result_type(x, y)``; promotion is commutative and
    idempotent (``result_type(result_type(x, y), y)`` is the first)."""
    if x == y or (x[0] == "rt" and y in x[1:]):
        return x
    if y[0] == "rt" and x in y[1:]:
        return y
    if x[0] == y[0] == "c":
        try:
            return ("c", np.result_type(x[1], y[1]))
        except TypeError:
            return None
    return ("rt", x, y)


def _join(a: _Static, b: _Static) -> _Static | None:
    dtypes = None
    if a.dtypes is not None and b.dtypes is not None:
        dtypes = a.dtypes | b.dtypes
        if len(dtypes) > _MAX_DTYPES:
            dtypes = None
    return _static(a.shape if a.shape == b.shape else None, dtypes)


def _join_env(a: dict[str, _Static], b: dict[str, _Static]) -> dict[str, _Static]:
    out = {}
    for name, sa in a.items():
        sb = b.get(name)
        joined = _join(sa, sb) if sb is not None else None
        if joined is not None:
            out[name] = joined
    return out


class _AllDefined(frozenset):
    """A ``defined`` set holding every name: renders expressions without
    their unbound-name checks (for comparing sources)."""

    def __contains__(self, item: object) -> bool:
        return True


_ALL_DEFINED = _AllDefined()


class _Fast(NamedTuple):
    """A tile op whose shapes are static, with its per-block constants.

    ``checks`` are expressions evaluated in place for the errors the op
    would raise; ``bind`` the tensor a load or store reads from the block's
    local instance (without one the op takes its general form); ``value``
    the result (a shared stub); ``cost`` the op's cost as prologue
    constants.
    """

    checks: list[str]
    bind: str | None
    value: str | None
    cost: _Cost


class _Lowering:
    """Generates the block function of one (program, numerics mode)."""

    def __init__(self, program: CompiledProgram, execute: bool):
        self.program = program
        self.ir = program.ir
        self.execute = execute
        self.kname = program.name
        self.ns: dict[str, Any] = dict(_RUNTIME)
        self.lines: list[str] = []
        self.counter = 0
        self.unset: set[str] = set()
        self.slots: dict[int, str] = {}
        self.hoisted: dict[str, str] = {}
        self.names: dict[tuple[str, str], str] = {}
        #: per-block prologue: lines and the local of each interned expression
        self.prologue: list[str] = []
        self.prologue_ids: dict[str, str] = {}
        #: static shapes: tile op -> (result, operands), from :meth:`flow`
        self.facts: dict[int, tuple[_Static | None, tuple]] = {}
        self.dtype_names: dict[np.dtype, str] = {}
        assigned = set()
        for s in walk_block(self.ir.body):
            if isinstance(s, AssignScalar):
                assigned.add(s.target)
            elif isinstance(s, For):
                assigned.add(s.var)
            elif isinstance(s, TileOp) and s.op == "load_scalar" and s.target:
                assigned.add(s.target)
        #: constexprs read as literals (never reassigned, exact literal form)
        self.inline: dict[str, str] = {}
        self.constexpr_locals: list[str] = []
        for p, v in program.constexprs.items():
            lit = _literal(v)
            if lit is not None and p not in assigned:
                self.inline[p] = lit
            else:
                self.constexpr_locals.append(p)
        self.ints = self.int_scalars()

    # ------------------------------------------------------------ utilities

    def w(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def const(self, value: Any) -> str:
        lit = _literal(value)
        if lit is not None:
            return lit
        name = self.fresh("_k")
        self.ns[name] = value
        return name

    def var(self, kind: str, name: str) -> str:
        """Python local of a kernel scalar (kind "s") or tile (kind "t")."""
        key = (kind, name)
        if key not in self.names:
            self.names[key] = (f"{kind}_{name}" if name.isidentifier()
                               else f"{kind}x{len(self.names)}")
        return self.names[key]

    def svar(self, name: str) -> str:
        return self.var("s", name)

    def tvar(self, name: str) -> str:
        return self.var("t", name)

    # ----------------------------------------------------------- expressions

    def x(self, e: Any, defined: set[str],
          rename: dict[str, str] | None = None) -> str:
        """Python expression for a scalar ``Expr`` (folded when constant)."""
        src = self._x(e, defined, rename)
        if src.startswith("(") or not src.isidentifier():
            try:
                value = eval(src, {"__builtins__": {"min": min, "max": max}})
            except Exception:  # not constant, or raises: keep it for run time
                return src
            lit = _literal(value)
            if lit is not None:
                return lit
        return src

    def _x(self, e: Any, defined: set[str], rename: dict[str, str] | None) -> str:
        if isinstance(e, Const):
            return self.const(e.value)
        if isinstance(e, Name):
            if rename and e.id in rename:
                return rename[e.id]
            if e.id in self.inline:
                return self.inline[e.id]
            v = self.svar(e.id)
            if v in defined:
                return v
            self.unset.add(v)
            msg = self.const(f"{self.kname}: undefined scalar {e.id!r}")
            return f"({v} if {v} is not _U else _fail(_LoweringError, {msg}))"
        if isinstance(e, ChannelField):
            if self.ir.channel_param is None:
                return f"_fail(_LoweringError, {self.const(self._no_channel_msg())})"
            # read once per block; a field that does not resolve raises here
            f = self.pre("_f", f"_field(_ch, {e.field_name!r})")
            return f"({f} if {f} is not _U else _ch.scalar_field({e.field_name!r}))"
        if isinstance(e, UnaryOp):
            v = self._x(e.operand, defined, rename)
            return f"(-{v})" if e.op == "-" else f"(not {v})"
        if isinstance(e, BinOp):
            a = self._x(e.left, defined, rename)
            b = self._x(e.right, defined, rename)
            op = e.op
            if op in ("and", "or") or op in _ARITH:
                return f"({a} {op} {b})"
            if op == "cdiv":
                return f"(-(-{a} // {b}))"
            if op in ("min", "max"):
                return f"{op}({a}, {b})"
            msg = self.const(f"unknown scalar op {op!r}")
            return f"_fail(_LoweringError, {msg}, {a}, {b})"
        msg = self.const(f"cannot evaluate expression {e!r}")
        return f"_fail(_LoweringError, {msg})"

    def int_x(self, e: Any, defined: set[str],
              rename: dict[str, str] | None = None) -> str:
        src = self.x(e, defined, rename)
        return src if _int_literal(src) is not None else f"int({src})"

    def operand(self, arg: Any, defined: set[str],
                rename: dict[str, str] | None = None) -> str:
        """A tile op operand: tile name -> TileVal, Expr -> scalar."""
        if isinstance(arg, str):
            v = self.tvar(arg)
            if v in defined:
                return v
            self.unset.add(v)
            msg = self.const(f"undefined tile {arg!r}")
            return f"({v} if {v} is not _U else _fail(_LoweringError, {msg}))"
        if isinstance(arg, Expr):
            return self.x(arg, defined, rename)
        return f"_fail(_LoweringError, {self.const(f'bad tile operand {arg!r}')})"

    # --------------------------------------------------------- static shapes

    def int_scalars(self) -> set[str]:
        """Kernel scalars that only ever hold ints (bools count as ints).

        Flow-insensitive: a scalar qualifies when every assignment to it
        yields an int.  Tensor parameters read as scalars may be bound to
        floats, so they never do.
        """
        consts = self.program.constexprs
        ints = {"$bid", "$nblocks"}
        assigns = []
        for s in walk_block(self.ir.body):
            if isinstance(s, AssignScalar):
                ints.add(s.target)
                assigns.append(s)
            elif isinstance(s, For):
                ints.add(s.var)
            elif isinstance(s, TileOp) and s.op == "load_scalar" and s.target:
                ints.add(s.target)
        ints -= set(self.program.tensor_params)
        ints -= {p for p in self.constexpr_locals
                 if type(consts[p]) not in (int, bool)}
        changed = True
        while changed:
            changed = False
            for s in assigns:
                if s.target in ints and not self.is_int(s.value, ints):
                    ints.discard(s.target)
                    changed = True
        return ints

    def is_int(self, e: Any, ints: set[str] | None = None) -> bool:
        """Whether a scalar expression yields an int whenever it yields."""
        ints = self.ints if ints is None else ints
        if isinstance(e, Const):
            return type(e.value) in (int, bool)
        if isinstance(e, Name):
            if e.id in self.inline:
                return type(self.program.constexprs[e.id]) in (int, bool)
            return e.id in ints
        if isinstance(e, ChannelField):
            return True  # scalar_field returns ints only
        if isinstance(e, UnaryOp):
            return e.op == "not" or self.is_int(e.operand, ints)
        if isinstance(e, BinOp):
            if e.op in ("<", "<=", ">", ">=", "==", "!="):
                return True
            if e.op in ("+", "-", "*", "//", "%", "cdiv", "min", "max",
                        "and", "or"):
                return self.is_int(e.left, ints) and self.is_int(e.right, ints)
        return False

    def pure(self, e: Any, defined: set[str]) -> bool:
        """Whether evaluating a scalar expression can neither raise nor
        depend on anything but defined kernel scalars."""
        if isinstance(e, Const):
            return _literal(e.value) is not None
        if isinstance(e, Name):
            return e.id in self.inline or self.svar(e.id) in defined
        if isinstance(e, UnaryOp):
            return self.pure(e.operand, defined)
        if isinstance(e, BinOp):
            if e.op in ("//", "%", "/", "cdiv"):
                right = e.right.value if isinstance(e.right, Const) else None
                if isinstance(e.right, Name) and e.right.id in self.inline:
                    right = self.program.constexprs[e.right.id]
                return (type(right) in (int, float) and right != 0
                        and self.pure(e.left, defined))
            if e.op in _TOTAL_OPS:
                return self.pure(e.left, defined) and self.pure(e.right, defined)
        return False

    def extent(self, pair: Any) -> int | None:
        """A load range's extent when it is the same for every tile: both
        bounds literal, or ``(e, e + c)`` for an int-valued ``e``."""
        if not (isinstance(pair, tuple) and len(pair) == 2):
            return None
        lo, hi = (self.x(e, _ALL_DEFINED) for e in pair)
        a, b = _int_literal(lo), _int_literal(hi)
        if a is not None and b is not None:
            return b - a if b >= a else None
        prefix = f"({lo} + "
        if hi.startswith(prefix) and hi.endswith(")") and self.is_int(pair[0]):
            c = _int_literal(hi[len(prefix):-1])
            if c is not None and c >= 0:
                return c
        return None

    def dtype_tokens(self, spec: Any) -> frozenset | None:
        try:
            return frozenset({("c", resolve_dtype(spec))})
        except ShapeError:
            return None

    def flow(self, stmts: list[Stmt], env: dict[str, _Static]) -> dict[str, _Static]:
        """Static shapes of the tile locals after ``stmts``, starting from
        ``env`` (which it updates); records every tile op's facts."""
        for s in stmts:
            if isinstance(s, TileOp):
                res = self.infer(s, env)
                if s.target is not None and s.op != "load_scalar":
                    if res is None:
                        env.pop(s.target, None)
                    else:
                        env[s.target] = res
            elif isinstance(s, If):
                env = _join_env(self.flow(s.then, dict(env)),
                                self.flow(s.orelse, dict(env)))
            elif isinstance(s, For):
                # loop entry: a fixpoint over the entry and back edges;
                # the last pass records the facts valid for every trip
                entry = env
                while True:
                    out = self.flow(s.body, dict(entry))
                    joined = _join_env(env, out)
                    if joined == entry:
                        break
                    entry = joined
                bounds = [_int_literal(self.x(e, _ALL_DEFINED))
                          for e in (s.start, s.stop, s.step)]
                ran = None not in bounds and bounds[2] != 0 and len(range(*bounds)) > 0
                env = out if ran else entry
            elif isinstance(s, Primitive) and s.target is not None:
                env.pop(s.target, None)
        return env

    def infer(self, s: TileOp, env: dict[str, _Static]) -> _Static | None:
        """Static result of one tile op (recorded with its operands)."""
        op, a = s.op, s.args

        def tile(arg: Any) -> _Static | None:
            return env.get(arg) if isinstance(arg, str) else None

        res, operands = None, ()
        if op in ("zeros", "full"):
            dims = a[0] if isinstance(a[0], tuple) else (a[0],)
            lits = [_int_literal(self.x(e, _ALL_DEFINED)) for e in dims]
            spec = (a[1] if op == "zeros" and len(a) > 1 else
                    a[2] if op == "full" and len(a) > 2 else "float32")
            # a negative dim stays dynamic, as a negative range extent does:
            # its per-tile op raises where the walker's does
            static = all(n is not None and n >= 0 for n in lits)
            res = _static(tuple(lits) if static else None, self.dtype_tokens(spec))
        elif op in ("load", "load_vec"):
            ref, pairs = a[0], a[1:3] if op == "load" else a[1:2]
            ext = tuple(self.extent(p) for p in pairs)
            static = None not in ext and len(ext) == (2 if op == "load" else 1)
            local = isinstance(ref, TensorRef) and ref.rank is None
            res = _static(ext if static else None,
                          frozenset({("b", ref.name)}) if local else None)
        elif op in ("store", "store_vec", "atomic_add"):
            operands = (tile(a[2] if op == "store_vec" else a[3]),)
        elif op == "dot":
            operands = xa, xb = tile(a[0]), tile(a[1])
            shape = None
            if (xa and xb and xa.shape and xb.shape and len(xa.shape) == 2
                    and len(xb.shape) == 2 and xa.shape[1] == xb.shape[0]):
                shape = (xa.shape[0], xb.shape[1])
            res = _Static(shape, _F32_TOKENS)
        elif op in _BINARY_TILE:
            operands = xa, xb = tuple(
                _SCALAR if isinstance(arg, Expr) else tile(arg) for arg in a[:2])
            if xa is not None and xb is not None:
                shape = None
                if xa.shape is not None and xb.shape is not None:
                    try:
                        shape = tuple(int(n) for n in np.broadcast_shapes(
                            xa.shape, xb.shape))
                    except ValueError:
                        pass
                dtypes = None
                if xa.dtypes is not None and xb.dtypes is not None:
                    dtypes = frozenset(_promote_token(x, y)
                                       for x in xa.dtypes for y in xb.dtypes)
                    if None in dtypes or len(dtypes) > _MAX_DTYPES:
                        dtypes = None
                res = _static(shape, dtypes)
        elif op in _UNARY_TILE + ("copy", "cast", "expand_dims", "row_max", "row_sum"):
            operands = (x := tile(a[0]),)
            if op == "cast":
                res = _static(x.shape if x else None, self.dtype_tokens(a[1]))
            elif op in ("row_max", "row_sum"):
                two_d = x is not None and x.shape is not None and len(x.shape) == 2
                res = _Static((x.shape[0],) if two_d else None, _F32_TOKENS)
            elif op in ("exp", "log", "silu", "gelu"):
                res = _Static(x.shape if x else None, _F32_TOKENS)
            elif x is not None:
                shape = x.shape
                if op == "expand_dims" and shape is not None:
                    shape = (*shape, 1)
                res = _Static(shape, x.dtypes)
        self.facts[id(s)] = (res, operands)
        return res

    # ------------------------------------------------------ per-block prologue

    def pre(self, prefix: str, expr: str) -> str:
        """A local holding ``expr``, evaluated once in the block prologue.

        Prologue expressions never raise: they read machine constants,
        channel fields through ``_field`` and local tensor bindings that
        may be None (``_b``) only behind a None test.
        """
        name = self.prologue_ids.get(expr)
        if name is None:
            name = self.prologue_ids[expr] = self.fresh(prefix)
            self.prologue.append(f"{name} = {expr}")
        return name

    def local_binding(self, tensor: str) -> str:
        """The block's ``(instance, owning rank)`` of a tensor, or None."""
        h = self.hoisted.get(tensor)
        if h is None:
            h = self.hoisted[tensor] = self.fresh("_b")
        return h

    def guard(self, tensors: list[str]) -> str | None:
        """A prologue flag: every tensor resolves to a local instance."""
        flags = []
        for t in dict.fromkeys(tensors):
            h = self.local_binding(t)
            flags.append(self.pre("_g", f"{h} is not None and {h}[1] == _rank"))
        if len(flags) > 1:
            return self.pre("_g", " and ".join(flags))
        return flags[0] if flags else None

    def dtype_src(self, token: tuple) -> str:
        """Prologue expression of a dtype token (None: promotion failed)."""
        kind = token[0]
        if kind == "c":
            if token[1] == _F32:
                return "_F32"
            name = self.dtype_names.get(token[1])
            if name is None:
                name = self.dtype_names[token[1]] = self.const(token[1])
            return name
        if kind == "b":
            h = self.local_binding(token[1])
            return self.pre("_d", f"{h}[0].dtype if {h} is not None else _F32")
        return self.pre("_d", f"_promote({self.dtype_src(token[1])}, "
                              f"{self.dtype_src(token[2])})")

    def itemsize_src(self, token: tuple) -> str:
        if token[0] == "c":
            return str(token[1].itemsize)
        d = self.dtype_src(token)
        return self.pre("_i", f"{d}.itemsize if {d} is not None else 0")

    def stub(self, st: _Static) -> str:
        """The shared timing-mode TileVal of a static shape and dtype."""
        return self.pre("_s", f"_tile({st.shape!r}, {self.dtype_src(st.dtype)}, None)")

    def vector_pre(self, size: int, flops: float) -> str:
        # CostModel.vector_tile_time(n, flops, 0.0), as vector_cost
        return self.pre("_du", f"max({size} * {flops!r} / _psvf, 0.0)")

    def dot_pre(self, mm: int, nn: int, kk: int) -> str:
        return self.pre("_C", f"2.0 * {mm} * {nn} * {kk} / (_pstf * "
                              f"_cost.tile_efficiency({mm}, {nn}, {kk}))")

    def check_operand(self, checks: list[str], arg: Any, defined: set[str]) -> None:
        """Record the evaluation of an operand when it may raise."""
        if isinstance(arg, str):
            src = self.operand(arg, defined)
            if src != self.tvar(arg):
                checks.append(src)
        elif not (isinstance(arg, Expr) and self.pure(arg, defined)):
            checks.append(self.operand(arg, defined))

    def check_ranges(self, checks: list[str], pairs: tuple, defined: set[str]) -> bool:
        """Record the ``int()`` of each range bound that may raise; False
        when a pair is malformed (the op raises at lowering's emission)."""
        for pair in pairs:
            if not (isinstance(pair, tuple) and len(pair) == 2):
                return False
            for e in pair:
                if not (self.is_int(e) and self.pure(e, defined)):
                    checks.append(self.int_x(e, defined))
        return True

    def static_op(self, s: TileOp, defined: set[str]) -> _Fast | None:
        """The timing-mode form of a tile op whose shapes are static, or
        None when its work depends on the tile."""
        res, operands = self.facts.get(id(s), (None, ()))
        op, a = s.op, s.args
        checks: list[str] = []
        full = res is not None and res.shape is not None and res.dtype is not None
        if op in ("zeros", "full"):
            if not full:
                return None
            if op == "full" and not (isinstance(a[1], Expr) and self.pure(a[1], defined)):
                checks.append(self.x(a[1], defined))
            return _Fast(checks, None, self.stub(res), _Cost())
        if op in ("load", "load_vec"):
            if not full or not self.check_ranges(checks, a[1:3] if op == "load"
                                                 else a[1:2], defined):
                return None
            nb = self.pre("_nb", " * ".join(
                [*map(str, res.shape), self.itemsize_src(res.dtype)]))
            cost = _Cost(load=self.pre("_L", f"{nb} / _feed"), hbm=nb)
            return _Fast(checks, a[0].name, self.stub(res), cost)
        if op in ("store", "store_vec", "atomic_add"):
            (v,) = operands
            ref = a[0]
            if (v is None or v.shape is None or v.dtype is None
                    or not (isinstance(ref, TensorRef) and ref.rank is None)):
                return None
            vector = op == "store_vec"
            if not self.check_ranges(checks, a[1:2] if vector else a[1:3], defined):
                return None
            self.check_operand(checks, a[2] if vector else a[3], defined)
            nb = self.pre("_nb", f"{math.prod(v.shape)} * "
                                 f"{self.itemsize_src(v.dtype)}")
            factor = "2.0" if op == "atomic_add" else "1.0"
            cost = _Cost(load=self.pre("_L", f"{factor} * {nb} / _feed"),
                         hbm=self.pre("_H", f"{factor} * {nb}"))
            return _Fast(checks, ref.name, None, cost)
        if not full:
            return None
        if op == "dot":
            acc = s.kwargs.get("acc")
            for arg in (a[0], a[1]) if acc is None else (a[0], a[1], acc):
                self.check_operand(checks, arg, defined)
            (mm, kk), nn = operands[0].shape, operands[1].shape[1]
            return _Fast(checks, None, self.stub(res),
                         _Cost(compute=self.dot_pre(mm, nn, kk)))
        if op in _BINARY_TILE:
            self.check_operand(checks, a[0], defined)
            self.check_operand(checks, a[1], defined)
            value = self.stub(res)
            if res.dtype[0] == "rt":
                # a promotion that fails in the prologue raises in place
                operands = ", ".join(self.operand(x, defined) for x in a[:2])
                value = (f"({value} if {self.dtype_src(res.dtype)} is not None "
                         f"else _binary_stub({operands}))")
            return _Fast(checks, None, value, _Cost(
                compute=self.vector_pre(math.prod(res.shape), ELEMENTWISE_FLOPS[op])))
        if op in _UNARY_TILE + ("copy", "cast", "expand_dims", "row_max", "row_sum"):
            x = operands[0]
            if x is None or x.shape is None:
                return None
            self.check_operand(checks, a[0], defined)
            cost = _Cost()
            if op not in ("copy", "expand_dims"):
                flops = 1.0 if op == "cast" else ELEMENTWISE_FLOPS[op]
                cost = _Cost(compute=self.vector_pre(math.prod(x.shape), flops))
            return _Fast(checks, None, self.stub(res), cost)
        return None

    def range_pair(self, d: int, arg: Any, lo: str, hi: str, defined: set[str],
                   rename: dict[str, str] | None) -> None:
        """Emit ``lo, hi = int(a), int(b)`` for a (lo, hi) pair argument."""
        if not (isinstance(arg, tuple) and len(arg) == 2):
            self.raise_(d, "_LoweringError", f"expected (lo, hi) range, got {arg!r}")
            return
        self.w(d, f"{lo} = {self.int_x(arg[0], defined, rename)}")
        self.w(d, f"{hi} = {self.int_x(arg[1], defined, rename)}")

    def raise_(self, d: int, exc: str, msg: str) -> None:
        self.w(d, f"raise {exc}({self.const(msg)})")

    def _no_channel_msg(self) -> str:
        return (f"kernel {self.kname!r} uses primitives but has no "
                "BlockChannel parameter")

    def tensor(self, d: int, ref: TensorRef, defined: set[str],
               rename: dict[str, str] | None = None) -> None:
        """Emit ``_T, _o = <tensor instance, owning rank>`` for a TensorRef."""
        kn = self.const(self.kname)
        if ref.rank is None:
            h = self.local_binding(ref.name)
            self.w(d, f"_T, _o = {h} or _select(_binding(_bindings, "
                      f"{ref.name!r}, {kn}), {ref.name!r}, None, _rank)")
        else:
            r = self.int_x(ref.rank, defined, rename)
            self.w(d, f"_T, _o = _select(_binding(_bindings, {ref.name!r}, "
                      f"{kn}), {ref.name!r}, {r}, _rank)")

    # -------------------------------------------------------------- tile ops

    def tile_op(self, d: int, s: TileOp, numeric: bool, costed: bool,
                defined: set[str], rename: dict[str, str] | None = None,
                fast: bool = True) -> tuple[str | None, _Cost, list[str]]:
        """Emit one tile op's evaluation.

        Returns ``(value, cost, effect)``: the expression holding its
        value (a scalar for ``load_scalar``), its cost (costed=True) and
        the statements applying its deferred numpy effect.
        """
        if fast and not numeric and rename is None:
            static = self.static_op(s, defined)
            if static is not None:
                return self.fast_op(d, s, static, costed, defined)
        op = s.op
        a = s.args
        # static shapes price dot and vector ops from prologue constants
        res, operands = self.facts.get(id(s), (None, ()))
        first = operands[0] if operands else None
        cost = _Cost()
        effect: list[str] = []
        val: str | None = "_val"
        w = self.w

        if op in ("zeros", "full"):
            if isinstance(a[0], tuple):
                dims = [self.int_x(x, defined, rename) for x in a[0]]
            else:
                dims = [self.int_x(a[0], defined, rename)]
            shape = f"({', '.join(dims)},)"
            if not all(_int_literal(x) is not None for x in dims):
                w(d, f"_sh = {shape}")
                shape = "_sh"
            if op == "full":
                w(d, f"_fv = {self.x(a[1], defined, rename)}")
            dt = self.dtype_const(d, a[1] if op == "zeros" and len(a) > 1 else
                                  a[2] if op == "full" and len(a) > 2 else "float32")
            if dt is None:
                return None, cost, effect
            data = "None"
            if numeric:
                data = (f"_np.zeros({shape}, {dt})" if op == "zeros"
                        else f"_np.full({shape}, _fv, {dt})")
            w(d, f"_val = _tile({shape}, {dt}, {data})")
        elif op == "copy":
            w(d, f"_x = {self.operand(a[0], defined, rename)}")
            data = ("_x.data.copy() if _x.data is not None else None"
                    if numeric else "None")
            w(d, f"_val = _tile(_x.shape, _x.dtype, {data})")
        elif op in ("load", "load_vec"):
            self.tensor(d, a[0], defined, rename)
            if op == "load":
                self.range_pair(d, a[1], "_r0", "_r1", defined, rename)
                self.range_pair(d, a[2], "_c0", "_c1", defined, rename)
                w(d, "_s0 = _r1 - _r0")
                w(d, "_s1 = _c1 - _c0")
                w(d, "if _s0 < 0 or _s1 < 0:")
                w(d + 1, 'raise _ShapeError(f"negative load extent {(_s0, _s1)}")')
                w(d, "_nb = _s0 * _s1 * _T.itemsize")
                shape, ranges = "(_s0, _s1)", "((_r0, _r1), (_c0, _c1))"
            else:
                self.range_pair(d, a[1], "_r0", "_r1", defined, rename)
                w(d, "_s0 = _r1 - _r0")
                w(d, "if _s0 < 0:")
                w(d + 1, 'raise _ShapeError(f"negative load extent {(_s0,)}")')
                w(d, "_nb = _s0 * _T.itemsize")
                shape, ranges = "(_s0,)", "((_r0, _r1),)"
            data = (f"_padded_to(_T.read_tile({ranges}), {shape}, _T.dtype)"
                    if numeric else "None")
            w(d, f"_val = _tile({shape}, _T.dtype, {data})")
            # remote read over the interconnect (pull)
            w(d, "if _o != _rank:")
            w(d + 1, '_st, _ar = _ic.reserve(_o, _rank, _nb, "p2p")')
            if costed:
                w(d + 1, "_L = max(0.0, _ar - _sim.now)")
                w(d + 1, "_H = 0")
                w(d, "else:")
                w(d + 1, "_L = _nb / _feed")
                w(d + 1, "_H = _nb")
                cost = _Cost(load="_L", hbm="_H")
        elif op == "gather_rows":
            self.tensor(d, a[0], defined, rename)
            w(d, "if _o != _rank:")
            self.raise_(d + 1, "_LoweringError", "gather_rows requires a local tensor")
            w(d, f"_x = {self.operand(a[1], defined, rename)}")
            self.range_pair(d, a[2], "_c0", "_c1", defined, rename)
            w(d, f"_val = _gather_rows(_T, _x, _c0, _c1, {numeric})")
            # random-access gather: 1.5x streaming cost
            w(d, "_nb = _val.shape[0] * _val.shape[1] * _T.itemsize")
            cost = _Cost(load="1.5 * _nb / _feed", hbm="1.5 * _nb")
        elif op in ("store", "store_vec", "atomic_add"):
            val = None
            self.tensor(d, a[0], defined, rename)
            w(d, "if _o != _rank:")
            self.raise_(d + 1, "_LoweringError",
                        f"{op} targets a remote tensor; use tl.tile_push_data")
            self.range_pair(d, a[1], "_r0", "_r1", defined, rename)
            if op == "store_vec":
                ranges = "((_r0, _r1),)"
                w(d, f"_v = {self.operand(a[2], defined, rename)}")
            else:
                self.range_pair(d, a[2], "_c0", "_c1", defined, rename)
                ranges = "((_r0, _r1), (_c0, _c1))"
                w(d, f"_v = {self.operand(a[3], defined, rename)}")
            w(d, "if not isinstance(_v, _TileVal):")
            self.raise_(d + 1, "_LoweringError", f"{op} value must be a tile")
            factor = "2.0" if op == "atomic_add" else "1.0"
            if costed:
                w(d, "_nb = _v.nbytes")
                cost = _Cost(load=f"{factor} * _nb / _feed", hbm=f"{factor} * _nb")
            if numeric:
                w(d, "_dd = _v.data")
                fn = "accumulate_tile" if op == "atomic_add" else "write_tile"
                effect = [f"_T.{fn}({ranges}, _dd)"]
        elif op == "load_scalar":
            self.tensor(d, a[0], defined, rename)
            w(d, "if _o != _rank:")
            self.raise_(d + 1, "_LoweringError", "load_scalar requires a local tensor")
            w(d, f"_val = _load_scalar(_T, {self.int_x(a[1], defined, rename)}, "
                 f"{numeric})")
            cost = _Cost(load="_T.itemsize / _feed", hbm="_T.itemsize")
        elif op == "scatter_add_rows":
            val = None
            self.tensor(d, a[0], defined, rename)
            w(d, "if _o != _rank:")
            self.raise_(d + 1, "_LoweringError", "scatter_add_rows requires a local tensor")
            w(d, f"_x = {self.operand(a[1], defined, rename)}")
            self.range_pair(d, a[2], "_c0", "_c1", defined, rename)
            w(d, f"_v = {self.operand(a[3], defined, rename)}")
            w(d, "if not isinstance(_v, _TileVal):")
            self.raise_(d + 1, "_LoweringError", "scatter_add_rows value must be a tile")
            w(d, "_nb = _v.nbytes")
            cost = _Cost(load="2.5 * _nb / _feed", hbm="2.5 * _nb")
            if numeric:
                w(d, "_fx = _scatter_add_effect(_T, _x, _c0, _c1, _v)")
                effect = ["_fx()"]
        elif op == "dot":
            w(d, f"_a = {self.operand(a[0], defined, rename)}")
            w(d, f"_b = {self.operand(a[1], defined, rename)}")
            acc = s.kwargs.get("acc")
            if acc is not None:
                w(d, f"_acc = {self.operand(acc, defined, rename)}")
            w(d, "if len(_a.shape) != 2 or len(_b.shape) != 2 "
                 "or _a.shape[1] != _b.shape[0]:")
            w(d + 1, 'raise _ShapeError(f"dot shape mismatch {_a.shape} x {_b.shape}")')
            w(d, "_mm, _kk = _a.shape")
            w(d, "_nn = _b.shape[1]")
            if costed and res is not None and res.shape is not None:
                cost = _Cost(compute=self.dot_pre(*res.shape, first.shape[1]))
            elif costed:
                w(d, "_C = 2.0 * _mm * _nn * _kk / "
                     "(_pstf * _cost.tile_efficiency(_mm, _nn, _kk))")
                cost = _Cost(compute="_C")
            data, make = "None", "_tile"
            if numeric:
                w(d, "_dd = _a.data.astype(_F32) @ _b.data.astype(_F32)")
                if acc is not None:
                    w(d, "if _acc is not None and _acc.data is not None:")
                    w(d + 1, "_dd = _dd + _acc.data.astype(_F32)")
                    make = "_TileVal"  # the sum may broadcast: check it
                data = "_dd"
            w(d, f"_val = {make}((_mm, _nn), _F32, {data})")
        elif op in _UNARY_TILE:
            w(d, f"_x = {self.operand(a[0], defined, rename)}")
            if numeric:
                w(d, f"_val = _apply_unary({op!r}, _x)")
            else:
                dt = "_F32" if op in ("exp", "log", "silu", "gelu") else "_x.dtype"
                w(d, f"_val = _tile(_x.shape, {dt}, None)")
            cost = self.vector_cost(first, ELEMENTWISE_FLOPS[op])
        elif op in _BINARY_TILE:
            w(d, f"_a = {self.operand(a[0], defined, rename)}")
            w(d, f"_b = {self.operand(a[1], defined, rename)}")
            fn = f"_apply_binary({op!r}, _a, _b)" if numeric else "_binary_stub(_a, _b)"
            w(d, f"_val = {fn}")
            cost = self.vector_cost(res, ELEMENTWISE_FLOPS[op], "_val.size")
        elif op == "cast":
            w(d, f"_x = {self.operand(a[0], defined, rename)}")
            dt = self.dtype_const(d, a[1])
            if dt is None:
                return None, cost, effect
            data = (f"_x.data.astype({dt}) if _x.data is not None else None"
                    if numeric else "None")
            w(d, f"_val = _tile(_x.shape, {dt}, {data})")
            cost = self.vector_cost(first, 1.0)
        elif op == "expand_dims":
            w(d, f"_x = {self.operand(a[0], defined, rename)}")
            data = ("_x.data.reshape((*_x.shape, 1)) if _x.data is not None "
                    "else None" if numeric else "None")
            w(d, f"_val = _tile((*_x.shape, 1), _x.dtype, {data})")
        elif op in ("row_max", "row_sum"):
            w(d, f"_x = {self.operand(a[0], defined, rename)}")
            w(d, "if len(_x.shape) != 2:")
            w(d + 1, f'raise _ShapeError(f"{op} expects a 2-d tile, got {{_x.shape}}")')
            data = "None"
            if numeric:
                fn = "_np.max" if op == "row_max" else "_np.sum"
                data = (f"{fn}(_x.data.astype(_F32), axis=1) "
                        "if _x.data is not None else None")
            w(d, f"_val = _tile((_x.shape[0],), _F32, {data})")
            cost = self.vector_cost(first, ELEMENTWISE_FLOPS[op])
        else:
            self.raise_(d, "_LoweringError", f"unknown tile op {op!r}")
            return None, cost, effect
        if not costed:
            cost = _Cost()
        return val, cost, effect

    def vector_cost(self, counted: _Static | None, flops: float,
                    size: str = "_x.size") -> _Cost:
        """Cost of a vector op over the ``size`` elements of a tile (a
        prologue constant when ``counted``, that tile, has a static shape)."""
        if counted is not None and counted.shape is not None:
            return _Cost(compute=self.vector_pre(math.prod(counted.shape), flops))
        # CostModel.vector_tile_time(n, flops, 0.0): max(compute, memory)
        # with a memory term of exactly 0.0 for zero bytes per element
        return _Cost(compute=f"max({size} * {flops!r} / _psvf, 0.0)")

    def fast_op(self, d: int, s: TileOp, f: _Fast, costed: bool,
                defined: set[str]) -> tuple[str | None, _Cost, list[str]]:
        """Emit a static tile op (non-numeric): per tile only its checks
        run.  A load or store runs so while its tensor has a local
        instance (a prologue flag), else in its general form."""
        w = self.w
        if f.bind is None:
            for check in f.checks:
                w(d, check)
            if f.value is not None and s.target is None and not f.value.isidentifier():
                w(d, f.value)  # evaluated for its errors
            return f.value, f.cost if costed else _Cost(), []
        w(d, f"if {self.guard([f.bind])}:")
        for check in f.checks:
            w(d + 1, check)
        if f.value is not None:
            w(d + 1, f"_val = {f.value}")
        if costed:
            w(d + 1, f"_L = {f.cost.load}")
            w(d + 1, f"_H = {f.cost.hbm}")
        w(d, "else:")
        val, cost, effect = self.tile_op(d + 1, s, False, costed, defined, fast=False)
        if costed:
            for local, part in (("_L", cost.load), ("_H", cost.hbm)):
                if part != local:
                    w(d + 1, f"{local} = {part}")
            cost = _Cost(load="_L", hbm="_H")
        return val, cost, effect

    def dtype_const(self, d: int, spec: Any) -> str | None:
        try:
            return self.const(resolve_dtype(spec))
        except ShapeError as exc:
            self.raise_(d, "_ShapeError", str(exc))
            return None

    # ------------------------------------------------------------ statements

    def charge(self, d: int, cost: _Cost, category: str) -> None:
        """Advance simulated time for a cost, as ``max(compute + load,
        hbm arrival - t0)``, yielding only a positive duration."""
        parts = [p for p in (cost.compute, cost.load) if p is not None]
        if not parts and cost.hbm is None:
            return
        busy = " + ".join(parts) if parts else "0.0"
        w = self.w
        w(d, "_t0 = _sim.now")
        if busy in self.prologue_ids.values() and cost.hbm is None:
            # a constant duration: one Timeout per block, yielded per tile
            w(d, f"if {busy} > 0:")
            w(d + 1, f"yield {self.pre('_to', f'_timeout({busy})')} or _Timeout({busy})")
            self.trace(d + 1, category)
            return
        if cost.hbm is not None:
            w(d, f"_hb = {cost.hbm}")
            w(d, f"_du = max({busy}, (_dev.reserve_hbm(_hb) if _hb > 0 "
                 "else _t0) - _t0)")
        else:
            w(d, f"_du = {busy}")
        w(d, "if _du > 0:")
        w(d + 1, "yield _Timeout(_du)")
        self.trace(d + 1, category)

    def trace(self, d: int, category: str) -> None:
        self.w(d, "if _tr and _sim.now > _t0:")
        self.w(d + 1, f"_m.record(_rank, {category!r}, _label, _t0, _sim.now)")

    def assign(self, d: int, s: TileOp, val: str | None,
               defined: set[str]) -> set[str]:
        if s.target is None or val is None:
            return defined
        v = self.svar(s.target) if s.op == "load_scalar" else self.tvar(s.target)
        self.w(d, f"{v} = {val}")
        return defined | {v}

    def body(self, stmts: list[Stmt], d: int, mode: str, defined: set[str],
             acc: tuple[str, str, str] | None = None) -> set[str]:
        """Emit a statement block; returns the names definitely assigned
        after it."""
        start = len(self.lines)
        for s in stmts:
            lineno = getattr(s, "lineno", None)
            if lineno is not None:
                self.w(d, f"# line {lineno}")
            defined = self.stmt(s, d, mode, defined, acc)
        if all(ln.lstrip().startswith("#") for ln in self.lines[start:]):
            self.w(d, "pass")
        return defined

    def stmt(self, s: Stmt, d: int, mode: str, defined: set[str],
             acc: tuple[str, str, str] | None) -> set[str]:
        w = self.w
        if isinstance(s, AssignScalar):
            v = self.svar(s.target)
            w(d, f"{v} = {self.x(s.value, defined)}")
            return defined | {v}
        if isinstance(s, TileOp):
            if mode == _TIMED:
                return self.timed_tile_op(s, d, defined)
            val, cost, effect = self.tile_op(
                d, s, numeric=mode == _REPLAY, costed=mode == _PROBE,
                defined=defined)
            if mode == _PROBE:
                for total, part in zip(acc, (cost.compute, cost.load, cost.hbm)):
                    if part is not None:
                        w(d, f"{total} += {part}")
            for line in effect:
                w(d, line)
            return self.assign(d, s, val, defined)
        if isinstance(s, If):
            w(d, f"if {self.x(s.cond, defined)}:")
            then = self.body(s.then, d + 1, mode, defined, acc)
            if s.orelse:
                w(d, "else:")
                orelse = self.body(s.orelse, d + 1, mode, defined, acc)
            else:
                orelse = defined
            return then & orelse
        if isinstance(s, For):
            self.loop(s, d, mode, defined, acc)
            return defined
        if isinstance(s, Return):
            w(d, "return")
            return defined
        if isinstance(s, Primitive) and mode == _TIMED:
            return self.primitive(s, d, defined)
        if mode == _PROBE and not isinstance(s, Primitive):
            return defined  # the reference cost probe skips unknown statements
        if mode == _TIMED:
            self.raise_(d, "_LoweringError", f"unknown statement {type(s).__name__}")
        else:
            self.raise_(d, "_LoweringError", "primitive inside aggregable loop")
        return defined

    def timed_tile_op(self, s: TileOp, d: int, defined: set[str]) -> set[str]:
        slot = self.slots.get(id(s))
        if slot is not None:
            # prefetched at iteration start: free at its use point
            self.w(d, f"if {slot} is not None:")
            if s.target is not None:
                self.w(d + 1, f"{self.tvar(s.target)} = {slot}")
            self.w(d + 1, f"{slot} = None")
            self.w(d, "else:")
            d += 1
        val, cost, effect = self.tile_op(d, s, numeric=self.execute, costed=True,
                                         defined=defined)
        if val is not None and s.target is not None and s.op != "load_scalar":
            # the tile is assigned before its cost is charged; nothing else
            # can observe the block's locals while it is suspended
            defined = self.assign(d, s, val, defined)
            val = None
        self.charge(d, cost, "compute")
        for line in effect:
            self.w(d, line)
        return self.assign(d, s, val, defined)

    # ----------------------------------------------------------------- loops

    def loop_range(self, s: For, d: int,
                   defined: set[str]) -> tuple[str, str | None]:
        """Emit the loop's ``range`` (step 0 raises).

        Returns its local and, when the bounds are constant, its trip count
        as a literal.
        """
        it = self.fresh("_it")
        bounds = [self.int_x(e, defined) for e in (s.start, s.stop, s.step)]
        lo, hi, step = bounds
        if _int_literal(step) is not None:
            if _int_literal(step) == 0:
                self.raise_(d, "_SimulationError", "loop step of 0")
                return it, None
            self.w(d, f"{it} = range({lo}, {hi}, {step})")
            if all(_int_literal(b) is not None for b in bounds):
                return it, str(len(range(*map(_int_literal, bounds))))
            return it, None
        self.w(d, f"_lo, _hi, _sp = {lo}, {hi}, {step}")
        self.w(d, "if _sp == 0:")
        self.raise_(d + 1, "_SimulationError", "loop step of 0")
        self.w(d, f"{it} = range(_lo, _hi, _sp)")
        return it, None

    def loop(self, s: For, d: int, mode: str, defined: set[str],
             acc: tuple[str, str, str] | None) -> None:
        w = self.w
        it, trips = self.loop_range(s, d, defined)
        n = trips or f"len({it})"
        v = self.svar(s.var)
        inner = defined | {v}
        if mode == _PROBE:
            # price the first iteration, scaled by the trip count
            w(d, f"if {it}:")
            w(d + 1, f"{v} = {it}[0]")
            sub = self.accumulators(d + 1)
            self.body(s.body, d + 1, _PROBE, inner, sub)
            pc, pl, ph = sub
            per = f"max({pl}, {pc})" if s.pipelined else f"({pl} + {pc})"
            w(d + 1, f"{acc[0]} += {n} * {per}")
            w(d + 1, f"{acc[2]} += {n} * {ph}")
            return
        if mode == _REPLAY:
            w(d, f"for {v} in {it}:")
            self.body(s.body, d + 1, _REPLAY, inner)
            return
        if s.aggregable:
            # a constant trip count picks the loop's one reachable path
            if trips is not None and int(trips) > 1:
                self.aggregated(s, it, n, d, inner)
                return
            if trips is None:
                w(d, f"if {n} > 1:")
                self.aggregated(s, it, n, d + 1, inner)
                w(d, "else:")
                d += 1
        w(d, f"for {v} in {it}:")
        if s.pipelined:
            self.prefetch(s, d + 1, inner)
        self.body(s.body, d + 1, _TIMED, inner)

    def accumulators(self, d: int) -> tuple[str, str, str]:
        names = (self.fresh("_pc"), self.fresh("_pl"), self.fresh("_ph"))
        self.w(d, f"{names[0]} = {names[1]} = {names[2]} = 0.0")
        return names

    def aggregated(self, s: For, it: str, n: str, d: int,
                   inner: set[str]) -> None:
        """Analytic pricing of a primitive-free loop of ``n`` > 1 trips
        (+ numeric replay)."""
        w = self.w
        w(d, f"{self.svar(s.var)} = {it}[0]")
        static = self.static_probe(s, n, inner)
        if static is None:
            after = self.probe(s, n, d, inner)
        else:
            guard, lines, after = static
            if guard is not None:
                w(d, f"if {guard}:")
            for line in lines:
                w(d + (guard is not None), line)
            if guard is not None:
                w(d, "else:")  # a tensor without a local instance
                self.probe(s, n, d + 1, inner)
        w(d, "_t0 = _sim.now")
        w(d, "yield _Timeout(max(_tot, (_dev.reserve_hbm(_hb) if _hb > 0 "
             "else _t0) - _t0))")
        self.trace(d, "compute")
        if self.execute:
            w(d, f"for {self.svar(s.var)} in {it}:")
            self.body(s.body, d + 1, _REPLAY, after)

    def probe(self, s: For, n: str, d: int, inner: set[str]) -> set[str]:
        """Emit the cost probe of an aggregated loop's first iteration and
        its ``_tot``/``_hb``; returns the names defined after it."""
        pc, pl, ph = self.accumulators(d)
        after = self.body(s.body, d, _PROBE, inner, (pc, pl, ph))
        tot, hb = self.totals(s, n, pc, pl, ph)
        self.w(d, f"_tot = {tot}")
        self.w(d, f"_hb = {hb}")
        return after

    def totals(self, s: For, n: str, pc: str, pl: str, ph: str) -> tuple[str, str]:
        """An aggregated loop's busy time and HBM bytes from its probe."""
        per = f"max({pl}, {pc})" if s.pipelined else f"{pl} + {pc}"
        return f"_mma + {n} * ({per})", f"{n} * {ph} * {AGG_DRAM_DISCOUNT!r}"

    def static_probe(self, s: For, n: str, defined: set[str],
                     ) -> tuple[str | None, list[str], set[str]] | None:
        """The probe of an aggregable loop whose every tile op is static,
        with a constant trip count: its totals become prologue constants.

        Returns ``(guard, lines, defined after)``: ``guard`` names the
        prologue flag under which ``lines`` replace the probe (None: they
        always do); ``lines`` keep the probe's scalar statements, the
        evaluations that may raise and the tile assignments, in order.
        """
        if _int_literal(n) is None:
            return None
        mark, ids = len(self.prologue), dict(self.prologue_ids)
        lines: list[str] = []
        binds: list[str] = []
        costs: list[_Cost] = []
        for t in s.body:
            fast = self.static_op(t, defined) if isinstance(t, TileOp) else None
            if fast is None and not isinstance(t, AssignScalar):
                # work that depends on the tile: drop what was hoisted
                del self.prologue[mark:]
                self.prologue_ids = ids
                return None
            if t.lineno is not None:
                lines.append(f"# line {t.lineno}")
            if fast is None:
                v = self.svar(t.target)
                lines.append(f"{v} = {self.x(t.value, defined)}")
                defined = defined | {v}
                continue
            lines += fast.checks
            if fast.bind is not None:
                binds.append(fast.bind)
            costs.append(fast.cost)
            if fast.value is not None and t.target is not None:
                v = self.tvar(t.target)
                lines.append(f"{v} = {fast.value}")
                defined = defined | {v}
            elif fast.value is not None and not fast.value.isidentifier():
                lines.append(fast.value)
        # the probe's accumulation, statement for statement (same float order)
        acc = pc, pl, ph = (self.fresh("_pc"), self.fresh("_pl"), self.fresh("_ph"))
        self.prologue.append(f"{pc} = {pl} = {ph} = 0.0")
        for cost in costs:
            for total, part in zip(acc, (cost.compute, cost.load, cost.hbm)):
                if part is not None:
                    self.prologue.append(f"{total} += {part}")
        tot, hb = self.totals(s, n, pc, pl, ph)
        lines.append(f"_tot = {self.pre('_tot', tot)}")
        lines.append(f"_hb = {self.pre('_hb', hb)}")
        return self.guard(binds), lines, defined

    def prefetch(self, s: For, d: int, defined: set[str]) -> None:
        """Hoist the loop's prefetchable loads to iteration start.

        Address scalars are recomputed into temporaries from the body's
        top-level scalar statements; a statement that cannot be evaluated
        yet ends the prefetch (later loads run in place).  Values are
        snapshotted now, before any wait of the body: safe only for loads
        the consistency pass left unpinned.
        """
        loads = [i for i, t in enumerate(s.body)
                 if isinstance(t, TileOp) and t.prefetchable
                 and t.op in ("load", "load_vec")]
        if not loads:
            return
        self.w(d, "for _ in _ONCE:")
        rename: dict[str, str] = {}
        for t in s.body[:loads[-1] + 1]:
            if isinstance(t, AssignScalar):
                tmp = self.fresh("_q")
                self.w(d + 1, "try:")
                self.w(d + 2, f"{tmp} = {self.x(t.value, defined, rename)}")
                self.w(d + 1, "except _LoweringError:")
                self.w(d + 2, "break")
                rename[t.target] = tmp
            elif isinstance(t, TileOp) and t.prefetchable and t.op in ("load", "load_vec"):
                slot = self.slots.setdefault(id(t), self.fresh("_pf"))
                self.w(d + 1, "try:")
                self.tile_op(d + 2, t, numeric=self.execute, costed=False,
                             defined=defined, rename=rename)
                self.w(d + 2, f"{slot} = _val")
                self.w(d + 1, "except (_LoweringError, _ShapeError):")
                self.w(d + 2, "pass")

    # ------------------------------------------------------------ primitives

    def primitive(self, s: Primitive, d: int, defined: set[str]) -> set[str]:
        w = self.w
        name = s.name
        if self.ir.channel_param is None:
            self.raise_(d, "_LoweringError", self._no_channel_msg())
            return defined
        args, kw = s.args, s.kwargs
        ix = functools.partial(self.int_x, defined=defined)

        def bank(attr: str) -> str:
            # a channel's banks are fixed for a launch: read once per block
            return self.pre("_cb", f"_ch.{attr}")

        if name == "tile_pull_data":
            w(d, "_t0 = _sim.now")
            ref = args[0]
            if not isinstance(ref, TensorRef):
                self.raise_(d, "_LoweringError", "tile_pull_data needs a tensor argument")
                return defined
            tn = ix(args[2]) if len(args) > 2 else "0"
            w(d, f"_val, _dl = _pull(_ch, _bindings, {ref.name!r}, {ix(args[1])}, "
                 f"{tn}, _m, _rank, {self.execute})")
            w(d, "if _dl > 0:")
            w(d + 1, "yield _Timeout(_dl)")
            self.trace(d, "comm")
            if s.target is None:
                return defined
            w(d, f"{self.tvar(s.target)} = _val")
            return defined | {self.tvar(s.target)}

        if name == "producer_tile_notify":
            w(d, f"_tid = {ix(args[0])}")
            mode = args[1] if len(args) > 1 else kw.get("mode", "p2p")
            if mode == "broadcast":
                # dynamic fan-out: one tile feeds several local channels
                w(d, "if _ch.notify_counts is not None:")
                w(d + 1, "for _ci, _amt in enumerate(_ch.notify_counts[_tid]):")
                w(d + 2, "if _amt > 0:")
                w(d + 3, f"{bank('barriers')}.post_add(int(_ci), int(_amt), from_rank=_rank)")
                w(d, "else:")
                w(d + 1, "_cix = _ch.producer_channel(_tid)")
                w(d + 1, "for _dst in range(_ch.num_ranks):")
                w(d + 2, f"{bank('all_barriers')}[_dst].post_add(_cix, 1, from_rank=_rank)")
            elif mode == "p2p":
                w(d, "_cix = _ch.producer_channel(_tid)")
                target = kw.get("to")
                if target is not None:
                    w(d, f"_dst = {ix(target)}")
                else:
                    mapped = self.pre("_nt", '_ch.notify_target == "mapped"')
                    w(d, f"_dst = _ch.producer_rank(_tid) if {mapped} else _rank")
                w(d, f"{bank('all_barriers')}[_dst].post_add(_cix, 1, from_rank=_rank)")
            else:
                w(d, "_ch.producer_channel(_tid)")
                self.raise_(d, "_LoweringError", f"unknown notify mode {mode!r}")
            return defined

        if name == "consumer_tile_wait":
            w(d, f"_tid = {ix(args[0])}")
            w(d, "_t0 = _sim.now")
            w(d, "for _ci, _th in _ch.consumer_wait_list(_tid):")
            w(d + 1, f"yield {bank('barriers')}.wait_geq(_ci, _th)")
            self.trace(d, "sync")
            return defined

        if name in ("peer_tile_notify", "peer_tile_wait"):
            w(d, f"_cell = {ix(args[0])}")
            w(d, f"_pr = {ix(args[1])}")
            if name == "peer_tile_wait":
                w(d, f"_cnt = {ix(kw['count']) if 'count' in kw else '1'}")
            peers = bank("all_peer_barriers")
            w(d, f"if not {peers}:")
            self.raise_(d + 1, "_LoweringError", "BlockChannel has no peer barriers")
            if name == "peer_tile_notify":
                w(d, f"{peers}[_pr].post_add(_cell, 1, from_rank=_rank)")
                return defined
            w(d, "_t0 = _sim.now")
            w(d, f"yield {peers}[_pr].wait_geq(_cell, _cnt)")
            self.trace(d, "sync")
            return defined

        if name == "tile_push_data":
            ref = args[0]
            if not isinstance(ref, TensorRef):
                self.raise_(d, "_LoweringError", "tile_push_data needs a tensor argument")
                return defined
            w(d, f"_tm = {ix(args[1])}")
            w(d, f"_tn = {ix(args[2])}")
            w(d, f"_v = {self.operand(args[3], defined)}")
            w(d, "if _ch.comm_grid is None:")
            self.raise_(d + 1, "_LoweringError", "tile_push_data needs a comm grid")
            self.tensor(d, ref, defined)
            w(d, "_rg = _ch.comm_grid.ranges(_ch.comm_grid.tile_id(_tm, _tn))")
            w(d, "if _o == _rank:")
            self.charge(d + 1, _Cost(load="_v.nbytes / _feed", hbm="_v.nbytes"), "comm")
            if self.execute:
                w(d + 1, "_T.write_tile(_rg, _v.data)")
            w(d, "else:")
            w(d + 1, "_t0 = _sim.now")
            w(d + 1, '_st, _ar = _ic.reserve(_rank, _o, _v.nbytes, "p2p")')
            w(d + 1, "_dl = max(0.0, _ar - _sim.now)")
            if self.execute:
                w(d + 1, "_sim.call_later(_dl, _partial(_T.write_tile, _rg, _v.data))")
            w(d + 1, "if _dl > 0:")
            w(d + 2, "yield _Timeout(_dl)")
            self.trace(d + 1, "comm")
            return defined

        self.raise_(d, "_LoweringError", f"unsupported primitive {name!r}")
        return defined

    # ------------------------------------------------------------------- top

    def build(self) -> BlockFn:
        src = self.source()
        program, mode = self.program, "numeric" if self.execute else "timing"
        # one file name per program: specializations of a kernel differ
        filename = str(Path(__file__).with_name(
            f"<lowered {program.name} {mode} #{next(_PROGRAM_IDS)}>"))
        # tracebacks regenerate the source on demand instead of keeping it
        ref = weakref.ref(program)
        execute = self.execute

        def lines() -> str | None:
            prog = ref()
            return None if prog is None else _Lowering(prog, execute).source()
        linecache.cache[filename] = (lines,)
        weakref.finalize(program, linecache.cache.pop, filename, None)
        exec(compile(src, filename, "exec"), self.ns)
        return self.ns["_block"]

    def source(self) -> str:
        ir, program = self.ir, self.program
        defined = {self.svar("$bid"), self.svar("$nblocks")}
        defined |= {self.svar(p) for p in self.constexpr_locals}
        mode = "numeric" if self.execute else "timing"
        self.flow(ir.body, {})
        self.body(ir.body, 1, _TIMED, defined)
        body, self.lines = self.lines, []
        w = self.w
        w(0, f"# {program.name} lowered for {mode} mode")
        w(0, "def _block(_m, _rank, _bid, _nblocks, _bindings, _label):")
        w(1, "_sim = _m.sim")
        w(1, "_dev = _m.device(_rank)")
        w(1, "_cost = _m.cost")
        w(1, "_ic = _m.interconnect")
        w(1, "_tr = _m.config.trace")
        w(1, "_feed = _cost.spec.smem_bandwidth_per_sm")
        w(1, "_pstf = _cost.per_sm_tensor_flops")
        w(1, "_psvf = _cost.per_sm_vector_flops")
        w(1, "_mma = _cost.MMA_PROLOGUE")
        kn = self.const(program.name)
        if ir.channel_param is not None:
            w(1, f"_ch = _channel(_bindings, {ir.channel_param!r}, {kn})")
        w(1, f"{self.svar('$bid')} = _bid")
        w(1, f"{self.svar('$nblocks')} = _nblocks")
        for p in self.constexpr_locals:
            w(1, f"{self.svar(p)} = {self.const(program.constexprs[p])}")
        for p in program.tensor_params:
            w(1, f"if {p!r} not in _bindings:")
            self.raise_(2, "_RuntimeLaunchError",
                        f"kernel {program.name!r} missing argument {p!r}")
            v = self.svar(p)
            if v in self.unset:
                w(1, f"{v} = _scalar_binding(_bindings[{p!r}])")
        for ref_name, h in self.hoisted.items():
            w(1, f"{h} = _local_binding(_bindings.get({ref_name!r}), "
                 f"{ref_name!r}, _rank)")
        params = {self.svar(p) for p in program.tensor_params}
        for v in sorted(self.unset - defined - params):
            w(1, f"{v} = _U")
        for slot in self.slots.values():
            w(1, f"{slot} = None")
        if self.prologue:
            w(1, "# per-block constants of the static tile shapes")
        for line in self.prologue:
            w(1, line)
        self.lines.extend(body)
        w(1, "return")
        w(1, "yield  # the block is a generator even without timed work")
        return "\n".join(self.lines) + "\n"
