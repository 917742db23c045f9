"""Analytic pre-filter for tuner candidates (the *prune* stage).

Running every candidate through the discrete-event simulator is the
expensive part of autotuning (hundreds of milliseconds each at paper
scale).  But an overlapped kernel can never beat the slower of its two
halves: total time is lower-bounded by

* the **compute floor** — wave-quantized GEMM time on the SMs left to the
  consumer (``ceil(tiles / sms)`` waves priced by
  :meth:`repro.sim.costmodel.CostModel.gemm_tile_time`, plus the HBM
  epilogue floor), and
* the **communication floor** — the bytes every rank must move across its
  NVLink, at p2p efficiency, additionally throttled by
  ``comm_blocks * sm_copy_bandwidth`` when the transport is SM ``ld/st``
  loops instead of the copy engine.

:func:`prune` evaluates those closed-form bounds for every candidate and
discards any whose *lower bound* already exceeds the incumbent (the
simulated time of the best config seen so far, seeded with the hand-picked
default).  Only survivors — sorted most-promising-first — reach the
simulator.  Because the bound is conservative it never discards a config
that could actually win, up to the fidelity of the cost model itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.config import HardwareSpec
from repro.sim.costmodel import CostModel
from repro.tuner.space import Candidate

#: Modes whose transport is SM ld/st loops (throughput scales with the
#: number of communication blocks); everything else rides the copy engine.
SM_TRANSPORT_MODES = frozenset({"pull", "push", "ring"})


def gemm_wave_time(spec: HardwareSpec, m: int, n: int, k: int, *,
                   block_m: int, block_n: int, block_k: int,
                   n_sms: int, dtype_bytes: int = 2) -> float:
    """Wave-quantized GEMM makespan on ``n_sms`` SMs (compute floor).

    Delegates to :meth:`CostModel.gemm_time_monolithic` so the pruner's
    floor and the simulator's calibration can never drift apart.
    """
    return CostModel(spec).gemm_time_monolithic(
        m, n, k, dtype_bytes=dtype_bytes, n_sms=max(1, n_sms),
        bm=block_m, bn=block_n, bk=block_k)


def link_transfer_time(spec: HardwareSpec, nbytes: float, *,
                       sm_blocks: int | None = None) -> float:
    """Floor for moving ``nbytes`` through one rank's NVLink port.

    ``sm_blocks`` set means SM-driven transport: the copy loop may not
    even saturate the link, so the floor is the max of the link time and
    the aggregate SM copy throughput.
    """
    t = nbytes / (spec.nvlink_ingress * spec.p2p_protocol_efficiency)
    if sm_blocks is not None:
        t = max(t, nbytes / max(1, sm_blocks) / spec.sm_copy_bandwidth)
    return t


def ag_gemm_lower_bound(cand: Candidate, *, m: int, n: int, k: int,
                        world: int, spec: HardwareSpec,
                        dtype_bytes: int = 2) -> float:
    """Closed-form lower bound for one AG+GEMM candidate.

    AllGather moves ``(world-1)/world`` of the gathered activation into
    every rank; the consumer GEMM covers the full (m x n) output with the
    SMs not reserved for communication.
    """
    mode = cand.get("mode", "dma")
    comm_blocks = int(cand.get("comm_blocks", 0))
    sm_comm = mode in SM_TRANSPORT_MODES
    consumer_sms = spec.n_sms - (comm_blocks if sm_comm else 0)
    compute = gemm_wave_time(
        spec, m, n, k,
        block_m=int(cand.get("block_m", 128)),
        block_n=int(cand.get("block_n", 128)),
        block_k=int(cand.get("block_k", 64)),
        n_sms=consumer_sms, dtype_bytes=dtype_bytes)
    comm_bytes = (world - 1) * (m // world) * k * dtype_bytes
    comm = link_transfer_time(spec, comm_bytes,
                              sm_blocks=comm_blocks if sm_comm else None)
    return max(compute, comm)


def gemm_rs_lower_bound(cand: Candidate, *, m: int, n: int, k: int,
                        world: int, spec: HardwareSpec,
                        dtype_bytes: int = 2) -> float:
    """Closed-form lower bound for one GEMM+RS candidate.

    The producer GEMM covers the full (m x n) partial; ReduceScatter sends
    ``world - 1`` remote segments of ``(m/world x n)`` out of each rank.
    """
    mode = cand.get("mode", "hybrid")
    comm_blocks = int(cand.get("comm_blocks", 0))
    sm_comm = mode in SM_TRANSPORT_MODES
    producer_sms = spec.n_sms - (comm_blocks if sm_comm else 0)
    compute = gemm_wave_time(
        spec, m, n, k,
        block_m=int(cand.get("block_m", 128)),
        block_n=int(cand.get("block_n", 128)),
        block_k=int(cand.get("block_k", 64)),
        n_sms=producer_sms, dtype_bytes=dtype_bytes)
    comm_bytes = (world - 1) * (m // world) * n * dtype_bytes
    comm = link_transfer_time(spec, comm_bytes,
                              sm_blocks=comm_blocks if sm_comm else None)
    return max(compute, comm)


def ag_moe_lower_bound(cand: Candidate, *, m: int, h: int, d: int,
                       world: int, spec: HardwareSpec, topk: int = 2,
                       grouped_rows: int | None = None,
                       dtype_bytes: int = 2) -> float:
    """Closed-form lower bound for one AG+MoE-GroupGEMM candidate.

    The token AllGather rides the copy engine (no SM reservation); the
    grouped consumer GEMM covers at least ``m * topk`` grouped rows —
    expert padding only *adds* tiles, so the un-padded row count is a
    sound floor when the caller has no routing at hand.  Pass the actual
    ``routing.padded_rows`` as ``grouped_rows`` for a tighter bound.
    """
    rows = grouped_rows if grouped_rows is not None else m * topk
    compute = gemm_wave_time(
        spec, rows, d, h,
        block_m=int(cand.get("block_m", 128)),
        block_n=int(cand.get("block_n", 128)),
        block_k=int(cand.get("block_k", 64)),
        n_sms=spec.n_sms, dtype_bytes=dtype_bytes)
    comm_bytes = (world - 1) * (m // world) * h * dtype_bytes
    comm = link_transfer_time(spec, comm_bytes)
    return max(compute, comm)


def moe_rs_lower_bound(cand: Candidate, *, m: int, h: int, d: int,
                       world: int, spec: HardwareSpec, topk: int = 2,
                       grouped_rows: int | None = None,
                       dtype_bytes: int = 2) -> float:
    """Closed-form lower bound for one GroupGEMM+Scatter+TopkReduce+RS
    candidate.

    The producer grouped GEMM covers the grouped rows x ``h`` over depth
    ``d`` on all SMs (scatter-add and the final reduction only add work);
    the segment scatter ships ``world - 1`` fp32 partial segments of
    ``(m/world x h)`` out of every rank on the copy engine.
    """
    rows = grouped_rows if grouped_rows is not None else m * topk
    compute = gemm_wave_time(
        spec, rows, h, d,
        block_m=int(cand.get("block_m", 128)),
        block_n=int(cand.get("block_n", 128)),
        block_k=int(cand.get("block_k", 64)),
        n_sms=spec.n_sms, dtype_bytes=dtype_bytes)
    comm_bytes = (world - 1) * (m // world) * h * 4  # fp32 partials
    comm = link_transfer_time(spec, comm_bytes)
    return max(compute, comm)


def flash_segment_floor(spec: HardwareSpec, heads: int, sq: int, dim: int, *,
                        block_q: int, block_kv: int, n_sms: int,
                        steps: int) -> float:
    """Makespan floor of one flash-attention segment pass.

    Mirrors :func:`repro.ops.attention.flash_segment_time` so the pruner's
    attention floor and the simulator's per-segment pricing cannot drift.
    """
    cm = CostModel(spec)
    blocks = heads * math.ceil(sq / block_q)
    waves = math.ceil(blocks / max(1, n_sms))
    step_t = cm.flash_step_time(block_q, block_kv, dim)
    return waves * (cm.MMA_PROLOGUE + max(1, steps) * step_t)


def ag_attention_lower_bound(cand: Candidate, *, heads: int, head_dim: int,
                             seq_len: int, world: int, spec: HardwareSpec,
                             causal: bool = True,
                             dtype_bytes: int = 2) -> float:
    """Closed-form lower bound for one AG-KV + flash-attention candidate.

    The busiest rank sets the makespan floor: under causal masking the
    last rank attends to every KV segment (its own diagonal segment at
    half density); without masking every rank does.  The KV AllGather
    moves ``world - 1`` remote K and V segments into every rank on the
    copy engine.
    """
    s_per = seq_len // world
    bq = int(cand.get("block_q", 128))
    bkv = int(cand.get("block_kv", 128))
    n_sms = max(1, spec.n_sms - int(cand.get("comm_sms", 0)))
    steps_full = math.ceil(s_per / bkv)
    compute = 0.0
    for seg in range(world):
        frac = 0.5 if (causal and seg == world - 1) else 1.0
        compute += flash_segment_floor(
            spec, heads, s_per, head_dim, block_q=bq, block_kv=bkv,
            n_sms=n_sms, steps=math.ceil(steps_full * frac))
    width = heads * head_dim
    comm_bytes = 2.0 * (world - 1) * s_per * width * dtype_bytes  # K and V
    comm = link_transfer_time(spec, comm_bytes)
    return max(compute, comm)


def ring_attention_lower_bound(cand: Candidate, *, heads: int, head_dim: int,
                               seq_len: int, world: int,
                               spec: HardwareSpec) -> float:
    """Closed-form lower bound for one RingAttention candidate.

    The ring is lockstep: ``world`` steps, each a full-density chunk of
    flash compute (plain RingAttention neither skips masked chunks nor
    rebalances the causal triangle).  Hop latencies only add on top.
    """
    s_per = seq_len // world
    bq = int(cand.get("block_q", 128))
    bkv = int(cand.get("block_kv", 128))
    per_step = flash_segment_floor(
        spec, heads, s_per, head_dim, block_q=bq, block_kv=bkv,
        n_sms=spec.n_sms, steps=math.ceil(s_per / bkv))
    return world * per_step


@dataclass(frozen=True)
class PruneResult:
    """Outcome of the analytic pre-filter over one candidate list.

    ``survivors`` are sorted by ascending bound (most promising first) so
    the search lowers its incumbent as early as possible.
    """

    survivors: tuple[Candidate, ...]
    bounds: tuple[float, ...]          # bound of each survivor, same order
    n_total: int
    n_pruned: int

    @property
    def prune_fraction(self) -> float:
        return self.n_pruned / self.n_total if self.n_total else 0.0


def prune(candidates: Sequence[Candidate],
          bound_fn: Callable[[Candidate], float],
          incumbent: float) -> PruneResult:
    """Drop candidates whose lower bound exceeds ``incumbent`` (exact
    dominance: a candidate whose floor is already slower cannot win)."""
    if incumbent <= 0:
        raise ValueError("incumbent time must be positive")
    scored = [(bound_fn(c), c) for c in candidates]
    kept = sorted(((b, c) for b, c in scored if b <= incumbent),
                  key=lambda bc: bc[0])
    return PruneResult(
        survivors=tuple(c for _, c in kept),
        bounds=tuple(b for b, _ in kept),
        n_total=len(scored),
        n_pruned=len(scored) - len(kept),
    )
