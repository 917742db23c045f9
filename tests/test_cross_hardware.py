"""Cross-hardware checks: the same kernels run unmodified on other specs.

The paper's §7.4 notes TileLink's primitives and compilation are
target-independent (porting means swapping the low-level backend).  Here
the analog is the :class:`HardwareSpec`: every kernel runs unmodified on
the A100 spec, and the *physics* respond as expected — a fatter NVLink
(A100: 300 GB/s per direction vs H800's 200) shrinks the communication
share, while fewer/slower tensor cores stretch the compute share.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest

from repro.config import A100, H800, HardwareSpec, SimConfig
from repro.kernels.ag_gemm import AgGemmConfig, ag_gemm_overlapped
from repro.runtime.context import DistContext


def _run(spec, numerics, m=8192, n=512, k=4096, world=8):
    cfg = SimConfig(world_size=world, execute_numerics=numerics, spec=spec,
                    seed=0)
    ctx = DistContext.create(cfg)
    rng = np.random.default_rng(0)
    if numerics:
        ctx.bind("x", [rng.standard_normal((m // world, k)).astype(np.float16)
                       for _ in range(world)])
        ctx.bind("w", [rng.standard_normal((k, n)).astype(np.float16)
                       for _ in range(world)])
    else:
        ctx.alloc("x", (m // world, k), "float16")
        ctx.alloc("w", (k, n), "float16")
    ctx.alloc("y", (m, n), "float16")
    kcfg = AgGemmConfig(m=m, n=n, k=k, mode="dma")
    ag_gemm_overlapped(ctx, kcfg, "x", "w", "y")
    total = ctx.run()
    return total, ctx


def test_kernels_run_unmodified_on_a100():
    total, ctx = _run(A100, numerics=True, m=1024, n=64, k=64, world=4)
    assert total > 0
    full = np.concatenate([ctx.heap.tensor("x", r).numpy()
                           for r in range(4)]).astype(np.float32)
    ref = full @ ctx.heap.tensor("w", 0).numpy().astype(np.float32)
    got = ctx.heap.tensor("y", 0).numpy().astype(np.float32)
    assert np.max(np.abs(got - ref)) < 0.5


def test_link_bandwidth_drives_comm_time():
    """A100's 1.5x fatter per-direction NVLink shortens the comm-bound
    AG+GEMM despite its ~3x weaker tensor cores."""
    t_h800, _ = _run(H800, numerics=False)
    t_a100, _ = _run(A100, numerics=False)
    # this shape is communication-bound: the faster link wins
    assert t_a100 < t_h800


def test_compute_bound_shape_favors_h800():
    # deep K, narrow comm: compute dominates, H800's tensor cores win
    t_h800, _ = _run(H800, numerics=False, m=1024, n=4096, k=8192, world=8)
    t_a100, _ = _run(A100, numerics=False, m=1024, n=4096, k=8192, world=8)
    assert t_h800 < t_a100


def test_spec_knob_sweeps_monotonically():
    """Shrinking NVLink bandwidth monotonically slows the comm-bound run."""
    times = []
    for egress in (300e9, 200e9, 100e9):
        spec = H800.scaled(nvlink_egress=egress, nvlink_ingress=egress)
        t, _ = _run(spec, numerics=False)
        times.append(t)
    assert times[0] < times[1] < times[2]


_RATES = ("n_sms", "tensor_flops", "tensor_efficiency", "vector_flops",
          "smem_bandwidth_per_sm")


@pytest.mark.parametrize("value", [0, -1.0, float("nan")], ids=["zero", "negative", "nan"])
@pytest.mark.parametrize("field", _RATES)
def test_spec_rejects_non_positive_rates(field, value):
    """Kernels divide by these rates; a spec that would make a cost
    infinite or NaN is refused at construction, naming the field."""
    with pytest.raises(ValueError, match=rf"HardwareSpec\.{field} must be positive"):
        H800.scaled(**{field: value})
    with pytest.raises(ValueError, match=rf"HardwareSpec\.{field} must be positive"):
        HardwareSpec(**{**asdict(H800), field: value})
