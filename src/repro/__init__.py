"""TileLink reproduction: tile-centric compute-communication overlap.

A faithful, simulator-backed reproduction of *TileLink: Generating
Efficient Compute-Communication Overlapping Kernels using Tile-Centric
Primitives* (MLSys 2025).  See DESIGN.md for the system inventory and
README.md for a tour.

Public entry points:

* :class:`repro.config.SimConfig` / :class:`repro.config.HardwareSpec` --
  simulated-testbed configuration (H800 node by default);
* :class:`repro.runtime.DistContext` -- the distributed job: symmetric
  heap, streams, host primitives;
* :func:`repro.lang.kernel` + ``repro.lang.tl`` -- the tile DSL and the
  nine tile-centric primitives;
* :mod:`repro.kernels` -- the overlapped kernel zoo (AG+GEMM, GEMM+RS,
  AG+MoE, MoE+RS, AG-KV+attention, full layers);
* :mod:`repro.baselines` -- cuBLAS+NCCL / Async-TP / FLUX / vLLM baselines;
* :mod:`repro.bench` -- the per-figure experiment drivers;
* :mod:`repro.tuner` -- autotuning over the decoupled design space
  (``tune(ag_gemm_tune_task(...))``, persistent cache).
"""

from repro.config import H800, A100, HardwareSpec, SimConfig
from repro.runtime.context import DistContext

__version__ = "0.1.0"

__all__ = ["A100", "DistContext", "H800", "HardwareSpec", "SimConfig",
           "__version__"]
