"""SPMD runtime: distributed context, kernel launcher, profiling helpers."""

from repro.runtime.context import DistContext
from repro.runtime.launcher import launch_kernel

__all__ = ["DistContext", "launch_kernel"]
