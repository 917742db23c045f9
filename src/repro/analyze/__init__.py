"""repro.analyze: static synchronization verifier for tile-centric kernels.

Checks the producer/consumer signal protocol of the overlapped kernels
*without running them*: kernel IR is abstractly interpreted at small
concrete instantiations into per-thread event traces, a signal-flow graph
pairs every wait site with the notify sites feeding it, and the checkers
prove (or refute) deadlock-freedom, guarded tile reads, single
production and full output coverage.  ``python -m repro.analyze --all``
sweeps every registered kernel family.
"""

from repro.analyze.absint import interpret_launch
from repro.analyze.checks import (
    analyze_plan,
    check_coverage,
    check_races,
    check_schedule,
    check_thresholds,
)
from repro.analyze.findings import RULES, Finding, Report, dedupe
from repro.analyze.model import (
    AbstractBank,
    Event,
    LaunchPlan,
    PlanContext,
    Site,
    Thread,
)
from repro.analyze.registry import (
    FAMILIES,
    analyze_registered,
    check_compiled_ir,
    structural_check_ir,
)
from repro.analyze.sfg import SignalFlow

__all__ = [
    "AbstractBank",
    "Event",
    "FAMILIES",
    "Finding",
    "LaunchPlan",
    "PlanContext",
    "RULES",
    "Report",
    "SignalFlow",
    "Site",
    "Thread",
    "analyze_plan",
    "analyze_registered",
    "check_compiled_ir",
    "check_coverage",
    "check_races",
    "check_schedule",
    "check_thresholds",
    "dedupe",
    "interpret_launch",
    "structural_check_ir",
]
