"""Regenerate or staleness-check the shipped tuner warm cache.

``benchmarks/warm_cache.json`` is a checked-in :class:`repro.tuner.TuneCache`
file holding the exhaustive-search winners for the Figure-8 MLP,
Table-4 MoE and Figure-10 attention shape tables (world=8, H800).
When it resolves, the ``*_builders`` in :mod:`repro.bench.experiments`
default to ``tuned=True`` and the Figure-8/9/10 tables grow a
TileLink-tuned column at zero simulation cost — every tuned-column
lookup is a warm hit.

Cache keys embed the hardware-spec and search-space fingerprints, so any
change to a kernel's design space (or to ``HardwareSpec``) silently
orphans the shipped entries.  ``--check`` recomputes every expected key
from the *current* code and fails when the file drifted; CI runs it so a
space change cannot land without a refresh:

    python benchmarks/refresh_warm_cache.py --check      # CI tripwire
    python benchmarks/refresh_warm_cache.py --workers 4  # regenerate
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path

from repro.bench.experiments import registry_sweep_tasks
from repro.config import H800
from repro.tuner import TuneCache, sweep, task_cache_key

WORLD = 8
DEFAULT_PATH = Path(__file__).resolve().parent / "warm_cache.json"


def expected_tasks():
    """The task table the warm cache must cover (and nothing else),
    derived from the kernel-family registry: every family with a
    ``warm_tasks`` hook contributes its shape table (Figure-8 MLP,
    Table-4 MoE and Figure-10 attention shapes)."""
    return registry_sweep_tasks(world=WORLD, spec=H800)


def expected_keys() -> dict[str, str]:
    """name -> current full cache key, recomputed from the live spaces."""
    return {name: task_cache_key(task, world=WORLD, spec=H800)
            for name, task in expected_tasks()}


def check(path: Path) -> int:
    if not path.is_file():
        print(f"STALE: {path} does not exist — run "
              f"`python benchmarks/refresh_warm_cache.py`", file=sys.stderr)
        return 1
    cache = TuneCache(path, readonly=True)
    expected = expected_keys()
    missing = sorted(name for name, key in expected.items()
                     if key not in cache)
    extra = sorted(set(cache.keys()) - set(expected.values()))
    if missing or extra:
        for name in missing:
            print(f"STALE: no entry for {name} (space/spec fingerprint "
                  f"changed?)", file=sys.stderr)
        for key in extra:
            print(f"STALE: orphaned entry {key}", file=sys.stderr)
        print(f"STALE: refresh with `python benchmarks/refresh_warm_cache.py`",
              file=sys.stderr)
        return 1
    print(f"OK: {path} — {len(expected)} entries match the current space "
          f"fingerprints")
    return 0


def refresh(path: Path, workers: int) -> int:
    tasks = expected_tasks()
    print(f"Refreshing {path}: {len(tasks)} tuning tasks "
          f"(world={WORLD}, workers={workers}) ...")
    # sweep into a fresh sibling file, then atomically replace the target:
    # a refreshed cache contains exactly the expected entries, never a
    # merge with whatever was shipped before.
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name,
                               suffix=".tmp")
    os.close(fd)
    os.unlink(tmp)          # TuneCache wants to create the file itself
    try:
        t0 = time.time()
        report = sweep(tasks, world=WORLD, cache=TuneCache(tmp),
                       workers=workers, progress=print)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    finally:
        # drop the flock sidecar the temp cache left behind
        if os.path.exists(tmp + ".lock"):
            os.unlink(tmp + ".lock")
    print()
    print(report.format("Warm-cache refresh"))
    print(f"\n{report.n_simulated} simulations, {time.time() - t0:.1f}s "
          f"wall -> {path}")
    return check(path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="verify the shipped cache against the current "
                             "space fingerprints instead of regenerating")
    parser.add_argument("--out", type=Path, default=DEFAULT_PATH,
                        help=f"cache file to write/check "
                             f"(default: {DEFAULT_PATH})")
    parser.add_argument("--workers", type=int,
                        default=max(1, os.cpu_count() or 1),
                        help="sweep process-pool width (default: cpu count)")
    args = parser.parse_args(argv)
    if args.check:
        return check(args.out)
    return refresh(args.out, args.workers)


if __name__ == "__main__":
    sys.exit(main())
