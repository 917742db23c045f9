"""Tests for the parallel sweep execution layer (``tuner/parallel.py``).

The contract under test: ``sweep(tasks, workers=N)`` is a drop-in upgrade
of the serial driver — byte-identical ``SweepReport.rows()`` (entry
order, dedup labels, ``n_simulated`` accounting, winning configs), the
same shared-cache contents afterwards, a zero-simulation warm rerun, and
a crashing worker that can neither corrupt nor drop entries from the
shared cache file.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os

import pytest

from repro.bench.experiments import moe_sweep_tasks
from repro.kernels.ag_moe import ag_moe_tune_task
from repro.kernels.moe_rs import moe_rs_tune_task
from repro.models.configs import MOE_BENCHES
from repro.tuner import TuneCache, TunerError, sweep

SMALL_WORLD = 4

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process-pool sweep needs the fork start method")


def small_moe_task(m: int = 1024, **kw):
    return ag_moe_tune_task(m, 256, 256, 4, 2, world=SMALL_WORLD, **kw)


def aliasing_table():
    """Three distinct keys plus one alias of the first."""
    return [("first", small_moe_task()),
            ("alias", small_moe_task()),
            ("bigger", small_moe_task(m=2048)),
            ("rs", moe_rs_tune_task(1024, 256, 256, 4, 2,
                                    world=SMALL_WORLD))]


@needs_fork
def test_parallel_rows_byte_identical_to_serial(tmp_path):
    tasks = aliasing_table()
    serial = sweep(tasks, world=SMALL_WORLD,
                   cache=TuneCache(tmp_path / "serial.json"))
    par = sweep(tasks, world=SMALL_WORLD,
                cache=TuneCache(tmp_path / "par.json"), workers=2)

    assert json.dumps(par.rows(), sort_keys=True) == \
        json.dumps(serial.rows(), sort_keys=True)
    assert [e.deduped_from for e in par.entries] == \
        [e.deduped_from for e in serial.entries]
    assert par.n_simulated == serial.n_simulated > 0
    assert par.n_deduped == serial.n_deduped == 1
    # the merged shared cache holds exactly the serial run's keys
    assert set(TuneCache(tmp_path / "par.json").keys()) == \
        set(TuneCache(tmp_path / "serial.json").keys())


@needs_fork
def test_parallel_without_shared_cache(tmp_path):
    tasks = aliasing_table()
    serial = sweep(tasks, world=SMALL_WORLD)
    par = sweep(tasks, world=SMALL_WORLD, workers=2)
    assert json.dumps(par.rows(), sort_keys=True) == \
        json.dumps(serial.rows(), sort_keys=True)


@needs_fork
def test_acceptance_table4_parallel_matches_serial(tmp_path):
    """sweep(tasks, workers=2) over the Table-4 MoE shape table: identical
    report to serial, then a warm parallel rerun with zero simulations."""
    tasks = moe_sweep_tasks(MOE_BENCHES[:3], kernels=("ag_moe",), world=8)
    serial = sweep(tasks, world=8, cache=TuneCache(tmp_path / "serial.json"))
    cache = TuneCache(tmp_path / "par.json")
    par = sweep(tasks, world=8, cache=cache, workers=2)

    assert json.dumps(par.rows(), sort_keys=True) == \
        json.dumps(serial.rows(), sort_keys=True)
    assert [e.result.best for e in par.entries] == \
        [e.result.best for e in serial.entries]

    warm = sweep(tasks, world=8, cache=cache, workers=2)
    assert warm.n_simulated == 0
    assert all(e.from_cache for e in warm.entries)
    assert [e.result.best for e in warm.entries] == \
        [e.result.best for e in par.entries]


@needs_fork
def test_parallel_sweep_with_readonly_cache_matches_serial(tmp_path):
    """Regression: the post-pool merge used to call ``merge_from`` on the
    shared cache unconditionally — with a readonly cache (the shipped
    warm-cache handle) that now raises, and raising inside the finally
    would discard the completed report.  A readonly cache must instead
    get the serial path's semantics: results returned, nothing flushed."""
    path = tmp_path / "shipped.json"
    seed_tasks = [("a", small_moe_task()),
                  ("b", small_moe_task(m=2048))]
    sweep(seed_tasks, world=SMALL_WORLD, cache=TuneCache(path))
    before = path.read_text()

    ro = TuneCache(path, readonly=True)
    # one warm leader + one cold group exercises both resolution paths
    tasks = seed_tasks + [("cold", moe_rs_tune_task(1024, 256, 256, 4, 2,
                                                    world=SMALL_WORLD))]
    report = sweep(tasks, world=SMALL_WORLD, cache=ro, workers=2)
    assert [e.name for e in report.entries] == ["a", "b", "cold"]
    assert report.entries[0].from_cache and report.entries[1].from_cache
    assert report.entries[2].result.n_simulated > 0
    assert path.read_text() == before       # file untouched


def test_single_cold_group_runs_inline(tmp_path):
    """One cold key group needs no pool: workers=8 must still resolve."""
    cache = TuneCache(tmp_path / "c.json")
    report = sweep([("only", small_moe_task())], world=SMALL_WORLD,
                   cache=cache, workers=8)
    assert report.entries[0].result.n_simulated > 0
    assert len(cache) == 1


def _boom_make_builder(cand):
    raise RuntimeError("injected mid-sweep crash")


def _exit_make_builder(cand):
    os._exit(3)


def crashing_task(make_builder, tag: str):
    base = small_moe_task()
    return dataclasses.replace(base, make_builder=make_builder,
                               shape_key=base.shape_key + tag)


@needs_fork
def test_worker_exception_preserves_shared_cache(tmp_path):
    """A raising task fails the sweep, but completed groups' results are
    merged and pre-existing entries survive, in a still-valid file."""
    path = tmp_path / "shared.json"
    cache = TuneCache(path)
    sweep([("seed", small_moe_task())], world=SMALL_WORLD, cache=cache)
    seeded = set(TuneCache(path).keys())
    assert len(seeded) == 1

    tasks = [("good", small_moe_task(m=2048)),
             ("bad", crashing_task(_boom_make_builder, "boom"))]
    with pytest.raises(RuntimeError, match="injected mid-sweep crash"):
        sweep(tasks, world=SMALL_WORLD, cache=TuneCache(path), workers=2)

    final = TuneCache(path)
    keys = set(final.keys())
    assert seeded <= keys                       # nothing dropped
    assert len(keys) == 2                       # good group was merged
    # the file itself is intact, versioned JSON (no torn/partial write)
    raw = json.loads(path.read_text())
    assert raw["version"] == 1 and len(raw["entries"]) == 2


@needs_fork
def test_worker_hard_crash_preserves_shared_cache(tmp_path):
    """A worker dying outright (BrokenProcessPool) surfaces as TunerError
    and still cannot corrupt the shared cache file."""
    path = tmp_path / "shared.json"
    cache = TuneCache(path)
    sweep([("seed", small_moe_task())], world=SMALL_WORLD, cache=cache)
    seeded = set(TuneCache(path).keys())

    # two *cold* groups so the pool really engages (a single cold group
    # is resolved inline, where os._exit would take the test down too)
    tasks = [("seed", small_moe_task()),
             ("good", small_moe_task(m=2048)),
             ("dying", crashing_task(_exit_make_builder, "exit"))]
    with pytest.raises(TunerError, match="worker died"):
        sweep(tasks, world=SMALL_WORLD, cache=TuneCache(path), workers=2)

    final_keys = set(TuneCache(path).keys())
    assert seeded <= final_keys                 # nothing dropped
    raw = json.loads(path.read_text())
    assert raw["version"] == 1


@needs_fork
def test_parallel_progress_lines_match_serial(tmp_path):
    tasks = aliasing_table()
    serial_lines: list[str] = []
    sweep(tasks, world=SMALL_WORLD, cache=TuneCache(tmp_path / "s.json"),
          progress=serial_lines.append)
    par_lines: list[str] = []
    sweep(tasks, world=SMALL_WORLD, cache=TuneCache(tmp_path / "p.json"),
          workers=2, progress=par_lines.append)
    assert par_lines == serial_lines
