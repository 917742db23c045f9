"""Tests for the repro.tuner subsystem (space / prune / search / cache).

Includes the PR's acceptance scenario: on the Figure-8 MLP-1 AG+GEMM
shape, ``tune()`` returns a config no slower than the hand-picked
``AgGemmConfig`` default, the cost-model pruner discards at least half of
the candidate space before any simulation, and a second call is served
from the persistent cache without re-simulating.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.config import H800
from repro.kernels.ag_gemm import AgGemmConfig, ag_gemm_tune_task
from repro.kernels.gemm_rs import GemmRsConfig, gemm_rs_tune_task
from repro.models.configs import MLP_BENCHES
from repro.registry import families
from repro.tuner import (
    Axis,
    SearchSpace,
    TuneCache,
    TunerError,
    divisors_of,
    prune,
    tune,
)

# small shape used by most search tests (fast per-candidate simulation)
SMALL = dict(m=512, n=256, k=256)
SMALL_WORLD = 4


def small_task(**kw):
    return ag_gemm_tune_task(SMALL["m"], SMALL["n"], SMALL["k"],
                             world=SMALL_WORLD, **kw)


# ---------------------------------------------------------------------------
# space
# ---------------------------------------------------------------------------

def test_axis_validation():
    with pytest.raises(TunerError):
        Axis("empty", ())
    with pytest.raises(TunerError):
        Axis("dup", (1, 1))


def test_space_product_and_constraint():
    space = SearchSpace(
        axes=(Axis("a", (1, 2)), Axis("b", ("x", "y", "z"))),
        constraint=lambda c: not (c["a"] == 2 and c["b"] == "z"))
    cands = list(space.candidates())
    assert len(space) == 5 == len(cands)
    assert {"a": 1, "b": "x"} in cands
    assert {"a": 2, "b": "z"} not in cands


def test_space_duplicate_axis_names_rejected():
    with pytest.raises(TunerError):
        SearchSpace(axes=(Axis("a", (1,)), Axis("a", (2,))))


def test_space_fingerprint_tracks_axes():
    s1 = SearchSpace(axes=(Axis("a", (1, 2)),))
    s2 = SearchSpace(axes=(Axis("a", (1, 3)),))
    s3 = SearchSpace(axes=(Axis("b", (1, 2)),))
    assert s1.fingerprint() == SearchSpace(axes=(Axis("a", (1, 2)),)).fingerprint()
    assert len({s1.fingerprint(), s2.fingerprint(), s3.fingerprint()}) == 3


def test_divisors_of():
    assert divisors_of(1024, (64, 128, 300)) == (64, 128)
    with pytest.raises(TunerError):
        divisors_of(100, (33,))


def test_kernel_registry():
    fams = families()
    assert {"ag_gemm", "gemm_rs"} <= set(fams)
    space = fams["ag_gemm"].tune_task().space
    assert set(space.axis_names) == {"block_m", "block_n", "block_k",
                                     "block_mp", "comm_blocks", "mode"}
    # dma ignores comm_blocks: exactly one canonical value survives
    dma = [c for c in space.candidates() if c["mode"] == "dma"]
    assert len({c["comm_blocks"] for c in dma}) == 1


def test_default_config_is_in_its_space():
    for task in (small_task(),
                 gemm_rs_tune_task(1024, 512, 512, world=4)):
        assert task.default in list(task.space.candidates())


# ---------------------------------------------------------------------------
# costprune
# ---------------------------------------------------------------------------

def test_prune_static_filter_and_ordering():
    cands = [{"v": v} for v in (5, 1, 9, 3, 7)]
    res = prune(cands, lambda c: float(c["v"]), incumbent=5.0)
    assert res.n_total == 5
    assert res.n_pruned == 2                     # 9 and 7 exceed 5
    assert [c["v"] for c in res.survivors] == [1, 3, 5]
    assert res.bounds == (1.0, 3.0, 5.0)
    assert res.prune_fraction == pytest.approx(0.4)
    with pytest.raises(ValueError):
        prune(cands, lambda c: 1.0, incumbent=0.0)


def test_bound_is_a_lower_bound_on_simulated_time():
    """The pruner is only sound if bound(c) <= simulated(c)."""
    from repro.bench.harness import run_builder

    task = small_task()
    for cand in [task.default,
                 dict(task.default, mode="pull", comm_blocks=8),
                 dict(task.default, block_m=256, mode="push",
                      comm_blocks=4)]:
        simulated = run_builder(task.make_builder(cand),
                                world=SMALL_WORLD)
        assert task.bound(cand) <= simulated


# ---------------------------------------------------------------------------
# search strategies
# ---------------------------------------------------------------------------

def test_tune_exhaustive_beats_or_ties_default():
    res = tune(small_task(), world=SMALL_WORLD)
    assert res.best_time <= res.default_time
    assert res.n_simulated <= res.n_candidates
    assert not res.from_cache
    assert res.trials and res.trials[0][0] == small_task().default
    assert isinstance(res.best_config, AgGemmConfig)
    res.best_config.validate(SMALL_WORLD)


def test_tune_rejects_unknown_strategy():
    with pytest.raises(TunerError):
        tune(small_task(), world=SMALL_WORLD, strategy="simulated-annealing")


def _never_simulated(cand):
    raise AssertionError("a rejected strategy must not simulate")


def test_retired_strategies_rejected_before_any_work(tmp_path, monkeypatch):
    """Only ``exhaustive`` and ``model`` remain: ``random`` and ``halving``
    raise TunerError from every entry point before a simulation runs (the
    task's builder would fail the test) or a worker is forked."""
    import dataclasses

    import repro.tuner.parallel as parallel_mod
    from repro.tuner import sweep, task_cache_key

    def no_fork(*args, **kwargs):
        raise AssertionError("a rejected strategy must not fork workers")

    monkeypatch.setattr(parallel_mod, "fork_run", no_fork)
    task = dataclasses.replace(small_task(), make_builder=_never_simulated)
    other = dataclasses.replace(
        ag_gemm_tune_task(1024, SMALL["n"], SMALL["k"], world=SMALL_WORLD),
        make_builder=_never_simulated)
    cache = TuneCache(tmp_path / "cache.json")
    for strategy in ("random", "halving"):
        with pytest.raises(TunerError, match="unknown search strategy"):
            tune(task, world=SMALL_WORLD, strategy=strategy, cache=cache)
        with pytest.raises(TunerError, match="unknown search strategy"):
            task_cache_key(task, world=SMALL_WORLD, spec=H800,
                           strategy=strategy)
        for workers in (None, 2):
            with pytest.raises(TunerError, match="unknown search strategy"):
                sweep([("a", task), ("b", other)], world=SMALL_WORLD,
                      strategy=strategy, cache=cache, workers=workers)
    assert len(cache) == 0


def test_gemm_rs_autotune_small_shape():
    res = tune(gemm_rs_tune_task(1024, 512, 512, world=4), world=4,
               max_trials=3)
    assert res.best_time <= res.default_time
    cfg = res.best_config
    assert isinstance(cfg, GemmRsConfig)
    cfg.validate(4)


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def test_cache_concurrent_writers_merge(tmp_path):
    """Two handles on one cache file (two processes tuning different
    kernels) must not drop each other's entries on flush."""
    path = tmp_path / "cache.json"
    a = TuneCache(path)
    b = TuneCache(path)
    # both have read (empty) state before either writes
    assert len(a) == 0 and len(b) == 0
    a.put("kernel-a|shape", {"block_m": 128}, 1.0)
    # b's blind read-modify-write used to clobber a's entry here
    b.put("kernel-b|shape", {"block_m": 256}, 2.0)
    fresh = TuneCache(path)
    assert "kernel-a|shape" in fresh and "kernel-b|shape" in fresh
    # the merging writer also refreshed its own in-memory view
    assert "kernel-a|shape" in b


def test_cache_concurrent_processes_do_not_drop_entries(tmp_path):
    """Real multi-process hammer: N workers each put a disjoint key into
    one cache file concurrently; every entry must survive (flock +
    merge-on-flush)."""
    import multiprocessing as mp

    path = tmp_path / "cache.json"
    n, per = 4, 5
    procs = [mp.Process(target=_cache_writer_proc, args=(str(path), w, per))
             for w in range(n)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0
    final = TuneCache(path)
    missing = [f"w{w}k{i}" for w in range(n) for i in range(per)
               if f"w{w}k{i}" not in final]
    assert not missing, f"lost entries: {missing}"


def _cache_writer_proc(path: str, worker: int, per: int) -> None:
    cache = TuneCache(path)
    for i in range(per):
        cache.put(f"w{worker}k{i}", {"block_m": 128}, float(worker + 1))


def test_cache_concurrent_writers_last_put_wins_conflicts(tmp_path):
    path = tmp_path / "cache.json"
    a = TuneCache(path)
    b = TuneCache(path)
    a.put("k", {"block_m": 128}, 1.0)
    b.put("k", {"block_m": 256}, 2.0)     # later write, same key
    assert TuneCache(path).get("k")["best"] == {"block_m": 256}


def test_cache_clear_does_not_resurrect_disk_entries(tmp_path):
    """clear() must really clear — the merge-on-flush is for puts only."""
    path = tmp_path / "cache.json"
    TuneCache(path).put("k", {"x": 1}, 1.0)
    wiper = TuneCache(path)
    wiper.clear()
    assert len(TuneCache(path)) == 0


def test_cache_version_mismatch_reads_as_empty_and_is_replaced(tmp_path):
    """A foreign/older on-disk version is ignored on read and not merged
    back on write (its keys may mean something else entirely)."""
    path = tmp_path / "cache.json"
    path.write_text(json.dumps({"version": 999, "entries": {"old": {}}}))
    cache = TuneCache(path)
    assert cache.get("old") is None
    cache.put("new", {"block_m": 64}, 3.0)
    raw = json.loads(path.read_text())
    assert raw["version"] == 1
    assert "new" in raw["entries"] and "old" not in raw["entries"]


def test_cache_roundtrip_and_corruption_tolerance(tmp_path):
    path = tmp_path / "cache.json"
    cache = TuneCache(path)
    assert cache.get("k") is None and len(cache) == 0
    cache.put("k", {"block_m": 128}, 1.5e-4, meta={"strategy": "exhaustive"})
    fresh = TuneCache(path)
    assert "k" in fresh
    entry = fresh.get("k")
    assert entry["best"] == {"block_m": 128}
    assert entry["time_s"] == pytest.approx(1.5e-4)
    # corrupt file reads as empty, not an exception
    path.write_text("{not json")
    assert TuneCache(path).get("k") is None
    # on-disk format is plain versioned JSON
    cache2 = TuneCache(tmp_path / "c2.json")
    cache2.put("a", {"x": 1}, 2.0)
    raw = json.loads((tmp_path / "c2.json").read_text())
    assert raw["version"] == 1 and "a" in raw["entries"]


def test_cache_merge_from_folds_entries_with_one_flush(tmp_path):
    """merge_from() is the parallel sweep's result funnel: worker files
    fold into the shared cache, source winning key conflicts."""
    shared = TuneCache(tmp_path / "shared.json")
    shared.put("keep", {"block_m": 128}, 1.0)
    shared.put("conflict", {"block_m": 128}, 1.0)
    worker = TuneCache(tmp_path / "worker.json")
    worker.put("new", {"block_m": 256}, 2.0)
    worker.put("conflict", {"block_m": 64}, 0.5)

    other = TuneCache(tmp_path / "other.json")
    other.put("more", {"block_m": 512}, 3.0)

    # variadic: the whole batch folds in with a single flush
    assert shared.merge_from(tmp_path / "worker.json", other) == 3
    fresh = TuneCache(tmp_path / "shared.json")
    assert set(fresh.keys()) == {"keep", "new", "conflict", "more"}
    assert fresh.get("conflict")["best"] == {"block_m": 64}
    # merging a missing/empty source is a no-op, not an error
    assert shared.merge_from(tmp_path / "nope.json") == 0
    assert shared.merge_from() == 0
    # re-merging identical entries counts (and rewrites) nothing
    assert shared.merge_from(other) == 0


def test_cache_readonly_never_writes(tmp_path):
    path = tmp_path / "shipped.json"
    TuneCache(path).put("k", {"block_m": 128}, 1.0)
    before = path.read_text()
    ro = TuneCache(path, readonly=True)
    assert ro.get("k") is not None
    ro.put("k2", {"block_m": 256}, 2.0)      # visible in memory only
    assert "k2" in ro
    assert path.read_text() == before        # file untouched
    assert "k2" not in TuneCache(path)


def test_cache_readonly_merge_and_clear_raise(tmp_path):
    """Regression: merge_from() on a readonly cache used to mutate the
    in-memory view and report a positive merged count while _flush was a
    silent no-op — callers believed the entries persisted.  clear() had
    the mirror-image bug (in-memory empty, file untouched)."""
    path = tmp_path / "shipped.json"
    TuneCache(path).put("k", {"block_m": 128}, 1.0)
    src = TuneCache(tmp_path / "src.json")
    src.put("new", {"block_m": 256}, 2.0)
    before = path.read_text()

    ro = TuneCache(path, readonly=True)
    with pytest.raises(TunerError, match="readonly"):
        ro.merge_from(src)
    with pytest.raises(TunerError, match="readonly"):
        ro.clear()
    # neither the file nor the in-memory view diverged
    assert path.read_text() == before
    assert "new" not in ro and "k" in ro
    # writable handles keep the full contract
    rw = TuneCache(path)
    assert rw.merge_from(src) == 1
    rw.clear()
    assert len(TuneCache(path)) == 0


def test_cache_hit_coerces_default_time_to_float(tmp_path):
    """Regression: a hand-edited/foreign cache file carrying
    ``meta.default_time`` as a JSON string used to flow straight into
    ``TuneResult.default_time`` (unlike ``time_s``), letting
    ``SweepReport.rows()`` emit a stringly-typed ``default_ms``."""
    from repro.tuner import task_cache_key
    from repro.tuner.sweep import sweep as sweep_fn

    task = small_task()
    cache = TuneCache(tmp_path / "cache.json")
    key = task_cache_key(task, world=SMALL_WORLD, spec=H800)
    cache.put(key, dict(task.default), 1.1e-5,
              meta={"default_time": "1.5e-5"})      # stringly, hand-edited

    res = tune(task, world=SMALL_WORLD, cache=cache)
    assert res.from_cache
    assert isinstance(res.default_time, float)
    assert res.default_time == pytest.approx(1.5e-5)
    row = sweep_fn([("hit", task)], world=SMALL_WORLD, cache=cache).rows()[0]
    assert isinstance(row["default_ms"], float)
    # absent stays None (the null contract), never float(None)
    cache.put(key, dict(task.default), 1.1e-5, meta={})
    res2 = tune(task, world=SMALL_WORLD, cache=TuneCache(tmp_path / "cache.json"))
    assert res2.from_cache and res2.default_time is None


def test_tune_cache_hit_skips_simulation(tmp_path):
    cache = TuneCache(tmp_path / "cache.json")
    first = tune(small_task(), world=SMALL_WORLD, cache=cache)
    assert not first.from_cache and first.n_simulated > 0
    second = tune(small_task(), world=SMALL_WORLD, cache=cache)
    assert second.from_cache
    assert second.n_simulated == 0
    assert second.best == first.best
    assert second.best_time == pytest.approx(first.best_time)
    assert isinstance(second.best_config, AgGemmConfig)


def test_capped_search_does_not_alias_full_search(tmp_path):
    """A capped search's possibly-weaker winner must not be served to a
    later full exhaustive request on the same shape/spec/space."""
    cache = TuneCache(tmp_path / "cache.json")
    weak = tune(small_task(), world=SMALL_WORLD, max_trials=1, cache=cache)
    full = tune(small_task(), world=SMALL_WORLD, cache=cache)
    assert not full.from_cache                    # really searched
    assert full.best_time <= weak.best_time
    # but an identical capped request does hit its own entry
    weak2 = tune(small_task(), world=SMALL_WORLD, max_trials=1, cache=cache)
    assert weak2.from_cache and weak2.best == weak.best


def test_search_signature_is_normalized():
    """The key suffix must not leak Python reprs: an uncapped restricted
    search renders ``mtall``, never ``mtNone``."""
    from repro.tuner import search_signature

    assert search_signature("exhaustive", None) == ""
    assert search_signature("exhaustive", 5) == "|exhaustive-mt5"
    assert search_signature("model", None) == "|model-mtall-p4-o0.75"
    assert search_signature("model", 7) == "|model-mt7-p4-o0.75"
    for strategy in ("exhaustive", "model"):
        assert "None" not in search_signature(strategy, None)


def test_search_signature_folds_all_result_changing_params(monkeypatch):
    """The strategy, the trial cap and the model's probe/optimism
    constants all change the winner, so all of them key."""
    import repro.tuner.search as search_mod
    from repro.tuner import search_signature

    sigs = {search_signature(strategy, mt)
            for strategy in ("exhaustive", "model") for mt in (None, 3, 5)}
    assert len(sigs) == 6
    # the model constants are read at call time: changing one re-keys
    monkeypatch.setattr(search_mod, "DEFAULT_PROBES", 6)
    assert search_signature("model", None) == "|model-mtall-p6-o0.75"
    monkeypatch.setattr(search_mod, "DEFAULT_OPTIMISM", 0.5)
    assert search_signature("model", None) == "|model-mtall-p6-o0.5"
    assert search_signature("exhaustive", None) == ""


def test_legacy_mtnone_keys_are_not_served(tmp_path):
    """Migration safety: an entry stored under the old ``mtNone`` key
    format must not alias the normalized ``mtall`` key — the search
    re-runs and writes the normalized key."""
    from repro.tuner import task_cache_key
    from repro.config import H800

    task = small_task()
    cache = TuneCache(tmp_path / "cache.json")
    new_key = task_cache_key(task, world=SMALL_WORLD, spec=H800,
                             strategy="model", max_trials=None)
    assert new_key.endswith("|model-mtall-p4-o0.75")
    legacy_key = new_key.replace("mtall", "mtNone")
    cache.put(legacy_key, {"bogus": 1}, 1e-9)     # poisoned legacy entry

    res = tune(task, world=SMALL_WORLD, strategy="model", cache=cache)
    assert not res.from_cache                      # legacy entry ignored
    assert "bogus" not in res.best
    assert new_key in cache                        # normalized key written
    # and an identical rerun now hits the normalized entry
    rerun = tune(task, world=SMALL_WORLD, strategy="model", cache=cache)
    assert rerun.from_cache and rerun.best == res.best


def test_tune_start_tile_non_divisible_shape():
    """tiles_m % world != 0: the consumer start tile must round to the
    tile containing the rank's own segment (the old formula skewed every
    rank off its segment, defeating the tile-order optimization)."""
    import math

    # m=1536, world=4: per-rank rows 384.  The default tile (block_m=128)
    # stays valid, while every block_m=256 candidate hits tiles_m=6 with
    # 6 % 4 != 0 — the exact skew case the start-tile fix addresses.
    m, world = 1536, 4
    assert math.ceil(m / 256) % world != 0
    space = SearchSpace(
        axes=(Axis("block_m", (128, 256)), Axis("block_n", (128,)),
              Axis("block_k", (64,)), Axis("block_mp", (128,)),
              Axis("comm_blocks", (4, 20)),
              Axis("mode", ("dma", "pull", "push"))),
        constraint=lambda c: c["mode"] != "dma" or c["comm_blocks"] == 20)
    task = dataclasses.replace(ag_gemm_tune_task(m, 256, 256, world=world),
                               space=space)
    res = tune(task, world=world)
    # the non-divisible candidates really were simulated, not rejected
    assert any(c["block_m"] == 256 for c, _ in res.trials)
    assert res.best_time <= res.default_time
    res.best_config.validate(world)


def test_cache_key_isolates_spec_and_space(tmp_path):
    """A different HardwareSpec must not alias a cached result."""
    cache = TuneCache(tmp_path / "cache.json")
    tune(small_task(), world=SMALL_WORLD, cache=cache)
    other_spec = H800.scaled(n_sms=64)
    res = tune(small_task(spec=other_spec), world=SMALL_WORLD,
               spec=other_spec, cache=cache)
    assert not res.from_cache                     # re-tuned, not aliased
    assert len(cache) == 2


# ---------------------------------------------------------------------------
# acceptance: Figure-8 MLP-1 AG+GEMM
# ---------------------------------------------------------------------------

def test_acceptance_mlp1_ag_gemm_tune(tmp_path):
    shape = MLP_BENCHES[0]
    world = 8
    m, k = shape.s, shape.h
    n = shape.i // world
    cache = TuneCache(tmp_path / "tune.json")
    task = ag_gemm_tune_task(m, n, k, world=world)

    res = tune(task, world=world, cache=cache, max_trials=6)
    # tuned config is no slower than the paper's hand-picked default
    assert res.best_time <= res.default_time
    # the cost-model pruner discards >= 50% of candidates pre-simulation
    assert res.prune_fraction >= 0.5
    assert res.n_simulated < res.n_candidates
    res.best_config.validate(world)

    # second call: served from the persistent cache, zero simulations
    res2 = tune(task, world=world, cache=cache, max_trials=6)
    assert res2.from_cache and res2.n_simulated == 0
    assert res2.best == res.best
