"""stackbench: one benchmark for the whole TileLink reproduction stack.

Run from the repository root::

    python3 stackbench/run.py --workload paper-kernels --seed 1 \\
        --seconds 12 --trace 0
    python3 stackbench/run.py --workload all --seed 1 --seconds 12

Each workload (``stackbench/workloads.py``) is built from ``--seed`` and
then runs whole *passes* over the same inputs until ``--seconds`` have
elapsed (always at least one).  Everything runs serially in one
process.  Host times are wall-clock seconds of the calls into the stack,
scaled to a reference machine speed (``stackbench/speed.py``) and taken
as the median over passes.  Every pass also yields a ``sim_digest``: a
hash of every simulated time, serving report row and tuned winner it
produced, so a change that only touches host time can show identical
simulated results.  Passes that disagree count as a failure.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` prints the per-layer metrics instead, from three kinds of
pass: plain passes, one span-recording pass (its time against the plain
passes is ``obs.trace_overhead_frac``) and one ``cProfile`` pass whose
deterministic call counts and per-package self times split the stack
into layers.  ``stackbench/layers.json`` maps each layer to its metrics
and to the end-to-end metrics it should move.  The benchmark measures
every layer from outside, by timing and counting calls into its public
functions; it changes no code under ``src/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results,
digests and trace spans are also written under ``.stackbench/`` in the
repository root.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".stackbench"

WORKLOAD_NAMES = ("paper-kernels", "tune-sweep", "serve-mix",
                  "numeric-verify")

#: end-to-end metrics (untraced runs), printed for every workload
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "frac"),
)

FAMILIES = ("ag_gemm", "gemm_rs", "chunk_gemm_rs", "ag_moe", "moe_rs",
            "ag_attention", "ring_attention")

#: packages whose self time the profile pass reports (``compiler.interp``
#: is the interpreter module, split from the rest of ``compiler``)
PACKAGES = ("lang", "compiler", "compiler.interp", "sim", "runtime", "memory",
            "mapping", "collectives", "ops", "kernels", "baselines", "models",
            "tuner", "serve", "analyze", "bench", "util", "numpy", "other")

#: per-layer metrics (traced runs), printed for every workload; a layer
#: the workload does not exercise reads 0
PER_LAYER = (
    ("registry.discover_ms", "ms"), ("lang.kernels", "count"),
    ("lang.compile_ms", "ms"),
    ("compiler.specializations", "count"), ("compiler.compile_ms", "ms"),
    ("compiler.interp.share", "frac"),
    ("sim.processes", "count"), ("sim.events", "count"),
    ("sim.host_us_per_event", "us"),
    ("runtime.launches", "count"), ("runtime.build_ms", "ms"),
    *((f"{pkg}.self_s", "s") for pkg in PACKAGES),
    *((f"kernels.{fam}.host_s", "s") for fam in FAMILIES),
    *((f"kernels.{fam}.sim_ms", "ms") for fam in FAMILIES),
    ("models.layer_time_s.tilelink", "s"), ("models.layer_time_s.torch", "s"),
    ("sim.overlap_speedup", "x"), ("sim.e2e_speedup", "x"),
    ("tuner.candidates", "count"), ("tuner.pruned", "count"),
    ("tuner.prune_ratio", "frac"), ("tuner.simulated", "count"),
    ("tuner.sims_per_task", "count"), ("tuner.simulate_s", "s"),
    ("tuner.prune_ms", "ms"), ("tuner.cache_ms", "ms"),
    ("tune.warm_hits", "count"), ("tune.warm_hit_ms", "ms"),
    ("tuner.warm_hit_ms.p99", "ms"), ("sim.tuned_speedup", "x"),
    ("serve.steps", "count"), ("serve.engine_s", "s"),
    ("serve.host_us_per_step", "us"), ("serve.preemptions", "count"),
    ("serve.recompute_tokens", "count"), ("serve.summarize_ms", "ms"),
    ("sim_req_per_s", "1/s"), ("sim.ttft_p99_s", "s"),
    ("sim.tpot_p99_s", "s"), ("sim.slo_attainment", "frac"),
    ("analyze.plans", "count"), ("analyze.sweep_s", "s"),
    ("obs.trace_overhead_frac", "frac"),
)

#: fresh-interpreter set-ups behind ``setup_s``, beside the run's own
SETUP_REPEATS = 3

#: the paper's end-to-end result (Fig. 11, 8x H800) — the only simulated
#: number here with a published reference
PAPER_E2E_SPEEDUP = 1.32


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    return values[min(len(values) - 1, int(q / 100.0 * len(values)))]


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def check_tree() -> None:
    """Refuse to run without the program's sources next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"stackbench: no program sources at {SRC}\n")
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    # the benchmark's inputs and caches all live inside the checkout
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_TUNE_CACHE"] = str(OUT / "tmp" / "tune_cache.json")


def setup(workload: str, seed: int, size: str):
    """Import the stack and build the workload's inputs; timed as set-up.

    Returns the workload, the set-up seconds at reference machine speed
    and the registry/frontend timings.
    """
    from speed import Speed

    speed = Speed()
    with speed:
        mark = speed.mark()
        t0 = time.perf_counter()
        wl, info = _setup(workload, seed, size)
        setup_s = speed.normalize(mark, time.perf_counter() - t0)
        scale = speed.factor(mark[0])
    for key in ("registry.discover_ms", "lang.compile_ms"):
        info[key] *= scale
    return wl, setup_s, info


def _setup(workload: str, seed: int, size: str):
    from repro import registry

    if not Path(registry.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"repro imported from {registry.__file__}, "
                           f"not from {SRC}")
    t1 = time.perf_counter()
    registry.discover()
    t2 = time.perf_counter()
    kernels = [k for fam in registry.families().values() for k in fam.kernels]
    for kdef in kernels:
        kdef.ir      # the @kernel frontend: Python source -> tile IR
    t3 = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[workload](seed, size,
                                       OUT / "tmp" / str(os.getpid()))
    info = {"registry.discover_ms": (t2 - t1) * 1e3,
            "lang.kernels": len(kernels),
            "lang.compile_ms": (t3 - t2) * 1e3}
    return wl, info


def setup_in_children(args) -> list[float]:
    """Set the workload up again in fresh interpreters (imports included)."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed),
             "--size", args.size],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def digest(p) -> str:
    blob = json.dumps(p.material, sort_keys=True, allow_nan=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_passes(wl, speed, seconds: float) -> list:
    from workloads import Pass

    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        p = Pass(speed)
        wl.run_pass(p)
        passes.append(p)
        if time.perf_counter() >= deadline:
            return passes


def clear_compile_caches() -> None:
    """Forget compiled specializations so a pass compiles cold again."""
    from repro import registry

    for fam in registry.families().values():
        for kdef in fam.kernels:
            kdef._programs.clear()


class ContextSpans:
    """Spans around ``DistContext`` construction -> ``run`` -> return.

    Wraps the two public entry points for the duration of a pass:
    the time from a context's creation to its ``run()`` call is the
    build (kernel launches enqueued) and ``run()`` itself is the event
    loop with the interpreter inside it.
    """

    def __init__(self, spans: list, current):
        from repro.runtime.context import DistContext

        self.cls = DistContext
        self.spans = spans
        self.current = current
        self.born: dict[int, float] = {}

    def __enter__(self):
        cls, born, spans, current = self.cls, self.born, self.spans, \
            self.current
        self.orig = (cls.__init__, cls.run)
        orig_init, orig_run = self.orig

        def init(ctx, *a, **kw):
            orig_init(ctx, *a, **kw)
            born[id(ctx)] = time.perf_counter()

        def run(ctx, *a, **kw):
            t0 = time.perf_counter()
            parent = current()
            spans.append(("runtime.build", born.pop(id(ctx), t0), t0, parent))
            try:
                return orig_run(ctx, *a, **kw)
            finally:
                spans.append(("sim.run", t0, time.perf_counter(), parent))

        cls.__init__, cls.run = init, run
        return self

    def __exit__(self, *exc):
        self.cls.__init__, self.cls.run = self.orig
        return False


def package_of(filename: str) -> str:
    try:
        rel = Path(filename).resolve().relative_to(SRC.resolve() / "repro")
    except ValueError:
        return "numpy" if f"{os.sep}numpy{os.sep}" in filename else "other"
    if rel.parts == ("compiler", "interp.py"):
        return "compiler.interp"
    return rel.parts[0] if len(rel.parts) > 1 else "other"


def profile_layers(prof: cProfile.Profile) -> dict:
    """Per-package self time and call counts from a deterministic profile.

    Built-in functions (``isinstance``, ``heapq.heappush``, ...) have no
    package of their own: their self time is charged to the package of
    each caller, split along the profile's caller edges.
    """
    stats = pstats.Stats(prof).stats
    self_s = dict.fromkeys(PACKAGES, 0.0)
    pkg_cache: dict[str, str] = {}

    def pkg(filename: str) -> str:
        if filename not in pkg_cache:
            pkg_cache[filename] = package_of(filename)
        return pkg_cache[filename]

    calls: dict[tuple[str, str], int] = {}
    cum: dict[tuple[str, str], float] = {}
    for (filename, _line, func), (_cc, nc, tt, ct, callers) in stats.items():
        if filename == "~":
            for (caller_file, _l, _f), edge in callers.items():
                self_s[pkg(caller_file)] += edge[2]
        else:
            self_s[pkg(filename)] += tt
        key = ("/".join(Path(filename).parts[-2:]), func)
        calls[key] = calls.get(key, 0) + nc
        cum[key] = cum.get(key, 0.0) + ct
    total = sum(self_s.values())
    out = {f"{name}.self_s": v for name, v in self_s.items()}
    out.update({
        "compiler.interp.share": (self_s["compiler.interp"] / total
                                  if total else 0.0),
        "sim.processes": calls.get(("sim/engine.py", "spawn"), 0),
        "sim.events": (calls.get(("sim/engine.py", "schedule"), 0)
                       + calls.get(("sim/engine.py", "call_later"), 0)),
        "runtime.launches": calls.get(("runtime/launcher.py",
                                       "launch_kernel"), 0),
        "compiler.specializations": calls.get(("compiler/passes.py",
                                               "annotate_loops"), 0),
        "compiler.compile_ms": cum.get(("compiler/program.py",
                                        "compile_kernel"), 0.0) * 1e3,
    })
    return out


def host_layers(passes) -> dict:
    """Per-layer host times and simulated results from untraced passes."""
    def med_op(kind):
        return median(p.seconds(kind) for p in passes if kind in p.times)

    def med_stat(key):
        return median(p.stats[key] for p in passes if key in p.stats)

    out = {}
    for key in {k for p in passes for k in p.stats}:
        if not key.startswith("speedup."):
            out[key] = med_stat(key)
    for fam in FAMILIES:
        if f"kernels.{fam}" in passes[0].times:
            out[f"kernels.{fam}.host_s"] = med_op(f"kernels.{fam}")
    for method in ("tilelink", "torch"):
        if f"layer_time.{method}" in passes[0].times:
            out[f"models.layer_time_s.{method}"] = med_op(
                f"layer_time.{method}")
    hits = [t for p in passes for t in p.times.get("tune.warm_hit", ())]
    if hits:
        out["tune.warm_hits"] = len(hits)
        out["tune.warm_hit_ms"] = median(hits) * 1e3
        out["tuner.warm_hit_ms.p99"] = percentile(hits, 99) * 1e3
    if "serve.chat" in passes[0].times:
        engine = median(p.seconds("serve.chat") + p.seconds("serve.rag")
                        for p in passes)
        out["serve.engine_s"] = engine
        out["serve.summarize_ms"] = med_op("serve.summarize") * 1e3
        if out.get("serve.steps"):
            out["serve.host_us_per_step"] = engine / out["serve.steps"] * 1e6
    if "analyze.sweep" in passes[0].times:
        out["analyze.sweep_s"] = med_op("analyze.sweep")
    return out


def traced(wl, speed, seconds: float):
    """Plain passes, one span pass, one profile pass; per-layer metrics."""
    from repro.obs import Recorder
    from workloads import Pass

    plain = run_passes(wl, speed, seconds / 2)
    spans: list = []
    p_span = Pass(speed, spans, recorder_cls=Recorder)
    with ContextSpans(spans, lambda: p_span.current):
        wl.run_pass(p_span)
    recorder_spans = [e for rec in p_span.recorders for e in rec.events
                      if e[0] == "span"]

    # the profile pass compiles cold and runs without the speed sampler,
    # which would otherwise show up in the profile
    p_prof = Pass(speed)
    clear_compile_caches()
    speed.stop()
    prof = cProfile.Profile()
    prof.enable()
    try:
        wl.run_pass(p_prof)
    finally:
        prof.disable()
        speed.start()

    metrics = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    metrics.update(host_layers(plain))
    layers = profile_layers(prof)
    metrics.update(layers)

    # span durations are raw wall time: scale them like the pass's ops
    raw = sum(e - s for _, s, e, parent in spans if parent is None)
    scale = p_span.seconds() / raw if raw else 1.0

    def total(name):
        return scale * sum(e - s for n, s, e, _ in spans if n == name)

    metrics["runtime.build_ms"] = total("runtime.build") * 1e3
    if layers["sim.events"]:
        metrics["sim.host_us_per_event"] = \
            total("sim.run") / layers["sim.events"] * 1e6
    for cat, key, unit in (("simulate", "tuner.simulate_s", 1.0),
                           ("prune", "tuner.prune_ms", 1e3),
                           ("cache", "tuner.cache_ms", 1e3)):
        metrics[key] = unit * scale * sum(e[2] - e[1] for e in recorder_spans
                                          if e[3] == cat)
    base = median(p.seconds() for p in plain)
    metrics["obs.trace_overhead_frac"] = p_span.seconds() / base - 1.0
    trace = {"spans": [{"name": n, "start": s, "end": e, "parent": par}
                       for n, s, e, par in spans],
             "tuner_spans": [{"category": e[3], "label": e[4],
                              "start": e[1], "end": e[2]}
                             for e in recorder_spans]}
    return plain + [p_span, p_prof], metrics, trace


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "quick"), default="full",
                    help="quick shrinks every input (the benchmark's tests)")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def run_all(args) -> int:
    """Every workload, one child process each; one combined table."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=900)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        # a run whose checks failed exits 1 but still prints its result
        if out.returncode not in (0, 1) or not lines \
                or not lines[-1].startswith("{"):
            sys.stderr.write(f"stackbench: {name} exited {out.returncode}\n")
            return out.returncode or 1
        for line in lines:
            if line.startswith("#"):
                print(line)
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = val
    for key, val in merged["metrics"].items():
        print(f"{key:52s} {val['value']:>16.6g} {val['unit']}")
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    check_tree()
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        wl, setup_s, _ = setup(args.workload, args.seed, args.size)
        wl.close()
        print(setup_s)
        return 0

    OUT.mkdir(exist_ok=True)
    wl, setup_own, info = setup(args.workload, args.seed, args.size)
    try:
        setups = [setup_own] + setup_in_children(args)
        from speed import Speed
        from workloads import Pass

        gc.collect()
        with Speed() as speed:
            if args.trace:
                passes, metrics, trace = traced(wl, speed, args.seconds)
                metrics.update(info)
                units = dict(PER_LAYER)
            else:
                passes = run_passes(wl, speed, args.seconds)
                trace = None
            final = Pass(speed)
            wl.finish(final)
    finally:
        wl.close()

    digests = [digest(p) for p in passes]
    attempted = sum(p.attempted for p in passes) + final.attempted
    failed = sum(p.failed for p in passes) + final.failed
    errors = [e for p in passes + [final] for e in p.errors]
    # one more check: every pass simulated exactly the same results
    attempted += 1
    if len(set(digests)) != 1:
        failed += 1
        errors.append(f"sim_digest differs between passes: {digests}")

    # a traced run's plain passes are untraced, so the check above already
    # holds the span and profile passes to the untraced digest; an untraced
    # run of the same seed stored earlier is compared as well
    stored = OUT / f"result-{args.workload}-seed{args.seed}-{args.size}.json"
    reference = "the plain passes of this run"
    if args.trace and stored.is_file():
        attempted += 1
        untraced = json.loads(stored.read_text()).get("sim_digest")
        reference += f" and the stored untraced run ({untraced})"
        if untraced != digests[0]:
            failed += 1
            errors.append(f"traced sim_digest {digests[0]} != untraced "
                          f"{untraced}")

    if not args.trace:
        key = [p.times.get(wl.key_op, []) for p in passes]
        metrics = {
            "setup_s": median(setups),
            "wall_s": median(p.seconds() for p in passes),
            "op_p50_ms": median(t for ts in key for t in ts) * 1e3,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": 1.0 - failed / attempted,
        }
        units = dict(END_TO_END)

    for err in errors:
        sys.stderr.write(f"stackbench: {err}\n")
    print(f"# {args.workload} seed={args.seed} size={args.size} "
          f"passes={len(passes)} attempted={attempted} failed={failed}")
    print(f"# sim_digest {digests[0]}")
    if args.trace:
        print(f"# untraced sim_digest compared with: {reference}")
    sim = {k: v for k, v in host_layers(passes).items()
           if k.startswith("sim.")}
    for name, value in sorted(sim.items()):
        note = (f"paper Fig. 11: {PAPER_E2E_SPEEDUP}x on 8x H800"
                if name == "sim.e2e_speedup"
                else "unvalidated: no hardware reference in this repository")
        print(f"# {name} {value:.6g}  ({note})")
    for name, unit in units.items():
        print(f"{name:36s} {metrics[name]:>16.6g} {unit}")

    record = {"workload": args.workload, "seed": args.seed,
              "size": args.size, "trace": args.trace,
              "sim_digest": digests[0], "passes": len(passes),
              "attempted": attempted, "failed": failed, "errors": errors,
              "metrics": metrics}
    if args.trace:
        (OUT / f"trace-{args.workload}-seed{args.seed}-{args.size}.json") \
            .write_text(json.dumps({**record, **trace}))
    else:
        stored.write_text(json.dumps(record, indent=1))
    shutil.rmtree(OUT / "tmp", ignore_errors=True)

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
