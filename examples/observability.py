"""Observability walkthrough: where did the time go?

``repro.serve`` answers "how fast"; ``repro.obs`` answers "why".  This
example attaches a :class:`repro.obs.Recorder` to a serving run and a
tuning sweep, then walks every view the recording supports:

1. serve one burst of chat traffic with a recorder attached — and show
   the run is *bit-identical* to the unrecorded one (recording is
   read-only tuple appends; the engine never branches on it);
2. attribute the simulated wall-clock to phases: prefill + decode +
   idle partition the makespan exactly, queue and preempt-stall overlay
   as request-seconds;
3. rank the slowest requests and print their per-phase timelines (the
   "why was THIS request slow" view);
4. fold the recording into a counter/gauge/histogram registry and
   snapshot it as strict JSON;
5. export a Chrome trace-event file — open https://ui.perfetto.dev and
   drag it in to scrub the engine, pool and per-request tracks;
6. record a tuning sweep's wall-time spans (per candidate simulation,
   prune pass, cache probe) and total them by category.

The same CLI is one command away:

    python -m repro.obs record --out run.json
    python -m repro.obs summarize run.json
    python -m repro.obs slowest run.json -k 5
    python -m repro.obs export run.json --out trace.json

Run:  python examples/observability.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from repro.models.configs import E2E_MODELS
from repro.obs import (
    Recorder,
    build_metrics,
    phase_attribution,
    slowest_requests,
    span_attribution,
    write_trace,
)
from repro.serve import (
    KVCacheConfig,
    ServerConfig,
    StepLatencyTable,
    generate_requests,
    resolve_latency_table,
    serve,
)

WORLD = 8
N_REQUESTS = 400
MODEL = {m.name: m for m in E2E_MODELS}["Mixtral-8x7B"]


def act1_record() -> Recorder:
    table = resolve_latency_table() or StepLatencyTable(readonly=True)
    table.ensure(MODEL, "tilelink", world=WORLD)
    reqs = generate_requests("chat", N_REQUESTS, seed=0)
    kv = KVCacheConfig(block_tokens=64, pool_blocks=4096)

    recorder = Recorder()
    recorded = serve(reqs, MODEL, "tilelink", table, ServerConfig(),
                     world=WORLD, seed=0, kv=kv, recorder=recorder)
    plain = serve(reqs, MODEL, "tilelink", table, ServerConfig(),
                  world=WORLD, seed=0, kv=kv)
    assert recorded == plain, "recording must never perturb the engine"
    print(f"act 1 — recorded {N_REQUESTS} chat requests: "
          f"{len(recorder.events)} events, makespan "
          f"{recorded.makespan_s:.2f} s, bit-identical to the "
          f"unrecorded run")
    return recorder


def act2_attribution(recorder: Recorder) -> None:
    attr = phase_attribution(recorder.recording())
    print("\nact 2 — phase attribution (engine wall-clock):")
    for phase, seconds in attr["engine_s"].items():
        print(f"  {phase:<10}{seconds:>10.3f} s "
              f"({100 * seconds / attr['makespan_s']:5.1f}%)")
    print(f"  coverage: {attr['coverage']:.6f} (prefill+decode+idle "
          f"partition the makespan by construction)")
    print(f"  overlays: {attr['request_s']['queue']:.2f} req-s queued, "
          f"{attr['request_s']['preempt-stall']:.2f} req-s stalled")


def act3_slowest(recorder: Recorder) -> None:
    print("\nact 3 — the 3 slowest requests:")
    for r in slowest_requests(recorder.recording(), k=3):
        print(f"  req {r['rid']}: latency {r['latency']:.3f} s, "
              f"{r['prompt_tokens']}+{r['output_tokens']} tokens")
        for phase, t0, t1 in r["segments"]:
            print(f"    {phase:<14}{t1 - t0:>9.3f} s")


def act4_metrics(recorder: Recorder) -> None:
    snap = build_metrics(recorder.recording()).snapshot()
    print(f"\nact 4 — metrics snapshot ({len(snap['metrics'])} series, "
          f"strict JSON):")
    for m in snap["metrics"]:
        if m["type"] == "histogram" and m["count"]:
            print(f"  {m['name']}: n={m['count']} p50={m['p50']:.4g} "
                  f"p99={m['p99']:.4g}")


def act5_export(recorder: Recorder) -> None:
    out = Path(tempfile.gettempdir()) / "repro-serve-trace.json"
    write_trace(out, recorder, max_request_tracks=50)
    with open(out) as fh:
        n = len(json.load(fh)["traceEvents"])
    print(f"\nact 5 — perfetto trace: {n} events -> {out}")
    print("  open https://ui.perfetto.dev and drag the file in")


def act6_tuner_spans() -> None:
    from repro.kernels.ag_gemm import ag_gemm_tune_task
    from repro.tuner.sweep import sweep

    recorder = Recorder()
    task = ag_gemm_tune_task(1024, 256, 512, world=4)
    sweep([task], world=4, strategy="model", max_trials=6,
          recorder=recorder)
    print("\nact 6 — tuner wall-time spans by category:")
    for category, cat in sorted(span_attribution(
            recorder.recording()).items(), key=lambda kv: -kv[1]["total_s"]):
        print(f"  {category:<10}{cat['total_s']:>10.4f} s "
              f"x{cat['count']}")


def main() -> None:
    recorder = act1_record()
    act2_attribution(recorder)
    act3_slowest(recorder)
    act4_metrics(recorder)
    act5_export(recorder)
    act6_tuner_spans()


if __name__ == "__main__":
    main()
