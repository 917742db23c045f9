"""Validate the machine-readable bench emitters' JSON schemas.

Three row shapes are covered, selected with ``--schema``:

* ``bench`` (default) — the ``--json PATH`` option of the benchmark
  suite (see ``benchmarks/common.py``) dumps every simulated measurement
  as ``{"bench": str, "config": str, "time_s": float}`` rows; successive
  PRs diff these files to track a perf trajectory.
* ``sweep`` — ``SweepReport.rows()`` dumps (one object per shape) as
  written by ``benchmarks/bench_autotune_sweep.py`` when
  ``REPRO_SWEEP_ROWS`` is set.  A cache hit without a recorded baseline
  carries ``default_ms``/``speedup`` as JSON ``null`` — and *only* the
  null form: a bare ``NaN``/``Infinity`` token is not valid JSON, so the
  file is parsed with ``parse_constant`` rejecting constants outright.
* ``serving`` — ``ServingReport.row()`` dumps (one object per
  (scenario, method) cell) as written by ``benchmarks/bench_serving.py``
  when ``REPRO_SERVE_ROWS`` is set: throughput, TTFT/TPOT percentiles,
  queue depth/wait, preemption and recompute totals, pool occupancy and
  SLO attainment.  TPOT is ``null`` (on *both* percentile fields)
  exactly when no request ever decoded; the pool-occupancy pair is
  ``null`` together exactly when the run had no KV pool.
* ``serving-perf`` — the engine-throughput smoke rows written by
  ``benchmarks/bench_serving_perf.py`` when ``REPRO_SERVE_PERF_ROWS``
  is set: wall seconds and simulated requests per wall second for the
  acceptance workload, plus the floor the run was held to.  A row whose
  ``sim_rps`` sits below its ``min_sim_rps`` fails validation — the
  floor travels with the measurement, so a stale file cannot pass.
* ``obs-trace`` — Chrome trace-event JSON written by
  ``repro.obs.export.write_trace`` / ``python -m repro.obs export``
  (dict top-level, not a row list): metadata events first, every slice
  with finite non-negative ``ts``/``dur`` in non-decreasing ``ts``
  order, per-request ``cat:"phase"`` slices restricted to the request
  lifecycle vocabulary and engine slices to prefill/decode/idle — the
  names Perfetto users grep for, pinned so a rename cannot slip out
  silently.
* ``obs-metrics`` — ``MetricsRegistry.snapshot()`` payloads
  (``{"format": "repro-obs-metrics/1", "metrics": [...]}``): counters
  are non-negative ints, gauges numbers-or-null, and a histogram's
  ``max``/``p50``/``p90``/``p99`` are null *together* exactly when its
  ``count`` is zero.

This validator is the CI tripwire that keeps the contracts from
rotting: it fails loudly when the file is missing, empty, non-strict
JSON, or any row drifts off schema.

Usage:  python benchmarks/validate_bench_json.py PATH [--min-rows N]
          [--schema bench|sweep|serving|serving-perf|obs-trace|obs-metrics]
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable

#: schemas: field -> tuple of allowed types; None in the tuple = nullable.
#: bool is only accepted where it is listed explicitly (it subclasses int).
ROW_SCHEMA = {
    "bench": (str,),
    "config": (str,),
    "time_s": (int, float),
}

SWEEP_ROW_SCHEMA = {
    "name": (str,),
    "kernel": (str,),
    "shape": (str,),
    "default_ms": (int, float, None),
    "tuned_ms": (int, float),
    "speedup": (int, float, None),
    "n_simulated": (int,),
    "from_cache": (bool,),
    "deduped_from": (str, None),
    "best": (dict,),
}

SERVING_ROW_SCHEMA = {
    "scenario": (str,),
    "method": (str,),
    "policy": (str,),
    "n_requests": (int,),
    "makespan_s": (int, float),
    "throughput_rps": (int, float),
    "output_tok_per_s": (int, float),
    "ttft_p50_s": (int, float),
    "ttft_p99_s": (int, float),
    "tpot_p50_s": (int, float, None),
    "tpot_p99_s": (int, float, None),
    "queue_depth_p50": (int, float),
    "queue_depth_max": (int,),
    "slo_attainment": (int, float),
    "queue_wait_p50_s": (int, float),
    "queue_wait_p99_s": (int, float),
    "preempt_stall_p99_s": (int, float),
    "n_preemptions": (int,),
    "recompute_tokens": (int,),
    "pool_occupancy_p50": (int, float, None),
    "pool_occupancy_max": (int, float, None),
}

SERVING_PERF_ROW_SCHEMA = {
    "scenario": (str,),
    "method": (str,),
    "n_requests": (int,),
    "wall_s": (int, float),
    "sim_rps": (int, float),
    "min_sim_rps": (int, float),
}


def _reject_constant(token: str) -> float:
    raise ValueError(f"non-finite JSON constant {token!r} is not allowed; "
                     f"emit null instead")


def _is_number(value: object) -> bool:
    """A finite int or float (``json.load`` reads ``1e999`` as ``inf``)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def _validate_against(rows: object, schema: dict[str, tuple],
                      min_rows: int,
                      row_check: Callable[[int, dict], list[str]]
                      ) -> list[str]:
    """Generic row validator: shape, unknown/missing fields, types (with
    nullability), then ``row_check`` for per-schema value rules."""
    errors: list[str] = []
    if not isinstance(rows, list):
        return [f"top-level JSON must be a list, got {type(rows).__name__}"]
    if len(rows) < min_rows:
        errors.append(f"expected >= {min_rows} rows, got {len(rows)}")
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            errors.append(f"row {i}: not an object: {row!r}")
            continue
        extra = set(row) - set(schema)
        if extra:
            errors.append(f"row {i}: unknown fields {sorted(extra)}")
        for field, types in schema.items():
            if field not in row:
                errors.append(f"row {i}: missing field {field!r}")
                continue
            value = row[field]
            if value is None:
                if None not in types:
                    errors.append(f"row {i}: field {field!r} must not be "
                                  f"null")
                continue
            concrete = tuple(t for t in types if t is not None)
            if not isinstance(value, concrete) or (
                    isinstance(value, bool) and bool not in concrete):
                errors.append(f"row {i}: field {field!r} has wrong type "
                              f"{type(value).__name__}")
            elif isinstance(value, float) and not math.isfinite(value):
                errors.append(f"row {i}: field {field!r} is not finite "
                              f"({value!r})")
        errors.extend(row_check(i, row))
    return errors


def _bench_row_check(i: int, row: dict) -> list[str]:
    errors = []
    if _is_number(row.get("time_s")) and not row["time_s"] > 0:
        errors.append(f"row {i}: time_s must be positive, "
                      f"got {row['time_s']}")
    for field in ("bench", "config"):
        if isinstance(row.get(field), str) and not row[field].strip():
            errors.append(f"row {i}: field {field!r} is empty")
    return errors


def _sweep_row_check(i: int, row: dict) -> list[str]:
    errors = []
    if _is_number(row.get("tuned_ms")) and not row["tuned_ms"] > 0:
        errors.append(f"row {i}: tuned_ms must be positive, "
                      f"got {row['tuned_ms']}")
    # a missing baseline must take the null form on BOTH fields: a null
    # default with a numeric speedup (or vice versa) means the emitter
    # fabricated one side (the old 0.0/NaN bug)
    if (row.get("default_ms") is None) != (row.get("speedup") is None):
        errors.append(f"row {i}: default_ms and speedup must be null "
                      f"together (got default_ms={row.get('default_ms')!r}"
                      f", speedup={row.get('speedup')!r})")
    return errors


def _serving_row_check(i: int, row: dict) -> list[str]:
    errors = []
    for field in ("scenario", "method", "policy"):
        if isinstance(row.get(field), str) and not row[field].strip():
            errors.append(f"row {i}: field {field!r} is empty")
    for field in ("n_requests", "makespan_s", "throughput_rps",
                  "output_tok_per_s", "ttft_p50_s", "ttft_p99_s"):
        if _is_number(row.get(field)) and not row[field] > 0:
            errors.append(f"row {i}: field {field!r} must be positive, "
                          f"got {row[field]}")
    if _is_number(row.get("slo_attainment")) and \
            not 0.0 <= row["slo_attainment"] <= 1.0:
        errors.append(f"row {i}: slo_attainment must be in [0, 1], "
                      f"got {row['slo_attainment']}")
    # TPOT is null exactly when no request decoded — on both fields, or
    # the emitter fabricated one side
    if (row.get("tpot_p50_s") is None) != (row.get("tpot_p99_s") is None):
        errors.append(f"row {i}: tpot_p50_s and tpot_p99_s must be null "
                      f"together (got {row.get('tpot_p50_s')!r}, "
                      f"{row.get('tpot_p99_s')!r})")
    for field in ("queue_wait_p50_s", "queue_wait_p99_s",
                  "preempt_stall_p99_s", "n_preemptions",
                  "recompute_tokens"):
        if _is_number(row.get(field)) and row[field] < 0:
            errors.append(f"row {i}: field {field!r} must be >= 0, "
                          f"got {row[field]}")
    for field in ("pool_occupancy_p50", "pool_occupancy_max"):
        if _is_number(row.get(field)) and not 0.0 <= row[field] <= 1.0:
            errors.append(f"row {i}: field {field!r} must be in [0, 1], "
                          f"got {row[field]}")
    # pool stats are null exactly when the run had no KV pool — same
    # null-together discipline as TPOT
    if (row.get("pool_occupancy_p50") is None) != \
            (row.get("pool_occupancy_max") is None):
        errors.append(f"row {i}: pool_occupancy_p50 and pool_occupancy_max "
                      f"must be null together "
                      f"(got {row.get('pool_occupancy_p50')!r}, "
                      f"{row.get('pool_occupancy_max')!r})")
    return errors


def _serving_perf_row_check(i: int, row: dict) -> list[str]:
    errors = []
    for field in ("scenario", "method"):
        if isinstance(row.get(field), str) and not row[field].strip():
            errors.append(f"row {i}: field {field!r} is empty")
    for field in ("n_requests", "wall_s", "sim_rps", "min_sim_rps"):
        if _is_number(row.get(field)) and not row[field] > 0:
            errors.append(f"row {i}: field {field!r} must be positive, "
                          f"got {row[field]}")
    if _is_number(row.get("sim_rps")) and _is_number(row.get("min_sim_rps")) \
            and row["sim_rps"] < row["min_sim_rps"]:
        errors.append(f"row {i}: sim_rps {row['sim_rps']:.0f} is below the "
                      f"min_sim_rps floor {row['min_sim_rps']:.0f} — the "
                      f"serving engine regressed")
    return errors


#: Allowed trace-event phase codes: metadata, complete slice, counter
#: sample, instant marker — everything the exporter emits.
_TRACE_PHS = ("M", "X", "C", "i")
#: ``cat:"phase"`` slice names: the request lifecycle vocabulary
#: (``idle`` is engine-level and never appears on a request track).
_REQUEST_PHASE_NAMES = ("queue", "prefill", "decode", "preempt-stall")
#: ``cat:"engine"`` names: the engine-track slices plus the two
#: KV-pool watermark-crossing instants.
_ENGINE_NAMES = ("prefill", "decode", "idle",
                 "watermark_above", "watermark_below")


def validate_obs_trace(doc: object, min_rows: int = 1) -> list[str]:
    """Return a list of obs-trace-schema violations (empty == valid).

    ``min_rows`` counts *slices* (non-metadata events): a trace with
    nothing but process/thread names renders an empty timeline.
    """
    errors: list[str] = []
    if not isinstance(doc, dict):
        return [f"top-level JSON must be an object, "
                f"got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return [f"traceEvents must be a list, "
                f"got {type(events).__name__}"]
    n_slices = 0
    last_ts = None
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            errors.append(f"event {i}: not an object: {event!r}")
            continue
        ph = event.get("ph")
        if ph not in _TRACE_PHS:
            errors.append(f"event {i}: unknown ph {ph!r} "
                          f"(allowed: {list(_TRACE_PHS)})")
            continue
        ts = event.get("ts")
        if not _is_number(ts) or ts < 0:
            errors.append(f"event {i}: ts must be a number >= 0, "
                          f"got {ts!r}")
            continue
        if ph == "M":
            if n_slices:
                errors.append(f"event {i}: metadata event after the "
                              f"first slice — metadata must come first")
            if event.get("name") not in ("process_name", "thread_name"):
                errors.append(f"event {i}: metadata name must be "
                              f"process_name/thread_name, "
                              f"got {event.get('name')!r}")
            args = event.get("args")
            if not (isinstance(args, dict)
                    and isinstance(args.get("name"), str)
                    and args["name"].strip()):
                errors.append(f"event {i}: metadata args.name must be a "
                              f"non-empty string")
            continue
        # slices: file order must be non-decreasing ts (the exporter
        # sorts; an unsorted file means a foreign/hand-edited producer)
        n_slices += 1
        if last_ts is not None and ts < last_ts:
            errors.append(f"event {i}: ts {ts} decreases (previous "
                          f"slice at {last_ts}) — slices must be sorted")
        last_ts = ts
        name = event.get("name")
        if not (isinstance(name, str) and name.strip()):
            errors.append(f"event {i}: name must be a non-empty string")
            continue
        if ph == "X":
            dur = event.get("dur")
            if not _is_number(dur) or dur < 0:
                errors.append(f"event {i}: dur must be a number >= 0, "
                              f"got {dur!r}")
            cat = event.get("cat")
            if not (isinstance(cat, str) and cat.strip()):
                errors.append(f"event {i}: slice cat must be a non-empty "
                              f"string")
            elif cat == "phase" and name not in _REQUEST_PHASE_NAMES:
                errors.append(f"event {i}: unknown request phase {name!r} "
                              f"(allowed: {list(_REQUEST_PHASE_NAMES)})")
            elif cat == "engine" and name not in _ENGINE_NAMES:
                errors.append(f"event {i}: unknown engine slice {name!r} "
                              f"(allowed: {list(_ENGINE_NAMES)})")
        elif ph == "C":
            args = event.get("args")
            if not (isinstance(args, dict) and args
                    and all(_is_number(v) for v in args.values())):
                errors.append(f"event {i}: counter args must be a "
                              f"non-empty object of numbers")
        elif ph == "i" and event.get("cat") == "engine" \
                and name not in _ENGINE_NAMES:
            errors.append(f"event {i}: unknown engine instant {name!r} "
                          f"(allowed: {list(_ENGINE_NAMES)})")
    if n_slices < min_rows:
        errors.append(f"expected >= {min_rows} slices (non-metadata "
                      f"events), got {n_slices}")
    return errors


#: Fields (beyond name/type/labels) each metric type must carry.
_METRIC_FIELDS = {
    "counter": ("value",),
    "gauge": ("value",),
    "histogram": ("count", "max", "p50", "p90", "p99"),
}


def _obs_metric_check(i: int, row: dict) -> list[str]:
    errors = []
    mtype = row["type"]
    if mtype == "counter":
        value = row.get("value")
        if not isinstance(value, int) or isinstance(value, bool) \
                or value < 0:
            errors.append(f"metric {i}: counter value must be an int "
                          f">= 0, got {value!r}")
    elif mtype == "gauge":
        value = row.get("value")
        if value is not None and not _is_number(value):
            errors.append(f"metric {i}: gauge value must be a number or "
                          f"null, got {value!r}")
    else:
        count = row.get("count")
        if not isinstance(count, int) or isinstance(count, bool) \
                or count < 0:
            errors.append(f"metric {i}: histogram count must be an int "
                          f">= 0, got {count!r}")
            return errors
        quantiles = ("max", "p50", "p90", "p99")
        nulls = [q for q in quantiles if row.get(q) is None]
        bad = [q for q in quantiles
               if row.get(q) is not None and not _is_number(row.get(q))]
        if bad:
            errors.append(f"metric {i}: histogram fields {bad} must be "
                          f"numbers or null")
        elif count == 0 and len(nulls) != len(quantiles):
            errors.append(f"metric {i}: empty histogram must have null "
                          f"{list(quantiles)} (null-together), "
                          f"got non-null {sorted(set(quantiles) - set(nulls))}")
        elif count > 0 and nulls:
            errors.append(f"metric {i}: non-empty histogram "
                          f"(count={count}) has null fields {nulls}")
    return errors


def validate_obs_metrics(doc: object, min_rows: int = 1) -> list[str]:
    """Return a list of obs-metrics-schema violations (empty == valid)."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return [f"top-level JSON must be an object, "
                f"got {type(doc).__name__}"]
    if doc.get("format") != "repro-obs-metrics/1":
        return [f"format must be 'repro-obs-metrics/1', "
                f"got {doc.get('format')!r}"]
    metrics = doc.get("metrics")
    if not isinstance(metrics, list):
        return [f"metrics must be a list, got {type(metrics).__name__}"]
    if len(metrics) < min_rows:
        errors.append(f"expected >= {min_rows} metrics, "
                      f"got {len(metrics)}")
    last_key = None
    for i, row in enumerate(metrics):
        if not isinstance(row, dict):
            errors.append(f"metric {i}: not an object: {row!r}")
            continue
        name = row.get("name")
        if not (isinstance(name, str) and name.strip()):
            errors.append(f"metric {i}: name must be a non-empty string")
            continue
        labels = row.get("labels")
        if not isinstance(labels, dict) or not all(
                isinstance(k, str) and isinstance(v, str)
                for k, v in labels.items()):
            errors.append(f"metric {i}: labels must be an object of "
                          f"strings, got {labels!r}")
            continue
        mtype = row.get("type")
        if mtype not in _METRIC_FIELDS:
            errors.append(f"metric {i}: unknown type {mtype!r} "
                          f"(allowed: {sorted(_METRIC_FIELDS)})")
            continue
        expected = {"name", "type", "labels", *_METRIC_FIELDS[mtype]}
        if set(row) != expected:
            errors.append(f"metric {i}: fields {sorted(row)} != expected "
                          f"{sorted(expected)} for a {mtype}")
            continue
        # the snapshot sorts by (name, label items) so reruns diff
        # cleanly; an unsorted file means a foreign producer
        key = (name, tuple(sorted(labels.items())))
        if last_key is not None and key < last_key:
            errors.append(f"metric {i}: {name!r} out of sorted "
                          f"(name, labels) order")
        last_key = key
        errors.extend(_obs_metric_check(i, row))
    return errors


def validate_rows(rows: object, min_rows: int = 1) -> list[str]:
    """Return a list of measurement-schema violations (empty == valid)."""
    return _validate_against(rows, ROW_SCHEMA, min_rows, _bench_row_check)


def validate_sweep_rows(rows: object, min_rows: int = 1) -> list[str]:
    """Return a list of sweep-rows-schema violations (empty == valid)."""
    return _validate_against(rows, SWEEP_ROW_SCHEMA, min_rows,
                             _sweep_row_check)


def validate_serving_rows(rows: object, min_rows: int = 1) -> list[str]:
    """Return a list of serving-rows-schema violations (empty == valid)."""
    return _validate_against(rows, SERVING_ROW_SCHEMA, min_rows,
                             _serving_row_check)


def validate_serving_perf_rows(rows: object, min_rows: int = 1) -> list[str]:
    """Return a list of serving-perf-schema violations (empty == valid)."""
    return _validate_against(rows, SERVING_PERF_ROW_SCHEMA, min_rows,
                             _serving_perf_row_check)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("path", help="JSON file emitted by --json or "
                                     "REPRO_SWEEP_ROWS")
    parser.add_argument("--min-rows", type=int, default=1,
                        help="minimum number of rows")
    parser.add_argument("--schema",
                        choices=("bench", "sweep", "serving",
                                 "serving-perf", "obs-trace",
                                 "obs-metrics"),
                        default="bench",
                        help="row shape to validate (default: bench)")
    args = parser.parse_args(argv)

    try:
        with open(args.path) as fh:
            rows = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        print(f"FAIL: cannot read {args.path}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"FAIL: {args.path} is not valid strict JSON: {exc}",
              file=sys.stderr)
        return 1

    validate = {"bench": validate_rows, "sweep": validate_sweep_rows,
                "serving": validate_serving_rows,
                "serving-perf": validate_serving_perf_rows,
                "obs-trace": validate_obs_trace,
                "obs-metrics": validate_obs_metrics}[args.schema]
    errors = validate(rows, min_rows=args.min_rows)
    if errors:
        for err in errors:
            print(f"FAIL: {err}", file=sys.stderr)
        return 1
    # the obs schemas have dict top-levels; count their payload entries
    if args.schema == "obs-trace":
        n = sum(1 for e in rows["traceEvents"] if e.get("ph") != "M")
        unit = "slices"
    elif args.schema == "obs-metrics":
        n, unit = len(rows["metrics"]), "metrics"
    else:
        n, unit = len(rows), f"{args.schema} rows"
    print(f"OK: {args.path} — {n} {unit}, schema valid")
    return 0


if __name__ == "__main__":
    sys.exit(main())
