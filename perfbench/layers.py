"""Per-layer numbers from the traced run's spans.

Every span is opened by the benchmark around one call into the library,
so a span's layer is the first segment of its name (``pipeline``,
``eval``, ``core``, ``lifecycle``, ``service``) or ``bench`` for the
benchmark's own root spans. A span's self time is its duration minus the
time its children cover.
"""

from __future__ import annotations

import statistics

from perfbench.outcome import percentile_ms

LAYERS = ("bench", "pipeline", "eval", "core", "lifecycle", "service")

#: Every per-layer metric, with its unit, in the order it is printed.
PER_LAYER_UNITS = {
    "pipeline.merge_s": "s",
    "pipeline.events_per_s": "1/s",
    "pipeline.readings_out": "count",
    "pipeline.peak_rss_mb": "MB",
    "eval.split_s": "s",
    "eval.split_rows_per_s": "1/s",
    "eval.evaluate_s": "s",
    "eval.users_per_s": "1/s",
    "core.closest.fit_s": "s",
    "core.closest.similarity_mb": "MB",
    "core.bpr.fit_s": "s",
    "core.bpr.samples_per_s": "1/s",
    "core.bpr.updated_fraction": "ratio",
    "core.bpr.violation_trials": "count",
    "lifecycle.publish_s": "s",
    "lifecycle.load_s": "s",
    "lifecycle.swap_s": "s",
    "lifecycle.swaps_failed": "count",
    "service.cache_hit_ratio": "ratio",
    "service.hit_ms_p50": "ms",
    "service.miss_ms_p50": "ms",
    "service.miss_ms_p99": "ms",
    "service.batch_ms_per_user.b1": "ms",
    "service.batch_ms_per_user.b8": "ms",
    "service.batch_ms_per_user.b32": "ms",
    "service.batch_ms_per_user.b128": "ms",
    "service.groups_per_batch": "count",
    "service.degraded": "count",
    "service.degraded_ratio": "ratio",
    "service.cold_start_served": "count",
    "service.stamp_lag": "count",
    "loadgen.latency_p99_ms": "ms",
    "loadgen.lateness_p99_ms": "ms",
    "loadgen.offered_rps": "1/s",
    "process.cpu_per_wall": "ratio",
    "obs.trace_overhead_ratio": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its children cover."""
    child_time: dict[str, float] = {}
    for span in spans:
        if span["parent_id"] is not None:
            child_time[span["parent_id"]] = (
                child_time.get(span["parent_id"], 0.0) + _seconds(span)
            )
    return [_seconds(s) - child_time.get(s["span_id"], 0.0) for s in spans]


def layer_table(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per layer: span count, total time, self time and share of self time.

    A layer's total counts only spans whose parent is in another layer, so
    nested spans of one layer are not counted twice.
    """
    by_id = {s["span_id"]: s for s in spans}
    table = {layer: {"count": 0, "total_s": 0.0, "self_s": 0.0, "share": 0.0}
             for layer in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(
            layer_of(span["name"]),
            {"count": 0, "total_s": 0.0, "self_s": 0.0, "share": 0.0},
        )
        row["count"] += 1
        row["self_s"] += own
        parent = by_id.get(span["parent_id"])
        if parent is None or layer_of(parent["name"]) != layer_of(span["name"]):
            row["total_s"] += _seconds(span)
    covered = sum(row["self_s"] for row in table.values())
    for row in table.values():
        row["share"] = row["self_s"] / covered if covered > 0 else 0.0
    return table


def render_table(table: dict[str, dict[str, float]]) -> str:
    lines = [f"{'layer':<10} {'count':>8} {'total_s':>10} {'self_s':>10} {'share':>7}"]
    for layer, row in table.items():
        lines.append(
            f"{layer:<10} {row['count']:>8d} {row['total_s']:>10.4f} "
            f"{row['self_s']:>10.4f} {row['share']:>7.1%}"
        )
    return "\n".join(lines)


def per_layer_metrics(spans: list[dict], overhead_ratio: float) -> dict[str, float]:
    """Every metric of :data:`PER_LAYER_UNITS`; 0 for a layer a workload
    does not run."""
    named: dict[str, list[dict]] = {}
    for span in spans:
        named.setdefault(span["name"], []).append(span)

    def durations(name: str) -> list[float]:
        return [_seconds(s) for s in named.get(name, [])]

    def attrs(name: str, key: str) -> list[float]:
        return [float(s["attrs"][key]) for s in named.get(name, []) if key in s["attrs"]]

    out: dict[str, float] = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    merge_s = sum(durations("pipeline.merge_sharded_corpus"))
    out["pipeline.merge_s"] = merge_s
    out["pipeline.events_per_s"] = _rate(sum(attrs("pipeline.merge_sharded_corpus", "events_in")), merge_s)
    out["pipeline.readings_out"] = _last(attrs("pipeline.merge_sharded_corpus", "readings_out"))
    out["pipeline.peak_rss_mb"] = max(attrs("pipeline.merge_sharded_corpus", "peak_rss_mb"), default=0.0)
    split_s = sum(durations("eval.split_readings"))
    out["eval.split_s"] = split_s
    out["eval.split_rows_per_s"] = _rate(sum(attrs("eval.split_readings", "rows_in")), split_s)
    evaluate_s = sum(durations("eval.evaluate_model"))
    out["eval.evaluate_s"] = evaluate_s
    out["eval.users_per_s"] = _rate(sum(attrs("eval.evaluate_model", "users")), evaluate_s)
    out["core.closest.fit_s"] = sum(durations("core.closest.fit"))
    out["core.closest.similarity_mb"] = _last(attrs("core.closest.fit", "similarity_mb"))
    out["core.bpr.fit_s"] = sum(durations("core.bpr.fit"))
    out["core.bpr.samples_per_s"] = _last(attrs("core.bpr.fit", "samples_per_s"))
    out["core.bpr.updated_fraction"] = _last(attrs("core.bpr.fit", "updated_fraction"))
    out["core.bpr.violation_trials"] = _last(attrs("core.bpr.fit", "violation_trials"))
    out["lifecycle.publish_s"] = _median(durations("lifecycle.publish"))
    out["lifecycle.load_s"] = _median(durations("lifecycle.load"))
    out["lifecycle.swap_s"] = _median(durations("service.refresh_from_store"))
    out["lifecycle.swaps_failed"] = float(
        sum(1 for ok in attrs("service.refresh_from_store", "ok") if not ok)
    )

    singles = named.get("service.recommend_response", [])
    batches = named.get("service.recommend_many", [])
    requests = singles + batches
    users = sum(s["attrs"]["users"] for s in requests)
    hits = sum(s["attrs"]["hits"] for s in requests)
    out["service.cache_hit_ratio"] = hits / users if users else 0.0
    hits_s = [_seconds(s) for s in singles if s["attrs"]["hits"]]
    misses_s = [_seconds(s) for s in singles if not s["attrs"]["hits"]]
    out["service.hit_ms_p50"] = percentile_ms(hits_s, 50)
    out["service.miss_ms_p50"] = percentile_ms(misses_s, 50)
    out["service.miss_ms_p99"] = percentile_ms(misses_s, 99)
    for size in (1, 8, 32, 128):
        per_user = [1e3 * _seconds(s) / size for s in requests if s["attrs"]["users"] == size]
        out[f"service.batch_ms_per_user.b{size}"] = _median(per_user)
    out["service.groups_per_batch"] = (
        statistics.fmean(s["attrs"]["groups"] for s in batches) if batches else 0.0
    )
    degraded = sum(s["attrs"]["degraded"] for s in requests)
    cold = sum(s["attrs"]["cold"] for s in requests)
    out["service.degraded"] = float(degraded)
    out["service.degraded_ratio"] = degraded / (users - cold) if users > cold else 0.0
    out["service.cold_start_served"] = float(cold)

    roots = [s for s in spans if s["parent_id"] is None and s["name"].startswith("bench.")]
    out["loadgen.latency_p99_ms"] = _last(
        [s["attrs"]["latency_p99_ms"] for s in roots if "latency_p99_ms" in s["attrs"]]
    )
    out["loadgen.lateness_p99_ms"] = _last(
        [s["attrs"]["lateness_p99_ms"] for s in roots if "lateness_p99_ms" in s["attrs"]]
    )
    out["loadgen.offered_rps"] = _last(
        [s["attrs"]["offered_rps"] for s in roots if "offered_rps" in s["attrs"]]
    )
    wall = sum(_seconds(s) for s in roots)
    out["process.cpu_per_wall"] = _rate(sum(s["cpu_seconds"] or 0.0 for s in roots), wall)
    out["obs.trace_overhead_ratio"] = overhead_ratio
    for layer, row in layer_table(spans).items():
        if layer in LAYERS:
            out[f"{layer}.self_s"] = row["self_s"]
    return out


def _seconds(span: dict) -> float:
    if span["start"] is None or span["end"] is None:
        return 0.0
    return span["end"] - span["start"]


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def _last(values: list[float]) -> float:
    return float(values[-1]) if values else 0.0


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0
