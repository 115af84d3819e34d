"""Per-layer metrics of a traced run, from the replies' ``debug.timings``
spans, the server's access log, and ``/v1/stats`` and ``/v1/metrics``
deltas.  Each layer time is a per-class median, averaged over the classes
that have samples.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

from measure import (
    children_of,
    class_geomean,
    class_median_mean,
    find_span,
    join_by_request_id,
    parse_json_lines,
    prometheus_total,
    self_time,
)
from prepare import METHODS as ALL_METHODS

SUBSTRATE_KINDS = ("ann_index", "causal_lm", "cooccurrence_embeddings", "entity_representations")

#: every per-layer metric: (name, unit, which direction is better).
PER_LAYER = (
    ("http.overhead_ms", "ms", "lower"),
    ("api.handle_ms", "ms", "lower"),
    ("client.cpu_ms_per_req", "ms", "lower"),
    ("gateway.overhead_ms", "ms", "lower"),
    ("gateway.proxy_failures", "count", "lower"),
    ("cache.lookup_ms", "ms", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("batcher.queue_wait_ms", "ms", "lower"),
    ("batcher.batches", "count", "lower"),
    ("batcher.batch_size_mean", "items/batch", "higher"),
    ("api.expand_batch_ms", "ms", "lower"),
    *((f"expand_ms.{method}", "ms", "lower") for method in ALL_METHODS),
    ("retexpan.candidates_ms", "ms", "lower"),
    ("retexpan.score_ms", "ms", "lower"),
    ("retexpan.self_ms", "ms", "lower"),
    ("genexpan.cot_ms", "ms", "lower"),
    ("genexpan.generate_ms", "ms", "lower"),
    ("genexpan.rerank_ms", "ms", "lower"),
    ("lm.affinity_calls_per_query", "count/query", "lower"),
    ("text.postings_calls_per_query", "count/query", "lower"),
    ("text.idf_calls_per_query", "count/query", "lower"),
    ("text.bm25_ms", "ms", "lower"),
    ("retrieval.ann_queries", "count", "higher"),
    ("retrieval.ann_probes", "count", "lower"),
    ("retrieval.ann_exact_fallbacks", "count", "lower"),
    ("setup.load_s", "s", "lower"),
    ("setup.warm_s", "s", "lower"),
    *((f"registry.restore_s.{method}", "s", "lower") for method in ALL_METHODS),
    *((f"substrate.restore_s.{kind}", "s", "lower") for kind in SUBSTRATE_KINDS),
    ("registry.fits", "count", "lower"),
    ("substrate.fits", "count", "lower"),
    ("obs.trace_overhead_pct", "%", "lower"),
)
_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def unit(name: str) -> str:
    return _UNITS[name]


def access_rows(text: str) -> list[dict]:
    """The worker access-log lines (the gateway's carry ``worker``)."""
    return [row for row in parse_json_lines(text) if "cached" in row]


def _service_ms(replies, fragment) -> float | None:
    """The server-side time of one call: the service latency of a single
    expand, the ``expand_batch`` handler span of a batch."""
    if fragment is None:
        return replies[0].latency_ms
    spans = json.loads(fragment)["spans"]
    fan_out = find_span(spans, "expand_batch")
    return None if fan_out is None else fan_out["duration_ms"]


def request_layers(loop, access: list[dict], not_exercised: dict) -> dict:
    """Layer times of the traced requests: HTTP and client, API handler,
    cache lookup, batcher queue, batch fan-out, expanders, RetExpan stages."""
    series: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    pairs, _ = join_by_request_id([{"request_id": record[2]} for record in loop.records], access)
    handled = {row["request_id"]: log["latency_ms"] for row, log in pairs}
    for method, rtt_ms, request_id, replies, fragment in loop.records:
        service_ms = _service_ms(replies, fragment)
        if service_ms is not None:
            series["http.overhead_ms"][method].append(rtt_ms - service_ms)
            if request_id in handled:
                series["api.handle_ms"][method].append(handled[request_id] - service_ms)
            if fragment is not None:
                series["api.expand_batch_ms"][method].append(service_ms)
        for reply in replies:
            spans = list(reply.timings or ())
            for name, metric in (("cache_lookup", "cache.lookup_ms"),
                                 ("queue_wait", "batcher.queue_wait_ms")):
                entry = find_span(spans, name)
                if entry is not None:
                    series[metric][method].append(entry["duration_ms"])
            expand = find_span(spans, "expand", query=reply.query_id)
            if expand is None:
                continue
            series[f"expand_ms.{method}"][method].append(expand["duration_ms"])
            if method == "retexpan":
                for child in children_of(expand, spans):
                    if child["name"] in ("candidates", "score"):
                        series[f"retexpan.{child['name']}_ms"][method].append(child["duration_ms"])
                series["retexpan.self_ms"][method].append(self_time(expand, spans))
    names = (
        "http.overhead_ms", "api.handle_ms", "cache.lookup_ms", "batcher.queue_wait_ms",
        "api.expand_batch_ms", *(f"expand_ms.{m}" for m in ALL_METHODS),
        "retexpan.candidates_ms", "retexpan.score_ms", "retexpan.self_ms",
    )
    metrics = {}
    for name in names:
        metrics[name] = class_median_mean(series.get(name, {}))
        if name not in series:
            not_exercised[name] = "no traced request crossed this layer"
    return metrics


def stats_layers(before: dict, after: dict, not_exercised: dict) -> dict:
    """Cache and batcher counters over the timed phase."""
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    batches = after["batcher"]["batches"] - before["batcher"]["batches"]
    items = after["batcher"]["requests"] - before["batcher"]["requests"]
    if not hits + misses:
        not_exercised["cache.hit_ratio"] = "requests bypass the cache (use_cache=false)"
    if not batches:
        not_exercised["batcher.batch_size_mean"] = "every request was a cache hit"
    return {
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "batcher.batches": batches,
        "batcher.batch_size_mean": items / batches if batches else 0.0,
    }


def ann_layers(before: str, after: str) -> dict:
    """ANN retrieval counters from ``/v1/metrics`` over the timed phase."""
    return {
        f"retrieval.ann_{name}": prometheus_total(after, f"repro_ann_{name}_total")
        - prometheus_total(before, f"repro_ann_{name}_total")
        for name in ("queries", "probes", "exact_fallbacks")
    }


def trace_overhead_pct(loop) -> float:
    """How much slower traced segments ran than the plain segments between
    them, by the same per-class median geomean as ``p50_ms``, both scaled to
    the reference host speed."""
    traced = class_geomean(loop.scaled(loop.traced_samples), 50)
    plain = class_geomean(loop.scaled(loop.samples), 50)
    return (traced / plain - 1.0) * 100.0


def gateway_overhead(gateway_log: str, worker_log: str) -> tuple[float, dict]:
    """Median gateway-minus-worker access-log duration of the expands both
    logged, joined by request id, and the join's counts."""
    gateway_rows = [
        row for row in parse_json_lines(gateway_log)
        if "worker" in row and row.get("route") == "/v1/expand"
    ]
    worker_rows = [row for row in access_rows(worker_log) if row.get("route") == "/v1/expand"]
    pairs, counts = join_by_request_id(gateway_rows, worker_rows)
    if not pairs:
        return 0.0, counts
    return statistics.median(g["latency_ms"] - w["latency_ms"] for g, w in pairs), counts
