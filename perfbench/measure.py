"""Measurement helpers of the serving benchmark.

Pure functions over numbers, span dicts and log lines: no server, no clock,
no randomness beyond a caller-supplied seed.  ``test_measure.py`` pins each
of them.
"""

from __future__ import annotations

import bisect
import json
import math
import random
import statistics
from collections import Counter
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

#: a tail percentile must leave at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


# -- percentiles -----------------------------------------------------------------
def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``pct``."""
    return count - max(math.ceil(pct / 100.0 * count), 1)


def supported_percentile(
    counts: Iterable[int],
    ladder: Sequence[float] = (50, 75, 90, 95, 99, 99.9),
) -> float | None:
    """The highest percentile of ``ladder`` that leaves at least
    :data:`MIN_SAMPLES_BEYOND` samples beyond it in *every* class, or
    ``None`` when not even the lowest does."""
    counts = list(counts)
    best = None
    for pct in sorted(ladder):
        if counts and all(samples_beyond(n, pct) >= MIN_SAMPLES_BEYOND for n in counts):
            best = pct
    return best


# -- per-class combination -------------------------------------------------------
def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values or any(v <= 0 for v in values):
        raise ValueError(f"geometric mean needs positive values, got {values}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def balanced_percentile(samples: Sequence[tuple[float, Hashable]], pct: float) -> float:
    """Nearest-rank ``pct`` percentile of ``(value, key, ...)`` samples in
    which every key weighs the same in total.

    A class's queries differ in cost by up to ~3x, and a run ends after
    however many rounds the host's speed allows, so some queries are
    sampled once more than others.  Weighting each sample by one over its
    key's count makes the percentile that of the query set itself, whatever
    the partial pass at the end.  With a single key it is the plain
    nearest-rank percentile."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile {pct} outside (0, 100]")
    counts = Counter(sample[1] for sample in samples)
    target = pct / 100.0 * len(counts)
    cumulative = 0.0
    ordered = sorted(samples, key=lambda sample: sample[0])
    for value, key, *_ in ordered:
        cumulative += 1.0 / counts[key]
        if cumulative >= target - 1e-9:
            return value
    return ordered[-1][0]


def balanced_mean(samples: Sequence[tuple[float, Hashable]]) -> float:
    """Mean of ``(value, key, ...)`` samples in which every key weighs the
    same in total: the mean over keys of each key's mean."""
    if not samples:
        raise ValueError("mean of no samples")
    per_key: dict[Hashable, list[float]] = {}
    for value, key, *_ in samples:
        per_key.setdefault(key, []).append(value)
    return statistics.fmean(statistics.fmean(values) for values in per_key.values())


def class_geomean(samples: Mapping[str, Sequence[tuple[float, Hashable]]], pct: float) -> float:
    """Geometric mean over request classes of each class's balanced
    ``pct`` percentile.

    Classes are weighted equally whatever their sample counts or their
    latency scale, so a 500 ms class does not drown a 5 ms one."""
    return geomean(balanced_percentile(values, pct) for values in samples.values())


def class_median_mean(samples: Mapping[str, Sequence[float]]) -> float:
    """Arithmetic mean over classes of each class's median (for layer
    times, which may legitimately be zero); 0.0 when no class has samples."""
    medians = [statistics.median(values) for values in samples.values() if values]
    return sum(medians) / len(medians) if medians else 0.0


def iqr_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median, with the quartiles of ``statistics.quantiles(values, n=4)``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


# -- host speed ------------------------------------------------------------------
def speed_factors(
    times: Sequence[float],
    probes: Sequence[tuple[float, float]],
    reference_ms: float,
    window: float,
) -> list[float]:
    """For each of ``times``, ``reference_ms`` over the median host-probe
    reading taken within ``window`` seconds of it (the nearest reading when
    none was): the factor that scales a duration measured then to a host on
    which the probe reads ``reference_ms``.

    ``probes`` are ``(time, probe_ms)`` in time order."""
    if not probes:
        raise ValueError("no host-probe readings to scale by")
    stamps = [stamp for stamp, _ in probes]
    factors = []
    for moment in times:
        lo = bisect.bisect_left(stamps, moment - window)
        hi = bisect.bisect_right(stamps, moment + window)
        if lo == hi:
            nearest = min(
                (index for index in (lo - 1, lo) if 0 <= index < len(stamps)),
                key=lambda index: abs(stamps[index] - moment),
            )
            lo, hi = nearest, nearest + 1
        factors.append(reference_ms / statistics.median(ms for _, ms in probes[lo:hi]))
    return factors


# -- spans -----------------------------------------------------------------------
def span_end(entry: Mapping) -> float:
    return entry["start_ms"] + entry["duration_ms"]


def children_of(parent: Mapping, spans: Iterable[Mapping]) -> list[Mapping]:
    """Spans named as children of ``parent`` that start inside its interval.

    ``debug.timings`` carries parent *names*, not ids, and one timings list
    may hold several spans of the same name (every query of a micro-batch
    has its own ``expand``), so containment disambiguates."""
    start, end = parent["start_ms"], span_end(parent)
    return [
        entry
        for entry in spans
        if entry is not parent
        and entry.get("parent") == parent["name"]
        and start <= entry["start_ms"] <= end
    ]


def self_time(parent: Mapping, spans: Iterable[Mapping]) -> float:
    """``parent``'s duration minus the part of its interval its children
    cover (overlapping children are counted once)."""
    start, end = parent["start_ms"], span_end(parent)
    intervals = sorted(
        (max(child["start_ms"], start), min(span_end(child), end))
        for child in children_of(parent, spans)
    )
    covered = 0.0
    cursor = start
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return parent["duration_ms"] - covered


def find_span(spans: Iterable[Mapping], name: str, **meta) -> Mapping | None:
    """The first span called ``name`` whose meta holds every ``meta`` item."""
    for entry in spans:
        if entry["name"] != name:
            continue
        entry_meta = entry.get("meta") or {}
        if all(entry_meta.get(key) == value for key, value in meta.items()):
            return entry
    return None


# -- workload streams ------------------------------------------------------------
def zipf_stream(keys: Sequence, seed: int, exponent: float = 1.1) -> Iterator:
    """An endless Zipf-popular stream over ``keys``.

    The seed shuffles which key holds which popularity rank and drives the
    draws, so one seed always yields one stream."""
    rng = random.Random(seed)
    ranked = list(keys)
    rng.shuffle(ranked)
    cumulative = []
    total = 0.0
    for rank in range(len(ranked)):
        total += 1.0 / (rank + 1) ** exponent
        cumulative.append(total)
    while True:
        yield rng.choices(ranked, cum_weights=cumulative)[0]


def cycled_permutation(keys: Sequence, seed: int) -> Iterator:
    """``keys`` in one seeded order, repeated: every key once per pass."""
    order = list(keys)
    random.Random(seed).shuffle(order)
    while True:
        yield from order


# -- logs ------------------------------------------------------------------------
def parse_json_lines(text: str) -> list[dict]:
    """The JSON-object lines of a log; anything else (banners, tracebacks)
    is skipped."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(row, dict):
            rows.append(row)
    return rows


def join_by_request_id(
    left: Iterable[Mapping], right: Iterable[Mapping]
) -> tuple[list[tuple[Mapping, Mapping]], dict]:
    """Pair rows of two logs that share a ``request_id``.

    An id seen more than once on either side is ambiguous: it is left out of
    the pairs and counted as a duplicate.  Returns the pairs (in ``left``
    order) and the counts ``matched``, ``unmatched_left``,
    ``unmatched_right`` and ``duplicates``."""
    def index(rows):
        seen: dict[str, list[Mapping]] = {}
        for row in rows:
            request_id = row.get("request_id")
            if request_id is not None:
                seen.setdefault(request_id, []).append(row)
        return seen

    left_ix, right_ix = index(left), index(right)
    duplicates = {
        request_id
        for ix in (left_ix, right_ix)
        for request_id, rows in ix.items()
        if len(rows) > 1
    }
    pairs = [
        (rows[0], right_ix[request_id][0])
        for request_id, rows in left_ix.items()
        if request_id not in duplicates and request_id in right_ix
    ]
    counts = {
        "matched": len(pairs),
        "unmatched_left": sum(
            1 for rid in left_ix if rid not in right_ix and rid not in duplicates
        ),
        "unmatched_right": sum(
            1 for rid in right_ix if rid not in left_ix and rid not in duplicates
        ),
        "duplicates": len(duplicates),
    }
    return pairs, counts


def prometheus_total(text: str, name: str) -> float:
    """Sum of every sample of the metric ``name`` in Prometheus text."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        metric, _, value = line.rpartition(" ")
        if metric == name or metric.startswith(name + "{"):
            total += float(value)
    return total
