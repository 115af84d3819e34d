"""Self-tests of the benchmark's measurement helpers (no server needed)::

    python3 -m pytest perfbench/test_measure.py -q
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from measure import (  # noqa: E402
    balanced_mean,
    balanced_percentile,
    class_geomean,
    class_median_mean,
    cycled_permutation,
    iqr_spread,
    join_by_request_id,
    parse_json_lines,
    prometheus_total,
    samples_beyond,
    self_time,
    speed_factors,
    supported_percentile,
    zipf_stream,
)


# -- percentile and the ">= 10 samples beyond" rule ------------------------------
def _one_key(values):
    return [(value, "q") for value in values]


def test_balanced_percentile_with_one_key_is_the_nearest_rank():
    values = _one_key(range(1, 101))
    assert balanced_percentile(values, 50) == 50
    assert balanced_percentile(values, 90) == 90
    assert balanced_percentile(values, 99) == 99
    assert balanced_percentile(values, 100) == 100
    assert balanced_percentile(_one_key([7.0]), 99) == 7.0
    assert balanced_percentile(_one_key([3, 1, 2]), 50) == 2  # sorts first


def test_balanced_percentile_weighs_every_key_equally():
    one_pass = [(1.0, "a"), (2.0, "b"), (3.0, "c"), (4.0, "d")]
    assert balanced_percentile(one_pass, 50) == 2.0
    # a partial second pass samples "d" twice: the plain nearest-rank median
    # would move to 3.0, the balanced one stays with the query set.
    assert balanced_percentile(one_pass + [(4.0, "d")], 50) == 2.0
    assert balanced_percentile(one_pass * 3, 50) == 2.0
    assert balanced_percentile(one_pass, 75) == 3.0
    # one expensive key sampled 9 times still holds only its quarter
    skewed = one_pass + [(9.0, "d")] * 8
    assert balanced_percentile(skewed, 75) == 3.0


@pytest.mark.parametrize("pct", [0, -1, 101])
def test_balanced_percentile_rejects_out_of_range(pct):
    with pytest.raises(ValueError):
        balanced_percentile(_one_key([1.0]), pct)


def test_samples_beyond_counts_the_tail():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(100, 99) == 1
    assert samples_beyond(20, 50) == 10
    assert samples_beyond(19, 50) == 9


def test_supported_percentile_needs_ten_beyond_in_every_class():
    assert supported_percentile([1000, 1000]) == 99
    assert supported_percentile([1000, 100]) == 90
    assert supported_percentile([1000, 40]) == 75
    assert supported_percentile([20, 5000]) == 50
    assert supported_percentile([19, 5000]) is None
    assert supported_percentile([]) is None


# -- per-class combination ----------------------------------------------------------
def test_class_geomean_weights_classes_equally():
    samples = {
        "slow": _one_key([100.0, 400.0, 400.0]),
        "fast": _one_key([1.0] * 50 + [9.0] * 49),
    }
    # medians 400 and 1 -> geometric mean 20, whatever the sample counts.
    assert class_geomean(samples, 50) == pytest.approx(20.0)


def test_balanced_mean_weighs_every_key_equally():
    one_pass = [(1.0, "a"), (3.0, "b")]
    assert balanced_mean(one_pass) == 2.0
    # a partial second pass that reached only "b" leaves the mean alone
    assert balanced_mean(one_pass + [(3.0, "b", 7.0)]) == 2.0
    assert balanced_mean([(1.0, "a"), (3.0, "a")]) == 2.0


def test_class_geomean_at_a_tail_percentile():
    samples = {"a": _one_key(range(1, 101)), "b": _one_key(10 * v for v in range(1, 101))}
    assert class_geomean(samples, 90) == pytest.approx(math.sqrt(90 * 900))


def test_geomean_rejects_nonpositive_values():
    with pytest.raises(ValueError):
        class_geomean({"a": _one_key([0.0])}, 50)


def test_class_median_mean_allows_zero_and_skips_empty_classes():
    assert class_median_mean({"a": [0.0, 0.0, 2.0], "b": [4.0], "c": []}) == 2.0
    assert class_median_mean({}) == 0.0


def test_iqr_spread_matches_statistics_quantiles():
    values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    # exclusive quantiles: q1 = 11.75, median 14.5, q3 = 17.25
    assert iqr_spread(values) == pytest.approx(5.5 / 14.5)


# -- host speed ----------------------------------------------------------------------
def test_speed_factors_scale_by_the_median_reading_in_the_window():
    probes = [(0.0, 1.0), (0.5, 2.0), (1.0, 4.0), (3.0, 0.5)]
    # t=0.5 sees 1.0, 2.0, 4.0 within 0.6 s: median 2.0
    assert speed_factors([0.5], probes, 1.0, 0.6) == [0.5]
    # t=0.0 sees 1.0 and 2.0: median 1.5
    assert speed_factors([0.0], probes, 3.0, 0.6) == [2.0]
    # no reading within the window: the nearest one
    assert speed_factors([2.2], probes, 1.0, 0.1) == [2.0]
    assert speed_factors([1.9], probes, 1.0, 0.1) == [0.25]
    assert speed_factors([-5.0, 9.0], probes, 1.0, 0.1) == [1.0, 2.0]


def test_speed_factors_leave_a_steady_host_unscaled():
    probes = [(0.1 * index, 0.5) for index in range(50)]
    assert speed_factors([0.0, 2.45, 4.9], probes, 0.5, 1.0) == [1.0, 1.0, 1.0]


def test_speed_factors_need_readings():
    with pytest.raises(ValueError):
        speed_factors([1.0], [], 0.5, 1.0)


def test_balanced_percentile_ignores_fields_after_the_key():
    samples = [(1.0, "a", 10.0), (2.0, "b", 11.0), (3.0, "c", 12.0)]
    assert balanced_percentile(samples, 50) == 2.0


# -- span self time -----------------------------------------------------------------
def _span(name, start, duration, parent=None, **meta):
    entry = {"name": name, "start_ms": start, "duration_ms": duration}
    if parent:
        entry["parent"] = parent
    if meta:
        entry["meta"] = meta
    return entry


def test_self_time_subtracts_children():
    expand = _span("expand", 10.0, 10.0, "execute")
    spans = [expand, _span("candidates", 10.5, 1.0, "expand"), _span("score", 12.0, 4.0, "expand")]
    assert self_time(expand, spans) == pytest.approx(5.0)


def test_self_time_counts_overlapping_children_once_and_clips():
    expand = _span("expand", 0.0, 10.0)
    spans = [
        expand,
        _span("score", 1.0, 4.0, "expand"),
        _span("score", 3.0, 4.0, "expand"),  # overlaps 3..5
        _span("candidates", 9.0, 5.0, "expand"),  # runs past the parent's end
    ]
    assert self_time(expand, spans) == pytest.approx(10.0 - 6.0 - 1.0)


def test_self_time_ignores_children_of_a_sibling_parent():
    # a micro-batch timings list holds one expand per query
    first = _span("expand", 0.0, 10.0, "execute", query="q1")
    second = _span("expand", 10.0, 10.0, "execute", query="q2")
    spans = [first, _span("score", 2.0, 3.0, "expand"), second, _span("score", 12.0, 8.0, "expand")]
    assert self_time(first, spans) == pytest.approx(7.0)
    assert self_time(second, spans) == pytest.approx(2.0)


# -- workload streams ---------------------------------------------------------------
def test_zipf_stream_is_deterministic_per_seed():
    keys = [f"q{i}" for i in range(32)]
    first = list(itertools.islice(zipf_stream(keys, 5), 500))
    again = list(itertools.islice(zipf_stream(keys, 5), 500))
    other = list(itertools.islice(zipf_stream(keys, 6), 500))
    assert first == again
    assert first != other
    assert set(first) <= set(keys)


def test_zipf_stream_is_skewed():
    keys = [f"q{i}" for i in range(32)]
    draws = list(itertools.islice(zipf_stream(keys, 1), 20000))
    counts = sorted((draws.count(key) for key in set(draws)), reverse=True)
    assert counts[0] > 5 * counts[len(counts) // 2]


def test_cycled_permutation_visits_every_key_once_per_pass():
    keys = list(range(8))
    stream = cycled_permutation(keys, 3)
    first_pass = [next(stream) for _ in keys]
    second_pass = [next(stream) for _ in keys]
    assert sorted(first_pass) == keys
    assert first_pass == second_pass
    assert first_pass == list(itertools.islice(cycled_permutation(keys, 3), 8))


# -- logs -----------------------------------------------------------------------------
def test_join_by_request_id_pairs_matches():
    gateway = [{"request_id": "a", "latency_ms": 3.0}, {"request_id": "b", "latency_ms": 4.0}]
    worker = [{"request_id": "b", "latency_ms": 1.0}, {"request_id": "a", "latency_ms": 2.0}]
    pairs, counts = join_by_request_id(gateway, worker)
    assert [(g["latency_ms"], w["latency_ms"]) for g, w in pairs] == [(3.0, 2.0), (4.0, 1.0)]
    assert counts == {"matched": 2, "unmatched_left": 0, "unmatched_right": 0, "duplicates": 0}


def test_join_by_request_id_counts_unmatched_and_drops_duplicates():
    left = [{"request_id": "a"}, {"request_id": "dup"}, {"request_id": "dup"},
            {"request_id": "only-left"}, {"no_id": True}]
    right = [{"request_id": "a"}, {"request_id": "dup"}, {"request_id": "only-right"},
             {"request_id": "twice-right"}, {"request_id": "twice-right"}]
    pairs, counts = join_by_request_id(left, right)
    assert [left_row["request_id"] for left_row, _ in pairs] == ["a"]
    assert counts == {"matched": 1, "unmatched_left": 1, "unmatched_right": 1, "duplicates": 2}


def test_parse_json_lines_skips_banners_and_tracebacks():
    text = "\n".join([
        "Serving expansion API v1 on http://127.0.0.1:1",
        json.dumps({"request_id": "a", "cached": False}),
        "Traceback (most recent call last):",
        "{not json",
        "[1, 2]",
    ])
    assert parse_json_lines(text) == [{"request_id": "a", "cached": False}]


def test_prometheus_total_sums_label_sets():
    text = "\n".join([
        "# HELP repro_ann_queries_total x",
        'repro_ann_queries_total{dataset="d",method="a"} 3',
        'repro_ann_queries_total{dataset="d",method="b"} 4.5',
        'repro_ann_queries_total_other{dataset="d"} 100',
        "repro_ann_probes_total 7",
    ])
    assert prometheus_total(text, "repro_ann_queries_total") == 7.5
    assert prometheus_total(text, "repro_ann_probes_total") == 7.0
    assert prometheus_total(text, "missing_total") == 0.0


# -- BENCHMARK.json agrees with the runner ------------------------------------------
def test_benchmark_json_lists_what_the_runner_reports():
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(root / "src"))
    import layers
    import run
    import workloads

    hit_only = set(run.HIT_LAYER_RUNS.values())
    assert [w["name"] for w in spec["workloads"]] == [
        name for name in workloads.WORKLOADS if name not in hit_only
    ]
    assert set(run.HIT_LAYER_RUNS) <= {w["name"] for w in spec["workloads"]}
    for entry in spec["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END_UNITS.items()
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER
    )


# -- in-process stage timers -----------------------------------------------------
def test_stage_timers_do_not_count_scoring_inside_generation_as_rerank():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from collections import defaultdict

    import inproc

    ticks = itertools.count()

    class LM:
        def score(self):
            return 1

    class Generator:
        def __init__(self, lm):
            self.lm = lm

        def run(self):
            return [self.lm.score() for _ in range(3)]

    def expand(lm):
        ranked = Generator(lm).run()
        return ranked + [lm.score()]

    probes = (
        (Generator, "run", "generate", None),
        (LM, "score", "rerank", "generate"),
    )
    totals = defaultdict(float)
    with inproc.patched(probes, totals, True, clock=lambda: float(next(ticks))):
        assert expand(LM()) == [1, 1, 1, 1]
    # run: one clock read before and after (its three scores are not timed);
    # the one score outside run: one read before and after.
    assert totals == {"generate": 1.0, "rerank": 1.0}
    assert LM.score.__name__ == "score" and Generator.run.__name__ == "run"


# -- host probe --------------------------------------------------------------------
def test_host_probe_reads_and_closes():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from workloads import HostProbe

    probe = HostProbe()
    try:
        assert all(probe.read() > 0 for _ in range(3))
    finally:
        probe.close()
    assert not probe._echo.is_alive()
