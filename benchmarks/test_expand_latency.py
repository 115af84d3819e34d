"""Hot-path latency: ANN vs full scan, batched LM scoring, gateway cache.

Pins the PR's speedups as CI numbers instead of claims:

* **ANN candidate retrieval** — probed shortlist + exact rescore against
  the full-vocabulary scan on a 100k-entity synthetic vocabulary (larger
  than any dataset profile the suite builds), asserting the probed path is
  >= 5x faster while recall@50 against the exact ranking stays >= 0.98;
* **batched LM conditional similarity** — ``conditional_similarity_batch``
  (one memoised pass over all candidates x seeds) against the sequential
  per-pair loop, asserting >= 3x with bitwise-identical scores;
* **gateway result cache** — a repeated request served from the gateway's
  LRU against the proxied worker round trip over real sockets;
* **GenExpan beam scoring** — ``generate_constrained`` against the scalar
  per-token scorer it replaced (``tests/scalar_oracles.py``): zero scalar
  affinity calls inside the beam (a counter), output equal to the oracle,
  and >= 3x faster, both timed in one child process at one BLAS thread.

Every test writes its section of ``BENCH_hotpath.json`` at the repo root
(p50/p99 per-query latency, queries/sec) so future PRs can diff the
trajectory.  Each section carries its gates (value, bound, passed), an
overall ``passed``, and the provenance of the numbers (git sha, nproc, BLAS
vendor and threads, Python), so a failing number is recorded as failing.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.client import ExpansionClient
from repro.cluster import ClusterConfig, ClusterGateway
from repro.config import DatasetConfig, ServiceConfig
from repro.core.base import Expander
from repro.dataset.builder import build_dataset
from repro.retrieval import CandidateMatrix, PartitionedIndex, RetrievalProfile
from repro.serve import ExpansionHTTPServer, ExpansionService
from repro.types import ExpansionResult

#: synthetic retrieval workload — a vocabulary well past every dataset
#: profile, clustered the way entity representations cluster by class.
VOCABULARY_SIZE = 100_000
VECTOR_DIM = 96
CLUSTER_COUNT = 512
QUERY_BUDGET = 30
TOP_K = 50

#: the probed operating point asserted in CI (recall is asserted alongside,
#: so the knob cannot silently trade quality for the speedup number).
BENCH_NPROBE = 4

#: regression guards from the issue's acceptance criteria.
MIN_ANN_SPEEDUP = 5.0
MIN_ANN_RECALL = 0.98
MIN_LM_BATCH_SPEEDUP = 3.0

ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = ROOT / "BENCH_hotpath.json"

#: environment variables that pin the BLAS thread pool, by vendor.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _gate(value, minimum=None, maximum=None, equals=None) -> dict:
    """One asserted bound: the measured value, the bound, and whether it held."""
    if minimum is not None:
        bound, passed = f">= {minimum}", value >= minimum
    elif maximum is not None:
        bound, passed = f"<= {maximum}", value <= maximum
    else:
        bound, passed = f"== {equals}", value == equals
    return {"value": value, "bound": bound, "passed": bool(passed)}


def _git_sha() -> str:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True, timeout=10,
        ).stdout.strip()
        # the snapshot this run is rewriting does not make the code dirty.
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no", "--",
             ".", f":!{BENCH_PATH.name}"],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return f"{sha}-dirty" if dirty else sha


def _provenance(blas_threads=None) -> dict:
    """Where and how the numbers were measured."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except Exception:  # noqa: BLE001 - older numpy has no dict mode
        vendor = "unknown"
    threads = blas_threads
    if threads is None:
        threads = {var: os.environ[var] for var in BLAS_THREAD_VARS if var in os.environ}
        threads = threads or f"unpinned (BLAS default, up to nproc={os.cpu_count()})"
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "blas_vendor": vendor,
        "blas_threads": threads,
        "python": platform.python_version(),
    }


def _record(section: str, payload: dict, gates: dict, blas_threads=None) -> None:
    """Merge one section, with its gates and provenance, into the
    ``BENCH_hotpath.json`` snapshot.  Written before the test asserts, so a
    failing gate is recorded with ``passed: false``."""
    data: dict = {}
    if BENCH_PATH.exists():
        try:
            data = json.loads(BENCH_PATH.read_text())
        except ValueError:
            data = {}
    data[section] = {
        **payload,
        "gates": gates,
        "passed": all(gate["passed"] for gate in gates.values()),
        "provenance": _provenance(blas_threads),
    }
    BENCH_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _percentiles(seconds: list[float]) -> dict:
    values = np.asarray(seconds) * 1000.0
    return {
        "p50_ms": float(np.percentile(values, 50)),
        "p99_ms": float(np.percentile(values, 99)),
        "qps": float(len(values) / max(sum(seconds), 1e-12)),
    }


# ---------------------------------------------------------------------------
# 1. ANN probed retrieval vs the exact full-vocabulary scan
# ---------------------------------------------------------------------------


def _build_workload():
    rng = np.random.default_rng(13)
    centers = rng.normal(size=(CLUSTER_COUNT, VECTOR_DIM)) * 3.0
    assignment = rng.integers(0, CLUSTER_COUNT, size=VOCABULARY_SIZE)
    rows = (
        centers[assignment]
        + rng.normal(size=(VOCABULARY_SIZE, VECTOR_DIM)) * 0.4
    )
    vectors = {i: rows[i] for i in range(VOCABULARY_SIZE)}
    matrix = CandidateMatrix.from_vectors(vectors, normalize=True)
    matrix.attach_index(
        PartitionedIndex.build(matrix.matrix, matrix.ids, seed=0, iterations=3)
    )
    # seed-set queries: the mean vector of a few same-cluster entities, the
    # same probe query the expanders build from a request's positive seeds.
    queries = []
    for _ in range(QUERY_BUDGET):
        members = np.flatnonzero(assignment == rng.integers(0, CLUSTER_COUNT))
        picks = rng.choice(members, size=3, replace=False)
        queries.append((matrix.matrix[picks].mean(axis=0), picks.tolist()))
    return matrix, queries


def _exact_top_k(matrix, query, seeds):
    scores = matrix.matrix @ query
    scores[seeds] = -np.inf
    top = np.argpartition(-scores, TOP_K)[:TOP_K]
    return top[np.argsort(-scores[top])].tolist()


def _ann_top_k(matrix, query, seeds, profile):
    shortlist = matrix.shortlist(
        None, query, profile, required=TOP_K + len(seeds), exclude=seeds
    )
    scores = matrix.rows(shortlist) @ query
    top = np.argpartition(-scores, min(TOP_K, len(shortlist) - 1))[:TOP_K]
    return [shortlist[i] for i in top[np.argsort(-scores[top])]]


def run_ann_benchmark() -> dict:
    matrix, queries = _build_workload()
    profile = RetrievalProfile(ann="on", nprobe=BENCH_NPROBE)
    _exact_top_k(matrix, *queries[0])
    _ann_top_k(matrix, *queries[0], profile)  # warm both paths

    exact_times, exact_results = [], []
    for query, seeds in queries:
        started = time.perf_counter()
        exact_results.append(_exact_top_k(matrix, query, seeds))
        exact_times.append(time.perf_counter() - started)

    ann_times, ann_results = [], []
    for query, seeds in queries:
        started = time.perf_counter()
        ann_results.append(_ann_top_k(matrix, query, seeds, profile))
        ann_times.append(time.perf_counter() - started)

    recalls = [
        len(set(exact) & set(ann)) / TOP_K
        for exact, ann in zip(exact_results, ann_results)
    ]
    return {
        "vocabulary": VOCABULARY_SIZE,
        "dim": VECTOR_DIM,
        "nprobe": BENCH_NPROBE,
        "top_k": TOP_K,
        "exact": _percentiles(exact_times),
        "ann": _percentiles(ann_times),
        "speedup": sum(exact_times) / sum(ann_times),
        "recall": float(np.mean(recalls)),
    }


def test_ann_vs_full_scan(benchmark):
    result = benchmark.pedantic(run_ann_benchmark, rounds=1, iterations=1)
    print(
        f"\nann retrieval over {result['vocabulary']} x {result['dim']} vocabulary: "
        f"exact p50 {result['exact']['p50_ms']:.2f} ms, "
        f"ann p50 {result['ann']['p50_ms']:.2f} ms "
        f"({result['speedup']:.1f}x, recall@{result['top_k']} {result['recall']:.3f}, "
        f"nprobe={result['nprobe']})"
    )
    gates = {
        "recall": _gate(result["recall"], minimum=MIN_ANN_RECALL),
        "speedup": _gate(result["speedup"], minimum=MIN_ANN_SPEEDUP),
    }
    _record("ann_retrieval", result, gates)
    assert gates["recall"]["passed"]
    assert gates["speedup"]["passed"], (
        f"ANN-probed retrieval is only {result['speedup']:.1f}x the full scan "
        f"(needs >= {MIN_ANN_SPEEDUP}x)"
    )


# ---------------------------------------------------------------------------
# 2. batched vs sequential LM conditional similarity
# ---------------------------------------------------------------------------

#: candidates x seeds scored per pass (GenExpan's per-query shape).
LM_CANDIDATES = 80
LM_SEEDS = 4


def run_lm_benchmark(context) -> dict:
    lm = context.resources.causal_lm(further_pretrain=False)
    ids = context.dataset.entity_ids()
    generated = ids[:LM_CANDIDATES]
    seeds = ids[LM_CANDIDATES:LM_CANDIDATES + LM_SEEDS]

    lm.conditional_similarity_batch(generated[:4], seeds)  # warm caches

    started = time.perf_counter()
    sequential = {
        gid: sum(lm.conditional_similarity(gid, sid) for sid in seeds) / len(seeds)
        for gid in generated
    }
    sequential_s = time.perf_counter() - started

    started = time.perf_counter()
    batched = lm.conditional_similarity_batch(generated, seeds)
    batched_s = time.perf_counter() - started

    return {
        "bitwise_equal": batched == sequential,
        "candidates": len(generated),
        "seeds": len(seeds),
        "sequential_s": sequential_s,
        "batched_s": batched_s,
        "sequential_pairs_per_s": len(generated) * len(seeds) / sequential_s,
        "batched_pairs_per_s": len(generated) * len(seeds) / batched_s,
        "speedup": sequential_s / batched_s,
    }


def test_batched_lm_scoring(benchmark, context):
    result = benchmark.pedantic(
        run_lm_benchmark, args=(context,), rounds=1, iterations=1
    )
    print(
        f"\nconditional similarity over {result['candidates']} candidates x "
        f"{result['seeds']} seeds: sequential {result['sequential_pairs_per_s']:.0f} "
        f"pairs/s, batched {result['batched_pairs_per_s']:.0f} pairs/s "
        f"({result['speedup']:.1f}x)"
    )
    gates = {
        "bitwise_equal": _gate(result["bitwise_equal"], equals=True),
        "speedup": _gate(result["speedup"], minimum=MIN_LM_BATCH_SPEEDUP),
    }
    _record("lm_batch_scoring", result, gates)
    assert gates["bitwise_equal"]["passed"], "batched scoring must be bitwise identical"
    assert gates["speedup"]["passed"], (
        f"batched LM scoring is only {result['speedup']:.1f}x sequential "
        f"(needs >= {MIN_LM_BATCH_SPEEDUP}x)"
    )


# ---------------------------------------------------------------------------
# 3. gateway result cache round trip
# ---------------------------------------------------------------------------

GATEWAY_QUERY_BUDGET = 30


class _Stub(Expander):
    """A near-free deterministic expander so the numbers isolate the fabric."""

    def __init__(self, salt: str):
        super().__init__()
        self.name = salt
        self.salt = sum(ord(ch) for ch in salt)

    def _expand(self, query, top_k):
        scored = [
            (eid, 1.0 / (1.0 + ((eid * 2654435761 + self.salt) % 4093)))
            for eid in self.candidate_ids(query)
        ]
        return ExpansionResult.from_scores(query.query_id, scored)


def run_gateway_cache_benchmark() -> dict:
    dataset = build_dataset(DatasetConfig.tiny(seed=13))
    methods = tuple(f"stub{letter}" for letter in "abcdef")
    service = ExpansionService(
        dataset,
        config=ServiceConfig(batch_wait_ms=0.0, port=0, cache_capacity=0),
        factories={m: (lambda _res, m=m: _Stub(m)) for m in methods},
    )
    server = ExpansionHTTPServer(service, port=0).start()
    gateway = ClusterGateway(
        [("worker-0", server.url)],
        config=ClusterConfig(
            proxy_timeout_seconds=30.0,
            gateway_cache_capacity=512,
            gateway_cache_ttl_seconds=300.0,
        ),
        fingerprint=dataset.fingerprint(),
        port=0,
    ).start()
    queries = [q.query_id for q in dataset.queries[:10]]
    jobs = [
        (methods[i % len(methods)], queries[i % len(queries)])
        for i in range(GATEWAY_QUERY_BUDGET)
    ]
    try:
        with ExpansionClient.connect(gateway.url) as client:
            miss_times = []
            for method, query_id in jobs:  # first pass fills the cache
                started = time.perf_counter()
                client.expand(method, query_id=query_id, top_k=20)
                miss_times.append(time.perf_counter() - started)
            hit_times = []
            for method, query_id in jobs:
                started = time.perf_counter()
                result = client.expand(method, query_id=query_id, top_k=20)
                hit_times.append(time.perf_counter() - started)
                assert result.cached, "second pass must be a gateway hit"
        cache_stats = gateway.stats()["cache"]
    finally:
        gateway.shutdown()
        server.shutdown()
    return {
        "requests": len(jobs),
        "proxied": _percentiles(miss_times),
        "cache_hit": _percentiles(hit_times),
        "speedup": sum(miss_times) / sum(hit_times),
        "hits": cache_stats["hits"],
    }


def test_gateway_cache_round_trip(benchmark):
    result = benchmark.pedantic(run_gateway_cache_benchmark, rounds=1, iterations=1)
    print(
        f"\ngateway round trip over {result['requests']} requests: "
        f"proxied p50 {result['proxied']['p50_ms']:.2f} ms "
        f"({result['proxied']['qps']:.0f} q/s), cache hit p50 "
        f"{result['cache_hit']['p50_ms']:.2f} ms "
        f"({result['cache_hit']['qps']:.0f} q/s, {result['speedup']:.1f}x)"
    )
    gates = {
        "hits": _gate(result["hits"], minimum=result["requests"]),
        # a hit skips the worker round trip entirely; it must not be slower.
        "cache_hit_p50_ms": _gate(
            result["cache_hit"]["p50_ms"], maximum=result["proxied"]["p50_ms"]
        ),
    }
    _record("gateway_cache", result, gates)
    assert gates["hits"]["passed"]
    assert sum(result["cache_hit"].values()) > 0
    assert gates["cache_hit_p50_ms"]["passed"]


# ---------------------------------------------------------------------------
# 4. GenExpan constrained beam: batched affinity vs the scalar per-token scorer
# ---------------------------------------------------------------------------

#: prompts (one per query: its first three positive seeds) per measurement.
BEAM_PROMPTS = 12
#: GenExpan's served beam width.
BEAM_WIDTH = 24
MIN_BEAM_SPEEDUP = 3.0

ORACLE_PATH = ROOT / "tests" / "scalar_oracles.py"

#: the timing child: restores the LM, times oracle and batched beam over the
#: same prompts (interleaved, after one warm call each) and prints seconds.
BEAM_TIMING_SCRIPT = """
import importlib.util, json, sys, time
from repro.dataset.ultrawiki import UltraWikiDataset
from repro.lm.causal_lm import CausalEntityLM
from repro.text.prefix_tree import PrefixTree
from repro.text.tokenizer import WordTokenizer

spec = importlib.util.spec_from_file_location("scalar_oracles", sys.argv[2])
oracles = importlib.util.module_from_spec(spec)
spec.loader.exec_module(oracles)
job = json.loads(open(sys.argv[1]).read())
dataset = UltraWikiDataset.load(job["dataset"])
lm = CausalEntityLM.load_state(job["lm"], dataset.entities())
tree = PrefixTree.from_entities((e.name for e in dataset.entities()), WordTokenizer())
prompts = [(prompt, set(exclude)) for prompt, exclude in job["prompts"]]
width = job["beam_width"]
for prompt, exclude in prompts[:1]:
    oracles.scalar_generate_constrained(lm, prompt, tree, width, exclude)
    lm.generate_constrained(prompt, tree, width, exclude)
oracle_s = batched_s = 0.0
for prompt, exclude in prompts:
    started = time.perf_counter()
    oracles.scalar_generate_constrained(lm, prompt, tree, width, exclude)
    oracle_s += time.perf_counter() - started
    started = time.perf_counter()
    lm.generate_constrained(prompt, tree, width, exclude)
    batched_s += time.perf_counter() - started
print(json.dumps({"oracle_s": oracle_s, "batched_s": batched_s}))
"""


def _load_oracles():
    spec = importlib.util.spec_from_file_location("scalar_oracles", ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _beam_prompts(dataset) -> list[tuple[list[int], list[str]]]:
    prompts = []
    for query in dataset.queries[:BEAM_PROMPTS]:
        seeds = list(query.positive_seed_ids)
        exclude = sorted(dataset.entity(eid).name for eid in query.seed_ids())
        prompts.append((seeds[:3], exclude))
    return prompts


def _time_beam_in_child(context, prompts, scratch: Path) -> dict:
    """Oracle and batched seconds over ``prompts``, measured in a child
    process whose BLAS pool is pinned to one thread before numpy loads."""
    context.dataset.save(scratch / "dataset")
    context.resources.causal_lm().save_state(scratch / "lm")
    job = scratch / "job.json"
    job.write_text(json.dumps({
        "dataset": str(scratch / "dataset"),
        "lm": str(scratch / "lm"),
        "prompts": prompts,
        "beam_width": BEAM_WIDTH,
    }))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    completed = subprocess.run(
        [sys.executable, "-c", BEAM_TIMING_SCRIPT, str(job), str(ORACLE_PATH)],
        env=env, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def run_beam_benchmark(context, scratch: Path) -> dict:
    from repro.lm.causal_lm import CausalEntityLM

    oracles = _load_oracles()
    lm = context.resources.causal_lm()
    tree = context.resources.prefix_tree()
    prompts = _beam_prompts(context.dataset)

    calls = {"entity_affinity": 0, "prompt_affinity": 0}
    originals = {name: getattr(CausalEntityLM, name) for name in calls}

    def counting(name):
        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return originals[name](self, *args, **kwargs)
        return wrapper

    outputs = []
    for name in calls:
        setattr(CausalEntityLM, name, counting(name))
    try:
        for prompt, exclude in prompts:
            outputs.append(lm.generate_constrained(prompt, tree, BEAM_WIDTH, set(exclude)))
    finally:
        for name, original in originals.items():
            setattr(CausalEntityLM, name, original)

    names_equal, worst_relative = True, 0.0
    for (prompt, exclude), got in zip(prompts, outputs):
        expected = oracles.scalar_generate_constrained(
            lm, prompt, tree, BEAM_WIDTH, set(exclude)
        )
        names_equal &= [n for n, _ in got] == [n for n, _ in expected]
        for (_, score), (_, reference) in zip(got, expected):
            worst_relative = max(
                worst_relative, abs(score - reference) / max(abs(reference), 1e-300)
            )

    timing = _time_beam_in_child(context, prompts, scratch)
    return {
        "prompts": len(prompts),
        "beam_width": BEAM_WIDTH,
        "scalar_affinity_calls": sum(calls.values()),
        "names_equal_oracle": names_equal,
        "worst_relative_score_error": worst_relative,
        "oracle_ms_per_search": timing["oracle_s"] * 1000.0 / len(prompts),
        "batched_ms_per_search": timing["batched_s"] * 1000.0 / len(prompts),
        "speedup": timing["oracle_s"] / timing["batched_s"],
    }


def test_beam_scoring(benchmark, context, tmp_path):
    result = benchmark.pedantic(
        run_beam_benchmark, args=(context, tmp_path), rounds=1, iterations=1
    )
    print(
        f"\nconstrained beam over {result['prompts']} prompts (width "
        f"{result['beam_width']}): scalar oracle {result['oracle_ms_per_search']:.1f} "
        f"ms/search, batched {result['batched_ms_per_search']:.1f} ms/search "
        f"({result['speedup']:.1f}x at 1 BLAS thread), "
        f"{result['scalar_affinity_calls']} scalar affinity calls"
    )
    gates = {
        "scalar_affinity_calls": _gate(result["scalar_affinity_calls"], equals=0),
        "names_equal_oracle": _gate(result["names_equal_oracle"], equals=True),
        "worst_relative_score_error": _gate(
            result["worst_relative_score_error"], maximum=1e-12
        ),
        "speedup": _gate(result["speedup"], minimum=MIN_BEAM_SPEEDUP),
    }
    _record("beam_scoring", result, gates, blas_threads=1)
    assert gates["scalar_affinity_calls"]["passed"], "the beam must not score entity by entity"
    assert gates["names_equal_oracle"]["passed"], "batched beam diverged from the oracle"
    assert gates["worst_relative_score_error"]["passed"]
    assert gates["speedup"]["passed"], (
        f"batched beam scoring is only {result['speedup']:.1f}x the scalar oracle "
        f"(needs >= {MIN_BEAM_SPEEDUP}x)"
    )
