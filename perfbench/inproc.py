"""The traced run's in-process pass over GenExpan and CaSE.

GenExpan, CaSE and the ``text`` indexes open no spans inside the program,
so this pass restores both methods from the prefitted store in the
benchmark process and wraps the public functions of those layers from
here.  It makes two passes over the same queries: one counting calls, one
timing stages, so the counting wrappers (~10^5 calls a query) do not
inflate the stage times.  Both passes must reproduce the reference
rankings.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict
from pathlib import Path

import repro.genexpan.pipeline as genexpan_pipeline
from repro.dataset.ultrawiki import UltraWikiDataset
from repro.genexpan.cot import ChainOfThoughtReasoner
from repro.genexpan.generation import IterativeGenerator
from repro.lm.causal_lm import CausalEntityLM
from repro.serve.registry import ExpanderRegistry
from repro.store import ArtifactStore
from repro.text.bm25 import BM25Index
from repro.text.inverted_index import InvertedIndex

#: (owner, attribute, probe name, stage it must not nest in) of every timed
#: stage.  ``IterativeGenerator.run`` scores every beam iteration with
#: ``conditional_similarity_batch`` too; those calls are generation, so the
#: rerank stage counts only the calls made outside ``run``.
TIMED = (
    (ChainOfThoughtReasoner, "reason", "genexpan.cot", None),
    (IterativeGenerator, "run", "genexpan.generate", None),
    (CausalEntityLM, "conditional_similarity_batch", "genexpan.rerank", "genexpan.generate"),
    (genexpan_pipeline, "segmented_rerank", "genexpan.rerank", None),
    (BM25Index, "score", "text.bm25", None),
)
#: (owner, attribute, probe name, None) of every counted call.
COUNTED = (
    (CausalEntityLM, "entity_affinity", "lm.affinity_calls", None),
    (CausalEntityLM, "prompt_affinity", "lm.affinity_calls", None),
    (InvertedIndex, "postings", "text.postings_calls", None),
    (BM25Index, "idf", "text.idf_calls", None),
)
METHODS = ("genexpan", "case")
#: the per-layer metrics this pass reports.
METRIC_NAMES = (
    "genexpan.cot_ms", "genexpan.generate_ms", "genexpan.rerank_ms",
    "lm.affinity_calls_per_query", "text.postings_calls_per_query",
    "text.idf_calls_per_query", "text.bm25_ms",
)


@contextlib.contextmanager
def patched(probes, totals, timed: bool, clock=time.perf_counter):
    """Wrap every probe's function for the duration of the block: timers
    add seconds to ``totals[name]``, counters add calls."""
    originals = []
    active: Counter = Counter()
    for owner, attribute, name, outside in probes:
        original = getattr(owner, attribute)
        originals.append((owner, attribute, original))
        setattr(owner, attribute, _timer(original, name, outside, totals, active, clock)
                if timed else _counter(original, name, totals))
    try:
        yield
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


def _timer(function, name, outside, totals, active, clock):
    def timed(*args, **kwargs):
        if active[outside]:
            return function(*args, **kwargs)
        active[name] += 1
        started = clock()
        try:
            return function(*args, **kwargs)
        finally:
            totals[name] += clock() - started
            active[name] -= 1
    return timed


def _counter(function, name, totals):
    def counted(*args, **kwargs):
        totals[name] += 1
        return function(*args, **kwargs)
    return counted


def run_pass(prepared: Path, expected: dict, query_ids: list[str], top_k: int):
    """Per-layer metrics of the pass, the ranking mismatches, the number of
    fits the restore needed, and the stages the served config skips."""
    dataset = UltraWikiDataset.load(prepared / "dataset")
    registry = ExpanderRegistry(dataset, store=ArtifactStore(prepared / "store"))
    expanders = {method: registry.get(method) for method in METHODS}
    queries = {query.query_id: query for query in dataset.queries}
    totals: dict[str, float] = defaultdict(float)
    mismatches = []
    for probes, timed in ((COUNTED, False), (TIMED, True)):
        with patched(probes, totals, timed):
            for method, expander in expanders.items():
                for query_id in query_ids:
                    result = expander.expand(queries[query_id], top_k=top_k)
                    served = tuple((item.entity_id, item.score) for item in result.ranking)
                    if served != expected[(method, query_id)]:
                        mismatches.append(f"in-process {method} {query_id}")
    per_query = 1.0 / len(query_ids)
    metrics = {
        "genexpan.cot_ms": totals["genexpan.cot"] * 1000.0 * per_query,
        "genexpan.generate_ms": totals["genexpan.generate"] * 1000.0 * per_query,
        "genexpan.rerank_ms": totals["genexpan.rerank"] * 1000.0 * per_query,
        "lm.affinity_calls_per_query": totals["lm.affinity_calls"] * per_query,
        "text.postings_calls_per_query": totals["text.postings_calls"] * per_query,
        "text.idf_calls_per_query": totals["text.idf_calls"] * per_query,
        "text.bm25_ms": totals["text.bm25"] * 1000.0 * per_query,
    }
    skipped = {}
    if expanders["genexpan"].reasoner is None:
        skipped["genexpan.cot_ms"] = "the served GenExpan runs with cot_mode 'none'"
    fits = registry.stats()
    return metrics, mismatches, fits["fits"] + fits["substrates"]["fits"], skipped
