"""Scalar reference implementations the optimised code paths are checked against.

* :func:`scalar_generate_constrained` is GenExpan's prefix-tree constrained
  beam search with the per-(beam, child token) scorer it used to have: every
  token re-walks the trie, sorts the reachable names and calls
  ``prompt_affinity`` (and so ``entity_affinity``) once per name.
* :func:`textbook_bm25` and :func:`textbook_bm25_search` recompute Okapi BM25
  from the raw documents on every call, with no index or cache at all.

They are test oracles only: the library keeps one (batched / cached) path.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Mapping, Sequence

import numpy as np


def scalar_generate_constrained(
    lm,
    prompt_entity_ids: Sequence[int],
    prefix_tree,
    beam_width: int = 20,
    exclude_names: set[str] | None = None,
    max_length: int = 8,
) -> list[tuple[str, float]]:
    """``CausalEntityLM.generate_constrained`` scored one token at a time."""
    exclude_names = exclude_names or set()
    context = lm._prompt_tokens(prompt_entity_ids)
    name_to_id = {
        entity.name: entity_id for entity_id, entity in lm._entities_by_id.items()
    }

    def token_score(prefix: list[str], token: str) -> float:
        lm_score = lm._ngram.logprob(context + prefix, token)
        reachable = prefix_tree.entities_with_prefix(prefix + [token])
        affinities = [
            lm.prompt_affinity(name_to_id[name], prompt_entity_ids)
            for name in reachable[:20]
            if name in name_to_id
        ]
        best_affinity = max(affinities) if affinities else 0.0
        w = lm.config.affinity_weight
        return w * float(np.log(max(best_affinity, 1e-6))) + (1.0 - w) * lm_score

    beams: list[tuple[list[str], float]] = [([], 0.0)]
    completed: dict[str, float] = {}
    for _ in range(max_length):
        expansions: list[tuple[list[str], float]] = []
        for prefix, score in beams:
            allowed = prefix_tree.allowed_next(prefix)
            entity_name = prefix_tree.entity_at(prefix)
            if entity_name is not None and entity_name not in exclude_names:
                normalised = score / max(len(prefix), 1)
                if normalised > completed.get(entity_name, -np.inf):
                    completed[entity_name] = normalised
            for token in allowed:
                expansions.append((prefix + [token], score + token_score(prefix, token)))
        if not expansions:
            break
        expansions.sort(key=lambda item: -item[1] / max(len(item[0]), 1))
        beams = expansions[: beam_width * 2]
    for prefix, score in beams:
        entity_name = prefix_tree.entity_at(prefix)
        if entity_name is not None and entity_name not in exclude_names:
            normalised = score / max(len(prefix), 1)
            if normalised > completed.get(entity_name, -np.inf):
                completed[entity_name] = normalised
    ranked = sorted(completed.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:beam_width]


def textbook_bm25(
    documents: Mapping[int, Sequence[str]],
    query_tokens: Sequence[str],
    doc_id: int,
    k1: float = 1.5,
    b: float = 0.75,
) -> float:
    """Okapi BM25 of ``doc_id`` over ``documents``, from scratch, with the
    same floating-point operations in the same order as ``BM25Index``."""
    n = len(documents)
    avg_len = (sum(len(tokens) for tokens in documents.values()) / n if n else 0.0) or 1.0
    doc = Counter(documents.get(doc_id, ()))
    doc_len = len(documents.get(doc_id, ()))
    total = 0.0
    for token in query_tokens:
        tf = doc.get(token, 0)
        if tf == 0:
            continue
        df = sum(1 for tokens in documents.values() if token in tokens)
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        denom = tf + k1 * (1.0 - b + b * doc_len / avg_len)
        total += idf * tf * (k1 + 1.0) / denom
    return total


def textbook_bm25_search(
    documents: Mapping[int, Sequence[str]],
    query_tokens: Sequence[str],
    top_k: int = 10,
    k1: float = 1.5,
    b: float = 0.75,
) -> list[tuple[int, float]]:
    """Top-``top_k`` (doc_id, score) over the documents sharing a query token."""
    candidates = [
        doc_id
        for doc_id, tokens in documents.items()
        if any(token in tokens for token in query_tokens)
    ]
    scored = [
        (doc_id, textbook_bm25(documents, query_tokens, doc_id, k1=k1, b=b))
        for doc_id in candidates
    ]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:top_k]
