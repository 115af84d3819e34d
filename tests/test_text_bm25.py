"""Tests for the BM25 index."""

import pytest
from scalar_oracles import textbook_bm25, textbook_bm25_search

from repro.text.bm25 import BM25Index


def build_index():
    index = BM25Index()
    index.add_document(1, "android phone brand with android system".split())
    index.add_document(2, "ios phone brand from america".split())
    index.add_document(3, "a country located in europe with high income".split())
    index.add_document(4, "another android handset maker".split())
    return index


class TestBM25:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BM25Index(k1=-1.0)
        with pytest.raises(ValueError):
            BM25Index(b=1.5)

    def test_num_documents(self):
        assert build_index().num_documents == 4

    def test_idf_decreases_with_document_frequency(self):
        index = build_index()
        assert index.idf("europe") > index.idf("android")
        assert index.idf("android") > index.idf("phone") or index.idf("android") == pytest.approx(
            index.idf("phone")
        )

    def test_idf_non_negative(self):
        index = build_index()
        for token in ("android", "phone", "brand", "europe", "missing"):
            assert index.idf(token) >= 0.0

    def test_score_zero_for_disjoint_query(self):
        index = build_index()
        assert index.score(["zebra"], 1) == 0.0

    def test_matching_document_scores_higher(self):
        index = build_index()
        assert index.score(["android"], 1) > index.score(["android"], 2)

    def test_search_returns_relevant_first(self):
        index = build_index()
        results = index.search(["android", "phone"], top_k=3)
        assert results[0][0] == 1

    def test_search_respects_top_k(self):
        assert len(build_index().search(["phone", "android", "europe"], top_k=2)) == 2

    def test_search_only_returns_matching_documents(self):
        results = build_index().search(["europe"], top_k=10)
        assert [doc_id for doc_id, _ in results] == [3]

    def test_search_empty_query(self):
        assert build_index().search([], top_k=5) == []

    def test_scores_sorted_descending(self):
        results = build_index().search(["android", "phone", "brand"], top_k=4)
        scores = [score for _, score in results]
        assert scores == sorted(scores, reverse=True)

    def test_term_frequency_saturation(self):
        # BM25 saturates: doubling tf should less than double the score.
        index = BM25Index()
        index.add_document(1, ["android"] * 1 + ["filler"] * 9)
        index.add_document(2, ["android"] * 2 + ["filler"] * 8)
        index.add_document(3, ["other"] * 10)
        single = index.score(["android"], 1)
        double = index.score(["android"], 2)
        assert double > single
        assert double < 2 * single


class TestCachedStatistics:
    """Cached idf / running length total against the textbook formula."""

    QUERIES = (
        ["android", "phone"],
        ["europe", "income", "android", "android"],
        ["brand", "maker", "zebra"],
        [],
    )

    def _assert_exact(self, index, documents):
        for query in self.QUERIES:
            for doc_id in list(documents) + [99]:
                assert index.score(query, doc_id) == textbook_bm25(documents, query, doc_id)
            assert index.search(query, top_k=10) == textbook_bm25_search(documents, query, 10)

    def test_interleaved_adds_and_removes_stay_exact(self):
        index = BM25Index()
        documents: dict[int, list[str]] = {}
        steps = [
            ("add", 1, "android phone brand with android system"),
            ("add", 2, "ios phone brand from america"),
            ("add", 3, "a country located in europe with high income"),
            ("remove", 2, None),
            ("add", 4, "another android handset maker"),
            ("add", 1, "android maker in europe"),  # re-adding overwrites
            ("remove", 7, None),  # unknown ids are a no-op
            ("add", 2, "phone phone phone brand"),
            ("remove", 3, None),
        ]
        for action, doc_id, text in steps:
            if action == "add":
                index.add_document(doc_id, text.split())
                documents[doc_id] = text.split()
            else:
                index.remove_document(doc_id)
                documents.pop(doc_id, None)
            self._assert_exact(index, documents)  # warms the idf cache each step
        assert index.num_documents == len(documents)

    def test_idf_cache_is_invalidated_by_mutation(self):
        index = build_index()
        before = index.idf("europe")
        index.add_document(5, ["europe", "europe"])
        assert index.idf("europe") < before
        index.remove_document(5)
        assert index.idf("europe") == before

    def test_postings_stay_a_copy(self):
        index = build_index()
        postings = index._index.postings("android")
        postings[1] = 100
        assert index._index.postings("android")[1] == 2
        with pytest.raises(TypeError):
            index._index.postings_view("android")[1] = 100
