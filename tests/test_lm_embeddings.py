"""Tests for the co-occurrence (PPMI + SVD) embeddings."""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.lm.embeddings import CooccurrenceEmbeddings, _ppmi
from repro.utils.mathx import cosine_similarity


class TestPPMI:
    def test_zero_matrix(self):
        assert np.allclose(_ppmi(np.zeros((3, 3))), 0.0)

    def test_non_negative(self):
        rng = np.random.default_rng(0)
        matrix = rng.integers(0, 5, size=(6, 6)).astype(float)
        assert np.all(_ppmi(matrix) >= 0.0)

    def test_independent_rows_have_low_pmi(self):
        # A uniform matrix has no association anywhere: PPMI is exactly zero.
        assert np.allclose(_ppmi(np.ones((4, 4))), 0.0)


class TestCooccurrenceEmbeddings:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ModelError):
            CooccurrenceEmbeddings(dim=0)
        with pytest.raises(ModelError):
            CooccurrenceEmbeddings(window=0)
        with pytest.raises(ModelError):
            CooccurrenceEmbeddings(entity_dim=-1)

    def test_unfitted_access_raises(self):
        embeddings = CooccurrenceEmbeddings()
        with pytest.raises(ModelError):
            embeddings.token_vector("x")
        with pytest.raises(ModelError):
            embeddings.entity_vector(0)
        with pytest.raises(ModelError):
            embeddings.entity_matrix()

    def test_entity_matrix_is_the_array_behind_the_vectors(self, resources, tmp_path):
        embeddings = resources.cooccurrence_embeddings()
        ids, matrix = embeddings.entity_matrix()
        assert all(embeddings.entity_vector(int(i)).base is matrix for i in ids)
        embeddings.save(tmp_path)
        loaded_ids, loaded = CooccurrenceEmbeddings.load(tmp_path).entity_matrix()
        assert np.array_equal(loaded_ids, ids) and np.array_equal(loaded, matrix)

    def test_no_entities_give_an_empty_matrix(self, tiny_dataset, tmp_path):
        embeddings = CooccurrenceEmbeddings(dim=4).fit(tiny_dataset.corpus, [])
        ids, matrix = embeddings.entity_matrix()
        assert ids.shape == (0,) and matrix.shape == (0, embeddings.entity_dim)
        embeddings.save(tmp_path)
        _, loaded = CooccurrenceEmbeddings.load(tmp_path).entity_matrix()
        assert loaded.shape == (0, embeddings.entity_dim)

    def test_entity_dim_defaults_to_three_times_token_dim(self):
        assert CooccurrenceEmbeddings(dim=32).entity_dim == 96

    def test_fit_produces_vectors_for_all_entities(self, tiny_dataset):
        embeddings = CooccurrenceEmbeddings(dim=16, seed=1).fit(
            tiny_dataset.corpus, tiny_dataset.entities()[:100]
        )
        for entity in tiny_dataset.entities()[:100]:
            vector = embeddings.entity_vector(entity.entity_id)
            assert vector.shape == (embeddings.entity_dim,)
            assert np.isfinite(vector).all()

    def test_entity_vectors_are_unit_norm(self, tiny_dataset):
        embeddings = CooccurrenceEmbeddings(dim=16, seed=1).fit(
            tiny_dataset.corpus, tiny_dataset.entities()[:50]
        )
        for entity in tiny_dataset.entities()[:50]:
            norm = np.linalg.norm(embeddings.entity_vector(entity.entity_id))
            assert norm == pytest.approx(1.0, abs=1e-6) or norm == pytest.approx(0.0, abs=1e-6)

    def test_same_attribute_entities_more_similar(self, tiny_dataset, resources):
        """Entities sharing an attribute value should on average be closer."""
        embeddings = resources.cooccurrence_embeddings()
        phones = [
            e for e in tiny_dataset.entities() if e.fine_class == "countries"
        ][:60]
        attribute = "continent"
        same, different = [], []
        for i, a in enumerate(phones):
            for b in phones[i + 1 : i + 6]:
                similarity = embeddings.entity_similarity(a.entity_id, b.entity_id)
                if a.attributes[attribute] == b.attributes[attribute]:
                    same.append(similarity)
                else:
                    different.append(similarity)
        assert same and different
        assert np.mean(same) > np.mean(different)

    def test_entity_similarity_of_unknown_entity_is_zero(self, resources):
        embeddings = resources.cooccurrence_embeddings()
        assert embeddings.entity_similarity(10**9, 10**9 + 1) == 0.0

    def test_token_vector_lookup(self, resources):
        embeddings = resources.cooccurrence_embeddings()
        vector = embeddings.token_vector("android")
        assert vector.shape[0] == embeddings.dim

    def test_has_entity(self, tiny_dataset, resources):
        embeddings = resources.cooccurrence_embeddings()
        assert embeddings.has_entity(tiny_dataset.entities()[0].entity_id)
        assert not embeddings.has_entity(10**9)

    def test_related_tokens_closer_than_unrelated(self, resources):
        """Tokens from the same attribute phrase should be closer than random pairs."""
        embeddings = resources.cooccurrence_embeddings()
        related = cosine_similarity(
            embeddings.token_vector("android"), embeddings.token_vector("operating")
        )
        unrelated = cosine_similarity(
            embeddings.token_vector("android"), embeddings.token_vector("continent")
        )
        assert related > unrelated
