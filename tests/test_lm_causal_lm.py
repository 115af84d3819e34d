"""Tests for the n-gram LM and the causal entity LM (LLaMA substitute)."""

import numpy as np
import pytest

from scalar_oracles import scalar_generate_constrained

from repro.config import CausalLMConfig
from repro.exceptions import ModelError
from repro.lm.causal_lm import CausalEntityLM, NGramLanguageModel
from repro.text.prefix_tree import PrefixTree
from repro.text.tokenizer import WordTokenizer
from repro.types import Entity


class TestNGramLanguageModel:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ModelError):
            NGramLanguageModel(order=0)
        with pytest.raises(ModelError):
            NGramLanguageModel(smoothing=0.0)

    def test_probabilities_sum_close_to_one(self):
        lm = NGramLanguageModel(order=2, smoothing=0.1)
        lm.fit([["a", "b", "c"], ["a", "b", "d"]])
        vocab = lm.vocabulary
        total = sum(lm.probability(["a"], token) for token in vocab)
        assert total == pytest.approx(1.0, abs=0.05)

    def test_seen_continuation_more_likely(self):
        lm = NGramLanguageModel(order=2)
        lm.fit([["the", "android", "phone"]] * 5 + [["the", "country", "votes"]])
        assert lm.probability(["the"], "android") > lm.probability(["the"], "votes")

    def test_unseen_token_gets_small_probability(self):
        lm = NGramLanguageModel(order=2)
        lm.fit([["a", "b"]])
        assert 0.0 < lm.probability(["a"], "zzz") < 0.2

    def test_sequence_logprob_additivity(self):
        lm = NGramLanguageModel(order=2)
        lm.fit([["a", "b", "c"]])
        combined = lm.sequence_logprob(["b", "c"], context=["a"])
        stepwise = lm.logprob(["a"], "b") + lm.logprob(["a", "b"], "c")
        assert combined == pytest.approx(stepwise)

    def test_next_logprobs_equal_scalar_logprob(self):
        lm = NGramLanguageModel(order=3)
        lm.fit([["the", "phone", "brand"]] * 3 + [["the", "country", "votes"]])
        lm.fit([["phone", "votes"]])  # a second fit keeps the context totals in step
        tokens = ["phone", "country", "votes", "brand", "unseen", "</s>"]
        for context in ([], ["the"], ["the", "phone"], ["x", "y", "z"]):
            batched = lm.next_logprobs(context, tokens)
            assert batched.tolist() == [lm.logprob(context, t) for t in tokens]

    def test_context_totals_survive_state_round_trip(self):
        lm = NGramLanguageModel(order=2)
        lm.fit([["a", "b", "c"], ["a", "b", "d"]])
        restored = NGramLanguageModel.from_state(lm.to_state())
        for token in ("b", "c", "d", "zzz"):
            assert restored.probability(["b"], token) == lm.probability(["b"], token)

    def test_next_token_candidates_ranked(self):
        lm = NGramLanguageModel(order=2)
        lm.fit([["the", "phone"]] * 10 + [["the", "country"]])
        candidates = lm.next_token_candidates(["the"], top_k=3)
        assert candidates[0][0] == "phone"
        scores = [score for _, score in candidates]
        assert scores == sorted(scores, reverse=True)


@pytest.fixture(scope="module")
def fitted_lm(tiny_dataset):
    config = CausalLMConfig(seed=3, embedding_dim=32)
    return CausalEntityLM(config).fit(tiny_dataset.corpus, tiny_dataset.entities())


@pytest.fixture(scope="module")
def prefix_tree(tiny_dataset):
    return PrefixTree.from_entities(
        (e.name for e in tiny_dataset.entities()), WordTokenizer()
    )


class TestCausalEntityLM:
    def test_unfitted_access_raises(self):
        lm = CausalEntityLM()
        with pytest.raises(ModelError):
            lm.entity_affinity(0, 1)

    def test_affinity_symmetric_and_bounded(self, fitted_lm, tiny_dataset):
        a, b = tiny_dataset.entity_ids()[:2]
        forward = fitted_lm.entity_affinity(a, b)
        backward = fitted_lm.entity_affinity(b, a)
        assert forward == pytest.approx(backward)
        assert 0.0 <= forward <= 1.0

    def test_affinity_respects_fine_class(self, fitted_lm, tiny_dataset):
        """Same-class entities should be more affine than cross-class ones on average."""
        classes = sorted(tiny_dataset.fine_classes)
        first = tiny_dataset.entities_of_fine_class(classes[0])[:10]
        second = tiny_dataset.entities_of_fine_class(classes[1])[:10]
        same = np.mean(
            [fitted_lm.entity_affinity(a.entity_id, b.entity_id) for a in first for b in first if a != b]
        )
        cross = np.mean(
            [fitted_lm.entity_affinity(a.entity_id, b.entity_id) for a in first for b in second]
        )
        assert same > cross

    def test_prompt_affinity_empty_prompt(self, fitted_lm, tiny_dataset):
        assert fitted_lm.prompt_affinity(tiny_dataset.entity_ids()[0], []) == 0.0

    def test_entity_logprob_finite(self, fitted_lm, tiny_dataset):
        ids = tiny_dataset.entity_ids()
        value = fitted_lm.entity_logprob(ids[0], ids[1:4])
        assert np.isfinite(value)
        assert value <= 0.0

    def test_entity_logprob_unknown_entity_raises(self, fitted_lm):
        with pytest.raises(ModelError):
            fitted_lm.entity_logprob(10**9, [])

    def test_conditional_similarity_bounded(self, fitted_lm, tiny_dataset):
        ids = tiny_dataset.entity_ids()
        value = fitted_lm.conditional_similarity(ids[0], ids[1])
        assert 0.0 <= value <= 1.0

    def test_conditional_similarity_unknown_entity_zero(self, fitted_lm, tiny_dataset):
        assert fitted_lm.conditional_similarity(10**9, tiny_dataset.entity_ids()[0]) == 0.0

    def test_constrained_generation_yields_valid_entities(
        self, fitted_lm, tiny_dataset, prefix_tree
    ):
        query = tiny_dataset.queries[0]
        generated = fitted_lm.generate_constrained(
            list(query.positive_seed_ids), prefix_tree, beam_width=10
        )
        assert generated
        assert len(generated) <= 10
        for name, score in generated:
            assert tiny_dataset.has_entity_name(name)
            assert np.isfinite(score)

    def test_constrained_generation_respects_exclusions(
        self, fitted_lm, tiny_dataset, prefix_tree
    ):
        query = tiny_dataset.queries[0]
        excluded = {tiny_dataset.entity(eid).name for eid in query.positive_seed_ids}
        generated = fitted_lm.generate_constrained(
            list(query.positive_seed_ids), prefix_tree, beam_width=10, exclude_names=excluded
        )
        assert not ({name for name, _ in generated} & excluded)

    def test_constrained_generation_prefers_same_class(self, fitted_lm, tiny_dataset, prefix_tree):
        query = tiny_dataset.queries[0]
        fine_class = tiny_dataset.ultra_class(query.class_id).fine_class
        generated = fitted_lm.generate_constrained(
            list(query.positive_seed_ids), prefix_tree, beam_width=10
        )
        same_class = sum(
            1
            for name, _ in generated
            if tiny_dataset.entity_by_name(name).fine_class == fine_class
        )
        assert same_class >= len(generated) // 2

    def test_unconstrained_generation_returns_strings(self, fitted_lm, tiny_dataset):
        query = tiny_dataset.queries[0]
        generated = fitted_lm.generate_unconstrained(list(query.positive_seed_ids), beam_width=5)
        assert isinstance(generated, list)
        for name, score in generated:
            assert isinstance(name, str)
            assert np.isfinite(score)

    def test_no_further_pretrain_uses_name_overlap_prior(self, tiny_dataset):
        config = CausalLMConfig(further_pretrain=False)
        lm = CausalEntityLM(config).fit(tiny_dataset.corpus, tiny_dataset.entities())
        entities = tiny_dataset.entities()
        shared_prefix = [
            (a, b)
            for i, a in enumerate(entities[:200])
            for b in entities[i + 1 : 200]
            if a.name.split()[0] == b.name.split()[0]
        ]
        if shared_prefix:
            a, b = shared_prefix[0]
            assert lm.entity_affinity(a.entity_id, b.entity_id) > 0.0


def _assert_matches_oracle(lm, prompt, tree, **kwargs):
    expected = scalar_generate_constrained(lm, prompt, tree, **kwargs)
    got = lm.generate_constrained(prompt, tree, **kwargs)
    assert [name for name, _ in got] == [name for name, _ in expected]
    for (_, score), (_, reference) in zip(got, expected):
        assert score == pytest.approx(reference, rel=1e-12, abs=0.0)
    return got


@pytest.fixture(scope="module")
def jaccard_lm(tiny_dataset):
    config = CausalLMConfig(further_pretrain=False)
    return CausalEntityLM(config).fit(tiny_dataset.corpus, tiny_dataset.entities())


@pytest.fixture(scope="module")
def lm_with_unembedded(fitted_lm, tiny_dataset, tmp_path_factory):
    """``fitted_lm`` restored against the dataset plus two entities the
    embeddings never saw: one sharing name tokens with a real entity."""
    directory = tmp_path_factory.mktemp("causal-lm")
    fitted_lm.save_state(directory)
    entities = tiny_dataset.entities()
    first = entities[0].name.split()[0]
    extra = [
        Entity(entity_id=10**6, name=f"{first} Unembedded"),
        Entity(entity_id=10**6 + 1, name="Zzyzx Unembedded"),
    ]
    lm = CausalEntityLM.load_state(directory, entities + extra)
    tree = PrefixTree.from_entities((e.name for e in entities + extra), WordTokenizer())
    return lm, tree, extra


class TestConstrainedBeamParity:
    """The batched beam against the per-token scalar scorer it replaced."""

    def test_matches_oracle_over_queries(self, fitted_lm, tiny_dataset, prefix_tree):
        for query in tiny_dataset.queries[:6]:
            _assert_matches_oracle(
                fitted_lm, list(query.positive_seed_ids), prefix_tree, beam_width=10
            )

    def test_matches_oracle_on_jaccard_path(self, jaccard_lm, tiny_dataset, prefix_tree):
        for query in tiny_dataset.queries[:4]:
            _assert_matches_oracle(
                jaccard_lm, list(query.positive_seed_ids), prefix_tree, beam_width=10
            )

    def test_matches_oracle_with_empty_prompt(self, fitted_lm, jaccard_lm, prefix_tree):
        assert _assert_matches_oracle(fitted_lm, [], prefix_tree, beam_width=8)
        assert _assert_matches_oracle(jaccard_lm, [], prefix_tree, beam_width=8)

    def test_matches_oracle_with_exclusions(self, fitted_lm, tiny_dataset, prefix_tree):
        query = tiny_dataset.queries[1]
        prompt = list(query.positive_seed_ids)
        unexcluded = fitted_lm.generate_constrained(prompt, prefix_tree, beam_width=10)
        excluded = {name for name, _ in unexcluded[:4]}
        got = _assert_matches_oracle(
            fitted_lm, prompt, prefix_tree, beam_width=10, exclude_names=excluded
        )
        assert not excluded & {name for name, _ in got}

    def test_matches_oracle_with_an_unembedded_entity(self, lm_with_unembedded, tiny_dataset):
        lm, tree, extra = lm_with_unembedded
        assert not lm._embeddings.has_entity(extra[0].entity_id)
        seeds = list(tiny_dataset.queries[0].positive_seed_ids)
        # the unembedded entity as a candidate, then inside the prompt too
        _assert_matches_oracle(lm, seeds, tree, beam_width=12)
        _assert_matches_oracle(lm, seeds[:2] + [extra[0].entity_id], tree, beam_width=12)
        _assert_matches_oracle(lm, [extra[1].entity_id], tree, beam_width=12)

    def test_prompt_affinities_equal_scalar_prompt_affinity(self, lm_with_unembedded, tiny_dataset):
        lm, _, extra = lm_with_unembedded
        prompt = list(tiny_dataset.queries[0].positive_seed_ids)[:2] + [extra[0].entity_id]
        vector = lm.prompt_affinities(prompt)
        assert vector[-1] == 0.0  # the padding row
        for row, entity_id in enumerate(lm._rows.ids):
            assert vector[row] == pytest.approx(
                lm.prompt_affinity(entity_id, prompt), rel=1e-12, abs=1e-15
            )

    def test_no_scalar_affinity_calls_inside_the_beam(self, fitted_lm, tiny_dataset, prefix_tree, monkeypatch):
        calls = []
        for name in ("entity_affinity", "prompt_affinity"):
            original = getattr(CausalEntityLM, name)
            monkeypatch.setattr(
                CausalEntityLM, name,
                lambda self, *a, _o=original, **k: calls.append(1) or _o(self, *a, **k),
            )
        fitted_lm.generate_constrained(
            list(tiny_dataset.queries[0].positive_seed_ids), prefix_tree, beam_width=10
        )
        assert calls == []
