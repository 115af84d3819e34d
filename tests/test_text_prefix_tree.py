"""Tests for the prefix tree used by constrained decoding."""

import pytest

from repro.text.prefix_tree import FIRST_REACHABLE, PAD_ROW, PrefixTree
from repro.text.tokenizer import WordTokenizer


def build_tree():
    tree = PrefixTree()
    tree.insert(["vexo", "mobile"], "Vexo Mobile")
    tree.insert(["vexo", "wireless"], "Vexo Wireless")
    tree.insert(["nuvia"], "Nuvia")
    tree.insert(["nuvia", "telecom"], "Nuvia Telecom")
    return tree


class TestPrefixTree:
    def test_len_counts_entities(self):
        assert len(build_tree()) == 4

    def test_insert_empty_tokens_raises(self):
        with pytest.raises(ValueError):
            PrefixTree().insert([], "x")

    def test_allowed_next_from_root(self):
        assert build_tree().allowed_next([]) == ["nuvia", "vexo"]

    def test_allowed_next_mid_path(self):
        assert build_tree().allowed_next(["vexo"]) == ["mobile", "wireless"]

    def test_allowed_next_invalid_prefix_empty(self):
        assert build_tree().allowed_next(["zzz"]) == []

    def test_is_complete_at_leaf(self):
        tree = build_tree()
        assert tree.is_complete(["vexo", "mobile"])
        assert not tree.is_complete(["vexo"])

    def test_prefix_entity_also_complete(self):
        # "nuvia" is both a complete entity and a prefix of "nuvia telecom".
        tree = build_tree()
        assert tree.is_complete(["nuvia"])
        assert tree.is_complete(["nuvia", "telecom"])

    def test_entity_at(self):
        tree = build_tree()
        assert tree.entity_at(["vexo", "wireless"]) == "Vexo Wireless"
        assert tree.entity_at(["vexo"]) is None
        assert tree.entity_at(["missing"]) is None

    def test_contains_prefix(self):
        tree = build_tree()
        assert tree.contains_prefix(["vexo"])
        assert not tree.contains_prefix(["vexo", "phone"])

    def test_contains_dunder_checks_complete(self):
        tree = build_tree()
        assert ["nuvia"] in tree
        assert ["vexo"] not in tree

    def test_entities_with_prefix(self):
        tree = build_tree()
        assert tree.entities_with_prefix(["vexo"]) == ["Vexo Mobile", "Vexo Wireless"]
        assert tree.entities_with_prefix([]) == [
            "Nuvia",
            "Nuvia Telecom",
            "Vexo Mobile",
            "Vexo Wireless",
        ]

    def test_entities_with_invalid_prefix_empty(self):
        assert build_tree().entities_with_prefix(["qqq"]) == []

    def test_reinsert_same_path_does_not_double_count(self):
        tree = build_tree()
        tree.insert(["nuvia"], "Nuvia")
        assert len(tree) == 4

    def test_from_entities_uses_tokenizer(self):
        tree = PrefixTree.from_entities(["Vexo Mobile", "Nuvia"], WordTokenizer())
        assert tree.is_complete(["vexo", "mobile"])
        assert tree.is_complete(["nuvia"])

    def test_every_root_to_leaf_path_is_an_entity(self):
        tree = build_tree()
        for name in tree.entities_with_prefix([]):
            tokens = name.lower().split()
            assert tree.entity_at(tokens) == name


def _walk_prefixes(node, prefix=()):
    yield prefix, node
    for token, child in node.sorted_children():
        yield from _walk_prefixes(child, prefix + (token,))


class TestNodeCaches:
    def test_first_rows_are_the_first_reachable_names(self, tiny_dataset):
        tree = PrefixTree.from_entities((e.name for e in tiny_dataset.entities()), WordTokenizer())
        assert len(tree.entities_with_prefix([])) > FIRST_REACHABLE
        for prefix, node in _walk_prefixes(tree.root):
            (rows,) = tree.first_rows([node])
            assert len(rows) == FIRST_REACHABLE
            named = [tree.names[row] for row in rows if row != PAD_ROW]
            assert named == tree.entities_with_prefix(list(prefix))[:FIRST_REACHABLE]
            assert [t for t, _ in node.sorted_children()] == tree.allowed_next(list(prefix))

    def test_insert_after_a_query_refreshes_the_caches(self):
        tree = build_tree()
        (root_rows,) = tree.first_rows([tree.root])
        assert [tree.names[r] for r in root_rows if r != PAD_ROW][:1] == ["Nuvia"]
        assert [t for t, _ in tree.root.children["vexo"].sorted_children()] == ["mobile", "wireless"]
        tree.insert(["vexo", "audio"], "A Vexo Audio")
        (root_rows,) = tree.first_rows([tree.root])
        assert [tree.names[r] for r in root_rows if r != PAD_ROW][:1] == [
            "A Vexo Audio"
        ]
        assert [t for t, _ in tree.root.children["vexo"].sorted_children()] == [
            "audio", "mobile", "wireless"
        ]
