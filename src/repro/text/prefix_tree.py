"""Prefix tree (trie) over entity token sequences.

GenExpan constrains beam-search decoding so that only candidate entities can
be generated (Section V-B.1, Figure 6).  The tree maps token prefixes to the
set of tokens allowed next; a complete root-to-leaf path spells exactly one
candidate entity.

Every inserted name gets a *row*: its index in :attr:`PrefixTree.names`.
Every node gets an *index* in creation order.  :meth:`PrefixTree.first_rows`
reads, for any nodes, the rows of their alphabetically first
:data:`FIRST_REACHABLE` reachable names out of one ``(nodes, FIRST_REACHABLE)``
matrix that a single bottom-up pass fills, so a beam step neither walks from
the root nor sorts a subtree.  Nodes cache their sorted children.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

#: how many alphabetically-first reachable names :meth:`PrefixTree.first_rows` holds.
FIRST_REACHABLE = 20

#: the row that pads :meth:`PrefixTree.first_rows` to ``FIRST_REACHABLE``.
PAD_ROW = -1


@dataclass(eq=False)
class PrefixNode:
    """One trie node; ``_sorted_children`` is filled lazily and cleared by
    :meth:`PrefixTree.insert` when the node gains a child."""

    #: position of this node in creation order (a child's exceeds its parent's).
    index: int = 0
    children: dict[str, "PrefixNode"] = field(default_factory=dict)
    #: entity name terminating at this node (None for internal-only nodes).
    terminal: str | None = None
    #: row of ``terminal`` in :attr:`PrefixTree.names`.
    terminal_row: int = PAD_ROW
    _sorted_children: list[tuple[str, "PrefixNode"]] | None = field(default=None, repr=False)

    def sorted_children(self) -> list[tuple[str, "PrefixNode"]]:
        """``(token, child)`` pairs in token order."""
        if self._sorted_children is None:
            self._sorted_children = sorted(self.children.items())
        return self._sorted_children


class PrefixTree:
    """A trie over tokenised entity names."""

    def __init__(self):
        self._root = PrefixNode()
        self._nodes: list[PrefixNode] = [self._root]
        self._size = 0
        self._names: list[str] = []
        self._rows: dict[str, int] = {}
        #: row ``i`` holds the first reachable rows of node ``i``; None when stale.
        self._first_rows: np.ndarray | None = None

    # -- construction --------------------------------------------------------
    def insert(self, tokens: Sequence[str], name: str) -> None:
        """Insert the token path ``tokens`` terminating in entity ``name``."""
        if not tokens:
            raise ValueError("cannot insert an empty token sequence")
        node = self._root
        for token in tokens:
            child = node.children.get(token)
            if child is None:
                child = node.children[token] = PrefixNode(index=len(self._nodes))
                self._nodes.append(child)
                node._sorted_children = None
            node = child
        if node.terminal is None:
            self._size += 1
        row = self._rows.get(name)
        if row is None:
            row = self._rows[name] = len(self._names)
            self._names.append(name)
        node.terminal = name
        node.terminal_row = row
        self._first_rows = None

    @classmethod
    def from_entities(
        cls, names: Iterable[str], tokenizer
    ) -> "PrefixTree":
        """Build a tree from entity surface forms using ``tokenizer``."""
        tree = cls()
        for name in names:
            tokens = tokenizer.tokenize_entity_name(name)
            if tokens:
                tree.insert(tokens, name)
        return tree

    # -- queries --------------------------------------------------------------
    @property
    def root(self) -> PrefixNode:
        return self._root

    @property
    def names(self) -> list[str]:
        """Every name ever inserted, indexed by row (read-only)."""
        return self._names

    def first_rows(self, nodes: Sequence[PrefixNode]) -> np.ndarray:
        """``(len(nodes), FIRST_REACHABLE)`` rows of the alphabetically first
        names reachable from each node, in :meth:`entities_with_prefix`
        order, padded with ``PAD_ROW``."""
        if self._first_rows is None:
            self._first_rows = self._collect_first_rows()
        return self._first_rows[[node.index for node in nodes]]

    def _collect_first_rows(self) -> np.ndarray:
        # Children are created after their parents, so walking the nodes in
        # reverse creation order visits every child before its parent.
        names = self._names
        matrix = np.full((len(self._nodes), FIRST_REACHABLE), PAD_ROW, dtype=np.int32)
        firsts: list[list[int] | None] = [None] * len(self._nodes)
        for node in reversed(self._nodes):
            own = [node.terminal_row] if node.terminal is not None else []
            merged = heapq.merge(
                own,
                *(firsts[child.index] for child in node.children.values()),
                key=names.__getitem__,
            )
            first = list(itertools.islice(merged, FIRST_REACHABLE))
            for child in node.children.values():
                firsts[child.index] = None
            firsts[node.index] = first
            matrix[node.index, : len(first)] = first
        return matrix

    def _walk(self, prefix: Sequence[str]) -> PrefixNode | None:
        node = self._root
        for token in prefix:
            node = node.children.get(token)
            if node is None:
                return None
        return node

    def allowed_next(self, prefix: Sequence[str]) -> list[str]:
        """Tokens allowed after ``prefix`` (empty when the prefix is invalid)."""
        node = self._walk(prefix)
        if node is None:
            return []
        return sorted(node.children.keys())

    def is_complete(self, prefix: Sequence[str]) -> bool:
        """True when ``prefix`` spells a complete candidate entity."""
        node = self._walk(prefix)
        return node is not None and node.terminal is not None

    def entity_at(self, prefix: Sequence[str]) -> str | None:
        """Entity name terminating at ``prefix``, or None."""
        node = self._walk(prefix)
        return node.terminal if node is not None else None

    def contains_prefix(self, prefix: Sequence[str]) -> bool:
        """True when ``prefix`` is a valid (possibly partial) path."""
        return self._walk(prefix) is not None

    def entities_with_prefix(self, prefix: Sequence[str]) -> list[str]:
        """All entity names reachable from ``prefix`` (sorted)."""
        node = self._walk(prefix)
        if node is None:
            return []
        found: list[str] = []
        stack = [node]
        while stack:
            current = stack.pop()
            if current.terminal is not None:
                found.append(current.terminal)
            stack.extend(current.children.values())
        return sorted(found)

    def __len__(self) -> int:
        return self._size

    def __contains__(self, tokens: Sequence[str]) -> bool:
        return self.is_complete(tokens)
