"""Constituency-to-dependency conversion and the end-to-end parser facade.

Reading dependencies off a lexicalized tree: within each constituent, the
heads of the non-head children attach to the head child's head.  The result
is the token-level tree of Fig. 6 — e.g. for "... defeated ... to earn
Super Bowl title", "earn" attaches to "defeated" and "title" to "earn".
"""

from __future__ import annotations

from repro.parsing.cky import CKYParser
from repro.parsing.heads import lexicalize
from repro.parsing.pos import PosTagger
from repro.parsing.tree import DependencyTree, ParseNode
from repro.utils.cache import memoize_method

__all__ = ["constituency_to_dependency", "SyntacticParser"]


def constituency_to_dependency(root: ParseNode, tokens: list[str]) -> DependencyTree:
    """Convert a lexicalized constituency tree into a :class:`DependencyTree`.

    ``root`` must already be lexicalized (every node has ``head`` set).
    """
    if root.head is None:
        raise ValueError("tree is not lexicalized; call lexicalize() first")
    parents = [-1] * len(tokens)

    def visit(node: ParseNode) -> None:
        if node.is_leaf:
            return
        head = node.head
        for child in node.children:
            if child.head is None:
                raise ValueError("child is not lexicalized")
            if child.head != head:
                # Attach the dependent's head to the constituent head, but
                # never overwrite an attachment made deeper in the tree
                # (each token gains its parent at the lowest constituent
                # where it stops being the head).
                if parents[child.head] == -1 and child.head != head:
                    parents[child.head] = head
            visit(child)

    visit(root)
    # The overall head keeps parent -1 (root).  Sanity: exactly one root.
    root_head = root.head
    for i, parent in enumerate(parents):
        if i != root_head and parent == -1:
            # Token never attached (can happen for glue chunks): attach to
            # the sentence root to keep the structure a tree.
            parents[i] = root_head
    return DependencyTree(tokens, parents)


class SyntacticParser:
    """Facade: raw token list → dependency tree (tagging, CKY, heads).

    Results are memoized on the token tuple because GCED parses the same
    answer-oriented sentences repeatedly across its modules.
    """

    def __init__(
        self,
        tagger: PosTagger | None = None,
        cky: CKYParser | None = None,
    ) -> None:
        self.tagger = tagger or PosTagger()
        self.cky = cky or CKYParser()

    def parse_constituency(self, tokens: list[str]) -> ParseNode:
        """POS-tag and CKY-parse ``tokens`` into a constituency tree."""
        if not tokens:
            raise ValueError("cannot parse an empty token list")
        tags = self.tagger.tag(tokens)
        return self.cky.parse_tags(tags, words=tokens)

    @memoize_method(maxsize=4096)
    def _parse_cached(self, token_tuple: tuple[str, ...]) -> DependencyTree:
        tokens = list(token_tuple)
        tree = self.parse_constituency(tokens)
        lexicalize(tree)
        return constituency_to_dependency(tree, tokens)

    def parse(self, tokens: list[str]) -> DependencyTree:
        """Full pipeline: tokens → lexicalized parse → dependency tree."""
        return self._parse_cached(tuple(tokens))

    def parse_cache(self):
        """The memo cache behind :meth:`parse` (None until first use).

        Exposed for the engine's cache instrumentation; the attribute name
        is ``memoize_method``'s internal layout and must not be reached
        for directly.
        """
        return getattr(self, "_memo__parse_cached", None)
