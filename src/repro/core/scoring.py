"""Incremental candidate-scoring engine for the Grow-and-Clip search.

The clip step (Alg. 1, SCS) is the hottest loop in the system: every
iteration scores up to ``max_clip_candidates`` evidences that differ from
the current one by a single removed subtree.  The direct path pays, per
candidate, a render (detokenize), two re-tokenizations (conciseness and
readability), a full trigram walk, and a QA-model prediction — almost all
of it redundant across candidates.  A :class:`ScoringSession`, built once
per clip search, removes that redundancy in two layers:

1. **Incremental metric deltas** — conciseness comes from per-node token
   counts and readability from trigram *prefix sums* over the full tree
   sequence (:mod:`repro.metrics.incremental`); a candidate pays fresh
   language-model terms only at its removal boundaries plus one
   subtraction per surviving run.  When per-node token independence
   cannot be guaranteed (hazard tokens, see
   ``TreeTokenArtifacts.separable``), the session transparently falls
   back to rendering and re-tokenizing — slower, never outside the
   contract.
2. **Batched informativeness** — all candidates of one clip iteration
   needing a QA prediction are issued as a single
   :meth:`QAModel.predict_batch` call through
   :meth:`InformativenessScorer.score_batch`.

A session lives for one clip search, and no score is memoized: a
repeated triple is answered by the result memo in front of the
pipeline, and within one search the node sets do not recur (the
carried-forward current evidence is not re-scored; a node-set memo hit
0 of 4955 lookups over 600 unique triples, see ``docs/performance.md``).
Only the trigram term cache, which depends on the language model alone,
lives on the :class:`CandidateScoringEngine` across calls.

Equivalence contract: informativeness and conciseness are bit-identical
to ``HybridScorer.score(question, answer, render(nodes))``; readability
(and therefore the hybrid total) matches within 1e-9 — the prefix-sum
path regroups float additions by surviving run (see the summation-order
contract in :mod:`repro.metrics.incremental`).  The equivalence is
asserted by ``tests/test_scoring_incremental.py`` over randomized trees
and by the full-pipeline harness with the engine on/off.
"""

from __future__ import annotations

from repro.metrics.hybrid import EvidenceScores, HybridScorer
from repro.metrics.incremental import (
    TreeTokenArtifacts,
    TrigramPrefixSums,
    TrigramTermCache,
)
from repro.parsing.tree import DependencyTree
from repro.text.tokenizer import detokenize, word_tokens

__all__ = ["CandidateScoringEngine", "ScoringSession"]

# The discarded-evidence outcome, matching ``HybridScorer.score``.
_INVALID = EvidenceScores(0.0, float("-inf"), 0.0, float("-inf"))


class ScoringSession:
    """Scoring context for one clip search over one tree.

    Built by :meth:`CandidateScoringEngine.session` at the start of a
    clip search and dropped when it returns.  It owns the per-tree token
    artifacts, the lazy trigram prefix sums, and the render memo.
    """

    def __init__(
        self,
        engine: "CandidateScoringEngine",
        tree: DependencyTree,
        question: str,
        answer: str,
    ) -> None:
        self.engine = engine
        self.tree = tree
        self.question = question
        self.answer = answer
        # L(a) + 1, the shortest admissible evidence length (Eq. 2).
        self._answer_length = len(word_tokens(answer))
        self._artifacts = TreeTokenArtifacts(tree.tokens)
        self._prefix: TrigramPrefixSums | None = None
        self._renders: dict[frozenset[int], str] = {}
        self._verified = False

    # -------------------------------------------------------------- pieces
    def render(self, nodes: frozenset[int]) -> str:
        """``detokenize(tree.text_of(nodes))``, memoized per node set.

        Delegates to the same ``text_of`` the direct path renders with,
        so there is exactly one rendering implementation to keep exact.
        """
        text = self._renders.get(nodes)
        if text is None:
            text = detokenize(self.tree.text_of(nodes))
            self._renders[nodes] = text
        return text

    def _measure(
        self, nodes: frozenset[int]
    ) -> tuple[int, list[tuple[int, int]] | None, list[str] | None]:
        """``(length, runs, seq)`` of a node set's word-token sequence.

        Separable trees measure from per-node counts and describe the
        sequence as surviving runs of the full tree (``seq`` stays None);
        otherwise the rendered text is re-tokenized (``runs`` stays
        None).  Either way ``length == len(word_tokens(render(nodes)))``.
        """
        artifacts = self._artifacts
        if artifacts.separable:
            ordered = sorted(nodes)
            if not self._verified:
                # Belt and braces: one direct re-tokenization per session
                # confirms the separability analysis on real data; any
                # mismatch flips the session into fallback mode.
                direct = word_tokens(self.render(nodes))
                if direct != artifacts.sequence(ordered):
                    artifacts.separable = False
                    self._verified = True
                    return len(direct), None, direct
                self._verified = True
            runs = artifacts.runs(ordered)
            return sum(b - a for a, b in runs), runs, None
        seq = word_tokens(self.render(nodes))
        return len(seq), None, seq

    def _conciseness(self, length: int) -> float:
        """Eq. 2 + the scorer's monotone [0, 1] rescaling, from a length.

        Mirrors ``HybridScorer.normalized_conciseness`` exactly:
        ``min(1.0, (L(a) + 1) * (1 / L(e)))`` for admissible evidences.
        """
        if length <= self._answer_length:
            return float("-inf")
        return min(1.0, (self._answer_length + 1) * (1.0 / length))

    def _prefix_sums(self) -> TrigramPrefixSums:
        """Prefix sums over the full tree sequence, built once per session."""
        prefix = self._prefix
        if prefix is None:
            prefix = self._prefix = TrigramPrefixSums(
                self.engine.terms, self._artifacts.full_sequence()
            )
        return prefix

    def _readability(
        self,
        length: int,
        runs: list[tuple[int, int]] | None,
        seq: list[str] | None,
    ) -> float:
        """``R(e)`` via prefix sums (runs) or the term-cache walk (seq)."""
        if not length:
            return 0.0
        if runs is not None:
            ppl = self._prefix_sums().perplexity(runs, length)
        else:
            ppl = self.engine.terms.perplexity(seq)
        return self.engine.scorer.readability.score_from_perplexity(ppl)

    # -------------------------------------------------------------- scores
    def score(self, nodes: frozenset[int]) -> EvidenceScores:
        """Scores for one node set (see :meth:`score_many`)."""
        return self.score_many([nodes])[0]

    def score_many(
        self, node_sets: list[frozenset[int]]
    ) -> list[EvidenceScores]:
        """Scores for many node sets (equivalence contract: see module doc).

        Conciseness and readability are computed incrementally; every
        admissible node set shares one batched QA prediction for
        informativeness.
        """
        out: list[EvidenceScores] = [_INVALID] * len(node_sets)
        valid: list[tuple[int, float, float, str]] = []
        for pos, nodes in enumerate(node_sets):
            length, runs, seq = self._measure(nodes)
            c = self._conciseness(length)
            if c == float("-inf"):
                continue
            r = self._readability(length, runs, seq)
            valid.append((pos, c, r, self.render(nodes)))

        if valid:
            scorer = self.engine.scorer
            weights = scorer.weights
            infos = scorer.informativeness.score_batch(
                self.question, self.answer, [text for *_rest, text in valid]
            )
            for (pos, c, r, text), i in zip(valid, infos):
                # Seed the string-keyed readability cache so the finalize
                # stage's direct re-score of the winner hits.
                scorer.readability.seed(text, r)
                h = weights.alpha * i + weights.beta * r + weights.gamma * c
                out[pos] = EvidenceScores(
                    informativeness=i, conciseness=c, readability=r, hybrid=h
                )
        return out


class CandidateScoringEngine:
    """Pipeline-wide state behind :class:`ScoringSession`.

    One engine lives per :class:`~repro.core.pipeline.GCED`.  It holds
    the hybrid scorer and the trigram term cache, which depends on the
    language model alone and so stays warm across calls; everything
    keyed on a tree lives in the per-call session.  Picklable for the
    process executor.
    """

    def __init__(self, scorer: HybridScorer) -> None:
        self.scorer = scorer
        self.terms = TrigramTermCache(scorer.readability.language_model)

    def session(
        self, tree: DependencyTree, question: str, answer: str
    ) -> ScoringSession:
        """A fresh session for one clip search over ``tree``."""
        return ScoringSession(self, tree, question, answer)
