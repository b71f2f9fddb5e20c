"""Incremental candidate-scoring engine for the Grow-and-Clip search.

The clip step (Alg. 1, SCS) is the hottest loop in the system: every
iteration scores up to ``max_clip_candidates`` evidences that differ from
the current one by a single removed subtree.  The direct path pays, per
candidate, a render (detokenize), two re-tokenizations (conciseness and
readability), a full trigram walk, and a QA-model prediction — almost all
of it redundant across candidates.  :class:`CandidateScoringEngine`
removes that redundancy in four layers:

1. **Content-keyed sessions** — :class:`ScoringSession` objects are
   cached on ``(question, answer, tree tokens)``, so re-distilling the
   same paragraph for the same QA pair (open-context re-asks, ablation
   sweeps, repeated batch traffic) reuses the per-tree artifacts *and*
   every previously scored node set across calls, not just within one
   clip search.
2. **Node-set-keyed memoization** — finished :class:`EvidenceScores` are
   cached on ``(content_id, frozenset(nodes))`` under a stable
   per-content id, so re-encounters of a node set (the carried-forward
   current evidence, repeated candidates across iterations *and calls*)
   never render text at all.  Text is rendered lazily, only for
   candidates that reach the QA model.
3. **Incremental metric deltas** — conciseness comes from per-node token
   counts and readability from trigram *prefix sums* over the full tree
   sequence (:mod:`repro.metrics.incremental`); a candidate pays fresh
   language-model terms only at its removal boundaries plus one
   subtraction per surviving run.  When per-node token independence
   cannot be guaranteed (hazard tokens, see
   ``TreeTokenArtifacts.separable``), the session transparently falls
   back to rendering and re-tokenizing — slower, never outside the
   contract.
4. **Batched informativeness** — all candidates of one clip iteration
   needing a QA prediction are issued as a single
   :meth:`QAModel.predict_batch` call through
   :meth:`InformativenessScorer.score_batch`.

Equivalence contract: informativeness and conciseness are bit-identical
to ``HybridScorer.score(question, answer, render(nodes))``; readability
(and therefore the hybrid total) matches within 1e-9 — the prefix-sum
path regroups float additions by surviving run (see the summation-order
contract in :mod:`repro.metrics.incremental`).  The equivalence is
asserted by ``tests/test_scoring_incremental.py`` over randomized trees
and by the full-pipeline harness with the engine on/off.
"""

from __future__ import annotations

import itertools

from repro.metrics.hybrid import EvidenceScores, HybridScorer
from repro.metrics.incremental import (
    TreeTokenArtifacts,
    TrigramPrefixSums,
    TrigramTermCache,
)
from repro.parsing.tree import DependencyTree
from repro.text.tokenizer import detokenize, word_tokens
from repro.utils.cache import LRUCache, MISSING

__all__ = ["CandidateScoringEngine", "ScoringSession"]

# Sessions are long-lived now (content-keyed, cached across calls), so
# the per-session render memo needs a bound; above this many distinct
# node-set renders it resets.  Entries are pure values — clearing only
# costs re-rendering on the next miss.
_MAX_RENDERS = 1024


def _estimate_session_bytes(session: "ScoringSession") -> int:
    """Estimated steady-state footprint of one cached session.

    Taken at insert time: charges a per-token amortized constant for the
    token artifacts and lazy prefix sums, plus a flat allowance for the
    (independently bounded) render memo.
    """
    return 4096 + 600 * len(session.tree.tokens)


def _invalid_scores() -> EvidenceScores:
    """The discarded-evidence outcome, matching ``HybridScorer.score``."""
    return EvidenceScores(0.0, float("-inf"), 0.0, float("-inf"))


class ScoringSession:
    """Scoring context for one (tree content, question, answer) triple.

    Sessions are created by :meth:`CandidateScoringEngine.session` and
    cached there on content, so one session may serve many clip searches
    over its lifetime.  It owns the per-tree token artifacts, the lazy
    trigram prefix sums, and the render memo, and routes score lookups
    through the engine's shared node-set cache under a stable
    ``content_id``.  Scores depend only on the tree's *tokens* (rendering
    sorts by node index), so any tree with equal tokens may share the
    session regardless of its parents/weights.
    """

    def __init__(
        self,
        engine: "CandidateScoringEngine",
        tree: DependencyTree,
        question: str,
        answer: str,
        content_id: int,
    ) -> None:
        self.engine = engine
        self.tree = tree
        self.question = question
        self.answer = answer
        self.content_id = content_id
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
            if len(self._renders) > _MAX_RENDERS:
                self._renders.clear()
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
                # mismatch flips the session into fallback mode.  The
                # flag is set only *after* the check completes — sessions
                # are shared across threads now, and a concurrent caller
                # must not skip ahead on an unverified analysis (it may
                # re-verify redundantly instead; that is just waste).
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

        Cache hits — including hits left by *previous* clip searches over
        the same content — return without rendering; misses compute
        conciseness and readability incrementally and share one batched
        QA prediction for informativeness.
        """
        engine = self.engine
        cache = engine.cache
        content_id = self.content_id
        out: list[EvidenceScores | None] = [None] * len(node_sets)
        misses: list[tuple[int, frozenset[int]]] = []
        for pos, nodes in enumerate(node_sets):
            cached = cache.get((content_id, nodes), MISSING)
            if cached is not MISSING:
                out[pos] = cached
            else:
                misses.append((pos, nodes))

        valid: list[tuple[int, frozenset[int], float, float, str]] = []
        for pos, nodes in misses:
            length, runs, seq = self._measure(nodes)
            c = self._conciseness(length)
            if c == float("-inf"):
                scores = _invalid_scores()
                cache.put((content_id, nodes), scores)
                out[pos] = scores
                continue
            r = self._readability(length, runs, seq)
            valid.append((pos, nodes, c, r, self.render(nodes)))

        if valid:
            scorer = engine.scorer
            weights = scorer.weights
            infos = scorer.informativeness.score_batch(
                self.question, self.answer, [text for *_rest, text in valid]
            )
            for (pos, nodes, c, r, text), i in zip(valid, infos):
                # Seed the string-keyed readability cache so the finalize
                # stage's direct re-score of the winner hits.
                scorer.readability.seed(text, r)
                h = weights.alpha * i + weights.beta * r + weights.gamma * c
                scores = EvidenceScores(
                    informativeness=i, conciseness=c, readability=r, hybrid=h
                )
                cache.put((content_id, nodes), scores)
                out[pos] = scores
        return out  # type: ignore[return-value]


class CandidateScoringEngine:
    """Shared, pipeline-wide state behind :class:`ScoringSession`.

    One engine lives per :class:`~repro.core.pipeline.GCED`.  It owns the
    node-set score cache (surfaced as the ``clip_scores`` shared cache in
    profiles — its lookup counts are the clip search's scoring traffic),
    the content-keyed session cache (surfaced as ``clip_sessions``; its
    hits are cross-call reuse events), and the trigram term cache.  All
    three stay warm across examples and calls: repeated distillations of
    the same paragraph for the same QA pair hit the same session and
    therefore the same node-set entries.  Thread-safe (both LRU caches
    are locked; session-internal memos hold idempotent pure values) and
    picklable for the process executor.
    """

    def __init__(
        self,
        scorer: HybridScorer,
        cache_size: int = 8192,
        session_cache_size: int = 512,
        session_max_bytes: int | None = 32 * 1024 * 1024,
    ) -> None:
        self.scorer = scorer
        self.cache = LRUCache(capacity=cache_size)
        # Sessions retain per-paragraph artifacts (prefix sums, renders),
        # so the cache is bounded by estimated bytes as well as entries.
        self.sessions = LRUCache(
            capacity=session_cache_size,
            size_estimator=_estimate_session_bytes,
            max_bytes=session_max_bytes,
        )
        self.terms = TrigramTermCache(scorer.readability.language_model)
        self._content_ids = itertools.count()

    def session(
        self, tree: DependencyTree, question: str, answer: str
    ) -> ScoringSession:
        """The session for this content, reused across calls when cached.

        Keyed on ``(question, answer, tree tokens)`` — everything a score
        depends on.  An evicted-and-rebuilt session gets a fresh
        ``content_id``, orphaning (never corrupting) its old node-set
        entries, which age out of the LRU naturally.
        """
        key = (question, answer, tuple(tree.tokens))
        session = self.sessions.get(key, MISSING)
        if session is MISSING:
            session = ScoringSession(
                self, tree, question, answer, next(self._content_ids)
            )
            self.sessions.put(key, session)
        return session
