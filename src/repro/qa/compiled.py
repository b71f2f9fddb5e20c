"""Per-paragraph compiled artifacts shared across QA predictions.

Every :meth:`SpanScoringQA.predict` used to re-derive the same
context-side tables — tokenization, sentence bounds, POS tags, the typed
candidate-span sets, per-model span-scoring preps — even though real
workloads (several SQuAD questions per paragraph, ASE re-asking the same
sentence subsets, open-context re-asks, ablation sweeps) hit the same
paragraph over and over.  A :class:`CompiledContext` computes each table
lazily, once per context string, and a content-keyed
:class:`ContextCompiler` LRU shares the artifacts across all QA pairs,
clip iterations, batch examples, and service requests.

Exactness contract: every table is the value the inline derivation in
:meth:`SpanScoringQA._ranked_spans` would produce, so predictions with
the compiler on and off are bit-identical
(``tests/test_compiled_context.py`` asserts this over randomized
paragraphs for all four span-scoring models).

Memory: the compiler's LRUs are bounded by entry count only.  Each
question-keyed table inside an artifact resets above ``_MAX_PREPS``
entries, so one artifact's footprint is bounded too; the capacities are
sized from its measured footprint (``docs/performance.md``, "Cache
bounds").
"""

from __future__ import annotations

import contextlib
import threading

from repro.qa.answer_types import AnswerType, candidate_spans
from repro.text.sentences import Sentence, split_sentences
from repro.text.tokenizer import Token, tokenize
from repro.utils.cache import LRUCache, MISSING

__all__ = ["CompiledContext", "ContextCompiler", "word_lowers"]

# Typed span extraction is identical for the three capitalized-run types;
# sharing one slot avoids recomputing it when PERSON and ENTITY questions
# hit the same paragraph.
_SPAN_KIND = {
    AnswerType.NUMBER: "number",
    AnswerType.PERSON: "caps",
    AnswerType.PLACE: "caps",
    AnswerType.ENTITY: "caps",
    AnswerType.PHRASE: "phrase",
}

# Per-context caches of question-dependent preps reset above this many
# distinct questions; entries are pure values, so clearing only costs
# recomputation (same idiom as the trigram term cache).
_MAX_PREPS = 64


def word_lowers(tokens: list[Token]) -> list[str | None]:
    """Per token: its lowercased text if it is a word, else None."""
    return [tok.lower if tok.is_word else None for tok in tokens]


class CompiledContext:
    """Lazily-computed, shareable artifacts of one context paragraph.

    Attributes:
        text: the raw context string (the cache key's content).
        tokens: ``tokenize(text)``, computed eagerly — every consumer
            needs it.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens: list[Token] = tokenize(text)
        self._word_lowers: list[str | None] | None = None
        self._sentence_bounds: list[tuple[int, int]] | None = None
        self._tags: list[str] | None = None
        self._span_kinds: dict[str, frozenset[tuple[int, int]]] = {}
        self._span_sets: dict[
            AnswerType, tuple[frozenset[tuple[int, int]], frozenset[tuple[int, int]]]
        ] = {}
        # (prep_key, question terms) -> span_prep output; (key, tag) ->
        # question-independent derived values (e.g. embedding matrices).
        self._preps: dict = {}
        self._derived: dict = {}
        # ASE-level artifacts: the paragraph's sentence split and the
        # per-question single-sentence prediction batches.
        self._sentences: tuple[Sentence, ...] | None = None
        self._sentence_preds: dict[str, tuple] = {}
        # (model name, question) -> final AnswerPrediction.  Predictions
        # are pure functions of (trained model, question, text), so the
        # whole result memoizes — ASE's subset loop re-asks the same
        # question of the same joined text constantly.
        self._predictions: dict = {}

    # ------------------------------------------------------ context tables
    def word_lowers(self) -> list[str | None]:
        """``word_lowers(tokens)``, computed once: every span-scoring
        model's prep reads its per-token word flags from this table."""
        lowers = self._word_lowers
        if lowers is None:
            lowers = self._word_lowers = word_lowers(self.tokens)
        return lowers

    def sentence_bounds(self, model) -> list[tuple[int, int]]:
        """``SpanScoringQA.sentence_bounds(tokens)``, computed once."""
        bounds = self._sentence_bounds
        if bounds is None:
            bounds = self._sentence_bounds = model.sentence_bounds(self.tokens)
        return bounds

    def pos_tags(self, tagger) -> list[str]:
        """POS tags of the token texts, computed once.

        All span-scoring models share one class-level tagger, so the
        first caller's tagger fills the slot for everyone.
        """
        tags = self._tags
        if tags is None:
            tags = self._tags = tagger.tag([t.text for t in self.tokens])
        return tags

    def _kind_spans(self, kind: str, answer_type: AnswerType) -> frozenset:
        spans = self._span_kinds.get(kind)
        if spans is None:
            spans = frozenset(candidate_spans(self.tokens, answer_type))
            self._span_kinds[kind] = spans
        return spans

    def span_sets(
        self, answer_type: AnswerType
    ) -> tuple[frozenset[tuple[int, int]], frozenset[tuple[int, int]]]:
        """The ``(typed, all)`` candidate-span sets for one answer type.

        ``typed`` is exactly ``set(candidate_spans(tokens, answer_type))``
        and ``all`` the enlarged pool :meth:`SpanScoringQA._ranked_spans`
        scores (typed spans plus the PHRASE fallback for ENTITY questions
        and for types that produced nothing).
        """
        cached = self._span_sets.get(answer_type)
        if cached is None:
            typed = self._kind_spans(_SPAN_KIND[answer_type], answer_type)
            spans = typed
            if answer_type is AnswerType.ENTITY or not spans:
                spans = spans | self._kind_spans("phrase", AnswerType.PHRASE)
            cached = self._span_sets[answer_type] = (typed, spans)
        return cached

    # ----------------------------------------------------- sentence artifacts
    def sentences(self) -> tuple[Sentence, ...]:
        """``split_sentences(text)``, computed once per paragraph.

        ASE's subset search re-splits the same paragraph for every
        question; the compiled split serves them all.
        """
        sents = self._sentences
        if sents is None:
            sents = self._sentences = tuple(split_sentences(self.text))
        return sents

    def sentence_predictions(self, question: str, factory) -> tuple:
        """Per-question single-sentence prediction batch, memoized.

        ``factory`` must produce the model's ``predict_batch(question,
        [sentence texts])`` output; it runs at most once per distinct
        question (bounded like the prep table).
        """
        preds = self._sentence_preds.get(question, MISSING)
        if preds is MISSING:
            if len(self._sentence_preds) > _MAX_PREPS:
                self._sentence_preds.clear()
            preds = tuple(factory())
            self._sentence_preds[question] = preds
        return preds

    def prediction(self, name: str | None, question: str, factory):
        """The model's final prediction for ``question``, memoized.

        ``factory`` runs the real span scoring at most once per (model
        name, question); the table is bounded like the prep table, so a
        repeat predict over a known (question, paragraph) pair is a
        dictionary lookup.
        """
        key = (name, question)
        pred = self._predictions.get(key, MISSING)
        if pred is MISSING:
            if len(self._predictions) > _MAX_PREPS:
                self._predictions.clear()
            pred = factory()
            self._predictions[key] = pred
        return pred

    # ------------------------------------------------- per-model artifacts
    def prep(self, model, profile):
        """The model's ``span_prep`` output, memoized per question terms.

        Preps are pure functions of (model, question terms, tokens) —
        answer type never enters span scoring — so one table serves every
        re-ask of the same question against this paragraph.
        """
        key = (model.prep_key, profile.terms)
        prep = self._preps.get(key, MISSING)
        if prep is MISSING:
            if len(self._preps) > _MAX_PREPS:
                self._preps.clear()
            prep = model.span_prep(profile, self.tokens, compiled=self)
            self._preps[key] = prep
        return prep

    def derive(self, key, factory):
        """Memoize a question-independent derived value (e.g. the sliced
        embedding matrix) under ``key``; ``factory`` runs at most once."""
        value = self._derived.get(key, MISSING)
        if value is MISSING:
            value = factory()
            self._derived[key] = value
        return value


class ContextCompiler:
    """Content-keyed LRU of :class:`CompiledContext` artifacts.

    One compiler is shared per span-scoring model instance (lazily
    created by :class:`~repro.qa.base.SpanScoringQA`) and therefore —
    since the trained reader is reused by ASE, the informativeness
    scorer, the simulated baselines, and every pipeline built on the
    same artifacts — effectively per deployment.  Thread-safe: the LRU
    is locked, and the lazy tables inside a :class:`CompiledContext` are
    idempotent pure values, so a racing double-compute is waste, never
    wrongness.
    """

    def __init__(self, capacity: int = 1024, scratch_capacity: int = 256) -> None:
        # An entry measures about 20 kB on every perfbench workload and on
        # the longest TriviaQA contexts, so the default caps hold about
        # 21 MB and 5 MB (docs/performance.md, "Cache bounds").
        self.cache = LRUCache(capacity=capacity)
        # Short-reuse texts — the clip search's candidate evidences,
        # identical across the adjacent questions of one paragraph but
        # dead afterwards — compile into this smaller side cache (see
        # :meth:`transient`), so they never evict long-lived paragraph
        # artifacts from the main LRU.
        self.scratch = LRUCache(capacity=scratch_capacity)
        self._transient = threading.local()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_transient"]  # thread-local: rebuilt empty on unpickle
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._transient = threading.local()

    @property
    def in_transient(self) -> bool:
        """True while the calling thread is inside :meth:`transient`."""
        return getattr(self._transient, "depth", 0) > 0

    @contextlib.contextmanager
    def transient(self):
        """Route this thread's compilations to the scratch cache.

        Used by callers predicting over short-lived texts (the
        informativeness scorer's candidate evidences: re-encounters are
        served from its string memo, but the *same* candidate text
        recurs for each question of a shared paragraph).  Thread-local,
        so concurrent service threads predicting over real paragraphs
        keep filling the main cache.
        """
        self._transient.depth = getattr(self._transient, "depth", 0) + 1
        try:
            yield
        finally:
            self._transient.depth -= 1

    def compile(self, context: str) -> CompiledContext:
        """The (possibly cached) compiled artifact for ``context``.

        Transient compilations check the scratch cache, then *peek* the
        main cache (a candidate evidence equal to a known paragraph
        reuses its artifact) without touching the main cache's hit/miss
        counters — so the ``compiled_contexts`` stats in profiles and
        ``/stats`` keep measuring genuine paragraph traffic, not the
        firehose of one-shot candidate probes.
        """
        if self.in_transient:
            compiled = self.scratch.get(context, MISSING)
            if compiled is not MISSING:
                return compiled
            compiled = self.cache.peek(context, MISSING)
            if compiled is not MISSING:
                return compiled
            compiled = CompiledContext(context)
            self.scratch.put(context, compiled)
            return compiled
        compiled = self.cache.get(context, MISSING)
        if compiled is MISSING:
            compiled = CompiledContext(context)
            self.cache.put(context, compiled)
        return compiled

    def snapshot(self):
        """Hit/miss/size counters of the main (paragraph) LRU."""
        return self.cache.snapshot()
