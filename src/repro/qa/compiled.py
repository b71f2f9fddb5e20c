"""Per-paragraph compiled artifacts shared across QA predictions.

Every :meth:`SpanScoringQA.predict` used to re-derive the same
context-side tables — tokenization, sentence bounds, POS tags, the typed
candidate-span sets, per-model span-scoring preps — even though real
workloads (several SQuAD questions per paragraph, ASE re-asking the same
sentence subsets, open-context re-asks, ablation sweeps) hit the same
paragraph over and over.  A :class:`CompiledContext` computes each table
lazily, once per context string, and a content-keyed, byte-bounded
:class:`ContextCompiler` LRU shares the artifacts across all QA pairs,
clip iterations, batch examples, and service requests.

Exactness contract: every table is the value the inline derivation in
:meth:`SpanScoringQA._ranked_spans` would produce, so predictions with
the compiler on and off are bit-identical
(``tests/test_compiled_context.py`` asserts this over randomized
paragraphs for all four span-scoring models).

Memory contract: :func:`estimate_compiled_bytes` *measures* the tables a
context has actually materialized, and every lazy fill notifies the
owning cache (see :meth:`CompiledContext.bind_accounting` /
:meth:`repro.utils.cache.LRUCache.reaccount`), so the compiler's byte
budget is an invariant over the measured footprint — not a guess taken
at insert time.
"""

from __future__ import annotations

import contextlib
import threading

from repro.qa.answer_types import AnswerType, candidate_spans
from repro.text.sentences import Sentence, split_sentences
from repro.text.tokenizer import Token, tokenize
from repro.utils.cache import LRUCache, MISSING

__all__ = ["CompiledContext", "ContextCompiler", "estimate_compiled_bytes"]

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


class CompiledContext:
    """Lazily-computed, shareable artifacts of one context paragraph.

    Attributes:
        text: the raw context string (the cache key's content).
        tokens: ``tokenize(text)``, computed eagerly — every consumer
            needs it, and its length drives the byte estimate.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens: list[Token] = tokenize(text)
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
        # Owning-cache notification, installed by bind_accounting();
        # called after every lazy fill so byte accounting stays measured.
        self._accounting = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # The accounting binding closes over the owning cache; the
        # receiving process re-binds when it caches the artifact.
        state["_accounting"] = None
        return state

    # -------------------------------------------------------- byte accounting
    def bind_accounting(self, cache: LRUCache, key) -> None:
        """Re-measure this artifact in ``cache`` whenever a table fills in."""
        self._accounting = (cache, key)

    def _grown(self) -> None:
        binding = self._accounting
        if binding is not None:
            cache, key = binding
            cache.reaccount(key)

    # ------------------------------------------------------ context tables
    def sentence_bounds(self, model) -> list[tuple[int, int]]:
        """``SpanScoringQA.sentence_bounds(tokens)``, computed once."""
        bounds = self._sentence_bounds
        if bounds is None:
            bounds = self._sentence_bounds = model.sentence_bounds(self.tokens)
            self._grown()
        return bounds

    def pos_tags(self, tagger) -> list[str]:
        """POS tags of the token texts, computed once.

        All span-scoring models share one class-level tagger, so the
        first caller's tagger fills the slot for everyone.
        """
        tags = self._tags
        if tags is None:
            tags = self._tags = tagger.tag([t.text for t in self.tokens])
            self._grown()
        return tags

    def _kind_spans(self, kind: str, answer_type: AnswerType) -> frozenset:
        spans = self._span_kinds.get(kind)
        if spans is None:
            spans = frozenset(candidate_spans(self.tokens, answer_type))
            self._span_kinds[kind] = spans
            self._grown()
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
            self._grown()
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
            self._grown()
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
            self._grown()
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
            self._grown()
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
            self._grown()
        return prep

    def derive(self, key, factory):
        """Memoize a question-independent derived value (e.g. the sliced
        embedding matrix) under ``key``; ``factory`` runs at most once."""
        value = self._derived.get(key, MISSING)
        if value is MISSING:
            value = factory()
            self._derived[key] = value
            self._grown()
        return value


def _opaque_bytes(value, depth: int = 0) -> int:
    """Measured footprint of an opaque prep/derived value.

    Recurses through the container shapes preps actually use (tuples of
    arrays, dicts of floats) with array buffers measured exactly via
    ``nbytes``; unknown leaves get a flat object charge.
    """
    nbytes = getattr(value, "nbytes", None)
    if isinstance(nbytes, int):
        return 16 + nbytes
    if isinstance(value, str):
        return 49 + len(value)
    if isinstance(value, bytes):
        return 33 + len(value)
    if value is None or isinstance(value, (int, float, bool)):
        return 28
    if depth >= 4:
        return 64
    if isinstance(value, (list, tuple, set, frozenset)):
        return 56 + sum(_opaque_bytes(item, depth + 1) for item in value)
    if isinstance(value, dict):
        return 64 + sum(
            _opaque_bytes(k, depth + 1) + _opaque_bytes(v, depth + 1)
            for k, v in value.items()
        )
    return 128


def estimate_compiled_bytes(compiled: CompiledContext) -> int:
    """Measured footprint of one compiled context's materialized tables.

    Pure function of the tables currently present: called at insert time
    *and* re-run by :meth:`LRUCache.reaccount` after every lazy fill (see
    :meth:`CompiledContext.bind_accounting`), so the owning cache's byte
    accounting always equals this measure over its current values.
    """
    total = 256 + len(compiled.text)
    total += 72 * len(compiled.tokens) + sum(
        len(token.text) for token in compiled.tokens
    )
    if compiled._sentence_bounds is not None:
        total += 64 + 16 * len(compiled._sentence_bounds)
    if compiled._tags is not None:
        total += 64 + 24 * len(compiled._tags)
    for spans in compiled._span_kinds.values():
        total += 64 + 80 * len(spans)
    for typed, spans in compiled._span_sets.values():
        # The pair usually aliases the kind sets; a distinct union
        # (ENTITY fallback) is a new frozenset and charged as one.
        total += 32 if spans is typed else 64 + 80 * len(spans)
    if compiled._sentences is not None:
        total += 64 + sum(
            88 + len(sentence.text) for sentence in compiled._sentences
        )
    for question, preds in compiled._sentence_preds.items():
        total += 56 + len(question) + sum(
            112 + len(pred.text) for pred in preds
        )
    for (name, question), pred in compiled._predictions.items():
        total += 56 + len(name or "") + len(question) + 112 + len(pred.text)
    for prep in compiled._preps.values():
        total += 96 + _opaque_bytes(prep)
    for value in compiled._derived.values():
        total += 96 + _opaque_bytes(value)
    return total


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

    def __init__(
        self,
        capacity: int = 1024,
        max_bytes: int | None = 48 * 1024 * 1024,
        scratch_capacity: int = 256,
        scratch_max_bytes: int | None = 16 * 1024 * 1024,
    ) -> None:
        self.cache = LRUCache(
            capacity=capacity,
            size_estimator=estimate_compiled_bytes,
            max_bytes=max_bytes,
        )
        # Short-reuse texts — the clip search's candidate evidences,
        # identical across the adjacent questions of one paragraph but
        # dead afterwards — compile into this smaller side cache (see
        # :meth:`transient`), so they never evict long-lived paragraph
        # artifacts from the main LRU.
        self.scratch = LRUCache(
            capacity=scratch_capacity,
            size_estimator=estimate_compiled_bytes,
            max_bytes=scratch_max_bytes,
        )
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
        served from string/node-set memos, but the *same* candidate text
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
            compiled.bind_accounting(self.scratch, context)
            return compiled
        compiled = self.cache.get(context, MISSING)
        if compiled is MISSING:
            compiled = CompiledContext(context)
            self.cache.put(context, compiled)
            compiled.bind_accounting(self.cache, context)
        return compiled

    def snapshot(self):
        """Hit/miss/size/bytes counters of the main (paragraph) LRU."""
        return self.cache.snapshot()
