"""Answer-oriented Sentences Extractor (ASE) — Sec. III-B.

Finds the minimum sentence subset of the context from which the QA model
re-predicts the input answer.  Sentences are fed to the model one at a
time (most relevant first); the subset stops growing the first time the
model recovers the answer.  If the model never recovers it, the tested
subset with the maximum Eq. 1 overlap wins.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.overlap import f1_score
from repro.qa.base import QAModel
from repro.text.normalize import normalize_answer
from repro.text.sentences import Sentence, split_sentences

__all__ = ["ASEResult", "AnswerOrientedSentenceExtractor"]


@dataclass(frozen=True)
class ASEResult:
    """Output of ASE.

    Attributes:
        sentences: the answer-oriented sentence(s) in document order.
        text: their concatenation (the unit all later modules operate on).
        recovered: whether the QA model exactly recovered the input answer.
        overlap: Eq. 1 F1 between the model's prediction from ``text`` and
            the input answer.
        sentences_tried: how many sentences were fed before stopping.
    """

    sentences: tuple[Sentence, ...]
    text: str
    recovered: bool
    overlap: float
    sentences_tried: int


class AnswerOrientedSentenceExtractor:
    """Selects the minimal answer-supporting sentence subset.

    Args:
        qa_model: the answer predictor (Step 2 of Sec. II-B1).
        max_sentences: cap on the subset size; contexts rarely need more
            than two or three sentences to support a span answer.
    """

    def __init__(self, qa_model: QAModel, max_sentences: int = 3) -> None:
        if max_sentences < 1:
            raise ValueError("max_sentences must be at least 1")
        self.qa_model = qa_model
        self.max_sentences = max_sentences

    def _compiled(self, context: str):
        """The model's compiled artifact for ``context``, if it keeps one.

        Span-scoring models expose :meth:`compiled_context`; its artifact
        carries the paragraph's sentence split and per-question sentence
        prediction batches, so repeated ASE runs over the same paragraph
        skip both.
        """
        factory = getattr(self.qa_model, "compiled_context", None)
        return factory(context) if factory is not None else None

    def _rank_sentences(
        self,
        question: str,
        answer: str,
        sentences: list[Sentence],
        compiled=None,
    ) -> list[Sentence]:
        """Order sentences by single-sentence answer support.

        A sentence that contains the answer string outranks everything;
        after that, the model's prediction overlap and confidence decide.
        """
        norm_answer = normalize_answer(answer)
        # One batched prediction for all sentences: models amortize their
        # question-side work, results equal per-sentence predicts exactly.
        # The batch is an artifact of (question, paragraph), so compiled
        # contexts memoize it across calls.
        if compiled is not None:
            predictions = compiled.sentence_predictions(
                question,
                lambda: self.qa_model.predict_batch(
                    question, [sent.text for sent in sentences]
                ),
            )
        else:
            predictions = self.qa_model.predict_batch(
                question, [sent.text for sent in sentences]
            )
        ranked: list[tuple[float, float, int, Sentence]] = []
        for sent, prediction in zip(sentences, predictions):
            contains = 1.0 if norm_answer and norm_answer in normalize_answer(sent.text) else 0.0
            overlap = f1_score(prediction.text, answer) if answer else 0.0
            ranked.append((contains, overlap, -sent.index, sent))
        ranked.sort(key=lambda item: (-item[0], -item[1], item[2]))
        return [item[3] for item in ranked]

    def extract(self, question: str, answer: str, context: str) -> ASEResult:
        """Run ASE for one (question, answer, context) triple."""
        compiled = self._compiled(context)
        if compiled is not None:
            sentences = list(compiled.sentences())
        else:
            sentences = split_sentences(context)
        if not sentences:
            return ASEResult((), "", False, 0.0, 0)
        norm_answer = normalize_answer(answer)
        ranked = self._rank_sentences(question, answer, sentences, compiled)

        subset: list[Sentence] = []
        best_subset: list[Sentence] = []
        best_overlap = -1.0
        tried = 0
        for sent in ranked[: self.max_sentences]:
            subset.append(sent)
            tried += 1
            ordered = sorted(subset, key=lambda s: s.index)
            text = " ".join(s.text for s in ordered)
            prediction = self.qa_model.predict(question, text)
            if norm_answer and normalize_answer(prediction.text) == norm_answer:
                return ASEResult(tuple(ordered), text, True, 1.0, tried)
            overlap = f1_score(prediction.text, answer)
            if overlap > best_overlap:
                best_overlap = overlap
                best_subset = list(ordered)
        ordered = best_subset or sorted(subset, key=lambda s: s.index)
        text = " ".join(s.text for s in ordered)
        return ASEResult(tuple(ordered), text, False, max(best_overlap, 0.0), tried)

    def passthrough(self, context: str) -> ASEResult:
        """The "w/o ASE" ablation: the whole context is the sentence set."""
        compiled = self._compiled(context)
        if compiled is not None:
            sentences = compiled.sentences()
        else:
            sentences = tuple(split_sentences(context))
        text = " ".join(s.text for s in sentences)
        return ASEResult(sentences, text, False, 0.0, 0)
