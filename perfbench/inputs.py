"""Seeded input generator shared by every perfbench workload.

Every function here is a pure function of its arguments (a seed and a
count): the same arguments give byte-identical inputs, so the quality
metrics of a run (``hybrid_mean``, ``reduction_mean``,
``retrieval.recall_at_k``) repeat exactly.  The program under test receives only what these functions
return; it never sees the seed.

Three products:

* :func:`squad_triples` — SQuAD-style ``(question, answer, context)``
  triples, about two questions per paragraph, with a declared share of
  exact repeats of earlier triples.
* :func:`ask_corpus` — the 20,000-paragraph corpus for ``/ask``: the gold
  paragraph of every question plus seeded filler paragraphs realised from
  a separately seeded knowledge base, shuffled so gold ids are spread.
* :func:`writer_docs` — the live writer's document stream.  Its words are
  pseudo-words that occur in no corpus paragraph and no question, so a
  write changes no query term's document frequency (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.kb import KnowledgeBase
from repro.datasets.squad import SquadGenerator
from repro.datasets.templates import generic_noise, realize_statement
from repro.utils.rng import rng_from

Triple = tuple[str, str, str]

CORPUS_SIZE = 20_000
WRITER_DOC_WORDS = 35
_SYLLABLES = ("ka", "zo", "vu", "rex", "qi", "mo", "tal", "pri", "sun", "dov", "lep", "nur")


@dataclass(frozen=True)
class TripleSet:
    """A workload's triples plus the properties it declares."""

    triples: list[Triple]
    contexts: list[str]  # distinct paragraphs, first-seen order (QA training corpus)
    warmup: Triple  # one triple outside ``triples``, used by set-up

    def shares(self) -> dict:
        """Declared input properties, as shares of ``len(triples)``."""
        seen: set[Triple] = set()
        repeats = 0
        for triple in self.triples:
            repeats += triple in seen
            seen.add(triple)
        per_context: dict[str, int] = {}
        for _q, _a, context in seen:
            per_context[context] = per_context.get(context, 0) + 1
        shared = sum(1 for t in self.triples if per_context[t[2]] > 1)
        n = len(self.triples)
        return {
            "triples": n,
            "unique": len(seen),
            "paragraphs": len(per_context),
            "repeat_share": round(repeats / n, 4),
            "shared_context_share": round(shared / n, 4),
        }


def _unique_triples(seed: int, n: int) -> list[Triple]:
    """The first ``n`` distinct answerable triples of a seeded SQuAD set."""
    dataset = SquadGenerator(version="1.1", seed=seed).generate(
        n_train=2 * n + 16, n_dev=0
    )
    seen: set[Triple] = set()
    out: list[Triple] = []
    questions: set[str] = set()
    for example in dataset.train:
        triple = (example.question, example.primary_answer, example.context)
        # Unique questions too: /ask sees only (question, answer).
        if triple in seen or example.question in questions:
            continue
        seen.add(triple)
        questions.add(example.question)
        out.append(triple)
    if len(out) < n + 1:
        raise RuntimeError(f"generator produced {len(out)} < {n + 1} triples")
    return out[: n + 1]


def _contexts(triples: list[Triple]) -> list[str]:
    return list(dict.fromkeys(context for _q, _a, context in triples))


def squad_triples(seed: int, n: int, repeat_share: float = 0.0) -> TripleSet:
    """``n`` triples; a seeded ``repeat_share`` of them repeat an earlier one.

    Repeats are exact copies of a uniformly chosen earlier triple, so the
    result memo serves them.  ``repeat_share=0`` gives ``n`` unique
    triples.  The warm-up triple is drawn from the same paragraphs so QA
    training sees it, but is never part of the measured list.
    """
    n_unique = n - int(round(n * repeat_share))
    pool = _unique_triples(seed, n_unique)
    warmup, fresh = pool[-1], iter(pool[:-1])
    rng = rng_from(seed, "perfbench-repeats")
    is_repeat = np.zeros(n, dtype=bool)
    # Position 0 can never repeat; spread the repeats over the rest.
    is_repeat[1 + rng.permutation(n - 1)[: n - n_unique]] = True
    triples: list[Triple] = []
    for repeat in is_repeat:
        if repeat:
            triples.append(triples[int(rng.integers(0, len(triples)))])
        else:
            triples.append(next(fresh))
    return TripleSet(triples, _contexts(triples + [warmup]), warmup)


def _filler_facts(seed: int) -> list:
    kb = KnowledgeBase(
        seed=int(rng_from(seed, "perfbench-filler-kb").integers(1 << 30)),
        n_people=2000,
        n_teams=200,
        n_cities=200,
    )
    facts = []
    for person in kb.people:
        facts += kb.facts_about(person)
    for city in kb.cities:
        facts += kb.facts_about_city(city)
    for band in kb.bands:
        facts += kb.facts_about_band(band)
    for country in kb.countries:
        facts += kb.facts_about_country(country)
    return facts


@dataclass(frozen=True)
class AskCorpus:
    """The ``/ask`` corpus, its questions, and where each gold paragraph sits."""

    corpus: list[str]
    asks: list[tuple[str, str]]
    gold_ids: list[int]  # doc id of each ask's gold paragraph
    train_contexts: list[str]  # gold paragraphs: the QA training corpus
    warmup: tuple[str, str]


def ask_corpus(seed: int, n_asks: int, size: int = CORPUS_SIZE) -> AskCorpus:
    """Gold paragraphs for ``n_asks`` unique questions + seeded filler.

    Filler paragraphs realise 2-4 facts of a differently seeded knowledge
    base (and sometimes a content-free sentence), the shape of the gold
    passages without their answers.  The whole corpus is shuffled with a
    seeded permutation, so gold ids carry no tie-breaking advantage.
    """
    triples = _unique_triples(seed, n_asks)
    warmup, triples = triples[-1], triples[:-1]
    gold = _contexts(triples + [warmup])
    rng = rng_from(seed, "perfbench-filler")
    facts = _filler_facts(seed)
    known = set(gold)
    filler: list[str] = []
    while len(gold) + len(filler) < size:
        sentences = [
            realize_statement(facts[int(rng.integers(0, len(facts)))], rng)
            for _ in range(int(rng.integers(2, 5)))
        ]
        if rng.random() < 0.5:
            sentences.append(generic_noise(rng))
        text = " ".join(sentences)
        if text not in known:
            known.add(text)
            filler.append(text)
    docs = gold + filler
    corpus = [docs[i] for i in rng.permutation(len(docs))]
    doc_id = {text: i for i, text in enumerate(corpus)}
    return AskCorpus(
        corpus=corpus,
        asks=[(q, a) for q, a, _c in triples],
        gold_ids=[doc_id[c] for _q, _a, c in triples],
        train_contexts=gold,
        warmup=(warmup[0], warmup[1]),
    )


def writer_docs(seed: int, n: int) -> list[str]:
    """``n`` pseudo-word paragraphs of ``WRITER_DOC_WORDS`` words each.

    One length for all: the live corpus's average document length (a
    BM25 statistic of every ask) then reads the same whichever writer
    document is live when an ask is scored.
    """
    rng = rng_from(seed, "perfbench-writer")
    docs = []
    for _ in range(n):
        words = [
            "xq" + "".join(_SYLLABLES[int(j)] for j in rng.integers(0, len(_SYLLABLES), 3))
            for _ in range(WRITER_DOC_WORDS)
        ]
        docs.append(" ".join(words).capitalize() + ".")
    return docs
