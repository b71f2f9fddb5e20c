"""Question typing and typed candidate-span extraction.

The heuristic QA models and the simulated-baseline error model both need
to know *what kind* of span answers a question (a person, a place, a
number, ...) and which context spans are plausible candidates of that
type.  This mirrors the answer-type matching a trained extractive PLM
performs implicitly.
"""

from __future__ import annotations

import enum
import re

from repro.lexicon.stopwords import is_insignificant
from repro.text.tokenizer import Token, tokenize

__all__ = ["AnswerType", "classify_question", "candidate_spans"]

_NUMBER_RE = re.compile(r"^\d+(?:[.,]\d+)*%?$")

_PLACE_CUES = {
    "city", "country", "state", "place", "region", "river", "mountain",
    "continent", "town", "capital", "island", "province", "location",
    "where",
}
_PERSON_CUES = {
    "who", "whom", "whose", "person", "king", "queen", "president",
    "singer", "author", "scientist", "leader", "founder", "player",
    "mother", "father", "wife", "husband",
}
_TIME_CUES = {"when", "year", "date", "century", "decade", "month", "day"}
_COUNT_CUES = {
    "many", "much", "number", "percentage", "percent", "population",
    "long", "tall", "old", "far", "often",
}


class AnswerType(enum.Enum):
    """Coarse answer types driving span candidate generation."""

    PERSON = "person"
    PLACE = "place"
    NUMBER = "number"
    ENTITY = "entity"  # any proper-noun span
    PHRASE = "phrase"  # unrestricted


def classify_question(question: str) -> AnswerType:
    """Infer the expected answer type from the question's wording.

    >>> classify_question("Who led the Norman conquest?")
    <AnswerType.PERSON: 'person'>
    >>> classify_question("When was the battle fought?")
    <AnswerType.NUMBER: 'number'>
    """
    words = {t.lower for t in tokenize(question) if t.is_word}
    if words & _TIME_CUES or words & _COUNT_CUES:
        return AnswerType.NUMBER
    if words & _PERSON_CUES:
        return AnswerType.PERSON
    if words & _PLACE_CUES:
        return AnswerType.PLACE
    if "what" in words or "which" in words:
        return AnswerType.ENTITY
    return AnswerType.PHRASE


def _is_capitalized_word(token: Token) -> bool:
    return token.is_word and token.text[:1].isupper()


def _is_number(token: Token) -> bool:
    return bool(_NUMBER_RE.match(token.text))


def candidate_spans(
    tokens: list[Token],
    answer_type: AnswerType,
    max_len: int = 6,
) -> list[tuple[int, int]]:
    """Token-index spans ``(start, end_inclusive)`` plausible for the type.

    * NUMBER: maximal runs of numeric tokens (plus trailing unit word).
    * PERSON / PLACE / ENTITY: maximal capitalized runs (with internal
      "of"/"the" bridges, e.g. "Battle of Hastings").
    * PHRASE: all short spans starting/ending on a content word.
    """
    spans: list[tuple[int, int]] = []
    n = len(tokens)
    if answer_type is AnswerType.NUMBER:
        i = 0
        while i < n:
            if _is_number(tokens[i]):
                j = i
                while j + 1 < n and _is_number(tokens[j + 1]):
                    j += 1
                spans.append((i, j))
                # include a trailing unit noun ("50 points")
                if j + 1 < n and tokens[j + 1].is_word:
                    spans.append((i, j + 1))
                i = j + 1
            else:
                i += 1
        return spans
    if answer_type in (AnswerType.PERSON, AnswerType.PLACE, AnswerType.ENTITY):
        pronouns = {"she", "he", "it", "they", "her", "him", "them", "i", "we", "you"}
        i = 0
        while i < n:
            if _is_capitalized_word(tokens[i]):
                j = i
                while j + 1 < n:
                    nxt = tokens[j + 1]
                    if _is_capitalized_word(nxt):
                        j += 1
                        continue
                    # bridge "of"/"the" between capitalized words
                    if (
                        nxt.lower in ("of", "the")
                        and j + 2 < n
                        and _is_capitalized_word(tokens[j + 2])
                    ):
                        j += 2
                        continue
                    break
                single_pronoun = i == j and tokens[i].lower in pronouns
                if j - i + 1 <= max_len + 2 and not single_pronoun:
                    spans.append((i, j))
                i = j + 1
            else:
                i += 1
        return [(a, b) for a, b in spans if a <= b]
    # PHRASE: any span up to max_len anchored on *significant* content
    # words (a span may contain function words but not start/end on one).
    content = [tok.is_word and not is_insignificant(tok.text) for tok in tokens]
    for i in range(n):
        if not content[i]:
            continue
        for j in range(i, min(n, i + max_len)):
            if content[j]:
                spans.append((i, j))
    return spans
