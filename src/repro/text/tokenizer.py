"""Span-preserving word tokenizer.

GCED operates at token level: the distilled evidence is a subset of context
tokens re-ordered by their original indexes, and answer spans must be
located back in the raw text.  Every token therefore carries its character
offsets in the source string.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = ["Token", "tokenize", "detokenize", "word_tokens"]

# Words (with internal apostrophes/hyphens, e.g. "Knowles-Carter", "don't"),
# numbers (with decimal points/commas, e.g. "1,533", "3.5"), or single
# punctuation marks.
_WORD_PATTERN = (
    r"[A-Za-z]+(?:[''\-][A-Za-z]+)*"  # words incl. hyphen/apostrophe compounds
    r"|\d+(?:[.,]\d+)*%?"  # numbers, decimals, percentages
)
_TOKEN_RE = re.compile(
    _WORD_PATTERN + r"|[^\w\s]"  # any single punctuation character
)
# The word alternatives alone.  A punctuation match is one character that
# is neither alphanumeric nor able to start a word or number, so scanning
# with this pattern finds exactly the tokens ``tokenize`` marks
# ``is_word``, without building Token objects.
_WORD_RE = re.compile(_WORD_PATTERN)

# Punctuation that attaches to the preceding token when detokenizing.
_CLOSE_PUNCT = {".", ",", ";", ":", "!", "?", ")", "]", "}", "%", "''", "'"}
_OPEN_PUNCT = {"(", "[", "{", "``"}
_NO_SPACE_AFTER = _OPEN_PUNCT | {"$"}


@dataclass(frozen=True)
class Token:
    """A single token with its position in the source text.

    Attributes:
        text: the surface form.
        start: character offset of the first character in the source.
        end: character offset one past the last character.
        index: 0-based token index within the tokenized unit.
    """

    text: str
    start: int
    end: int
    index: int

    @property
    def lower(self) -> str:
        return self.text.lower()

    @property
    def is_word(self) -> bool:
        """True if the token contains at least one alphanumeric character."""
        return any(ch.isalnum() for ch in self.text)

    def __str__(self) -> str:  # pragma: no cover - debugging convenience
        return self.text


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text`` into :class:`Token` objects with character spans.

    >>> [t.text for t in tokenize("Beyonce performed, didn't she?")]
    ["Beyonce", "performed", ",", "didn't", "she", "?"]
    """
    return [
        Token(text=m.group(), start=m.start(), end=m.end(), index=i)
        for i, m in enumerate(_TOKEN_RE.finditer(text))
    ]


def word_tokens(text: str) -> list[str]:
    """Lowercased word-only token strings (punctuation removed).

    Equal to ``[t.lower for t in tokenize(text) if t.is_word]``.
    """
    return [word.lower() for word in _WORD_RE.findall(text)]


def detokenize(tokens: list[str]) -> str:
    """Join token strings back into readable text.

    Handles spacing around punctuation so the distilled evidence reads
    naturally ("Bowl title." not "Bowl title .").
    """
    pieces: list[str] = []
    for tok in tokens:
        if not pieces:
            pieces.append(tok)
        elif tok in _CLOSE_PUNCT:
            pieces[-1] = pieces[-1] + tok
        elif pieces[-1] and pieces[-1][-1] in _NO_SPACE_AFTER:
            pieces[-1] = pieces[-1] + tok
        elif tok == "-" or (pieces[-1].endswith("-") and tok[:1].isalnum()):
            pieces[-1] = pieces[-1] + tok
        else:
            pieces.append(tok)
    return " ".join(pieces)
