"""Interpolated n-gram language model.

Stands in for the PLM's token probabilities in the readability metric
(Eq. 3-4): ``R(e) = 1 / PPL(e)``.  A trigram model with Jelinek-Mercer
interpolation and add-k floor smoothing gives the monotonicity the paper's
metric relies on: fluent in-domain word orders receive lower perplexity
than shuffled or fragmented ones.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Sequence

__all__ = ["BOS", "NGramLanguageModel"]

_BOS = "<s>"
_EOS = "</s>"

# Public alias: incremental scoring replays trigram terms outside this
# module and must left-pad with the exact BOS sentinel
# ``log_probability`` uses.  (EOS is fit-time only — ``log_probability``
# scores sequences *without* EOS, so replayers must not append it.)
BOS = _BOS

class NGramLanguageModel:
    """Trigram LM with Jelinek-Mercer interpolation.

    ``p(w | u, v) = l3 * p3(w|u,v) + l2 * p2(w|v) + l1 * p1(w)`` where the
    component maximum-likelihood estimates fall back to an add-k-smoothed
    unigram floor for unseen words, so every sequence has finite perplexity.

    Args:
        order: maximum n-gram order (2 or 3; default 3).
        lambdas: interpolation weights (trigram, bigram, unigram); must sum
            to 1.
        add_k: unigram floor smoothing constant.
    """

    def __init__(
        self,
        order: int = 3,
        lambdas: tuple[float, float, float] = (0.5, 0.3, 0.2),
        add_k: float = 0.1,
    ) -> None:
        if order not in (2, 3):
            raise ValueError("order must be 2 or 3")
        if abs(sum(lambdas) - 1.0) > 1e-9:
            raise ValueError("interpolation weights must sum to 1")
        if any(lam < 0 for lam in lambdas):
            raise ValueError("interpolation weights must be non-negative")
        self.order = order
        self.lambdas = lambdas
        self.add_k = add_k
        self.unigrams: Counter[str] = Counter()
        self.bigrams: Counter[tuple[str, str]] = Counter()
        self.trigrams: Counter[tuple[str, str, str]] = Counter()
        self.total_tokens = 0
        self._fitted = False

    # ------------------------------------------------------------------ fit
    def fit(self, sentences: Iterable[Sequence[str]]) -> "NGramLanguageModel":
        """Accumulate n-gram counts from an iterable of token sequences."""
        for sent in sentences:
            tokens = [_BOS, _BOS] + [t.lower() for t in sent] + [_EOS]
            for i in range(2, len(tokens)):
                w, v, u = tokens[i], tokens[i - 1], tokens[i - 2]
                self.unigrams[w] += 1
                self.bigrams[(v, w)] += 1
                if self.order == 3:
                    self.trigrams[(u, v, w)] += 1
                self.total_tokens += 1
        self._fitted = True
        return self

    @property
    def vocab_size(self) -> int:
        return max(1, len(self.unigrams))

    # ---------------------------------------------------------- probability
    def _p_unigram(self, w: str) -> float:
        return (self.unigrams.get(w, 0) + self.add_k) / (
            self.total_tokens + self.add_k * (self.vocab_size + 1)
        )

    def _p_bigram(self, v: str, w: str) -> float:
        context = self.unigrams.get(v, 0) if v not in (_BOS,) else self._bos_count()
        if context == 0:
            return self._p_unigram(w)
        return self.bigrams.get((v, w), 0) / context

    def _bos_count(self) -> int:
        # Each training sentence contributes one (BOS, w) bigram with v=BOS
        # at position 0; approximate by the EOS count (one per sentence).
        return max(1, self.unigrams.get(_EOS, 1))

    def _p_trigram(self, u: str, v: str, w: str) -> float:
        context = self.bigrams.get((u, v), 0)
        if u == _BOS and v == _BOS:
            context = self._bos_count()
        if context == 0:
            return 0.0
        return self.trigrams.get((u, v, w), 0) / context

    def probability(self, w: str, v: str = _BOS, u: str = _BOS) -> float:
        """Interpolated ``p(w | u, v)``; always strictly positive."""
        if not self._fitted:
            raise RuntimeError("language model is not fitted; call fit() first")
        w, v, u = w.lower(), v.lower() if v != _BOS else v, u.lower() if u != _BOS else u
        l3, l2, l1 = self.lambdas
        p = l1 * self._p_unigram(w) + l2 * self._p_bigram(v, w)
        if self.order == 3:
            p += l3 * self._p_trigram(u, v, w)
        else:
            p += l3 * self._p_bigram(v, w)
        return max(p, 1e-12)

    # ----------------------------------------------------------- perplexity
    def log_probability(self, tokens: Sequence[str]) -> float:
        """Natural-log probability of a token sequence (without EOS)."""
        padded = [_BOS, _BOS] + [t.lower() for t in tokens]
        total = 0.0
        for i in range(2, len(padded)):
            total += math.log(self.probability(padded[i], padded[i - 1], padded[i - 2]))
        return total

    def perplexity(self, tokens: Sequence[str]) -> float:
        """Per-token perplexity of ``tokens`` (Eq. 3); inf-free by smoothing.

        Empty sequences are maximally surprising by convention.
        """
        if not tokens:
            return float(self.vocab_size)
        return math.exp(-self.log_probability(tokens) / len(tokens))
