"""Unit tests for the span-preserving tokenizer."""

from hypothesis import given, settings, strategies as st

from repro.text.tokenizer import Token, detokenize, tokenize, word_tokens


# Pieces where a word-only scan could plausibly diverge from tokenize:
# compounds and numbers, the Kelvin sign and dotted capital I (which
# lowercase to ASCII or to two characters), Arabic-Indic digits (``\d``
# but not ASCII), and "_" and "e-acute" (``\w`` but part of no token).
_EDGE_PIECES = [
    "Knowles-Carter", "don't", "1,533", "3.5%", "K", "\u212a", "\u0130",
    "\u0663\u0664", "_", "\u00e9", "-", "'", ".", " ", "\n", "a", "Z",
]


def _word_tokens_via_tokens(text: str) -> list[str]:
    """The Token-based definition ``word_tokens`` must equal."""
    return [t.lower for t in tokenize(text) if t.is_word]


class TestTokenize:
    def test_simple_sentence(self):
        tokens = tokenize("The cat sat.")
        assert [t.text for t in tokens] == ["The", "cat", "sat", "."]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_whitespace_only(self):
        assert tokenize("   \n\t ") == []

    def test_char_offsets_roundtrip(self):
        text = "Denver Broncos defeated the Panthers, 24-10!"
        for token in tokenize(text):
            assert text[token.start : token.end] == token.text

    def test_indices_sequential(self):
        tokens = tokenize("a b c d")
        assert [t.index for t in tokens] == [0, 1, 2, 3]

    def test_hyphenated_word_kept_whole(self):
        tokens = tokenize("Knowles-Carter sang.")
        assert tokens[0].text == "Knowles-Carter"

    def test_apostrophe_contraction(self):
        tokens = tokenize("didn't stop")
        assert tokens[0].text == "didn't"

    def test_numbers_with_separators(self):
        tokens = tokenize("Population reached 1,533,000 in 1876.")
        texts = [t.text for t in tokens]
        assert "1,533,000" in texts
        assert "1876" in texts

    def test_percentage(self):
        assert "78.5%" in [t.text for t in tokenize("about 78.5% of words")]

    def test_punctuation_split(self):
        texts = [t.text for t in tokenize("(AFC) champion")]
        assert texts[:3] == ["(", "AFC", ")"]

    def test_is_word_flag(self):
        tokens = tokenize("Hello, world!")
        assert tokens[0].is_word and tokens[2].is_word
        assert not tokens[1].is_word and not tokens[3].is_word

    def test_lower_property(self):
        assert tokenize("DeNVer")[0].lower == "denver"


class TestWordTokens:
    def test_drops_punctuation(self):
        assert word_tokens("Hello, world!") == ["hello", "world"]

    def test_empty(self):
        assert word_tokens("...") == []

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_equals_token_definition(self, text):
        assert word_tokens(text) == _word_tokens_via_tokens(text)

    @given(st.lists(st.sampled_from(_EDGE_PIECES)).map("".join))
    def test_equals_token_definition_on_edge_characters(self, text):
        assert word_tokens(text) == _word_tokens_via_tokens(text)

    def test_equals_token_definition_on_squad_contexts(self, squad_dataset):
        for context in squad_dataset.contexts():
            assert word_tokens(context) == _word_tokens_via_tokens(context)


class TestDetokenize:
    def test_basic_join(self):
        assert detokenize(["the", "cat"]) == "the cat"

    def test_closing_punctuation_attaches(self):
        assert detokenize(["Hello", ",", "world", "!"]) == "Hello, world!"

    def test_open_paren_attaches_forward(self):
        assert detokenize(["champion", "(", "AFC", ")"]) == "champion (AFC)"

    def test_empty_list(self):
        assert detokenize([]) == ""

    def test_single_token(self):
        assert detokenize(["word"]) == "word"

    def test_roundtrip_tokens(self):
        text = "The Broncos won the title."
        rebuilt = detokenize([t.text for t in tokenize(text)])
        assert rebuilt == text


class TestToken:
    def test_frozen(self):
        token = Token("a", 0, 1, 0)
        try:
            token.text = "b"
            assert False, "Token should be immutable"
        except AttributeError:
            pass
