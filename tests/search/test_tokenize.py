"""Tests for the text analyzer."""

from hypothesis import given
from hypothesis import strategies as st

from repro.entities import build_default_catalog
from repro.search.tokenize import STOPWORDS, _WORD, _term, stem, tokenize
from repro.webgraph.corpus import CorpusConfig, CorpusGenerator
from repro.webgraph.domains import build_default_registry


def oracle_tokenize(text: str) -> list[str]:
    """The per-character analyzer the regex split replaced: the oracle."""
    tokens = []
    word: list[str] = []
    for ch in text.lower():
        if ch.isalnum():
            word.append(ch)
        elif word:
            tokens.append("".join(word))
            word = []
    if word:
        tokens.append("".join(word))
    return [stem(t) for t in tokens if len(t) > 1 and t not in STOPWORDS]


#: Characters where a regex word class and ``str.isalnum`` could part
#: ways: the underscore, a superscript digit, a letter whose case maps
#: change length ("ß", and "İ", whose ``lower()`` is two code points),
#: combining marks, punctuation and whitespace.
_TRICKY = ("_", "²", "ß", "İ", "\u0301", "\u0307", "-", " ", "\n", "'", "s")


class TestStem:
    def test_plural(self):
        assert stem("smartphones") == "smartphone"
        assert stem("airlines") == "airline"

    def test_ing(self):
        assert stem("charging") == "charg"

    def test_short_words_untouched(self):
        assert stem("gps") == "gps"
        assert stem("is") == "is"

    def test_only_one_suffix_stripped(self):
        # "rankings" -> "rank" via the combined "ings" suffix.
        assert stem("rankings") == "rank"


class TestTokenize:
    def test_basic(self):
        assert tokenize("Top 10 most reliable smartphones in 2025!") == [
            "10", "most", "reliable", "smartphone", "2025",
        ]

    def test_stopwords_removed(self):
        tokens = tokenize("the best of the best")
        assert tokens == []

    def test_punctuation_split(self):
        assert tokenize("Wi-Fi 7: how it works") == ["wi", "fi", "work"]

    def test_single_chars_dropped(self):
        assert "a" not in tokenize("a b c data")

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("   !!! ") == []

    def test_case_insensitive(self):
        assert tokenize("APPLE") == tokenize("apple")

    @given(st.text(max_size=100))
    def test_never_raises_and_yields_clean_tokens(self, text):
        tokens = tokenize(text)
        for token in tokens:
            assert token  # non-empty
            assert token == token.lower()
            assert token not in STOPWORDS or len(token) > 1

    @given(st.text(max_size=60))
    def test_idempotent_on_own_output(self, text):
        tokens = tokenize(text)
        retokenized = tokenize(" ".join(tokens))
        # Stemming is not idempotent in general ("ies"->"i" cases aside),
        # but token *count* can only shrink via stopword collisions.
        assert len(retokenized) <= len(tokens)


class TestTokenizerEquivalence:
    def test_word_class_is_isalnum_on_every_code_point(self):
        mismatches = [
            code
            for code in range(0x110000)
            if (_WORD.fullmatch(chr(code)) is not None) != chr(code).isalnum()
        ]
        assert mismatches == []

    @given(
        st.lists(
            st.one_of(
                st.sampled_from(sorted(STOPWORDS)),
                st.sampled_from(_TRICKY),
                st.text(max_size=6),
                st.sampled_from(("Phones", "RANKINGS", "airlines", "gps")),
            ),
            max_size=20,
        ).map("".join)
    )
    def test_matches_oracle(self, text):
        assert tokenize(text) == oracle_tokenize(text)

    def test_matches_oracle_on_seed7_corpus(self):
        corpus = CorpusGenerator(
            build_default_registry(), build_default_catalog(), CorpusConfig(seed=7)
        ).generate()
        for page in corpus.pages:
            assert tokenize(page.title) == oracle_tokenize(page.title)
            assert tokenize(page.body) == oracle_tokenize(page.body)

    def test_term_memo_is_bounded(self):
        assert _term.cache_info().maxsize is not None
