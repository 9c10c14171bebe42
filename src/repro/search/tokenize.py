"""Text analysis for indexing and querying.

A small, deterministic analyzer: lowercase, split on non-alphanumerics,
drop stopwords and single characters, and apply a light suffix stemmer so
that "phones" matches "phone" and "ranking" matches "rank".  Both the
index and the query side use the same pipeline, which is all BM25 needs.
"""

from __future__ import annotations

__all__ = ["STOPWORDS", "stem", "tokenize"]

STOPWORDS = frozenset(
    """
    a an and are as at be best by for from has have how i in is it its of on
    or that the this to top was we what when where which who why will with
    you your
    """.split()
)

_SUFFIXES = ("ings", "ing", "edly", "ied", "ies", "ed", "ly")


def stem(token: str) -> str:
    """Light suffix stripping (an S-stemmer variant).

    Deliberately conservative: strips one suffix when the stem stays at
    least three characters, so "airlines" -> "airline" but "gps" stays
    "gps"; a trailing plural "s" is removed unless the word ends in "ss"
    or "us" ("glass", "bonus" stay intact).
    """
    for suffix in _SUFFIXES:
        if token.endswith(suffix) and len(token) - len(suffix) >= 3:
            return token[: -len(suffix)]
    if (
        token.endswith("s")
        and not token.endswith(("ss", "us"))
        and len(token) >= 4
    ):
        return token[:-1]
    return token


def tokenize(text: str) -> list[str]:
    """Analyze ``text`` into index terms.

    >>> tokenize("Top 10 most reliable smartphones in 2025!")
    ['10', 'most', 'reliable', 'smartphone', '2025']
    """
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
