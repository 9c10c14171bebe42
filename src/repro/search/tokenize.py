"""Text analysis for indexing and querying.

A small, deterministic analyzer: lowercase, split on non-alphanumerics,
drop stopwords and single characters, and apply a light suffix stemmer so
that "phones" matches "phone" and "ranking" matches "rank".  Both the
index and the query side use the same pipeline, which is all BM25 needs.

Splitting is one regex pass: ``[^\\W_]+`` matches exactly the maximal runs
of characters for which ``str.isalnum()`` is true (``\\w`` is
``isalnum()`` plus the underscore), so the words are those of a
per-character ``isalnum`` scan.  Each word then maps to its term through
:func:`_term`, a pure function of the word memoized in a bounded
``functools.lru_cache``: the synthetic corpus repeats a few hundred
distinct words across hundreds of thousands of occurrences, so almost
every word is a cache hit instead of a filter-and-stem.
"""

from __future__ import annotations

import re
from functools import lru_cache

__all__ = ["STOPWORDS", "stem", "tokenize"]

STOPWORDS = frozenset(
    """
    a an and are as at be best by for from has have how i in is it its of on
    or that the this to top was we what when where which who why will with
    you your
    """.split()
)

_SUFFIXES = ("ings", "ing", "edly", "ied", "ies", "ed", "ly")

#: Maximal runs of ``str.isalnum()`` characters.
_WORD = re.compile(r"[^\W_]+")


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


@lru_cache(maxsize=1 << 14)
def _term(word: str) -> str | None:
    """The index term for one lowercased word, or ``None`` if dropped."""
    if len(word) > 1 and word not in STOPWORDS:
        return stem(word)
    return None


def tokenize(text: str) -> list[str]:
    """Analyze ``text`` into index terms.

    >>> tokenize("Top 10 most reliable smartphones in 2025!")
    ['10', 'most', 'reliable', 'smartphone', '2025']
    """
    return [
        term
        for term in map(_term, _WORD.findall(text.lower()))
        if term is not None
    ]
