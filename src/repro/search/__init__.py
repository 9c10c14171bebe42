"""A from-scratch web search engine: the study's Google stand-in.

The engine indexes the synthetic corpus with an inverted index, scores
text relevance with BM25, computes domain authority with PageRank over the
link graph, and blends both with SEO signals (title match, freshness,
on-page optimization) into a final ranking — the "organic ranking"
logic that SEO optimizes for and that the paper contrasts with generative
engines' source selection.
"""

from repro.search.bm25 import BM25Scorer
from repro.search.engine import SearchEngine, SearchResult, Snippet
from repro.search.index import InvertedIndex
from repro.search.pagerank import pagerank
from repro.search.seo import SeoWeights
from repro.search.snippets import SnippetCache, extract_snippet
from repro.search.tokenize import tokenize

__all__ = [
    "BM25Scorer",
    "InvertedIndex",
    "SearchEngine",
    "SearchResult",
    "SeoWeights",
    "Snippet",
    "SnippetCache",
    "extract_snippet",
    "pagerank",
    "tokenize",
]
