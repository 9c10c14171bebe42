"""Document-partitioned sharded search with score-identical results.

Scale-out for the search substrate: the corpus is partitioned across N
per-shard :class:`~repro.search.index.InvertedIndex` /
:class:`~repro.search.bm25.BM25Scorer` pairs, and every BM25 query —
organic ranking and the generative engines' candidate pools alike —
scatters to every shard through :meth:`ShardedSearchEngine.score_terms`.
The contract is **float-exactness**: for any shard count,
:class:`ShardedSearchEngine` returns byte-identical results to the
single-index :class:`~repro.search.engine.SearchEngine` (and therefore
to its ``search_reference``).  Three mechanisms carry that contract:

* **Pure partition function.** :func:`shard_of` is plain arithmetic on
  ``doc_id`` — no RNG, no state — so the assignment of documents to
  shards is reproducible from the ids alone.

* **Two-phase global-statistics exchange.** Phase one: every shard
  reports a :class:`LocalStats` — local df per term, doc count, total
  token length (an ``int``, so summation is exact).  Phase two: the
  merged :class:`GlobalStats` (global df, N, avgdl) is broadcast back
  and every shard scorer is rebuilt against it.  BM25's inputs are then
  corpus-wide numbers identical to the single index's, and the scoring
  *operations* are untouched, so per-document scores are float-exact.

* **Scatter, then one ranker.** ``score_terms`` returns the union of
  the per-shard score dicts.  Each document lives in one shard, so the
  union holds exactly the single index's ``{doc_id: score}`` pairs,
  only in another order, and every consumer selects by value — the
  inherited ranker by ``(-score, doc_id)`` with ``max`` for
  normalization, the retrieval pool by ``nlargest`` and the same key.
  Both therefore pick exactly what they pick on the single index,
  crowding fallback included, with no merge code of their own.

Shard index builds parallelize over a ``fork`` process pool through the
study runner's handshake, :func:`repro.forkpool.fork_inherit`: forked
builders inherit the page groups copy-on-write and only compact frozen
arrays (tuples of ints) come back over the pipe — never ``Page``
objects.  The parent reconstitutes each shard against its
*own* page objects (:meth:`InvertedIndex.from_frozen_parts`),
preserving page identity for every downstream consumer.  Where ``fork``
is unavailable the build degrades to threads with a warning, exactly
like the study runner.

Cache coherence: the routed view :class:`ShardedIndex` exposes a
**composite epoch** — the sum of the shard epochs, a monotone mutation
counter — so the engine's inherited query cache, the answer and
evidence memos keyed on it, and every epoch-tagged table stay correct
without knowing about shards.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.forkpool import EXECUTORS, fork_inherit, inherited
from repro.resilience.coverage import ShardCoverage
from repro.resilience.faults import ResilienceExhausted
from repro.resilience.quarantine import QuarantineRecord
from repro.search.bm25 import BM25Scorer
from repro.search.engine import SearchEngine
from repro.search.index import InvertedIndex
from repro.search.seo import SeoWeights
from repro.webgraph.corpus import Corpus
from repro.webgraph.domains import DomainRegistry
from repro.webgraph.pages import Page

__all__ = [
    "GlobalStats",
    "LocalStats",
    "ShardedIndex",
    "ShardedSearchEngine",
    "build_shard_indexes",
    "exchange_global_stats",
    "partition_pages",
    "shard_of",
]

def shard_of(doc_id: int, shard_count: int) -> int:
    """The shard owning ``doc_id`` — a pure function, no RNG.

    Round-robin by id: documents land on ``doc_id mod shard_count``, so
    the assignment is reproducible from the id and the shard count
    alone, and contiguous corpus ids spread evenly.
    """
    if shard_count < 1:
        raise ValueError("shard_count must be at least 1")
    return doc_id % shard_count


def partition_pages(
    pages: Sequence[Page], shard_count: int
) -> list[list[Page]]:
    """Split pages into per-shard groups by :func:`shard_of`.

    Group order within a shard follows the input order, which for the
    corpus generator is ascending ``doc_id``.
    """
    groups: list[list[Page]] = [[] for _ in range(shard_count)]
    for page in pages:
        groups[shard_of(page.doc_id, shard_count)].append(page)
    return groups


# ----------------------------------------------------------------------
# Two-phase global-statistics exchange


@dataclass(frozen=True)
class LocalStats:
    """Phase one: what one shard reports about its local documents."""

    shard_id: int
    doc_count: int
    #: Sum of local document lengths, kept integral so the global sum
    #: (and hence avgdl) is exact.
    total_length: int
    #: term -> local document frequency.
    df: Mapping[str, int]


@dataclass(frozen=True)
class GlobalStats:
    """Phase two: the merged statistics broadcast back to every shard.

    Satisfies :class:`repro.search.bm25.CorpusStats`, so a shard scorer
    constructed with ``stats=global_stats`` computes idf and length
    norms from corpus-wide numbers — the same ints and the same
    division the single index would produce.
    """

    doc_count: int
    total_length: int
    #: term -> global document frequency (sum of shard-local df).
    df: Mapping[str, int]

    @property
    def average_doc_length(self) -> float:
        if not self.doc_count:
            return 0.0
        return self.total_length / self.doc_count

    def document_frequency(self, term: str) -> int:
        return self.df.get(term, 0)


def local_stats(shard_id: int, index: InvertedIndex) -> LocalStats:
    """One shard's phase-one report, read off its frozen arrays."""
    arrays = index.postings_table()
    return LocalStats(
        shard_id=shard_id,
        doc_count=index.doc_count,
        total_length=index.total_length,
        df={term: len(doc_ids) for term, (doc_ids, __) in arrays.items()},
    )


def exchange_global_stats(
    shard_indexes: Sequence[InvertedIndex],
) -> GlobalStats:
    """Run the two-phase exchange over a set of shard indexes.

    Phase one gathers every shard's :class:`LocalStats`; phase two
    merges them into the :class:`GlobalStats` the caller broadcasts to
    the shard scorers.  Document partitioning makes the merge trivial
    and exact: each document lives in exactly one shard, so global df is
    a sum of disjoint counts and ``N``/``total_length`` are integer
    sums.
    """
    reports = [
        local_stats(shard_id, index)
        for shard_id, index in enumerate(shard_indexes)
    ]
    df: dict[str, int] = {}
    for report in reports:
        for term, count in report.df.items():
            df[term] = df.get(term, 0) + count
    return GlobalStats(
        doc_count=sum(report.doc_count for report in reports),
        total_length=sum(report.total_length for report in reports),
        df=df,
    )


# ----------------------------------------------------------------------
# Parallel shard builds


@dataclass(frozen=True)
class _ShardParts:
    """A worker-built shard's picklable core (no page objects)."""

    arrays: dict[str, tuple[tuple[int, ...], tuple[int, ...]]]
    doc_lengths: dict[int, int]
    total_length: int


def _build_parts(pages: Sequence[Page], title_boost: int) -> _ShardParts:
    """Build one shard index and strip it to its picklable parts."""
    index = InvertedIndex(title_boost)
    index.add_all(pages)
    arrays, doc_lengths, total_length = index.frozen_parts()
    return _ShardParts(
        arrays=arrays, doc_lengths=doc_lengths, total_length=total_length
    )


def _build_parts_inherited(shard_id: int, title_boost: int) -> _ShardParts:
    """Build one shard in a forked worker, via the inherited groups."""
    return _build_parts(inherited()[shard_id], title_boost)


def build_shard_indexes(
    groups: Sequence[Sequence[Page]],
    *,
    builders: int = 1,
    executor: str = "process",
    title_boost: int = 3,
) -> list[InvertedIndex]:
    """Build one :class:`InvertedIndex` per page group, possibly in parallel.

    ``builders=1`` takes the plain sequential path.  With more builders
    the groups go through a ``fork`` process pool (pages inherited
    copy-on-write, frozen arrays shipped back) or, where ``fork`` is
    unavailable, a thread pool — results are identical either way, and
    identical to the sequential build: each shard's arrays, statistics
    and epoch match what ``add_all`` over the same group produces.
    """
    if builders < 1:
        raise ValueError("builders must be at least 1")
    if executor not in EXECUTORS:
        raise ValueError(
            f"executor must be one of {EXECUTORS}, got {executor!r}"
        )
    if builders == 1 or len(groups) <= 1:
        indexes = []
        for pages in groups:
            index = InvertedIndex(title_boost)
            index.add_all(pages)
            indexes.append(index.freeze())
        return indexes

    shipped = tuple(tuple(pages) for pages in groups)
    width = min(builders, len(groups))
    with fork_inherit(shipped, executor, width) as (pool, forked):
        if forked:
            futures = [
                pool.submit(_build_parts_inherited, shard_id, title_boost)
                for shard_id in range(len(groups))
            ]
        else:
            futures = [
                pool.submit(_build_parts, pages, title_boost)
                for pages in groups
            ]
        # Collection in submission order keeps shard order (and
        # therefore everything downstream) deterministic.
        parts = [future.result() for future in futures]

    return [
        InvertedIndex.from_frozen_parts(
            pages,
            shard_parts.arrays,
            shard_parts.doc_lengths,
            shard_parts.total_length,
            title_boost=title_boost,
        )
        for pages, shard_parts in zip(groups, parts)
    ]


# ----------------------------------------------------------------------
# The routed view


class ShardedIndex:
    """A routed read view over N shard indexes.

    Serves what the engine and the retriever read of an index: pages
    and adds routed by :func:`shard_of`, the merged doc-length table
    the static-blend table enumerates, the document count, and the
    :class:`GlobalStats` every shard scorer is built against.  It
    serves no postings: every BM25 score comes from a shard's own
    scorer, through :meth:`ShardedSearchEngine.score_terms`.

    :attr:`epoch` is the **composite epoch**: the sum of the shard
    epochs.  Each ``add`` bumps exactly one shard's counter by one, so
    the sum is a monotone global mutation counter and every
    ``(..., epoch)``-keyed cache and table stays coherent.
    """

    def __init__(self, shards: Sequence[InvertedIndex]) -> None:
        if not shards:
            raise ValueError("at least one shard is required")
        self._shard_indexes = tuple(shards)
        #: ``(epoch, GlobalStats)`` — re-exchanged when a shard grows.
        self._stats_table: tuple[int, GlobalStats] | None = None
        #: ``(epoch, (dense, lengths))`` — merged doc-length table.
        self._lengths_table: tuple[
            int, tuple[bool, Sequence[int] | Mapping[int, int]]
        ] | None = None

    @property
    def shards(self) -> tuple[InvertedIndex, ...]:
        """The per-shard indexes (read-only use)."""
        return self._shard_indexes

    def shard_for(self, doc_id: int) -> InvertedIndex:
        """The shard index owning ``doc_id``."""
        return self._shard_indexes[shard_of(doc_id, len(self._shard_indexes))]

    def global_stats(self) -> GlobalStats:
        """The merged statistics for the current composite epoch.

        Runs the two-phase exchange on first use and after any shard
        mutation (the epoch tag invalidates the previous merge).
        """
        epoch = self.epoch
        tagged = self._stats_table
        if tagged is not None and tagged[0] == epoch:
            return tagged[1]
        stats = exchange_global_stats(self._shard_indexes)
        self._stats_table = (epoch, stats)
        return stats

    @property
    def epoch(self) -> int:
        """Composite epoch: the sum of the shard epochs (monotone)."""
        return sum(index.epoch for index in self._shard_indexes)

    def add(self, page: Page) -> None:
        """Route the page to its shard (bumps the composite epoch)."""
        self.shard_for(page.doc_id).add(page)

    def freeze(self) -> "ShardedIndex":
        """Freeze every shard and run the stats exchange (idempotent)."""
        for index in self._shard_indexes:
            index.freeze()
        self.global_stats()
        return self

    def doc_length_table(
        self,
    ) -> tuple[bool, Sequence[int] | Mapping[int, int]]:
        """``(dense, table)`` over every shard's documents, like
        :meth:`InvertedIndex.doc_length_table` of the single index."""
        epoch = self.epoch
        tagged = self._lengths_table
        if tagged is not None and tagged[0] == epoch:
            return tagged[1]
        lengths: dict[int, int] = {}
        for index in self._shard_indexes:
            dense, table = index.doc_length_table()
            if dense:
                lengths.update(enumerate(table))
            else:
                lengths.update(table)
        count = len(lengths)
        dense = count > 0 and min(lengths) == 0 and max(lengths) == count - 1
        merged: tuple[bool, Sequence[int] | Mapping[int, int]]
        if dense:
            flat = [0] * count
            for doc_id, length in lengths.items():
                flat[doc_id] = length
            merged = (True, flat)
        else:
            merged = (False, lengths)
        self._lengths_table = (epoch, merged)
        return merged

    def page(self, doc_id: int) -> Page:
        return self.shard_for(doc_id).page(doc_id)

    @property
    def doc_count(self) -> int:
        return sum(index.doc_count for index in self._shard_indexes)


# ----------------------------------------------------------------------
# The sharded engine


class ShardedSearchEngine(SearchEngine):
    """Organic search and retrieval scoring over a partitioned corpus.

    A drop-in :class:`SearchEngine`: the public query API, the ranker,
    the caches and the authority model are all inherited.  What changes
    is underneath — :meth:`_build_index` partitions the corpus and
    builds per-shard indexes (in parallel when ``builders > 1``) behind
    a :class:`ShardedIndex`, and :meth:`score_terms` scatters scoring
    across per-shard scorers built against the broadcast
    :class:`GlobalStats` and returns the union of their scores.  There
    is no scorer over the routed view, so the single-index oracles
    (:meth:`~SearchEngine.search_reference`) do not apply here; compare
    against a plain :class:`SearchEngine` over the same corpus.
    """

    def __init__(
        self,
        corpus: Corpus,
        registry: DomainRegistry,
        weights: SeoWeights | None = None,
        max_per_domain: int = 2,
        *,
        shards: int = 4,
        builders: int = 1,
        build_executor: str = "process",
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if builders < 1:
            raise ValueError("builders must be at least 1")
        if build_executor not in EXECUTORS:
            raise ValueError(
                f"build_executor must be one of {EXECUTORS}, "
                f"got {build_executor!r}"
            )
        self._shard_count = shards
        self._builders = builders
        self._build_executor = build_executor
        #: ``(epoch, scorers)`` — per-shard scorers bound to the stats
        #: broadcast at that epoch; rebuilt by re-exchange when a shard
        #: grows, exactly like the scorer's norm table.
        self._shard_scorer_table: tuple[int, tuple[BM25Scorer, ...]] | None = None
        super().__init__(corpus, registry, weights, max_per_domain)

    @property
    def shard_count(self) -> int:
        return self._shard_count

    def _build_index(self, corpus: Corpus) -> ShardedIndex:
        groups = partition_pages(corpus.pages, self._shard_count)
        shard_indexes = build_shard_indexes(
            groups,
            builders=self._builders,
            executor=self._build_executor,
        )
        return ShardedIndex(shard_indexes)

    def _warm(self) -> None:
        # Freezing runs the stats exchange; the broadcast warms one
        # scorer per shard.  No scorer is built over the routed view.
        self._index.freeze()
        self._shard_scorers()
        if self._corpus.pages:
            self._statics()

    def _shard_scorers(self) -> tuple[BM25Scorer, ...]:
        """Per-shard scorers bound to the current global stats.

        The broadcast half of the two-phase exchange: every scorer
        reads idf/avgdl from the merged :class:`GlobalStats`, norms
        from its own shard's lengths.  Epoch-tagged so a shard mutation
        triggers a re-exchange and a fresh broadcast.
        """
        index = self._index
        assert isinstance(index, ShardedIndex)
        epoch = index.epoch
        tagged = self._shard_scorer_table
        if tagged is not None and tagged[0] == epoch:
            return tagged[1]
        stats = index.global_stats()
        scorers = tuple(
            BM25Scorer(shard, stats=stats).warm() for shard in index.shards
        )
        self._shard_scorer_table = (epoch, scorers)
        return scorers

    def score_terms(self, terms: Sequence[str]) -> dict[int, float]:
        """Scatter scoring across shards; the union of their scores.

        Each document lives in exactly one shard, whose scorer reads
        the broadcast global statistics, so every float in the union is
        the single index's float for that document.

        With a resilience context, each shard's scoring runs behind the
        ``search.shard`` fault site — injection keyed ``(shard id,
        query text)``, the retry ladder, a per-shard circuit breaker —
        and a shard exhausted anyway contributes nothing instead of
        raising.  The union then covers the survivors only, like a
        corpus that never had the lost shards' documents, and callers
        renormalize over it.  Lost shards are recorded as a
        :class:`ShardCoverage` (plus a ``degraded`` quarantine record
        for report annotations); that record keeps the partial result
        out of every memo above the scatter (see
        :meth:`repro.caching.BoundedCache.get_or_compute`).
        Recoverable faults recover *inside* the ladder and reach neither
        the log nor the union, so recoverable chaos runs stay
        byte-identical to clean ones.
        """
        scorers = self._shard_scorers()
        scores: dict[int, float] = {}
        ctx = self._resilience
        if ctx is None:
            for scorer in scorers:
                scores.update(scorer.score_terms(terms))
            return scores
        query = " ".join(terms)
        missing: list[int] = []
        reasons: list[str] = []
        attempts = 0
        for shard_id, scorer in enumerate(scorers):
            try:
                scores.update(
                    ctx.call(
                        "search.shard",
                        (shard_id, query),
                        lambda scorer=scorer: scorer.score_terms(terms),
                        engine=f"search.shard:{shard_id}",
                    )
                )
            except ResilienceExhausted as exc:
                missing.append(shard_id)
                reasons.append(exc.reason)
                attempts = max(attempts, exc.attempts)
        if not missing:
            return scores
        coverage = ShardCoverage(
            phase=ctx.current_phase,
            query=query,
            total_shards=len(scorers),
            missing=tuple(missing),
            reasons=tuple(reasons),
        )
        ctx.coverage.record(coverage)
        ctx.events.bump("shard_scatter_losses", len(missing))
        ctx.quarantine.record(
            QuarantineRecord(
                phase=coverage.phase,
                site="search.shard",
                engine="search",
                key=query,
                attempts=attempts,
                reason="; ".join(
                    f"shard {shard_id}: {reason}"
                    for shard_id, reason in zip(missing, reasons)
                ),
                kind="degraded",
            )
        )
        return scores
