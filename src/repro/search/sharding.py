"""Document-partitioned sharded search with score-identical merge.

Scale-out for the organic substrate: the corpus is partitioned across N
per-shard :class:`~repro.search.index.InvertedIndex` /
:class:`~repro.search.bm25.BM25Scorer` pairs, and queries scatter to
every shard and gather through an exact top-k merge.  The contract is
**float-exactness**: for any shard count, :class:`ShardedSearchEngine`
returns byte-identical results to the single-shard
:class:`~repro.search.engine.SearchEngine` (and therefore to
``search_reference``).  Three mechanisms carry that contract:

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

* **Scatter-gather top-k with exact merge.** Each shard runs the
  term-at-a-time bounded-heap fast path with the same ``k x
  max_per_domain`` headroom; because ``heapq.nsmallest(m, items)``
  equals ``sorted(items)[:m]`` and every global top-m item is a top-m
  item of its own shard, sorting the concatenated per-shard prefixes
  and truncating to the headroom reproduces the single-shard selection
  exactly.  Domain crowding is re-applied over that merged prefix; if
  crowding exhausts it, the merge falls back to the fully sorted union
  of *all* scored documents — the same fallback the single-shard path
  takes.  The whole fast path stays gated by the exact-``SeoWeights``
  check, so blend subclasses route to the uncached reference oracles.

Shard index builds parallelize over a ``fork`` process pool through the
study runner's handshake, :func:`repro.forkpool.fork_inherit`: forked
builders inherit the page groups copy-on-write and only compact frozen
arrays (tuples of ints) come back over the pipe — never ``Posting`` or
``Page`` objects.  The parent reconstitutes each shard against its
*own* page objects (:meth:`InvertedIndex.from_frozen_parts`),
preserving page identity for every downstream consumer.  Where ``fork``
is unavailable the build degrades to threads with a warning, exactly
like the study runner.

Cache coherence: the facade :class:`ShardedIndex` exposes a
**composite epoch** — the sum of the shard epochs, a monotone mutation
counter — so the engine's inherited query cache and every epoch-tagged
table stay correct without knowing about shards.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.forkpool import EXECUTORS, fork_inherit, inherited
from repro.resilience.coverage import ShardCoverage
from repro.resilience.faults import ResilienceExhausted
from repro.resilience.quarantine import QuarantineRecord
from repro.search.bm25 import BM25Scorer
from repro.search.engine import SearchEngine, SearchResult
from repro.search.index import InvertedIndex, Posting
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

_EMPTY_ARRAYS: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())


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
    corpus generator is ascending ``doc_id`` — the property the merged
    postings rely on.
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
    arrays = index.freeze()._snapshot().arrays
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
    """A worker-built shard's picklable core (no pages, no postings)."""

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
# The facade index


class ShardedIndex(InvertedIndex):
    """A read view over N shard indexes with global statistics.

    Presents the full :class:`InvertedIndex` API — statistics from the
    merged :class:`GlobalStats`, per-document accessors routed by
    :func:`shard_of`, postings lazily merged by ascending ``doc_id`` —
    so epoch-agnostic consumers (the retriever, the reference scorer)
    work over a sharded corpus unchanged and produce the exact
    single-index floats.

    :attr:`epoch` is the **composite epoch**: the sum of the shard
    epochs.  Each ``add`` bumps exactly one shard's counter by one, so
    the sum is a monotone global mutation counter and every
    ``(..., epoch)``-keyed cache stays coherent.  The merged views held
    here are epoch-tagged the same way the scorer's norm table is, so
    they can never serve a stale merge.
    """

    def __init__(
        self, shards: Sequence[InvertedIndex], title_boost: int = 3
    ) -> None:
        if not shards:
            raise ValueError("at least one shard is required")
        super().__init__(title_boost)
        self._shard_indexes = tuple(shards)
        #: ``(epoch, GlobalStats)`` — re-exchanged when a shard grows.
        self._stats_table: tuple[int, GlobalStats] | None = None
        #: ``(epoch, {term: merged arrays})`` — per-term merge memo,
        #: dropped wholesale when the composite epoch moves.
        self._merged_table: tuple[
            int, dict[str, tuple[tuple[int, ...], tuple[int, ...]]]
        ] | None = None
        #: ``(epoch, (dense, lengths))`` — merged doc-length table.
        self._lengths_table: tuple[
            int, tuple[bool, Sequence[int] | Mapping[int, int]]
        ] | None = None
        #: ``(epoch, {term: posting views})`` — merged Posting tuples,
        #: epoch-tagged like :attr:`_merged_table` (the inherited
        #: ``_views`` memo is reset by the single index's own ``add``;
        #: the facade's ``add`` routes to a shard instead, so its memos
        #: must carry the composite epoch themselves).
        self._views_table: tuple[
            int, dict[str, tuple[Posting, ...]]
        ] | None = None

    # -- sharding-specific API

    @property
    def shards(self) -> tuple[InvertedIndex, ...]:
        """The per-shard indexes (read-only use)."""
        return self._shard_indexes

    @property
    def shard_count(self) -> int:
        return len(self._shard_indexes)

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

    # -- InvertedIndex API, routed/merged

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

    def postings_arrays(
        self, term: str
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        epoch = self.epoch
        tagged = self._merged_table
        if tagged is None or tagged[0] != epoch:
            tagged = (epoch, {})
            self._merged_table = tagged
        merged = tagged[1].get(term)
        if merged is None:
            pairs: list[tuple[int, int]] = []
            for index in self._shard_indexes:
                doc_ids, tfs = index.postings_arrays(term)
                pairs.extend(zip(doc_ids, tfs))
            if not pairs:
                return _EMPTY_ARRAYS
            # Ascending doc_id == the corpus generator's add order, so
            # the merge equals the single index's build-ordered arrays.
            pairs.sort()
            merged = (
                tuple(doc_id for doc_id, __ in pairs),
                tuple(tf for __, tf in pairs),
            )
            tagged[1][term] = merged
        return merged

    def doc_length_table(
        self,
    ) -> tuple[bool, Sequence[int] | Mapping[int, int]]:
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

    def postings(self, term: str) -> Sequence[Posting]:
        doc_ids, tfs = self.postings_arrays(term)
        if not doc_ids:
            return ()
        epoch = self.epoch
        tagged = self._views_table
        if tagged is None or tagged[0] != epoch:
            tagged = (epoch, {})
            self._views_table = tagged
        view = tagged[1].get(term)
        if view is None:
            view = tuple(
                Posting(doc_id=doc_id, term_frequency=tf)
                for doc_id, tf in zip(doc_ids, tfs)
            )
            tagged[1][term] = view
        return view

    def document_frequency(self, term: str) -> int:
        return self.global_stats().document_frequency(term)

    def doc_length(self, doc_id: int) -> int:
        return self.shard_for(doc_id).doc_length(doc_id)

    def page(self, doc_id: int) -> Page:
        return self.shard_for(doc_id).page(doc_id)

    @property
    def doc_count(self) -> int:
        return sum(index.doc_count for index in self._shard_indexes)

    @property
    def total_length(self) -> int:
        return sum(index.total_length for index in self._shard_indexes)

    @property
    def average_doc_length(self) -> float:
        count = self.doc_count
        if not count:
            return 0.0
        # Integer total over integer count: the exact same division the
        # single index performs, so the float is identical.
        return self.total_length / count

    def vocabulary_size(self) -> int:
        return len(self.global_stats().df)

    def __contains__(self, doc_id: int) -> bool:
        return doc_id in self.shard_for(doc_id)


# ----------------------------------------------------------------------
# The sharded engine


class ShardedSearchEngine(SearchEngine):
    """Organic search over a document-partitioned corpus.

    A drop-in :class:`SearchEngine`: the public query API, the caches,
    the authority model and the reference oracles are all inherited.
    What changes is underneath — :meth:`_build_index` partitions the
    corpus and builds per-shard indexes (in parallel when ``builders >
    1``), and :meth:`_rank_fast` scatters scoring across per-shard
    scorers built against the broadcast :class:`GlobalStats`, then
    gathers through the exact merge described in the module docstring.

    The inherited ``search`` keeps its exact-``SeoWeights`` gate (blend
    subclasses take the uncached reference path over the facade index)
    and its epoch-keyed query cache — the facade's composite epoch
    makes those keys coherent across shard mutations.
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

    def _build_index(self, corpus: Corpus) -> InvertedIndex:
        groups = partition_pages(corpus.pages, self._shard_count)
        shard_indexes = build_shard_indexes(
            groups,
            builders=self._builders,
            executor=self._build_executor,
        )
        return ShardedIndex(shard_indexes)

    def _warm(self) -> None:
        super()._warm()
        if type(self._weights) is SeoWeights and self._corpus.pages:
            self._shard_scorers()

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

    # ------------------------------------------------------------------
    # Resilient scatter

    def _scatter_scores(self, terms: Sequence[str]) -> list:
        """Scatter scoring across shards, fault-tolerantly.

        Without a resilience context this is the direct loop.  With one,
        each shard scatter runs behind the ``search.shard`` fault site
        — deterministic injection keyed ``(shard id, query text)``, the
        retry ladder, a per-shard circuit breaker — and a shard that is
        exhausted anyway contributes ``None`` instead of raising.  Lost
        shards are recorded as a :class:`ShardCoverage` (plus a
        ``degraded``-kind quarantine record, so report annotations pick
        the cell up), and the caller merges the survivors.  Recoverable
        faults recover *inside* the ladder, so they reach neither the
        coverage log nor the merge: the scores list is then exactly the
        direct loop's, which is what keeps recoverable chaos runs
        byte-identical to clean ones.  The coverage record is also what
        keeps a partial page out of every memo above the scatter (see
        :meth:`repro.caching.BoundedCache.get_or_compute`).
        """
        scorers = self._shard_scorers()
        ctx = self._resilience
        if ctx is None:
            return [scorer.score_terms(terms) for scorer in scorers]
        query = " ".join(terms)
        shard_scores: list = []
        missing: list[int] = []
        reasons: list[str] = []
        attempts = 0
        for shard_id, scorer in enumerate(scorers):
            try:
                scores = ctx.call(
                    "search.shard",
                    (shard_id, query),
                    lambda scorer=scorer: scorer.score_terms(terms),
                    engine=f"search.shard:{shard_id}",
                )
            except ResilienceExhausted as exc:
                shard_scores.append(None)
                missing.append(shard_id)
                reasons.append(exc.reason)
                attempts = max(attempts, exc.attempts)
            else:
                shard_scores.append(scores)
        if not missing:
            return shard_scores
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
        return shard_scores

    def _rank_fast(self, terms: Sequence[str], k: int) -> list[SearchResult]:
        """Scatter-gather top-``k``, float-exact vs the single-shard path.

        Each shard scores its own documents (global stats, local
        postings) and selects its bounded-heap top-``m`` with the same
        ``m = k x max_per_domain`` headroom the single-shard path uses.
        The gathered prefixes are sorted and truncated to ``m`` — by
        the subset argument in the module docstring this equals
        ``sorted(all items)[:m]`` exactly — then domain crowding runs
        over the merged prefix.  If crowding exhausts it while scored
        documents remain un-gathered, the fallback re-sorts the *full*
        union, matching the single-shard fallback order.
        """
        return self._merge_ranked(self._scatter_scores(terms), k)

    def _merge_ranked(
        self, shard_scores: Sequence, k: int
    ) -> list[SearchResult]:
        """The exact gather half of the scatter: merge per-shard scores.

        ``None`` entries (shards lost past the resilience ladder) and
        empty dicts are skipped alike, so the merge over the survivors
        is *by construction* the full merge of a corpus that never had
        the lost shards' documents — float-exact for the shards that
        answered, with ``max_bm25`` renormalized over the survivors
        exactly as a smaller corpus would.  All shards lost means an
        empty page, never an exception.
        """
        if not any(shard_scores):
            return []
        max_bm25 = max(
            max(scores.values()) for scores in shard_scores if scores
        )
        statics = self._statics()
        w_rel = self._weights.relevance
        headroom = k * self._max_per_domain
        pools: list[list[tuple[float, int]]] = []
        gathered: list[tuple[float, int]] = []
        total = 0
        for scores in shard_scores:
            if not scores:
                continue
            total += len(scores)
            if max_bm25:
                items = [
                    (
                        -(
                            (
                                w_rel * (raw / max_bm25)
                                + (s := statics[doc_id])[0]
                                + s[1]
                            )
                            + s[2]
                        ),
                        doc_id,
                    )
                    for doc_id, raw in scores.items()
                ]
            else:
                items = [
                    (
                        -(
                            (w_rel * 0.0 + (s := statics[doc_id])[0] + s[1])
                            + s[2]
                        ),
                        doc_id,
                    )
                    for doc_id, raw in scores.items()
                ]
            pools.append(items)
            if headroom < len(items):
                gathered.extend(heapq.nsmallest(headroom, items))
            else:
                gathered.extend(items)
        gathered.sort()
        top: Sequence[tuple[float, int]] = (
            gathered[:headroom] if headroom < len(gathered) else gathered
        )
        results = self._crowd(top, k)
        if len(results) < k and len(top) < total:
            # Crowding ate the merged headroom: fall back to the full
            # ordering over every scored document, like the single shard.
            full = [item for items in pools for item in items]
            full.sort()
            results = self._crowd(full, k)
        return results
