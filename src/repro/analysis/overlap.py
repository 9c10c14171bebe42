"""Domain-overlap analysis (Figures 1 and 2).

For each query, every system's citations are normalized to registrable
domains; each AI system's set is compared to the baseline's (Google's
top-10 domains) with Jaccard overlap, and the per-query values are
averaged.  The report also carries the secondary statistics Section 2.1
discusses: cross-model overlap (agreement among the AI engines
themselves) and the unique-domain ratio (ecosystem fragmentation).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.engines.base import Answer
from repro.entities.queries import Query
from repro.stats.jaccard import jaccard, mean_pairwise_jaccard, unique_ratio

__all__ = [
    "OverlapReport",
    "domain_overlap",
    "domain_overlap_by_vertical",
    "system_pair_overlap",
]


@dataclass(frozen=True)
class OverlapReport:
    """Overlap statistics for one workload."""

    baseline: str
    systems: tuple[str, ...]
    mean_overlap: dict[str, float]
    per_query_overlap: dict[str, list[float]]
    cross_model_overlap: float
    unique_domain_ratio: float
    query_count: int

    def ordered_by_overlap(self) -> list[tuple[str, float]]:
        """(system, mean overlap) pairs, lowest overlap first."""
        return sorted(self.mean_overlap.items(), key=lambda kv: kv[1])


def domain_overlap(
    answers_by_system: Mapping[str, Sequence[Answer]],
    baseline: str = "Google",
) -> OverlapReport:
    """Compute the Figure 1/2 overlap statistics.

    ``answers_by_system`` maps system name to its answers, aligned by
    query position across systems (answer *i* of every system responds to
    the same query).  The baseline system is excluded from the per-system
    overlap map but participates in nothing else.
    """
    if baseline not in answers_by_system:
        raise ValueError(f"baseline {baseline!r} missing from answers")
    lengths = {name: len(answers) for name, answers in answers_by_system.items()}
    if len(set(lengths.values())) != 1:
        raise ValueError(f"misaligned workloads: {lengths}")
    query_count = lengths[baseline]
    if query_count == 0:
        raise ValueError("empty workload")

    ai_systems = tuple(n for n in answers_by_system if n != baseline)
    # Each answer's citations are normalized once, then shared by the
    # baseline Jaccard and the cross-model statistics below.
    domain_sets = {
        name: [answer.cited_domains() for answer in answers]
        for name, answers in answers_by_system.items()
    }
    baseline_domains = domain_sets[baseline]

    per_query: dict[str, list[float]] = {
        name: [
            jaccard(domains, base)
            for domains, base in zip(domain_sets[name], baseline_domains)
        ]
        for name in ai_systems
    }

    mean_overlap = {
        name: sum(values) / len(values) for name, values in per_query.items()
    }

    # Cross-model overlap and unique-domain ratio are computed per query
    # over the AI systems' domain sets, then averaged.
    cross_values = []
    unique_values = []
    for index in range(query_count):
        sets = [domain_sets[name][index] for name in ai_systems]
        cross_values.append(mean_pairwise_jaccard(sets))
        unique_values.append(unique_ratio(sets))

    return OverlapReport(
        baseline=baseline,
        systems=ai_systems,
        mean_overlap=mean_overlap,
        per_query_overlap=per_query,
        cross_model_overlap=sum(cross_values) / query_count,
        unique_domain_ratio=sum(unique_values) / query_count,
        query_count=query_count,
    )


def domain_overlap_by_vertical(
    answers_by_system: Mapping[str, Sequence[Answer]],
    queries: Sequence[Query],
    baseline: str = "Google",
) -> dict[str, OverlapReport]:
    """Figure 1 broken down per vertical.

    The paper reports one aggregate over ten consumer topics; per-topic
    reports reveal whether the divergence is uniform or driven by a few
    verticals.  ``queries`` must align positionally with every system's
    answers.
    """
    for name, answers in answers_by_system.items():
        if len(answers) != len(queries):
            raise ValueError(
                f"system {name!r} has {len(answers)} answers for "
                f"{len(queries)} queries"
            )
    by_vertical: dict[str, list[int]] = {}
    for index, query in enumerate(queries):
        by_vertical.setdefault(query.vertical, []).append(index)
    reports = {}
    for vertical, indexes in by_vertical.items():
        subset = {
            name: [answers[i] for i in indexes]
            for name, answers in answers_by_system.items()
        }
        reports[vertical] = domain_overlap(subset, baseline=baseline)
    return reports


def system_pair_overlap(
    answers_by_system: Mapping[str, Sequence[Answer]],
) -> dict[tuple[str, str], float]:
    """Full cross-system overlap matrix (Figure 1's "cross-system" view).

    Returns mean per-query Jaccard for every unordered system pair, keyed
    by the pair in the mapping's iteration order.  Workloads must align
    positionally, as in :func:`domain_overlap`.
    """
    systems = list(answers_by_system)
    lengths = {len(answers) for answers in answers_by_system.values()}
    if len(lengths) != 1:
        raise ValueError("misaligned workloads across systems")
    (query_count,) = lengths
    if query_count == 0:
        raise ValueError("empty workload")

    domain_sets = {
        name: [answer.cited_domains() for answer in answers]
        for name, answers in answers_by_system.items()
    }
    matrix: dict[tuple[str, str], float] = {}
    for i, first in enumerate(systems):
        for second in systems[i + 1:]:
            total = sum(
                jaccard(a, b)
                for a, b in zip(domain_sets[first], domain_sets[second])
            )
            matrix[(first, second)] = total / query_count
    return matrix
