"""The three workloads, one rep at a time: build, run the timed phase, check.

A rep is everything one fresh process does: set up a world from the
seed, run the timed phase once, and return a record of what it measured
and what it produced.  A set-up-only rep stops before the timed phase.  ``run.py`` runs reps in child processes and
aggregates them; tests call :func:`run_rep` in-process on tiny sizes.

Every world is ``World.build(StudyConfig(seed, ...))`` at corpus scale 1
(tiny: 0.35), one index, ``workers=1`` and no resilience context.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import time

from layers import WORKLOADS, boundaries, layer_metrics, span_counts
from tracing import Tracer

from repro.__main__ import FAST_SIZES
from repro.core import experiments
from repro.core.config import StudyConfig, WorkloadSizes
from repro.core.export import results_to_json
from repro.core.world import World
from repro.serve import LoadProfile, answers_digest, generate_requests
from repro.serve.loop import ServeLoop

__all__ = ["load_profile", "machine", "run_rep", "study_config"]

#: Fast-profile sizes for the real runs; the smallest sizes the
#: validators accept for self-tests.
_TINY_SIZES = WorkloadSizes(
    ranking_queries=20,
    comparison_popular=6,
    comparison_niche=6,
    intent_queries=12,
    freshness_queries_per_vertical=5,
    perturbation_queries=3,
    perturbation_runs=2,
    pairwise_queries=2,
    citation_queries=6,
)

#: ``serve_cold``: a large, flat pool, so most distinct keys arrive cold
#: and the drain is dominated by misses.  ``serve_hot``: a small, skewed
#: pool whose every timed request is a memo hit after the warm-up.
_PROFILES = {
    ("serve_cold", "full"): dict(requests=4000, burstiness=4.0, zipf_s=0.6, pool_size=600),
    ("serve_hot", "full"): dict(requests=30000, zipf_s=1.1, pool_size=48),
    ("serve_cold", "tiny"): dict(requests=120, burstiness=4.0, zipf_s=0.6, pool_size=40),
    ("serve_hot", "tiny"): dict(requests=400, zipf_s=1.1, pool_size=8),
}


def study_config(seed: int, scale: str = "full") -> StudyConfig:
    tiny = scale == "tiny"
    return StudyConfig(
        seed=seed,
        corpus_scale=0.35 if tiny else 1.0,
        sizes=_TINY_SIZES if tiny else FAST_SIZES,
        workers=1,
        search_shards=0,
        resident_shards=False,
    )


def load_profile(workload: str, seed: int, scale: str = "full") -> LoadProfile:
    return LoadProfile(seed=seed, **_PROFILES[workload, scale])


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _study(seed: int, scale: str, tracer: Tracer | None, setup_only: bool) -> dict:
    config = study_config(seed, scale)
    started = time.perf_counter()
    world = World.build(config)
    setup_s = time.perf_counter() - started
    if setup_only:
        return {"setup_s": setup_s, "config": {"study": _plain(config)}}
    if tracer is not None:
        tracer.phase = "run"
    results, latencies, errors = {}, [], {}
    started = time.perf_counter()
    for experiment_id in experiments.EXPERIMENTS:
        op_started = time.perf_counter()
        try:
            results[experiment_id], _ = experiments.run_experiment(experiment_id, world)
        except Exception as exc:  # a raising experiment is one failed op
            errors[experiment_id] = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - op_started)
    run_s = time.perf_counter() - started
    digests = {
        experiment_id: hashlib.sha256(
            results_to_json({experiment_id: result}).encode("utf-8")
        ).hexdigest()
        for experiment_id, result in results.items()
    }
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "ops": len(experiments.EXPERIMENTS),
        "failed": len(errors),
        "errors": errors,
        "latencies_s": latencies,
        "digests": digests,
        "checks": {},
        "config": {"study": _plain(config)},
    }


def _serve(workload: str, seed: int, scale: str, tracer: Tracer | None, setup_only: bool) -> dict:
    config = study_config(seed, scale)
    profile = load_profile(workload, seed, scale)
    started = time.perf_counter()
    world = World.build(config)
    requests = generate_requests(world.catalog, profile)
    first_seen = {}
    for request in requests:
        first_seen.setdefault((request.engine, request.query.cache_key), request)
    if workload == "serve_hot":
        # Untimed and untraced: every timed request is then a memo hit.
        if tracer is not None:
            tracer.enabled = False
        try:
            ServeLoop(world, workers=1).serve(list(first_seen.values()))
        finally:
            if tracer is not None:
                tracer.enabled = True
    setup_s = time.perf_counter() - started
    if setup_only:
        return {"setup_s": setup_s, "config": {"study": _plain(config), "load": _plain(profile)}}
    if tracer is not None:
        tracer.phase = "run"
    loop = ServeLoop(world, workers=1)
    errors = {}
    started = time.perf_counter()
    try:
        results = loop.serve(requests)
    except Exception as exc:  # an aborted drain loses every request
        results = []
        errors["drain"] = f"{type(exc).__name__}: {exc}"
    run_s = time.perf_counter() - started
    outcomes = loop.stats.snapshot().outcomes
    lost = len(requests) - len(results)
    failed = lost + sum(outcomes[name] for name in ("shed", "degraded", "partial"))
    if workload == "serve_cold":
        checks = {"misses_equal_distinct_keys": outcomes["miss"] == len(first_seen)}
    else:
        checks = {"every_request_hits": outcomes["hit"] == len(requests)}
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "ops": len(requests),
        "failed": failed,
        "errors": errors,
        "latencies_s": [r.queue_delay_seconds + r.service_seconds for r in results],
        "digests": {"drain": answers_digest(results)} if not lost else {},
        "checks": checks,
        "outcomes": outcomes,
        "distinct_keys": len(first_seen),
        "config": {"study": _plain(config), "load": _plain(profile)},
    }


def _plain(config) -> dict:
    """A config dataclass as JSON-ready values (dates as ISO strings)."""
    return {
        key: value.isoformat() if hasattr(value, "isoformat") else value
        for key, value in dataclasses.asdict(config).items()
    }


def run_rep(
    workload: str,
    seed: int,
    traced: bool = False,
    scale: str = "full",
    spans_path=None,
    setup_only: bool = False,
) -> dict:
    """One rep of ``workload``; traced reps also report the layer metrics."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    tracer = Tracer().install(boundaries()) if traced else None
    try:
        if workload == "study":
            record = _study(seed, scale, tracer, setup_only)
        else:
            record = _serve(workload, seed, scale, tracer, setup_only)
    finally:
        if tracer is not None:
            tracer.uninstall()
    record.update(
        workload=workload,
        seed=seed,
        traced=traced,
        setup_only=setup_only,
        scale=scale,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        machine=machine(),
    )
    if tracer is not None:
        record["layers"] = layer_metrics(tracer)
        record["spans"] = span_counts(tracer)
        record["missing_layers"] = dict(tracer.missing)
        if spans_path is not None:
            tracer.write(spans_path)
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description="Run one rep and print its record as JSON.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help="stop before the timed phase")
    parser.add_argument("--spans", default=None, help="write the traced rep's spans here")
    args = parser.parse_args()
    # One CPU for the whole rep, so the submitter-to-worker handoff of
    # every serve request never waits for the host to schedule a second
    # CPU.  Interleaved on a 2-vCPU VM, pinned serve_hot drains took
    # 1.45-1.67 s and unpinned ones 1.48-1.81 s.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    record = run_rep(args.workload, args.seed, args.traced, spans_path=args.spans, setup_only=args.setup_only)
    print(json.dumps(record, sort_keys=True))


if __name__ == "__main__":
    main()
