"""Serving smoke gate: determinism exactly, performance by ratio.

Drains one deterministic load-generator stream through the serving tier
at two worker widths and checks two kinds of baseline recorded in the
``smoke`` section of ``BENCH_serving.json``:

* **Exact gates** — the answer digest and the duplicate-absorption rate
  are deterministic, so the live values must equal the recorded ones
  bit-for-bit, at every width.  The miss invariant (misses == distinct
  ``(engine, cache_key)`` pairs) is self-contained and checked without
  any baseline.
* **Ratio gates** — wall-clock numbers are hardware-dependent, so the
  gate compares *quotients* measured on the same box, the same idiom as
  ``tools/perf_smoke.py``:

  - ``warm_overhead``: warm (all-hits) drain time / the time the same
    number of no-op tasks take through a bare thread pool of the same
    width, timed back to back in this process; the median over rounds.
    The loop answers every hit at admission, on the submitting thread,
    so a warm drain hands nothing to the pool and reads well below 1x;
    the reference is what one thread handoff per request would cost
    on this machine.  A regression in the hit path or the loop's
    per-request overhead raises the quotient (a hit routed through the
    pool again reads about 2x), and a faster or slower miss path
    cannot move it.  The best cold drain time is printed alongside,
    ungated.
  - ``tail_ratio``: service-latency p99 / p50 of a warm drain, where
    every request's service time is its admission-time memo peek.  A
    generous ceiling — the point is to catch a hit path that sometimes
    stalls, e.g. a peek that waits on a lock a computation holds.

Chaos leg: with ``REPRO_CHAOS`` set (see ``repro.core.config.
default_chaos_plan``), the stream is served with that fault plan
installed — ``make chaos`` runs this gate under a *recoverable* plan
over the ``engine.answer``, ``retrieval.select_sources``,
``evidence.context`` and ``runner.chunk`` sites, and every exact gate
must still pass: recoverable faults recover inside the retry ladder, so
the digest and the absorption rate are byte-identical to the clean run.
(Unrecoverable plans are for the pytest suites; here they would —
correctly — fail the digest gate.)

Usage:
    python tools/serve_smoke.py            # gate against recorded baselines
    python tools/serve_smoke.py --update   # re-record after a deliberate
                                           # serving or engine change
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor

REPO_ROOT = pathlib.Path(__file__).parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.config import StudyConfig, WorkloadSizes
from repro.core.world import World
from repro.serve import LoadProfile, answers_digest, generate_requests

BENCH_JSON = REPO_ROOT / "BENCH_serving.json"

#: Worker widths the gate exercises; the digest must agree across them.
WIDTHS = (1, 4)

#: A live warm_overhead above the recorded one / ``SPEEDUP_TOLERANCE``
#: fails the gate, i.e. the warm drain may not get twice as slow
#: against the handoff reference (generous: thread scheduling is
#: noisier than the search microbenchmarks perf_smoke gates).
SPEEDUP_TOLERANCE = 0.5

#: A live tail_ratio above ``TAIL_TOLERANCE`` x the recorded one fails.
TAIL_TOLERANCE = 6.0

#: Timing rounds: the cold drain reports its best, the warm gate the
#: median of its per-round quotients; both suppress scheduler noise.
REPEATS = 5

#: Small-but-valid workload: the smoke gate asserts serving semantics,
#: not the paper's shape claims, so the world stays minutes-free.
SMOKE_SIZES = WorkloadSizes(
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

PROFILE = LoadProfile(
    requests=400, qps=200.0, burstiness=4.0, zipf_s=1.1, pool_size=48, seed=17
)


def _cold(world: World) -> None:
    for engine in world.engines.values():
        engine.clear_cache()
    world.evidence_cache.clear()


def _times(*fns) -> list[list[float]]:
    """``REPEATS`` rounds, each timing every one of ``fns`` in turn.

    Returns one list of times per function.  Timing a quotient's two
    halves back to back puts both under the same passing load, so a
    slow patch on a shared machine moves that round's quotient little.
    """
    times: list[list[float]] = [[] for _ in fns]
    for _ in range(REPEATS):
        for fn, fn_times in zip(fns, times):
            start = time.perf_counter()
            fn()
            fn_times.append(time.perf_counter() - start)
    return times


def _handoff(width: int, tasks: int) -> None:
    """``tasks`` no-op tasks through a bare pool of ``width`` threads."""
    with ThreadPoolExecutor(max_workers=width) as pool:
        for future in [pool.submit(lambda: None) for _ in range(tasks)]:
            future.result()


def _install_chaos(world: World) -> None:
    """Wire the ``REPRO_CHAOS`` plan into the world, when one is set."""
    from repro.core.config import default_chaos_plan
    from repro.resilience import (
        FaultPlan,
        ResilienceConfig,
        ResilienceContext,
    )

    text, seed = default_chaos_plan()
    if not text:
        return
    plan = FaultPlan.parse(text, seed=seed)
    world.install_resilience(ResilienceContext(ResilienceConfig(plan=plan)))
    print(f"chaos plan installed: {text!r} (seed {seed})")


def measure() -> dict:
    """Serve the smoke stream at every width; return live observations."""
    world = World.build(
        StudyConfig(seed=13, corpus_scale=0.35, sizes=SMOKE_SIZES)
    )
    _install_chaos(world)
    requests = generate_requests(world.catalog, PROFILE)
    distinct = len({(r.engine, r.query.cache_key) for r in requests})

    live: dict = {"widths": {}, "errors": []}
    digests = {}
    for width in WIDTHS:
        _cold(world)
        loop = world.serve_loop(workers=width)
        results = loop.serve(requests)
        snapshot = loop.stats.snapshot()
        digests[width] = answers_digest(results)
        if snapshot.outcomes["miss"] != distinct:
            live["errors"].append(
                f"width {width}: {snapshot.outcomes['miss']} misses != "
                f"{distinct} distinct (engine, cache_key) pairs"
            )
        live["widths"][width] = {
            "digest": digests[width],
            "duplicate_absorption": round(snapshot.duplicate_absorption, 4),
            "p50_ms": snapshot.service.p50_ms,
            "p99_ms": snapshot.service.p99_ms,
        }
    if len(set(digests.values())) != 1:
        live["errors"].append(
            "answer digest varies with worker width: "
            + ", ".join(f"w{w}={d[:12]}" for w, d in sorted(digests.items()))
        )

    # Timed at the widest width: warm (pure memo hits) against the bare
    # handoff reference, both on the same machine, so the quotient
    # travels; cold (computes + coalesces) for the record.
    width = WIDTHS[-1]

    def cold_drain():
        _cold(world)
        world.serve_loop(workers=width).serve(requests)

    def warm_drain():
        world.serve_loop(workers=width).serve(requests)

    (cold_times,) = _times(cold_drain)
    warm_drain()  # ensure fully warm before timing
    warm_times, handoff_times = _times(
        warm_drain, lambda: _handoff(width, len(requests))
    )

    timed = world.serve_loop(workers=width)
    timed.serve(requests)  # warm: stable latency sample for the tail
    snapshot = timed.stats.snapshot()
    p50 = snapshot.service.p50_ms or 1e-6

    live["answers_digest"] = digests[WIDTHS[0]]
    live["duplicate_absorption"] = live["widths"][WIDTHS[0]][
        "duplicate_absorption"
    ]
    live["cold_s"] = min(cold_times)
    live["warm_s"] = statistics.median(warm_times)
    live["handoff_s"] = statistics.median(handoff_times)
    live["warm_overhead"] = statistics.median(
        warm / handoff for warm, handoff in zip(warm_times, handoff_times)
    )
    live["tail_ratio"] = snapshot.service.p99_ms / p50
    return live


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--update",
        action="store_true",
        help="record the measured baselines into BENCH_serving.json",
    )
    args = parser.parse_args(argv)

    payload = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.exists() else {}
    live = measure()

    failures = list(live["errors"])

    if args.update:
        payload["smoke"] = {
            "answers_digest": live["answers_digest"],
            "duplicate_absorption": live["duplicate_absorption"],
            "warm_overhead": round(live["warm_overhead"], 2),
            "tail_ratio": round(live["tail_ratio"], 2),
            "widths": list(WIDTHS),
            "profile": {
                "requests": PROFILE.requests,
                "qps": PROFILE.qps,
                "burstiness": PROFILE.burstiness,
                "zipf_s": PROFILE.zipf_s,
                "pool_size": PROFILE.pool_size,
                "seed": PROFILE.seed,
            },
        }
        BENCH_JSON.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"recorded answers_digest: {live['answers_digest'][:16]}…")
        print(
            f"recorded duplicate_absorption: {live['duplicate_absorption']}"
        )
        print(
            f"recorded warm_overhead: {live['warm_overhead']:.2f}x "
            f"(median warm {live['warm_s']:.4f}s, handoff "
            f"{live['handoff_s']:.4f}s; best cold drain {live['cold_s']:.4f}s)"
        )
        print(f"recorded tail_ratio: {live['tail_ratio']:.2f}x")
        if failures:
            print("serve smoke FAILED (recorded anyway):")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        return 0

    recorded = payload.get("smoke")
    if not recorded:
        print("no smoke section in BENCH_serving.json; run with --update first")
        return 2

    # Exact gates: deterministic values must match bit-for-bit.
    if live["answers_digest"] != recorded["answers_digest"]:
        failures.append(
            f"answers_digest changed: {live['answers_digest'][:16]}… live vs "
            f"{recorded['answers_digest'][:16]}… recorded (if the engines "
            "changed deliberately, re-record with --update)"
        )
    else:
        print(f"answers_digest: {live['answers_digest'][:16]}… ok (exact)")
    if live["duplicate_absorption"] != recorded["duplicate_absorption"]:
        failures.append(
            f"duplicate_absorption: {live['duplicate_absorption']} live != "
            f"{recorded['duplicate_absorption']} recorded (deterministic)"
        )
    else:
        print(
            f"duplicate_absorption: {live['duplicate_absorption']} ok (exact)"
        )

    # Ratio gates: quotients measured on this box vs recorded quotients.
    overhead_ceiling = recorded["warm_overhead"] / SPEEDUP_TOLERANCE
    verdict = "ok" if live["warm_overhead"] <= overhead_ceiling else "REGRESSED"
    print(
        f"warm_overhead: {live['warm_overhead']:.2f}x live "
        f"(median warm {live['warm_s']:.4f}s, handoff "
        f"{live['handoff_s']:.4f}s) vs "
        f"{recorded['warm_overhead']:.2f}x recorded "
        f"(ceiling {overhead_ceiling:.2f}x) {verdict}"
    )
    print(f"best cold drain: {live['cold_s']:.4f}s (not gated)")
    if live["warm_overhead"] > overhead_ceiling:
        failures.append(
            f"warm_overhead: {live['warm_overhead']:.2f}x > "
            f"{overhead_ceiling:.2f}x"
        )
    tail_ceiling = TAIL_TOLERANCE * recorded["tail_ratio"]
    verdict = "ok" if live["tail_ratio"] <= tail_ceiling else "REGRESSED"
    print(
        f"tail_ratio (p99/p50): {live['tail_ratio']:.2f}x live vs "
        f"{recorded['tail_ratio']:.2f}x recorded "
        f"(ceiling {tail_ceiling:.2f}x) {verdict}"
    )
    if live["tail_ratio"] > tail_ceiling:
        failures.append(
            f"tail_ratio: {live['tail_ratio']:.2f}x > {tail_ceiling:.2f}x"
        )

    if failures:
        print("serve smoke FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"serve smoke passed (widths {', '.join(map(str, WIDTHS))})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
