# Convenience targets for the reproduction.

.PHONY: install test chaos lint lint-baseline lockwitness cachewitness bench bench-paper serve serve-smoke study study-digests calibrate stability examples clean

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

# Every fault site, each failing a selected key twice: below the retry
# policy's max_attempts=3, so every fault recovers (CI's chaos job uses
# the same plan).
RECOVERABLE_PLAN = engine.answer:0.3:2:error,retrieval.select_sources:0.3:2:timeout,evidence.context:0.3:2:crash,runner.chunk:0.3:2:crash

# The fault-injection suite, sequentially and through the pool, then the
# seed-7 study and the serving gate under the recoverable plan: output
# must be byte-identical when every injected fault is retry-recoverable.
# The clean reference is the sequential loop, so the workers=4 run
# compares the process pool under faults against it.
chaos:
	REPRO_WORKERS=1 pytest tests/resilience/ -q
	REPRO_WORKERS=4 pytest tests/resilience/ -q
	REPRO_WORKERS=1 python -m repro run --seed 7 --json results/chaos/clean.json > /dev/null
	REPRO_WORKERS=1 python -m repro run --seed 7 --json results/chaos/w1.json --chaos "$(RECOVERABLE_PLAN)" --chaos-seed 5 > /dev/null
	cmp results/chaos/clean.json results/chaos/w1.json
	REPRO_WORKERS=4 python -m repro run --seed 7 --json results/chaos/w4.json --chaos "$(RECOVERABLE_PLAN)" --chaos-seed 5 > /dev/null
	cmp results/chaos/clean.json results/chaos/w4.json
	REPRO_CHAOS="$(RECOVERABLE_PLAN)" REPRO_CHAOS_SEED=5 python tools/serve_smoke.py

# All four rule families (determinism, concurrency, locks, caches) over
# one parse of src/repro, against .lint-baseline.json.
lint:
	python -m repro lint

lint-baseline:
	python -m repro lint --update-baseline

# The serving/resilience suites with the runtime lock-order witness
# armed: every witnessed acquisition is checked against the canonical
# hierarchy, so an ordering bug raises instead of hanging a worker.
lockwitness:
	REPRO_LOCK_WITNESS=1 REPRO_WORKERS=4 pytest tests/serve/ tests/resilience/ -q

# The serving/search/engine/study/resilience suites with the runtime
# cache-staleness witness armed: every BoundedCache fingerprints values
# at insert and checks an epoch stamp on every hit, so a stale read
# raises instead of silently skewing results.
cachewitness:
	REPRO_CACHE_WITNESS=1 REPRO_WORKERS=4 pytest tests/serve/ tests/search/ tests/engines/ tests/core/ tests/resilience/ -q

bench:
	pytest benchmarks/ --benchmark-only --benchmark-disable-gc

bench-paper:
	REPRO_BENCH_SCALE=paper pytest benchmarks/ --benchmark-only --benchmark-disable-gc

# A demo drain of the serving tier: zipfian stream, coalescing stats,
# and the width-independent answer digest on stdout.
serve:
	python -m repro serve --requests 512 --qps 64 --burstiness 4 --workers 4

# The serving gate CI runs: exact determinism checks plus ratio-gated
# timings against the baselines in BENCH_serving.json.
serve-smoke:
	python tools/serve_smoke.py

study:
	python tools/run_full_study.py results/full

# The seven study artifacts at seeds 7 and 11 against the digests pinned
# in perfbench/digests.json, then one cold and one hot serve drain per
# seed: one rep each, exit 1 on any mismatch or broken serve invariant.
# The study pins hold under Python 3.10 and 3.11 (3.12 moves five of
# them); the serve pins hold on 3.12 too.
study-digests:
	python perfbench/run.py --workload study --seed 7 --seconds 1 --trace 0
	python perfbench/run.py --workload study --seed 11 --seconds 1 --trace 0
	python perfbench/run.py --workload serve_cold --seed 7 --seconds 1 --trace 0
	python perfbench/run.py --workload serve_cold --seed 11 --seconds 1 --trace 0
	python perfbench/run.py --workload serve_hot --seed 7 --seconds 1 --trace 0
	python perfbench/run.py --workload serve_hot --seed 11 --seconds 1 --trace 0

calibrate:
	python tools/calibrate.py

stability:
	python tools/seed_stability.py 5

examples:
	python examples/quickstart.py
	python examples/pretraining_bias_probe.py
	python examples/freshness_vertical_study.py
	python examples/aeo_vs_seo_audit.py
	python examples/replication_study.py 2

clean:
	rm -rf .pytest_cache .hypothesis benchmarks/results results
	find . -name __pycache__ -type d -exec rm -rf {} +
