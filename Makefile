# Convenience targets for the reproduction.

.PHONY: install test chaos sharded shard-chaos lint detlint conclint locklint cachelint lint-baseline conclint-baseline locklint-baseline cachelint-baseline lockwitness cachewitness bench bench-paper serve serve-smoke study study-digests calibrate stability examples clean

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

# The fault-injection suite, sequentially and through the pool: output
# must be byte-identical when every injected fault is retry-recoverable.
chaos:
	REPRO_WORKERS=1 pytest tests/resilience/ -q
	REPRO_WORKERS=4 pytest tests/resilience/ -q

# The search/serve suites on the document-partitioned substrate plus
# the serving gate: sharded results must be byte-identical to the
# single-index engine at any shard count.
sharded:
	REPRO_SHARDS=1 REPRO_WORKERS=4 pytest tests/search/ tests/serve/ tests/engines/ -q
	REPRO_SHARDS=4 REPRO_WORKERS=4 pytest tests/search/ tests/serve/ tests/engines/ -q
	REPRO_SHARDS=4 python tools/serve_smoke.py

# Deterministic shard chaos: the search/serve/engine suites and the
# serving gate with a *recoverable* search.shard fault plan injected
# into every scatter.  Faults recover inside the retry ladder, so every
# byte-identity assertion — and the pinned serve digest — must still
# hold.  (Unrecoverable plans are exercised by the partial-merge and
# chaos-serve suites themselves.)
shard-chaos:
	REPRO_SHARDS=4 REPRO_CHAOS="search.shard:0.3:2:error" REPRO_CHAOS_SEED=5 pytest tests/search/ tests/serve/ tests/engines/ -q
	REPRO_SHARDS=4 REPRO_CHAOS="search.shard:0.3:2:error" REPRO_CHAOS_SEED=5 python tools/serve_smoke.py

lint: detlint conclint locklint cachelint

detlint:
	python -m repro lint

conclint:
	python -m repro conclint

locklint:
	python -m repro locklint

cachelint:
	python -m repro cachelint

lint-baseline:
	python -m repro lint --update-baseline

conclint-baseline:
	python -m repro conclint --update-baseline

locklint-baseline:
	python -m repro locklint --update-baseline

cachelint-baseline:
	python -m repro cachelint --update-baseline

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
# in perfbench/digests.json: one rep each, exit 1 on any mismatch.  The
# pins hold under Python 3.10 and 3.11; 3.12 moves five of them.
study-digests:
	python perfbench/run.py --workload study --seed 7 --seconds 1 --trace 0
	python perfbench/run.py --workload study --seed 11 --seconds 1 --trace 0

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
