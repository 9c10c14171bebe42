# Convenience targets for the reproduction.

.PHONY: install test chaos sharded lint detlint conclint locklint cachelint lint-baseline conclint-baseline locklint-baseline cachelint-baseline lockwitness cachewitness bench bench-paper serve serve-smoke study study-digests calibrate stability examples clean

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

# The fault-injection suite, sequentially and through the pool: output
# must be byte-identical when every injected fault is retry-recoverable.
chaos:
	REPRO_WORKERS=1 pytest tests/resilience/ -q
	REPRO_WORKERS=4 pytest tests/resilience/ -q

# CI's three `sharded` legs: the search/serve/engine suites, the
# serving gate and the seed-7 study on the document-partitioned
# substrate at 1 shard, at 4, and at 4 under a *recoverable*
# search.shard fault plan.  Faults recover inside the retry ladder, so
# on every leg the pinned serve digest must reproduce and the study
# JSON must equal the single-index run's byte for byte.  (Unrecoverable
# plans are exercised by the partial-merge and chaos-serve suites.)
#
# One leg: $(1) shards, $(2) workers, $(3) the chaos plan (seed 5) or
# nothing.
define sharded_leg
	REPRO_SHARDS=$(1) REPRO_WORKERS=$(2) REPRO_CHAOS="$(3)" REPRO_CHAOS_SEED=5 pytest tests/search/ tests/serve/ tests/engines/ -q
	REPRO_SHARDS=$(1) REPRO_CHAOS="$(3)" REPRO_CHAOS_SEED=5 python tools/serve_smoke.py
	REPRO_SHARDS=$(1) REPRO_WORKERS=$(2) python -m repro run --seed 7 --json results/sharded/leg.json $(if $(3),--chaos "$(3)" --chaos-seed 5) > /dev/null
	cmp results/sharded/single.json results/sharded/leg.json
endef

sharded:
	REPRO_SHARDS=0 python -m repro run --seed 7 --json results/sharded/single.json > /dev/null
	$(call sharded_leg,1,4,)
	$(call sharded_leg,4,4,)
	$(call sharded_leg,4,1,search.shard:0.3:2:error)

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
# in perfbench/digests.json, then one cold serve drain per seed: one rep
# each, exit 1 on any mismatch.  The study pins hold under Python 3.10
# and 3.11 (3.12 moves five of them); the serve_cold pins hold on 3.12 too.
study-digests:
	python perfbench/run.py --workload study --seed 7 --seconds 1 --trace 0
	python perfbench/run.py --workload study --seed 11 --seconds 1 --trace 0
	python perfbench/run.py --workload serve_cold --seed 7 --seconds 1 --trace 0
	python perfbench/run.py --workload serve_cold --seed 11 --seconds 1 --trace 0

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
