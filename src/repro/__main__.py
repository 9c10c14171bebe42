"""Command-line interface: ``python -m repro``.

Subcommands:

* ``list`` — show the experiment registry (paper artifact, workload).
* ``run [ids...]`` — run experiments and print the paper-style tables;
  ``--workers N`` fans engine workloads over a worker pool (results are
  identical for any N), ``--stats`` prints runner/cache statistics, and
  ``--json PATH`` additionally archives the raw results.
* ``calibration`` — print the calibration index (what each fitted
  parameter is constrained by).
* ``world`` — build a world and print its inventory.
* ``replicate --seeds 1 2 3`` — rerun the headline metrics across seeds
  and report claim stability with bootstrap CIs.
* ``snapshot PATH`` — archive the world's corpus as a JSON-lines file.
* ``serve`` — run the answer-serving loop over a warm world under a
  deterministic zipfian load (see :mod:`repro.serve`); ``--bench-json``
  records latency percentiles and throughput (``BENCH_serving.json``).
* ``lint`` — run the static analyzers over the library source: the
  determinism, concurrency-safety, lock-discipline and cache-coherence
  rule families, over one parse of the tree (see
  :mod:`repro.devtools.lint`).
"""

from __future__ import annotations

import argparse
import math
import pathlib
import sys
import time

from repro.core.calibration import calibration_report
from repro.core.config import StudyConfig, WorkloadSizes
from repro.core.experiments import EXPERIMENTS, run_experiment
from repro.core.export import results_to_json
from repro.core.report import render_stats
from repro.core.study import ComparativeStudy
from repro.core.world import World

FAST_SIZES = WorkloadSizes(
    ranking_queries=250,
    comparison_popular=50,
    comparison_niche=50,
    intent_queries=150,
    freshness_queries_per_vertical=30,
    perturbation_queries=16,
    perturbation_runs=8,
    pairwise_queries=8,
    citation_queries=60,
)


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _positive_finite_float(raw: str) -> float:
    value = float(raw)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError("must be a finite number above 0")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Navigating the Shift' (EDBT 2026)",
    )
    study_options = argparse.ArgumentParser(add_help=False)
    study_options.add_argument(
        "--seed", type=int, default=7, help="study seed (default 7)"
    )
    study_options.add_argument(
        "--scale",
        choices=("fast", "paper"),
        default="fast",
        help="workload sizes: reduced 'fast' profile or the paper's full sizes",
    )
    study_options.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help="worker pool width for engine fan-out "
        "(default: $REPRO_WORKERS or 1 = sequential; results are "
        "identical for any value)",
    )
    study_options.add_argument(
        "--corpus-scale",
        type=_positive_finite_float,
        default=None,
        metavar="X",
        help="corpus size multiplier, e.g. 10 or 100 for the scale-out "
        "profiles (default 1.0)",
    )
    chaos_options = argparse.ArgumentParser(add_help=False)
    chaos_options.add_argument(
        "--chaos",
        action="append",
        default=None,
        metavar="SITE[@MATCH]:RATE[:FAILURES[:KIND]]",
        help="inject deterministic faults at a site (repeatable), e.g. "
        "'engine.answer:0.2:2:error' or 'engine.answer@Gemini:1.0:inf'; "
        "implies the resilience layer even with an empty plan",
    )
    chaos_options.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        help="seed for the fault plan's deterministic selection rolls (default 0)",
    )
    chaos_options.add_argument(
        "--fail-fast",
        action="store_true",
        help="strict mode: propagate injected faults instead of degrading",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the experiment registry")
    sub.add_parser("calibration", help="print the calibration index")
    sub.add_parser(
        "world", parents=[study_options], help="build a world and print its inventory"
    )

    run = sub.add_parser(
        "run", parents=[study_options, chaos_options], help="run experiments"
    )
    run.add_argument(
        "experiments",
        nargs="*",
        metavar="ID",
        help="experiment ids (default: all)",
    )
    run.add_argument("--json", type=pathlib.Path, help="archive raw results as JSON")
    run.add_argument(
        "--stats",
        action="store_true",
        help="print runner/cache statistics after the experiments",
    )
    run.add_argument(
        "--journal",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="record completed (engine, chunk) results to a resume journal "
        "(default with --resume: results/run-journal.jsonl)",
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help="replay completed chunks from the journal; only missing work runs",
    )

    replicate_cmd = sub.add_parser(
        "replicate", help="rerun headline metrics across seeds"
    )
    replicate_cmd.add_argument(
        "--seeds", type=int, nargs="+", default=[1, 2, 3], help="seeds to replicate"
    )

    snapshot = sub.add_parser(
        "snapshot", parents=[study_options], help="archive the corpus"
    )
    snapshot.add_argument("path", type=pathlib.Path, help="snapshot destination")

    serve = sub.add_parser(
        "serve",
        parents=[study_options, chaos_options],
        help="run the answer-serving loop under a deterministic generated load",
    )
    serve.add_argument(
        "--requests",
        type=_positive_int,
        default=512,
        help="requests in the generated stream (default 512)",
    )
    serve.add_argument(
        "--qps",
        type=float,
        default=64.0,
        help="long-run arrival rate in requests per simulated second (default 64)",
    )
    serve.add_argument(
        "--burstiness",
        type=float,
        default=4.0,
        help="mean burst size; 1 is a plain Poisson stream (default 4)",
    )
    serve.add_argument(
        "--zipf-s",
        type=float,
        default=1.1,
        help="zipf exponent over query popularity ranks (default 1.1)",
    )
    serve.add_argument(
        "--pool-size",
        type=_positive_int,
        default=96,
        help="distinct queries in the sampled pool (default 96)",
    )
    serve.add_argument(
        "--engine",
        action="append",
        default=None,
        metavar="NAME",
        help="restrict the stream to an engine (repeatable; default: full fleet)",
    )
    serve.add_argument(
        "--max-pending",
        type=_positive_int,
        default=None,
        help="admission window before submitters block (default 4 x workers)",
    )
    serve.add_argument(
        "--bench-json",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="record latency percentiles + throughput (e.g. BENCH_serving.json)",
    )

    ask = sub.add_parser(
        "ask", parents=[study_options],
        help="pose one query to all five engines and compare the answers",
    )
    ask.add_argument("query", help="the query text")
    ask.add_argument(
        "--vertical",
        default=None,
        help="vertical id for entity ranking (default: inferred from the query)",
    )
    ask.add_argument(
        "--full", action="store_true", help="print full answer texts, not just citations"
    )

    lint = sub.add_parser(
        "lint",
        help="run the static analyzers (determinism, concurrency, locks, "
        "caches) over the library source",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to analyze (default: src/repro)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--baseline",
        default=".lint-baseline.json",
        metavar="FILE",
        help="baseline file of grandfathered findings "
        "(default: .lint-baseline.json)",
    )
    lint.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline file (every finding blocks)",
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from the current findings and exit 0",
    )
    lint.add_argument(
        "--verbose",
        action="store_true",
        help="also show pragma-waived findings in the text report",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print every family's rule table and exit",
    )
    lint.add_argument(
        "--dump",
        choices=("callgraph", "lockgraph", "cachegraph"),
        default=None,
        help="emit the graph a rule family ran against as deterministic "
        "JSON and exit 0",
    )
    return parser


def _config(args: argparse.Namespace) -> StudyConfig:
    sizes = WorkloadSizes() if args.scale == "paper" else FAST_SIZES
    kwargs = dict(seed=args.seed, sizes=sizes)
    if getattr(args, "workers", None) is not None:
        kwargs["workers"] = args.workers
    if getattr(args, "corpus_scale", None) is not None:
        kwargs["corpus_scale"] = args.corpus_scale
    return StudyConfig(**kwargs)


def _cmd_list() -> int:
    for spec in EXPERIMENTS.values():
        print(f"{spec.id:<8} {spec.paper_artifact:<9} {spec.description}")
        print(f"{'':8} workload: {spec.workload}")
    return 0


def _cmd_world(args: argparse.Namespace) -> int:
    start = time.time()  # detlint: ignore[DET002] -- operator-facing CLI timing
    world = World.build(_config(args))
    elapsed = time.time() - start  # detlint: ignore[DET002] -- operator-facing CLI timing
    print(f"built in {elapsed:.1f}s (seed {args.seed})")
    print(f"  pages:    {len(world.corpus)}")
    print(f"  domains:  {len(world.corpus.domains())}")
    print(f"  entities: {len(world.catalog)}")
    print(f"  engines:  {', '.join(world.engines)}")
    print(f"  link graph: {len(world.corpus.link_graph)} nodes, "
          f"{world.corpus.link_graph.edge_count()} edges")
    return 0


def _install_chaos(args: argparse.Namespace, world: World) -> bool:
    """Wire the resilience layer when ``--chaos``/``--fail-fast`` ask for it.

    Returns False (after printing to stderr) on a malformed spec.
    """
    if args.chaos is None and not args.fail_fast:
        return True
    from repro.resilience import FaultPlan, ResilienceConfig, ResilienceContext

    try:
        plan = FaultPlan.parse(",".join(args.chaos or ()), seed=args.chaos_seed)
    except ValueError as exc:
        print(f"bad --chaos spec: {exc}", file=sys.stderr)
        return False
    world.install_resilience(
        ResilienceContext(ResilienceConfig(plan=plan, fail_fast=args.fail_fast))
    )
    return True


def _cmd_run(args: argparse.Namespace) -> int:
    wanted = args.experiments or list(EXPERIMENTS)
    unknown = [e for e in wanted if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    world = World.build(_config(args))
    if not _install_chaos(args, world):
        return 2
    journal = None
    if args.journal is not None or args.resume:
        from repro.resilience import RunJournal

        path = args.journal or pathlib.Path("results") / "run-journal.jsonl"
        journal = RunJournal(path, resume=args.resume)
        if args.resume and len(journal):
            print(f"resuming: {len(journal)} completed chunk(s) in {path}")
    from repro.core.runner import StudyRunner

    study = ComparativeStudy(world, runner=StudyRunner(world, journal=journal))
    results = {}
    for experiment_id in wanted:
        start = time.time()  # detlint: ignore[DET002] -- operator-facing CLI timing
        result, text = run_experiment(experiment_id, world, study=study)
        results[experiment_id] = result
        print(f"\n[{experiment_id}] ({time.time() - start:.1f}s)")  # detlint: ignore[DET002]
        print(text)
    if args.stats:
        print()
        print(render_stats(study))
    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(results_to_json(results))
        print(f"\nraw results written to {args.json}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.core.report import render_serve_stats
    from repro.serve import LoadProfile, answers_digest, generate_requests

    try:
        profile = LoadProfile(
            requests=args.requests,
            qps=args.qps,
            burstiness=args.burstiness,
            zipf_s=args.zipf_s,
            pool_size=args.pool_size,
            engines=tuple(args.engine or ()),
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"bad load profile: {exc}", file=sys.stderr)
        return 2
    world = World.build(_config(args))
    if not _install_chaos(args, world):
        return 2
    requests = generate_requests(world.catalog, profile)
    workers = args.workers if args.workers is not None else 4
    loop = world.serve_loop(workers=workers, max_pending=args.max_pending)
    results = loop.serve(requests)
    digest = answers_digest(results)
    snapshot = loop.stats.snapshot()
    print(render_serve_stats(snapshot))
    print(f"  workers: {workers}")
    print(f"  answers digest: {digest}")
    if args.bench_json is not None:
        payload = {}
        if args.bench_json.exists():
            payload = json.loads(args.bench_json.read_text())
        payload["serving"] = {
            **snapshot.payload(),
            "workers": workers,
            "answers_digest": digest,
            "profile": {
                "requests": profile.requests,
                "qps": profile.qps,
                "burstiness": profile.burstiness,
                "zipf_s": profile.zipf_s,
                "pool_size": profile.pool_size,
                "seed": profile.seed,
            },
        }
        args.bench_json.parent.mkdir(parents=True, exist_ok=True)
        args.bench_json.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"  serving bench recorded to {args.bench_json}")
    return 0


def _cmd_replicate(args: argparse.Namespace) -> int:
    from repro.core.replication import replicate

    if len(set(args.seeds)) != len(args.seeds):
        seeds = " ".join(map(str, args.seeds))
        print(f"seeds must be distinct, got: {seeds}", file=sys.stderr)
        return 2
    report = replicate(args.seeds)
    print(report.render())
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.webgraph.serialize import dump_corpus

    world = World.build(_config(args))
    dump_corpus(world.corpus, args.path)
    print(
        f"archived {len(world.corpus)} pages / "
        f"{world.corpus.link_graph.edge_count()} edges to {args.path}"
    )
    return 0


def _infer_vertical(world: World, query_text: str) -> str | None:
    """Pick the vertical whose vocabulary best matches the query."""
    from repro.entities.verticals import all_verticals
    from repro.search.tokenize import tokenize

    query_terms = set(tokenize(query_text))
    best, best_score = None, 0
    for vertical in all_verticals():
        vocabulary = set()
        for keyword in vertical.keywords + (vertical.noun,):
            vocabulary.update(tokenize(keyword))
        score = len(query_terms & vocabulary)
        if score > best_score:
            best, best_score = vertical.id, score
    return best


def _cmd_ask(args: argparse.Namespace) -> int:
    from repro.entities.queries import Query, QueryKind

    world = World.build(_config(args))
    vertical = args.vertical or _infer_vertical(world, args.query)
    if vertical is None:
        print("could not infer a vertical; pass --vertical", file=sys.stderr)
        return 2
    candidates = tuple(e.id for e in world.catalog.in_vertical(vertical))
    query = Query(
        id="ask",
        text=args.query,
        kind=QueryKind.RANKING if candidates else QueryKind.INTENT,
        vertical=vertical,
        entities=candidates,
    )
    print(f"query: {args.query}  (vertical: {vertical})\n")
    for name, engine in world.engines.items():
        answer = engine.answer(query)
        print(f"=== {name} ===")
        if args.full:
            print(answer.text)
        else:
            if answer.ranked_entities:
                names = [
                    world.catalog.get(e).name for e in answer.ranked_entities[:5]
                ]
                print(f"  top picks: {', '.join(names)}")
            domains = sorted(answer.cited_domains())
            print(f"  cites: {', '.join(domains) if domains else '(no citations)'}")
        print()
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "calibration":
        print(calibration_report())
        return 0
    if args.command == "world":
        return _cmd_world(args)
    if args.command == "replicate":
        return _cmd_replicate(args)
    if args.command == "snapshot":
        return _cmd_snapshot(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "ask":
        return _cmd_ask(args)
    if args.command == "lint":
        from repro.devtools.lint import main as lint_main

        return lint_main(args)
    return _cmd_run(args)


if __name__ == "__main__":
    raise SystemExit(main())
