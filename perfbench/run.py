"""Repo benchmark: the study, a cold serve drain and a hot serve drain.

    python3 perfbench/run.py                                  # all workloads, untraced then traced
    python3 perfbench/run.py --workload serve_cold --seed 7 --seconds 40 --trace 0
    python3 perfbench/run.py --workload study --trace 1       # per-layer metrics

One run repeats reps of one workload, each in a fresh Python process,
until ``--seconds`` would be exceeded by one more rep.  With ``--trace 0``
it spends the time left on set-up-only reps and reports the end-to-end
metrics: medians over reps (``setup_s`` over every rep, set-up-only ones
too), and a nearest-rank latency median over every op of every rep.  With
``--trace 1`` it alternates untraced and traced reps and reports the
per-layer metrics (medians over the traced reps) and the tracing
overhead.  Every rep's outputs are checked: digests against the pins in
``digests.json`` where the seed is pinned, against each other always,
plus the serve invariants.  The last line of standard output is one JSON
object; the exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from layers import LAYERS, OVERHEAD, WORKLOADS, metric_specs, nearest_rank  # noqa: E402

#: Each of these silently changes the topology or arms a witness.
STRIPPED_ENV = (
    "REPRO_WORKERS",
    "REPRO_SHARDS",
    "REPRO_RESIDENT_SHARDS",
    "REPRO_CHAOS",
    "REPRO_CHAOS_SEED",
    "REPRO_LOCK_WITNESS",
    "REPRO_CACHE_WITNESS",
)

#: ``(name, unit)`` of the end-to-end metrics, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("throughput_rps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Every run must end within this many seconds.
DEADLINE_S = 170.0


class BenchError(Exception):
    """A rep could not run at all (no program, a crash, a timeout)."""


def child_env() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key not in STRIPPED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(workload: str, seed: int, traced: bool, timeout: float, setup_only: bool = False) -> dict:
    command = [sys.executable, str(HERE / "workloads.py"), "--workload", workload, "--seed", str(seed)]
    if setup_only:
        command.append("--setup-only")
    if traced:
        OUT.mkdir(exist_ok=True)
        command += ["--traced", "--spans", str(OUT / f"spans-{workload}-seed{seed}.jsonl")]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} rep timed out after {exc.timeout:.0f}s") from None
    if done.returncode != 0:
        tail = "\n".join(done.stderr.strip().splitlines()[-5:])
        raise BenchError(f"{workload} rep exited {done.returncode}:\n{tail}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_reps(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Reps until one more would overrun ``seconds`` (traced runs alternate).

    An untraced run then fills the time left with set-up-only reps: each
    adds a sample of ``setup_s`` and nothing else.
    """
    started = time.perf_counter()
    reps: list[dict] = []
    while True:
        traced = trace and len(reps) % 2 == 1
        elapsed = time.perf_counter() - started
        reps.append(run_child(workload, seed, traced, DEADLINE_S - elapsed))
        elapsed = time.perf_counter() - started
        enough = len(reps) >= (2 if trace else 1)
        if enough and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    # Until one has run, the longest set-up so far estimates a set-up-only
    # rep, which also pays the interpreter's start.
    last = max(rep["setup_s"] for rep in reps)
    while not trace and elapsed + last <= seconds:
        reps.append(run_child(workload, seed, False, DEADLINE_S - elapsed, setup_only=True))
        last = time.perf_counter() - started - elapsed
        elapsed += last
    return reps


def load_pins() -> dict:
    return json.loads((HERE / "digests.json").read_text())


def check(reps: list[dict], pinned: dict | None) -> tuple[int, int, list[str]]:
    """``(attempted, failed, problems)`` over every rep of one run.

    An op whose digest differs from the pin (or, for an unpinned seed,
    from the first rep's) is failed.  A serve drain's digest and its
    outcome invariants cover all of its requests, so either one failing
    fails every request of the drain.
    """
    reference = pinned if pinned is not None else reps[0]["digests"]
    attempted = failed = 0
    problems: list[str] = []
    for number, rep in enumerate(reps):
        rep_failed = rep["failed"]
        for op, error in rep["errors"].items():
            problems.append(f"rep {number}: {op} raised {error}")
        for op, digest in reference.items():
            if op in rep["errors"]:
                continue
            if rep["digests"].get(op) != digest:
                rep_failed = rep_failed + 1 if rep["workload"] == "study" else rep["ops"]
                problems.append(f"rep {number}: {op} digest {rep['digests'].get(op)} != {digest}")
        for name, ok in rep["checks"].items():
            if not ok:
                rep_failed = rep["ops"]
                problems.append(f"rep {number}: check {name} failed")
        attempted += rep["ops"]
        failed += rep_failed
    return attempted, failed, problems


def end_to_end(reps: list[dict]) -> tuple[dict[str, float], dict[str, str]]:
    """Metric values of untraced reps, and how many samples each summarizes."""
    timed = [rep for rep in reps if not rep["setup_only"]]
    latencies = [value for rep in timed for value in rep["latencies_s"]]
    values = {
        "setup_s": statistics.median(rep["setup_s"] for rep in reps),
        "run_s": statistics.median(rep["run_s"] for rep in timed),
        "throughput_rps": statistics.median(rep["ops"] / rep["run_s"] for rep in timed),
        "latency_p50_ms": 1000.0 * nearest_rank(latencies, 50),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in timed),
    }
    counts = {name: f"median of {len(timed)} reps" for name in values}
    counts["setup_s"] = f"median of {len(reps)} set-ups"
    counts["latency_p50_ms"] = f"nearest-rank over {len(latencies)} ops"
    return values, counts


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    values = {
        name: statistics.median(rep["layers"][name] for rep in traced)
        for name, _, _ in metric_specs()
        if name != OVERHEAD[0]
    }
    values[OVERHEAD[0]] = (
        statistics.median(rep["run_s"] for rep in traced)
        / statistics.median(rep["run_s"] for rep in untraced)
        - 1.0
    )
    return values


def predictions(workload: str, traced: list[dict]) -> list[str]:
    """Where the layer table's work/no-work predictions fail on this trace."""
    rep = traced[-1]
    setup, run = rep["spans"]["setup"], rep["spans"]["run"]
    wrong = []
    for layer in LAYERS:
        if layer.name in rep["missing_layers"]:
            continue
        timed = run.get(layer.name, 0)
        if workload in layer.unchanged_on and timed:
            wrong.append(f"{layer.name}: {timed} timed-phase spans, predicted none")
        if workload in layer.most_work and not timed + setup.get(layer.name, 0):
            wrong.append(f"{layer.name}: no spans, predicted most of its work here")
    return wrong


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: reps, checks, metrics and the printed report."""
    every = run_reps(workload, seed, seconds, trace)
    reps = [rep for rep in every if not rep["setup_only"]]
    pins = load_pins().get(workload, {}).get(str(seed))
    attempted, failed, problems = check(reps, pins)
    correct = failed == 0 and not problems
    untraced = [rep for rep in every if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    first = reps[0]

    print(f"== {workload}  seed={seed}  trace={int(trace)}  reps={len(reps)}  set-up-only reps={len(every) - len(reps)}")
    print(f"   machine: {json.dumps(first['machine'], sort_keys=True)}")
    print(f"   config:  {json.dumps(first['config'], sort_keys=True)}")
    if "outcomes" in first:
        print(f"   outcomes (rep 0): {json.dumps(first['outcomes'])}  distinct keys: {first['distinct_keys']}")
    digest_note = "pinned" if pins is not None else "unpinned seed: reps compared with each other"
    print(f"   digests: {digest_note}; {'all match' if correct else 'MISMATCH'}")
    for problem in problems:
        print(f"   ! {problem}")

    units = dict(END_TO_END)
    if trace:
        metrics = per_layer(untraced, traced)
        units = {name: unit for name, unit, _ in metric_specs()}
        print(f"   per-layer metrics: median of {len(traced)} traced reps")
        for layer in LAYERS:
            print(
                f"   [{layer.name}] should move {layer.should_move}; most work in "
                f"{', '.join(layer.most_work)}; unchanged on {', '.join(layer.unchanged_on)}"
            )
            for name, value in metrics.items():
                if name.startswith(f"{layer.name}."):
                    print(f"      {name:<52} {value:>14.6g} {units[name]}")
        print(f"   {OVERHEAD[0]:<55} {metrics[OVERHEAD[0]]:>14.6g} {OVERHEAD[1]}")
        for layer, why in sorted(traced[-1]["missing_layers"].items()):
            print(f"   ! missing layer {layer}: {why}")
        wrong = predictions(workload, traced)
        print(f"   layer predictions: {'all hold' if not wrong else f'{len(wrong)} do not hold'}")
        for line in wrong:
            print(f"   ? {line}")
    else:
        metrics, counts = end_to_end(untraced)
        for name, value in metrics.items():
            print(f"   {name:<16} {value:>14.6f} {units[name]:<6} ({counts[name]})")
        share = failed / attempted
        print(f"   {'failed_share':<16} {share:>14.6f} {'fraction':<6} ({failed} of {attempted} ops)")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = {
        **result,
        "workload": workload, "seed": seed, "trace": int(trace),
        "machine": first["machine"], "config": first["config"], "problems": problems,
        "reps": [{k: v for k, v in rep.items() if k != "latencies_s"} for rep in every],
    }
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", choices=("0", "1"), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics (default: both)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (False, True) if args.trace is None else (args.trace == "1",)
    results = {}
    try:
        for workload in workloads:
            for trace in traces:
                results[workload, trace] = run_one(workload, args.seed, args.seconds, trace)
                if len(workloads) * len(traces) > 1:
                    print(json.dumps(results[workload, trace], sort_keys=True))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    correct = all(result["correct"] for result in results.values())
    if len(results) == 1:
        print(json.dumps(next(iter(results.values())), sort_keys=True))
    else:
        # Each run's result line is above; this one is the verdict.
        print(json.dumps({
            "correct": correct,
            "attempted": sum(result["attempted"] for result in results.values()),
            "failed": sum(result["failed"] for result in results.values()),
        }, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
