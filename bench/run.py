"""edgecount benchmark: one workload per run, end-to-end or traced.

Run from the root of an edgecount checkout:

    python3 bench/run.py --workload power --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout. Inputs are made from
``--seed`` and written under ``.bench_work/``. Operations run in a closed
loop, in whole rounds, until ``--seconds`` have passed; outputs are then
checked against ``reference.py``. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``). Progress and failures go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

SETUP_REPEATS = 3
WORK_DIR = ".bench_work"


def fresh_import_seconds(src: str) -> float:
    """Seconds for a new interpreter to start and import edgecount.cli."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import edgecount.cli", src],
        check=True, timeout=120,
    )
    return time.perf_counter() - start


def run_rounds(workload, seconds: float, tracer=None) -> list[dict]:
    """Closed loop of whole rounds for ``seconds`` (at least one round).

    With a tracer, rounds alternate untraced and traced, so both halves see
    the same machine conditions; at least one of each is run.
    """
    rounds = []
    start = time.perf_counter()
    while len(rounds) < (2 if tracer else 1) or time.perf_counter() - start < seconds:
        index = len(rounds)
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.round = index
            tracer.install()
        record = {"index": index, "traced": traced, "durations": [], "ok": []}
        try:
            for op, name in enumerate(workload.op_names):
                span = tracer.open(f"op:{workload.name}:{name}") if traced else None
                ok, elapsed = workload.run_op(index, op)
                if traced:
                    tracer.close(span)
                record["durations"].append(elapsed)
                record["ok"].append(ok)
        finally:
            if traced:
                tracer.uninstall()
        rounds.append(record)
    return rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "edgecount", "__init__.py")):
        print(f"error: {src}/edgecount not found; run from the root of an edgecount checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import edgecount
    import edgecount.cli

    from reference import CheckError
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = os.path.join(root, WORK_DIR)
    os.makedirs(work_dir, exist_ok=True)
    workload = WORKLOADS[args.workload](edgecount, args.seed, work_dir)

    tracer = Tracer() if args.trace else None
    try:
        # Set-up: a fresh interpreter importing edgecount plus making the
        # inputs, repeated; then one warm-up round (not counted as attempted).
        samples = []
        for _ in range(SETUP_REPEATS):
            seconds = fresh_import_seconds(src)
            start = time.perf_counter()
            workload.make_inputs()
            samples.append(seconds + time.perf_counter() - start)
        start = time.perf_counter()
        for op in range(len(workload.op_names)):
            workload.run_op(-1, op)
        setup_s = statistics.median(samples) + time.perf_counter() - start

        rounds = run_rounds(workload, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for label, message in sorted(workload.failures.items()):
            print(f"{args.workload} ({label}) failed: {message[:300]}", file=sys.stderr)
        workload.check()
    except CheckError as exc:
        print(f"wrong output: {exc}", file=sys.stderr)
        return 1
    attempted = sum(len(r["ok"]) for r in rounds)
    succeeded = sum(sum(r["ok"]) for r in rounds)

    if args.trace:
        metrics = tracer.layer_metrics([r["index"] for r in rounds if r["traced"]])
        times = {flag: statistics.median(sum(r["durations"]) for r in rounds if r["traced"] == flag)
                 for flag in (False, True)}
        metrics["trace.overhead_pct"] = (100.0 * (times[True] / times[False] - 1.0), "%")
        path = os.path.join(work_dir, f"trace-{args.workload}-{args.seed}.json")
        tracer.write(path)
        print(f"spans written to {path}", file=sys.stderr)
    else:
        metrics = {
            "ops_per_s": (succeeded / sum(sum(r["durations"]) for r in rounds), "1/s"),
            "round_p50_s": (statistics.median(sum(r["durations"]) for r in rounds), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (setup_s, "s"),
        }
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": attempted - succeeded,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
