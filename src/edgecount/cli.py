"""Command-line surface: dedup -> graph -> test -> report, plus verify/power.

Exit codes: 0 success (test outcomes are data, not errors), 1 verification
mismatch, 2 malformed or insufficient input, 3 degenerate null.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import oracle
from .dataset import (
    expand_to_observations,
    load_table,
    pairwise_distances,
    read_distance_input,
    write_distance_input,
)
from .errors import (
    DegenerateNullError,
    FamilyTooLargeError,
    InfeasibleGraphError,
    InputFormatError,
    VerificationError,
)
from .graphs import build_kmst, build_knnl, count_graph_family, write_graph
from .inference import DEFAULT_KAPPAS, analyze, analyze_fixed_graph, condition_diagnostics
from .simulate import BUILTIN_SCENARIOS, built_in_scenario, parse_scenario_file, run_scenario


def _thread_count(flag: int | None) -> int:
    """Worker threads: ``--threads``, else ``EDGECOUNT_THREADS``, else the CPU count.

    A count from the flag or the variable must be an integer >= 1.
    """
    if flag is not None:
        source, text = "--threads", str(flag)
    elif os.environ.get("EDGECOUNT_THREADS"):
        source, text = "EDGECOUNT_THREADS", os.environ["EDGECOUNT_THREADS"]
    else:
        return os.cpu_count() or 1
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise InputFormatError(f"{source} must be an integer >= 1, got {text!r}")
    return threads


def _add_input_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", help="observation CSV (label-first columns)")
    parser.add_argument("--kind", choices=("vector", "ranking", "network"),
                        help="payload kind of --input")
    parser.add_argument("--metric",
                        choices=("euclidean", "frobenius", "spearman", "footrule", "kendall"),
                        help="distance between distinct values (defaults by kind)")
    parser.add_argument("--tie-tolerance", type=float, default=0.0,
                        help="treat |d - d'| <= tol as tied (real-valued metrics)")
    parser.add_argument("--distances", help="pre-computed K x K distance CSV")
    parser.add_argument("--assignments",
                        help="sidecar CSV of label,value-index rows for --distances")


def _load_instance(args):
    if args.distances:
        if not args.assignments:
            raise InputFormatError("--distances requires --assignments")
        dist, table = read_distance_input(args.distances, args.assignments)
    elif args.input and args.kind:
        table = load_table(args.input, args.kind)
        dist = pairwise_distances(table, metric=args.metric, tie_tolerance=args.tie_tolerance)
    else:
        raise InputFormatError("need --input with --kind, or --distances with --assignments")
    if table.n_values == 1:
        raise DegenerateNullError(
            "all observations share one distinct value; every count statistic "
            "is constant under permutation"
        )
    return dist, table


def _graph_rule(args) -> tuple[str, int]:
    rule, k_text = args.graph
    if rule not in ("nnl", "mst"):
        raise InputFormatError("graph rule must be 'nnl' or 'mst'")
    try:
        k = int(k_text)
    except ValueError:
        raise InputFormatError("graph order k must be an integer") from None
    if k < 1:
        raise InputFormatError("graph order k must be >= 1")
    return rule, k


def _timestamp(args) -> str | None:
    if getattr(args, "timestamp", False):
        return datetime.now(timezone.utc).isoformat()
    return None


def cmd_test(args) -> int:
    if args.perm < 0:
        raise InputFormatError(f"--perm must be >= 0, got {args.perm}")
    threads = _thread_count(args.threads)
    dist, table = _load_instance(args)
    rule, k = _graph_rule(args)
    kappas = tuple(args.kappa)
    n_perm = args.perm or None
    if rule == "nnl":
        c0 = build_knnl(dist, k)
        report = analyze(
            table, c0, kappas=kappas, n_perm=n_perm, seed=args.seed,
            threads=threads, graph_rule=f"nnl k={k}", timestamp=_timestamp(args),
        )
    else:
        obs_matrix = expand_to_observations(dist, table.value_index)
        graph = build_kmst(obs_matrix, k, seed=args.seed)
        report = analyze_fixed_graph(
            graph, table.labels, kappas=kappas, n_perm=n_perm, seed=args.seed,
            threads=threads, graph_rule=f"mst k={k} seed={args.seed}",
            timestamp=_timestamp(args),
        )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    sys.stdout.write(report.to_json() + "\n" if args.format == "json" else report.to_text())
    return 0


def cmd_dedup(args) -> int:
    if not args.input or not args.kind:
        raise InputFormatError("dedup needs --input and --kind")
    table = load_table(args.input, args.kind)
    lines = [
        f"observations: {table.n_total}",
        f"sample sizes: {table.n1}, {table.n2}",
        f"distinct values: {table.n_values}",
        f"repeated values: {table.n_repeated_values}",
        f"largest multiplicity: {int(table.multiplicity.max())}",
    ]
    if args.save_distances or args.save_assignments:
        if not (args.save_distances and args.save_assignments):
            raise InputFormatError("--save-distances and --save-assignments go together")
        dist = pairwise_distances(table, metric=args.metric, tie_tolerance=args.tie_tolerance)
        write_distance_input(args.save_distances, args.save_assignments, dist, table)
        lines.append(f"wrote {args.save_distances} and {args.save_assignments}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


_MAX_PRINTED_DIGITS = 4300  # Python's default limit on int-to-str conversion


def _family_size_text(size: int) -> str:
    """The exact family size, or past the str() limit its exact digit count."""
    digits = max(1, int(size.bit_length() * math.log10(2)) - 1)  # a lower bound
    while size >= 10 ** digits:
        digits += 1
    return str(size) if digits <= _MAX_PRINTED_DIGITS else f"{digits} decimal digits"


def cmd_graph(args) -> int:
    dist, table = _load_instance(args)
    rule, k = _graph_rule(args)
    if rule == "nnl":
        c0 = build_knnl(dist, k)
        rule_text = f"nnl k={k}"
    else:
        c0 = build_kmst(dist, k, seed=args.seed)
        rule_text = f"mst k={k} seed={args.seed}"
    if args.output:
        write_graph(args.output, c0)
    degrees = c0.degrees
    histogram = " ".join(
        f"{d}:{int((degrees == d).sum())}" for d in sorted(set(int(x) for x in degrees))
    )
    diag = condition_diagnostics(table, c0)
    lines = [
        f"distinct values: {table.n_values}",
        f"observations: {table.n_total}",
        f"graph rule: {rule_text}",
        f"edges: {c0.n_edges}",
        f"degree histogram: {histogram}",
        f"graph family size: {_family_size_text(count_graph_family(c0, table))}",
        "diagnostics:",
    ]
    lines += [f"  {key}: {value:.6g}" for key, value in diag.ratios.items()]
    lines += [f"  warning: {w}" for w in diag.warnings]
    if args.output:
        lines.append(f"wrote {args.output}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_power(args) -> int:
    if bool(args.scenario) == bool(args.config):
        raise InputFormatError("need exactly one of --scenario or --config")
    if args.scenario:
        config = built_in_scenario(args.scenario, unbalanced=args.unbalanced)
    else:
        config = parse_scenario_file(args.config)
    overrides = {}
    if args.replicates is not None:
        overrides["replicates"] = args.replicates
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.alpha is not None:
        overrides["alpha"] = args.alpha
    if overrides:
        config = replace(config, **overrides)
    result = run_scenario(config)
    csv_text = result.to_csv_text()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        sidecar = os.path.splitext(args.output)[0] + ".json"
        with open(sidecar, "w", encoding="utf-8") as fh:
            json.dump(result.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    sys.stdout.write(csv_text)
    return 0


def cmd_verify(args) -> int:
    rng = np.random.default_rng(args.seed)
    failures = oracle.verify_counts(rng, args.instances)
    print(f"counts vs enumerated family/union: {'FAIL' if failures else 'PASS'} "
          f"({args.instances} instances)")
    found = oracle.verify_moments(rng, args.instances, args.max_n)
    print(f"moments vs exhaustive permutations: {'FAIL' if found else 'PASS'} "
          f"({args.instances} instances, N <= {args.max_n})")
    failures += found
    found = oracle.verify_nnl(rng, args.instances)
    print(f"nnl vs union of all MSTs: {'FAIL' if found else 'PASS'} "
          f"({args.instances} instances)")
    failures += found
    found = oracle.verify_knnl(rng, args.instances)
    print(f"knnl vs round-by-round recount: {'FAIL' if found else 'PASS'} "
          f"({args.instances} instances)")
    failures += found
    found = oracle.verify_kmst(rng, args.instances)
    print(f"kmst vs sorted Kruskal: {'FAIL' if found else 'PASS'} "
          f"({args.instances} instances)")
    failures += found
    if failures:
        raise VerificationError("\n".join(failures[:5]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgecount",
        description="Graph-based two-sample tests that stay well-defined under "
                    "repeated observations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run the full two-sample test")
    _add_input_options(p_test)
    p_test.add_argument("--graph", nargs=2, metavar=("RULE", "K"), default=("nnl", "3"),
                        help="similarity graph rule: 'nnl K' or 'mst K'")
    p_test.add_argument("--kappa", type=float, nargs="+", default=list(DEFAULT_KAPPAS))
    p_test.add_argument("--perm", type=int, default=0,
                        help="number of label permutations (0 = analytic only)")
    p_test.add_argument("--seed", type=int, default=0)
    p_test.add_argument("--threads", type=int, default=None)
    p_test.add_argument("--format", choices=("text", "json"), default="text")
    p_test.add_argument("--output", help="also write the JSON report here")
    p_test.add_argument("--timestamp", action="store_true",
                        help="embed a wall-clock timestamp (breaks byte-identical output)")
    p_test.set_defaults(func=cmd_test)

    p_dedup = sub.add_parser("dedup", help="deduplicate observations into distinct values")
    p_dedup.add_argument("--input", required=True)
    p_dedup.add_argument("--kind", choices=("vector", "ranking", "network"), required=True)
    p_dedup.add_argument("--metric",
                         choices=("euclidean", "frobenius", "spearman", "footrule", "kendall"))
    p_dedup.add_argument("--tie-tolerance", type=float, default=0.0)
    p_dedup.add_argument("--save-distances", help="write the distinct-value distance CSV")
    p_dedup.add_argument("--save-assignments", help="write the label,value-index sidecar CSV")
    p_dedup.set_defaults(func=cmd_dedup)

    p_graph = sub.add_parser("graph", help="build and export the similarity graph")
    _add_input_options(p_graph)
    p_graph.add_argument("--graph", nargs=2, metavar=("RULE", "K"), default=("nnl", "1"))
    p_graph.add_argument("--seed", type=int, default=0)
    p_graph.add_argument("--output", help="write the edge-list CSV here")
    p_graph.set_defaults(func=cmd_graph)

    p_power = sub.add_parser("power", help="run a power study scenario")
    p_power.add_argument("--scenario", choices=BUILTIN_SCENARIOS)
    p_power.add_argument("--unbalanced", action="store_true")
    p_power.add_argument("--config", help="flat key=value scenario file")
    p_power.add_argument("--replicates", type=int)
    p_power.add_argument("--seed", type=int)
    p_power.add_argument("--alpha", type=float)
    p_power.add_argument("--output", help="write power CSV here (plus a .json sidecar)")
    p_power.set_defaults(func=cmd_power)

    p_verify = sub.add_parser("verify", help="compare closed forms against brute-force oracles")
    p_verify.add_argument("--instances", type=int, default=40)
    p_verify.add_argument("--max-n", type=int, default=10)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except DegenerateNullError as exc:
        print(f"degenerate null: {exc}", file=sys.stderr)
        print("hint: run 'edgecount graph' to see the condition diagnostics; "
              "with a single distinct value or a degree-2 cycle the permutation "
              "distribution itself collapses", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification mismatch:\n{exc}", file=sys.stderr)
        return 1
    except (InputFormatError, InfeasibleGraphError, FamilyTooLargeError,
            FileNotFoundError, IsADirectoryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
