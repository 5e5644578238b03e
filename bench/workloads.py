"""The three benchmark workloads: inputs, operations and output checks.

Inputs come from the benchmark's own generators, seeded from the workload
seed; the program sees only the generated files (or, for ``power``, the
scenario seeds). Each workload runs whole rounds of operations:

- ``power``: one replicate of built-in scenario S2 unbalanced per round;
- ``test-mix``: one cycle of five ``edgecount test`` commands per round;
- ``test-perm``: one ``edgecount test --perm 10000 --threads 2`` per round.

After measuring, ``check`` compares every successful output with
``reference.Reference``; a disagreement raises ``reference.CheckError``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import time
from dataclasses import replace

import numpy as np

from reference import (
    SUMMARIES,
    CheckError,
    Instance,
    Reference,
    dedup,
    distances,
    expect_close,
    family_size,
    holds_minimum_spanning_tree,
    mc_agree,
    on_lattice,
)

KAPPAS = (1.31, 1.14, 1.0)
GRAPH_K = 3
IDENTITY6 = (1, 2, 3, 4, 5, 6)
# Built-in scenario S2 (unbalanced): spreads on the normalized Spearman scale.
S2_THETAS = (5.5, 4.0)
S2_SIZES = (300, 600)
# Command (e) uses one fixed input whatever the workload seed: it fails on
# every run today, and a failure must not depend on the seed.
FIXED_SEED_E = 2017
NETWORKS = os.path.join("data", "synthetic_networks.csv")
MST_SEED = 0  # the CLI's default --seed, tie-breaking of the k-MST in command (d)
SHUFFLES = 4000  # label shuffles behind each reference permutation p-value


def mallows(n_obj: int, center, theta: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Rankings with P(r) proportional to exp(-theta * d(r, center) / max d),
    d the Spearman distance, drawn by inverse CDF over the lexicographic
    list of all n_obj! rankings."""
    support = np.array(list(itertools.permutations(range(1, n_obj + 1))), dtype=np.int64)
    d = ((support - np.asarray(center, dtype=np.int64)) ** 2).sum(axis=1).astype(np.float64)
    d /= d.max()
    weights = np.exp(-theta * d)
    return support[rng.choice(support.shape[0], size=count, p=weights / weights.sum())]


def s2_sample(sizes: tuple[int, int], rng: np.random.Generator) -> Instance:
    rows = np.vstack([mallows(6, IDENTITY6, theta, n, rng) for theta, n in zip(S2_THETAS, sizes)])
    return Instance(rows, np.repeat([1, 2], sizes), "squared", GRAPH_K)


def write_csv(path: str, inst: Instance) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for label, row in zip(inst.labels, inst.rows.reshape(len(inst.rows), -1)):
            fh.write(",".join([str(int(label))] + [str(int(x)) for x in row]) + "\n")


def read_networks(path: str) -> Instance:
    with open(path, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip() and not line.startswith("#")]
    cells = np.array([[int(float(c)) for c in line.split(",")] for line in lines[1:]])
    return Instance(cells[:, 1:], cells[:, 0], "mismatch", GRAPH_K)


def seeded(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def check_edge_set(what: str, table, graph, ref: Reference) -> None:
    """The program's graph on ``table`` must equal the reference k-NNL."""
    index = {tuple(np.asarray(r).ravel().astype(np.int64)): i for i, r in enumerate(ref.reps)}
    mapped = [index[tuple(np.asarray(r).ravel().astype(np.int64))] for r in table.representatives]
    got = {tuple(sorted((mapped[u], mapped[v]))) for u, v in graph.edges}
    want = {(int(u), int(v)) for u, v in ref.edges}
    if got != want:
        raise CheckError(
            f"{what}: k-NNL edge sets differ ({len(got - want)} only in the program, "
            f"{len(want - got)} only in the reference)"
        )


def _fmt(kappa: float) -> str:
    return f"{kappa:g}"


def _check_block_consistency(what: str, blk: dict, n1: int, n2: int) -> None:
    """Relations every summary block must satisfy, whatever its graph."""
    c, mom, z = blk["counts"], blk["null_moments"], blk["z_scores"]
    p = (n1 - 1) / (n1 + n2 - 2)
    expect_close(f"{what} between+within1+within2", c["between"] + c["within1"] + c["within2"], mom["total"])
    expect_close(f"{what} weighted", c["weighted"], (1 - p) * c["within1"] + p * c["within2"])
    expect_close(f"{what} difference", c["difference"], c["within1"] - c["within2"])
    for key, stat in (("edge", "between"), ("weighted", "weighted"), ("difference", "difference")):
        expect_close(f"{what} z {key}", z[key], (c[stat] - mom[stat]["mean"]) / mom[stat]["sd"])
    expect_close(f"{what} generalized", blk["statistics"]["generalized"], z["weighted"] ** 2 + z["difference"] ** 2)
    for kappa in KAPPAS:
        expect_close(
            f"{what} max({_fmt(kappa)})",
            blk["statistics"]["max"][_fmt(kappa)],
            max(kappa * z["weighted"], abs(z["difference"])),
        )


def _check_analytic(what: str, got: dict, want: dict) -> None:
    for key in ("edge", "weighted", "difference", "generalized"):
        expect_close(f"{what} p_analytic {key}", got[key], want[key], rtol=0.0)
    for kappa in KAPPAS:
        expect_close(f"{what} p_analytic max({_fmt(kappa)})", got["max"][_fmt(kappa)], want["max"][kappa], rtol=0.0)


def _check_permutation_lattice(what: str, got: dict, draws: int) -> None:
    for key in ("edge", "weighted", "difference", "generalized"):
        if not on_lattice(got[key], draws):
            raise CheckError(f"{what} p_permutation {key}={got[key]!r} is not (1+h)/(1+{draws})")
    for kappa in KAPPAS:
        if not on_lattice(got["max"][_fmt(kappa)], draws):
            raise CheckError(f"{what} p_permutation max({_fmt(kappa)}) is off the lattice")


def check_block(tag: str, blk: dict, ref: Reference, name: str, draws: int, shuffled: dict | None) -> None:
    """Check one summary block against the reference's ``name`` summary;
    ``shuffled`` holds the reference's shuffle p-values when ``draws`` > 0."""
    _check_block_consistency(tag, blk, ref.n1, ref.n2)
    observed = ref.observed(KAPPAS)[name]
    moments = ref.moments()[name]
    for key, value in observed["counts"].items():
        expect_close(f"{tag} count {key}", blk["counts"][key], value)
    expect_close(f"{tag} total", blk["null_moments"]["total"], float(moments["total"][0]))
    for stat in ("between", "within1", "within2", "weighted", "difference"):
        mean, var = moments[stat]
        expect_close(f"{tag} null mean {stat}", blk["null_moments"][stat]["mean"], float(mean))
        expect_close(f"{tag} null sd {stat}", blk["null_moments"][stat]["sd"], float(var) ** 0.5)
    for key in ("edge", "weighted", "difference"):
        expect_close(f"{tag} z {key}", blk["z_scores"][key], observed["z"][key])
    _check_analytic(tag, blk["p_analytic"], ref.analytic_pvalues(KAPPAS)[name])
    if not draws:
        return
    got = blk["p_permutation"]
    _check_permutation_lattice(tag, got, draws)
    want = shuffled[name]
    pairs = [(k, got[k], want[k]) for k in ("edge", "weighted", "difference", "generalized")]
    pairs += [(f"max({_fmt(k)})", got["max"][_fmt(k)], want["max"][k]) for k in KAPPAS]
    for key, p_prog, p_ref in pairs:
        if not mc_agree(p_prog, draws, p_ref, SHUFFLES):
            raise CheckError(
                f"{tag} p_permutation {key}: program {p_prog:.5f} ({draws} draws) vs "
                f"label shuffles {p_ref:.5f} ({SHUFFLES} draws)"
            )


def _check_meta(what: str, meta: dict, expected: dict) -> None:
    for key, value in expected.items():
        if meta[key] != value:
            raise CheckError(f"{what} meta {key}: program gives {meta[key]!r}, reference {value!r}")


def check_nnl_report(what: str, report: dict, ref: Reference, draws: int, shuffle_seed: int) -> None:
    """Check a distinct-value (``nnl``) report against the reference."""
    _check_meta(what, report["meta"], {
        "observations": ref.n,
        "sample_sizes": [ref.n1, ref.n2],
        "distinct_values": ref.n_values,
        "repeated_values": int((ref.m > 1).sum()),
        "graph_rule": f"nnl k={ref.k}",
        "graph_edges": ref.n_edges,
        "union_graph_size": ref.union_size,
    })
    if int(report["meta"]["graph_family_size"]) != family_size(ref.m, ref.edges):
        raise CheckError(f"{what} meta graph_family_size differs from the reference")
    shuffled = ref.shuffle_pvalues(KAPPAS, SHUFFLES, shuffle_seed) if draws else None
    for name in SUMMARIES:
        check_block(f"{what} [{name}]", report["summaries"][name], ref, name, draws, shuffled)
    for key, value in ref.diagnostics().items():
        expect_close(f"{what} diagnostic {key}", report["diagnostics"]["ratios"][key], value)


def check_mst_report(what: str, report: dict, ref: Reference, draws: int, shuffle_seed: int) -> None:
    """Check a fixed-graph (``mst``) report; ``ref`` holds that graph on the
    N observations, where the union summary is the plain fixed-graph count."""
    size = GRAPH_K * (ref.n - 1)
    if ref.n_edges != size:
        raise CheckError(f"{what}: {GRAPH_K} spanning trees on {ref.n} observations have {ref.n_edges} edges")
    _check_meta(what, report["meta"], {
        "observations": ref.n, "sample_sizes": [ref.n1, ref.n2], "graph_edges": size,
    })
    blk = report["summaries"]["fixed-graph"]
    expect_close(f"{what} count total", sum(blk["counts"][s] for s in ("between", "within1", "within2")), size)
    shuffled = ref.shuffle_pvalues(KAPPAS, SHUFFLES, shuffle_seed) if draws else None
    check_block(what, blk, ref, "union", draws, shuffled)


def check_text(what: str, text: str, report: dict) -> None:
    """The text report carries the JSON report's meta lines and every block."""
    for key, value in report["meta"].items():
        if f"{key}: {value}" not in text:
            raise CheckError(f"{what}: text report lacks the line '{key}: {value}'")
    for name in report["summaries"]:
        if f"=== {name} summary ===" not in text:
            raise CheckError(f"{what}: text report lacks the {name} block")


class Workload:
    """Base: one round runs the operations named in ``op_names``; ``run_op``
    returns (succeeded, seconds spent in the program)."""

    name = ""
    op_names = ("replicate",)

    def __init__(self, ec, seed: int, work_dir: str) -> None:
        self.ec = ec
        self.seed = seed
        self.work_dir = work_dir
        self.failures: dict[str, str] = {}  # first failure message per operation

    def make_inputs(self) -> None:
        """Generate and write this workload's inputs."""

    def run_op(self, round_index: int, op_index: int) -> tuple[bool, float]:
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError


class PowerWorkload(Workload):
    """One replicate of S2 unbalanced per operation, analytic p-values only."""

    name = "power"

    def make_inputs(self) -> None:
        config = self.ec.built_in_scenario("S2", unbalanced=True)
        gens = (config.generator1, config.generator2)
        if (config.n1, config.n2) != S2_SIZES or tuple(g.theta for g in gens) != S2_THETAS:
            raise CheckError(f"built-in scenario S2 is not the one this benchmark reproduces: {config!r}")
        self.config = replace(config, replicates=1, kappas=KAPPAS, graph_k=GRAPH_K)
        self.results: list[tuple[int, dict]] = []

    def replicate_seed(self, round_index: int) -> int:
        return self.seed * 1_000_003 + round_index + 1  # the warm-up is round -1

    def run_op(self, round_index: int, op_index: int) -> tuple[bool, float]:
        seed = self.replicate_seed(round_index)
        config = replace(self.config, seed=seed)
        start = time.perf_counter()
        try:
            result = self.ec.run_scenario(config)
        except Exception as exc:  # a raising replicate is a failed operation
            self.failures.setdefault("replicate", f"seed {seed}: {exc!r}")
            return False, time.perf_counter() - start
        elapsed = time.perf_counter() - start
        self.results.append((seed, dict(result.rejections)))
        return True, elapsed

    def instance(self, seed: int) -> Instance:
        # run_scenario documents that replicate r draws from the r-th child
        # of the master seed: sample 1 first, then sample 2.
        child = np.random.SeedSequence(seed).spawn(1)[0]
        return s2_sample(S2_SIZES, np.random.default_rng(child))

    def check(self) -> None:
        alpha = self.config.alpha
        for position, (seed, rejections) in enumerate(self.results):
            inst = self.instance(seed)
            ref = Reference.from_instance(inst)
            pvals = ref.analytic_pvalues(KAPPAS)
            if position == 0:
                # A replicate reports only rejections; for the first one, the
                # public functions run_scenario composes are checked in full.
                ec = self.ec
                table = ec.deduplicate(inst.rows, inst.labels, kind="ranking")
                graph = ec.build_knnl(ec.pairwise_distances(table), GRAPH_K)
                check_edge_set(f"power replicate seed {seed}", table, graph, ref)
                values = ec.evaluate_statistics(table, graph, ec.moments(table, graph), KAPPAS)
                for name in SUMMARIES:
                    got = ec.analytic_pvalue_block(values.summary(name))
                    _check_analytic(f"power replicate seed {seed} [{name}]",
                                    {**got, "max": {_fmt(k): v for k, v in got["max"].items()}}, pvals[name])
            for name in SUMMARIES:
                keys = {f"edge_{name}": pvals[name]["edge"],
                        f"generalized_{name}": pvals[name]["generalized"],
                        f"weighted_{name}": pvals[name]["weighted"],
                        f"difference_{name}": pvals[name]["difference"]}
                keys.update({f"max({k:g})_{name}": pvals[name]["max"][k] for k in KAPPAS})
                for key, p in keys.items():
                    if abs(p - alpha) < 1e-6:
                        continue  # too close to the level to call either way
                    if rejections[key] != int(p <= alpha):
                        raise CheckError(
                            f"power replicate seed {seed}: {key} rejected={rejections[key]} "
                            f"but the reference p-value is {p:.6g}"
                        )


class CommandWorkload(Workload):
    """Rounds of in-process ``edgecount test`` commands with JSON reports.

    Every command's JSON report must be byte-identical each time it runs
    with the same arguments; the first copy is checked against the
    reference after measuring.
    """

    commands: dict[str, list[str]] = {}
    mst_labels: tuple[str, ...] = ()  # commands run with --graph mst 3

    def __init__(self, ec, seed: int, work_dir: str) -> None:
        super().__init__(ec, seed, work_dir)
        self.reports: dict[str, str] = {}
        self.texts: dict[str, str] = {}

    @property
    def op_names(self) -> tuple[str, ...]:
        return tuple(self.commands)

    def run_op(self, round_index: int, op_index: int) -> tuple[bool, float]:
        label = list(self.commands)[op_index]
        out_path = os.path.join(self.work_dir, f"{self.name}-{label}.json")
        argv = ["test"] + self.commands[label] + ["--threads", "2", "--output", out_path]
        if os.path.exists(out_path):
            os.remove(out_path)
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.ec.cli.main(argv)
        except Exception as exc:  # a crash is a failed command, not a stop
            code, stderr = None, io.StringIO(repr(exc))
        elapsed = time.perf_counter() - start
        if code != 0:
            self.failures.setdefault(label, f"exit {code}: {stderr.getvalue().strip()}")
            return False, elapsed
        with open(out_path, encoding="utf-8") as fh:
            report = fh.read()
        first = self.reports.setdefault(label, report)
        self.texts.setdefault(label, stdout.getvalue())
        if report != first:
            raise CheckError(f"{self.name} ({label}): JSON report differs between identical runs")
        return True, elapsed

    def check(self) -> None:
        refs = {}
        for label, inst in self.instances.items():
            table = self.ec.load_table(self.paths[label], self.kinds[label])
            dist = self.ec.pairwise_distances(table)
            if label in self.mst_labels:
                # The spanning trees are the program's seeded choice among tied
                # minimal trees; their statistics are checked on that graph.
                obs = self.ec.expand_to_observations(dist, table.value_index)
                graph = self.ec.build_kmst(obs, GRAPH_K, seed=MST_SEED)
                value_index, reps = dedup(inst.rows)
                own = distances(reps, inst.metric)[np.ix_(value_index, value_index)]
                if not holds_minimum_spanning_tree(own, graph.edges):
                    raise CheckError(f"{self.name} ({label}): the k-MST graph holds no minimum spanning tree")
                refs[label] = Reference(inst.labels, np.arange(len(inst.labels)), graph.edges, GRAPH_K)
            else:
                refs[label] = Reference.from_instance(inst)
                check_edge_set(f"{self.name} ({label})", table, self.ec.build_knnl(dist, GRAPH_K), refs[label])
        for label, text in self.reports.items():
            what = f"{self.name} ({label})"
            report = json.loads(text)
            check_text(what, self.texts[label], report)
            check = check_mst_report if label in self.mst_labels else check_nnl_report
            check(what, report, refs[label], report["permutations"] or 0, shuffle_seed=self.seed)


class TestMixWorkload(CommandWorkload):
    """The analyst's default command over a fixed cycle of five inputs."""

    name = "test-mix"
    mst_labels = ("d",)

    def make_inputs(self) -> None:
        rng = seeded(self.seed, 1)
        lattice = np.vstack([rng.integers(0, 5, size=(300, 3)), rng.binomial(4, 0.5, size=(300, 3))])
        networks = read_networks(NETWORKS)
        self.instances = {
            "a": s2_sample(S2_SIZES, seeded(self.seed, 0)),
            "b": Instance(lattice, np.repeat([1, 2], 300), "squared", GRAPH_K),
            "c": networks,
            "d": networks,
            "e": s2_sample((700, 1300), np.random.default_rng(FIXED_SEED_E)),
        }
        self.kinds = {"a": "ranking", "b": "vector", "c": "network", "d": "network", "e": "ranking"}
        self.paths = {"c": NETWORKS, "d": NETWORKS}
        for label in ("a", "b", "e"):
            self.paths[label] = os.path.join(self.work_dir, f"mix-{label}.csv")
            write_csv(self.paths[label], self.instances[label])
        self.commands = {
            "a": ["--input", self.paths["a"], "--kind", "ranking"],
            "b": ["--input", self.paths["b"], "--kind", "vector"],
            "c": ["--input", NETWORKS, "--kind", "network", "--perm", "2000", "--seed", "4"],
            "d": ["--input", NETWORKS, "--kind", "network", "--graph", "mst", "3", "--perm", "2000",
                  "--seed", str(MST_SEED)],
            "e": ["--input", self.paths["e"], "--kind", "ranking"],
        }


class TestPermWorkload(CommandWorkload):
    """Monte Carlo p-values at K ~ 1,000: the permutation engine's load."""

    name = "test-perm"

    def make_inputs(self) -> None:
        rng = seeded(self.seed, 2)
        centers = ((1, 2, 3, 4, 5, 6, 7), (1, 2, 5, 4, 3, 6, 7))
        rows = np.vstack([mallows(7, center, 2.0, 600, rng) for center in centers])
        self.instances = {"p": Instance(rows, np.repeat([1, 2], 600), "squared", GRAPH_K)}
        self.paths = {"p": os.path.join(self.work_dir, "perm.csv")}
        self.kinds = {"p": "ranking"}
        write_csv(self.paths["p"], self.instances["p"])
        self.commands = {"p": ["--input", self.paths["p"], "--kind", "ranking", "--perm", "10000"]}


WORKLOADS = {cls.name: cls for cls in (PowerWorkload, TestMixWorkload, TestPermWorkload)}
