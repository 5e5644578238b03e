"""P-values, calibration, permutation engine, diagnostics, and reports.

Analytic p-values come from the asymptotic permutation-null distributions:
the standardized counts are asymptotically standard normal, the
generalized statistic is chi-square with 2 degrees of freedom, and the
max-type statistic has null CDF Phi(x/kappa) * (2*Phi(x) - 1). Rejection
directions are fixed per statistic: a small between-sample count indicates
separation (lower tail), a large weighted within-count combination or
generalized statistic indicates separation (upper tail), and the
within-count difference is two-sided.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array
from scipy.special import ndtri

from .dataset import DistinctTable
from .errors import InputFormatError
from .graphs import SimilarityGraph, count_graph_family
from .stats import (
    SUMMARIES,
    MomentSet,
    StatisticKernel,
    StatisticValues,
    SummaryMoments,
    SummaryStatistics,
    moments_from_weights,
    summary_weights,
)

#: Rejection direction per statistic kind.
DIRECTIONS = {
    "edge": "lower",
    "weighted": "upper",
    "difference": "two_sided",
    "generalized": "upper",
    "max": "upper",
}

#: Default max-statistic kappas: about ``solve_kappa(gamma)`` for error-split
#: ratios gamma = 2, 1 and 0.5 at alpha = 0.05.
DEFAULT_KAPPAS = (1.31, 1.14, 1.0)

# A permutation chunk holds at most this many bytes per B x K float64 block,
# so a large K shrinks the chunk instead of multiplying memory by the
# thread count. Blocks of a few MB also keep the sparse products in cache:
# at K = 1,051 the kernel ran at 17 us per draw with 256 to 1,024 rows and
# at 24 us with 2,048.
_PERM_CHUNK_BYTES = 4 * 2**20
_PERM_MAX_ROWS = 2048
# Sampler rule: numpy's "count" method costs 6.5 to 11 ns per observation per
# draw, "marginals" about 0.15 us per distinct value per draw, so "count"
# wins while N is at most about 20 K.
_COUNT_SAMPLER_MAX_RATIO = 20
# Slack for "at least as extreme" comparisons between floating-point
# statistics: exact mathematical ties must count as hits even when the two
# sides were rounded differently.
_PERM_REL_TOL = 1e-9


def normal_cdf(x: float) -> float:
    """Standard normal CDF, absolute error below 1e-12."""
    return 0.5 * math.erfc(-float(x) / math.sqrt(2.0))


def normal_quantile(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise ValueError("quantile argument must be in (0, 1)")
    return float(ndtri(p))


def normal_sf(x: float) -> float:
    """Standard normal upper tail Q(x) = 1 - Phi(x), without cancellation."""
    return 0.5 * math.erfc(float(x) / math.sqrt(2.0))


def max_null_cdf(x: float, kappa: float) -> float:
    """Asymptotic null CDF of the max-type statistic (supported on x >= 0)."""
    if kappa <= 0:
        raise InputFormatError("kappa must be positive")
    if x <= 0:
        return 0.0
    return normal_cdf(x / kappa) * (2.0 * normal_cdf(x) - 1.0)


def pvalue_analytic(kind: str, value: float, kappa: float | None = None) -> float:
    """Analytic p-value of one statistic from its asymptotic null."""
    if kind == "edge":
        return normal_cdf(value)
    if kind == "weighted":
        return normal_sf(value)
    if kind == "difference":
        return math.erfc(abs(float(value)) / math.sqrt(2.0))
    if kind == "generalized":
        if value < 0:
            raise ValueError("the generalized statistic cannot be negative")
        return math.exp(-value / 2.0)
    if kind == "max":
        if kappa is None:
            raise InputFormatError("max statistic needs a kappa")
        if kappa <= 0:
            raise InputFormatError("kappa must be positive")
        if value <= 0:
            return 1.0
        # 1 - Phi(x/kappa) * (2 Phi(x) - 1), expanded into upper tails so it
        # stays positive far past the point where Phi rounds to 1.
        qa, qb = normal_sf(value / kappa), normal_sf(value)
        return qa + 2.0 * qb - 2.0 * qa * qb
    raise InputFormatError(f"unknown statistic kind {kind!r}")


def analytic_pvalue_block(stats: SummaryStatistics) -> dict:
    """Analytic p-values for every statistic in one summary block."""
    return {
        "edge": pvalue_analytic("edge", stats.edge_z),
        "weighted": pvalue_analytic("weighted", stats.weighted_z),
        "difference": pvalue_analytic("difference", stats.difference_z),
        "generalized": pvalue_analytic("generalized", stats.generalized),
        "max": {
            kappa: pvalue_analytic("max", value, kappa)
            for kappa, value in stats.max_stats.items()
        },
    }


def solve_kappa(gamma: float, alpha: float = 0.05) -> tuple[float, float]:
    """Calibrate the max-type statistic's kappa from an error-split ratio.

    gamma is the desired ratio of type-I error spent on the weighted tail
    to error spent on the difference tail. With tail masses a1 = 1 -
    Phi(beta/kappa) and a2 = 2 * (1 - Phi(beta)), solves a1 = gamma * a2
    jointly with the exact overall level 1 - Phi(beta/kappa) * (2 *
    Phi(beta) - 1) = alpha; the system reduces to a quadratic in a2.
    Returns (kappa, beta) where beta is the rejection threshold.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    disc = (1.0 + gamma) ** 2 - 4.0 * gamma * alpha
    a2 = ((1.0 + gamma) - math.sqrt(disc)) / (2.0 * gamma)
    a1 = gamma * a2
    if not (0.0 < a1 < 1.0 and 0.0 < a2 < 1.0):
        raise ValueError(f"no valid error split for gamma={gamma}, alpha={alpha}")
    beta = normal_quantile(1.0 - a2 / 2.0)
    denom = normal_quantile(1.0 - a1)
    if denom <= 0 or beta <= 0:
        raise ValueError(f"no positive threshold for gamma={gamma}, alpha={alpha}")
    return beta / denom, beta


def _extreme_hits(perm: np.ndarray, observed: float, direction: str) -> int:
    tol = _PERM_REL_TOL * max(1.0, abs(observed))
    if direction == "upper":
        return int((perm >= observed - tol).sum())
    if direction == "lower":
        return int((perm <= observed + tol).sum())
    if direction == "two_sided":
        return int((np.abs(perm) >= abs(observed) - tol).sum())
    raise InputFormatError(f"unknown direction {direction!r}")


def _chunk_hits(kernel: StatisticKernel, counts: np.ndarray, observed: StatisticValues) -> dict:
    values = kernel.evaluate(counts)
    hits: dict = {}
    for name in SUMMARIES:
        block = values[name]
        obs = observed.summary(name)
        hits[name] = {
            kind: _extreme_hits(block[field], getattr(obs, field), DIRECTIONS[kind])
            for kind, field in (
                ("edge", "edge_z"),
                ("weighted", "weighted_z"),
                ("difference", "difference_z"),
                ("generalized", "generalized"),
            )
        }
        hits[name]["max"] = {
            kappa: _extreme_hits(block["max_stats"][kappa], obs.max_stats[kappa], DIRECTIONS["max"])
            for kappa in kernel.kappas
        }
    return hits


def _chunk_rows(n_values: int) -> int:
    """Draws per permutation chunk: at most _PERM_CHUNK_BYTES per B x K block."""
    return max(1, min(_PERM_MAX_ROWS, _PERM_CHUNK_BYTES // (8 * n_values)))


def _sampler_method(n_total: int, n_values: int) -> str:
    """The cheaper multivariate hypergeometric method for N observations on K values."""
    return "count" if n_total <= _COUNT_SAMPLER_MAX_RATIO * n_values else "marginals"


def permutation_pvalues(
    kernel: StatisticKernel, n_perm: int = 10000, seed: int = 0, threads: int = 1
) -> dict:
    """Monte-Carlo permutation p-values for every statistic, both summaries.

    ``kernel`` is the instance's ``StatisticKernel``: its table, moments and
    kappas fix the instance, and it evaluates the observed labeling and
    every draw. Uniform label assignments are sampled through their
    per-value count vectors (multivariate hypergeometric), and the counts
    are sparse quadratic forms in those vectors, so B draws cost
    O(B (K + |C0|)) time and O(B K) memory. The add-one estimator
    (1 + hits)/(1 + B) keeps every p-value valid and positive. Draws are
    generated in chunks whose size depends only on K, with one child seed
    per chunk, so the result depends only on (seed, B, K) for a given
    instance, not on the thread count. Each worker thread holds one chunk,
    so ``threads`` multiplies the memory bound.
    """
    if n_perm < 1:
        raise InputFormatError("need at least one permutation")
    table = kernel.table
    observed = kernel.evaluate_one()

    m = [int(x) for x in table.multiplicity]
    n1 = table.n1
    method = _sampler_method(table.n_total, table.n_values)
    rows = _chunk_rows(table.n_values)
    sizes = [rows] * (n_perm // rows)
    if n_perm % rows:
        sizes.append(n_perm % rows)
    children = np.random.SeedSequence(seed).spawn(len(sizes))

    def run_chunk(i: int) -> dict:
        rng = np.random.default_rng(children[i])
        counts = rng.multivariate_hypergeometric(m, n1, size=sizes[i], method=method)
        return _chunk_hits(kernel, counts, observed)

    if threads > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunk_results = list(pool.map(run_chunk, range(len(sizes))))
    else:
        chunk_results = [run_chunk(i) for i in range(len(sizes))]

    def pvalue(hits) -> float:
        return (1 + sum(hits)) / (1 + n_perm)

    out: dict = {}
    for name in SUMMARIES:
        out[name] = {
            key: pvalue(res[name][key] for res in chunk_results)
            for key in ("edge", "weighted", "difference", "generalized")
        }
        out[name]["max"] = {
            kappa: pvalue(res[name]["max"][kappa] for res in chunk_results)
            for kappa in kernel.kappas
        }
    return out


@dataclass(frozen=True)
class Diagnostics:
    """Scale-free ratios behind the asymptotic validity conditions.

    Warnings flag regimes where the normal/chi-square approximations are
    shaky and permutation p-values should be preferred; they are never
    errors, because the statistics themselves remain exact.
    """

    ratios: dict[str, float]
    warnings: list[str] = field(default_factory=list)


def _third_moment_sum(c0: SimilarityGraph, m: np.ndarray, inc: np.ndarray) -> int:
    """Sum over union-graph nodes of degree times the edges touching their neighbourhood.

    Exact, from C0 (adjacency A, M = diag(m)) alone, in O(K + |C0| max degree).
    An observation of value u has degree inc_u = m_u - 1 + (Am)_u, passed in
    (the union summary's ``SummaryWeights.degree``; C0's degrees when every
    m_u = 1), and its neighbourhood (the other m_u - 1 copies of u and the
    blocks of u's C0 neighbours) has degree sum (m_u - 1) inc_u +
    (A(m inc))_u; the edges touching it are that sum less the edges inside
    it: C(m_u - 1, 2) among the copies, (A C(m, 2))_u within blocks,
    (m_u - 1)(Am)_u from copies to blocks and rowsum((AM AM) o A)_u / 2
    between blocks. With every m_u = 1 the union graph is C0 itself.
    """
    k = c0.n_nodes
    m = np.asarray(m, dtype=np.int64)
    rows, cols = np.concatenate([c0.edge_array, c0.edge_array[:, ::-1]]).T
    adj = csr_array((np.ones(rows.size, dtype=np.int64), (rows, cols)), shape=(k, k))
    adj_m = csr_array((m[cols], (rows, cols)), shape=(k, k))
    mass = adj @ m
    inside = (
        (m - 1) * (m - 2) // 2 + adj @ (m * (m - 1) // 2) + (m - 1) * mass
        + (adj_m @ adj_m).multiply(adj).sum(axis=1) // 2
    )
    touching = (m - 1) * inc + adj @ (m * inc) - inside
    return int((m.astype(object) * inc * touching).sum())


def condition_diagnostics(table: DistinctTable, c0: SimilarityGraph) -> Diagnostics:
    """Evaluate the finite-sample analogues of the asymptotic conditions."""
    weights = summary_weights(table.multiplicity, c0)
    return _diagnostics(table, c0, weights, moments_from_weights(table, weights))


def _diagnostics(table: DistinctTable, c0: SimilarityGraph, weights: dict, mset: MomentSet) -> Diagnostics:
    """``condition_diagnostics`` from the instance's ``summary_weights`` and moments.

    The variety ratios are the degree spreads C over 4N (average) and N
    (union): each is zero exactly when that summary's difference has zero variance.
    """
    n = table.n_total
    k = table.n_values
    third_avg = _third_moment_sum(c0, np.ones(k, dtype=np.int64), c0.degrees)
    third_union = _third_moment_sum(c0, table.multiplicity, weights["union"].degree)

    ratios = {
        "graph_size_ratio": c0.n_edges / n,
        "distinct_value_ratio": k / n,
        "inverse_multiplicity_ratio": float((1.0 / table.multiplicity).sum()) / n,
        "degree_variety_ratio": weights["average"].degree_spread / (4 * n),
        "union_size_ratio": weights["union"].total / n,
        "union_variety_ratio": weights["union"].degree_spread / n,
        "third_moment_ratio_average": third_avg / n**1.5,
        "third_moment_ratio_union": third_union / n**1.5,
    }
    warnings = []
    if ratios["degree_variety_ratio"] < 1e-3:
        warnings.append(
            "degree variety is nearly zero (average summary): the difference "
            "statistic is close to degenerate; prefer permutation p-values"
        )
    if ratios["union_variety_ratio"] < 1e-3:
        warnings.append(
            "incident-count variety is nearly zero (union summary): the "
            "difference statistic is close to degenerate; prefer permutation p-values"
        )
    for name in SUMMARIES:
        if ratios[f"third_moment_ratio_{name}"] > 1.0:
            warnings.append(
                f"third-moment sum is large ({name} summary): normal approximation "
                "may be poor; prefer permutation p-values"
            )
    for name in SUMMARIES:
        for stat in mset.summary(name).degenerate_statistics():
            warnings.append(f"null variance of {stat} ({name} summary) is zero")
    return Diagnostics(ratios=ratios, warnings=warnings)


def _format_kappa(kappa: float) -> str:
    return f"{kappa:g}"


def _pvalues_json(pvalues: dict) -> dict:
    """A p-value block with its kappas keyed as printed."""
    return {**pvalues, "max": {_format_kappa(k): v for k, v in pvalues["max"].items()}}


@dataclass(frozen=True)
class SummaryBlock:
    """Everything reported for one summary (or one fixed graph)."""

    name: str
    statistics: SummaryStatistics
    moments: SummaryMoments
    analytic: dict
    permutation: dict | None = None


@dataclass(frozen=True)
class TestReport:
    meta: dict
    blocks: tuple[SummaryBlock, ...]
    kappas: tuple[float, ...]
    diagnostics: Diagnostics | None = None
    seed: int | None = None
    permutations: int | None = None
    timestamp: str | None = None

    def block(self, name: str) -> SummaryBlock:
        for blk in self.blocks:
            if blk.name == name:
                return blk
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        out = {
            "meta": dict(self.meta),
            "kappas": list(self.kappas),
            "seed": self.seed,
            "permutations": self.permutations,
            "summaries": {},
        }
        if self.timestamp is not None:
            out["timestamp"] = self.timestamp
        for blk in self.blocks:
            stats = blk.statistics
            moms = blk.moments
            entry = {
                "counts": {
                    "between": stats.between,
                    "within1": stats.within1,
                    "within2": stats.within2,
                    "weighted": stats.weighted,
                    "difference": stats.difference,
                },
                "null_moments": {
                    "total": moms.total,
                    "between": {"mean": moms.mean_between, "sd": math.sqrt(moms.var_between)},
                    "within1": {"mean": moms.mean_within1, "sd": math.sqrt(moms.var_within1)},
                    "within2": {"mean": moms.mean_within2, "sd": math.sqrt(moms.var_within2)},
                    "weighted": {"mean": moms.mean_weighted, "sd": math.sqrt(moms.var_weighted)},
                    "difference": {
                        "mean": moms.mean_difference,
                        "sd": math.sqrt(moms.var_difference),
                    },
                },
                "z_scores": {
                    "edge": stats.edge_z,
                    "weighted": stats.weighted_z,
                    "difference": stats.difference_z,
                },
                "statistics": {
                    "generalized": stats.generalized,
                    "max": {_format_kappa(k): v for k, v in stats.max_stats.items()},
                },
                "p_analytic": _pvalues_json(blk.analytic),
            }
            if blk.permutation is not None:
                entry["p_permutation"] = _pvalues_json(blk.permutation)
            out["summaries"][blk.name] = entry
        if self.diagnostics is not None:
            out["diagnostics"] = {
                "ratios": dict(self.diagnostics.ratios),
                "warnings": list(self.diagnostics.warnings),
            }
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = []
        for key, value in self.meta.items():
            lines.append(f"{key}: {value}")
        if self.seed is not None:
            lines.append(f"seed: {self.seed}")
        if self.permutations is not None:
            lines.append(f"permutations: {self.permutations}")
        if self.timestamp is not None:
            lines.append(f"timestamp: {self.timestamp}")
        for blk in self.blocks:
            stats, moms = blk.statistics, blk.moments
            lines.append("")
            lines.append(f"=== {blk.name} summary ===")
            lines.append(
                f"{'count':<22}{'value':>12}{'mean':>12}{'value-mean':>12}{'sd':>10}"
            )
            rows = [
                ("within1", stats.within1, moms.mean_within1, math.sqrt(moms.var_within1)),
                ("within2", stats.within2, moms.mean_within2, math.sqrt(moms.var_within2)),
                (
                    "(within1+within2)/2",
                    (stats.within1 + stats.within2) / 2.0,
                    (moms.mean_within1 + moms.mean_within2) / 2.0,
                    math.sqrt(max(moms.var_between, 0.0)) / 2.0,
                ),
                ("weighted", stats.weighted, moms.mean_weighted, math.sqrt(moms.var_weighted)),
                ("difference", stats.difference, moms.mean_difference, math.sqrt(moms.var_difference)),
                ("between", stats.between, moms.mean_between, math.sqrt(moms.var_between)),
            ]
            for label, value, mean, sd in rows:
                lines.append(
                    f"{label:<22}{value:>12.2f}{mean:>12.2f}{value - mean:>12.2f}{sd:>10.2f}"
                )
            lines.append("")
            header = f"{'statistic':<18}{'value':>10}{'p-analytic':>12}"
            has_perm = blk.permutation is not None
            if has_perm:
                header += f"{'p-perm':>10}"
            lines.append(header)
            stat_rows = [
                ("edge z", stats.edge_z, blk.analytic["edge"],
                 blk.permutation["edge"] if has_perm else None),
                ("generalized", stats.generalized, blk.analytic["generalized"],
                 blk.permutation["generalized"] if has_perm else None),
                ("weighted z", stats.weighted_z, blk.analytic["weighted"],
                 blk.permutation["weighted"] if has_perm else None),
                ("|difference z|", abs(stats.difference_z), blk.analytic["difference"],
                 blk.permutation["difference"] if has_perm else None),
            ]
            for kappa in self.kappas:
                stat_rows.append(
                    (
                        f"max({_format_kappa(kappa)})",
                        stats.max_stats[kappa],
                        blk.analytic["max"][kappa],
                        blk.permutation["max"][kappa] if has_perm else None,
                    )
                )
            for label, value, p_ana, p_perm in stat_rows:
                row = f"{label:<18}{value:>10.2f}{p_ana:>12.4f}"
                if has_perm:
                    row += f"{p_perm:>10.4f}"
                lines.append(row)
        if self.diagnostics is not None:
            lines.append("")
            lines.append("diagnostics:")
            for key, value in self.diagnostics.ratios.items():
                lines.append(f"  {key}: {value:.6g}")
            for warning in self.diagnostics.warnings:
                lines.append(f"  warning: {warning}")
        return "\n".join(lines) + "\n"


def analyze(
    table: DistinctTable,
    c0: SimilarityGraph,
    kappas: tuple[float, ...] = DEFAULT_KAPPAS,
    n_perm: int | None = None,
    seed: int = 0,
    threads: int = 1,
    graph_rule: str | None = None,
    timestamp: str | None = None,
) -> TestReport:
    """Full distinct-value pipeline: moments, statistics, p-values, report."""
    kernel = StatisticKernel(table, c0, kappas=kappas)
    mset = kernel.mset
    values = kernel.evaluate_one()
    perm = None
    if n_perm:
        perm = permutation_pvalues(kernel, n_perm, seed, threads)
    blocks = []
    for name in SUMMARIES:
        stats = values.summary(name)
        blocks.append(
            SummaryBlock(
                name=name,
                statistics=stats,
                moments=mset.summary(name),
                analytic=analytic_pvalue_block(stats),
                permutation=perm[name] if perm else None,
            )
        )
    meta = {
        "observations": table.n_total,
        "sample_sizes": [table.n1, table.n2],
        "distinct_values": table.n_values,
        "repeated_values": table.n_repeated_values,
        "graph_rule": graph_rule or "user-supplied",
        "graph_edges": c0.n_edges,
        "graph_family_size": str(count_graph_family(c0, table)),
        "union_graph_size": kernel.weights["union"].total,
    }
    return TestReport(
        meta=meta,
        blocks=tuple(blocks),
        kappas=tuple(kappas),
        diagnostics=_diagnostics(table, c0, kernel.weights, mset),
        seed=seed if n_perm else None,
        permutations=n_perm,
        timestamp=timestamp,
    )


def analyze_fixed_graph(
    graph: SimilarityGraph,
    labels,
    kappas: tuple[float, ...] = DEFAULT_KAPPAS,
    n_perm: int | None = None,
    seed: int = 0,
    threads: int = 1,
    graph_rule: str | None = None,
    timestamp: str | None = None,
) -> TestReport:
    """Single fixed observation-level graph pipeline (per-graph statistics).

    Shows the graph-choice sensitivity: rerunning with another seed's tree
    over tied distances can move every p-value.
    """
    labels = np.asarray(labels, dtype=np.int64)
    # A fixed graph is the all-multiplicities-one table, whose union block
    # is the plain statistics on that graph (as in pergraph_statistics).
    table = DistinctTable(labels=labels, value_index=np.arange(labels.size), n_values=labels.size)
    kernel = StatisticKernel(table, graph, kappas=kappas)
    mset = kernel.mset
    stats = kernel.evaluate_one().union
    perm_block = None
    if n_perm:
        perm_block = permutation_pvalues(kernel, n_perm, seed, threads)["union"]
    block = SummaryBlock(
        name="fixed-graph",
        statistics=stats,
        moments=mset.union,
        analytic=analytic_pvalue_block(stats),
        permutation=perm_block,
    )
    meta = {
        "observations": table.n_total,
        "sample_sizes": [table.n1, table.n2],
        "graph_rule": graph_rule or "user-supplied",
        "graph_edges": graph.n_edges,
    }
    return TestReport(
        meta=meta,
        blocks=(block,),
        kappas=tuple(kappas),
        diagnostics=None,
        seed=seed if n_perm else None,
        permutations=n_perm,
        timestamp=timestamp,
    )
