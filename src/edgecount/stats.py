"""Edge-count two-sample statistics and their exact permutation-null moments.

Every statistic exists in two flavors per graph C0 on the distinct values:
the "average" summary (arithmetic mean over the whole induced family of
observation-level graphs, in closed form) and the "union" summary (the
statistic evaluated on the family's edge union). Both are functions of the
per-value sample-1 count vector alone, so the permutation engine never
touches observation-level graphs: each draw costs O(K + |C0|).

Raw counts per summary: the between-sample count, and the two within-sample
counts. Derived statistics: the standardized between count (low values
indicate separation), the variance-minimizing weighted combination of the
within counts, their standardized difference, the generalized statistic
(sum of the two squared z-scores), and the max-type statistic
max(kappa * weighted z, |difference z|).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy.sparse import csr_array

from .dataset import DistinctTable
from .errors import DegenerateNullError, InputFormatError
from .graphs import SimilarityGraph, UnionGraphSummary, union_graph_summary

DEGENERATE_REL_TOL = 1e-9

SUMMARIES = ("average", "union")


def _is_degenerate(var: float, mean: float) -> bool:
    return var < DEGENERATE_REL_TOL * max(1.0, mean * mean)


def _checked_var(var: float, mean: float, name: str) -> float:
    if var < -DEGENERATE_REL_TOL * max(1.0, mean * mean):
        raise ValueError(f"negative variance for {name}: {var}")
    return max(var, 0.0)


@dataclass(frozen=True)
class NullConstants:
    """Permutation-null label-pattern probabilities.

    p1 is the chance two fixed pooled observations both land in sample 1,
    p2/p3 extend to three/four observations; q1..q3 are the sample-2
    analogues and f1 the mixed four-observation pattern.
    """

    p1: float
    p2: float
    p3: float
    q1: float
    q2: float
    q3: float
    f1: float

    @classmethod
    def from_sizes(cls, n1: int, n2: int) -> "NullConstants":
        # Products of ratios, never factorial quotients: stays finite at huge N.
        n = n1 + n2
        p1 = (n1 / n) * ((n1 - 1) / (n - 1))
        p2 = p1 * ((n1 - 2) / (n - 2))
        p3 = p2 * ((n1 - 3) / (n - 3))
        q1 = (n2 / n) * ((n2 - 1) / (n - 1))
        q2 = q1 * ((n2 - 2) / (n - 2))
        q3 = q2 * ((n2 - 3) / (n - 3))
        f1 = (n1 / n) * ((n1 - 1) / (n - 1)) * (n2 / (n - 2)) * ((n2 - 1) / (n - 3))
        return cls(p1, p2, p3, q1, q2, q3, f1)


@dataclass(frozen=True)
class SummaryMoments:
    """Null moments of the counts under one summary.

    ``total`` is the constant value of between + within1 + within2, so the
    between-count moments follow from the within-count ones by complement.
    """

    total: float
    mean_within1: float
    var_within1: float
    mean_within2: float
    var_within2: float
    cov_within: float
    mean_weighted: float
    var_weighted: float
    mean_difference: float
    var_difference: float

    @property
    def mean_between(self) -> float:
        return self.total - self.mean_within1 - self.mean_within2

    @property
    def var_between(self) -> float:
        return self.var_within1 + self.var_within2 + 2.0 * self.cov_within

    def degenerate_statistics(self) -> list[str]:
        """Names of z-scored statistics whose null variance has collapsed."""
        out = []
        if _is_degenerate(self.var_between, self.mean_between):
            out.append("edge")
        if _is_degenerate(self.var_weighted, self.mean_weighted):
            out.append("weighted")
        if _is_degenerate(self.var_difference, self.mean_difference):
            out.append("difference")
        return out


@dataclass(frozen=True)
class MomentSet:
    """All null moments for one instance, both summaries."""

    n1: int
    n2: int
    average: SummaryMoments
    union: SummaryMoments
    constants: NullConstants

    @property
    def n_total(self) -> int:
        return self.n1 + self.n2

    @property
    def pooled_weight(self) -> float:
        """The variance-minimizing weight on within2: (n1 - 1)/(N - 2)."""
        return (self.n1 - 1) / (self.n_total - 2)

    def summary(self, name: str) -> SummaryMoments:
        if name not in SUMMARIES:
            raise InputFormatError(f"unknown summary {name!r}")
        return self.average if name == "average" else self.union

    def require_nondegenerate(self) -> None:
        for name in SUMMARIES:
            bad = self.summary(name).degenerate_statistics()
            if bad:
                raise DegenerateNullError(
                    f"null variance of {bad[0]} ({name} summary) is zero; "
                    "the permutation distribution is degenerate"
                )


@dataclass(frozen=True)
class CountTriple:
    between: float
    within1: float
    within2: float


@dataclass(frozen=True)
class ExtendedCounts:
    average: CountTriple
    union: CountTriple

    def summary(self, name: str) -> CountTriple:
        if name not in SUMMARIES:
            raise InputFormatError(f"unknown summary {name!r}")
        return self.average if name == "average" else self.union


@dataclass(frozen=True)
class SummaryStatistics:
    """Raw and standardized statistics under one summary."""

    between: float
    within1: float
    within2: float
    weighted: float
    difference: float
    edge_z: float
    weighted_z: float
    difference_z: float
    generalized: float
    max_stats: Mapping[float, float]


@dataclass(frozen=True)
class StatisticValues:
    average: SummaryStatistics
    union: SummaryStatistics

    def summary(self, name: str) -> SummaryStatistics:
        if name not in SUMMARIES:
            raise InputFormatError(f"unknown summary {name!r}")
        return self.average if name == "average" else self.union


def _resolve_counts1(table: DistinctTable, counts1) -> np.ndarray:
    if counts1 is None:
        return np.asarray(table.counts1, dtype=np.int64)
    arr = np.asarray(counts1, dtype=np.int64)
    if arr.shape != (table.n_values,):
        raise InputFormatError("counts1 must have one entry per distinct value")
    if (arr < 0).any() or (arr > table.multiplicity).any():
        raise InputFormatError("counts1 entries must lie in [0, multiplicity]")
    if int(arr.sum()) != table.n1:
        raise InputFormatError("counts1 must sum to the sample-1 size")
    return arr


class WithinForms:
    """Within-sample counts of both summaries as sparse quadratic forms.

    Per summary, each value u has a self-pair weight d_u and each edge of
    C0 a weight w_uv. With the sparse matrix U holding d on its diagonal and
    each edge's weight once (row u, column v), and ``total`` the constant
    between + within1 + within2, the within counts of a per-value sample-1
    count vector c1 with multiplicities m are

        within1 = c1'U c1 - c1.d
        within2 = total + c1'U c1 - c1.((U + U')m - d)

    so a batch of draws never forms the sample-2 counts m - c1. The average
    summary has d = 1/m and w = 1/(m_u m_v); the union summary has d = 1/2
    and w = 1, which keeps its counts exact integers in float64. Count
    matrices are K x B: one column per labeling.
    """

    def __init__(self, multiplicity, c0: SimilarityGraph) -> None:
        m_int = np.asarray(multiplicity, dtype=np.int64)
        k = m_int.size
        if c0.n_nodes != k:
            raise InputFormatError("graph and table disagree on the number of distinct values")
        self._multiplicity = m_int
        m = m_int.astype(np.float64)
        ea = c0.edge_array
        ea = ea[np.argsort(ea[:, 0], kind="stable")]
        u, v = ea[:, 0], ea[:, 1]
        # CSR layout shared by both summaries: row r holds its diagonal entry,
        # then the edges (r, v); with edges sorted by u, edge i lands at i + u + 1.
        indptr = np.concatenate([[0], np.cumsum(np.bincount(u, minlength=k) + 1)])
        diag_at = indptr[:-1]
        edge_at = np.arange(u.size) + u + 1
        indices = np.empty(k + u.size, dtype=np.int64)
        indices[diag_at] = np.arange(k)
        indices[edge_at] = v
        self._forms: dict[str, tuple] = {}
        for name, self_weight, edge_weight, total in (
            ("average", 1.0 / m, 1.0 / (m[u] * m[v]),
             int(m_int.sum()) - k + c0.n_edges),
            ("union", np.full(k, 0.5), np.ones(u.size),
             int((m_int * (m_int - 1) // 2).sum()) + int((m_int[u] * m_int[v]).sum())),
        ):
            data = np.empty(k + u.size)
            data[diag_at] = self_weight
            data[edge_at] = edge_weight
            q = csr_array((data, indices, indptr), shape=(k, k))
            within2_linear = q @ m + q.T @ m - self_weight
            self._forms[name] = (q, self_weight, within2_linear, float(total))

    def total(self, name: str) -> float:
        return self._forms[name][3]

    def _within1(self, ct: np.ndarray) -> dict[str, np.ndarray]:
        return {name: _quadratic(q, ct) - _dot(d, ct) for name, (q, d, _, _) in self._forms.items()}

    def one(self, counts1: np.ndarray) -> dict[str, tuple[float, float]]:
        """(within1, within2) per summary for a single labeling.

        within2 is within1 of the sample-2 counts m - c1, not the c1-only
        expansion, so swapping the samples swaps the two counts bit for bit.
        """
        within1 = self._within1(counts1[:, None].astype(np.float64))
        within2 = self._within1((self._multiplicity - counts1)[:, None].astype(np.float64))
        return {name: (float(within1[name][0]), float(within2[name][0])) for name in self._forms}

    def __call__(self, ct: np.ndarray) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """(within1, within2) per summary, from the sample-1 counts alone."""
        out = {}
        for name, (q, d, b, total) in self._forms.items():
            quad = _quadratic(q, ct)
            out[name] = (quad - _dot(d, ct), total + quad - _dot(b, ct))
        return out


def _quadratic(q, ct: np.ndarray) -> np.ndarray:
    """Column-wise c'U c for the columns c of ct."""
    prod = q @ ct
    prod *= ct
    return prod.sum(axis=0)


def _dot(weights: np.ndarray, ct: np.ndarray) -> np.ndarray:
    """weights.c for the columns c of ct.

    einsum rather than a BLAS product: a multithreaded BLAS spins its own
    threads on this small product and stalls the permutation worker threads.
    """
    return np.einsum("k,kb->b", weights, ct)


def extended_counts(table: DistinctTable, c0: SimilarityGraph, counts1=None) -> ExtendedCounts:
    """Raw between/within counts under both summaries.

    ``counts1`` optionally replaces the table's own per-value sample-1
    counts by a hypothetical relabeling with the same multiplicities.
    """
    forms = WithinForms(table.multiplicity, c0)
    triples = {
        name: CountTriple(forms.total(name) - (w1 + w2), w1, w2)
        for name, (w1, w2) in forms.one(_resolve_counts1(table, counts1)).items()
    }
    return ExtendedCounts(average=triples["average"], union=triples["union"])


def _average_summary_moments(
    table: DistinctTable, c0: SimilarityGraph, consts: NullConstants
) -> SummaryMoments:
    n1, n2 = table.n1, table.n2
    n = table.n_total
    k = table.n_values
    m = table.multiplicity.astype(np.float64)
    deg = c0.degrees.astype(np.float64)
    n_edges = c0.n_edges
    ea = c0.edge_array

    total = n - k + n_edges
    a_sum = n - k + 2 * n_edges + float((deg * deg / (4.0 * m)).sum() - (deg / m).sum())
    c_sum = float((1.0 / (m[ea[:, 0]] * m[ea[:, 1]])).sum()) if n_edges else 0.0
    d_sum = k - float((1.0 / m).sum())
    # Degree-variety term: zero exactly when every value has degree 2 and
    # |C0| = K (a cycle), the case where the difference statistic degenerates.
    cond3 = float(((deg - 2.0) ** 2 / (4.0 * m)).sum()) - (n_edges - k) ** 2 / n

    p1, p2, p3 = consts.p1, consts.p2, consts.p3
    q1, q2, q3 = consts.q1, consts.q2, consts.q3
    f1 = consts.f1

    mean_w1 = total * p1
    mean_w2 = total * q1
    var_w1 = (
        4.0 * (p2 - p3) * a_sum
        + (p3 - p1 * p1) * total * total
        + (p1 - 2.0 * p2 + p3) * c_sum
        + 2.0 * (p1 - 4.0 * p2 + 3.0 * p3) * d_sum
    )
    var_w2 = (
        4.0 * (q2 - q3) * a_sum
        + (q3 - q1 * q1) * total * total
        + (q1 - 2.0 * q2 + q3) * c_sum
        + 2.0 * (q1 - 4.0 * q2 + 3.0 * q3) * d_sum
    )
    cov = (f1 - p1 * q1) * total * total + f1 * (-4.0 * a_sum + 6.0 * d_sum + c_sum)

    mean_wt = total * ((n1 - 1) * (n2 - 1)) / ((n - 1) * (n - 2))
    var_wt = f1 * (
        -4.0 / (n - 2) * cond3
        + 2.0 * d_sum
        + c_sum
        - 2.0 * (n_edges + n - k) ** 2 / (n * (n - 1))
    )
    mean_diff = total * (n1 - n2) / n
    var_diff = 4.0 * n1 * n2 / (n * (n - 1)) * cond3

    return SummaryMoments(
        total=float(total),
        mean_within1=mean_w1,
        var_within1=_checked_var(var_w1, mean_w1, "within1 (average summary)"),
        mean_within2=mean_w2,
        var_within2=_checked_var(var_w2, mean_w2, "within2 (average summary)"),
        cov_within=cov,
        mean_weighted=mean_wt,
        var_weighted=_checked_var(var_wt, mean_wt, "weighted (average summary)"),
        mean_difference=mean_diff,
        var_difference=_checked_var(var_diff, mean_diff, "difference (average summary)"),
    )


def _union_shape_moments(
    size: float, sum_ee1: float, sum_e2: float, n1: int, n2: int, consts: NullConstants
) -> SummaryMoments:
    """Moments of counts on a FIXED graph with ``size`` edges.

    Only the edge count and the per-node incident-count sums enter, so the
    same shapes serve the union summary and arbitrary observation-level
    graphs.
    """
    n = n1 + n2
    p1, p2, p3 = consts.p1, consts.p2, consts.p3
    q1, q2, q3 = consts.q1, consts.q2, consts.q3
    f1 = consts.f1

    mean_w1 = size * p1
    mean_w2 = size * q1
    var_w1 = (p1 - p3) * size + (p2 - p3) * sum_ee1 + (p3 - p1 * p1) * size * size
    var_w2 = (q1 - q3) * size + (q2 - q3) * sum_ee1 + (q3 - q1 * q1) * size * size
    cov = f1 * (size * size - size - sum_ee1) - p1 * q1 * size * size

    mean_wt = size * ((n1 - 1) * (n2 - 1)) / ((n - 1) * (n - 2))
    var_wt = f1 * (size - sum_e2 / (n - 2) + 2.0 * size * size / ((n - 1) * (n - 2)))
    mean_diff = size * (n1 - n2) / n
    var_diff = n1 * n2 / (n * (n - 1.0)) * (sum_e2 - 4.0 * size * size / n)

    return SummaryMoments(
        total=float(size),
        mean_within1=mean_w1,
        var_within1=_checked_var(var_w1, mean_w1, "within1 (union summary)"),
        mean_within2=mean_w2,
        var_within2=_checked_var(var_w2, mean_w2, "within2 (union summary)"),
        cov_within=cov,
        mean_weighted=mean_wt,
        var_weighted=_checked_var(var_wt, mean_wt, "weighted (union summary)"),
        mean_difference=mean_diff,
        var_difference=_checked_var(var_diff, mean_diff, "difference (union summary)"),
    )


def moments(
    table: DistinctTable,
    c0: SimilarityGraph,
    union: UnionGraphSummary | None = None,
    require_nondegenerate: bool = True,
) -> MomentSet:
    """Exact null moments of every count statistic under both summaries.

    With ``require_nondegenerate`` (the default) a collapsed null variance
    raises a degenerate-null error naming the offending statistic; pass
    False to inspect the raw moments anyway.
    """
    if c0.n_nodes != table.n_values:
        raise InputFormatError("graph and table disagree on the number of distinct values")
    if table.n_total < 4:
        raise ValueError("need at least 4 observations for null moments")
    if union is None:
        union = union_graph_summary(c0, table)
    consts = NullConstants.from_sizes(table.n1, table.n2)
    inc = union.incident.astype(np.float64)
    mset = MomentSet(
        n1=table.n1,
        n2=table.n2,
        average=_average_summary_moments(table, c0, consts),
        union=_union_shape_moments(
            float(union.size),
            float((inc * (inc - 1.0)).sum()),
            float((inc * inc).sum()),
            table.n1,
            table.n2,
            consts,
        ),
        constants=consts,
    )
    if require_nondegenerate:
        mset.require_nondegenerate()
    return mset


def mixture_variance(moms: SummaryMoments, p: float) -> float:
    """Null variance of (1-p) * within1 + p * within2."""
    return (
        (1.0 - p) ** 2 * moms.var_within1
        + p * p * moms.var_within2
        + 2.0 * p * (1.0 - p) * moms.cov_within
    )


class StatisticKernel:
    """The one map from per-value sample-1 counts to every statistic.

    Built once per instance (the moments, the kappas and the sparse within
    forms), then applied either to one labeling (``evaluate_one``, which
    ``evaluate_statistics``, ``pergraph_statistics`` and the observed side
    of ``permutation_pvalues`` use) or to a batch of draws (``evaluate``,
    rows of a B x K matrix, which is what the permutation engine does). Both
    share one standardization step, so each statistic has one formula.
    """

    def __init__(
        self,
        table: DistinctTable,
        c0: SimilarityGraph,
        mset: MomentSet | None = None,
        kappas: tuple[float, ...] = (),
    ) -> None:
        if c0.n_nodes != table.n_values:
            raise InputFormatError("graph and table disagree on the number of distinct values")
        if mset is None:
            mset = moments(table, c0)
        mset.require_nondegenerate()
        if any(k <= 0 for k in kappas):
            raise InputFormatError("kappa values must be positive")
        self.mset = mset
        self.kappas = tuple(kappas)
        self.n_values = table.n_values
        self._within = WithinForms(table.multiplicity, c0)
        self._weight = mset.pooled_weight

    def _standardize(self, name: str, within1, within2) -> dict:
        """Every statistic of one summary from its within counts.

        Works alike on floats (one labeling) and on arrays (a batch); the
        keys are the fields of ``SummaryStatistics``.
        """
        moms = self.mset.summary(name)
        between = moms.total - (within1 + within2)
        weighted = (1.0 - self._weight) * within1 + self._weight * within2
        difference = within1 - within2
        edge_z, weighted_z, difference_z = (
            (value - mean) / np.sqrt(var)
            for value, mean, var in (
                (between, moms.mean_between, moms.var_between),
                (weighted, moms.mean_weighted, moms.var_weighted),
                (difference, moms.mean_difference, moms.var_difference),
            )
        )
        return {
            "between": between,
            "within1": within1,
            "within2": within2,
            "weighted": weighted,
            "difference": difference,
            "edge_z": edge_z,
            "weighted_z": weighted_z,
            "difference_z": difference_z,
            "generalized": weighted_z**2 + difference_z**2,
            "max_stats": {
                kappa: np.maximum(kappa * weighted_z, np.abs(difference_z))
                for kappa in self.kappas
            },
        }

    def evaluate_one(self, counts1) -> StatisticValues:
        """Every statistic of one labeling, given by its per-value sample-1 counts."""
        c1 = np.asarray(counts1, dtype=np.int64)
        if c1.shape != (self.n_values,):
            raise InputFormatError("counts1 must have one entry per distinct value")
        per_summary = {
            name: SummaryStatistics(**self._standardize(name, w1, w2))
            for name, (w1, w2) in self._within.one(c1).items()
        }
        return StatisticValues(average=per_summary["average"], union=per_summary["union"])

    def evaluate(self, counts1_matrix: np.ndarray) -> dict[str, dict]:
        """Per-summary arrays of every statistic for a batch of draws.

        Each summary maps the ``SummaryStatistics`` field names to arrays
        with one entry per row (``max_stats`` to a kappa-keyed dict of them).
        """
        c1 = np.asarray(counts1_matrix)
        if c1.ndim != 2 or c1.shape[1] != self.n_values:
            raise InputFormatError("counts matrix must be (B, n_values)")
        # One K x B float64 copy: columns are draws, the layout the sparse
        # product reads contiguously.
        raw = self._within(np.ascontiguousarray(c1.T, dtype=np.float64))
        return {name: self._standardize(name, *raw[name]) for name in SUMMARIES}


def evaluate_statistics(
    table: DistinctTable,
    c0: SimilarityGraph,
    mset: MomentSet | None = None,
    kappas: tuple[float, ...] = (),
    counts1=None,
) -> StatisticValues:
    """All raw and standardized statistics for one labeling, both summaries."""
    return StatisticKernel(table, c0, mset, kappas).evaluate_one(_resolve_counts1(table, counts1))


def pergraph_statistics(
    graph: SimilarityGraph, labels, kappas: tuple[float, ...] = ()
) -> tuple[SummaryStatistics, SummaryMoments]:
    """Statistics of a single explicit observation-level graph.

    A fixed graph is the all-multiplicities-one table, whose union graph is
    the graph itself: the statistics and moments are that table's union
    block, so they depend on the graph only through its edges and degrees.
    This is the path that shows how much the statistics move across
    different equally-minimal trees of a tied distance matrix.
    """
    labels = np.asarray(labels, dtype=np.int64)
    table = DistinctTable(labels=labels, value_index=np.arange(labels.size), n_values=labels.size)
    mset = moments(table, graph)
    return evaluate_statistics(table, graph, mset, kappas).union, mset.union
