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

    def within1(self, ct: np.ndarray) -> dict[str, np.ndarray]:
        """within1 per summary; applied to m - c1 it gives within2."""
        return {name: _quadratic(q, ct) - _dot(d, ct) for name, (q, d, _, _) in self._forms.items()}

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
    if c0.n_nodes != table.n_values:
        raise InputFormatError("graph and table disagree on the number of distinct values")
    c1 = _resolve_counts1(table, counts1)
    forms = WithinForms(table.multiplicity, c0)
    # within2 is within1 of the sample-2 counts, so swapping the samples
    # swaps the two counts bit for bit.
    within1 = forms.within1(c1[:, None].astype(np.float64))
    within2 = forms.within1((table.multiplicity - c1)[:, None].astype(np.float64))
    triples = {}
    for name in SUMMARIES:
        w1, w2 = float(within1[name][0]), float(within2[name][0])
        triples[name] = CountTriple(forms.total(name) - (w1 + w2), w1, w2)
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


def _zscore(value: float, mean: float, var: float, name: str) -> float:
    if _is_degenerate(var, mean):
        raise DegenerateNullError(f"null variance of {name} is zero; cannot standardize")
    return (value - mean) / np.sqrt(var)


class StatisticKernel:
    """Vectorized evaluator mapping per-value sample-1 counts to statistics.

    Built once per instance, then applied to any number of count vectors
    (rows of a B x K matrix), which is what the permutation engine does.
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

    def evaluate(self, counts1_matrix: np.ndarray) -> dict[str, dict]:
        """Return per-summary arrays of every standardized statistic.

        Keys per summary: edge_z, weighted_z, difference_z, generalized,
        and max (a kappa-keyed dict).
        """
        c1 = np.asarray(counts1_matrix)
        if c1.ndim != 2 or c1.shape[1] != self.n_values:
            raise InputFormatError("counts matrix must be (B, n_values)")
        # One K x B float64 copy: columns are draws, the layout the sparse
        # product reads contiguously.
        raw = self._within(np.ascontiguousarray(c1.T, dtype=np.float64))
        out: dict[str, dict] = {}
        for name in SUMMARIES:
            moms = self.mset.summary(name)
            w1, w2 = raw[name]
            between = moms.total - w1 - w2
            weighted = (1.0 - self._weight) * w1 + self._weight * w2
            edge_z = (between - moms.mean_between) / np.sqrt(moms.var_between)
            weighted_z = (weighted - moms.mean_weighted) / np.sqrt(moms.var_weighted)
            difference_z = (w1 - w2 - moms.mean_difference) / np.sqrt(moms.var_difference)
            generalized = weighted_z**2 + difference_z**2
            out[name] = {
                "edge_z": edge_z,
                "weighted_z": weighted_z,
                "difference_z": difference_z,
                "generalized": generalized,
                "max": {
                    kappa: np.maximum(kappa * weighted_z, np.abs(difference_z))
                    for kappa in self.kappas
                },
            }
        return out


def weighted_statistic(counts: ExtendedCounts, mset: MomentSet) -> dict[str, tuple[float, float]]:
    """The weighted within-count combination and its z-score, per summary.

    The weight (n1 - 1)/(N - 2) on within2 minimizes the null variance of
    the combination under both summaries.
    """
    p = mset.pooled_weight
    out = {}
    for name in SUMMARIES:
        triple = counts.summary(name)
        moms = mset.summary(name)
        value = (1.0 - p) * triple.within1 + p * triple.within2
        out[name] = (value, _zscore(value, moms.mean_weighted, moms.var_weighted, f"weighted ({name} summary)"))
    return out


def difference_statistic(counts: ExtendedCounts, mset: MomentSet) -> dict[str, tuple[float, float]]:
    """within1 - within2 and its z-score, per summary."""
    out = {}
    for name in SUMMARIES:
        triple = counts.summary(name)
        moms = mset.summary(name)
        value = triple.within1 - triple.within2
        out[name] = (value, _zscore(value, moms.mean_difference, moms.var_difference, f"difference ({name} summary)"))
    return out


def edge_statistic(counts: ExtendedCounts, mset: MomentSet) -> dict[str, tuple[float, float]]:
    """The between-sample count and its z-score, per summary."""
    out = {}
    for name in SUMMARIES:
        triple = counts.summary(name)
        moms = mset.summary(name)
        out[name] = (
            triple.between,
            _zscore(triple.between, moms.mean_between, moms.var_between, f"edge ({name} summary)"),
        )
    return out


def generalized_statistic(counts: ExtendedCounts, mset: MomentSet) -> dict[str, float]:
    """Sum of squared weighted and difference z-scores, per summary."""
    zw = weighted_statistic(counts, mset)
    zd = difference_statistic(counts, mset)
    return {name: zw[name][1] ** 2 + zd[name][1] ** 2 for name in SUMMARIES}


def generalized_statistic_quadratic(counts: ExtendedCounts, mset: MomentSet) -> dict[str, float]:
    """Cross-check path: the quadratic form with the explicit 2x2 inverse.

    Must agree with the decomposition to 1e-8 relative; kept separate
    because the covariance matrix is ill-conditioned exactly when the
    difference statistic is near degeneracy.
    """
    out = {}
    for name in SUMMARIES:
        triple = counts.summary(name)
        moms = mset.summary(name)
        dev = np.array(
            [triple.within1 - moms.mean_within1, triple.within2 - moms.mean_within2]
        )
        sigma = np.array(
            [[moms.var_within1, moms.cov_within], [moms.cov_within, moms.var_within2]]
        )
        det = sigma[0, 0] * sigma[1, 1] - sigma[0, 1] * sigma[1, 0]
        if det <= 0:
            raise DegenerateNullError(
                f"within-count covariance matrix is singular ({name} summary)"
            )
        inv = np.array([[sigma[1, 1], -sigma[0, 1]], [-sigma[1, 0], sigma[0, 0]]]) / det
        out[name] = float(dev @ inv @ dev)
    return out


def max_statistic(counts: ExtendedCounts, mset: MomentSet, kappa: float) -> dict[str, float]:
    """max(kappa * weighted z, |difference z|), per summary."""
    if kappa <= 0:
        raise InputFormatError("kappa must be positive")
    zw = weighted_statistic(counts, mset)
    zd = difference_statistic(counts, mset)
    return {name: max(kappa * zw[name][1], abs(zd[name][1])) for name in SUMMARIES}


def evaluate_statistics(
    table: DistinctTable,
    c0: SimilarityGraph,
    mset: MomentSet | None = None,
    kappas: tuple[float, ...] = (),
    counts1=None,
) -> StatisticValues:
    """All raw and standardized statistics for one labeling, both summaries."""
    if mset is None:
        mset = moments(table, c0)
    counts = extended_counts(table, c0, counts1)
    p = mset.pooled_weight
    zw = weighted_statistic(counts, mset)
    zd = difference_statistic(counts, mset)
    z0 = edge_statistic(counts, mset)
    per_summary = {}
    for name in SUMMARIES:
        triple = counts.summary(name)
        per_summary[name] = SummaryStatistics(
            between=triple.between,
            within1=triple.within1,
            within2=triple.within2,
            weighted=(1.0 - p) * triple.within1 + p * triple.within2,
            difference=triple.within1 - triple.within2,
            edge_z=z0[name][1],
            weighted_z=zw[name][1],
            difference_z=zd[name][1],
            generalized=zw[name][1] ** 2 + zd[name][1] ** 2,
            max_stats={
                kappa: max(kappa * zw[name][1], abs(zd[name][1])) for kappa in kappas
            },
        )
    return StatisticValues(average=per_summary["average"], union=per_summary["union"])


def pergraph_statistics(
    graph: SimilarityGraph, labels, kappas: tuple[float, ...] = ()
) -> tuple[SummaryStatistics, SummaryMoments]:
    """Statistics of a single explicit observation-level graph.

    Counts come from a direct edge scan; moments from the fixed-graph
    shapes, which depend on the graph only through its size and per-node
    incident counts. This is the path that shows how much the statistics
    move across different equally-minimal trees of a tied distance matrix.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.size != graph.n_nodes:
        raise InputFormatError("need exactly one label per graph node")
    if not np.isin(labels, (1, 2)).all():
        raise InputFormatError("sample labels must be 1 or 2")
    n1 = int((labels == 1).sum())
    n2 = int((labels == 2).sum())
    if n1 + n2 < 4:
        raise ValueError("need at least 4 observations for null moments")
    ea = graph.edge_array
    first = labels[ea[:, 0]] if ea.shape[0] else np.empty(0, dtype=np.int64)
    second = labels[ea[:, 1]] if ea.shape[0] else np.empty(0, dtype=np.int64)
    within1 = float(((first == 1) & (second == 1)).sum())
    within2 = float(((first == 2) & (second == 2)).sum())
    between = float((first != second).sum())

    deg = graph.degrees.astype(np.float64)
    consts = NullConstants.from_sizes(n1, n2)
    moms = _union_shape_moments(
        float(graph.n_edges),
        float((deg * (deg - 1.0)).sum()),
        float((deg * deg).sum()),
        n1,
        n2,
        consts,
    )
    bad = moms.degenerate_statistics()
    if bad:
        raise DegenerateNullError(
            f"null variance of {bad[0]} is zero on this graph; "
            "the permutation distribution is degenerate"
        )
    p = (n1 - 1) / (n1 + n2 - 2)
    weighted = (1.0 - p) * within1 + p * within2
    difference = within1 - within2
    edge_z = _zscore(between, moms.mean_between, moms.var_between, "edge")
    weighted_z = _zscore(weighted, moms.mean_weighted, moms.var_weighted, "weighted")
    difference_z = _zscore(difference, moms.mean_difference, moms.var_difference, "difference")
    stats = SummaryStatistics(
        between=between,
        within1=within1,
        within2=within2,
        weighted=weighted,
        difference=difference,
        edge_z=edge_z,
        weighted_z=weighted_z,
        difference_z=difference_z,
        generalized=weighted_z**2 + difference_z**2,
        max_stats={kappa: max(kappa * weighted_z, abs(difference_z)) for kappa in kappas},
    )
    return stats, moms
