"""Edge-count two-sample statistics and their exact permutation-null moments.

Every statistic exists in two flavors per graph C0 on the distinct values:
the "average" summary (arithmetic mean over the whole induced family of
observation-level graphs) and the "union" summary (the statistic evaluated
on the family's edge union). Both are edge counts on one weighted graph on
the observations: a pair of copies of value u weighs 2/m_u (its chance to
lie in a random member of the family) or 1, and a pair across a C0 edge
(u, v) weighs 1/(m_u m_v) or 1 (``summary_weights``). So the counts are
sparse quadratic forms in the per-value sample-1 count vector, and each
permutation draw costs O(K + |C0|) without touching observation-level
graphs. One fixed-graph moment formula, fed by two spreads per summary (of
the pair weights and of the weighted degrees), gives the null moments of
both summaries and of any fixed graph, with exactly rounded coefficients.
``StatisticKernel`` holds an instance's weights, moments and within forms
and is the one map from labelings to statistics.

Raw counts per summary: the between-sample count, and the two within-sample
counts. Derived statistics: the standardized between count (low values
indicate separation), the variance-minimizing weighted combination of the
within counts, their standardized difference, the generalized statistic
(sum of the two squared z-scores), and the max-type statistic
max(kappa * weighted z, |difference z|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np
from scipy.sparse import csr_array

from .dataset import DistinctTable
from .errors import DegenerateNullError, InputFormatError
from .graphs import SimilarityGraph

DEGENERATE_REL_TOL = 1e-9

SUMMARIES = ("average", "union")


def _is_degenerate(var: float, mean: float) -> bool:
    return var < DEGENERATE_REL_TOL * max(1.0, mean * mean)


def _checked_var(var: float, mean: float, name: str) -> float:
    if var < -DEGENERATE_REL_TOL * max(1.0, mean * mean):
        raise ValueError(f"negative variance for {name}: {var}")
    return max(var, 0.0)


class _PerSummary:
    """Lookup of the ``average`` or ``union`` field by summary name."""

    def summary(self, name: str):
        if name not in SUMMARIES:
            raise InputFormatError(f"unknown summary {name!r}")
        return getattr(self, name)


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
class MomentSet(_PerSummary):
    """All null moments for one instance, both summaries."""

    n1: int
    n2: int
    average: SummaryMoments
    union: SummaryMoments

    @property
    def n_total(self) -> int:
        return self.n1 + self.n2

    @property
    def pooled_weight(self) -> float:
        """The variance-minimizing weight on within2: (n1 - 1)/(N - 2)."""
        return (self.n1 - 1) / (self.n_total - 2)

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
class ExtendedCounts(_PerSummary):
    average: CountTriple
    union: CountTriple


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
class StatisticValues(_PerSummary):
    average: SummaryStatistics
    union: SummaryStatistics


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


@dataclass(frozen=True)
class SummaryWeights:
    """One summary as a weighted graph on the N observations.

    A pair of copies of value u weighs ``pair_weight[u]`` and a pair across
    a C0 edge weighs that edge's ``edge_weight`` (``c0.edge_array`` order);
    ``total`` is the exact sum W of all pair weights, the constant between +
    within1 + within2, and ``degree[u]`` is the weighted degree D_u of each
    observation of value u. The null variances need two spreads:
    ``pair_spread`` V = sum w^2 - W^2/P of the weights over all P = N(N-1)/2
    observation pairs, and ``degree_spread`` C = sum_u m_u (D_u - 2W/N)^2 of
    the degrees over the N observations.
    """

    pair_weight: np.ndarray
    edge_weight: np.ndarray
    total: int
    degree: np.ndarray
    pair_spread: float
    degree_spread: float


def summary_weights(multiplicity, c0: SimilarityGraph) -> dict[str, SummaryWeights]:
    """The weights of both summaries, in O(K + |C0|).

    Average: a pair of copies of u lies in a random member of the family
    with probability 2/m_u and a C0 pair with probability 1/(m_u m_v).
    There m_u D_u = 2(m_u - 1) + deg_u is an integer, so each centred degree
    is one integer over N m_u, rounded once (zero on a cycle). Union: every
    weight is 1, and both spreads are exact rationals rounded once.
    """
    m = np.asarray(multiplicity, dtype=np.int64)
    k = m.size
    if c0.n_nodes != k:
        raise InputFormatError("graph and table disagree on the number of distinct values")
    n = int(m.sum())
    pairs = max(n * (n - 1) // 2, 1)  # below two observations W = 0
    u, v = c0.edge_array[:, 0], c0.edge_array[:, 1]
    m_u, m_v = m[u], m[v]

    total = n - k + c0.n_edges
    edge = 1.0 / (m_u * m_v)
    scaled_degree = 2 * (m - 1) + c0.degrees
    centred = (n * scaled_degree - 2 * total * m) / (n * m)
    average = SummaryWeights(
        pair_weight=2.0 / m,
        edge_weight=edge,
        total=total,
        degree=scaled_degree / m,
        pair_spread=float((2.0 * (m - 1) / m).sum() + edge.sum()) - total * total / pairs,
        degree_spread=float((m * centred**2).sum()),
    )

    total = int((m * (m - 1) // 2).sum()) + int((m_u * m_v).sum())
    # bincount sums in float64, exact for these integer sums below 2**53.
    degree = m - 1 + (np.bincount(u, m_v, k) + np.bincount(v, m_u, k)).astype(np.int64)
    sum_sq_degrees = int((m.astype(object) * degree.astype(object) ** 2).sum())
    union = SummaryWeights(
        pair_weight=np.ones(k, dtype=np.int64),
        edge_weight=np.ones(u.size, dtype=np.int64),
        total=total,
        degree=degree,
        pair_spread=float(Fraction(total * (pairs - total), pairs)),
        degree_spread=float(Fraction(n * sum_sq_degrees - 4 * total * total, n)),
    )
    return {"average": average, "union": union}


class WithinForms:
    """Within-sample counts of both summaries as sparse quadratic forms.

    Per summary, each value u has a self-pair weight d_u (half its
    ``SummaryWeights.pair_weight``) and each edge of C0 a weight w_uv. With
    the sparse matrix U holding d on its diagonal and each edge's weight
    once (row u, column v), and ``total`` the constant between + within1 +
    within2, the within counts of a per-value sample-1 count vector c1 with
    multiplicities m are

        within1 = c1'U c1 - c1.d
        within2 = total + c1'U c1 - c1.((U + U')m - d)

    so a batch of draws never forms the sample-2 counts m - c1. The union
    summary's d = 1/2 and w = 1 keep its counts exact integers in float64.
    Count matrices are K x B: one column per labeling.
    """

    def __init__(
        self, multiplicity, c0: SimilarityGraph, weights: dict[str, SummaryWeights] | None = None
    ) -> None:
        if weights is None:
            weights = summary_weights(multiplicity, c0)
        m_int = np.asarray(multiplicity, dtype=np.int64)
        k = m_int.size
        self._multiplicity = m_int
        m = m_int.astype(np.float64)
        # One diagonal entry per value, then each edge once at (u, v).
        diag = np.arange(k)
        rows = np.concatenate([diag, c0.edge_array[:, 0]])
        cols = np.concatenate([diag, c0.edge_array[:, 1]])
        self._forms: dict[str, tuple] = {}
        for name, w in weights.items():
            self_weight = w.pair_weight / 2.0
            data = np.concatenate([self_weight, w.edge_weight])
            q = csr_array((data, (rows, cols)), shape=(k, k))
            within2_linear = q @ m + q.T @ m - self_weight
            self._forms[name] = (q, self_weight, within2_linear, float(w.total))

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


def _pattern(n1: int, n2: int, a: int, b: int) -> Fraction:
    """The chance that a fixed a + b pooled observations put a in sample 1, b in sample 2.

    Exact falling factorials: (n1)_a (n2)_b / (N)_(a+b).
    """
    return Fraction(math.perm(n1, a) * math.perm(n2, b), math.perm(n1 + n2, a + b))


def _shape_moments(w: SummaryWeights, n1: int, n2: int, name: str) -> SummaryMoments:
    """Moments of the counts on a FIXED weighted graph on the N observations.

    Chen & Friedman's fixed-graph forms: a pair of pairs on 2, 3 or 4
    distinct observations lies in sample 1 with chance p1, p2 or p3 (q1..q3
    for sample 2, f1 for one pair in each). Written through the pair spread
    V and the degree spread C of ``SummaryWeights`` every W^2 term cancels,
    and each coefficient is an exact rational rounded to float once.
    """
    n = n1 + n2
    size, spread, variety = float(w.total), w.pair_spread, w.degree_spread
    p1, p2, p3 = (_pattern(n1, n2, a, 0) for a in (2, 3, 4))
    q1, q2, q3 = (_pattern(n1, n2, 0, b) for b in (2, 3, 4))
    f1 = _pattern(n1, n2, 2, 2)

    mean_w1 = size * float(p1)
    mean_w2 = size * float(q1)
    var_w1 = float(p1 - 2 * p2 + p3) * spread + float(p2 - p3) * variety
    var_w2 = float(q1 - 2 * q2 + q3) * spread + float(q2 - q3) * variety
    cov = float(f1) * (spread - variety)

    mean_wt = size * ((n1 - 1) * (n2 - 1)) / ((n - 1) * (n - 2))
    var_wt = float(f1) * (spread - variety / (n - 2))
    mean_diff = size * (n1 - n2) / n
    var_diff = float(Fraction(n1 * n2, n * (n - 1))) * variety

    return SummaryMoments(
        total=size,
        mean_within1=mean_w1,
        var_within1=_checked_var(var_w1, mean_w1, f"within1 ({name} summary)"),
        mean_within2=mean_w2,
        var_within2=_checked_var(var_w2, mean_w2, f"within2 ({name} summary)"),
        cov_within=cov,
        mean_weighted=mean_wt,
        var_weighted=_checked_var(var_wt, mean_wt, f"weighted ({name} summary)"),
        mean_difference=mean_diff,
        var_difference=_checked_var(var_diff, mean_diff, f"difference ({name} summary)"),
    )


def moments(
    table: DistinctTable, c0: SimilarityGraph, require_nondegenerate: bool = True
) -> MomentSet:
    """Exact null moments of every count statistic under both summaries.

    Each summary is a weighted graph on the observations (``summary_weights``)
    and one formula, ``_shape_moments``, gives the moments of the counts on
    any such graph from its total weight and two spreads, in O(K + |C0|),
    with exactly rounded coefficients. A fixed observation-level graph is the
    all-multiplicities-one table, where both summaries are that graph. A
    ``StatisticKernel`` computes the same moments for itself; this function
    serves callers that want the moments alone.

    With ``require_nondegenerate`` (the default) a collapsed null variance
    raises a degenerate-null error naming the offending statistic; pass
    False to inspect the raw moments anyway.
    """
    mset = moments_from_weights(table, summary_weights(table.multiplicity, c0))
    if require_nondegenerate:
        mset.require_nondegenerate()
    return mset


def moments_from_weights(table: DistinctTable, weights: dict[str, SummaryWeights]) -> MomentSet:
    """The raw ``moments`` from the ``summary_weights`` of the table and its C0."""
    if table.n_total < 4:
        raise ValueError("need at least 4 observations for null moments")
    return MomentSet(
        n1=table.n1,
        n2=table.n2,
        **{name: _shape_moments(w, table.n1, table.n2, name) for name, w in weights.items()},
    )


def mixture_variance(moms: SummaryMoments, p: float) -> float:
    """Null variance of (1-p) * within1 + p * within2."""
    return (
        (1.0 - p) ** 2 * moms.var_within1
        + p * p * moms.var_within2
        + 2.0 * p * (1.0 - p) * moms.cov_within
    )


def check_kappas(kappas) -> None:
    """Reject max-statistic kappas that are not positive or that print alike.

    Reports and power-study keys name each kappa by its ``:g`` form, so two
    kappas with one form (1 and 1.0) would share a key.
    """
    if any(k <= 0 for k in kappas):
        raise InputFormatError("kappa values must be positive")
    labels = [f"{k:g}" for k in kappas]
    if len(set(labels)) != len(labels):
        raise InputFormatError(f"kappa values must be distinct, got {', '.join(labels)}")


class StatisticKernel:
    """The one map from per-value sample-1 counts to every statistic.

    Built once per instance, it is the only holder of the instance's
    summary weights, null moments, kappas and sparse within forms. It is
    applied either to one labeling (``evaluate_one``, which ``analyze``,
    ``evaluate_statistics``, ``pergraph_statistics``, the power replicate
    and the observed side of ``permutation_pvalues`` use) or to a batch of
    draws (``evaluate``, rows of a B x K matrix, which is what the
    permutation engine does). Both share one standardization step, so each
    statistic has one formula. ``mset`` reuses moments already computed for
    this table and C0.
    """

    def __init__(
        self,
        table: DistinctTable,
        c0: SimilarityGraph,
        mset: MomentSet | None = None,
        kappas: tuple[float, ...] = (),
    ) -> None:
        self.weights = summary_weights(table.multiplicity, c0)
        if mset is None:
            mset = moments_from_weights(table, self.weights)
        mset.require_nondegenerate()
        check_kappas(kappas)
        self.table = table
        self.mset = mset
        self.kappas = tuple(kappas)
        self._within = WithinForms(table.multiplicity, c0, self.weights)
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

    def evaluate_one(self, counts1=None) -> StatisticValues:
        """Every statistic of one labeling, given by its per-value sample-1 counts.

        ``counts1`` defaults to the table's own labeling; any other must keep
        the multiplicities and the sample-1 size.
        """
        per_summary = {
            name: SummaryStatistics(**self._standardize(name, w1, w2))
            for name, (w1, w2) in self._within.one(_resolve_counts1(self.table, counts1)).items()
        }
        return StatisticValues(average=per_summary["average"], union=per_summary["union"])

    def evaluate(self, counts1_matrix: np.ndarray) -> dict[str, dict]:
        """Per-summary arrays of every statistic for a batch of draws.

        Each summary maps the ``SummaryStatistics`` field names to arrays
        with one entry per row (``max_stats`` to a kappa-keyed dict of them).
        """
        c1 = np.asarray(counts1_matrix)
        if c1.ndim != 2 or c1.shape[1] != self.table.n_values:
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
    return StatisticKernel(table, c0, mset, kappas).evaluate_one(counts1)


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
    kernel = StatisticKernel(table, graph, kappas=kappas)
    return kernel.evaluate_one().union, kernel.mset.union
