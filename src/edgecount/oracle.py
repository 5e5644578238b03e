"""Independent brute-force reference implementations, used only by tests.

Everything here favors transparency over speed and exact rational
arithmetic over floating point, so closed-form-vs-oracle comparisons have a
single tolerance source (the closed-form side). None of these functions
share arithmetic with the closed-form statistic paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .dataset import DistanceMatrix, DistinctTable
from .errors import DegenerateNullError, FamilyTooLargeError, InputFormatError
from .graphs import SimilarityGraph, enumerate_graph_family, materialize_union_graph
from .stats import SUMMARIES, ExtendedCounts, MomentSet


def enumerate_count_vectors(multiplicity, n1: int):
    """Yield (counts1 vector, weight) over all per-value sample-1 splits.

    The weight of a vector is the number of label assignments realizing it,
    prod of C(m_u, c_u); weights sum to C(N, n1).
    """
    m = [int(x) for x in multiplicity]
    k = len(m)

    def rec(u: int, remaining: int):
        if u == k - 1:
            if 0 <= remaining <= m[u]:
                yield (remaining,), math.comb(m[u], remaining)
            return
        tail = sum(m[u + 1:])
        for x in range(max(0, remaining - tail), min(m[u], remaining) + 1):
            w0 = math.comb(m[u], x)
            for rest, w in rec(u + 1, remaining - x):
                yield (x,) + rest, w0 * w

    yield from rec(0, n1)


def _counts_exact(counts1, m, edges) -> dict[str, Fraction]:
    """Per-assignment raw counts for both summaries, as exact rationals."""
    k = len(m)
    c2 = [m[u] - counts1[u] for u in range(k)]
    c1 = list(counts1)
    row = {
        "within1_average": sum(Fraction(c1[u] * (c1[u] - 1), m[u]) for u in range(k)),
        "within2_average": sum(Fraction(c2[u] * (c2[u] - 1), m[u]) for u in range(k)),
        "between_average": sum(Fraction(2 * c1[u] * c2[u], m[u]) for u in range(k)),
        "within1_union": sum(Fraction(c1[u] * (c1[u] - 1), 2) for u in range(k)),
        "within2_union": sum(Fraction(c2[u] * (c2[u] - 1), 2) for u in range(k)),
        "between_union": Fraction(sum(c1[u] * c2[u] for u in range(k))),
    }
    for u, v in edges:
        mm = m[u] * m[v]
        row["within1_average"] += Fraction(c1[u] * c1[v], mm)
        row["within2_average"] += Fraction(c2[u] * c2[v], mm)
        row["between_average"] += Fraction(c1[u] * c2[v] + c1[v] * c2[u], mm)
        row["within1_union"] += c1[u] * c1[v]
        row["within2_union"] += c2[u] * c2[v]
        row["between_union"] += c1[u] * c2[v] + c1[v] * c2[u]
    return row


@dataclass
class ExhaustiveNull:
    """The full permutation null, one record per per-value count vector.

    ``rows`` holds (counts1, weight, raw-count dict); weights sum to
    C(N, n1). Assignments sharing a count vector share every statistic, so
    grouping loses nothing.
    """

    multiplicity: tuple[int, ...]
    n1: int
    edges: tuple[tuple[int, int], ...]
    rows: list[tuple[tuple[int, ...], int, dict[str, Fraction]]]
    total_weight: int

    def mean(self, fn) -> Fraction:
        return sum((w * fn(row) for _, w, row in self.rows), Fraction(0)) / self.total_weight

    def variance(self, fn) -> Fraction:
        mu = self.mean(fn)
        second = sum((w * fn(row) ** 2 for _, w, row in self.rows), Fraction(0))
        return second / self.total_weight - mu * mu

    def covariance(self, fn_a, fn_b) -> Fraction:
        mu_a, mu_b = self.mean(fn_a), self.mean(fn_b)
        cross = sum((w * fn_a(row) * fn_b(row) for _, w, row in self.rows), Fraction(0))
        return cross / self.total_weight - mu_a * mu_b

    def pvalue(self, fn, observed, direction: str) -> Fraction:
        """Exact permutation p-value of the statistic fn at ``observed``."""
        hits = 0
        for _, w, row in self.rows:
            value = fn(row)
            if direction == "upper":
                hit = value >= observed
            elif direction == "lower":
                hit = value <= observed
            elif direction == "two_sided":
                hit = abs(value) >= abs(observed)
            else:
                raise InputFormatError(f"unknown direction {direction!r}")
            if hit:
                hits += w
        return Fraction(hits, self.total_weight)


def enumerate_permutations(table: DistinctTable, c0: SimilarityGraph, cap: int = 10**6) -> ExhaustiveNull:
    """Visit the entire permutation null of the raw counts exactly."""
    n = table.n_total
    n1 = table.n1
    if math.comb(n, n1) > cap:
        raise FamilyTooLargeError(f"C({n},{n1}) exceeds the cap {cap}")
    m = tuple(int(x) for x in table.multiplicity)
    edges = c0.edges
    rows = []
    total = 0
    for counts1, weight in enumerate_count_vectors(m, n1):
        rows.append((counts1, weight, _counts_exact(counts1, m, edges)))
        total += weight
    assert total == math.comb(n, n1)
    return ExhaustiveNull(
        multiplicity=m, n1=n1, edges=edges, rows=rows, total_weight=total
    )


def _scan_counts(edges, labels) -> tuple[int, int, int]:
    between = within1 = within2 = 0
    for a, b in edges:
        la, lb = labels[a], labels[b]
        if la != lb:
            between += 1
        elif la == 1:
            within1 += 1
        else:
            within2 += 1
    return between, within1, within2


def average_over_family(
    table: DistinctTable, c0: SimilarityGraph, labels=None, cap: int = 10**4
) -> tuple[Fraction, Fraction, Fraction]:
    """Exact family averages of (between, within1, within2) by materializing
    every member graph and scanning its edges."""
    labels = table.labels if labels is None else np.asarray(labels, dtype=np.int64)
    sums = [0, 0, 0]
    count = 0
    for member in enumerate_graph_family(c0, table, cap=cap):
        triple = _scan_counts(member, labels)
        for i in range(3):
            sums[i] += triple[i]
        count += 1
    return tuple(Fraction(s, count) for s in sums)


def union_counts_direct(
    table: DistinctTable, c0: SimilarityGraph, labels=None
) -> tuple[int, int, int]:
    """(between, within1, within2) on the materialized union graph."""
    labels = table.labels if labels is None else np.asarray(labels, dtype=np.int64)
    union = materialize_union_graph(c0, table)
    return _scan_counts(union.edges, labels)


def generalized_statistic_quadratic(counts: ExtendedCounts, mset: MomentSet) -> dict[str, float]:
    """The generalized statistic as the quadratic form with the explicit 2x2 inverse.

    Must agree with the decomposition into squared weighted and difference
    z-scores to 1e-8 relative; kept separate because the covariance matrix
    is ill-conditioned exactly when the difference statistic is near
    degeneracy.
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


def _spans(n: int, edges) -> bool:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merged = 0
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[rv] = ru
        merged += 1
    return merged == n - 1


def mst_weight_prim(dist_values) -> float:
    """Total MST weight of a complete graph, by a plain Prim scan."""
    d = np.asarray(dist_values, dtype=np.float64)
    n = d.shape[0]
    in_tree = np.zeros(n, dtype=bool)
    best = np.full(n, np.inf)
    in_tree[0] = True
    best = d[0].copy()
    best[0] = np.inf
    total = 0.0
    for _ in range(n - 1):
        nxt = int(np.argmin(np.where(in_tree, np.inf, best)))
        total += best[nxt]
        in_tree[nxt] = True
        best = np.minimum(best, d[nxt])
    return float(total)


def all_msts(dist_values, cap: int = 2 * 10**6) -> list[tuple[tuple[int, int], ...]]:
    """Every minimum spanning tree of a complete graph with tied weights.

    An edge can appear in some MST only if its endpoints are disconnected
    in the subgraph of strictly lighter edges (cycle property); trees are
    then enumerated as (K-1)-subsets of those candidate edges and filtered
    to the minimum total weight.
    """
    if isinstance(dist_values, DistanceMatrix):
        dist_values = dist_values.values
    d = np.asarray(dist_values, dtype=np.float64)
    n = d.shape[0]
    if n < 2:
        raise InputFormatError("need at least two nodes")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    candidates = []
    for u, v in pairs:
        lighter = [(a, b) for a, b in pairs if d[a, b] < d[u, v]]
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in lighter:
            parent[find(b)] = find(a)
        if find(u) != find(v):
            candidates.append((u, v))
    if math.comb(len(candidates), n - 1) > cap:
        raise FamilyTooLargeError("too many candidate edge subsets to enumerate")
    trees = []
    best = np.inf
    for subset in combinations(candidates, n - 1):
        if not _spans(n, subset):
            continue
        weight = float(sum(d[u, v] for u, v in subset))
        if weight < best - 1e-12:
            best = weight
            trees = [subset]
        elif abs(weight - best) <= 1e-12:
            trees.append(subset)
    return [tuple(sorted(t)) for t in trees]


def mst_union(trees) -> tuple[tuple[int, int], ...]:
    out = set()
    for tree in trees:
        out.update(tree)
    return tuple(sorted(out))


# --- random small instances for oracle-vs-closed-form comparisons ----------


def random_tied_matrix(rng: np.random.Generator, n_values: int, high: int = 4) -> np.ndarray:
    """Symmetric integer distances drawn from a small range, so ties abound."""
    upper = rng.integers(1, high + 1, size=(n_values, n_values))
    d = np.triu(upper, 1)
    return d + d.T


def random_instance(
    rng: np.random.Generator,
    max_values: int = 5,
    max_multiplicity: int = 3,
    interior_split: bool = False,
) -> tuple[DistinctTable, SimilarityGraph]:
    """A random distinct-value table plus a random connected graph on it.

    ``interior_split`` forces 2 <= n1 <= N - 2 so all null constants are
    meaningfully nonzero.
    """
    k = int(rng.integers(2, max_values + 1))
    while True:
        m = rng.integers(1, max_multiplicity + 1, size=k)
        if m.sum() >= 4:
            break
    n = int(m.sum())
    while True:
        counts1 = np.array([rng.integers(0, mu + 1) for mu in m])
        n1 = int(counts1.sum())
        if not interior_split or 2 <= n1 <= n - 2:
            break
    labels = []
    value_index = []
    for u in range(k):
        labels.extend([1] * int(counts1[u]) + [2] * int(m[u] - counts1[u]))
        value_index.extend([u] * int(m[u]))
    table = DistinctTable(
        labels=np.array(labels), value_index=np.array(value_index), n_values=k
    )
    # random spanning tree plus a few extra edges
    edges = set()
    order = rng.permutation(k)
    for i in range(1, k):
        u, v = int(order[i]), int(order[int(rng.integers(0, i))])
        edges.add((min(u, v), max(u, v)))
    for _ in range(int(rng.integers(0, k))):
        u, v = (int(x) for x in rng.integers(0, k, size=2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return table, SimilarityGraph.from_edges(k, edges)
