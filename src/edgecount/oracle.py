"""Independent brute-force reference implementations, for the tests and ``edgecount verify``.

Everything here favors transparency over speed and exact rational
arithmetic over floating point, so closed-form-vs-oracle comparisons have a
single tolerance source (the closed-form side). None of the oracles share
arithmetic with the closed-form statistic paths; the ``verify_*`` checks at
the end run both sides on random instances.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from .dataset import DistanceMatrix, DistinctTable
from .errors import (
    DegenerateNullError,
    FamilyTooLargeError,
    InfeasibleGraphError,
    InputFormatError,
)
from .graphs import SimilarityGraph, build_kmst, build_knnl, build_nnl, count_graph_family
from .stats import SUMMARIES, ExtendedCounts, MomentSet, extended_counts, moments


# --- scalar distances between two payloads ---------------------------------


def _check_ranking(r) -> np.ndarray:
    arr = np.asarray(r, dtype=np.int64)
    if arr.ndim != 1:
        raise InputFormatError("a ranking must be a 1-d integer sequence")
    if not (np.sort(arr) == np.arange(1, arr.size + 1)).all():
        raise InputFormatError(f"not a permutation of 1..{arr.size}: {arr.tolist()}")
    return arr


def _check_pair(a, b, check) -> tuple[np.ndarray, np.ndarray]:
    a, b = check(a), check(b)
    if a.shape != b.shape:
        raise InputFormatError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a, b


def distance_frobenius_sq(a, b) -> int:
    """Number of differing entries between two binary adjacency matrices."""

    def check(x):
        arr = np.asarray(x, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InputFormatError("adjacency matrix must be square")
        if not np.isin(arr, (0, 1)).all():
            raise InputFormatError("adjacency matrix must be binary")
        return arr

    a, b = _check_pair(a, b, check)
    return int((a != b).sum())


def distance_spearman(a, b) -> int:
    """Sum of squared rank differences between two rankings."""
    a, b = _check_pair(a, b, _check_ranking)
    return int(((a - b) ** 2).sum())


def distance_footrule(a, b) -> int:
    """Sum of absolute rank differences between two rankings."""
    a, b = _check_pair(a, b, _check_ranking)
    return int(np.abs(a - b).sum())


def distance_kendall(a, b) -> int:
    """Number of discordant pairs between two rankings."""
    a, b = _check_pair(a, b, _check_ranking)
    da = np.sign(a[:, None] - a[None, :])
    db = np.sign(b[:, None] - b[None, :])
    return int((da * db == -1).sum()) // 2


def distance_euclidean(a, b) -> float:
    """Euclidean distance between two real vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise InputFormatError("vectors must be 1-d and of equal length")
    return float(np.sqrt(((a - b) ** 2).sum()))


def pairwise_by_coordinates(payloads, metric: str) -> np.ndarray:
    """All pairwise distances between flattened payloads, one K x K pass per
    coordinate: each pair adds its own terms in coordinate order, squared
    differences for spearman and frobenius (under a square root for
    euclidean) and absolute differences for footrule."""
    x = np.asarray(payloads, dtype=np.float64)
    x = x.reshape(x.shape[0], -1)
    term = np.abs if metric == "footrule" else np.square
    out = np.zeros((x.shape[0], x.shape[0]))
    for col in x.T:
        out += term(np.subtract.outer(col, col))
    return np.sqrt(out) if metric == "euclidean" else out


# --- the induced graph family, member by member ----------------------------


def _prufer_tree(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    """Decode a Prufer sequence over nodes 0..n-1 into its labeled tree."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[leaf] -= 1
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u, v = (i for i in range(n) if degree[i] == 1)
    edges.append((min(u, v), max(u, v)))
    return edges


def enumerate_graph_family(c0: SimilarityGraph, table: DistinctTable, cap: int = 10**6):
    """Yield every observation-level graph of the family exactly once.

    Graphs come out as sorted tuples of observation-index pairs. Spanning
    trees on within-value cliques are enumerated via Prufer sequences, so
    each of the m_u ** (m_u - 2) trees appears exactly once with no dedup
    bookkeeping.
    """
    total = count_graph_family(c0, table)
    if total > cap:
        raise FamilyTooLargeError(f"family has {total} graphs, cap is {cap}")
    members = [np.nonzero(table.value_index == u)[0] for u in range(table.n_values)]

    edge_choices = []
    for u, v in c0.edges:
        edge_choices.append([
            (min(int(a), int(b)), max(int(a), int(b)))
            for a in members[u]
            for b in members[v]
        ])

    tree_choices = []
    for obs in members:
        mu = len(obs)
        if mu == 1:
            continue
        trees = []
        for seq in product(range(mu), repeat=max(mu - 2, 0)):
            local = _prufer_tree(seq, mu) if mu > 2 else [(0, 1)]
            trees.append(tuple(
                (min(int(obs[a]), int(obs[b])), max(int(obs[a]), int(obs[b])))
                for a, b in local
            ))
        tree_choices.append(trees)

    for between in product(*edge_choices):
        for within in product(*tree_choices):
            edges = list(between)
            for tree in within:
                edges.extend(tree)
            yield tuple(sorted(edges))


# --- the permutation null, count vector by count vector --------------------


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


def paper_average_moments(table: DistinctTable, c0: SimilarityGraph) -> dict[str, Fraction]:
    """The paper's closed form of the average summary's null moments, exactly.

    Keys are the fields of ``stats.SummaryMoments``. The form works on C0's
    degrees and the multiplicities through four terms: a_sum (pairs of
    family edges that share an observation), c_sum (the sum of 1/(m_u m_v)
    over C0), d_sum (K minus the sum of 1/m_u) and the degree variety
    cond3, which is zero exactly when C0 is a cycle. Every quantity is an
    exact rational, so the closed form in ``stats`` is checked at any size.
    """
    n1, n2 = table.n1, table.n2
    n = n1 + n2
    k = table.n_values
    m = [int(x) for x in table.multiplicity]
    deg = [int(x) for x in c0.degrees]
    n_edges = c0.n_edges

    total = Fraction(n - k + n_edges)
    a_sum = n - k + 2 * n_edges + sum(Fraction(d * d - 4 * d, 4 * mu) for d, mu in zip(deg, m))
    c_sum = sum((Fraction(1, m[u] * m[v]) for u, v in c0.edges), Fraction(0))
    d_sum = k - sum(Fraction(1, mu) for mu in m)
    cond3 = sum(Fraction((d - 2) ** 2, 4 * mu) for d, mu in zip(deg, m)) - Fraction((n_edges - k) ** 2, n)

    def falling(a: int, r: int) -> Fraction:
        return Fraction(math.perm(a, r), math.perm(n, r))

    p1, p2, p3 = falling(n1, 2), falling(n1, 3), falling(n1, 4)
    q1, q2, q3 = falling(n2, 2), falling(n2, 3), falling(n2, 4)
    f1 = Fraction(n1 * (n1 - 1) * n2 * (n2 - 1), math.perm(n, 4))
    return {
        "total": total,
        "mean_within1": total * p1,
        "var_within1": 4 * (p2 - p3) * a_sum + (p3 - p1 * p1) * total * total
        + (p1 - 2 * p2 + p3) * c_sum + 2 * (p1 - 4 * p2 + 3 * p3) * d_sum,
        "mean_within2": total * q1,
        "var_within2": 4 * (q2 - q3) * a_sum + (q3 - q1 * q1) * total * total
        + (q1 - 2 * q2 + q3) * c_sum + 2 * (q1 - 4 * q2 + 3 * q3) * d_sum,
        "cov_within": (f1 - p1 * q1) * total * total + f1 * (-4 * a_sum + 6 * d_sum + c_sum),
        "mean_weighted": total * Fraction((n1 - 1) * (n2 - 1), (n - 1) * (n - 2)),
        "var_weighted": f1 * (
            Fraction(-4, n - 2) * cond3 + 2 * d_sum + c_sum
            - Fraction(2 * (n_edges + n - k) ** 2, n * (n - 1))
        ),
        "mean_difference": total * Fraction(n1 - n2, n),
        "var_difference": Fraction(4 * n1 * n2, n * (n - 1)) * cond3,
    }


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


def materialize_union_graph(c0: SimilarityGraph, table: DistinctTable) -> SimilarityGraph:
    """The union graph as an explicit observation-level graph.

    Within each distinct value the observations form a clique; each C0 edge
    contributes the complete bipartite join of the two observation blocks.
    """
    if c0.n_nodes != table.n_values:
        raise InputFormatError("graph and table disagree on the number of distinct values")
    members = [np.nonzero(table.value_index == u)[0] for u in range(table.n_values)]
    edges = []
    for obs in members:
        for a in range(len(obs)):
            for b in range(a + 1, len(obs)):
                edges.append((int(obs[a]), int(obs[b])))
    for u, v in c0.edges:
        for a in members[u]:
            for b in members[v]:
                edges.append((int(a), int(b)))
    return SimilarityGraph.from_edges(table.n_total, edges)


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


def knnl_by_rounds(dist_values, k: int, tol: float = 0.0) -> tuple[tuple[int, int], ...]:
    """The k-NNL edge set, recounted pair by pair and round by round.

    In each round, a finite pair (u, v) not taken by an earlier round is
    kept when the pairs of that round lighter than it by more than ``tol``
    leave u and v disconnected; a fresh union-find is built for every
    pair. Non-finite distances are inadmissible. A round with no pair left
    raises InfeasibleGraphError.
    """
    d = np.asarray(dist_values, dtype=np.float64)
    n = d.shape[0]
    taken: set[tuple[int, int]] = set()
    for round_index in range(k):
        pairs = [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if (u, v) not in taken and np.isfinite(d[u, v])
        ]
        if not pairs:
            raise InfeasibleGraphError(f"round {round_index + 1} of {k} has no pair left")
        kept = []
        for u, v in pairs:
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for a, b in pairs:
                if d[a, b] < d[u, v] - tol:
                    parent[find(b)] = find(a)
            if find(u) != find(v):
                kept.append((u, v))
        taken.update(kept)
    return tuple(sorted(taken))


def kmst_by_kruskal(dist_values, k: int, seed: int) -> tuple[tuple[int, int], ...]:
    """The k-MST edge set by Kruskal's sweep over the sorted pairs.

    Each round draws one seeded key per pair u < v, in row-major order,
    sorts the pairs by (distance, key) with equal entries left in pair
    order, and joins every pair not taken by an earlier round that links
    two components. Non-finite distances are inadmissible; a round that
    cannot span the values raises InfeasibleGraphError.
    """
    d = np.asarray(dist_values, dtype=np.float64)
    n = d.shape[0]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    weights = [float(d[u, v]) for u, v in pairs]
    rng = np.random.default_rng(seed)
    taken: set[tuple[int, int]] = set()
    for round_index in range(k):
        keys = rng.random(len(pairs)).tolist()
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        picked = []
        for e in sorted(range(len(pairs)), key=lambda e: (weights[e], keys[e])):
            u, v = pairs[e]
            if pairs[e] in taken or not math.isfinite(weights[e]):
                continue
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[rv] = ru
                picked.append(pairs[e])
        if len(picked) < n - 1:
            raise InfeasibleGraphError(f"round {round_index + 1} of {k} cannot span the values")
        taken.update(picked)
    return tuple(sorted(taken))


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

    The table has at least two values and N >= 4 observations; the fewest
    values that can reach N = 4 is the lower bound of the draw, so every
    redraw of the multiplicities can succeed. ``interior_split`` forces
    2 <= n1 <= N - 2 so all null constants are meaningfully nonzero.
    """
    min_values = max(2, -(-4 // max(max_multiplicity, 1)))
    if max_multiplicity < 1 or max_values < min_values:
        raise InputFormatError("the bounds cannot give two values and four observations")
    k = int(rng.integers(min_values, max_values + 1))
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


# --- closed forms against the oracles (``edgecount verify``) --------------


def _rel_close(a: float, b: float, tol: float = 1e-10) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _mismatches(kind: str, checks, table, c0) -> list[str]:
    """One failure line per (label, closed form, oracle) triple that disagrees."""
    instance = json.dumps(
        {
            "labels": table.labels.tolist(),
            "value_index": table.value_index.tolist(),
            "edges": [list(e) for e in c0.edges],
        },
        sort_keys=True,
    )
    return [
        f"{kind} {label}: closed={have} oracle={float(want)} instance={instance}"
        for label, have, want in checks
        if not _rel_close(have, float(want))
    ]


def _accepted_instances(rng: np.random.Generator, count: int, accept):
    """Yield the first ``count`` random instances that ``accept`` admits."""
    done = 0
    while done < count:
        table, c0 = random_instance(rng, max_values=4, max_multiplicity=3)
        if accept(table, c0):
            done += 1
            yield table, c0


def verify_counts(rng: np.random.Generator, instances: int) -> list[str]:
    """Closed-form counts against the enumerated family and the union graph."""
    failures = []
    small_family = lambda table, c0: count_graph_family(c0, table) <= 2000
    for table, c0 in _accepted_instances(rng, instances, small_family):
        got = extended_counts(table, c0)
        for name, want in (
            ("average", average_over_family(table, c0, cap=2000)),
            ("union", union_counts_direct(table, c0)),
        ):
            have = got.summary(name)
            failures += _mismatches("count", (
                (f"between ({name})", have.between, want[0]),
                (f"within1 ({name})", have.within1, want[1]),
                (f"within2 ({name})", have.within2, want[2]),
            ), table, c0)
    return failures


def verify_moments(rng: np.random.Generator, instances: int, max_n: int) -> list[str]:
    """Closed-form null moments against exhaustive permutations (N <= max_n)."""
    failures = []
    for table, c0 in _accepted_instances(rng, instances, lambda table, c0: table.n_total <= max_n):
        null = enumerate_permutations(table, c0)
        mset = moments(table, c0, require_nondegenerate=False)
        phat = Fraction(table.n1 - 1, table.n_total - 2)
        for name in SUMMARIES:
            moms = mset.summary(name)
            w1 = lambda row: row[f"within1_{name}"]
            w2 = lambda row: row[f"within2_{name}"]
            bt = lambda row: row[f"between_{name}"]
            rw = lambda row: (1 - phat) * w1(row) + phat * w2(row)
            rd = lambda row: w1(row) - w2(row)
            failures += _mismatches("moment", (
                (f"E within1 ({name})", moms.mean_within1, null.mean(w1)),
                (f"Var within1 ({name})", moms.var_within1, null.variance(w1)),
                (f"E within2 ({name})", moms.mean_within2, null.mean(w2)),
                (f"Var within2 ({name})", moms.var_within2, null.variance(w2)),
                (f"Cov ({name})", moms.cov_within, null.covariance(w1, w2)),
                (f"E between ({name})", moms.mean_between, null.mean(bt)),
                (f"Var between ({name})", moms.var_between, null.variance(bt)),
                (f"E weighted ({name})", moms.mean_weighted, null.mean(rw)),
                (f"Var weighted ({name})", moms.var_weighted, null.variance(rw)),
                (f"E difference ({name})", moms.mean_difference, null.mean(rd)),
                (f"Var difference ({name})", moms.var_difference, null.variance(rd)),
            ), table, c0)
    return failures


def verify_nnl(rng: np.random.Generator, instances: int) -> list[str]:
    """The NNL against the union of all minimum spanning trees."""
    failures = []
    for _ in range(instances):
        d = random_tied_matrix(rng, int(rng.integers(3, 7)))
        nnl = build_nnl(d)
        union = mst_union(all_msts(d))
        if tuple(nnl.edges) != union:
            failures.append(
                f"nnl {sorted(nnl.edges)} != union-of-MSTs {sorted(union)} "
                f"for distances {d.tolist()}"
            )
    return failures


def _edges_or_infeasible(build):
    try:
        return build()
    except InfeasibleGraphError:
        return "infeasible"


def verify_knnl(rng: np.random.Generator, instances: int) -> list[str]:
    """The 2- and 3-NNL against the round-by-round recount.

    The instances cycle through three kinds: integer ties at tie tolerance
    0, the same jittered by up to 0.3 at tie tolerance 0.25, and integer
    ties with inf between two random groups of values, which split them.
    """
    failures = []
    for i in range(instances):
        n = int(rng.integers(3, 9))
        d = random_tied_matrix(rng, n).astype(np.float64)
        k = int(rng.integers(2, 4))
        tol = 0.0
        if i % 3 == 1:
            jitter = np.triu(rng.random((n, n)) * 0.3, 1)
            d += jitter + jitter.T
            tol = 0.25
        elif i % 3 == 2:
            group = rng.integers(0, 2, size=n)
            d[group[:, None] != group[None, :]] = np.inf
        dist = DistanceMatrix(values=d, tie_tolerance=tol) if tol else d
        have = _edges_or_infeasible(lambda: build_knnl(dist, k).edges)
        want = _edges_or_infeasible(lambda: knnl_by_rounds(d, k, tol))
        if have != want:
            failures.append(
                f"{k}-nnl (tie tolerance {tol}) {have} != round-by-round recount {want} "
                f"for distances {d.tolist()}"
            )
    return failures


def verify_kmst(rng: np.random.Generator, instances: int) -> list[str]:
    """The 1- to 3-MST against Kruskal's sorted sweep, seed by seed."""
    failures = []
    for _ in range(instances):
        d = random_tied_matrix(rng, int(rng.integers(2, 9)), int(rng.integers(1, 4)))
        k = int(rng.integers(1, 4))
        seed = int(rng.integers(2**32))
        have = _edges_or_infeasible(lambda: build_kmst(d, k, seed).edges)
        want = _edges_or_infeasible(lambda: kmst_by_kruskal(d, k, seed))
        if have != want:
            failures.append(
                f"{k}-mst (seed {seed}) {have} != sorted Kruskal {want} "
                f"for distances {d.tolist()}"
            )
    return failures
