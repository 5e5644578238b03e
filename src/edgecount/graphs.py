"""Similarity graphs on distinct values and the induced observation-level family.

The central construction is the nearest neighbor link (NNL): the union of
all minimum spanning trees, so it keeps ALL tied minimal edges and is
well-defined on distance matrices with ties, where "the" minimum spanning
tree is not. A pair is in the NNL when its weight is no more than the
minimax path weight between its endpoints (within the tie tolerance), the
largest single-linkage merge height between them in the leaf order, read
for the few pairs that can qualify. The k-MST instead picks one tree per
round: a Prim growth with seeded per-pair keys that order equal distances.
A graph C0 on the K distinct values induces a family of observation-level
graphs (one observation-pair choice per C0 edge crossed with one spanning
tree per within-value clique); statistics either average over that family
in closed form or evaluate on its edge union. This module builds C0 and
gives its degrees and the family
cardinality; the statistics weigh the family's observation pairs
themselves (``stats.summary_weights``), and only the test oracle lists the
family's members (``oracle.enumerate_graph_family``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import squareform

from .dataset import DistanceMatrix, DistinctTable, _frozen
from .errors import InfeasibleGraphError, InputFormatError


@dataclass(frozen=True)
class SimilarityGraph:
    """Simple undirected graph on distinct-value indices 0..n_nodes-1."""

    n_nodes: int
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def from_edges(cls, n_nodes: int, edges) -> "SimilarityGraph":
        if n_nodes <= 0:
            raise InputFormatError("graph needs at least one node")
        pairs = np.asarray(
            edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64
        )
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise InputFormatError("edges must be (u, v) pairs")
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        bad = (lo == hi) | (lo < 0) | (hi >= n_nodes)
        if bad.any():
            a, b = (int(x) for x in pairs[int(np.argmax(bad))])
            if a == b:
                raise InputFormatError(f"self-loop at node {a}")
            raise InputFormatError(f"edge ({a},{b}) outside 0..{n_nodes - 1}")
        keys = np.sort(lo * n_nodes + hi)
        lo, hi = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n_nodes)
        graph = cls(n_nodes=n_nodes, edges=tuple(zip(lo.tolist(), hi.tolist())))
        graph.__dict__["edge_array"] = _frozen(np.column_stack((lo, hi)))  # seeds the cache
        return graph

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_array(self) -> np.ndarray:
        """Edges as a read-only (n_edges, 2) int array; shape (0, 2) when empty."""
        return _frozen(np.asarray(self.edges, dtype=np.int64).reshape(-1, 2))

    @cached_property
    def degrees(self) -> np.ndarray:
        return _frozen(np.bincount(self.edge_array.ravel(), minlength=self.n_nodes))


def _admissible(dist) -> tuple[np.ndarray, int, float]:
    """Condensed float64 pair weights (u < v, row-major, as ``squareform``
    lays them out) with inf on every non-finite pair, K and the tolerance."""
    if isinstance(dist, DistanceMatrix):
        arr, tol = dist.values, float(dist.tie_tolerance)
    else:
        arr, tol = np.asarray(dist, dtype=np.float64), 0.0
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InputFormatError("distance input must be a square matrix")
        if not (arr == arr.T).all():
            raise InputFormatError("distance input must be symmetric")
    if arr.shape[0] < 2:
        raise InputFormatError("need at least two distinct values to build a graph")
    y = squareform(arr, checks=False).astype(np.float64, copy=False)
    y[~np.isfinite(y)] = np.inf
    return y, arr.shape[0], tol


def _pairs(index: np.ndarray, n: int) -> np.ndarray:
    """The pairs (u, v), u < v, at the given condensed indices, as rows."""
    u = np.arange(n - 1)
    starts = u * (2 * n - u - 1) // 2  # condensed index of (u, u + 1)
    us = np.searchsorted(starts, index, side="right") - 1
    return np.column_stack((us, index - starts[us] + us + 1))


def _prim(work: np.ndarray, key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Grow a minimum spanning forest of the pair weights ``work`` by Prim.

    Returns the nodes in insertion order and each node's parent; the first
    node of each component has parent -1. Each step adds the outside node
    with the lightest finite pair into the grown part, and restarts from the
    lowest-numbered node left when there is none. Equal weights are ordered
    by the smaller ``key`` (a symmetric per-pair array) and then by the
    lower pair (u < v, row-major): under that strict order the forest is
    unique. Each outside node keeps its best pair into the grown part, and
    for two pairs (t, s) and (p, s) into the same node the lower one is that
    with t < p. Only comparisons touch the weights, so exact ties stay exact.
    """
    n = work.shape[0]
    order = np.empty(n, dtype=np.intp)
    parent = np.full(n, -1, dtype=np.intp)
    best = np.full(n, np.inf)  # lightest pair into the grown part; inf once grown
    best_key = np.full(n, np.inf)
    outside = np.ones(n, dtype=bool)
    for i in range(n):
        t = int(np.argmin(best))
        x = best[t]
        if x == np.inf:  # the grown part is a whole component: start another
            t = int(np.argmax(outside))
            parent[t] = -1
        else:
            tied = np.where(best == x, best_key, np.inf)
            t = int(np.argmin(tied))
            same = np.flatnonzero(tied == tied[t])
            if same.size > 1:  # equal keys as well: the lower pair first
                lo, hi = np.minimum(same, parent[same]), np.maximum(same, parent[same])
                t = int(same[np.argmin(lo * n + hi)])
        order[i] = t
        outside[t] = False
        best[t] = np.inf
        w, k = work[t], key[t]
        closer = outside & (
            (w < best) | ((w == best) & ((k < best_key) | ((k == best_key) & (t < parent))))
        )
        best_key[closer] = k[closer]
        best[closer] = w[closer]
        parent[closer] = t
    return order, parent


def _leaf_order(y: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Single-linkage leaf order of the condensed pair weights ``y``: each
    value's position, and js, where js[p] is the height of the merge whose
    right child starts at position p (js[0] is inf). For positions i < j,
    max(js[i+1..j]) is the height of their lowest common ancestor (merges
    below it are no higher), which is the minimax path weight B. Excluded
    pairs (inf) enter as the largest float, which no finite pair exceeds,
    so they lower no B of two values joined by finite pairs; where they
    split the values, the merges joining the parts read that float."""
    z = linkage(np.minimum(y, np.finfo(np.float64).max), "single")
    left, right = z[:, :2].astype(np.intp).T
    # A right child's leaves start after its left sibling's: add these
    # offsets up the tree by pointer doubling (the root adds 0 to itself).
    up = np.arange(2 * n - 1)
    up[left] = up[right] = np.arange(n, 2 * n - 1)
    start = np.zeros(2 * n - 1, dtype=np.intp)
    start[right] = np.append(np.ones(n, dtype=np.intp), z[:, 3].astype(np.intp))[left]
    for _ in range(n.bit_length()):
        start += start[up]
        up = up[up]
    js = np.full(n, np.inf)
    js[start[right]] = z[:, 2]
    return start[:n], js


def _range_max(js: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """max(js[lo[i] + 1 .. hi[i]]) for each query lo[i] < hi[i], from a
    sparse table: row j holds the maxima of the runs of 2**j entries, and a
    query of length L >= 2**j takes the larger of the two runs covering it."""
    n = js.size
    table = np.full(((n - 1).bit_length(), n), np.inf)
    table[0] = js
    for j in range(1, table.shape[0]):
        half, size = 1 << (j - 1), n - (1 << j) + 1
        table[j, :size] = np.maximum(table[j - 1, :size], table[j - 1, half:half + size])
    level = np.frexp(hi - lo)[1] - 1
    return np.maximum(table[level, lo + 1], table[level, hi - (1 << level) + 1])


def _nnl_round(y: np.ndarray, n: int, tol: float) -> np.ndarray:
    """Condensed indices, ascending, of the pairs of one NNL round on ``y``.
    B <= cap, the highest merge, so ``y - tol <= cap`` (that float
    expression, a necessary condition for the keep test bit for bit)
    selects the candidates, the only pairs B is read for."""
    position, js = _leaf_order(y, n)
    cap = js[1:].max()
    index = np.flatnonzero(y - tol <= cap)
    lo, hi = np.sort(position[_pairs(index, n)], axis=1).T
    return index[_range_max(js, lo, hi) >= y[index] - tol]


def build_nnl(dist) -> SimilarityGraph:
    """Nearest neighbor link graph of a symmetric dissimilarity matrix.

    The result contains exactly the pairs that occur in at least one minimum
    spanning tree of the weighted complete graph on the distinct values. By
    the cycle property, a pair (u, v) of weight w belongs to some minimum
    spanning tree precisely when no path of pairs lighter than w joins u
    and v, that is, when the minimax path weight B(u, v) (the least, over
    all paths, of the heaviest pair on the path) is at least w. Ties within
    ``tie_tolerance`` count as equal: a pair is kept when B(u, v) >=
    w - tie_tolerance, i.e. when pairs lighter by more than the tolerance
    leave u and v disconnected. B is the height at which single linkage
    (Friedman and Rafsky's minimum spanning tree as a dendrogram) joins u
    and v: the largest merge height between them in the leaf order. Merge
    heights are copies of pair weights and only max and comparisons touch
    them, so exact ties stay exact, tied pairs never block one another and
    no processing order matters. B is read only for the candidates with
    w - tie_tolerance <= cap, the highest merge (the largest float when
    inadmissible pairs split the values). The cost is O(K^2) time in
    SciPy's single linkage and four condensed vectors of K(K-1)/2 pairs
    (the weights, the linkage's copy, the filter's difference and mask).

    Non-finite distances mark pairs as inadmissible; that is how later
    rounds of multi-graph constructions drop earlier rounds' edges. When
    inadmissible pairs disconnect the values, the result is the union of
    all minimum spanning forests (per remaining component); with no
    admissible pair at all the graph is undefined and InfeasibleGraphError
    is raised. With every pair finite the result contains a spanning tree
    and is therefore connected.
    """
    y, n, tol = _admissible(dist)
    index = _nnl_round(y, n, tol)
    if not index.size:
        raise InfeasibleGraphError("no admissible pair remains")
    return SimilarityGraph.from_edges(n, _pairs(index, n))


def build_knnl(dist, k: int) -> SimilarityGraph:
    """Union of the 1st..kth NNLs, each round excluding earlier rounds' edges.

    O(k * K^2) time for K distinct values; each round is one ``build_nnl``
    step on one shared condensed vector of the pair weights, then sets its
    pairs to inf; no round allocates a K x K array.
    """
    if k < 1:
        raise InputFormatError("k must be >= 1")
    y, n, tol = _admissible(dist)
    rounds = []
    for round_index in range(k):
        index = _nnl_round(y, n, tol)
        if not index.size:
            raise InfeasibleGraphError(
                f"round {round_index + 1} of {k} has no admissible pair left"
            )
        y[index] = np.inf
        rounds.append(index)
    return SimilarityGraph.from_edges(n, _pairs(np.concatenate(rounds), n))


def build_kmst(dist, k: int, seed: int) -> SimilarityGraph:
    """Union of k successive minimum spanning trees with seeded tie-breaking.

    Each round draws one key per pair u < v, in row-major order (the stream
    of ``rng.random(K(K-1)/2)``), and takes the minimum spanning tree under
    the order (distance, key, pair): a Prim growth on a working copy of the
    distances. That order is strict, so the tree is unique, and it is the
    tree Kruskal's sweep over the pairs sorted that way would build. Equal
    distances are thus ordered by the seeded keys, and different seeds can
    return different (all minimal) trees when the distances have ties. The
    controllable non-determinism is the point: it exposes how much
    graph-based statistics move across equally valid trees. Each round's
    pairs are inadmissible in later rounds, as are non-finite distances; a
    round whose admissible pairs do not span the values raises
    InfeasibleGraphError. The cost is O(k * K^2) time and two K x K float64
    arrays.
    """
    if k < 1:
        raise InputFormatError("k must be >= 1")
    work = squareform(_admissible(dist)[0])  # Prim never reads its zero diagonal
    n = work.shape[0]
    rng = np.random.default_rng(seed)
    key = np.zeros_like(work)
    rounds = []
    for round_index in range(k):
        for u in range(n - 1):
            rng.random(out=key[u, u + 1:])
            key[u + 1:, u] = key[u, u + 1:]
        order, parent = _prim(work, key)
        child = order[1:]
        if (parent[child] < 0).any():
            raise InfeasibleGraphError(
                f"round {round_index + 1} of {k} has no spanning tree of admissible pairs left"
            )
        work[child, parent[child]] = work[parent[child], child] = np.inf
        rounds.append(np.column_stack((child, parent[child])))
    return SimilarityGraph.from_edges(n, np.concatenate(rounds))


def count_graph_family(c0: SimilarityGraph, table: DistinctTable) -> int:
    """Exact size of the induced observation-level graph family.

    One observation pair per C0 edge (m_u * m_v choices) crossed with one
    labeled spanning tree per within-value clique (m_u ** (m_u - 2) by
    Cayley's formula; a single observation contributes factor 1). Each
    value u is a factor of its deg_u edges, so the size is the product of
    m_u ** (deg_u + max(m_u - 2, 0)) over the values.
    """
    if c0.n_nodes != table.n_values:
        raise InputFormatError("graph and table disagree on the number of distinct values")
    m = table.multiplicity
    exponents = c0.degrees + np.maximum(m - 2, 0)
    return math.prod(int(mu) ** int(e) for mu, e in zip(m, exponents))


# --- graph file format ----------------------------------------------------
#
# Edge list CSV of 1-based distinct-value indices, one "u,v" pair per line,
# preceded by a header line "K=<K>". Used for both export and user-supplied
# graph import.


def write_graph(path, graph: SimilarityGraph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"K={graph.n_nodes}\n")
        for u, v in graph.edges:
            fh.write(f"{u + 1},{v + 1}\n")


def read_graph(path) -> SimilarityGraph:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(no, line.strip()) for no, line in enumerate(fh, start=1)]
    lines = [(no, line) for no, line in lines if line and not line.startswith("#")]
    if not lines:
        raise InputFormatError(f"{path}: empty graph file")
    lineno, header = lines[0]
    if not header.startswith("K="):
        raise InputFormatError(f"{path}:{lineno}: expected header 'K=<K>'")
    try:
        n_nodes = int(header.split("=", 1)[1])
    except ValueError:
        raise InputFormatError(f"{path}:{lineno}: malformed node count") from None
    edges = []
    for lineno, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 2:
            raise InputFormatError(f"{path}:{lineno}: expected 'u,v'")
        try:
            u, v = int(cells[0]), int(cells[1])
        except ValueError:
            raise InputFormatError(f"{path}:{lineno}: non-integer node index") from None
        if not (1 <= u <= n_nodes and 1 <= v <= n_nodes):
            raise InputFormatError(f"{path}:{lineno}: node index outside 1..{n_nodes}")
        edges.append((u - 1, v - 1))
    try:
        return SimilarityGraph.from_edges(n_nodes, edges)
    except InputFormatError as exc:
        raise InputFormatError(f"{path}: {exc}") from None
