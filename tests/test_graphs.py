"""Graph construction, the induced union graph, and family enumeration."""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from pathlib import Path

import warnings

import numpy as np
import pytest
from scipy.spatial.distance import squareform
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edgecount import (
    DistanceMatrix,
    FamilyTooLargeError,
    InfeasibleGraphError,
    InputFormatError,
    SimilarityGraph,
    build_kmst,
    build_knnl,
    build_nnl,
    count_graph_family,
    deduplicate,
    enumerate_graph_family,
    expand_to_observations,
    load_table,
    materialize_union_graph,
    pairwise_distances,
    read_graph,
    write_graph,
)
from edgecount.graphs import _leaf_order, _range_max
from edgecount.oracle import (
    _edges_or_infeasible,
    _prufer_tree,
    all_msts,
    kmst_by_kruskal,
    knnl_by_rounds,
    mst_union,
    mst_weight_prim,
    random_tied_matrix,
)
from edgecount.stats import summary_weights

from conftest import (
    FIVE_VALUE_DISTANCES,
    FIVE_VALUE_FAMILY_SIZE,
    FIVE_VALUE_MULTIPLICITY,
    FIVE_VALUE_NNL_EDGES,
    is_connected,
    table_from_counts,
)

# --- SimilarityGraph basics --------------------------------------------------


def test_from_edges_canonicalizes_and_validates():
    g = SimilarityGraph.from_edges(3, [(2, 1), (0, 1), (1, 2)])
    assert g.edges == ((0, 1), (1, 2))
    assert g.n_edges == 2
    with pytest.raises(InputFormatError):
        SimilarityGraph.from_edges(3, [(0, 0)])
    with pytest.raises(InputFormatError):
        SimilarityGraph.from_edges(3, [(0, 3)])


def test_from_edges_reports_the_first_bad_edge_in_input_order():
    with pytest.raises(InputFormatError, match=r"^edge \(0,5\) outside 0\.\.2$"):
        SimilarityGraph.from_edges(3, [(0, 1), (0, 5), (2, 2), (-1, 1)])
    with pytest.raises(InputFormatError, match=r"^self-loop at node 2$"):
        SimilarityGraph.from_edges(3, np.array([(1, 0), (2, 2), (0, 5)]))
    with pytest.raises(InputFormatError, match=r"^edge \(-1,1\) outside 0\.\.2$"):
        SimilarityGraph.from_edges(3, [(-1, 1), (1, 1)])
    assert SimilarityGraph.from_edges(4, []).edges == ()
    assert SimilarityGraph.from_edges(4, np.array([[3, 0], [0, 3], [2, 1]])).edges == (
        (0, 3), (1, 2)
    )


def test_from_edges_keeps_the_sorted_unique_pairs_of_repeated_edges_in_both_orientations():
    rng = np.random.default_rng(59)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        u = rng.integers(0, n, size=int(rng.integers(1, 60)))
        v = (u + rng.integers(1, n, size=u.size)) % n
        keys = np.unique(np.minimum(u, v) * n + np.maximum(u, v))
        g = SimilarityGraph.from_edges(n, np.column_stack((u, v)))
        assert g.edge_array.tolist() == np.column_stack(np.divmod(keys, n)).tolist()
        assert g.edges == tuple(map(tuple, g.edge_array.tolist()))


@pytest.mark.parametrize("edges", [[(2, 1), (0, 1), (1, 2)], []])
def test_from_edges_seeds_a_read_only_edge_array(edges):
    g = SimilarityGraph.from_edges(3, edges)
    assert "edge_array" in vars(g)  # seeded, not parsed again from the tuples
    assert g.edge_array.shape == (g.n_edges, 2)
    assert g.edge_array.dtype == np.int64
    assert (g.edge_array == np.asarray(g.edges, dtype=np.int64).reshape(-1, 2)).all()
    assert not g.edge_array.flags.writeable


def test_degree_sum_is_twice_edge_count():
    rng = np.random.default_rng(0)
    for _ in range(20):
        k = int(rng.integers(2, 9))
        all_pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
        take = rng.random(len(all_pairs)) < 0.5
        edges = [p for p, t in zip(all_pairs, take) if t]
        g = SimilarityGraph.from_edges(k, edges)
        assert int(g.degrees.sum()) == 2 * g.n_edges


# --- nearest-neighbor link ---------------------------------------------------


def test_nnl_two_nodes_single_edge():
    g = build_nnl(DistanceMatrix(values=np.array([[0, 5], [5, 0]])))
    assert g.edges == ((0, 1),)


def test_nnl_reproduces_known_union_graph():
    g = build_nnl(DistanceMatrix(values=FIVE_VALUE_DISTANCES))
    assert g.edges == FIVE_VALUE_NNL_EDGES


def test_nnl_requires_two_nodes():
    with pytest.raises(InputFormatError):
        build_nnl(DistanceMatrix(values=np.zeros((1, 1))))


def test_nnl_equals_union_of_all_msts_on_random_tied_matrices():
    rng = np.random.default_rng(7)
    for _ in range(60):
        k = int(rng.integers(3, 8))
        d = random_tied_matrix(rng, k)
        nnl = build_nnl(DistanceMatrix(values=d))
        union = mst_union(all_msts(d))
        assert nnl.edges == union


def test_nnl_keeps_ties_between_nodes_already_joined_by_other_equal_pairs():
    # Regression: the two weight-1 pairs plus the weight-2 pairs touching
    # nodes 0 and 4 already connect all six values, yet (1,2) and (3,5) are
    # weight-2 ties whose endpoints are separated in the strictly-lighter
    # subgraph, so they sit in minimum spanning trees too and must be kept.
    d = np.array(
        [
            [0, 4, 4, 2, 2, 2],
            [4, 0, 2, 1, 2, 4],
            [4, 2, 0, 3, 4, 1],
            [2, 1, 3, 0, 2, 2],
            [2, 2, 4, 2, 0, 2],
            [2, 4, 1, 2, 2, 0],
        ]
    )
    nnl = build_nnl(DistanceMatrix(values=d))
    assert nnl.edges == mst_union(all_msts(d))
    assert {(1, 2), (3, 5)} <= set(nnl.edges)


def test_nnl_without_ties_is_tree_iff_unique_mst():
    rng = np.random.default_rng(13)
    for _ in range(20):
        k = int(rng.integers(3, 8))
        # all pairwise distances distinct -> the MST is unique
        vals = rng.permutation(k * (k - 1) // 2) + 1
        d = np.zeros((k, k))
        it = iter(vals)
        for i in range(k):
            for j in range(i + 1, k):
                d[i, j] = d[j, i] = next(it)
        nnl = build_nnl(DistanceMatrix(values=d))
        trees = all_msts(d)
        assert len(trees) == 1
        assert nnl.edges == trees[0]
        assert nnl.n_edges == k - 1
        assert is_connected(nnl)


def test_nnl_is_invariant_to_node_relabeling():
    rng = np.random.default_rng(23)
    for _ in range(20):
        k = int(rng.integers(3, 8))
        d = random_tied_matrix(rng, k)
        base = build_nnl(DistanceMatrix(values=d))
        perm = rng.permutation(k)
        shuffled = d[np.ix_(perm, perm)]
        relabeled = build_nnl(DistanceMatrix(values=shuffled))
        mapped = {tuple(sorted((int(perm[a]), int(perm[b])))) for a, b in relabeled.edges}
        assert mapped == set(base.edges)


# --- k-NNL -------------------------------------------------------------------


def test_knnl_round_one_is_nnl():
    rng = np.random.default_rng(3)
    d = random_tied_matrix(rng, 6)
    assert build_knnl(DistanceMatrix(values=d), 1).edges == build_nnl(
        DistanceMatrix(values=d)
    ).edges


def test_knnl_three_nodes_distinct_distances_round_two_is_triangle():
    d = np.array([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
    g = build_knnl(DistanceMatrix(values=d), 2)
    assert g.edges == ((0, 1), (0, 2), (1, 2))


def test_knnl_rounds_are_disjoint_and_nested():
    rng = np.random.default_rng(29)
    for _ in range(10):
        d = random_tied_matrix(rng, 6)
        mat = DistanceMatrix(values=d)
        previous: set = set()
        for k in range(1, 4):
            try:
                g = build_knnl(mat, k)
            except InfeasibleGraphError:
                # a round can only run dry once earlier rounds used every pair
                assert len(previous) == 15
                break
            assert previous <= set(g.edges)
            previous = set(g.edges)
        # the rounds partition the k-NNL: recompute round 2 by masking round 1
        round1 = set(build_knnl(mat, 1).edges)
        masked = d.astype(np.float64).copy()
        for a, b in round1:
            masked[a, b] = masked[b, a] = np.inf
        if len(round1) == 15:
            with pytest.raises(InfeasibleGraphError):
                build_knnl(mat, 2)
            continue
        round2_direct = set(build_nnl(masked).edges)
        assert set(build_knnl(mat, 2).edges) == round1 | round2_direct
        assert round1.isdisjoint(round2_direct)


def _assert_knnl_matches_round_recount(matrices, tol):
    """Every k-NNL, k = 1, 2, 3, equals the oracle's; returns the infeasible count."""
    infeasible = 0
    for d in matrices:
        mat = DistanceMatrix(values=d, tie_tolerance=tol)
        for k in (1, 2, 3):
            have = _edges_or_infeasible(lambda: build_knnl(mat, k).edges)
            want = _edges_or_infeasible(lambda: knnl_by_rounds(d, k, tol))
            assert have == want, (k, d.tolist())
            infeasible += have == "infeasible"
    return infeasible


def test_knnl_equals_round_by_round_recount_on_integer_ties():
    rng = np.random.default_rng(41)
    matrices = [random_tied_matrix(rng, int(rng.integers(3, 9))) for _ in range(300)]
    # small matrices run out of pairs by round 3, which must raise
    assert _assert_knnl_matches_round_recount(matrices, 0.0) > 0


def test_knnl_with_tie_tolerance_equals_round_by_round_recount():
    rng = np.random.default_rng(43)
    matrices = []
    for _ in range(300):
        n = int(rng.integers(3, 9))
        jitter = np.triu(rng.random((n, n)) * 0.3, 1)
        matrices.append(random_tied_matrix(rng, n) + jitter + jitter.T)
    _assert_knnl_matches_round_recount(matrices, 0.25)
    # jitter below the tolerance re-creates ties that exact comparison splits
    assert any(
        build_nnl(DistanceMatrix(values=d, tie_tolerance=0.25)).edges
        != build_nnl(DistanceMatrix(values=d)).edges
        for d in matrices
    )


def test_knnl_keeps_a_pair_tied_only_after_rounding_the_tolerance():
    # 1 + 2**-52 minus 2**-53 rounds to 1.0, the minimax weight of (0, 2), so
    # the pair ties; cap + tol rounds to 1.0 as well, so a candidate filter
    # written as w <= cap + tol would drop it.
    d = np.array([[0, 1, 1 + 2**-52], [1, 0, 1], [1 + 2**-52, 1, 0]])
    tol = 2.0**-53
    g = build_knnl(DistanceMatrix(values=d, tie_tolerance=tol), 1)
    assert g.edges == ((0, 1), (0, 2), (1, 2))
    assert g.edges == knnl_by_rounds(d, 1, tol)


def test_range_max_equals_the_brute_force_maximum():
    rng = np.random.default_rng(53)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        js = rng.integers(0, 5, size=n).astype(np.float64)
        js[rng.random(n) < 0.15] = np.inf  # merges across components
        js[0] = np.inf
        lo, hi = np.triu_indices(n, 1)
        want = [js[i + 1:j + 1].max() for i, j in zip(lo, hi)]
        assert _range_max(js, lo, hi).tolist() == want


def test_leaf_order_range_maxima_are_the_minimax_path_weights():
    rng = np.random.default_rng(61)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        d = random_tied_matrix(rng, n).astype(np.float64)
        cut = np.triu(rng.random((n, n)) < 0.4, 1)  # exclusions that may split the values
        d[cut | cut.T] = np.inf
        # the linkage sees an excluded pair as the largest float
        minimax = np.minimum(d, np.finfo(np.float64).max)
        for w in range(n):  # Floyd-Warshall on the heaviest pair of a path
            minimax = np.minimum(minimax, np.maximum(minimax[:, w:w + 1], minimax[w:w + 1, :]))
        position, js = _leaf_order(squareform(d, checks=False), n)
        assert sorted(position.tolist()) == list(range(n))
        for u in range(n):
            for v in range(u + 1, n):
                lo, hi = sorted((position[u], position[v]))
                assert js[lo + 1:hi + 1].max() == minimax[u, v], (u, v, d.tolist())


def _assert_knnl_matches_the_oracle_without_warnings(d, ks=(1, 2, 3)):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in ks:
            have = _edges_or_infeasible(lambda: build_knnl(d, k).edges)
            assert have == _edges_or_infeasible(lambda: knnl_by_rounds(d, k)), (k, d.tolist())


def test_knnl_with_a_finite_largest_float_and_splitting_exclusions():
    big = np.finfo(np.float64).max
    rng = np.random.default_rng(67)
    for _ in range(100):
        n = int(rng.integers(3, 9))
        d = np.array([1.0, 2.0, big])[random_tied_matrix(rng, n, high=3) - 1]
        group = rng.integers(0, 2, size=n)
        d[group[:, None] != group[None, :]] = np.inf
        np.fill_diagonal(d, 0.0)
        _assert_knnl_matches_the_oracle_without_warnings(d)


def test_knnl_tells_zero_from_the_smallest_subnormal_weight():
    rng = np.random.default_rng(71)
    for _ in range(100):
        n = int(rng.integers(3, 9))
        d = np.array([0.0, 5e-324, 1.0])[random_tied_matrix(rng, n, high=3) - 1]
        np.fill_diagonal(d, 0.0)
        _assert_knnl_matches_the_oracle_without_warnings(d)


@pytest.mark.parametrize("w", [0.0, 1.0, np.finfo(np.float64).max, np.inf])
def test_knnl_on_two_values(w):
    _assert_knnl_matches_the_oracle_without_warnings(np.array([[0.0, w], [w, 0.0]]), ks=(1, 2))


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.lists(st.integers(-8, 8), min_size=2, max_size=2), min_size=3, max_size=9),
    st.lists(st.integers(-2**20, 2**20), min_size=2, max_size=2),
    st.integers(1, 3),
)
def test_knnl_of_dyadic_vectors_survives_translation(rows, shift, k):
    # Quarter-grid points moved by an eighth-grid offset keep every
    # coordinate difference exact, so every tie between distances survives.
    points = np.array(rows, dtype=np.float64) / 4
    labels = [1 + i % 2 for i in range(len(rows))]
    graphs = []
    for offset in (0.0, np.array(shift) / 8):
        table = deduplicate(points + offset, labels, kind="vector")
        assume(table.n_values >= 2)
        dist = pairwise_distances(table)
        graphs.append(_edges_or_infeasible(lambda: build_knnl(dist, k).edges))
    assert graphs[0] == graphs[1]
    assert graphs[0] == _edges_or_infeasible(lambda: knnl_by_rounds(dist.values, k))


def test_nnl_with_disconnecting_exclusions_is_the_union_of_minimum_spanning_forests():
    rng = np.random.default_rng(47)
    for _ in range(100):
        n = int(rng.integers(4, 9))
        d = random_tied_matrix(rng, n).astype(np.float64)
        group = rng.integers(0, 3, size=n)
        excluded = group[:, None] != group[None, :]
        forests = set()
        for nodes in (np.flatnonzero(group == g) for g in range(3)):
            if len(nodes) >= 2:
                for a, b in mst_union(all_msts(d[np.ix_(nodes, nodes)])):
                    forests.add((int(nodes[a]), int(nodes[b])))
        masked = np.where(excluded, np.inf, d)
        got = build_nnl(masked)
        assert set(got.edges) == forests
        assert is_connected(got) == (len(set(group.tolist())) == 1)
        assert got.edges == knnl_by_rounds(masked, 1)
        with pytest.raises(InfeasibleGraphError, match="no admissible pair remains"):
            build_nnl(np.full((n, n), np.inf))


def test_knnl_infeasible_round_raises():
    d = np.array([[0, 1], [1, 0]])
    with pytest.raises(InfeasibleGraphError):
        build_knnl(DistanceMatrix(values=d), 2)


# --- k-MST -------------------------------------------------------------------


def test_kmst_unique_mst_is_seed_independent():
    d = np.array([[0, 1, 4], [1, 0, 2], [4, 2, 0]])
    expected = (((0, 1), (1, 2)))
    for seed in range(5):
        g = build_kmst(DistanceMatrix(values=d), 1, seed=seed)
        assert g.edges == expected


def test_kmst_tied_instance_varies_across_seeds():
    mat = DistanceMatrix(values=FIVE_VALUE_DISTANCES)
    trees = {build_kmst(mat, 1, seed=s).edges for s in range(30)}
    legal = {t for t in map(tuple, all_msts(FIVE_VALUE_DISTANCES))}
    assert trees <= legal
    assert len(trees) >= 3  # several distinct minimum trees show up


def test_kmst_weight_matches_prim_oracle():
    rng = np.random.default_rng(31)
    for trial in range(20):
        k = int(rng.integers(3, 8))
        d = random_tied_matrix(rng, k)
        g = build_kmst(DistanceMatrix(values=d), 1, seed=trial)
        weight = sum(d[a, b] for a, b in g.edges)
        assert g.n_edges == k - 1
        assert weight == pytest.approx(mst_weight_prim(d))


def test_kmst_rounds_are_disjoint_and_deterministic():
    rng = np.random.default_rng(37)
    d = random_tied_matrix(rng, 7)
    mat = DistanceMatrix(values=d)
    g1 = build_kmst(mat, 2, seed=5)
    g2 = build_kmst(mat, 2, seed=5)
    assert g1.edges == g2.edges
    round1 = set(build_kmst(mat, 1, seed=5).edges)
    assert round1 <= set(g1.edges)
    assert len(g1.edges) == 2 * (7 - 1)


def test_kmst_infeasible_k_raises():
    d = np.array([[0, 1], [1, 0]])
    with pytest.raises(InfeasibleGraphError):
        build_kmst(DistanceMatrix(values=d), 2, seed=0)


def test_kmst_never_spans_through_an_infinite_distance():
    with pytest.raises(InfeasibleGraphError):
        build_kmst(np.array([[0, np.inf], [np.inf, 0]]), 1, seed=0)
    # the finite pairs span: the infinite one is never needed
    d = np.array([[0, 1, np.inf], [1, 0, 1], [np.inf, 1, 0]])
    assert build_kmst(d, 1, seed=0).edges == ((0, 1), (1, 2))
    with pytest.raises(InfeasibleGraphError):
        build_kmst(d, 2, seed=0)


def test_kmst_equals_the_sorted_kruskal_sweep_on_tied_matrices():
    rng = np.random.default_rng(53)
    outcomes = []
    for _ in range(100):
        n = int(rng.integers(2, 31))
        d = random_tied_matrix(rng, n, high=int(rng.integers(1, 4)))
        k = int(rng.integers(1, 4))
        for seed in (0, 1, int(rng.integers(2**32))):
            have = _edges_or_infeasible(lambda: build_kmst(d, k, seed).edges)
            assert have == _edges_or_infeasible(lambda: kmst_by_kruskal(d, k, seed))
            outcomes.append(have == "infeasible")
    assert len(outcomes) == 300
    assert any(outcomes) and not all(outcomes)  # some rounds run dry, most do not


def test_kmst_orders_equal_keys_by_pair_as_the_stable_sort_does(monkeypatch):
    # Keys from three values tie often; the sweep then keeps pair order.
    real_default_rng = np.random.default_rng

    class CoarseKeys:
        def __init__(self, seed):
            self._rng = real_default_rng(seed)

        def random(self, size=None, out=None):
            keys = np.floor(self._rng.random(size, out=out) * 3) / 4
            if out is not None:
                out[...] = keys
            return keys

    monkeypatch.setattr(np.random, "default_rng", CoarseKeys)
    rng = real_default_rng(59)
    for trial in range(60):
        d = random_tied_matrix(rng, int(rng.integers(3, 12)), high=int(rng.integers(1, 3)))
        k = int(rng.integers(1, 3))
        have = _edges_or_infeasible(lambda: build_kmst(d, k, trial).edges)
        assert have == _edges_or_infeasible(lambda: kmst_by_kruskal(d, k, trial))


def test_kmst_equals_the_sorted_kruskal_sweep_on_the_bundled_observations():
    table = load_table(Path(__file__).resolve().parents[1] / "data" / "synthetic_networks.csv", "network")
    obs = expand_to_observations(pairwise_distances(table), table.value_index)
    assert obs.shape == (120, 120)
    trees = set()
    for seed in range(5):
        graph = build_kmst(obs, 3, seed)
        assert graph.edges == kmst_by_kruskal(obs, 3, seed)
        assert graph.n_edges == 3 * 119
        trees.add(graph.edges)
    assert len(trees) == 5  # repeats tie at distance 0, so the seed matters


# --- union graph -------------------------------------------------------------


def test_union_graph_single_value_is_complete():
    table = table_from_counts((3,), (6,))
    c0 = SimilarityGraph.from_edges(1, [])
    u = summary_weights(table.multiplicity, c0)["union"]
    assert u.total == 6 * 5 // 2
    assert u.degree[table.value_index].tolist() == [5] * 6


def test_union_graph_no_repeats_is_c0():
    table = table_from_counts((1, 0, 1), (1, 1, 1))
    c0 = SimilarityGraph.from_edges(3, [(0, 1), (1, 2)])
    u = summary_weights(table.multiplicity, c0)["union"]
    assert u.total == c0.n_edges
    assert u.degree.tolist() == c0.degrees.tolist()


def _exact_spreads(n: int, weighted_pairs) -> tuple[Fraction, Fraction]:
    """Pair spread V and degree spread C of ((a, b), weight) pairs on n observations."""
    total = sum(w for _, w in weighted_pairs)
    degree = [Fraction(0)] * n
    for (a, b), w in weighted_pairs:
        degree[a] += w
        degree[b] += w
    pair_spread = sum(w * w for _, w in weighted_pairs) - total * total / (n * (n - 1) // 2)
    degree_spread = sum((d - 2 * total / n) ** 2 for d in degree)
    return pair_spread, degree_spread


def test_union_graph_formula_matches_materialization():
    table = table_from_counts((1, 2, 2, 2, 1), FIVE_VALUE_MULTIPLICITY)
    c0 = SimilarityGraph.from_edges(5, FIVE_VALUE_NNL_EDGES)
    weights = summary_weights(table.multiplicity, c0)
    u = weights["union"]
    materialized = materialize_union_graph(c0, table)
    assert u.total == materialized.n_edges
    assert u.degree[table.value_index].tolist() == materialized.degrees.tolist()
    assert int((table.multiplicity * u.degree).sum()) == 2 * u.total
    # Union spreads: exact rationals over the materialized edges, rounded once.
    pair_spread, degree_spread = _exact_spreads(
        table.n_total, [(e, Fraction(1)) for e in materialized.edges]
    )
    assert (u.pair_spread, u.degree_spread) == (float(pair_spread), float(degree_spread))
    # Average spreads: the same edges weighted from m and C0, 2/m_u within a
    # value and 1/(m_u m_v) across a C0 edge.
    value, m = table.value_index, table.multiplicity
    pair_spread, degree_spread = _exact_spreads(table.n_total, [
        ((a, b), Fraction(2, int(m[value[a]])) if value[a] == value[b]
         else Fraction(1, int(m[value[a]] * m[value[b]])))
        for a, b in materialized.edges
    ])
    avg = weights["average"]
    assert avg.pair_spread == pytest.approx(float(pair_spread), rel=1e-14)
    assert avg.degree_spread == pytest.approx(float(degree_spread), rel=1e-14)
    # On a cycle every value has degree 2 and |C0| = K, so every average
    # weighted degree equals 2W/N whatever the multiplicities.
    cycle = SimilarityGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    avg = summary_weights(table.multiplicity, cycle)["average"]
    assert avg.degree_spread == pytest.approx(0.0, abs=1e-12)


def test_union_graph_size_mismatch_raises():
    table = table_from_counts((1, 1), (2, 2))
    c0 = SimilarityGraph.from_edges(3, [(0, 1)])
    with pytest.raises((InputFormatError, ValueError)):
        summary_weights(table.multiplicity, c0)


# --- graph family ------------------------------------------------------------


def test_family_size_known_instance():
    table = table_from_counts((1, 2, 2, 2, 1), FIVE_VALUE_MULTIPLICITY)
    c0 = SimilarityGraph.from_edges(5, FIVE_VALUE_NNL_EDGES)
    assert count_graph_family(c0, table) == FIVE_VALUE_FAMILY_SIZE


def test_family_size_no_repeats_is_one():
    table = table_from_counts((1, 0, 1), (1, 1, 1))
    c0 = SimilarityGraph.from_edges(3, [(0, 1), (1, 2)])
    assert count_graph_family(c0, table) == 1
    members = list(enumerate_graph_family(c0, table))
    assert members == [c0.edges]


def test_family_two_values_of_two():
    table = table_from_counts((1, 1), (2, 2))
    c0 = SimilarityGraph.from_edges(2, [(0, 1)])
    assert count_graph_family(c0, table) == 4
    members = list(enumerate_graph_family(c0, table))
    assert len(members) == 4
    assert len(set(members)) == 4


def test_family_triple_and_singleton():
    table = table_from_counts((2, 1), (3, 1))
    c0 = SimilarityGraph.from_edges(2, [(0, 1)])
    # 3 choices for the between edge x 3 spanning trees on the triple
    assert count_graph_family(c0, table) == 9
    members = list(enumerate_graph_family(c0, table))
    assert len(members) == 9
    assert len(set(members)) == 9


def test_family_members_have_fixed_edge_count_and_exact_cardinality():
    rng = np.random.default_rng(41)
    from edgecount.oracle import random_instance

    for _ in range(25):
        table, c0 = random_instance(rng, max_values=4, max_multiplicity=3)
        size = count_graph_family(c0, table)
        if size > 3000:
            continue
        members = list(enumerate_graph_family(c0, table, cap=3000))
        assert len(members) == size
        assert len(set(members)) == size
        expected_edges = table.n_total - table.n_values + c0.n_edges
        for member in members:
            assert len(member) == expected_edges


def test_family_cap_enforced():
    table = table_from_counts((1, 2, 2, 2, 1), FIVE_VALUE_MULTIPLICITY)
    c0 = SimilarityGraph.from_edges(5, FIVE_VALUE_NNL_EDGES)
    with pytest.raises(FamilyTooLargeError):
        list(enumerate_graph_family(c0, table, cap=1000))


def test_spanning_tree_enumeration_is_bijective():
    # decoded trees must hit every labeled tree exactly once
    for n in (3, 4, 5):
        seen = set()
        for seq in product(range(n), repeat=n - 2):
            tree = frozenset(_prufer_tree(tuple(seq), n))
            assert len(tree) == n - 1
            seen.add(tree)
        assert len(seen) == n ** (n - 2)


# --- graph file format ---------------------------------------------------------


def test_graph_file_roundtrip(tmp_path):
    g = SimilarityGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    path = tmp_path / "graph.csv"
    write_graph(path, g)
    text = path.read_text()
    assert text.splitlines()[0] == "K=4"
    back = read_graph(path)
    assert back.n_nodes == 4
    assert back.edges == g.edges


def test_graph_file_rejects_bad_content(tmp_path):
    path = tmp_path / "graph.csv"
    path.write_text("1,2\n")  # missing header
    with pytest.raises(InputFormatError):
        read_graph(path)
    path.write_text("K=3\n1,4\n")  # index out of range
    with pytest.raises(InputFormatError):
        read_graph(path)
    path.write_text("K=3\n2,2\n")  # self-loop
    with pytest.raises(InputFormatError):
        read_graph(path)
