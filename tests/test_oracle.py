"""The brute-force oracles themselves, pinned on hand-countable instances.

The oracles exist to check the closed forms, so these tests validate the
oracles only against things countable by hand or against standard library
routines (scipy's minimum spanning tree), never against the closed forms
they are meant to police.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse.csgraph import minimum_spanning_tree

from edgecount.dataset import DistanceMatrix
from edgecount.errors import FamilyTooLargeError, InputFormatError
from edgecount.graphs import SimilarityGraph, build_nnl
from edgecount.oracle import (
    all_msts,
    average_over_family,
    enumerate_count_vectors,
    enumerate_permutations,
    mst_union,
    mst_weight_prim,
    paper_average_moments,
    random_instance,
    random_tied_matrix,
    union_counts_direct,
)

from conftest import (
    FIVE_VALUE_DISTANCES,
    FIVE_VALUE_MST_COUNT,
    is_connected,
    table_from_counts,
)


# ---------------------------------------------------------------------------
# Exhaustive permutation null


def test_count_vector_support_is_hand_countable():
    support = dict(enumerate_count_vectors((2, 2), 2))
    assert support == {(0, 2): 1, (1, 1): 4, (2, 0): 1}
    assert sum(support.values()) == math.comb(4, 2)


def test_count_vectors_cover_every_split():
    m = (3, 1, 2)
    for n1 in range(sum(m) + 1):
        rows = list(enumerate_count_vectors(m, n1))
        assert sum(w for _, w in rows) == math.comb(sum(m), n1)
        for vec, w in rows:
            assert sum(vec) == n1
            assert all(0 <= c <= mu for c, mu in zip(vec, m))
            assert w == math.prod(math.comb(mu, c) for c, mu in zip(vec, m))


def test_exhaustive_null_total_weight_and_constant_mean():
    table = table_from_counts((1, 1, 0), (2, 1, 1))
    c0 = SimilarityGraph.from_edges(3, [(0, 1), (1, 2)])
    null = enumerate_permutations(table, c0)
    assert null.total_weight == math.comb(4, 2)
    assert null.mean(lambda r: Fraction(7)) == Fraction(7)
    assert null.variance(lambda r: Fraction(7)) == 0


def test_exhaustive_null_with_empty_sample_has_zero_variance():
    table = table_from_counts((0, 0), (3, 1))
    c0 = SimilarityGraph.from_edges(2, [(0, 1)])
    null = enumerate_permutations(table, c0)
    assert null.total_weight == 1
    assert null.variance(lambda r: r["within2_union"]) == 0
    assert null.mean(lambda r: r["within1_union"]) == 0


def test_exhaustive_null_pvalues_on_a_hand_enumerated_instance():
    # m=(2,1,1), path graph; n1=2. The union-summary within-1 count is 1
    # unless the two sample-1 observations sit on values 1 and 3 (the only
    # non-adjacent pair in the union graph), which happens with weight 2 of 6.
    table = table_from_counts((2, 0, 0), (2, 1, 1))
    c0 = SimilarityGraph.from_edges(3, [(0, 1), (1, 2)])
    null = enumerate_permutations(table, c0)
    fn = lambda r: r["within1_union"]
    assert null.mean(fn) == Fraction(2, 3)
    assert null.pvalue(fn, 1, "upper") == Fraction(2, 3)
    assert null.pvalue(fn, 0, "lower") == Fraction(1, 3)
    assert null.pvalue(fn, 1, "lower") == 1
    assert null.pvalue(fn, 1, "two_sided") == Fraction(2, 3)
    with pytest.raises(InputFormatError):
        null.pvalue(fn, 1, "sideways")


def test_exhaustive_null_respects_cap():
    table = table_from_counts((2, 0, 0), (2, 1, 1))
    c0 = SimilarityGraph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(FamilyTooLargeError):
        enumerate_permutations(table, c0, cap=5)


# ---------------------------------------------------------------------------
# Family averaging by direct materialization


def test_papers_average_form_equals_the_exhaustive_null_exactly():
    rng = np.random.default_rng(67)
    for _ in range(40):
        table, c0 = random_instance(rng, max_values=4, max_multiplicity=3)
        null = enumerate_permutations(table, c0)
        n1, n = table.n1, table.n_total
        p_hat = Fraction(n1 - 1, n - 2)
        w1 = lambda r: r["within1_average"]
        w2 = lambda r: r["within2_average"]
        wt = lambda r: (1 - p_hat) * w1(r) + p_hat * w2(r)
        df = lambda r: w1(r) - w2(r)
        want = {
            "total": null.mean(lambda r: w1(r) + w2(r) + r["between_average"]),
            "mean_within1": null.mean(w1),
            "var_within1": null.variance(w1),
            "mean_within2": null.mean(w2),
            "var_within2": null.variance(w2),
            "cov_within": null.covariance(w1, w2),
            "mean_weighted": null.mean(wt),
            "var_weighted": null.variance(wt),
            "mean_difference": null.mean(df),
            "var_difference": null.variance(df),
        }
        assert paper_average_moments(table, c0) == want


def test_family_average_with_no_repeats_is_the_single_graph_count():
    table = table_from_counts((1, 0, 1), (1, 1, 1))
    c0 = SimilarityGraph.from_edges(3, [(0, 1), (1, 2)])
    between, w1, w2 = average_over_family(table, c0)
    # labels (1, 2, 1) on a path: both edges cross samples
    assert (between, w1, w2) == (2, 0, 0)


def test_family_average_on_the_four_graph_instance():
    # K=2, m=(2,2), one edge, one observation of each sample per value:
    # four observation-level graphs, scanned directly.
    table = table_from_counts((1, 1), (2, 2))
    c0 = SimilarityGraph.from_edges(2, [(0, 1)])
    between, w1, w2 = average_over_family(table, c0)
    assert between == Fraction(5, 2)
    assert w1 == Fraction(1, 4)
    assert w2 == Fraction(1, 4)


def test_family_average_on_two_hand_enumerable_members():
    # m=(2,1), one edge, labels (1,2 | 2): two members; between counts 2 and
    # 1, within-2 counts 0 and 1.
    table = table_from_counts((1, 0), (2, 1))
    c0 = SimilarityGraph.from_edges(2, [(0, 1)])
    between, w1, w2 = average_over_family(table, c0)
    assert between == Fraction(3, 2)
    assert w1 == 0
    assert w2 == Fraction(1, 2)


def test_union_counts_direct_on_no_repeat_instance_equals_graph_scan():
    table = table_from_counts((1, 0, 1), (1, 1, 1))
    c0 = SimilarityGraph.from_edges(3, [(0, 1), (1, 2)])
    assert union_counts_direct(table, c0) == (2, 0, 0)


# ---------------------------------------------------------------------------
# All minimum spanning trees


def test_all_msts_unique_when_distances_are_distinct():
    rng = np.random.default_rng(5)
    for _ in range(5):
        k = int(rng.integers(3, 7))
        vals = rng.permutation(k * (k - 1) // 2).astype(np.float64) + 1
        d = np.zeros((k, k))
        d[np.triu_indices(k, 1)] = vals
        d = d + d.T
        trees = all_msts(d)
        assert len(trees) == 1
        assert len(trees[0]) == k - 1


def test_all_msts_counts_six_on_the_five_value_instance():
    assert len(all_msts(FIVE_VALUE_DISTANCES)) == FIVE_VALUE_MST_COUNT


def test_all_msts_with_equal_distances_yields_every_labeled_tree():
    d = np.ones((4, 4)) - np.eye(4)
    trees = all_msts(d)
    assert len(trees) == 16  # 4^2 labeled trees on four nodes
    assert len({tuple(sorted(t)) for t in trees}) == 16


def test_all_mst_weights_agree_with_prim_and_scipy():
    rng = np.random.default_rng(17)
    for _ in range(10):
        k = int(rng.integers(3, 7))
        d = random_tied_matrix(rng, k)
        weight = mst_weight_prim(d)
        scipy_weight = minimum_spanning_tree(d.astype(float)).sum()
        assert weight == pytest.approx(scipy_weight, rel=1e-12)
        for tree in all_msts(d):
            assert sum(d[u, v] for u, v in tree) == pytest.approx(weight, rel=1e-12)


def test_mst_union_deduplicates_and_sorts():
    trees = [((0, 1), (1, 2)), ((1, 2), (0, 2))]
    assert mst_union(trees) == ((0, 1), (0, 2), (1, 2))


def test_all_msts_accepts_distance_matrix_wrapper():
    wrapped = all_msts(DistanceMatrix(values=FIVE_VALUE_DISTANCES))
    assert len(wrapped) == FIVE_VALUE_MST_COUNT


# ---------------------------------------------------------------------------
# Random instance generators


def test_random_tied_matrix_is_a_valid_distance_matrix():
    rng = np.random.default_rng(23)
    d = random_tied_matrix(rng, 6)
    assert d.shape == (6, 6)
    assert (d == d.T).all()
    assert (np.diag(d) == 0).all()
    off = d[np.triu_indices(6, 1)]
    assert off.min() >= 1 and off.max() <= 4


def test_random_instance_rejects_bounds_that_cannot_reach_four_observations():
    with pytest.raises(InputFormatError):
        random_instance(np.random.default_rng(0), max_values=3, max_multiplicity=1)


def test_random_instance_with_single_observations_per_value():
    rng = np.random.default_rng(0)
    for _ in range(20):
        table, c0 = random_instance(rng, max_values=5, max_multiplicity=1)
        assert table.n_total >= 4
        assert (table.multiplicity == 1).all()
        assert c0.n_nodes == table.n_values


def test_random_instance_is_consistent():
    rng = np.random.default_rng(31)
    for _ in range(20):
        table, c0 = random_instance(rng, interior_split=True)
        assert c0.n_nodes == table.n_values
        assert is_connected(c0)
        assert 2 <= table.n1 <= table.n_total - 2
        assert (table.multiplicity >= 1).all()
