"""The benchmark's reference routines against edgecount.oracle on tiny instances.

Run from the root of the checkout:

    python3 -m pytest -q bench/test_reference.py
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from edgecount import enumerate_graph_family, materialize_union_graph, oracle  # noqa: E402
from reference import Reference, family_size, holds_minimum_spanning_tree, knnl_edges, mc_agree  # noqa: E402

SEEDS = range(25)
FAMILY_CAP = 20000


def random_case(seed: int) -> tuple[Reference, object, object]:
    """A random oracle instance whose graph family is small enough to enumerate."""
    rng = np.random.default_rng(seed)
    while True:
        table, c0 = oracle.random_instance(rng, max_values=4, max_multiplicity=3, interior_split=True)
        ref = Reference(table.labels, table.value_index, np.asarray(c0.edges).reshape(-1, 2))
        if family_size(ref.m, ref.edges) <= FAMILY_CAP:
            return ref, table, c0


@pytest.mark.parametrize("seed", SEEDS)
def test_one_round_nnl_is_the_union_of_all_minimum_spanning_trees(seed):
    rng = np.random.default_rng(seed)
    d = oracle.random_tied_matrix(rng, int(rng.integers(3, 7)))
    got = {tuple(int(x) for x in e) for e in knnl_edges(d, 1)}
    assert got == set(oracle.mst_union(oracle.all_msts(d)))


@pytest.mark.parametrize("seed", SEEDS)
def test_minimum_spanning_tree_check_accepts_exactly_the_minimal_trees(seed):
    rng = np.random.default_rng(seed)
    d = oracle.random_tied_matrix(rng, int(rng.integers(3, 7)))
    assert all(holds_minimum_spanning_tree(d, tree) for tree in oracle.all_msts(d))
    path = rng.permutation(d.shape[0])
    edges = list(zip(path[:-1], path[1:]))
    weight = sum(d[u, v] for u, v in edges)
    assert holds_minimum_spanning_tree(d, edges) == (weight == oracle.mst_weight_prim(d))


@pytest.mark.parametrize("seed", SEEDS)
def test_counts_match_the_materialized_union_and_the_enumerated_family(seed):
    ref, table, c0 = random_case(seed)
    x = (ref.labels == 1).astype(float)
    between, within1, within2 = oracle.union_counts_direct(table, c0)
    w1, w2 = ref.counts("union", x)
    assert (w1[0], w2[0]) == (within1, within2)
    assert ref.union_size == between + within1 + within2
    between, within1, within2 = oracle.average_over_family(table, c0, cap=FAMILY_CAP)
    w1, w2 = ref.counts("average", x)
    assert w1[0] == pytest.approx(float(within1), rel=1e-12)
    assert w2[0] == pytest.approx(float(within2), rel=1e-12)
    assert family_size(ref.m, ref.edges) == sum(1 for _ in enumerate_graph_family(c0, table, cap=FAMILY_CAP))


@pytest.mark.parametrize("seed", SEEDS)
def test_moments_equal_the_exhaustive_permutation_null_exactly(seed):
    ref, table, c0 = random_case(seed)
    null = oracle.enumerate_permutations(table, c0)
    p = Fraction(ref.n1 - 1, ref.n - 2)
    for name in ("average", "union"):
        w1 = lambda row: row[f"within1_{name}"]  # noqa: E731
        w2 = lambda row: row[f"within2_{name}"]  # noqa: E731
        stats = {
            "within1": w1,
            "within2": w2,
            "between": lambda row: row[f"between_{name}"],
            "weighted": lambda row: (1 - p) * w1(row) + p * w2(row),
            "difference": lambda row: w1(row) - w2(row),
        }
        moms = ref.moments()[name]
        for stat, fn in stats.items():
            assert moms[stat] == (null.mean(fn), null.variance(fn)), (name, stat)


@pytest.mark.parametrize("seed", range(8))
def test_shuffle_pvalues_agree_with_exact_permutation_pvalues(seed):
    ref, table, c0 = random_case(seed)
    null = oracle.enumerate_permutations(table, c0)
    observed = next(row for c1, _, row in null.rows if c1 == tuple(int(x) for x in table.counts1))
    p = Fraction(ref.n1 - 1, ref.n - 2)
    draws = 20000
    got = ref.shuffle_pvalues((), draws, seed)
    for name in ("average", "union"):
        w1 = lambda row: row[f"within1_{name}"]  # noqa: E731
        w2 = lambda row: row[f"within2_{name}"]  # noqa: E731
        centre = null.mean(lambda row: w1(row) - w2(row))
        cases = {
            "edge": (lambda row: row[f"between_{name}"], "lower"),
            "weighted": (lambda row: (1 - p) * w1(row) + p * w2(row), "upper"),
            "difference": (lambda row: w1(row) - w2(row) - centre, "two_sided"),
        }
        for key, (fn, direction) in cases.items():
            exact = null.pvalue(fn, fn(observed), direction)
            assert mc_agree(float(exact), 10**9, got[name][key], draws), (name, key)


def _second_order_sum_direct(edges, n):
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return sum(len(adj[i]) * sum(1 for a, b in edges if a in adj[i] or b in adj[i]) for i in range(n))


@pytest.mark.parametrize("seed", SEEDS)
def test_diagnostics_match_direct_scans_of_the_union_and_the_family(seed):
    ref, table, c0 = random_case(seed)
    n = ref.n
    diag = ref.diagnostics()
    union = materialize_union_graph(c0, table)
    assert diag["third_moment_ratio_union"] == pytest.approx(_second_order_sum_direct(union.edges, n) / n**1.5, rel=1e-12)
    assert diag["third_moment_ratio_average"] == pytest.approx(
        _second_order_sum_direct(c0.edges, ref.n_values) / n**1.5, rel=1e-12
    )
    inc = np.bincount(np.asarray(union.edges).ravel(), minlength=n).astype(float)
    assert diag["union_variety_ratio"] == pytest.approx(((inc * inc).sum() - 4 * union.n_edges**2 / n) / n, rel=1e-9, abs=1e-12)
    # Degree variety: a quarter of the spread of family-expected degrees.
    degree_sums = np.zeros(n, dtype=np.int64)
    members = 0
    for member in enumerate_graph_family(c0, table, cap=FAMILY_CAP):
        degree_sums += np.bincount(np.asarray(member).ravel(), minlength=n)
        members += 1
    expected = [Fraction(int(x), members) for x in degree_sums]
    mean = sum(expected) / n
    want = sum((e - mean) ** 2 for e in expected) / 4 / n
    assert diag["degree_variety_ratio"] == pytest.approx(float(want), rel=1e-9, abs=1e-12)
