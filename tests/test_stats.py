"""Count statistics and their exact null moments.

Every closed-form quantity is checked against an independent route: raw
counts against materialized-graph edge scans, null moments against the
exhaustively enumerated permutation null, the vectorized kernel against the
scalar evaluator, and the variance-minimizing weight against a grid search.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgecount.dataset import DistanceMatrix, DistinctTable
from edgecount.errors import DegenerateNullError, InputFormatError
from edgecount.graphs import (
    SimilarityGraph,
    build_knnl,
    build_nnl,
    enumerate_graph_family,
    materialize_union_graph,
)
from edgecount.oracle import (
    _scan_counts,
    average_over_family,
    enumerate_permutations,
    generalized_statistic_quadratic,
    random_tied_matrix,
    union_counts_direct,
)
from edgecount.stats import (
    SUMMARIES,
    StatisticKernel,
    WithinForms,
    evaluate_statistics,
    extended_counts,
    mixture_variance,
    moments,
    pergraph_statistics,
)

from conftest import (
    FIVE_VALUE_DISTANCES,
    FIVE_VALUE_MULTIPLICITY,
    random_counts1,
    table_from_counts,
)


def five_value_graph() -> SimilarityGraph:
    return build_nnl(DistanceMatrix(values=FIVE_VALUE_DISTANCES))


def path_graph(k: int) -> SimilarityGraph:
    return SimilarityGraph.from_edges(k, [(u, u + 1) for u in range(k - 1)])


# ---------------------------------------------------------------------------
# Raw counts


def test_counts_sum_to_graph_size_under_both_summaries(five_value_table):
    c0 = five_value_graph()
    counts = extended_counts(five_value_table, c0)
    n, k = five_value_table.n_total, five_value_table.n_values
    avg = counts.average
    un = counts.union
    # every averaged observation-level graph has N - K + |C0| edges
    assert avg.between + avg.within1 + avg.within2 == pytest.approx(
        n - k + c0.n_edges, abs=1e-9
    )
    union = materialize_union_graph(c0, five_value_table)
    assert un.between + un.within1 + un.within2 == pytest.approx(
        union.n_edges, abs=1e-9
    )


def test_counts_match_family_average_and_union_scan():
    rng = np.random.default_rng(101)
    for _ in range(8):
        k = int(rng.integers(2, 5))
        m = tuple(int(x) for x in rng.integers(1, 4, size=k))
        if sum(m) < 4:
            continue
        c1 = random_counts1(rng, m)
        table = table_from_counts(c1, m)
        d = np.abs(rng.normal(size=(k, k)))
        d = (d + d.T) / 2
        np.fill_diagonal(d, 0.0)
        c0 = build_nnl(d)
        counts = extended_counts(table, c0)
        fam_between, fam_w1, fam_w2 = average_over_family(table, c0, cap=10**5)
        assert counts.average.between == pytest.approx(float(fam_between), abs=1e-10)
        assert counts.average.within1 == pytest.approx(float(fam_w1), abs=1e-10)
        assert counts.average.within2 == pytest.approx(float(fam_w2), abs=1e-10)
        un_between, un_w1, un_w2 = union_counts_direct(table, c0)
        assert counts.union.between == un_between
        assert counts.union.within1 == un_w1
        assert counts.union.within2 == un_w2


def test_counts1_override_is_validated(five_value_table):
    c0 = five_value_graph()
    with pytest.raises(InputFormatError):
        extended_counts(five_value_table, c0, counts1=(1, 2, 2))
    with pytest.raises(InputFormatError):
        extended_counts(five_value_table, c0, counts1=(2, 3, 1, 2, 0))  # bad sum
    with pytest.raises(InputFormatError):
        extended_counts(five_value_table, c0, counts1=(0, 4, 2, 2, 0))  # > multiplicity
    override = extended_counts(five_value_table, c0, counts1=(0, 2, 3, 2, 1))
    default = extended_counts(five_value_table, c0)
    assert override.union != default.union


def test_graph_table_size_mismatch_raises(five_value_table):
    with pytest.raises(InputFormatError):
        extended_counts(five_value_table, path_graph(4))
    with pytest.raises(InputFormatError):
        moments(five_value_table, path_graph(4))


# ---------------------------------------------------------------------------
# Null moments vs the exhaustively enumerated permutation null


def assert_moments_match_exhaustive(table, c0):
    null = enumerate_permutations(table, c0)
    mset = moments(table, c0, require_nondegenerate=False)
    n1, n = table.n1, table.n_total
    p_hat = Fraction(n1 - 1, n - 2)
    for name in SUMMARIES:
        moms = mset.summary(name)
        w1 = lambda r: r[f"within1_{name}"]
        w2 = lambda r: r[f"within2_{name}"]
        bt = lambda r: r[f"between_{name}"]
        wt = lambda r: (1 - p_hat) * r[f"within1_{name}"] + p_hat * r[f"within2_{name}"]
        df = lambda r: r[f"within1_{name}"] - r[f"within2_{name}"]
        checks = [
            (moms.mean_within1, null.mean(w1)),
            (moms.var_within1, null.variance(w1)),
            (moms.mean_within2, null.mean(w2)),
            (moms.var_within2, null.variance(w2)),
            (moms.cov_within, null.covariance(w1, w2)),
            (moms.mean_between, null.mean(bt)),
            (moms.var_between, null.variance(bt)),
            (moms.mean_weighted, null.mean(wt)),
            (moms.var_weighted, null.variance(wt)),
            (moms.mean_difference, null.mean(df)),
            (moms.var_difference, null.variance(df)),
        ]
        for got, exact in checks:
            assert got == pytest.approx(float(exact), abs=1e-10, rel=1e-10), name


def test_moments_match_exhaustive_null_on_balanced_path():
    table = table_from_counts((2, 1, 1), (4, 2, 2))
    assert_moments_match_exhaustive(table, path_graph(3))


def test_moments_match_exhaustive_null_on_unbalanced_path():
    table = table_from_counts((1, 1, 1), (4, 2, 2))
    assert_moments_match_exhaustive(table, path_graph(3))


def test_moments_match_exhaustive_null_on_five_value_instance(five_value_table):
    assert_moments_match_exhaustive(five_value_table, five_value_graph())


def test_union_moments_equal_fixed_graph_moments_of_materialized_union(
    five_value_table,
):
    c0 = five_value_graph()
    union = materialize_union_graph(c0, five_value_table)
    stats, moms = pergraph_statistics(
        union, five_value_table.labels, kappas=(1.0, 1.31)
    )
    mset = moments(five_value_table, c0)
    ref = evaluate_statistics(
        five_value_table, c0, mset=mset, kappas=(1.0, 1.31)
    ).union
    for field in (
        "between",
        "within1",
        "within2",
        "weighted",
        "difference",
        "edge_z",
        "weighted_z",
        "difference_z",
        "generalized",
    ):
        assert getattr(stats, field) == pytest.approx(getattr(ref, field), rel=1e-12)
    for kappa in (1.0, 1.31):
        assert stats.max_stats[kappa] == pytest.approx(ref.max_stats[kappa], rel=1e-12)
    um = mset.union
    assert moms.mean_within1 == pytest.approx(um.mean_within1, rel=1e-12)
    assert moms.var_within1 == pytest.approx(um.var_within1, rel=1e-12)
    assert moms.cov_within == pytest.approx(um.cov_within, rel=1e-12)
    assert moms.var_weighted == pytest.approx(um.var_weighted, rel=1e-12)
    assert moms.var_difference == pytest.approx(um.var_difference, rel=1e-12)


# ---------------------------------------------------------------------------
# Statistic symmetries and identities


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_label_swap_negates_difference_and_preserves_the_rest(data):
    k = data.draw(st.integers(2, 5))
    m = tuple(data.draw(st.integers(1, 4)) for _ in range(k))
    n = sum(m)
    if n < 4:
        m = m + (4 - n,) if 4 - n >= 1 else m
        k = len(m)
        n = sum(m)
    c1 = []
    for mu in m:
        c1.append(data.draw(st.integers(0, mu)))
    n1 = sum(c1)
    if not 2 <= n1 <= n - 2:
        return  # degenerate split; nothing to compare
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    d = np.abs(rng.normal(size=(k, k)))
    d = (d + d.T) / 2
    np.fill_diagonal(d, 0.0)
    c0 = build_nnl(d)

    table = table_from_counts(c1, m)
    swapped = table_from_counts([mu - c for mu, c in zip(m, c1)], m)
    try:
        a = evaluate_statistics(table, c0, kappas=(1.14,))
        b = evaluate_statistics(swapped, c0, kappas=(1.14,))
    except DegenerateNullError:
        return
    for name in SUMMARIES:
        sa, sb = a.summary(name), b.summary(name)
        # swapping the samples swaps the within counts ...
        assert sb.within1 == sa.within2
        assert sb.within2 == sa.within1
        assert sb.between == sa.between
        # ... negates the standardized difference ...
        assert sb.difference_z == pytest.approx(-sa.difference_z, rel=1e-9, abs=1e-9)
        # ... and leaves the weighted/edge/generalized statistics alone
        assert sb.weighted == pytest.approx(sa.weighted, rel=1e-12)
        assert sb.weighted_z == pytest.approx(sa.weighted_z, rel=1e-9, abs=1e-9)
        assert sb.edge_z == pytest.approx(sa.edge_z, rel=1e-9, abs=1e-9)
        assert sb.generalized == pytest.approx(sa.generalized, rel=1e-9, abs=1e-9)
        assert sb.max_stats[1.14] == pytest.approx(
            sa.max_stats[1.14], rel=1e-9, abs=1e-9
        )


def test_generalized_decomposition_matches_quadratic_form():
    rng = np.random.default_rng(202)
    for _ in range(10):
        k = int(rng.integers(3, 6))
        m = tuple(int(x) for x in rng.integers(1, 4, size=k))
        if sum(m) < 5:
            continue
        table = table_from_counts(random_counts1(rng, m), m)
        d = np.abs(rng.normal(size=(k, k)))
        d = (d + d.T) / 2
        np.fill_diagonal(d, 0.0)
        c0 = build_nnl(d)
        try:
            mset = moments(table, c0)
        except DegenerateNullError:
            continue
        counts = extended_counts(table, c0)
        quad = generalized_statistic_quadratic(counts, mset)
        stats = evaluate_statistics(table, c0, mset=mset)
        for name in SUMMARIES:
            s = stats.summary(name)
            direct = s.weighted_z**2 + s.difference_z**2
            assert direct == pytest.approx(quad[name], rel=1e-8, abs=1e-8)
            assert direct == pytest.approx(s.generalized, rel=1e-12)


def test_pooled_weight_minimizes_mixture_variance(five_value_table):
    mset = moments(five_value_table, five_value_graph())
    p_hat = mset.pooled_weight
    assert p_hat == (five_value_table.n1 - 1) / (five_value_table.n_total - 2)
    for name in SUMMARIES:
        moms = mset.summary(name)
        best = mixture_variance(moms, p_hat)
        assert best == pytest.approx(moms.var_weighted, rel=1e-12)
        for p in np.linspace(0.0, 1.0, 41):
            assert mixture_variance(moms, float(p)) >= best - 1e-12
        for eps in (1e-4, -1e-4):
            assert mixture_variance(moms, p_hat + eps) > best


def test_max_statistic_requires_positive_kappa(five_value_table):
    c0 = five_value_graph()
    mset = moments(five_value_table, c0)
    with pytest.raises(InputFormatError):
        evaluate_statistics(five_value_table, c0, mset=mset, kappas=(0.0,))
    with pytest.raises(InputFormatError):
        StatisticKernel(five_value_table, c0, kappas=(-1.0,))
    stats = evaluate_statistics(five_value_table, c0, mset=mset, kappas=(1.31,))
    for name in SUMMARIES:
        s = stats.summary(name)
        assert max(1.31 * s.weighted_z, abs(s.difference_z)) == s.max_stats[1.31]


def test_edge_statistic_counts_cross_sample_pairs(five_value_table):
    c0 = five_value_graph()
    mset = moments(five_value_table, c0)
    counts = extended_counts(five_value_table, c0)
    got = evaluate_statistics(five_value_table, c0, mset=mset).union
    assert got.between == counts.union.between
    # complement route: z-score from within counts gives the same value
    moms = mset.union
    direct_z = (counts.union.between - moms.mean_between) / np.sqrt(moms.var_between)
    assert got.edge_z == pytest.approx(direct_z, rel=1e-12)


# ---------------------------------------------------------------------------
# Vectorized kernel vs the scalar path


def test_kernel_batch_matches_scalar_evaluator(five_value_table):
    rng = np.random.default_rng(303)
    table = five_value_table
    c0 = five_value_graph()
    mset = moments(table, c0)
    kappas = (1.0, 1.14, 1.31)
    kernel = StatisticKernel(table, c0, mset=mset, kappas=kappas)
    m = np.asarray(table.multiplicity)
    batch = np.stack(
        [
            rng.multivariate_hypergeometric(m, table.n1)
            for _ in range(40)
        ]
    )
    out = kernel.evaluate(batch)
    for b in range(batch.shape[0]):
        ref = evaluate_statistics(
            table, c0, mset=mset, kappas=kappas, counts1=batch[b]
        )
        for name in SUMMARIES:
            s = ref.summary(name)
            assert out[name]["edge_z"][b] == pytest.approx(s.edge_z, rel=1e-10, abs=1e-12)
            assert out[name]["weighted_z"][b] == pytest.approx(
                s.weighted_z, rel=1e-10, abs=1e-12
            )
            assert out[name]["difference_z"][b] == pytest.approx(
                s.difference_z, rel=1e-10, abs=1e-12
            )
            assert out[name]["generalized"][b] == pytest.approx(
                s.generalized, rel=1e-10, abs=1e-12
            )
            for kappa in kappas:
                assert out[name]["max_stats"][kappa][b] == pytest.approx(
                    s.max_stats[kappa], rel=1e-10, abs=1e-12
                )


def _scanned_within(m, edges, c1) -> dict[str, tuple[Fraction, Fraction]]:
    """Exact within counts by a direct loop over values and edges."""
    c2 = [mu - c for mu, c in zip(m, c1)]
    out = {}
    for name, self_weight, edge_weight in (
        ("average", lambda u: Fraction(1, m[u]), lambda u, v: Fraction(1, m[u] * m[v])),
        ("union", lambda u: Fraction(1, 2), lambda u, v: 1),
    ):
        within = []
        for c in (c1, c2):
            value = sum(self_weight(u) * c[u] * (c[u] - 1) for u in range(len(m)))
            value += sum(edge_weight(u, v) * c[u] * c[v] for u, v in edges)
            within.append(value)
        out[name] = tuple(within)
    return out


def _assert_forms_match_scan(table: DistinctTable, c0: SimilarityGraph, rng) -> None:
    m = [int(x) for x in table.multiplicity]
    batch = np.stack(
        [table.counts1] + [rng.multivariate_hypergeometric(m, table.n1) for _ in range(7)]
    )
    batched = WithinForms(table.multiplicity, c0)(batch.T.astype(np.float64))
    for b, c1 in enumerate(batch):
        exact = _scanned_within(m, c0.edges, [int(x) for x in c1])
        scalar = extended_counts(table, c0, counts1=c1)
        for name in SUMMARIES:
            w1, w2 = exact[name]
            assert batched[name][0][b] == pytest.approx(float(w1), rel=1e-12, abs=1e-12)
            assert batched[name][1][b] == pytest.approx(float(w2), rel=1e-12, abs=1e-12)
            triple = scalar.summary(name)
            assert triple.within1 == pytest.approx(float(w1), rel=1e-12, abs=1e-12)
            assert triple.within2 == pytest.approx(float(w2), rel=1e-12, abs=1e-12)


def test_within_forms_match_a_direct_edge_scan_on_tied_instances():
    rng = np.random.default_rng(404)
    for _ in range(40):
        k = int(rng.integers(2, 41))
        m = rng.integers(1, 6, size=k)
        c1 = [int(rng.integers(0, mu + 1)) for mu in m]
        table = table_from_counts(c1, m)
        c0 = build_knnl(random_tied_matrix(rng, k), int(rng.integers(1, 3)))
        _assert_forms_match_scan(table, c0, rng)


def test_within_forms_match_a_direct_edge_scan_without_repeats():
    # The all-multiplicities-one table that analyze_fixed_graph builds.
    rng = np.random.default_rng(405)
    for _ in range(10):
        n = int(rng.integers(4, 60))
        labels = rng.permutation(np.repeat([1, 2], [n // 2, n - n // 2]))
        table = DistinctTable(labels=labels, value_index=np.arange(n), n_values=n)
        c0 = build_knnl(random_tied_matrix(rng, n), 2)
        _assert_forms_match_scan(table, c0, rng)


def test_kernel_rejects_wrong_shapes(five_value_table):
    kernel = StatisticKernel(five_value_table, five_value_graph())
    with pytest.raises(InputFormatError):
        kernel.evaluate(np.zeros((3, 4)))
    with pytest.raises(InputFormatError):
        kernel.evaluate(np.zeros(5))


# ---------------------------------------------------------------------------
# Per-graph statistics on explicit observation-level graphs


def test_pergraph_equals_both_summaries_when_no_value_repeats():
    rng = np.random.default_rng(404)
    k = 6
    vals = rng.permutation(k * (k - 1) // 2).astype(np.float64) + 1
    d = np.zeros((k, k))
    d[np.triu_indices(k, 1)] = vals
    d = d + d.T
    c0 = build_nnl(d)
    table = table_from_counts((1, 1, 1, 0, 0, 0), (1,) * k)
    stats, moms = pergraph_statistics(c0, table.labels, kappas=(1.14,))
    ref = evaluate_statistics(table, c0, kappas=(1.14,))
    for name in SUMMARIES:
        s = ref.summary(name)
        assert stats.edge_z == pytest.approx(s.edge_z, rel=1e-12)
        assert stats.weighted_z == pytest.approx(s.weighted_z, rel=1e-12)
        assert stats.difference_z == pytest.approx(s.difference_z, rel=1e-12)
        assert stats.max_stats[1.14] == pytest.approx(s.max_stats[1.14], rel=1e-12)
    mset = moments(table, c0)
    assert moms.var_weighted == pytest.approx(mset.union.var_weighted, rel=1e-12)


def test_pergraph_statistics_match_an_edge_scan_and_the_exhaustive_null():
    rng = np.random.default_rng(406)
    checked = 0
    for _ in range(30):
        n = int(rng.integers(4, 11))
        n1 = int(rng.integers(2, n - 1))
        labels = rng.permutation(np.repeat([1, 2], [n1, n - n1]))
        graph = build_knnl(random_tied_matrix(rng, n), int(rng.integers(1, 3)))
        try:
            stats, moms = pergraph_statistics(graph, labels)
        except DegenerateNullError:
            continue
        checked += 1
        between, within1, within2 = _scan_counts(graph.edges, labels)
        assert (stats.between, stats.within1, stats.within2) == (between, within1, within2)
        table = DistinctTable(labels=labels, value_index=np.arange(n), n_values=n)
        null = enumerate_permutations(table, graph)
        w1 = lambda r: r["within1_union"]
        w2 = lambda r: r["within2_union"]
        p_hat = Fraction(n1 - 1, n - 2)
        wt = lambda r: (1 - p_hat) * w1(r) + p_hat * w2(r)
        df = lambda r: w1(r) - w2(r)
        for got, exact in (
            (moms.mean_within1, null.mean(w1)),
            (moms.var_within1, null.variance(w1)),
            (moms.mean_within2, null.mean(w2)),
            (moms.var_within2, null.variance(w2)),
            (moms.cov_within, null.covariance(w1, w2)),
            (moms.mean_between, null.mean(lambda r: r["between_union"])),
            (moms.var_between, null.variance(lambda r: r["between_union"])),
            (moms.mean_weighted, null.mean(wt)),
            (moms.var_weighted, null.variance(wt)),
            (moms.mean_difference, null.mean(df)),
            (moms.var_difference, null.variance(df)),
        ):
            assert got == pytest.approx(float(exact), rel=1e-12, abs=1e-12)
    assert checked >= 20


def test_pergraph_counts_average_to_closed_form_over_the_family():
    table = table_from_counts((2, 1), (3, 2))
    c0 = SimilarityGraph.from_edges(2, [(0, 1)])
    counts = extended_counts(table, c0)
    sums = np.zeros(3)
    members = 0
    for member in enumerate_graph_family(c0, table):
        g = SimilarityGraph.from_edges(table.n_total, member)
        stats, _ = pergraph_statistics(g, table.labels)
        sums += (stats.between, stats.within1, stats.within2)
        members += 1
    assert members == 18
    avg = sums / members
    assert avg[0] == pytest.approx(counts.average.between, abs=1e-10)
    assert avg[1] == pytest.approx(counts.average.within1, abs=1e-10)
    assert avg[2] == pytest.approx(counts.average.within2, abs=1e-10)


def test_pergraph_statistics_vary_across_family_members(five_value_table):
    c0 = five_value_graph()
    seen = set()
    members = enumerate_graph_family(c0, five_value_table, cap=3 * 10**6)
    for i, member in enumerate(members):
        if i >= 60:
            break
        g = SimilarityGraph.from_edges(five_value_table.n_total, member)
        stats, _ = pergraph_statistics(g, five_value_table.labels)
        seen.add(round(stats.weighted_z, 10))
    # equally minimal trees give materially different standardized statistics,
    # which is why the averaging and union summaries exist
    assert len(seen) >= 2


def test_pergraph_validates_labels(five_value_table):
    g = path_graph(5)
    with pytest.raises(InputFormatError):
        pergraph_statistics(g, [1, 2, 1])
    with pytest.raises(InputFormatError):
        pergraph_statistics(g, [1, 2, 3, 1, 2])


# ---------------------------------------------------------------------------
# Degenerate nulls


def test_cycle_graph_degenerates_the_difference_statistic():
    table = table_from_counts((1, 1, 0, 0), (1, 1, 1, 1))
    cycle = SimilarityGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(DegenerateNullError, match="difference"):
        moments(table, cycle)
    mset = moments(table, cycle, require_nondegenerate=False)
    for name in SUMMARIES:
        assert mset.summary(name).var_difference == pytest.approx(0.0, abs=1e-12)
        assert mset.summary(name).var_weighted > 0
    with pytest.raises(DegenerateNullError):
        evaluate_statistics(table, cycle)


def test_too_few_observations_rejected():
    table = table_from_counts((1, 1), (2, 1))
    with pytest.raises(ValueError):
        moments(table, SimilarityGraph.from_edges(2, [(0, 1)]))
