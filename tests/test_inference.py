"""Analytic p-values, kappa calibration, permutation engine, diagnostics.

The permutation engine is checked against the exhaustively enumerated null
(exact rational p-values) on an instance small enough to enumerate, and the
asymptotic max-statistic null against plain Monte Carlo on bivariate
normals. The solver for kappa is validated by substituting its output back
into the exact level and tail-split equations.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.stats import chi2

from edgecount import inference, stats
from edgecount.dataset import DistanceMatrix, DistinctTable
from edgecount.errors import InputFormatError
from edgecount.graphs import SimilarityGraph, build_knnl, build_nnl
from edgecount.inference import (
    _PERM_CHUNK_BYTES,
    _PERM_MAX_ROWS,
    _chunk_rows,
    _sampler_method,
    _third_moment_sum,
    analyze,
    analyze_fixed_graph,
    analytic_pvalue_block,
    condition_diagnostics,
    max_null_cdf,
    normal_cdf,
    normal_quantile,
    permutation_pvalues,
    pvalue_analytic,
    solve_kappa,
)
from edgecount.oracle import enumerate_permutations, materialize_union_graph, random_tied_matrix
from edgecount.stats import SUMMARIES, StatisticKernel, evaluate_statistics, moments

from conftest import (
    FIVE_VALUE_DISTANCES,
    FIVE_VALUE_MULTIPLICITY,
    table_from_counts,
)

RATIO_KEYS = {
    "graph_size_ratio",
    "distinct_value_ratio",
    "inverse_multiplicity_ratio",
    "degree_variety_ratio",
    "union_size_ratio",
    "union_variety_ratio",
    "third_moment_ratio_average",
    "third_moment_ratio_union",
}


def five_value_instance():
    table = table_from_counts((1, 2, 2, 2, 1), FIVE_VALUE_MULTIPLICITY)
    c0 = build_nnl(DistanceMatrix(values=FIVE_VALUE_DISTANCES))
    return table, c0


# ---------------------------------------------------------------------------
# Normal CDF / quantile and the max-statistic null


def test_normal_cdf_matches_arbitrary_precision():
    for x in np.linspace(-8.0, 8.0, 33):
        exact = float(mpmath.ncdf(mpmath.mpf(float(x))))
        assert normal_cdf(float(x)) == pytest.approx(exact, abs=1e-13)


def test_normal_quantile_inverts_the_cdf():
    for p in (1e-6, 0.01, 0.3, 0.5, 0.975, 1 - 1e-6):
        assert normal_cdf(normal_quantile(p)) == pytest.approx(p, rel=1e-10)
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            normal_quantile(bad)


def test_max_null_cdf_matches_monte_carlo():
    rng = np.random.default_rng(71)
    zw = rng.standard_normal(200_000)
    zd = rng.standard_normal(200_000)
    for kappa in (0.79, 1.0, 1.31, 1.63):
        samples = np.maximum(kappa * zw, np.abs(zd))
        for x in (0.5, 1.0, 1.5, 2.0, 2.5):
            empirical = float((samples <= x).mean())
            assert max_null_cdf(x, kappa) == pytest.approx(empirical, abs=5e-3)


def test_max_null_cdf_edge_cases():
    assert max_null_cdf(-1.0, 1.0) == 0.0
    assert max_null_cdf(0.0, 1.0) == 0.0
    assert max_null_cdf(50.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InputFormatError):
        max_null_cdf(1.0, 0.0)


# ---------------------------------------------------------------------------
# Analytic p-values


def test_analytic_pvalue_directions():
    # edge: small between-counts are the evidence, so the LOWER tail
    assert pvalue_analytic("edge", -1.6448536269514722) == pytest.approx(0.05, rel=1e-6)
    assert pvalue_analytic("edge", 2.0) > 0.9
    # weighted: large within-counts are the evidence, so the UPPER tail
    assert pvalue_analytic("weighted", 1.6448536269514722) == pytest.approx(
        0.05, rel=1e-6
    )
    # difference: two-sided
    assert pvalue_analytic("difference", -1.959963984540054) == pytest.approx(
        0.05, rel=1e-6
    )
    assert pvalue_analytic("difference", 1.959963984540054) == pytest.approx(
        0.05, rel=1e-6
    )
    # generalized: chi-square with 2 degrees of freedom (independent route)
    for s in (0.3, 1.7, 5.99, 11.0):
        assert pvalue_analytic("generalized", s) == pytest.approx(
            float(chi2.sf(s, df=2)), rel=1e-12
        )
    # max: complement of the product-form null CDF
    assert pvalue_analytic("max", 2.0, kappa=1.14) == pytest.approx(
        1.0 - max_null_cdf(2.0, 1.14), rel=1e-12
    )


def test_upper_tail_pvalues_stay_accurate_far_in_the_tail():
    with mpmath.workdps(60):
        for z in (10.0, 30.0):
            q = mpmath.ncdf(-mpmath.mpf(z))
            cases = [
                (pvalue_analytic("weighted", z), q),
                (pvalue_analytic("difference", z), 2 * q),
                (pvalue_analytic("difference", -z), 2 * q),
            ]
            for kappa in (1.0, 1.14, 1.31):
                phi_a = mpmath.ncdf(mpmath.mpf(z) / mpmath.mpf(kappa))
                phi_b = mpmath.ncdf(mpmath.mpf(z))
                cases.append((pvalue_analytic("max", z, kappa=kappa), 1 - phi_a * (2 * phi_b - 1)))
            for got, exact in cases:
                assert got > 0.0
                assert got == pytest.approx(float(exact), rel=1e-12)


def test_analytic_pvalue_validation():
    with pytest.raises(InputFormatError):
        pvalue_analytic("sideways", 1.0)
    with pytest.raises(ValueError):
        pvalue_analytic("generalized", -0.1)
    with pytest.raises(InputFormatError):
        pvalue_analytic("max", 1.0)


def test_analytic_block_wires_each_statistic_to_its_tail():
    table, c0 = five_value_instance()
    stats = evaluate_statistics(table, c0, kappas=(1.14,)).union
    block = analytic_pvalue_block(stats)
    assert block["edge"] == pvalue_analytic("edge", stats.edge_z)
    assert block["weighted"] == pvalue_analytic("weighted", stats.weighted_z)
    assert block["difference"] == pvalue_analytic("difference", stats.difference_z)
    assert block["generalized"] == pvalue_analytic("generalized", stats.generalized)
    assert block["max"][1.14] == pvalue_analytic("max", stats.max_stats[1.14], 1.14)


# ---------------------------------------------------------------------------
# kappa calibration


def test_solve_kappa_satisfies_the_exact_level_and_split():
    for gamma in (8.0, 4.0, 2.0, 1.0, 0.5, 0.25, 0.125):
        kappa, beta = solve_kappa(gamma, alpha=0.05)
        a1 = 1.0 - normal_cdf(beta / kappa)
        a2 = 2.0 * (1.0 - normal_cdf(beta))
        level = 1.0 - max_null_cdf(beta, kappa)
        assert level == pytest.approx(0.05, abs=1e-10)
        assert a1 == pytest.approx(gamma * a2, rel=1e-9)


def test_solve_kappa_equal_split_is_near_one():
    kappa, _ = solve_kappa(0.5)
    assert kappa == pytest.approx(1.00, abs=0.005)


def test_solve_kappa_is_monotone_in_gamma():
    kappas = [solve_kappa(g)[0] for g in (0.125, 0.5, 1.0, 4.0, 8.0)]
    assert kappas == sorted(kappas)


def test_solve_kappa_validation():
    with pytest.raises(ValueError):
        solve_kappa(0.0)
    with pytest.raises(ValueError):
        solve_kappa(1.0, alpha=0.0)
    with pytest.raises(ValueError):
        solve_kappa(1.0, alpha=1.0)


# ---------------------------------------------------------------------------
# Permutation engine


def test_permutation_pvalues_are_deterministic_and_thread_invariant():
    table, c0 = five_value_instance()
    kernel = StatisticKernel(table, c0, kappas=(1.14,))
    a = permutation_pvalues(kernel, n_perm=5000, seed=9)
    b = permutation_pvalues(StatisticKernel(table, c0, kappas=(1.14,)), n_perm=5000, seed=9)
    c = permutation_pvalues(kernel, n_perm=5000, seed=9, threads=4)
    assert a == b == c
    d = permutation_pvalues(kernel, n_perm=5000, seed=10)
    assert a != d


def test_permutation_pvalues_match_the_exhaustive_null():
    table, c0 = five_value_instance()
    assert _sampler_method(table.n_total, table.n_values) == "count"
    _assert_matches_exhaustive_null(table, c0, n_perm=20000, seed=3)


def test_marginals_sampler_matches_the_exhaustive_null():
    # N = 65 observations on K = 3 values: N > 20 K selects "marginals".
    table = table_from_counts((18, 12, 2), (30, 25, 10))
    c0 = SimilarityGraph.from_edges(3, [(0, 1), (1, 2)])
    assert _sampler_method(table.n_total, table.n_values) == "marginals"
    _assert_matches_exhaustive_null(table, c0, n_perm=20000, seed=5)


def _assert_matches_exhaustive_null(table, c0, n_perm: int, seed: int) -> None:
    mc = permutation_pvalues(StatisticKernel(table, c0), n_perm=n_perm, seed=seed)
    # The enumeration runs over count vectors, so the cap on C(N, n1) is moot.
    null = enumerate_permutations(table, c0, cap=math.comb(table.n_total, table.n1))
    n1, n = table.n1, table.n_total
    p_hat = Fraction(n1 - 1, n - 2)
    for name in SUMMARIES:
        fn_between = lambda r: r[f"between_{name}"]
        fn_weighted = lambda r: (1 - p_hat) * r[f"within1_{name}"] + p_hat * r[
            f"within2_{name}"
        ]
        mean_diff = null.mean(lambda r: r[f"within1_{name}"] - r[f"within2_{name}"])
        fn_diff_centered = lambda r: r[f"within1_{name}"] - r[f"within2_{name}"] - mean_diff
        observed = {
            "between": fn_between(_observed_row(null, table)),
            "weighted": fn_weighted(_observed_row(null, table)),
            "difference": fn_diff_centered(_observed_row(null, table)),
        }
        exact = {
            "edge": null.pvalue(fn_between, observed["between"], "lower"),
            "weighted": null.pvalue(fn_weighted, observed["weighted"], "upper"),
            "difference": null.pvalue(fn_diff_centered, observed["difference"], "two_sided"),
        }
        for key in ("edge", "weighted", "difference"):
            p = float(exact[key])
            se = math.sqrt(p * (1 - p) / n_perm)
            assert mc[name][key] == pytest.approx(p, abs=4 * se + 2 / n_perm)


def _observed_row(null, table):
    target = tuple(int(x) for x in table.counts1)
    for counts1, _, row in null.rows:
        if counts1 == target:
            return row
    raise AssertionError("observed count vector missing from the null support")


def test_chunk_rows_respect_the_byte_budget():
    assert _chunk_rows(5) == _PERM_MAX_ROWS
    for k in (1_000, 3_000, 50_000, 10**6):
        rows = _chunk_rows(k)
        assert 1 <= rows < _PERM_MAX_ROWS
        assert 8 * k * rows <= _PERM_CHUNK_BYTES < 8 * k * (rows + 1) or rows == 1


def test_permutation_chunks_stay_within_the_byte_budget_at_large_k():
    # All multiplicities one (the fixed-graph table) on a 3,000-value path.
    k = 3000
    rng = np.random.default_rng(8)
    labels = rng.permutation(np.repeat([1, 2], k // 2))
    table = DistinctTable(labels=labels, value_index=np.arange(k), n_values=k)
    c0 = SimilarityGraph.from_edges(k, [(u, u + 1) for u in range(k - 1)])
    seen = []

    class RecordingKernel(StatisticKernel):
        def evaluate(self, counts1_matrix):
            seen.append(np.asarray(counts1_matrix).shape[0])
            return super().evaluate(counts1_matrix)

    kernel = RecordingKernel(table, c0)
    one = permutation_pvalues(kernel, n_perm=400, seed=2)
    assert sum(seen) == 400 and len(seen) > 1
    assert max(seen) * 8 * k <= _PERM_CHUNK_BYTES
    assert permutation_pvalues(kernel, n_perm=400, seed=2, threads=3) == one


def test_permutation_pvalues_use_the_add_one_estimator():
    table, c0 = five_value_instance()
    out = permutation_pvalues(StatisticKernel(table, c0, kappas=(1.0,)), n_perm=3, seed=0)
    for name in SUMMARIES:
        for key in ("edge", "weighted", "difference", "generalized"):
            assert out[name][key] in {0.25, 0.5, 0.75, 1.0}
        assert out[name]["max"][1.0] >= 0.25


def test_permutation_pvalues_validation():
    table, c0 = five_value_instance()
    with pytest.raises(InputFormatError):
        permutation_pvalues(StatisticKernel(table, c0), n_perm=0)


# ---------------------------------------------------------------------------
# Diagnostics


def _second_order_sum_direct(edges, n_nodes):
    """Sum over nodes of degree times the edges with an endpoint adjacent to the node."""
    neighbors = [set() for _ in range(n_nodes)]
    for a, b in edges:
        neighbors[a].add(b)
        neighbors[b].add(a)
    return sum(
        len(near) * sum(1 for a, b in edges if a in near or b in near) for near in neighbors
    )


def test_third_moment_sum_without_repeats_matches_direct_recount():
    rng = np.random.default_rng(1)
    for _ in range(20):
        k = int(rng.integers(2, 9))
        all_pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
        take = rng.random(len(all_pairs)) < 0.5
        edges = [p for p, t in zip(all_pairs, take) if t]
        g = SimilarityGraph.from_edges(k, edges)
        assert _third_moment_sum(g, np.ones(k, dtype=np.int64), g.degrees) == _second_order_sum_direct(
            g.edges, k
        )


def test_diagnostic_ratios_match_a_direct_recount_on_the_union_graph():
    rng = np.random.default_rng(7)
    for case in range(120):
        k_values = int(rng.integers(7, 11))
        c0 = build_knnl(random_tied_matrix(rng, k_values), 1 + case % 3)
        m = rng.integers(1, 5, size=k_values)
        c1 = np.array([rng.integers(0, mu + 1) for mu in m])
        if not 0 < c1.sum() < m.sum():
            c1[0], c1[1] = 1, m[1] - 1
        table = table_from_counts(tuple(c1), tuple(m))
        n = table.n_total
        union = materialize_union_graph(c0, table)
        inc = np.bincount(np.asarray(union.edges).ravel(), minlength=n)
        # Family-expected degree of each observation: a union edge between
        # blocks u != v is the chosen pair with probability 1/(m_u m_v), and a
        # within-block edge lies in a uniform spanning tree with probability 2/m_u.
        mult = table.multiplicity[table.value_index]
        expected = [Fraction(0)] * n
        for a, b in union.edges:
            same = table.value_index[a] == table.value_index[b]
            p = Fraction(2, int(mult[a])) if same else Fraction(1, int(mult[a] * mult[b]))
            expected[a] += p
            expected[b] += p
        centre = sum(expected) / n
        want = {
            "graph_size_ratio": c0.n_edges / n,
            "distinct_value_ratio": k_values / n,
            "inverse_multiplicity_ratio": float(sum(Fraction(1, int(x)) for x in m)) / n,
            "degree_variety_ratio": float(sum((e - centre) ** 2 for e in expected) / 4) / n,
            "union_size_ratio": union.n_edges / n,
            "union_variety_ratio": (int((inc * inc).sum()) - 4 * union.n_edges**2 / n) / n,
            "third_moment_ratio_average": _second_order_sum_direct(c0.edges, k_values) / n**1.5,
            "third_moment_ratio_union": _second_order_sum_direct(union.edges, n) / n**1.5,
        }
        got = condition_diagnostics(table, c0).ratios
        assert set(got) == set(want)
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-12, abs=1e-12), (case, key)


def test_diagnostics_report_exactly_the_documented_ratios():
    table, c0 = five_value_instance()
    diag = condition_diagnostics(table, c0)
    assert set(diag.ratios) == RATIO_KEYS
    # twelve observations is far from asymptopia: the third-moment checks
    # fire and steer the analyst toward permutation p-values
    assert all("third-moment" in w for w in diag.warnings)
    assert len(diag.warnings) == 2


def test_diagnostics_are_quiet_on_a_well_behaved_instance():
    k = 200
    table = table_from_counts((1, 0) * 100, (1,) * k)
    path = SimilarityGraph.from_edges(k, [(i, i + 1) for i in range(k - 1)])
    diag = condition_diagnostics(table, path)
    assert diag.warnings == []


def test_diagnostics_union_reduces_to_graph_without_repeats():
    table = table_from_counts((1, 0, 1, 0), (1, 1, 1, 1))
    c0 = SimilarityGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    diag = condition_diagnostics(table, c0)
    assert diag.ratios["union_size_ratio"] == pytest.approx(
        diag.ratios["graph_size_ratio"]
    )
    assert diag.ratios["third_moment_ratio_union"] == pytest.approx(
        diag.ratios["third_moment_ratio_average"]
    )


def test_diagnostics_flag_degenerate_difference_on_a_cycle():
    table = table_from_counts((1, 1, 0, 0), (1, 1, 1, 1))
    cycle = SimilarityGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    diag = condition_diagnostics(table, cycle)
    assert diag.ratios["degree_variety_ratio"] == pytest.approx(0.0, abs=1e-12)
    assert any("degree variety" in w for w in diag.warnings)
    assert any("null variance of difference" in w for w in diag.warnings)


def test_diagnostics_flag_heavy_hubs():
    k = 200
    table = table_from_counts((1,) * 100 + (0,) * 100, (1,) * k)
    star = SimilarityGraph.from_edges(k, [(0, i) for i in range(1, k)])
    diag = condition_diagnostics(table, star)
    assert diag.ratios["third_moment_ratio_average"] > 1.0
    assert any("third-moment" in w for w in diag.warnings)


# ---------------------------------------------------------------------------
# Reports


def test_analyze_report_structure_and_json_round_trip():
    table, c0 = five_value_instance()
    report = analyze(table, c0, kappas=(1.31, 1.0), n_perm=400, seed=5,
                     graph_rule="nnl")
    payload = json.loads(report.to_json())
    assert payload["meta"]["observations"] == 12
    assert payload["meta"]["sample_sizes"] == [8, 4]
    assert payload["meta"]["graph_rule"] == "nnl"
    assert payload["meta"]["graph_family_size"] == "2239488"
    assert set(payload["summaries"]) == {"average", "union"}
    for entry in payload["summaries"].values():
        assert set(entry["counts"]) == {
            "between", "within1", "within2", "weighted", "difference",
        }
        assert set(entry["z_scores"]) == {"edge", "weighted", "difference"}
        assert set(entry["statistics"]["max"]) == {"1.31", "1"}
        for block_name in ("p_analytic", "p_permutation"):
            assert set(entry[block_name]) == {
                "edge", "weighted", "difference", "generalized", "max",
            }
    assert "timestamp" not in payload
    assert set(payload["diagnostics"]["ratios"]) == RATIO_KEYS
    # identical inputs produce byte-identical reports
    again = analyze(table, c0, kappas=(1.31, 1.0), n_perm=400, seed=5,
                    graph_rule="nnl")
    assert again.to_json() == report.to_json()


def test_analyze_without_permutations_omits_them():
    table, c0 = five_value_instance()
    report = analyze(table, c0, kappas=(1.0,))
    payload = report.to_json_dict()
    assert payload["seed"] is None
    assert payload["permutations"] is None
    assert "p_permutation" not in payload["summaries"]["union"]
    with pytest.raises(KeyError):
        report.block("fixed-graph")
    text = report.to_text()
    assert "=== union summary ===" in text
    assert "p-perm" not in text


def test_analyze_timestamp_is_opt_in():
    table, c0 = five_value_instance()
    report = analyze(table, c0, timestamp="2026-01-01T00:00:00Z")
    assert report.to_json_dict()["timestamp"] == "2026-01-01T00:00:00Z"
    assert "timestamp: 2026-01-01T00:00:00Z" in report.to_text()


@pytest.mark.parametrize("n_perm", [None, 200])
def test_analyze_builds_the_weights_and_moments_once(monkeypatch, n_perm):
    calls = {"summary_weights": 0, "MomentSet": 0}
    real_weights, real_init = stats.summary_weights, stats.MomentSet.__init__

    def counting_weights(*args, **kwargs):
        calls["summary_weights"] += 1
        return real_weights(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        calls["MomentSet"] += 1
        real_init(self, *args, **kwargs)

    for module in (stats, inference):
        monkeypatch.setattr(module, "summary_weights", counting_weights)
    monkeypatch.setattr(stats.MomentSet, "__init__", counting_init)
    table, c0 = five_value_instance()
    analyze(table, c0, n_perm=n_perm, seed=1)
    assert calls == {"summary_weights": 1, "MomentSet": 1}


def test_fixed_graph_report_matches_plain_statistics_without_repeats():
    rng = np.random.default_rng(44)
    k = 6
    vals = rng.permutation(k * (k - 1) // 2).astype(np.float64) + 1
    d = np.zeros((k, k))
    d[np.triu_indices(k, 1)] = vals
    d = d + d.T
    c0 = build_nnl(d)
    labels = [1, 1, 1, 2, 2, 2]
    table = DistinctTable(
        labels=np.array(labels), value_index=np.arange(k), n_values=k
    )
    fixed = analyze_fixed_graph(c0, labels, kappas=(1.14,), n_perm=300, seed=2)
    full = analyze(table, c0, kappas=(1.14,), n_perm=300, seed=2)
    blk = fixed.block("fixed-graph")
    ref = full.block("union")
    assert blk.statistics.edge_z == pytest.approx(ref.statistics.edge_z, rel=1e-12)
    assert blk.analytic["generalized"] == pytest.approx(
        ref.analytic["generalized"], rel=1e-12
    )
    assert blk.permutation == ref.permutation
    assert fixed.meta["sample_sizes"] == [3, 3]
