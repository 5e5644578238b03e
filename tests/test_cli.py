"""End-to-end tests of the ``edgecount`` command line interface.

Everything runs in-process through ``edgecount.cli.main`` so the tests can
assert exit codes, captured stdout/stderr, and written files directly.  The
contract under test:

* exit 0 on success, 2 on malformed input, 3 on a degenerate null, and 1
  when the self-verification command finds a closed form that disagrees
  with its brute-force oracle;
* identical arguments and inputs produce byte-identical JSON reports
  (reports embed seeds, never wall-clock time, unless ``--timestamp``);
* thread counts (flag or ``EDGECOUNT_THREADS``) never change the numbers;
* the graph/dedup export files round-trip through the matching import
  flags without changing any reported statistic.
"""

from __future__ import annotations

import dataclasses
import json
import time

import numpy as np
import pytest

from edgecount import DistanceMatrix, oracle
from edgecount.cli import main
from edgecount.graphs import read_graph
from edgecount.simulate import MallowsModel, sample_mallows, statistic_keys
from edgecount.stats import SummaryMoments, moments as real_moments

from conftest import FIVE_VALUE_DISTANCES, FIVE_VALUE_NNL_EDGES


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_rankings_csv(path, rows1, rows2):
    lines = [",".join(["1", *map(str, map(int, row))]) for row in rows1]
    lines += [",".join(["2", *map(str, map(int, row))]) for row in rows2]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def rankings_file(tmp_path_factory):
    """Two same-distribution ranking samples with plenty of repeats.

    The dispersion is chosen so the observations repeat (18 distinct values
    among 40 rows) without collapsing so far that the 3-NNL becomes the
    complete graph on the distinct values.
    """
    model = MallowsModel(center=(1, 2, 3, 4, 5), theta=0.3)
    rows1 = sample_mallows(model, 20, seed=41)
    rows2 = sample_mallows(model, 20, seed=42)
    path = tmp_path_factory.mktemp("cli") / "rankings.csv"
    write_rankings_csv(path, rows1, rows2)
    return path


def write_five_value_instance(tmp_path):
    """The worked five-value example as a distance matrix plus assignments."""
    dist_path = tmp_path / "distances.csv"
    assign_path = tmp_path / "assignments.csv"
    dist_path.write_text(
        "\n".join(",".join(str(x) for x in row) for row in FIVE_VALUE_DISTANCES) + "\n"
    )
    counts1 = (1, 2, 2, 2, 1)
    multiplicity = (1, 3, 4, 3, 1)
    rows = []
    for value_index, (m, c1) in enumerate(zip(multiplicity, counts1), start=1):
        rows += [f"1,{value_index}"] * c1 + [f"2,{value_index}"] * (m - c1)
    assign_path.write_text("\n".join(rows) + "\n")
    return dist_path, assign_path


# ---------------------------------------------------------------------------
# edgecount test: happy paths
# ---------------------------------------------------------------------------


def test_test_rankings_json_report(capsys, rankings_file):
    code, out, err = run_cli(capsys, [
        "test", "--input", str(rankings_file), "--kind", "ranking",
        "--graph", "nnl", "3", "--perm", "4000", "--seed", "7",
        "--threads", "2", "--format", "json",
    ])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["meta"]["observations"] == 40
    assert report["meta"]["sample_sizes"] == [20, 20]
    assert report["meta"]["graph_rule"] == "nnl k=3"
    assert report["seed"] == 7 and report["permutations"] == 4000
    assert "timestamp" not in report
    assert set(report["summaries"]) == {"average", "union"}
    for name in ("average", "union"):
        block = report["summaries"][name]
        counts = block["counts"]
        assert counts["between"] + counts["within1"] + counts["within2"] == (
            block["null_moments"]["total"]
        )
        for key in ("edge", "weighted", "difference", "generalized"):
            assert 0.0 <= block["p_analytic"][key] <= 1.0
            assert 0.0 <= block["p_permutation"][key] <= 1.0
        assert set(block["p_analytic"]["max"]) == {"1.31", "1.14", "1"}


def test_analytic_and_permutation_pvalues_agree_on_null_data(capsys, rankings_file):
    code, out, _ = run_cli(capsys, [
        "test", "--input", str(rankings_file), "--kind", "ranking",
        "--graph", "nnl", "3", "--perm", "4000", "--seed", "7", "--format", "json",
    ])
    assert code == 0
    report = json.loads(out)
    for name in ("average", "union"):
        block = report["summaries"][name]
        for key in ("edge", "weighted", "difference", "generalized"):
            gap = abs(block["p_analytic"][key] - block["p_permutation"][key])
            assert gap <= 0.10, f"{name}/{key}: gap {gap:.3f}"
        for kappa, p_ana in block["p_analytic"]["max"].items():
            gap = abs(p_ana - block["p_permutation"]["max"][kappa])
            assert gap <= 0.10, f"{name}/max({kappa}): gap {gap:.3f}"


def test_text_format_is_default_and_shows_both_summaries(capsys, rankings_file):
    code, out, _ = run_cli(capsys, [
        "test", "--input", str(rankings_file), "--kind", "ranking",
    ])
    assert code == 0
    assert "=== average summary ===" in out
    assert "=== union summary ===" in out
    assert "{" not in out.splitlines()[0]


def test_identical_arguments_give_byte_identical_json(capsys, rankings_file, tmp_path):
    argv = [
        "test", "--input", str(rankings_file), "--kind", "ranking",
        "--graph", "nnl", "2", "--perm", "800", "--seed", "5",
        "--format", "json",
    ]
    first = run_cli(capsys, argv + ["--output", str(tmp_path / "a.json")])
    second = run_cli(capsys, argv + ["--output", str(tmp_path / "b.json")])
    assert first[0] == 0 and second[0] == 0
    assert first[1] == second[1]
    bytes_a = (tmp_path / "a.json").read_bytes()
    bytes_b = (tmp_path / "b.json").read_bytes()
    assert bytes_a == bytes_b
    assert bytes_a.decode() == first[1]
    assert b"timestamp" not in bytes_a


def test_timestamp_flag_embeds_wall_clock_time(capsys, rankings_file):
    code, out, _ = run_cli(capsys, [
        "test", "--input", str(rankings_file), "--kind", "ranking",
        "--format", "json", "--timestamp",
    ])
    assert code == 0
    assert "timestamp" in json.loads(out)


def test_thread_count_does_not_change_the_report(capsys, monkeypatch, rankings_file):
    argv = [
        "test", "--input", str(rankings_file), "--kind", "ranking",
        "--perm", "600", "--seed", "11", "--format", "json",
    ]
    monkeypatch.delenv("EDGECOUNT_THREADS", raising=False)
    single = run_cli(capsys, argv + ["--threads", "1"])
    monkeypatch.setenv("EDGECOUNT_THREADS", "3")
    via_env = run_cli(capsys, argv)
    assert single[0] == 0 and via_env[0] == 0
    assert single[1] == via_env[1]


def test_mst_rule_reports_one_fixed_graph_block_that_varies_with_seed(
    capsys, rankings_file
):
    reports = {}
    for seed in (1, 2, 3):
        code, out, _ = run_cli(capsys, [
            "test", "--input", str(rankings_file), "--kind", "ranking",
            "--graph", "mst", "9", "--seed", str(seed), "--format", "json",
        ])
        assert code == 0
        report = json.loads(out)
        assert list(report["summaries"]) == ["fixed-graph"]
        assert report["meta"]["graph_rule"] == f"mst k=9 seed={seed}"
        reports[seed] = report["summaries"]["fixed-graph"]["z_scores"]
    distinct = {json.dumps(z, sort_keys=True) for z in reports.values()}
    assert len(distinct) >= 2, "tied distances should make the k-MST seed-dependent"


# ---------------------------------------------------------------------------
# edgecount dedup
# ---------------------------------------------------------------------------


def test_dedup_summary_and_export_round_trip(capsys, rankings_file, tmp_path):
    dist_path = tmp_path / "dist.csv"
    assign_path = tmp_path / "assign.csv"
    code, out, _ = run_cli(capsys, [
        "dedup", "--input", str(rankings_file), "--kind", "ranking",
        "--save-distances", str(dist_path), "--save-assignments", str(assign_path),
    ])
    assert code == 0
    assert "observations: 40" in out
    assert "sample sizes: 20, 20" in out
    assert "repeated values:" in out
    assert f"wrote {dist_path} and {assign_path}" in out
    n_distinct = int(next(
        line.split(":")[1] for line in out.splitlines()
        if line.startswith("distinct values:")
    ))
    assert 2 < n_distinct < 40

    argv_tail = ["--graph", "nnl", "3", "--perm", "500", "--seed", "2",
                 "--format", "json"]
    direct = run_cli(capsys, [
        "test", "--input", str(rankings_file), "--kind", "ranking", *argv_tail,
    ])
    via_export = run_cli(capsys, [
        "test", "--distances", str(dist_path), "--assignments", str(assign_path),
        *argv_tail,
    ])
    assert direct[0] == 0 and via_export[0] == 0
    assert json.loads(direct[1]) == json.loads(via_export[1])


def test_dedup_save_flags_must_come_together(capsys, rankings_file, tmp_path):
    code, _, err = run_cli(capsys, [
        "dedup", "--input", str(rankings_file), "--kind", "ranking",
        "--save-distances", str(tmp_path / "d.csv"),
    ])
    assert code == 2
    assert "--save-assignments" in err


# ---------------------------------------------------------------------------
# edgecount graph
# ---------------------------------------------------------------------------


def test_graph_reports_family_size_on_the_five_value_example(capsys, tmp_path):
    dist_path, assign_path = write_five_value_instance(tmp_path)
    out_path = tmp_path / "graph.csv"
    code, out, _ = run_cli(capsys, [
        "graph", "--distances", str(dist_path), "--assignments", str(assign_path),
        "--graph", "nnl", "1", "--output", str(out_path),
    ])
    assert code == 0
    assert "distinct values: 5" in out
    assert "observations: 12" in out
    assert "edges: 6" in out
    assert "graph family size: 2239488" in out
    assert "degree histogram: 2:3 3:2" in out
    assert "graph_size_ratio:" in out
    assert f"wrote {out_path}" in out
    exported = read_graph(out_path)
    assert exported.n_nodes == 5
    assert tuple(exported.edges) == FIVE_VALUE_NNL_EDGES


def test_graph_with_two_values_is_a_single_edge(capsys, tmp_path):
    dist_path = tmp_path / "d2.csv"
    assign_path = tmp_path / "a2.csv"
    dist_path.write_text("0,1\n1,0\n")
    assign_path.write_text("1,1\n1,2\n2,1\n2,2\n")
    code, out, _ = run_cli(capsys, [
        "graph", "--distances", str(dist_path), "--assignments", str(assign_path),
    ])
    assert code == 0
    assert "edges: 1" in out
    assert "degree histogram: 1:2" in out


def test_graph_rounds_beyond_available_pairs_exit_2(capsys, tmp_path):
    dist_path = tmp_path / "d2.csv"
    assign_path = tmp_path / "a2.csv"
    dist_path.write_text("0,1\n1,0\n")
    assign_path.write_text("1,1\n1,2\n2,1\n2,2\n")
    code, _, err = run_cli(capsys, [
        "graph", "--distances", str(dist_path), "--assignments", str(assign_path),
        "--graph", "nnl", "2",
    ])
    assert code == 2
    assert "round 2" in err


def test_graph_prints_a_huge_family_size_as_its_digit_count(capsys, tmp_path):
    # Six rankings of three objects, 1,000 copies each: every within-value
    # clique has 1000 ** 998 spanning trees and every C0 edge 1000 ** 2
    # observation pairs, far past Python's 4,300-digit str() limit.
    path = tmp_path / "repeated.csv"
    rows = [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    write_rankings_csv(path, rows * 500, rows * 500)
    code, out, err = run_cli(capsys, [
        "graph", "--input", str(path), "--kind", "ranking", "--graph", "nnl", "1",
    ])
    assert code == 0, err
    n_edges = int(out.split("edges: ")[1].split()[0])
    digits = 3 * (2 * n_edges + 6 * 998) + 1  # the size is 10 ** (3 * (2E + 6 * 998))
    assert f"graph family size: {digits} decimal digits\n" in out


# ---------------------------------------------------------------------------
# exit codes on bad or degenerate input
# ---------------------------------------------------------------------------


def test_single_distinct_value_exits_3(capsys, tmp_path):
    path = tmp_path / "constant.csv"
    write_rankings_csv(path, [(1, 2, 3)] * 4, [(1, 2, 3)] * 4)
    code, _, err = run_cli(capsys, [
        "test", "--input", str(path), "--kind", "ranking",
    ])
    assert code == 3
    assert "degenerate null:" in err
    assert "edgecount graph" in err


def test_cycle_graph_with_zero_difference_variance_exits_3(capsys, tmp_path):
    dist_path = tmp_path / "cycle.csv"
    assign_path = tmp_path / "cycle_assign.csv"
    dist_path.write_text("0,1,2,1\n1,0,1,2\n2,1,0,1\n1,2,1,0\n")
    # Repeated values keep the average summary's difference degenerate on a
    # cycle: every weighted degree still equals 2W/N.
    for assignments in ("1,1\n1,2\n2,3\n2,4\n", "1,1\n2,1\n1,1\n1,2\n2,2\n2,3\n1,3\n2,3\n1,3\n2,4\n"):
        assign_path.write_text(assignments)
        code, _, err = run_cli(capsys, [
            "test", "--distances", str(dist_path), "--assignments", str(assign_path),
            "--graph", "nnl", "1",
        ])
        assert code == 3
        assert "degenerate null:" in err
        assert "null variance of difference (average summary)" in err


def test_non_finite_vector_coordinate_exits_2_with_file_and_line(capsys, tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("1,0.0,1.0\n1,1.0,1.0\n2,nan,1.0\n2,2.0,1.0\n")
    code, _, err = run_cli(capsys, ["test", "--input", str(path), "--kind", "vector"])
    assert code == 2
    assert err.startswith("error:")
    assert f"{path}:3:" in err


def test_malformed_ranking_row_exits_2_with_file_and_line(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,1,2,3\n1,3,2,1\n2,1,2,2\n2,3,1,2\n")
    code, _, err = run_cli(capsys, [
        "test", "--input", str(path), "--kind", "ranking",
    ])
    assert code == 2
    assert err.startswith("error:")
    assert str(path) in err
    assert "3" in err.split(str(path), 1)[1].split(":")[1]


def test_missing_input_file_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, [
        "test", "--input", str(tmp_path / "absent.csv"), "--kind", "ranking",
    ])
    assert code == 2
    assert err.startswith("error:")


def test_distances_without_assignments_exits_2(capsys, tmp_path):
    dist_path = tmp_path / "d.csv"
    dist_path.write_text("0,1\n1,0\n")
    code, _, err = run_cli(capsys, ["test", "--distances", str(dist_path)])
    assert code == 2
    assert "--assignments" in err


def test_input_without_kind_exits_2(capsys, rankings_file):
    code, _, err = run_cli(capsys, ["test", "--input", str(rankings_file)])
    assert code == 2
    assert "--kind" in err


@pytest.mark.parametrize(
    "graph_args, fragment",
    [
        (["knn", "3"], "graph rule"),
        (["nnl", "three"], "integer"),
        (["nnl", "0"], ">= 1"),
    ],
)
def test_bad_graph_rule_exits_2(capsys, rankings_file, graph_args, fragment):
    code, _, err = run_cli(capsys, [
        "test", "--input", str(rankings_file), "--kind", "ranking",
        "--graph", *graph_args,
    ])
    assert code == 2
    assert fragment in err


def test_nonpositive_kappa_exits_2(capsys, rankings_file):
    code, _, err = run_cli(capsys, [
        "test", "--input", str(rankings_file), "--kind", "ranking",
        "--kappa", "0.0",
    ])
    assert code == 2
    assert "kappa" in err


def test_kappas_that_print_alike_exit_2(capsys, rankings_file):
    code, out, err = run_cli(capsys, [
        "test", "--input", str(rankings_file), "--kind", "ranking",
        "--kappa", "1", "1.0",
    ])
    assert code == 2
    assert out == ""
    assert "kappa values must be distinct" in err


def test_invalid_thread_env_exits_2(capsys, monkeypatch, rankings_file):
    monkeypatch.setenv("EDGECOUNT_THREADS", "zebra")
    code, _, err = run_cli(capsys, [
        "test", "--input", str(rankings_file), "--kind", "ranking",
    ])
    assert code == 2
    assert "EDGECOUNT_THREADS" in err


def test_negative_permutation_count_exits_2(capsys, rankings_file):
    code, out, err = run_cli(capsys, [
        "test", "--input", str(rankings_file), "--kind", "ranking", "--perm", "-3",
    ])
    assert code == 2
    assert out == ""
    assert "--perm" in err and "-3" in err


def test_zero_thread_flag_exits_2(capsys, rankings_file):
    code, out, err = run_cli(capsys, [
        "test", "--input", str(rankings_file), "--kind", "ranking", "--threads", "0",
    ])
    assert code == 2
    assert out == ""
    assert "--threads" in err and "'0'" in err


def test_zero_thread_env_exits_2(capsys, monkeypatch, rankings_file):
    monkeypatch.setenv("EDGECOUNT_THREADS", "0")
    code, out, err = run_cli(capsys, [
        "test", "--input", str(rankings_file), "--kind", "ranking",
    ])
    assert code == 2
    assert out == ""
    assert "EDGECOUNT_THREADS" in err and "'0'" in err


# ---------------------------------------------------------------------------
# edgecount power
# ---------------------------------------------------------------------------


def test_power_builtin_scenario_writes_csv_and_json_sidecar(capsys, tmp_path):
    out_path = tmp_path / "power.csv"
    code, out, _ = run_cli(capsys, [
        "power", "--scenario", "S1", "--replicates", "2", "--seed", "9",
        "--output", str(out_path),
    ])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("row,")
    assert lines[1].startswith("power,")
    assert lines[2].startswith("se,")
    assert out_path.read_text() == out
    sidecar = json.loads((tmp_path / "power.json").read_text())
    assert sidecar["config"]["replicates"] == 2
    assert sidecar["config"]["seed"] == 9
    expected_keys = statistic_keys(tuple(sidecar["config"]["kappas"]))
    assert sorted(sidecar["power"]) == sorted(expected_keys)


def test_power_config_file_runs(capsys, tmp_path):
    config = tmp_path / "scenario.cfg"
    config.write_text(
        "generator1 = mallows\n"
        "theta1 = 1.0\n"
        "center1 = 1,2,3,4,5\n"
        "generator2 = mallows\n"
        "theta2 = 1.0\n"
        "center2 = 5,4,3,2,1\n"
        "n1 = 20\n"
        "n2 = 20\n"
        "graph_rule = nnl\n"
        "graph_k = 2\n"
        "replicates = 2\n"
        "seed = 3\n"
        "kappas = 1.0\n"
    )
    code, out, _ = run_cli(capsys, ["power", "--config", str(config)])
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def _write_power_config(path, **overrides):
    fields = {
        "generator1": "mallows", "theta1": "1.0", "center1": "1,2,3,4,5",
        "generator2": "mallows", "theta2": "1.0", "center2": "5,4,3,2,1",
        "normalize1": "true", "normalize2": "true",
        "n1": "20", "n2": "20", "graph_k": "2", "replicates": "2", "seed": "3",
    }
    fields.update(overrides)
    path.write_text("".join(f"{key} = {value}\n" for key, value in fields.items()))
    return str(path)


def test_power_config_with_kappas_that_print_alike_exits_2(capsys, tmp_path):
    config = _write_power_config(tmp_path / "s.cfg", kappas="1, 1.0")
    code, out, err = run_cli(capsys, ["power", "--config", config])
    assert code == 2
    assert out == ""
    assert "kappa values must be distinct" in err


@pytest.mark.parametrize(
    ("overrides", "expected_code", "fragment"),
    [
        # a sharp un-normalized model draws one ranking: no graph exists
        ({"theta1": "5", "theta2": "5", "center2": "1,2,3,4,5",
          "normalize1": "false", "normalize2": "false"},
         2, "need at least two distinct values"),
        # rankings of two objects: two distinct values, so a second NNL round
        # has no pair left, and the one edge of the first round gives every
        # labeling the same union between count
        ({"center1": "1,2", "center2": "2,1"}, 2, "round 2 of 2 has no admissible pair"),
        ({"center1": "1,2", "center2": "2,1", "graph_k": "1"}, 3, "null variance of edge"),
    ],
)
def test_power_replicate_errors_keep_their_exit_code(
    capsys, tmp_path, overrides, expected_code, fragment
):
    config = _write_power_config(tmp_path / "s.cfg", **overrides)
    code, out, err = run_cli(capsys, ["power", "--config", config])
    assert code == expected_code
    assert out == ""
    assert "replicate 0 failed" in err and fragment in err
    assert "Traceback" not in err


def test_power_needs_exactly_one_source(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["power"])
    assert code == 2
    assert "exactly one" in err
    config = tmp_path / "s.cfg"
    config.write_text("n1 = 5\nn2 = 5\n")
    code, _, err = run_cli(capsys, [
        "power", "--scenario", "S1", "--config", str(config),
    ])
    assert code == 2
    assert "exactly one" in err


# ---------------------------------------------------------------------------
# edgecount verify
# ---------------------------------------------------------------------------


def test_verify_passes_against_the_oracles(capsys):
    start = time.monotonic()
    code, out, err = run_cli(capsys, [
        "verify", "--instances", "10", "--max-n", "10", "--seed", "1",
    ])
    elapsed = time.monotonic() - start
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert all("PASS" in line for line in lines)
    assert "counts vs enumerated family/union" in lines[0]
    assert "moments vs exhaustive permutations" in lines[1]
    assert "nnl vs union of all MSTs" in lines[2]
    assert lines[3] == "knnl vs round-by-round recount: PASS (10 instances)"
    assert lines[4] == "kmst vs sorted Kruskal: PASS (10 instances)"
    assert elapsed < 60.0


def test_verify_catches_an_injected_moment_error(capsys, monkeypatch):
    def skewed_moments(table, c0, **kwargs):
        mset = real_moments(table, c0, **kwargs)
        average = dataclasses.replace(
            mset.average, mean_within1=mset.average.mean_within1 + 1.0
        )
        return dataclasses.replace(mset, average=average)

    monkeypatch.setattr(oracle, "moments", skewed_moments)
    code, out, err = run_cli(capsys, [
        "verify", "--instances", "2", "--max-n", "8", "--seed", "1",
    ])
    assert code == 1
    assert "moments vs exhaustive permutations: FAIL" in out
    assert err.startswith("verification mismatch:")
    assert "E within1 (average)" in err


def test_verify_catches_an_injected_between_variance_error(capsys, monkeypatch):
    # The between moments are derived from the within ones, so an error there
    # leaves every within check passing.
    class SkewedBetween(SummaryMoments):
        @property
        def var_between(self) -> float:
            return 1.01 * super().var_between

    def skewed_moments(table, c0, **kwargs):
        mset = real_moments(table, c0, **kwargs)
        return dataclasses.replace(mset, union=SkewedBetween(**dataclasses.asdict(mset.union)))

    monkeypatch.setattr(oracle, "moments", skewed_moments)
    code, out, err = run_cli(capsys, [
        "verify", "--instances", "2", "--max-n", "8", "--seed", "1",
    ])
    assert code == 1
    assert "moments vs exhaustive permutations: FAIL" in out
    assert "Var between (union)" in err
    assert "within" not in err


def test_verify_catches_an_injected_knnl_error(capsys, monkeypatch):
    real_build_knnl = oracle.build_knnl

    def without_last_edge(dist, k):
        graph = real_build_knnl(dist, k)
        return dataclasses.replace(graph, edges=graph.edges[:-1])

    monkeypatch.setattr(oracle, "build_knnl", without_last_edge)
    code, out, err = run_cli(capsys, [
        "verify", "--instances", "3", "--max-n", "8", "--seed", "1",
    ])
    assert code == 1
    assert "nnl vs union of all MSTs: PASS" in out
    assert "knnl vs round-by-round recount: FAIL (3 instances)" in out
    assert "round-by-round recount" in err


def _exact_ties_only(build_knnl):
    def build(dist, k):
        if isinstance(dist, DistanceMatrix):
            dist = DistanceMatrix(values=dist.values)
        return build_knnl(dist, k)
    return build


def _exclusions_admitted(build_knnl):
    def build(dist, k):
        if isinstance(dist, np.ndarray):
            at = np.arange(dist.shape[0])
            dist = np.where(np.isinf(dist), 10.0 + np.add.outer(at, at), dist)
        return build_knnl(dist, k)
    return build


@pytest.mark.parametrize("bend", [_exact_ties_only, _exclusions_admitted])
def test_verify_draws_tolerance_and_exclusion_instances(capsys, monkeypatch, bend):
    # Each error leaves integer ties at tolerance 0 intact, so only the
    # jittered or the split instances can catch it.
    monkeypatch.setattr(oracle, "build_knnl", bend(oracle.build_knnl))
    code, out, err = run_cli(capsys, [
        "verify", "--instances", "6", "--max-n", "8", "--seed", "1",
    ])
    assert code == 1
    assert "knnl vs round-by-round recount: FAIL (6 instances)" in out
    assert "round-by-round recount" in err


def test_verify_catches_an_injected_kmst_error(capsys, monkeypatch):
    real_build_kmst = oracle.build_kmst

    def without_last_edge(dist, k, seed):
        graph = real_build_kmst(dist, k, seed)
        return dataclasses.replace(graph, edges=graph.edges[:-1])

    monkeypatch.setattr(oracle, "build_kmst", without_last_edge)
    code, out, err = run_cli(capsys, [
        "verify", "--instances", "3", "--max-n", "8", "--seed", "1",
    ])
    assert code == 1
    assert "knnl vs round-by-round recount: PASS (3 instances)" in out
    assert "kmst vs sorted Kruskal: FAIL (3 instances)" in out
    assert "sorted Kruskal" in err
