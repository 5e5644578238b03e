"""Ranking generators and the power-study harness.

Generator correctness is pinned by exact enumeration: model probabilities
are computed over the full permutation support, so sampled frequencies can
be compared against exact values, and predicate-restricted supports have
hand-countable sizes.
"""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np
import pytest

from edgecount.errors import InputFormatError
from edgecount.simulate import (
    BUILTIN_SCENARIOS,
    MallowsModel,
    RestrictedUniform,
    ScenarioConfig,
    GeneratorSpec,
    built_in_scenario,
    enumerate_rankings,
    parse_scenario_file,
    run_scenario,
    sample_mallows,
    sample_restricted_uniform,
    statistic_keys,
)
from edgecount.oracle import distance_footrule, distance_kendall, distance_spearman


# ---------------------------------------------------------------------------
# Ranking enumeration


def test_enumerate_rankings_lists_every_permutation_once():
    support = enumerate_rankings(4)
    assert support.shape == (24, 4)
    rows = {tuple(r) for r in support.tolist()}
    assert rows == {tuple(p) for p in permutations((1, 2, 3, 4))}


def test_enumerate_rankings_bounds():
    with pytest.raises(InputFormatError):
        enumerate_rankings(1)
    with pytest.raises(InputFormatError):
        enumerate_rankings(9)


# ---------------------------------------------------------------------------
# Mallows model


def test_mallows_probabilities_are_exponential_in_distance():
    center = (1, 3, 2, 4)
    model = MallowsModel(center=center, theta=0.7)
    support = model.support
    probs = model.probabilities
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    d = ((support - np.asarray(center)) ** 2).sum(axis=1)
    weights = np.exp(-0.7 * d)
    assert probs == pytest.approx(weights / weights.sum(), rel=1e-12)
    # the center itself is the unique mode
    assert d[np.argmax(probs)] == 0


def test_mallows_zero_theta_is_uniform():
    model = MallowsModel(center=(1, 2, 3, 4), theta=0.0)
    assert model.probabilities == pytest.approx(np.full(24, 1 / 24), rel=1e-12)


def test_mallows_center_must_be_a_permutation():
    with pytest.raises(InputFormatError):
        MallowsModel(center=(1, 2, 2, 4), theta=1.0)


def test_mallows_sample_frequencies_match_exact_probabilities():
    model = MallowsModel(center=(2, 1, 3, 4), theta=1.0)
    n = 30_000
    samples = sample_mallows(model, n, seed=11)
    support = model.support
    probs = model.probabilities
    # map each sample row to its support index
    index = {tuple(row): i for i, row in enumerate(support.tolist())}
    counts = np.zeros(support.shape[0])
    for row in samples.tolist():
        counts[index[tuple(row)]] += 1
    freq = counts / n
    sd = np.sqrt(probs * (1 - probs) / n)
    assert (np.abs(freq - probs) <= 4 * sd + 1e-9).all()


def test_mallows_large_theta_concentrates_on_the_center():
    model = MallowsModel(center=(1, 2, 3, 4, 5), theta=50.0)
    samples = sample_mallows(model, 2000, seed=3)
    assert (samples == np.array([1, 2, 3, 4, 5])).all(axis=1).mean() > 0.999


def test_mallows_metrics_agree_with_pairwise_distance_functions():
    center = np.array([3, 1, 4, 2, 5])
    support = enumerate_rankings(5)
    for metric, fn in (
        ("spearman", distance_spearman),
        ("kendall", distance_kendall),
        ("footrule", distance_footrule),
    ):
        model = MallowsModel(center=tuple(center), theta=0.5, metric=metric)
        probs = model.probabilities
        d = np.array([fn(row, center) for row in support])
        weights = np.exp(-0.5 * d)
        assert probs == pytest.approx(weights / weights.sum(), rel=1e-10)


def test_mallows_sampling_is_deterministic_per_seed():
    model = MallowsModel(center=(1, 2, 3, 4, 5, 6), theta=0.5)
    a = sample_mallows(model, 100, seed=42)
    b = sample_mallows(model, 100, seed=42)
    c = sample_mallows(model, 100, seed=43)
    assert (a == b).all()
    assert not (a == c).all()


# ---------------------------------------------------------------------------
# Restricted-uniform generator


@pytest.mark.parametrize(
    "predicate,expected",
    [
        ("not_first=4", 18),
        ("not_last=1", 18),
        ("before=1:3", 12),
        ("any_in_top=1,2:2", 20),
        ("not_first=4&not_last=1", 14),
    ],
)
def test_predicate_support_sizes_on_four_objects(predicate, expected):
    gen = RestrictedUniform(n_obj=4, predicate=predicate)
    assert gen.support.shape[0] == expected


@pytest.mark.parametrize(
    "predicate,expected",
    [
        ("not_first=6", 600),
        ("not_last=1", 600),
        ("before=1:5", 360),
        ("before=1:6", 360),
        ("any_in_top=1,2:3", 576),
        ("not_first=6&not_last=1", 504),
    ],
)
def test_predicate_support_sizes_used_by_builtin_scenarios(predicate, expected):
    gen = RestrictedUniform(n_obj=6, predicate=predicate)
    assert gen.support.shape[0] == expected


def test_predicate_parsing_errors():
    support = RestrictedUniform(n_obj=4, predicate="not_first=1").support
    assert support.shape[0] == 18
    for bad in ("junk", "first=3", "before=1"):
        with pytest.raises(InputFormatError):
            RestrictedUniform(n_obj=4, predicate=bad).support
    with pytest.raises(InputFormatError):
        RestrictedUniform(n_obj=4, predicate="before=1:1").support  # empty


def test_restricted_sampling_is_uniform_on_the_support():
    n = 8000
    samples = sample_restricted_uniform(3, "not_first=3", n, seed=7)
    support = RestrictedUniform(n_obj=3, predicate="not_first=3").support
    assert support.shape[0] == 4
    rows = {tuple(r) for r in samples.tolist()}
    assert rows <= {tuple(r) for r in support.tolist()}
    p = 1 / 4
    sd = math.sqrt(p * (1 - p) / n)
    for row in support.tolist():
        freq = (samples == np.array(row)).all(axis=1).mean()
        assert freq == pytest.approx(p, abs=4 * sd)


def test_restricted_sampling_never_leaves_the_predicate():
    samples = sample_restricted_uniform(6, "not_first=6&not_last=1", 500, seed=1)
    assert (samples[:, 0] != 6).all()
    assert (samples[:, -1] != 1).all()


# ---------------------------------------------------------------------------
# Scenario configuration


def test_generator_spec_build_validation():
    with pytest.raises(InputFormatError):
        GeneratorSpec(kind="mallows").build()  # no center
    with pytest.raises(InputFormatError):
        GeneratorSpec(kind="restricted", predicate="not_first=1").build()  # no n_obj
    with pytest.raises(InputFormatError):
        GeneratorSpec(kind="bootstrap").build()


def test_scenario_config_validation():
    gen = GeneratorSpec(kind="mallows", theta=1.0, center=(1, 2, 3))
    with pytest.raises(InputFormatError):
        ScenarioConfig(generator1=gen, generator2=gen, n1=5, n2=5, replicates=0)
    with pytest.raises(InputFormatError):
        ScenarioConfig(generator1=gen, generator2=gen, n1=5, n2=5, graph_rule="web")
    with pytest.raises(InputFormatError):
        ScenarioConfig(generator1=gen, generator2=gen, n1=5, n2=5, alpha=1.5)


def test_scenario_config_rejects_kappas_that_print_alike():
    gen = GeneratorSpec(kind="mallows", theta=1.0, center=(1, 2, 3))
    for kappas in ((1.0, 1), (0.5, 1.31, 0.50)):
        with pytest.raises(InputFormatError, match="distinct"):
            ScenarioConfig(generator1=gen, generator2=gen, n1=5, n2=5, kappas=kappas)
    with pytest.raises(InputFormatError, match="distinct"):
        built_in_scenario("S1", replicates=4, seed=1, kappas=(1.0, 1))
    with pytest.raises(InputFormatError, match="positive"):
        ScenarioConfig(generator1=gen, generator2=gen, n1=5, n2=5, kappas=(0.0,))


def test_statistic_keys_cover_both_summaries_and_all_kappas():
    keys = statistic_keys((1.31, 1.0))
    assert "edge_average" in keys and "edge_union" in keys
    assert "max(1.31)_union" in keys and "max(1)_average" in keys
    assert len(keys) == 2 * (4 + 2)


def test_normalized_model_rescales_theta_by_the_maximum_distance():
    # The farthest ranking from any center is its reversal; on 6 objects the
    # reversal sits at squared-rank distance 70, so normalize=True with
    # theta is the same model as raw distances with theta/70.
    raw = MallowsModel(center=(1, 2, 3, 4, 5, 6), theta=5.0 / 70.0)
    scaled = MallowsModel(center=(1, 2, 3, 4, 5, 6), theta=5.0, normalize=True)
    np.testing.assert_allclose(scaled.probabilities, raw.probabilities, rtol=1e-12)


def test_builtin_scenarios_expose_balanced_and_unbalanced_sizes():
    assert set(BUILTIN_SCENARIOS) == {f"S{i}" for i in range(1, 9)}
    bal = built_in_scenario("S2")
    unbal = built_in_scenario("S2", unbalanced=True)
    assert (bal.n1, bal.n2) == (300, 300)
    assert (unbal.n1, unbal.n2) == (300, 600)
    assert bal.generator1.theta == 5.5
    assert bal.generator2.theta == 4.0
    assert bal.generator1.normalize and bal.generator2.normalize
    small = built_in_scenario("S1", replicates=2, seed=9)
    assert small.replicates == 2 and small.seed == 9
    with pytest.raises(InputFormatError):
        built_in_scenario("S9")


# ---------------------------------------------------------------------------
# Power-study harness


def tiny_config(**overrides) -> ScenarioConfig:
    # five-object rankings keep the distinct-value set rich enough that the
    # 2-NNL stays sparse and no null variance collapses
    base = dict(
        generator1=GeneratorSpec(kind="mallows", theta=1.0, center=(1, 2, 3, 4, 5)),
        generator2=GeneratorSpec(kind="mallows", theta=1.0, center=(1, 2, 3, 4, 5)),
        n1=30,
        n2=30,
        graph_k=2,
        replicates=30,
        seed=12,
        kappas=(1.0,),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_run_scenario_is_reproducible_and_reports_every_statistic():
    config = tiny_config()
    a = run_scenario(config)
    b = run_scenario(config)
    assert a.rejections == b.rejections
    assert set(a.rejections) == set(statistic_keys((1.0,)))
    assert all(0 <= v <= config.replicates for v in a.rejections.values())
    # identical generators: rejection rates stay near the nominal level
    assert all(p <= 0.3 for p in a.power.values())


def test_run_scenario_statistics_filter():
    config = tiny_config(statistics=("generalized_union", "edge_average"))
    result = run_scenario(config)
    assert set(result.rejections) == {"generalized_union", "edge_average"}
    with pytest.raises(InputFormatError):
        run_scenario(tiny_config(statistics=("bogus_key",)))


def test_run_scenario_detects_a_genuine_shift():
    shifted = tiny_config(
        generator2=GeneratorSpec(kind="mallows", theta=1.0, center=(5, 4, 3, 2, 1)),
        n1=40,
        n2=40,
        replicates=30,
    )
    null = tiny_config(n1=40, n2=40, replicates=30)
    power = run_scenario(shifted).power["generalized_union"]
    level = run_scenario(null).power["generalized_union"]
    assert power > 0.9
    assert level < 0.3


def test_scenario_result_serialization():
    result = run_scenario(tiny_config(replicates=5))
    csv_text = result.to_csv_text()
    lines = csv_text.strip().split("\n")
    assert len(lines) == 3
    assert lines[0].startswith("row,")
    assert lines[1].startswith("power,")
    assert lines[2].startswith("se,")
    payload = result.to_json_dict()
    assert payload["config"]["replicates"] == 5
    assert set(payload["rejections"]) == set(result.rejections)
    for key, p in payload["power"].items():
        assert p == result.rejections[key] / 5


def test_mst_graph_rule_runs():
    result = run_scenario(tiny_config(graph_rule="mst", replicates=5))
    assert sum(result.rejections.values()) >= 0


# ---------------------------------------------------------------------------
# Scenario config files


def test_parse_scenario_file_round_trip(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(
        "# two mallows samples\n"
        "generator1 = mallows\n"
        "theta1 = 5.5\n"
        "normalize1 = true\n"
        "center1 = 1,2,3,4,5,6\n"
        "generator2 = restricted\n"
        "predicate2 = not_first=6\n"
        "n_obj2 = 6\n"
        "n1 = 25\n"
        "n2 = 35\n"
        "graph_rule = mst\n"
        "graph_k = 2\n"
        "alpha = 0.1\n"
        "replicates = 7\n"
        "seed = 5\n"
        "kappas = 1.31,1.0\n"
        "statistics = generalized_union,edge_average\n"
    )
    config = parse_scenario_file(path)
    assert config.generator1.kind == "mallows"
    assert config.generator1.theta == 5.5
    assert config.generator1.normalize is True
    assert config.generator2.predicate == "not_first=6"
    assert (config.n1, config.n2) == (25, 35)
    assert config.graph_rule == "mst"
    assert config.kappas == (1.31, 1.0)
    assert config.statistics == ("generalized_union", "edge_average")
    assert config.alpha == 0.1


def test_parse_scenario_file_shared_n_obj(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(
        "generator1 = restricted\n"
        "predicate1 = before=1:5\n"
        "generator2 = restricted\n"
        "predicate2 = before=1:6\n"
        "n_obj = 6\n"
        "n1 = 10\n"
        "n2 = 10\n"
    )
    config = parse_scenario_file(path)
    assert config.generator1.n_obj == 6
    assert config.generator2.n_obj == 6


@pytest.mark.parametrize(
    "content,message",
    [
        ("generator1 = mallows\ncenter1 = 1,2\n", "generator2"),
        ("generator1 = mallows\n", "needs center"),
        ("generator1 = mallows\ncenter1 = 1,2\ngenerator2 = mallows\n"
         "center2 = 1,2\n", "n1 and n2"),
        ("generator1 = quantum\nn1 = 5\nn2 = 5\n", "unknown generator"),
        ("generator1 = mallows\ncenter1 = 1,2\ngenerator2 = mallows\n"
         "center2 = 1,2\nn1 = 5\nn2 = 5\nwidgets = 3\n", "unknown config"),
        ("n1 = 5\nn1 = 6\n", "duplicate"),
        ("just words\n", "key = value"),
        ("generator1 = mallows\ncenter1 = 1,2\nnormalize1 = maybe\n"
         "generator2 = mallows\ncenter2 = 1,2\nn1 = 5\nn2 = 5\n",
         "normalize1"),
    ],
)
def test_parse_scenario_file_errors(tmp_path, content, message):
    path = tmp_path / "bad.cfg"
    path.write_text(content)
    with pytest.raises(InputFormatError, match=message):
        parse_scenario_file(path)
