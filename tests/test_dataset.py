"""Deduplication, distances, and file formats."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgecount import (
    DistanceMatrix,
    DistinctTable,
    InputFormatError,
    deduplicate,
    distance_euclidean,
    distance_footrule,
    distance_frobenius_sq,
    distance_kendall,
    distance_spearman,
    expand_to_observations,
    load_table,
    pairwise_distances,
    read_distance_input,
    read_observations,
    write_distance_input,
    write_observations,
)

# --- deduplicate -----------------------------------------------------------


def test_dedup_all_equal_single_value():
    payloads = np.array([[1.5, 2.0]] * 3)
    table = deduplicate(payloads, labels=[1, 1, 2], kind="vector")
    assert table.n_values == 1
    assert table.counts1.tolist() == [2]
    assert table.counts2.tolist() == [1]
    assert table.n_total == 3


def test_dedup_rankings_counts_and_order():
    rankings = [(1, 2, 3), (1, 2, 3), (2, 1, 3), (3, 2, 1)]
    table = deduplicate(np.array(rankings), labels=[1, 2, 1, 2], kind="ranking")
    assert table.n_values == 3
    assert table.multiplicity.tolist() == [2, 1, 1]
    # first-appearance order of the representatives
    assert table.representatives.tolist() == [[1, 2, 3], [2, 1, 3], [3, 2, 1]]
    assert table.counts1.tolist() == [1, 1, 0]
    assert table.counts2.tolist() == [1, 0, 1]


def test_dedup_networks_by_exact_equality():
    a = np.zeros((3, 3), dtype=np.int64)
    b = a.copy()
    b[0, 1] = 1
    table = deduplicate(np.stack([a, b, a, b, b]), labels=[1, 1, 2, 2, 2], kind="network")
    assert table.n_values == 2
    assert table.multiplicity.tolist() == [2, 3]
    assert table.n_repeated_values == 2


def test_dedup_rejects_heterogeneous_payloads():
    ragged = np.array([np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0])], dtype=object)
    with pytest.raises(InputFormatError):
        deduplicate(ragged, labels=[1, 2], kind="vector")


def test_dedup_rejects_empty_input():
    with pytest.raises(InputFormatError):
        deduplicate(np.empty((0, 2)), labels=[], kind="vector")


def test_dedup_rejects_bad_labels():
    with pytest.raises((InputFormatError, ValueError)):
        deduplicate(np.array([[1.0], [2.0]]), labels=[1, 3], kind="vector")


def test_dedup_rejects_non_permutation_ranking():
    with pytest.raises(InputFormatError):
        deduplicate(np.array([[1, 2, 2]]), labels=[1], kind="ranking")


def test_dedup_rejects_nonbinary_network():
    net = np.full((1, 2, 2), 3, dtype=np.int64)
    with pytest.raises(InputFormatError):
        deduplicate(net, labels=[1], kind="network")


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=1, max_value=4),
            st.sampled_from([1, 2]),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_dedup_roundtrip_replication(spec):
    """Replicating each distinct row m times and deduplicating is the identity."""
    base = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, -1.0], [3.5, 4.0]])
    payloads, labels = [], []
    seen_rows = {}
    for row_id, mult, label in spec:
        for _ in range(mult):
            payloads.append(base[row_id])
            labels.append(label)
        key = row_id
        c1, c2 = seen_rows.get(key, (0, 0))
        seen_rows[key] = (c1 + (mult if label == 1 else 0), c2 + (mult if label == 2 else 0))
    table = deduplicate(np.array(payloads), labels, kind="vector")
    assert table.n_values == len(seen_rows)
    assert int(table.multiplicity.sum()) == len(payloads)
    # per-value counts match the tally regardless of value numbering
    got = sorted(zip(table.counts1.tolist(), table.counts2.tolist()))
    assert got == sorted(seen_rows.values())
    # deduplicating the representatives replicated by multiplicity is stable
    again = deduplicate(
        np.repeat(table.representatives, table.multiplicity, axis=0),
        np.repeat(np.where(np.arange(table.n_total) >= 0, 1, 1), 1)[: table.n_total] * 0 + 1,
        kind="vector",
    )
    assert again.n_values == table.n_values
    assert again.multiplicity.tolist() == table.multiplicity.tolist()


def test_dedup_merges_negative_zero_into_zero():
    table = deduplicate([[0.0, 1], [-0.0, 1], [1, 1], [2, 1]], [1, 2, 1, 2], kind="vector")
    assert table.n_values == 3
    assert table.value_index.tolist() == [0, 0, 1, 2]
    assert not np.signbit(table.representatives).any()
    assert pairwise_distances(table).values.tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-2, max_value=2), min_size=2, max_size=2),
        min_size=1,
        max_size=8,
    ),
    st.data(),
)
def test_dedup_ignores_the_sign_of_zero(rows, data):
    payloads = np.array(rows, dtype=np.float64)
    flips = data.draw(
        st.lists(st.booleans(), min_size=payloads.size, max_size=payloads.size)
    )
    flipped = payloads.copy().ravel()
    flipped[np.array(flips) & (flipped == 0.0)] = -0.0
    flipped = flipped.reshape(payloads.shape)
    labels = [1 + i % 2 for i in range(len(rows))]
    a = deduplicate(payloads, labels, kind="vector")
    b = deduplicate(flipped, labels, kind="vector")
    assert b.n_values == a.n_values
    assert b.value_index.tolist() == a.value_index.tolist()
    assert np.asarray(b.representatives).tobytes() == np.asarray(a.representatives).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ["vector", "ranking"])
def test_dedup_rejects_non_finite_coordinates_with_the_observation_index(bad, kind):
    payloads = np.array([[1.0, 2.0], [2.0, 1.0], [1.0, bad]])
    with pytest.raises(InputFormatError, match="observation 2 "):
        deduplicate(payloads, [1, 2, 1], kind=kind)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "infinity"])
def test_non_finite_fields_report_file_and_line(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"1,0.5,1.0\n2,{cell},1.0\n1,2.0,3.0\n")
    with pytest.raises(InputFormatError, match="NaN or infinite") as err:
        read_observations(path, kind="vector")
    assert f"{path}:2:" in str(err.value)
    matrix = tmp_path / "dist.csv"
    matrix.write_text(f"0,1\n{cell},0\n")
    assign = tmp_path / "assign.csv"
    assign.write_text("1,1\n2,2\n")
    with pytest.raises(InputFormatError) as err:
        read_distance_input(matrix, assign)
    assert f"{matrix}:2:" in str(err.value)


# --- scalar distances ------------------------------------------------------


def test_frobenius_identity_and_count():
    a = np.array([[0, 1], [1, 0]])
    assert distance_frobenius_sq(a, a) == 0
    b = a.copy()
    b[0, 0] = 1
    b[0, 1] = 0
    b[1, 0] = 0
    assert distance_frobenius_sq(a, b) == 3


def test_frobenius_matches_entrywise_loop():
    rng = np.random.default_rng(5)
    a = rng.integers(0, 2, size=(5, 5))
    b = rng.integers(0, 2, size=(5, 5))
    expected = sum(
        int(a[i, j] != b[i, j]) for i in range(5) for j in range(5)
    )
    assert distance_frobenius_sq(a, b) == expected


def test_frobenius_rejects_dimension_mismatch():
    with pytest.raises(InputFormatError):
        distance_frobenius_sq(np.zeros((2, 2)), np.zeros((3, 3)))


def test_spearman_examples():
    assert distance_spearman((1, 2, 3), (1, 2, 3)) == 0
    assert distance_spearman((1, 2, 3), (3, 2, 1)) == 8


def test_spearman_matches_elementwise_loop():
    rng = np.random.default_rng(11)
    a = rng.permutation(6) + 1
    b = rng.permutation(6) + 1
    assert distance_spearman(a, b) == sum((int(x) - int(y)) ** 2 for x, y in zip(a, b))


def test_spearman_rejects_length_mismatch_and_nonbijection():
    with pytest.raises(InputFormatError):
        distance_spearman((1, 2, 3), (1, 2))
    with pytest.raises(InputFormatError):
        distance_spearman((1, 1, 3), (1, 2, 3))


def test_footrule_is_absolute_displacement():
    assert distance_footrule((1, 2, 3), (3, 2, 1)) == 4
    rng = np.random.default_rng(3)
    a = rng.permutation(6) + 1
    b = rng.permutation(6) + 1
    assert distance_footrule(a, b) == sum(abs(int(x) - int(y)) for x, y in zip(a, b))


def test_kendall_examples():
    assert distance_kendall((1, 2, 3), (1, 2, 3)) == 0
    assert distance_kendall((1, 2, 3), (2, 1, 3)) == 1


def test_kendall_matches_pair_counting():
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = rng.permutation(6) + 1
        b = rng.permutation(6) + 1
        discordant = 0
        for i in range(6):
            for j in range(i + 1, 6):
                if (a[i] - a[j]) * (b[i] - b[j]) < 0:
                    discordant += 1
        assert distance_kendall(a, b) == discordant


@settings(max_examples=50, deadline=None)
@given(st.permutations(list(range(1, 7))), st.permutations(list(range(1, 7))))
def test_rank_distances_symmetric_and_relabel_invariant(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    for fn in (distance_spearman, distance_kendall, distance_footrule):
        assert fn(a, b) == fn(b, a)
        assert (fn(a, b) == 0) == bool((a == b).all())
    # entry i is object i's rank, so relabeling objects permutes positions;
    # applying the same relabeling to both rankings preserves distances
    relabel = np.array([2, 0, 5, 1, 4, 3])
    ra = a[relabel]
    rb = b[relabel]
    assert distance_spearman(ra, rb) == distance_spearman(a, b)
    assert distance_kendall(ra, rb) == distance_kendall(a, b)
    assert distance_footrule(ra, rb) == distance_footrule(a, b)


def test_euclidean_distance():
    assert distance_euclidean((0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0)


# --- DistanceMatrix validation --------------------------------------------


def test_distance_matrix_rejects_asymmetry():
    bad = np.array([[0, 1], [2, 0]])
    with pytest.raises(InputFormatError):
        DistanceMatrix(values=bad)


def test_distance_matrix_rejects_nonzero_diagonal():
    with pytest.raises(InputFormatError):
        DistanceMatrix(values=np.array([[1, 2], [2, 0]]))


def test_distance_matrix_rejects_negative_entries():
    with pytest.raises(InputFormatError):
        DistanceMatrix(values=np.array([[0, -1], [-1, 0]]))


def test_distance_matrix_rejects_indistinct_values():
    # off-diagonal distances must exceed the tie tolerance
    with pytest.raises(InputFormatError):
        DistanceMatrix(values=np.array([[0, 0], [0, 0]]))
    with pytest.raises(InputFormatError):
        DistanceMatrix(values=np.array([[0.0, 0.5], [0.5, 0.0]]), tie_tolerance=0.5)


def test_distance_matrix_keeps_integer_dtype():
    d = DistanceMatrix(values=np.array([[0, 2], [2, 0]], dtype=np.int64))
    assert np.issubdtype(np.asarray(d.values).dtype, np.integer)


# --- pairwise distances ----------------------------------------------------


def test_pairwise_distances_match_scalar_functions():
    rankings = np.array([(1, 2, 3, 4), (2, 1, 3, 4), (4, 3, 2, 1), (1, 3, 2, 4)])
    table = deduplicate(rankings, labels=[1, 2, 1, 2], kind="ranking")
    for metric, fn in (
        ("spearman", distance_spearman),
        ("kendall", distance_kendall),
        ("footrule", distance_footrule),
    ):
        mat = pairwise_distances(table, metric=metric)
        vals = np.asarray(mat.values)
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert vals[i, j] == fn(rankings[i], rankings[j])


def test_pairwise_distances_default_metric_by_kind():
    nets = np.stack([np.zeros((2, 2), dtype=int), np.eye(2, dtype=int)])
    table = deduplicate(nets, labels=[1, 2], kind="network")
    mat = pairwise_distances(table)
    assert np.asarray(mat.values)[0, 1] == 2  # two differing entries

    vecs = np.array([[0.0, 0.0], [3.0, 4.0]])
    table = deduplicate(vecs, labels=[1, 2], kind="vector")
    mat = pairwise_distances(table)
    assert np.asarray(mat.values)[0, 1] == pytest.approx(5.0)


def test_expand_to_observations_places_zeros_between_repeats():
    d = DistanceMatrix(values=np.array([[0, 2], [2, 0]], dtype=np.int64))
    expanded = expand_to_observations(d, value_index=[0, 0, 1])
    assert expanded.tolist() == [[0, 0, 2], [0, 0, 2], [2, 2, 0]]


# --- file formats ----------------------------------------------------------


def test_vector_file_roundtrip(tmp_path):
    path = tmp_path / "obs.csv"
    payloads = np.array([[0.5, 1.0], [0.5, 1.0], [2.0, 3.0]])
    labels = np.array([1, 2, 2])
    write_observations(path, payloads, labels, kind="vector")
    got_payloads, got_labels = read_observations(path, kind="vector")
    assert np.array_equal(got_payloads, payloads)
    assert np.array_equal(got_labels, labels)


def test_ranking_file_roundtrip(tmp_path):
    path = tmp_path / "ranks.csv"
    payloads = np.array([[1, 2, 3], [3, 2, 1]])
    labels = np.array([1, 2])
    write_observations(path, payloads, labels, kind="ranking")
    got_payloads, got_labels = read_observations(path, kind="ranking")
    assert np.array_equal(got_payloads, payloads)
    assert np.array_equal(got_labels, labels)


def test_network_file_roundtrip(tmp_path):
    path = tmp_path / "nets.csv"
    payloads = np.stack([np.eye(3, dtype=np.int64), np.zeros((3, 3), dtype=np.int64)])
    payloads[0, 0, 0] = 0
    payloads[0, 0, 1] = 1
    labels = np.array([1, 2])
    write_observations(path, payloads, labels, kind="network")
    text = path.read_text()
    assert text.splitlines()[0] == "nodes=3"
    got_payloads, got_labels = read_observations(path, kind="network")
    assert np.array_equal(got_payloads, payloads)
    assert np.array_equal(got_labels, labels)


def test_load_table_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("# a comment\n\n1,0.5\n2,0.5\n")
    table = load_table(path, kind="vector")
    assert table.n_values == 1
    assert table.n1 == 1 and table.n2 == 1


@pytest.mark.parametrize(
    "content",
    [
        "3,1.0\n",  # bad label
        "1,abc\n",  # non-numeric cell
        "1,1.0\n2,1.0,2.0\n",  # ragged row
    ],
)
def test_malformed_vector_rows_report_line_numbers(tmp_path, content):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(InputFormatError) as err:
        read_observations(path, kind="vector")
    assert str(path) in str(err.value)
    assert ":" in str(err.value)


def test_malformed_network_header(tmp_path):
    path = tmp_path / "bad_nets.csv"
    path.write_text("1,0,1,0,0\n")
    with pytest.raises(InputFormatError):
        read_observations(path, kind="network")
    path.write_text("nodes=x\n1,0,1,0,0\n")
    with pytest.raises(InputFormatError):
        read_observations(path, kind="network")
    # row width must equal nodes^2
    path.write_text("nodes=2\n1,0,1,0\n")
    with pytest.raises(InputFormatError):
        read_observations(path, kind="network")


def test_non_bijection_ranking_file(tmp_path):
    path = tmp_path / "bad_ranks.csv"
    path.write_text("1,1,1,3\n")
    with pytest.raises(InputFormatError):
        read_observations(path, kind="ranking")


def test_distance_input_roundtrip(tmp_path):
    rankings = np.array([(1, 2, 3), (1, 2, 3), (2, 1, 3), (3, 2, 1)])
    table = deduplicate(rankings, labels=[1, 2, 1, 2], kind="ranking")
    dist = pairwise_distances(table)
    mpath = tmp_path / "dist.csv"
    apath = tmp_path / "assign.csv"
    write_distance_input(mpath, apath, dist, table)
    got_dist, got_table = read_distance_input(mpath, apath)
    assert np.allclose(np.asarray(got_dist.values), np.asarray(dist.values))
    assert got_table.n_values == table.n_values
    assert np.array_equal(got_table.labels, table.labels)
    assert np.array_equal(got_table.value_index, table.value_index)


def test_distance_input_rejects_bad_assignment_index(tmp_path):
    mpath = tmp_path / "dist.csv"
    apath = tmp_path / "assign.csv"
    mpath.write_text("0,1\n1,0\n")
    apath.write_text("1,1\n2,5\n")  # value index 5 out of range for K=2
    with pytest.raises(InputFormatError):
        read_distance_input(mpath, apath)


def test_distance_input_requires_every_value_used(tmp_path):
    mpath = tmp_path / "dist.csv"
    apath = tmp_path / "assign.csv"
    mpath.write_text("0,1\n1,0\n")
    apath.write_text("1,1\n2,1\n")  # value 2 never referenced
    with pytest.raises(InputFormatError):
        read_distance_input(mpath, apath)


# --- DistinctTable invariants ----------------------------------------------


def test_distinct_table_validates_inputs():
    with pytest.raises((InputFormatError, ValueError)):
        DistinctTable(
            labels=np.array([1, 3]), value_index=np.array([0, 0]), n_values=1
        )
    with pytest.raises((InputFormatError, ValueError)):
        DistinctTable(
            labels=np.array([1, 2]), value_index=np.array([0, 2]), n_values=2
        )


def test_distinct_table_totals():
    table = deduplicate(
        np.array([[1.0], [1.0], [2.0], [3.0]]), labels=[1, 2, 2, 1], kind="vector"
    )
    assert table.n1 == 2 and table.n2 == 2 and table.n_total == 4
    assert int(table.multiplicity.sum()) == table.n_total
    assert int(table.counts1.sum()) == table.n1
    assert int(table.counts2.sum()) == table.n2
    assert table.n_repeated_values == 1
