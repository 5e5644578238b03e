"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

from edgecount import DistinctTable, SimilarityGraph

# A five-distinct-value instance with tied integer distances. Its
# nearest-neighbor link, the number of minimum spanning trees, and the size
# of the induced observation-graph family are all known exactly, which makes
# it a convenient worked example across modules.
FIVE_VALUE_DISTANCES = np.array(
    [
        [0, 1, 1, 3, 3],
        [1, 0, 1, 2, 3],
        [1, 1, 0, 3, 2],
        [3, 2, 3, 0, 1],
        [3, 3, 2, 1, 0],
    ],
    dtype=np.int64,
)
FIVE_VALUE_MULTIPLICITY = (1, 3, 4, 3, 1)
FIVE_VALUE_NNL_EDGES = ((0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4))
FIVE_VALUE_FAMILY_SIZE = 2_239_488
FIVE_VALUE_MST_COUNT = 6


def table_from_counts(counts1, multiplicity) -> DistinctTable:
    """Build a DistinctTable with given per-value sample-1 counts."""
    labels: list[int] = []
    value_index: list[int] = []
    for u, (c1, m) in enumerate(zip(counts1, multiplicity)):
        if not 0 <= c1 <= m:
            raise ValueError("counts1 must satisfy 0 <= c1 <= m")
        labels.extend([1] * int(c1) + [2] * int(m - c1))
        value_index.extend([u] * int(m))
    return DistinctTable(
        labels=np.asarray(labels, dtype=np.int64),
        value_index=np.asarray(value_index, dtype=np.int64),
        n_values=len(multiplicity),
    )


def is_connected(graph: SimilarityGraph) -> bool:
    """Whether the graph has one connected component."""
    u, v = graph.edge_array.T
    adjacency = coo_array((np.ones(u.size), (u, v)), shape=(graph.n_nodes, graph.n_nodes))
    return connected_components(adjacency, directed=False)[0] == 1


def random_counts1(rng: np.random.Generator, multiplicity, interior: bool = True):
    """Random per-value sample-1 counts with n1 >= 1 and n2 >= 1."""
    m = np.asarray(multiplicity, dtype=np.int64)
    while True:
        c1 = rng.integers(0, m + 1)
        n1 = int(c1.sum())
        if interior and not (1 <= n1 <= int(m.sum()) - 1):
            continue
        return tuple(int(x) for x in c1)


@pytest.fixture
def five_value_table() -> DistinctTable:
    return table_from_counts((1, 2, 2, 2, 1), FIVE_VALUE_MULTIPLICITY)
