"""Observation ingestion, deduplication into distinct values, and distances.

Observations come in three payload kinds: fixed-dimension real vectors,
square binary adjacency matrices, and rankings (permutations of 1..n_obj).
Repeated observations are collapsed into a table of distinct values with
per-sample counts; all downstream graph constructions run on the distinct
values, never on raw observations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .errors import InputFormatError

KINDS = ("vector", "ranking", "network")

_DEFAULT_METRIC = {"vector": "euclidean", "ranking": "spearman", "network": "frobenius"}

_PDIST_METRIC = {"euclidean": "euclidean", "spearman": "sqeuclidean", "frobenius": "sqeuclidean",
                 "footrule": "cityblock", "kendall": "cityblock"}


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DistinctTable:
    """Pooled two-sample data summarized by distinct values.

    ``labels[i]`` is the sample (1 or 2) of observation i and
    ``value_index[i]`` the distinct value it maps to, in first-appearance
    order. ``representatives[u]`` is the canonical payload of value u when
    the table was built from raw observations (``None`` for pre-computed
    distance input).
    """

    labels: np.ndarray
    value_index: np.ndarray
    n_values: int
    representatives: np.ndarray | None = None
    kind: str | None = None

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.int64)
        index = np.asarray(self.value_index, dtype=np.int64)
        if labels.ndim != 1 or labels.size == 0:
            raise InputFormatError("labels must be a nonempty 1-d array")
        if labels.shape != index.shape:
            raise InputFormatError("labels and value_index must have equal length")
        if not np.isin(labels, (1, 2)).all():
            raise InputFormatError("sample labels must be 1 or 2")
        if self.n_values <= 0:
            raise InputFormatError("n_values must be positive")
        if index.min() < 0 or index.max() >= self.n_values:
            raise InputFormatError("value_index entries must lie in [0, n_values)")
        if np.bincount(index, minlength=self.n_values).min() == 0:
            raise InputFormatError("every distinct value needs at least one observation")
        if self.representatives is not None:
            reps = np.asarray(self.representatives)
            if reps.shape[0] != self.n_values:
                raise InputFormatError("representatives must have one row per distinct value")
            object.__setattr__(self, "representatives", _frozen(reps))
        if self.kind is not None and self.kind not in KINDS:
            raise InputFormatError(f"unknown payload kind {self.kind!r}")
        object.__setattr__(self, "labels", _frozen(labels))
        object.__setattr__(self, "value_index", _frozen(index))

    @cached_property
    def counts1(self) -> np.ndarray:
        """Per-value sample-1 counts."""
        out = np.bincount(self.value_index[self.labels == 1], minlength=self.n_values)
        return _frozen(out)

    @cached_property
    def counts2(self) -> np.ndarray:
        out = np.bincount(self.value_index[self.labels == 2], minlength=self.n_values)
        return _frozen(out)

    @cached_property
    def multiplicity(self) -> np.ndarray:
        """Per-value observation counts (always >= 1)."""
        return _frozen(self.counts1 + self.counts2)

    @property
    def n1(self) -> int:
        return int(self.counts1.sum())

    @property
    def n2(self) -> int:
        return int(self.counts2.sum())

    @property
    def n_total(self) -> int:
        return self.labels.size

    @property
    def n_repeated_values(self) -> int:
        """Number of distinct values observed more than once."""
        return int((self.multiplicity > 1).sum())


def _canonical_payloads(payloads, kind: str) -> np.ndarray:
    """Validate payload shapes for ``kind`` and return a canonical array."""
    if kind not in KINDS:
        raise InputFormatError(f"unknown payload kind {kind!r}")
    arr = np.asarray(payloads)
    if arr.dtype == object:
        raise InputFormatError("payloads must have homogeneous shape")
    if arr.size == 0:
        raise InputFormatError("empty observation list")
    if arr.dtype.kind == "f" and arr.ndim >= 1:
        bad = np.nonzero(~np.isfinite(arr))[0]
        if bad.size:
            raise InputFormatError(f"observation {int(bad[0])} has a NaN or infinite coordinate")
    if kind == "vector":
        if arr.ndim != 2:
            raise InputFormatError("vector payloads must form an (N, d) array")
        # Adding +0.0 turns -0.0 into +0.0, so the byte-equality dedup sees
        # one zero and the metric never meets two values at distance 0.
        return arr.astype(np.float64) + 0.0
    if kind == "ranking":
        if arr.ndim != 2:
            raise InputFormatError("ranking payloads must form an (N, n_obj) array")
        # Validated before the integer cast, so 1.5 is rejected, not truncated.
        bad = np.nonzero((np.sort(arr, axis=1) != np.arange(1, arr.shape[1] + 1)).any(axis=1))[0]
        if bad.size:
            raise InputFormatError(
                f"observation {int(bad[0])} is not a permutation of 1..{arr.shape[1]}"
            )
        return arr.astype(np.int64)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise InputFormatError("network payloads must form an (N, n, n) array")
    bad = np.nonzero(~np.isin(arr, (0, 1)).reshape(arr.shape[0], -1).all(axis=1))[0]
    if bad.size:
        raise InputFormatError(f"observation {int(bad[0])} is not a binary adjacency matrix")
    return arr.astype(np.int64)


def deduplicate(payloads, labels, kind: str = "vector") -> DistinctTable:
    """Collapse exactly-equal payloads into a distinct-value table.

    Equality is exact byte equality of the canonical payload encoding; no
    epsilon-merging. Distinct values are numbered in first-appearance order
    so every downstream output is deterministic.
    """
    arr = _canonical_payloads(payloads, kind)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (arr.shape[0],):
        raise InputFormatError("need exactly one sample label per observation")
    seen: dict[bytes, int] = {}
    value_index = np.empty(arr.shape[0], dtype=np.int64)
    rep_rows = []
    for i in range(arr.shape[0]):
        key = np.ascontiguousarray(arr[i]).tobytes()
        u = seen.get(key)
        if u is None:
            u = len(seen)
            seen[key] = u
            rep_rows.append(arr[i])
        value_index[i] = u
    return DistinctTable(
        labels=labels,
        value_index=value_index,
        n_values=len(seen),
        representatives=np.stack(rep_rows),
        kind=kind,
    )


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric nonnegative distances between the K distinct values.

    Off-diagonal entries must exceed ``tie_tolerance``: distinct values are
    required to be separated, otherwise the deduplication and the metric
    disagree about what "distinct" means. Integer metrics are stored as
    integers so tie detection stays exact; ``tie_tolerance`` is an opt-in
    for real-valued metrics, with ties decided by |d - d'| <= tolerance.
    """

    values: np.ndarray
    tie_tolerance: float = 0.0

    def __post_init__(self) -> None:
        arr = np.asarray(self.values)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise InputFormatError("distance matrix must be square and nonempty")
        if self.tie_tolerance < 0:
            raise InputFormatError("tie_tolerance must be nonnegative")
        if not np.issubdtype(arr.dtype, np.integer):
            arr = arr.astype(np.float64)
            if not np.isfinite(arr).all():
                raise InputFormatError("distances must be finite")
        if (np.diag(arr) != 0).any():
            raise InputFormatError("distance matrix diagonal must be zero")
        if not (arr == arr.T).all():
            raise InputFormatError("distance matrix must be symmetric")
        if arr.min() < 0:
            raise InputFormatError("distances must be nonnegative")
        # the K diagonal zeros are <= tie_tolerance; any further hit is off-diagonal
        if (arr <= self.tie_tolerance).sum() > arr.shape[0]:
            raise InputFormatError(
                "distinct values at distance <= tie_tolerance; "
                "deduplication and metric disagree"
            )
        object.__setattr__(self, "values", _frozen(arr))

    @property
    def n_values(self) -> int:
        return self.values.shape[0]


def pairwise_distances(
    table: DistinctTable, metric: str | None = None, tie_tolerance: float = 0.0
) -> DistanceMatrix:
    """All pairwise distances between the table's distinct representatives.

    ``metric`` defaults by payload kind: euclidean for vectors, squared
    Frobenius (entry-mismatch count) for networks, Spearman rank distance
    for rankings; footrule and Kendall are opt-in alternatives. Each is one
    ``pdist`` pass in SciPy's C loops, which adds each pair's own coordinate
    terms in coordinate order with no matrix product: equal gaps give
    bit-equal distances, so ties survive, and the matrix is exactly
    symmetric. Kendall is the cityblock distance between the halved signs
    of each value's coordinate pairs: the discordant pairs of two rankings
    (a pair tied in one payload only adds one half, and sums round down).
    """
    if table.representatives is None:
        raise InputFormatError("table has no representatives; distances must be supplied")
    if metric is None:
        if table.kind is None:
            raise InputFormatError("metric required when payload kind is unknown")
        metric = _DEFAULT_METRIC[table.kind]
    if metric not in _PDIST_METRIC:
        raise InputFormatError(f"unknown metric {metric!r}")
    flat = np.asarray(table.representatives, dtype=np.float64).reshape(table.n_values, -1)
    if metric == "kendall":
        first, second = np.triu_indices(flat.shape[1], k=1)
        flat = np.sign(flat[:, first] - flat[:, second]) / 2
    values = squareform(pdist(flat, _PDIST_METRIC[metric]))
    if metric != "euclidean":
        values = values.astype(np.int64)
    return DistanceMatrix(values=values, tie_tolerance=tie_tolerance)


def expand_to_observations(dist: DistanceMatrix, value_index: np.ndarray) -> np.ndarray:
    """Observation-level distance matrix implied by distinct-value distances.

    Repeats sit at distance zero, so the result is NOT a valid
    DistanceMatrix; it exists to feed observation-level graph builders.
    """
    idx = np.asarray(value_index, dtype=np.int64)
    return np.asarray(dist.values)[np.ix_(idx, idx)]


# --- file formats ---------------------------------------------------------
#
# All observation files are CSV with the sample label (1 or 2) in the first
# column. Vectors and rankings follow with one coordinate per column.
# Networks start with a header line "nodes=<n>" and each row carries a
# row-major flattened 0/1 adjacency matrix. Blank lines and lines starting
# with "#" are ignored.


def _data_lines(path) -> list[tuple[int, list[str]]]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            out.append((lineno, [c.strip() for c in line.split(",")]))
    if not out:
        raise InputFormatError(f"{path}: no data lines")
    return out


def _parse_row(path, lineno: int, cells: list[str], expect: int | None):
    if expect is not None and len(cells) != expect:
        raise InputFormatError(
            f"{path}:{lineno}: expected {expect} comma-separated fields, got {len(cells)}"
        )
    try:
        row = [float(c) for c in cells]
    except ValueError:
        raise InputFormatError(f"{path}:{lineno}: non-numeric field") from None
    if not all(math.isfinite(x) for x in row):
        raise InputFormatError(f"{path}:{lineno}: NaN or infinite field")
    return row


def read_observations(path, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Read an observation file, returning (payloads, labels)."""
    if kind not in KINDS:
        raise InputFormatError(f"unknown payload kind {kind!r}")
    lines = _data_lines(path)
    n_nodes = None
    if kind == "network":
        lineno, cells = lines[0]
        header = cells[0]
        if len(cells) != 1 or not header.startswith("nodes="):
            raise InputFormatError(f"{path}:{lineno}: expected header 'nodes=<n>'")
        try:
            n_nodes = int(header.split("=", 1)[1])
        except ValueError:
            raise InputFormatError(f"{path}:{lineno}: malformed node count") from None
        if n_nodes <= 0:
            raise InputFormatError(f"{path}:{lineno}: node count must be positive")
        lines = lines[1:]
        if not lines:
            raise InputFormatError(f"{path}: header but no observations")
    width = len(lines[0][1])
    labels, rows = [], []
    for lineno, cells in lines:
        row = _parse_row(path, lineno, cells, width)
        label = row[0]
        if label not in (1.0, 2.0):
            raise InputFormatError(f"{path}:{lineno}: sample label must be 1 or 2")
        if kind == "ranking" and sorted(row[1:]) != list(range(1, width)):
            raise InputFormatError(
                f"{path}:{lineno}: ranking is not a permutation of 1..{width - 1}"
            )
        labels.append(int(label))
        rows.append(row[1:])
    payloads = np.asarray(rows, dtype=np.float64)
    if kind == "network":
        if payloads.shape[1] != n_nodes * n_nodes:
            raise InputFormatError(
                f"{path}: rows carry {payloads.shape[1]} entries, "
                f"need {n_nodes}*{n_nodes} for nodes={n_nodes}"
            )
        payloads = payloads.reshape(-1, n_nodes, n_nodes)
    if kind == "ranking":
        payloads = payloads.astype(np.int64)
    return payloads, np.asarray(labels, dtype=np.int64)


def write_observations(path, payloads, labels, kind: str) -> None:
    arr = _canonical_payloads(payloads, kind)
    labels = np.asarray(labels, dtype=np.int64)
    with open(path, "w", encoding="utf-8") as fh:
        if kind == "network":
            fh.write(f"nodes={arr.shape[1]}\n")
        for lab, payload in zip(labels, arr):
            flat = np.asarray(payload).ravel()
            if kind == "vector":
                cells = [repr(float(x)) for x in flat]
            else:
                cells = [str(int(x)) for x in flat]
            fh.write(",".join([str(int(lab))] + cells) + "\n")


def load_table(path, kind: str) -> DistinctTable:
    """Read an observation file and deduplicate it in one step."""
    payloads, labels = read_observations(path, kind)
    return deduplicate(payloads, labels, kind)


def read_distance_input(matrix_path, assignments_path) -> tuple[DistanceMatrix, DistinctTable]:
    """Read pre-deduplicated input: a K x K distance CSV plus a sidecar.

    The sidecar has one row per observation: ``label,value`` with the
    1-based distinct-value index.
    """
    rows = []
    lines = _data_lines(matrix_path)
    width = len(lines[0][1])
    for lineno, cells in lines:
        rows.append(_parse_row(matrix_path, lineno, cells, width))
    values = np.asarray(rows, dtype=np.float64)
    if values.shape[0] != values.shape[1]:
        raise InputFormatError(f"{matrix_path}: distance matrix must be square")
    if (np.rint(values) == values).all():
        values = values.astype(np.int64)

    labels, index = [], []
    for lineno, cells in _data_lines(assignments_path):
        row = _parse_row(assignments_path, lineno, cells, 2)
        if row[0] not in (1.0, 2.0):
            raise InputFormatError(f"{assignments_path}:{lineno}: sample label must be 1 or 2")
        if row[1] != int(row[1]) or not 1 <= row[1] <= values.shape[0]:
            raise InputFormatError(
                f"{assignments_path}:{lineno}: value index must be in 1..{values.shape[0]}"
            )
        labels.append(int(row[0]))
        index.append(int(row[1]) - 1)
    table = DistinctTable(
        labels=np.asarray(labels), value_index=np.asarray(index), n_values=values.shape[0]
    )
    return DistanceMatrix(values=values), table


def write_distance_input(matrix_path, assignments_path, dist: DistanceMatrix, table: DistinctTable) -> None:
    values = np.asarray(dist.values)
    as_int = np.issubdtype(values.dtype, np.integer)
    with open(matrix_path, "w", encoding="utf-8") as fh:
        for row in values:
            fh.write(",".join(str(int(x)) if as_int else repr(float(x)) for x in row) + "\n")
    with open(assignments_path, "w", encoding="utf-8") as fh:
        for lab, idx in zip(table.labels, table.value_index):
            fh.write(f"{int(lab)},{int(idx) + 1}\n")
