"""Reference computations the benchmark checks edgecount's outputs against.

Nothing in this module imports edgecount. Each quantity is computed by a
route of its own:

- distinct values by first appearance, with integer distances (squared
  rank or coordinate differences, or entry mismatches), so ties are exact;
- the k-NNL tie level by tie level from the cycle property: a pair joins a
  round when no strictly lighter admissible path links its endpoints, with
  components merged per level by ``scipy.sparse.csgraph``;
- the union summary as quadratic forms on the explicit observation-level
  union graph, and the average summary as the same forms on the graph of
  family edge probabilities (2/m inside a value, 1/(m_u m_v) across a C0
  edge), which is the family expectation by linearity;
- null moments from the fixed-graph pair-counting formulas, in exact
  rational arithmetic, from each graph's own (weighted) degrees;
- analytic p-values from ``scipy.stats``, and permutation p-values from
  shuffling the N observation labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import sparse, stats
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree

# Tolerances, fixed before any comparison was made. Floating-point results
# of the program are compared with exact or differently-summed references:
# RTOL covers rounding in sums of up to ~1e6 terms, ATOL covers values that
# sit near zero (z-scores, p-values, small ratios).
RTOL = 1e-9
ATOL = 1e-9
# Two Monte Carlo p-value estimates must agree within this many standard
# errors of their difference.
MC_SIGMAS = 6.0
SUMMARIES = ("average", "union")


class CheckError(AssertionError):
    """A program output disagrees with the reference computation."""


def close(a: float, b: float, rtol: float = RTOL, atol: float = ATOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def expect_close(what: str, got: float, want: float, rtol: float = RTOL, atol: float = ATOL) -> None:
    if not close(float(got), float(want), rtol, atol):
        raise CheckError(f"{what}: program gives {got!r}, reference gives {want!r}")


def dedup(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(value_index, representatives), distinct rows numbered by first appearance."""
    flat = np.asarray(rows).reshape(len(rows), -1)
    uniq, first, inverse = np.unique(flat, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank[inverse.ravel()], uniq[order]


def distances(reps: np.ndarray, metric: str) -> np.ndarray:
    """Integer K x K distances whose order and ties equal the program's metric.

    ``squared``: sum of squared differences (Spearman for rankings; the
    square of the Euclidean distance for integer vectors, which has the
    same order and the same ties). ``mismatch``: number of differing
    entries (squared Frobenius for binary adjacency matrices).
    """
    x = np.asarray(reps).reshape(len(reps), -1).astype(np.int64)
    out = np.zeros((len(x), len(x)), dtype=np.int64)
    for j in range(x.shape[1]):
        diff = x[:, None, j] - x[None, :, j]
        out += diff != 0 if metric == "mismatch" else diff * diff
    return out


def knnl_edges(dist: np.ndarray, k: int) -> np.ndarray:
    """Edges (u < v) of the k-round nearest neighbor link, as an (E, 2) array.

    Round r keeps every admissible pair whose endpoints lie in different
    components of the strictly lighter admissible pairs, then excludes the
    kept pairs from later rounds.
    """
    n = dist.shape[0]
    iu, ju = np.triu_indices(n, 1)
    w = dist[iu, ju]
    order = np.argsort(w)
    iu, ju, w = iu[order], ju[order], w[order]
    levels = np.split(np.arange(w.size), np.flatnonzero(np.diff(w)) + 1)
    free = np.ones(w.size, dtype=bool)
    chosen = []
    for round_index in range(k):
        comp = np.arange(n)
        n_comp = n
        kept = []
        for level in levels:
            level = level[free[level]]
            if not level.size:
                continue
            a, b = comp[iu[level]], comp[ju[level]]
            cross = a != b
            kept.append(level[cross])
            links = sparse.coo_matrix(
                (np.ones(int(cross.sum())), (a[cross], b[cross])), shape=(n_comp, n_comp)
            )
            n_comp, relabel = connected_components(links, directed=False)
            comp = relabel[comp]
            if n_comp == 1:
                break
        kept = np.concatenate(kept) if kept else np.empty(0, dtype=np.int64)
        if not kept.size:
            raise ValueError(f"round {round_index + 1} has no admissible pair")
        free[kept] = False
        chosen.append(kept)
    sel = np.sort(np.concatenate(chosen))
    return np.column_stack([iu[sel], ju[sel]])


def holds_minimum_spanning_tree(dist: np.ndarray, edges) -> bool:
    """True when the graph ``edges`` contains a spanning tree of ``dist`` as
    light as a minimum spanning tree of the complete graph."""
    shifted = dist.astype(np.float64) + 1.0  # a zero distance would read as no pair
    np.fill_diagonal(shifted, 0.0)
    edges = np.asarray(edges).reshape(-1, 2)
    sub = sparse.coo_matrix((shifted[edges[:, 0], edges[:, 1]], (edges[:, 0], edges[:, 1])), shape=dist.shape)
    tree = minimum_spanning_tree(sub)
    return tree.nnz == dist.shape[0] - 1 and tree.sum() == minimum_spanning_tree(shifted).sum()


def pvalue_analytic(kind: str, value: float, kappa: float | None = None) -> float:
    """Asymptotic permutation-null p-value, recomputed with scipy.stats."""
    norm = stats.norm
    if kind == "edge":
        return float(norm.cdf(value))
    if kind == "weighted":
        return float(norm.sf(value))
    if kind == "difference":
        return float(2.0 * norm.sf(abs(value)))
    if kind == "generalized":
        return float(stats.chi2.sf(value, 2))
    if value <= 0:
        return 1.0
    return float(1.0 - norm.cdf(value / kappa) * (2.0 * norm.cdf(value) - 1.0))


def fixed_graph_moments(size, sum_sq_weights, sum_sq_degrees, n1: int, n2: int) -> dict:
    """Exact null (mean, variance) of the counts on a fixed weighted graph.

    R1 = sum of w_ij over pairs with both ends in sample 1 (R2 likewise).
    With S = sum w, Q = sum w^2 and D = sum of squared weighted degrees,
    ordered pairs of distinct edges sharing one node weigh D - 2Q in total
    and disjoint pairs S^2 - D + Q; an edge set of 2, 3 or 4 observations
    lies inside sample 1 with the falling-factorial probabilities below.
    Arguments may be ints or Fractions; results are Fractions.
    """
    n = n1 + n2
    size, q, d = Fraction(size), Fraction(sum_sq_weights), Fraction(sum_sq_degrees)

    def inside(a: int, r: int) -> Fraction:
        return Fraction(math.perm(a, r), math.perm(n, r))

    shared = d - 2 * q
    disjoint = size * size - d + q
    mean1, mean2 = inside(n1, 2) * size, inside(n2, 2) * size
    var1 = inside(n1, 2) * q + inside(n1, 3) * shared + inside(n1, 4) * disjoint - mean1**2
    var2 = inside(n2, 2) * q + inside(n2, 3) * shared + inside(n2, 4) * disjoint - mean2**2
    both = Fraction(n1 * (n1 - 1) * n2 * (n2 - 1), math.perm(n, 4))
    cov = both * disjoint - mean1 * mean2
    p = Fraction(n1 - 1, n - 2)  # weight on within2 in the weighted statistic
    return {
        "total": (size, Fraction(0)),
        "within1": (mean1, var1),
        "within2": (mean2, var2),
        "between": (size - mean1 - mean2, var1 + var2 + 2 * cov),
        "weighted": ((1 - p) * mean1 + p * mean2, (1 - p) ** 2 * var1 + p * p * var2 + 2 * p * (1 - p) * cov),
        "difference": (mean1 - mean2, var1 + var2 - 2 * cov),
    }


def _grouped(*columns) -> list[tuple[tuple[int, ...], int]]:
    """Distinct rows of the stacked integer columns, with their counts."""
    rows, counts = np.unique(np.column_stack(columns), axis=0, return_counts=True)
    return [(tuple(int(x) for x in row), int(c)) for row, c in zip(rows, counts)]


def family_size(m: np.ndarray, edges: np.ndarray) -> int:
    """Graphs in the induced family: m_u*m_v pair choices per C0 edge times
    m_u**(m_u-2) spanning trees per value (Cayley)."""
    total = 1
    for (a, b), count in _grouped(m[edges[:, 0]], m[edges[:, 1]]):
        total *= (a * b) ** count
    for (mu,), count in _grouped(m):
        total *= mu ** (max(mu - 2, 0) * count)
    return total


def _edges_reaching_neighbours(adj: sparse.csr_matrix) -> np.ndarray:
    """Per node u: edges with at least one endpoint adjacent to u."""
    deg = np.asarray(adj.sum(axis=1)).ravel()
    inside = np.asarray((adj @ adj).multiply(adj).sum(axis=1)).ravel() // 2
    return adj @ deg - inside


@dataclass
class Instance:
    """One two-sample input: payload rows, labels (1 or 2) and the metric."""

    rows: np.ndarray
    labels: np.ndarray
    metric: str
    k: int = 3


class Reference:
    """Everything the benchmark recomputes for one labeled graph on distinct values.

    ``value_index[i]`` is the distinct value of observation i and ``edges``
    the (u, v) pairs of the graph C0 on the distinct values.
    """

    def __init__(self, labels, value_index, edges, k: int | None = None, reps=None) -> None:
        self.labels = np.asarray(labels, dtype=np.int64)
        self.value_index = np.asarray(value_index, dtype=np.int64)
        self.edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self.k = k
        self.reps = reps
        self.n = self.labels.size
        self.n1 = int((self.labels == 1).sum())
        self.n2 = self.n - self.n1
        self.m = np.bincount(self.value_index)
        self.n_values = self.m.size
        members = sparse.csr_matrix(
            (np.ones(self.n), (np.arange(self.n), self.value_index)), shape=(self.n, self.n_values)
        )
        c0 = sparse.coo_matrix(
            (np.ones(len(self.edges)), (self.edges[:, 0], self.edges[:, 1])),
            shape=(self.n_values, self.n_values),
        )
        c0 = (c0 + c0.T).tocsr()
        self.c0 = c0.astype(np.int64)
        inv_m = 1.0 / self.m
        # Observation-level graphs: union (0/1) and family edge probabilities.
        self.union = self._observation_graph(members, c0 + sparse.identity(self.n_values)).astype(np.int64)
        probs = sparse.diags(2.0 * inv_m) + sparse.diags(inv_m) @ c0 @ sparse.diags(inv_m)
        self.average = self._observation_graph(members, probs)
        self._moments = None

    @classmethod
    def from_instance(cls, inst: Instance) -> "Reference":
        """Deduplicate, measure and build the reference k-NNL for ``inst``."""
        value_index, reps = dedup(inst.rows)
        edges = knnl_edges(distances(reps, inst.metric), inst.k)
        return cls(inst.labels, value_index, edges, inst.k, reps)

    def _observation_graph(self, members, value_graph) -> sparse.csr_matrix:
        graph = (members @ value_graph @ members.T).tocsr()
        graph.setdiag(0)
        graph.eliminate_zeros()
        return graph

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def union_size(self) -> int:
        return int(self.union.nnz // 2)

    def graph(self, name: str) -> sparse.csr_matrix:
        return self.average if name == "average" else self.union

    def counts(self, name: str, sample1: np.ndarray):
        """(within1, within2) for 0/1 indicator rows of sample 1 (B x N or N)."""
        graph = self.graph(name)
        x = np.atleast_2d(sample1).astype(np.float64)
        deg = np.asarray(graph.sum(axis=1)).ravel()
        gx = (graph @ x.T).T
        within1 = 0.5 * (x * gx).sum(axis=1)
        within2 = 0.5 * ((1.0 - x) * (deg - gx)).sum(axis=1)
        return within1, within2

    def moments(self) -> dict:
        """Exact null moments per summary, from each graph's own degrees."""
        if self._moments is None:
            udeg = np.asarray(self.union.sum(axis=1)).ravel().astype(np.int64)
            union = fixed_graph_moments(
                self.union_size, self.union_size, int((udeg * udeg).sum()), self.n1, self.n2
            )
            # Family-probability graph: 2/m on each of the C(m,2) pairs inside
            # a value, 1/(m_u m_v) on each of the m_u m_v pairs across an edge.
            m = self.m
            deg = np.asarray(self.c0.sum(axis=1)).ravel()
            size = int(m.sum()) - self.n_values + self.n_edges
            sq = sum(count * Fraction(2 * (mu - 1), mu) for (mu,), count in _grouped(m))
            sq += sum(count * Fraction(1, a * b) for (a, b), count in _grouped(m[self.edges[:, 0]], m[self.edges[:, 1]]))
            dsum = sum(count * Fraction((2 * mu - 2 + du) ** 2, mu) for (mu, du), count in _grouped(m, deg))
            average = fixed_graph_moments(size, sq, dsum, self.n1, self.n2)
            self._moments = {"average": average, "union": union}
        return self._moments

    def statistics(self, name: str, sample1: np.ndarray, kappas) -> dict:
        """Counts, z-scores, generalized and max-type statistics per row."""
        w1, w2 = self.counts(name, sample1)
        moms = self.moments()[name]
        p = (self.n1 - 1) / (self.n - 2)
        counts = {
            "within1": w1,
            "within2": w2,
            "between": float(moms["total"][0]) - w1 - w2,
            "weighted": (1.0 - p) * w1 + p * w2,
            "difference": w1 - w2,
        }
        z = {}
        for key, stat in (("edge", "between"), ("weighted", "weighted"), ("difference", "difference")):
            mean, var = moms[stat]
            z[key] = (counts[stat] - float(mean)) / math.sqrt(float(var))
        return {
            "counts": counts,
            "z": z,
            "generalized": z["weighted"] ** 2 + z["difference"] ** 2,
            "max": {kappa: np.maximum(kappa * z["weighted"], np.abs(z["difference"])) for kappa in kappas},
        }

    def observed(self, kappas) -> dict:
        x = (self.labels == 1).astype(np.float64)
        out = {}
        for name in SUMMARIES:
            st = self.statistics(name, x, kappas)
            out[name] = {
                "counts": {key: float(v[0]) for key, v in st["counts"].items()},
                "z": {key: float(v[0]) for key, v in st["z"].items()},
                "generalized": float(st["generalized"][0]),
                "max": {kappa: float(v[0]) for kappa, v in st["max"].items()},
            }
        return out

    def analytic_pvalues(self, kappas) -> dict:
        obs = self.observed(kappas)
        out = {}
        for name in SUMMARIES:
            o = obs[name]
            out[name] = {
                "edge": pvalue_analytic("edge", o["z"]["edge"]),
                "weighted": pvalue_analytic("weighted", o["z"]["weighted"]),
                "difference": pvalue_analytic("difference", o["z"]["difference"]),
                "generalized": pvalue_analytic("generalized", o["generalized"]),
                "max": {kappa: pvalue_analytic("max", v, kappa) for kappa, v in o["max"].items()},
            }
        return out

    def shuffle_pvalues(self, kappas, draws: int, seed: int) -> dict:
        """Add-one Monte Carlo p-values from ``draws`` shuffles of the N labels."""
        rng = np.random.default_rng(seed)
        x = (self.labels == 1).astype(np.float64)
        rows = np.vstack([x, rng.permuted(np.tile(x, (draws, 1)), axis=1)])
        out = {}
        for name in SUMMARIES:
            st = self.statistics(name, rows, kappas)
            z = st["z"]
            series = {
                "edge": -z["edge"],
                "weighted": z["weighted"],
                "difference": np.abs(z["difference"]),
                "generalized": st["generalized"],
            }
            series.update({("max", kappa): v for kappa, v in st["max"].items()})
            block = {"max": {}}
            for key, values in series.items():
                obs = values[0]
                hits = int((values[1:] >= obs - RTOL * max(1.0, abs(obs))).sum())
                p = (1 + hits) / (1 + draws)
                if isinstance(key, tuple):
                    block["max"][key[1]] = p
                else:
                    block[key] = p
            out[name] = block
        return out

    def diagnostics(self) -> dict:
        """The eight condition-diagnostic ratios, from sparse graph sums."""
        n = self.n
        wdeg = np.asarray(self.average.sum(axis=1)).ravel()
        udeg = np.asarray(self.union.sum(axis=1)).ravel().astype(np.float64)
        deg = np.asarray(self.c0.sum(axis=1)).ravel()
        third_avg = float((deg * _edges_reaching_neighbours(self.c0)).sum())
        third_union = float((udeg * _edges_reaching_neighbours(self.union)).sum())
        return {
            "graph_size_ratio": self.n_edges / n,
            "distinct_value_ratio": self.n_values / n,
            "inverse_multiplicity_ratio": float((1.0 / self.m).sum()) / n,
            "degree_variety_ratio": 0.25 * float(((wdeg - wdeg.mean()) ** 2).sum()) / n,
            "union_size_ratio": self.union_size / n,
            "union_variety_ratio": float(((udeg - udeg.mean()) ** 2).sum()) / n,
            "third_moment_ratio_average": third_avg / n**1.5,
            "third_moment_ratio_union": third_union / n**1.5,
        }


def mc_agree(p_prog: float, draws_prog: int, p_ref: float, draws_ref: int) -> bool:
    """True when two add-one Monte Carlo p-values agree within MC_SIGMAS."""
    pbar = (p_prog + p_ref) / 2.0
    # Floor the Bernoulli variance so p-values at the lattice ends still get
    # a band one draw wide.
    variance = max(pbar * (1.0 - pbar), 1.0 / min(draws_prog, draws_ref))
    sigma = math.sqrt(variance * (1.0 / draws_prog + 1.0 / draws_ref))
    return abs(p_prog - p_ref) <= MC_SIGMAS * sigma + 1.0 / draws_prog + 1.0 / draws_ref


def on_lattice(p: float, draws: int) -> bool:
    """True when p = (1 + h)/(1 + B) for an integer 0 <= h <= B."""
    hits = p * (1 + draws) - 1
    return abs(hits - round(hits)) < 1e-6 and 0 <= round(hits) <= draws
