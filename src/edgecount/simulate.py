"""Ranking-data generators and the power-study harness.

Two generating mechanisms: a location-scale family over rankings
(probability proportional to exp(-theta * d(ranking, center)), sampled by
exact enumeration of all n_obj! states) and uniform sampling over a
predicate-restricted subset of rankings. The harness runs the full
pipeline (sample, deduplicate, distances, graph, statistics, analytic
p-values) per replicate and reports rejection fractions.

Rankings are object lists: entry j is the object placed at position j+1,
so "begins with object 6" means the first entry equals 6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import permutations

import numpy as np

from .dataset import deduplicate, pairwise_distances
from .errors import DegenerateNullError, InputFormatError
from .graphs import build_kmst, build_knnl
from .inference import DEFAULT_KAPPAS, analytic_pvalue_block
from .stats import SUMMARIES, StatisticKernel, check_kappas

MAX_OBJECTS = 8


@lru_cache(maxsize=None)
def enumerate_rankings(n_obj: int) -> np.ndarray:
    """All n_obj! rankings as an (n_obj!, n_obj) array, lexicographic order."""
    if not 2 <= n_obj <= MAX_OBJECTS:
        raise InputFormatError(f"object count must be in 2..{MAX_OBJECTS}")
    arr = np.array(list(permutations(range(1, n_obj + 1))), dtype=np.int64)
    arr.setflags(write=False)
    return arr


def _distances_to_center(support: np.ndarray, center: np.ndarray, metric: str) -> np.ndarray:
    if metric == "spearman":
        return ((support - center) ** 2).sum(axis=1)
    if metric == "footrule":
        return np.abs(support - center).sum(axis=1)
    if metric == "kendall":
        ds = np.sign(support[:, :, None] - support[:, None, :])
        dc = np.sign(center[:, None] - center[None, :])
        return ((ds * dc == -1).sum(axis=(1, 2))) // 2
    raise InputFormatError(f"unknown ranking metric {metric!r}")


@dataclass(frozen=True)
class MallowsModel:
    """Exponential-decay ranking distribution around a center ranking.

    With ``normalize`` the distance is rescaled by its maximum over the
    support, so it lies in [0, 1] and ``theta`` means the same thing for
    every object count and metric.  Raw integer distances (the default)
    keep the probabilities exactly proportional to exp(-theta * d).
    """

    center: tuple[int, ...]
    theta: float
    metric: str = "spearman"
    normalize: bool = False

    def __post_init__(self) -> None:
        center = np.asarray(self.center, dtype=np.int64)
        if not (np.sort(center) == np.arange(1, center.size + 1)).all():
            raise InputFormatError("center must be a permutation of 1..n_obj")
        object.__setattr__(self, "center", tuple(int(x) for x in center))

    @property
    def n_obj(self) -> int:
        return len(self.center)

    @property
    def support(self) -> np.ndarray:
        return enumerate_rankings(self.n_obj)

    @property
    def probabilities(self) -> np.ndarray:
        support = self.support
        d = _distances_to_center(support, np.asarray(self.center), self.metric)
        d = d.astype(np.float64)
        if self.normalize:
            d /= d.max()
        weights = np.exp(-self.theta * d)
        probs = weights / weights.sum()
        assert abs(probs.sum() - 1.0) < 1e-12
        return probs

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        idx = rng.choice(self.support.shape[0], size=count, p=self.probabilities)
        return self.support[idx]


def _predicate_mask(support: np.ndarray, text: str) -> np.ndarray:
    """Vectorized ranking predicate over a support matrix.

    Terms joined by '&': not_first=OBJ, not_last=OBJ, before=A:B (object A
    placed ahead of object B), any_in_top=A,B,..:K (at least one listed
    object within the first K positions).
    """
    mask = np.ones(support.shape[0], dtype=bool)
    for term in text.split("&"):
        term = term.strip()
        if "=" not in term:
            raise InputFormatError(f"malformed predicate term {term!r}")
        name, arg = (s.strip() for s in term.split("=", 1))
        try:
            if name == "not_first":
                mask &= support[:, 0] != int(arg)
            elif name == "not_last":
                mask &= support[:, -1] != int(arg)
            elif name == "before":
                a, b = (int(s) for s in arg.split(":"))
                mask &= (support == a).argmax(axis=1) < (support == b).argmax(axis=1)
            elif name == "any_in_top":
                objs, top = arg.split(":")
                targets = [int(s) for s in objs.split(",")]
                mask &= np.isin(support[:, : int(top)], targets).any(axis=1)
            else:
                raise InputFormatError(f"unknown predicate {name!r}")
        except ValueError:
            raise InputFormatError(f"malformed predicate term {term!r}") from None
    return mask


@dataclass(frozen=True)
class RestrictedUniform:
    """Uniform distribution over a predicate-selected subset of rankings."""

    n_obj: int
    predicate: str

    @property
    def support(self) -> np.ndarray:
        support = enumerate_rankings(self.n_obj)
        mask = _predicate_mask(support, self.predicate)
        if not mask.any():
            raise InputFormatError(f"predicate {self.predicate!r} selects no ranking")
        return support[mask]

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        support = self.support
        return support[rng.integers(0, support.shape[0], size=count)]


def sample_mallows(model: MallowsModel, count: int, seed: int) -> np.ndarray:
    return model.sample(count, np.random.default_rng(seed))


def sample_restricted_uniform(n_obj: int, predicate: str, count: int, seed: int) -> np.ndarray:
    gen = RestrictedUniform(n_obj=n_obj, predicate=predicate)
    return gen.sample(count, np.random.default_rng(seed))


@dataclass(frozen=True)
class GeneratorSpec:
    """Config-file-friendly description of one sample's generator."""

    kind: str
    theta: float = 0.0
    center: tuple[int, ...] | None = None
    predicate: str | None = None
    n_obj: int | None = None
    metric: str = "spearman"
    normalize: bool = False

    def build(self):
        if self.kind == "mallows":
            if self.center is None:
                raise InputFormatError("a mallows generator needs a center")
            return MallowsModel(center=self.center, theta=self.theta, metric=self.metric,
                                normalize=self.normalize)
        if self.kind == "restricted":
            if self.predicate is None or self.n_obj is None:
                raise InputFormatError("a restricted generator needs n_obj and a predicate")
            return RestrictedUniform(n_obj=self.n_obj, predicate=self.predicate)
        raise InputFormatError(f"unknown generator kind {self.kind!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    generator1: GeneratorSpec
    generator2: GeneratorSpec
    n1: int
    n2: int
    metric: str = "spearman"
    graph_rule: str = "nnl"
    graph_k: int = 3
    alpha: float = 0.05
    replicates: int = 1000
    seed: int = 0
    kappas: tuple[float, ...] = DEFAULT_KAPPAS
    statistics: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise InputFormatError("replicates must be >= 1")
        if self.graph_rule not in ("nnl", "mst"):
            raise InputFormatError("graph_rule must be 'nnl' or 'mst'")
        if not 0.0 < self.alpha < 1.0:
            raise InputFormatError("alpha must be in (0, 1)")
        check_kappas(self.kappas)


def statistic_keys(kappas: tuple[float, ...]) -> list[str]:
    keys = []
    for name in SUMMARIES:
        keys.append(f"edge_{name}")
        keys.append(f"generalized_{name}")
        keys.append(f"weighted_{name}")
        keys.append(f"difference_{name}")
        for kappa in kappas:
            keys.append(f"max({kappa:g})_{name}")
    return keys


@dataclass(frozen=True)
class ScenarioResult:
    config: ScenarioConfig
    rejections: dict[str, int]

    @property
    def power(self) -> dict[str, float]:
        return {k: v / self.config.replicates for k, v in self.rejections.items()}

    @property
    def std_error(self) -> dict[str, float]:
        n = self.config.replicates
        return {
            k: math.sqrt(max(p * (1.0 - p), 1.0 / n) / n) for k, p in self.power.items()
        }

    def to_csv_text(self) -> str:
        keys = list(self.rejections)
        power = self.power
        se = self.std_error
        lines = [
            ",".join(["row"] + keys),
            ",".join(["power"] + [f"{power[k]:.4f}" for k in keys]),
            ",".join(["se"] + [f"{se[k]:.4f}" for k in keys]),
        ]
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        cfg = self.config
        return {
            "config": {
                "generator1": vars(cfg.generator1).copy(),
                "generator2": vars(cfg.generator2).copy(),
                "n1": cfg.n1,
                "n2": cfg.n2,
                "metric": cfg.metric,
                "graph_rule": cfg.graph_rule,
                "graph_k": cfg.graph_k,
                "alpha": cfg.alpha,
                "replicates": cfg.replicates,
                "seed": cfg.seed,
                "kappas": list(cfg.kappas),
            },
            "rejections": dict(self.rejections),
            "power": self.power,
            "std_error": self.std_error,
        }


def _replicate_pvalues(config: ScenarioConfig, rng: np.random.Generator, gen1, gen2) -> dict[str, float]:
    sample1 = gen1.sample(config.n1, rng)
    sample2 = gen2.sample(config.n2, rng)
    payloads = np.vstack([sample1, sample2])
    labels = np.concatenate([np.ones(config.n1, dtype=np.int64), np.full(config.n2, 2)])
    table = deduplicate(payloads, labels, kind="ranking")
    dist = pairwise_distances(table, metric=config.metric)
    if config.graph_rule == "nnl":
        graph = build_knnl(dist, config.graph_k)
    else:
        graph = build_kmst(dist, config.graph_k, seed=int(rng.integers(2**63)))
    values = StatisticKernel(table, graph, kappas=config.kappas).evaluate_one()
    out = {}
    for name in SUMMARIES:
        block = analytic_pvalue_block(values.summary(name))
        out[f"edge_{name}"] = block["edge"]
        out[f"generalized_{name}"] = block["generalized"]
        out[f"weighted_{name}"] = block["weighted"]
        out[f"difference_{name}"] = block["difference"]
        for kappa in config.kappas:
            out[f"max({kappa:g})_{name}"] = block["max"][kappa]
    return out


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Rejection fraction of every statistic over seeded replicates.

    Replicate r draws from the r-th child of the master seed, so results
    are reproducible and independent of how replicates are scheduled.
    """
    gen1 = config.generator1.build()
    gen2 = config.generator2.build()
    keys = statistic_keys(config.kappas)
    if config.statistics is not None:
        unknown = set(config.statistics) - set(keys)
        if unknown:
            raise InputFormatError(f"unknown statistics: {sorted(unknown)}")
        keys = [k for k in keys if k in set(config.statistics)]
    rejections = {k: 0 for k in keys}
    children = np.random.SeedSequence(config.seed).spawn(config.replicates)
    for r in range(config.replicates):
        try:
            pvals = _replicate_pvalues(config, np.random.default_rng(children[r]), gen1, gen2)
        except (ValueError, DegenerateNullError) as exc:
            # Same type, so the command line still exits with its documented code.
            raise type(exc)(f"replicate {r} failed: {exc}") from exc
        for key in keys:
            if pvals[key] <= config.alpha:
                rejections[key] += 1
    return ScenarioResult(config=config, rejections=rejections)


# --- built-in scenarios -----------------------------------------------------

_ID6 = (1, 2, 3, 4, 5, 6)
_SWAP6 = (1, 2, 5, 4, 3, 6)


def _mallows(theta: float, center: tuple[int, ...]) -> GeneratorSpec:
    # Spread parameters in the built-in scenarios are stated on the
    # normalized distance scale, where theta is unit-free.
    return GeneratorSpec(kind="mallows", theta=theta, center=center, normalize=True)


def _restricted(predicate: str) -> GeneratorSpec:
    return GeneratorSpec(kind="restricted", predicate=predicate, n_obj=6)


_BUILTINS: dict[str, tuple[GeneratorSpec, GeneratorSpec, tuple[int, int], tuple[int, int]]] = {
    "S1": (_mallows(5.0, _ID6), _mallows(5.0, _SWAP6), (100, 100), (100, 400)),
    "S2": (_mallows(5.5, _ID6), _mallows(4.0, _ID6), (300, 300), (300, 600)),
    "S3": (_mallows(4.0, _ID6), _mallows(5.5, _ID6), (300, 300), (300, 600)),
    "S4": (_mallows(5.5, _ID6), _mallows(4.0, _SWAP6), (100, 100), (100, 300)),
    "S5": (_mallows(4.0, _ID6), _mallows(5.5, _SWAP6), (100, 100), (100, 300)),
    "S6": (_restricted("not_first=6"), _restricted("not_last=1"), (150, 150), (150, 250)),
    "S7": (_restricted("before=1:5"), _restricted("before=1:6"), (150, 150), (150, 250)),
    "S8": (
        _restricted("not_first=6&not_last=1"),
        _restricted("any_in_top=1,2:3"),
        (150, 150),
        (150, 250),
    ),
}

BUILTIN_SCENARIOS = tuple(_BUILTINS)


def built_in_scenario(name: str, unbalanced: bool = False, **overrides) -> ScenarioConfig:
    """One of the eight named ranking scenarios, balanced or unbalanced."""
    if name not in _BUILTINS:
        raise InputFormatError(f"unknown scenario {name!r}; have {', '.join(_BUILTINS)}")
    gen1, gen2, balanced, unbal = _BUILTINS[name]
    n1, n2 = unbal if unbalanced else balanced
    config = ScenarioConfig(generator1=gen1, generator2=gen2, n1=n1, n2=n2)
    return replace(config, **overrides) if overrides else config


# --- flat key-value config files -------------------------------------------


def _parse_generator(fields: dict[str, str], suffix: str) -> GeneratorSpec:
    kind = fields.pop(f"generator{suffix}", None)
    if kind is None:
        raise InputFormatError(f"missing generator{suffix}")
    if kind == "mallows":
        center = fields.pop(f"center{suffix}", None)
        if center is None:
            raise InputFormatError(f"mallows generator{suffix} needs center{suffix}")
        normalize = fields.pop(f"normalize{suffix}", "false").strip().lower()
        if normalize not in ("true", "false"):
            raise InputFormatError(f"normalize{suffix} must be 'true' or 'false'")
        return GeneratorSpec(
            kind="mallows",
            theta=float(fields.pop(f"theta{suffix}", "0")),
            center=tuple(int(x) for x in center.split(",")),
            metric=fields.pop(f"model_metric{suffix}", "spearman"),
            normalize=normalize == "true",
        )
    if kind == "restricted":
        predicate = fields.pop(f"predicate{suffix}", None)
        n_obj = fields.pop(f"n_obj{suffix}", fields.get("n_obj"))
        if predicate is None or n_obj is None:
            raise InputFormatError(f"restricted generator{suffix} needs predicate and n_obj")
        return GeneratorSpec(kind="restricted", predicate=predicate, n_obj=int(n_obj))
    raise InputFormatError(f"unknown generator kind {kind!r}")


def parse_scenario_file(path) -> ScenarioConfig:
    """Read a flat ``key = value`` scenario config file."""
    fields: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InputFormatError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (s.strip() for s in line.split("=", 1))
            if key in fields:
                raise InputFormatError(f"{path}:{lineno}: duplicate key {key!r}")
            fields[key] = value
    try:
        gen1 = _parse_generator(fields, "1")
        gen2 = _parse_generator(fields, "2")
        fields.pop("n_obj", None)
        kwargs = {}
        for key, cast in (
            ("n1", int), ("n2", int), ("metric", str), ("graph_rule", str),
            ("graph_k", int), ("alpha", float), ("replicates", int), ("seed", int),
        ):
            if key in fields:
                kwargs[key] = cast(fields.pop(key))
        if "kappas" in fields:
            kwargs["kappas"] = tuple(float(x) for x in fields.pop("kappas").split(","))
        if "statistics" in fields:
            kwargs["statistics"] = tuple(s.strip() for s in fields.pop("statistics").split(","))
        if fields:
            raise InputFormatError(f"unknown config keys: {sorted(fields)}")
        if "n1" not in kwargs or "n2" not in kwargs:
            raise InputFormatError("config must set n1 and n2")
        return ScenarioConfig(generator1=gen1, generator2=gen2, **kwargs)
    except (ValueError, TypeError) as exc:
        raise InputFormatError(f"{path}: {exc}") from None
