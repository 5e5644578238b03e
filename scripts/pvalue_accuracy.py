#!/usr/bin/env python3
"""Compare analytic p-values against permutation p-values on ranking data.

For each sample-size setting, draws two Mallows ranking samples (spread 5
on the normalized distance scale; sample 2 centered on a ranking with two
objects swapped), runs the nearest-neighbor-link test, and records the
difference between every analytic p-value and its permutation estimate.
Writes one CSV row per run with the per-statistic differences, suitable
for boxplots.

Usage:
    python3 scripts/pvalue_accuracy.py --runs 100 --permutations 10000
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from edgecount.dataset import deduplicate, pairwise_distances
from edgecount.graphs import build_nnl
from edgecount.inference import analytic_pvalue_block, permutation_pvalues
from edgecount.simulate import MallowsModel
from edgecount.stats import StatisticKernel

CENTER_1 = (1, 2, 3, 4, 5)
CENTER_2 = (1, 4, 3, 2, 5)
KAPPAS = (1.31, 1.14, 1.0)
SETTINGS = ((50, 50), (100, 100), (100, 200), (200, 200))


def one_run(model1, model2, n1, n2, child, n_perm):
    rng = np.random.default_rng(child)
    payloads = np.vstack([model1.sample(n1, rng), model2.sample(n2, rng)])
    labels = np.r_[np.ones(n1, dtype=np.int64), np.full(n2, 2)]
    table = deduplicate(payloads, labels, kind="ranking")
    c0 = build_nnl(pairwise_distances(table, metric="spearman"))
    kernel = StatisticKernel(table, c0, kappas=KAPPAS)
    values = kernel.evaluate_one()
    perm = permutation_pvalues(kernel, n_perm=n_perm, seed=int(rng.integers(2**63)))
    row = {}
    for name in ("average", "union"):
        ana = analytic_pvalue_block(values.summary(name))
        for key in ("edge", "weighted", "difference", "generalized"):
            row[f"{key}_{name}"] = ana[key] - perm[name][key]
        for kappa in KAPPAS:
            row[f"max({kappa:g})_{name}"] = ana["max"][kappa] - perm[name]["max"][kappa]
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", type=Path, default=Path("results/pvalue_accuracy.csv"))
    parser.add_argument("--runs", type=int, default=100)
    parser.add_argument("--permutations", type=int, default=10000)
    parser.add_argument("--theta", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=424242)
    args = parser.parse_args()

    model1 = MallowsModel(center=CENTER_1, theta=args.theta, normalize=True)
    model2 = MallowsModel(center=CENTER_2, theta=args.theta, normalize=True)

    args.output.parent.mkdir(parents=True, exist_ok=True)
    header = None
    lines = []
    for n1, n2 in SETTINGS:
        children = np.random.SeedSequence([args.seed, n1, n2]).spawn(args.runs)
        gaps = {}
        for child in children:
            row = one_run(model1, model2, n1, n2, child, args.permutations)
            if header is None:
                header = list(row)
                lines.append(",".join(["n1", "n2"] + header))
            lines.append(",".join([str(n1), str(n2)] + [f"{row[k]:.6f}" for k in header]))
            for k, v in row.items():
                gaps.setdefault(k, []).append(abs(v))
        worst = max(gaps, key=lambda k: float(np.median(gaps[k])))
        print(f"n=({n1},{n2}): worst median |analytic - permutation| is "
              f"{np.median(gaps[worst]):.4f} ({worst})")
    args.output.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
