"""Span tracing of edgecount's public functions, installed from outside.

``Tracer.install`` replaces each traced function or method, in every
edgecount module that holds a reference to it, by a wrapper that records
a span: name, start, end, parent span, the round it belongs to, and the
instance sizes it can read from its arguments and result. Spans stay in
memory until ``write``. ``Tracer.uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import threading
import time
import tracemalloc

# (per-layer metric, defining module, function or Class.method)
TRACED = (
    ("dataset.read_s", "edgecount.dataset", "read_observations"),
    ("dataset.dedup_s", "edgecount.dataset", "deduplicate"),
    ("dataset.distances_s", "edgecount.dataset", "pairwise_distances"),
    ("graphs.knnl_s", "edgecount.graphs", "build_knnl"),
    ("graphs.kmst_s", "edgecount.graphs", "build_kmst"),
    ("graphs.summary_s", "edgecount.graphs", "union_graph_summary"),
    ("graphs.summary_s", "edgecount.graphs", "count_graph_family"),
    ("stats.moments_s", "edgecount.stats", "moments"),
    ("stats.evaluate_s", "edgecount.stats", "evaluate_statistics"),
    ("stats.evaluate_s", "edgecount.stats", "pergraph_statistics"),
    ("inference.diagnostics_s", "edgecount.inference", "condition_diagnostics"),
    ("inference.perm_s", "edgecount.inference", "permutation_pvalues"),
    ("inference.report_s", "edgecount.inference", "TestReport.to_text"),
    ("inference.report_s", "edgecount.inference", "TestReport.to_json"),
    ("simulate.sample_s", "edgecount.simulate", "MallowsModel.sample"),
    ("simulate.sample_s", "edgecount.simulate", "RestrictedUniform.sample"),
    ("cli.self_s", "edgecount.cli", "main"),
)
PERM_METRIC = "inference.perm_s"


def _sizes(values) -> dict:
    """Instance sizes readable from a call's arguments and result."""
    out = {}
    for value in values:
        if hasattr(value, "n_total") and hasattr(value, "n_values"):
            out.update(N=int(value.n_total), K=int(value.n_values))
        elif hasattr(value, "n_nodes") and hasattr(value, "n_edges"):
            out.setdefault("nodes", int(value.n_nodes))
            out.setdefault("edges", int(value.n_edges))
        elif hasattr(value, "incident") and hasattr(value, "size"):
            out["union_size"] = int(value.size)
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.round = None
        self.origin = time.perf_counter()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()  # traced names this version of edgecount lacks

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str, metric: str | None = None, **attrs) -> int:
        stack = self._stack()
        self.spans.append({
            "name": name, "metric": metric, "round": self.round,
            "parent": stack[-1] if stack else None,
            "start": time.perf_counter() - self.origin, "end": None, "attrs": attrs,
        })
        stack.append(len(self.spans) - 1)
        return stack[-1]

    def close(self, index: int, **attrs) -> None:
        self._stack().pop()
        span = self.spans[index]
        span["end"] = time.perf_counter() - self.origin
        span["attrs"].update(attrs)

    def _wrap(self, metric: str, name: str, fn):
        tracer = self
        measure_memory = metric == PERM_METRIC
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name, metric, **_sizes(list(args) + list(kwargs.values())))
            extra = {}
            if measure_memory:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                draws = extra["draws"] = call.arguments.get("n_perm")
                extra["threads"] = call.arguments.get("threads")
                # The chunk size is private to edgecount; record chunks while it exists.
                chunk = getattr(sys.modules[fn.__module__], "_PERM_CHUNK", None)
                if draws and chunk:
                    extra["chunks"] = -(-draws // chunk)
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
                extra.update(_sizes([result]))
                return result
            finally:
                if measure_memory:
                    extra["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                tracer.close(index, **extra)

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "edgecount" or key.startswith("edgecount.")]
        for metric, module_name, attr in TRACED:
            owner = sys.modules[module_name]
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                original = getattr(cls, method, None) if cls is not None else None
                if original is None:
                    self.missing.add(f"{module_name}.{attr}")
                    continue
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(metric, attr, original))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.add(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(metric, attr, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        out = [s["end"] - s["start"] for s in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                out[span["parent"]] -= span["end"] - span["start"]
        return out

    def per_round(self) -> dict:
        """round -> {metric: summed self time} plus draws and peak memory."""
        rounds: dict = {}
        for span, own in zip(self.spans, self.self_times()):
            if span["round"] is None or span["metric"] is None:
                continue
            row = rounds.setdefault(span["round"], {"draws": 0, "peak_mb": 0.0})
            row[span["metric"]] = row.get(span["metric"], 0.0) + own
            if span["metric"] == PERM_METRIC:
                row["draws"] += span["attrs"].get("draws") or 0
                row["peak_mb"] = max(row["peak_mb"], span["attrs"].get("peak_mb", 0.0))
        return rounds

    def layer_metrics(self, rounds) -> dict:
        """Median over the traced rounds of every per-layer metric."""
        table = self.per_round()
        rows = [table.get(r, {"draws": 0, "peak_mb": 0.0}) for r in rounds]
        metrics = {}
        for metric in dict.fromkeys(m for m, _, _ in TRACED):
            metrics[metric] = (statistics.median(row.get(metric, 0.0) for row in rows), "s")
        rates = [row["draws"] / row[PERM_METRIC] if row.get(PERM_METRIC) else 0.0 for row in rows]
        metrics["inference.perm_draws_per_s"] = (statistics.median(rates), "1/s")
        metrics["inference.perm_peak_mb"] = (statistics.median(row["peak_mb"] for row in rows), "MB")
        return metrics

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing": sorted(self.missing), "spans": self.spans}, fh)
            fh.write("\n")
