"""Span tracing from outside the program.

``Tracer`` records one span (name, start, end, parent) per wrapped call in
flat arrays, so a million spans cost tens of megabytes, and aggregates them
only when asked. ``instrument`` wraps the program's layer functions where
their callers look them up: a function imported by name into another module
is replaced in that module too, and methods are replaced on their class.
Nothing in the program is edited; leaving the ``with`` block restores every
original.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn, name: str, on_result=None):
        """``fn`` inside a span; ``on_result(counts, args, kwargs, result)``
        records counts from a call that returned."""

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if on_result is not None:
                on_result(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, fn, counter: str):
        """``fn`` with a call counter and no span, for calls too small and
        frequent to time one by one."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def totals(self) -> dict[str, dict[str, float]]:
        """name -> {"calls", "total_s", "self_s"}. Self time is a span's
        duration minus the durations of its direct children."""
        n = len(self.start)
        if n == 0:
            return {}
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parents >= 0
        children = np.bincount(parents[has_parent], weights=duration[has_parent], minlength=n)
        own = duration - children
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=duration, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }


# -- what to wrap ---------------------------------------------------------------


def _count_len(counter: str):
    def hook(counts, _args, _kwargs, result):
        counts[counter] += len(result)

    return hook


def _gmm_fit(counts, _args, _kwargs, result):
    model, _assignment = result
    counts["gmm.fits"] += 1
    counts["gmm.em_iterations"] += len(model.iteration_trace)


def _fuzzy_merge(counts, _args, _kwargs, result):
    counts["align.fuzzy_merge.calls"] += 1
    counts["align.merges"] += result is not None


def _extract_tree(counts, _args, _kwargs, result):
    raw, reports, _failed = result
    counts["extract.accepted"] += len(raw)
    counts["extract.rows"] += sum(len(r.accepted) + r.rejected for r in reports)


def _bfs(counts, _args, _kwargs, result):
    counts["topology.bfs.calls"] += 1
    counts["topology.bfs.visited"] += len(result)


def _sample_hard_negative(counts, _args, _kwargs, _result):
    counts["chains.completed"] += 1


def _synthesize_dataset(counts, args, kwargs, result):
    items, _discards = result
    chains = args[0] if args else kwargs["chains"]
    counts["synthesis.items"] += len(items)
    counts["synthesis.chains"] += len(chains)


def _snapshot_size(counts, _args, _kwargs, path):
    counts["jsonl.write.bytes"] += os.path.getsize(path)


def _digest_size(counts, args, _kwargs, _result):
    counts["manifest.digest.bytes"] += os.path.getsize(args[0])


def _append_size(counts, args, _kwargs, _result):
    record = args[1]
    line = json.dumps(record, sort_keys=True, ensure_ascii=False, separators=(",", ":")) + "\n"
    counts["jsonl.write.bytes"] += len(line.encode("utf-8"))


def _embed_texts(counts, args, _kwargs, _result):
    counts["providers.embed.texts"] += len(args[1])


def _call(counter: str):
    def hook(counts, _args, _kwargs, _result):
        counts[counter] += 1

    return hook


# (module, attribute, span name, hook); "Class.method" attributes patch the class.
SPANS = [
    ("hopbench.tree", "build_summary_tree", "tree.build", None),
    ("hopbench.gmm", "search_cluster_count", "gmm.search", None),
    ("hopbench.gmm", "soft_assign", "gmm.soft_assign", None),
    ("hopbench.gmm", "fit_gmm_em", "gmm.fit", _gmm_fit),
    ("hopbench.projection", "reduce_dimensions", "projection.reduce", None),
    ("hopbench.projection", "distance_rank_correlation", "projection.rank_correlation", None),
    ("hopbench.extract", "extract_tree", "extract.tree", _extract_tree),
    ("hopbench.extract", "extract_triplets", "extract.triplets", None),
    ("hopbench.align", "fuzzy_merge", "align.fuzzy_merge", _fuzzy_merge),
    ("hopbench.kg", "assemble_graph", "kg.assemble", None),
    ("hopbench.kg", "apply_frequencies", "kg.apply_frequencies", None),
    ("hopbench.kg", "shatter", "kg.shatter", None),
    ("hopbench.kg", "KnowledgeGraph.undirected_neighbors", "kg.neighbors", _call("kg.neighbors.calls")),
    ("hopbench.kg", "KnowledgeGraph.out_edges", "kg.out_edges", None),
    ("hopbench.kg", "KnowledgeGraph.copy", "kg.copy", None),
    ("hopbench.topology", "bfs_hops", "topology.bfs", _bfs),
    ("hopbench.topology", "connected_components", "topology.components", None),
    ("hopbench.topology", "topology_report", "topology.report", None),
    ("hopbench.topology", "shatter_sweep", "topology.sweep", None),
    ("hopbench.chains", "mine_chains", "chains.mine", _count_len("chains.mined")),
    ("hopbench.chains", "sample_hard_negative", "chains.sample_hard_negative", _sample_hard_negative),
    ("hopbench.synthesis", "synthesize_dataset", "synthesis.dataset", _synthesize_dataset),
    ("hopbench.synthesis", "select_fillers", "synthesis.fillers", _call("synthesis.fillers.calls")),
    ("hopbench.rag", "build_rag_context", "rag.context", _call("rag.contexts")),
    ("hopbench.rag", "CorpusIndex.__init__", "rag.index", None),
    ("hopbench.rag", "CorpusIndex.rank", "rag.rank", None),
    ("hopbench.evaluation", "evaluate_dataset", "evaluation.evaluate", _count_len("evaluation.outcomes")),
    ("hopbench.evaluation", "behavioral_report", "evaluation.report", None),
    ("hopbench.adjudicate", "adjudicate_quality", "adjudicate.quality", None),
    ("hopbench.textstats", "compute_overlap_stats", "textstats.overlap", None),
    ("hopbench.providers", "ChatService.complete", "providers.chat", _call("providers.chat.calls")),
    ("hopbench.providers", "EmbeddingService.embed_texts", "providers.embed", _embed_texts),
    ("hopbench.jsonl", "load", "jsonl.load", _count_len("jsonl.load.records")),
    ("hopbench.jsonl", "snapshot", "jsonl.write", _snapshot_size),
    ("hopbench.jsonl", "IncrementalWriter.append", "jsonl.write", _append_size),
    ("hopbench.manifest", "file_digest", "manifest.digest", _digest_size),
]
# Called tens of thousands of times per fuzzy merge; counted, not timed.
COUNTED = [("hopbench.align", "damerau_levenshtein", "align.osa.calls")]


def _replace(target, attr: str, new, undo: list) -> None:
    undo.append((target, attr, getattr(target, attr)))
    setattr(target, attr, new)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every layer function in SPANS and COUNTED for the ``with`` body."""
    importlib.import_module("hopbench.pipeline")
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("hopbench.") and m]
    undo: list = []
    try:
        entries = [(m, a, tracer.wrap, (s, h)) for m, a, s, h in SPANS]
        entries += [(m, a, tracer.counted, (c,)) for m, a, c in COUNTED]
        for module_name, attr, make, extra in entries:
            module = importlib.import_module(module_name)
            if "." in attr:
                class_name, method = attr.split(".")
                cls = getattr(module, class_name)
                _replace(cls, method, make(cls.__dict__[method], *extra), undo)
                continue
            original = getattr(module, attr)
            wrapped = make(original, *extra)
            for holder in modules:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        _replace(holder, name, wrapped, undo)
        yield tracer
    finally:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)


# -- per-layer metrics -------------------------------------------------------------

STAGES = (
    "ingest", "chunk", "tree", "extract", "shatter", "shatter_sweep",
    "mine", "synthesize", "adjudicate", "stats", "evaluate", "report",
)
# Layers whose summed self time is reported as `<module>.s`; tree's as `tree.self_s`.
SELF_TIME = (
    "gmm", "projection", "align", "extract", "kg", "topology", "chains",
    "synthesis", "rag", "evaluation", "adjudicate", "textstats",
)
# `<span>.s` metrics: the whole time inside the named span, children included.
SPAN_TIME = (
    "topology.bfs", "topology.report", "synthesis.fillers", "rag.rank",
    "providers.chat", "providers.embed", "jsonl.load", "jsonl.write", "manifest.digest",
)
COUNTS = (
    "gmm.fits", "gmm.em_iterations", "align.fuzzy_merge.calls", "align.osa.calls",
    "align.merges", "kg.neighbors.calls", "topology.bfs.calls", "topology.bfs.visited",
    "synthesis.fillers.calls", "rag.contexts", "evaluation.outcomes", "providers.chat.calls",
    "providers.embed.texts", "jsonl.load.records", "manifest.digest.bytes",
)
RATIOS = {  # name: (numerator count, denominator count)
    "extract.accepted_per_row": ("extract.accepted", "extract.rows"),
    "chains.completed_per_mined": ("chains.completed", "chains.mined"),
    "synthesis.items_per_chain": ("synthesis.items", "synthesis.chains"),
}


def layer_metrics(tracer: Tracer, traced_work_s: float) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) for one traced round."""
    totals = tracer.totals()
    counts = tracer.counts

    def total(span: str) -> float:
        return totals.get(span, {}).get("total_s", 0.0)

    def self_time(module: str) -> float:
        return sum(t["self_s"] for name, t in totals.items() if name.startswith(module + "."))

    metrics: dict[str, tuple[float, str]] = {}
    stage_s = 0.0
    for stage in STAGES:
        value = total(f"pipeline.{stage}")
        stage_s += value
        metrics[f"pipeline.{stage}.s"] = (value, "s")
    metrics["tree.self_s"] = (self_time("tree"), "s")
    for module in SELF_TIME:
        metrics[f"{module}.s"] = (self_time(module), "s")
    for span in SPAN_TIME:
        metrics[f"{span}.s"] = (total(span), "s")
    for name in COUNTS:
        metrics[name] = (counts[name], "bytes" if name.endswith(".bytes") else "count")
    metrics["jsonl.write.bytes"] = (counts["jsonl.write.bytes"], "bytes")
    for name, (numerator, denominator) in RATIOS.items():
        metrics[name] = (counts[numerator] / counts[denominator] if counts[denominator] else 0.0, "ratio")
    metrics["trace.spans"] = (len(tracer.start), "count")
    metrics["trace.stage_coverage"] = (stage_s / traced_work_s if traced_work_s else 0.0, "ratio")
    return metrics
