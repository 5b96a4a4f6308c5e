"""Span recorder and outside-in instrumentation of the seqlpd modules.

The benchmark times each layer from outside: ``instrumented(tracer)``
replaces the public functions of the seqlpd modules with wrappers that
record a span per call, then puts the originals back.  Callers reach these
functions through module attributes, and some modules import them by name
(``seqlpd.cli`` imports ``load_kitti_bin`` and friends), so every module
attribute that refers to a target is replaced, not only the defining one.

A span is ``[id, name, start_ns, end_ns, parent_id, thread_id, counters]``.
Spans stay in memory until the run ends.  A span opened on a worker thread
with nothing open on that thread takes as parent the innermost span open on
the main thread (the pool's caller).  Self time is a span's duration minus
the durations of its children on the same thread.  Work counts are computed
from argument and result array sizes, not measured.
"""

import functools
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

STAGE = "stage."


class Tracer:
    """In-memory span recorder; spans are appended when opened and closed in place."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._stacks = {}
        self._main = threading.main_thread().ident

    def _open(self, name):
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1][0]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1][0] if tid != self._main and main else None
        rec = [next(self._ids), name, time.perf_counter_ns(), 0, parent, tid, None]
        self.spans.append(rec)
        stack.append(rec)
        return rec

    def _close(self, rec):
        rec[3] = time.perf_counter_ns()
        self._stacks[rec[5]].pop()

    @contextmanager
    def stage(self, name):
        """Span around one benchmark step (``stage.<name>``); module spans nest under it."""
        rec = self._open(STAGE + name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count is not None:
                rec[6] = count(fn, args, kwargs, result)
            return result

        return wrapper

    def write(self, path):
        """Write every recorded span as one JSON object per line."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent, tid, counters in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "thread": tid,
                                     "counters": counters}) + "\n")


def _arg(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _describe_dir(fn, args, kwargs, result):
    from seqlpd._accel import thread_count

    ids = [int(i) for i in result[0]]
    return {"dir": str(_arg(fn, args, kwargs, "input_dir")), "ids": ids,
            "workers": min(thread_count(), max(1, len(ids)))}


def _normalize(fn, args, kwargs, result):
    return {"frames": 1,
            "upsampled_frames": int(len(args[0]) < _arg(fn, args, kwargs, "n_sub"))}


def _trajectory_grid(fn, args, kwargs, result):
    m, offsets = args[0], args[1]
    cols, w = m.shape[1], offsets.shape[1]
    return {"cells_scanned": int(sum(max(0, cols - int(o.max())) * w for o in offsets))}


def _detect_loop(fn, args, kwargs, result):
    params = _arg(fn, args, kwargs, "params")
    second = result.second_best
    finite = second != float("inf")
    out = {"map_len": len(_arg(fn, args, kwargs, "pmap")), "accepted": int(result.accepted),
           "rejected_no_second": int(not finite),
           "rejected_ratio": int(finite and not result.accepted)}
    if finite and second > 0.0:
        out["ratio_margin"] = params.accept_ratio - result.score / second
    return out


def _skf_trees(skf):
    # the tree objects themselves are held until the pass is summarized, so
    # no other object can take their ids once the building span has ended
    return {"trees": list(skf.trees)}


# (span name, defining module, attribute or Class.method, counter function)
TARGETS = [
    ("cli.describe_dir", "seqlpd.cli", "_describe_dir", _describe_dir),
    ("cloud.load_kitti_bin", "seqlpd.cloud", "load_kitti_bin",
     lambda f, a, k, r: {"bytes": 16 * len(r)}),
    ("cloud.accumulate_submap", "seqlpd.cloud", "accumulate_submap",
     lambda f, a, k, r: {"points_out": len(r)}),
    ("cloud.normalize_submap", "seqlpd.cloud", "normalize_submap", _normalize),
    ("cloud.SpatialIndex.knn_all", "seqlpd.cloud", "SpatialIndex.knn_all", None),
    ("features.local_features", "seqlpd.features", "local_features", None),
    ("kernels.kdtree_build", "seqlpd.kernels", "kdtree_build", None),
    ("kernels.kdtree_knn", "seqlpd.kernels", "kdtree_knn",
     lambda f, a, k, r: {"computed_pairs": a[1].shape[0] * a[0].data.shape[0],
                         "tree": id(a[0])}),
    ("kernels.local_stats", "seqlpd.kernels", "local_stats", None),
    ("kernels.feature_knn", "seqlpd.kernels", "feature_knn",
     lambda f, a, k, r: {"computed_pairs": a[0].shape[0] ** 2}),
    ("kernels.kmeans_assign", "seqlpd.kernels", "kmeans_assign",
     lambda f, a, k, r: {"computed_flops": 2 * a[0].shape[0] * a[1].shape[0] * a[0].shape[1]}),
    ("kernels.pairwise_l2", "seqlpd.kernels", "pairwise_l2",
     lambda f, a, k, r: {"cells": r.size, "ref_rows": r.shape[1]}),
    ("kernels.trajectory_grid", "seqlpd.kernels", "trajectory_grid", _trajectory_grid),
    ("net.load_weights", "seqlpd.net", "load_weights", None),
    ("net.describe", "seqlpd.net", "describe", None),
    ("net.input_transform", "seqlpd.net", "input_transform", None),
    ("net.feature_transform", "seqlpd.net", "feature_transform", None),
    ("net.graph_aggregate", "seqlpd.net", "graph_aggregate", None),
    ("net.netvlad", "seqlpd.net", "netvlad", None),
    ("net.baseline_descriptor", "seqlpd.net", "baseline_descriptor", None),
    ("placemap.PlaceMap.insert", "seqlpd.placemap", "PlaceMap.insert", None),
    ("placemap.PlaceMap.descriptor_matrix", "seqlpd.placemap", "PlaceMap.descriptor_matrix",
     lambda f, a, k, r: {"bytes": r.nbytes}),
    ("placemap.save", "seqlpd.placemap", "save", None),
    ("placemap.load", "seqlpd.placemap", "load", None),
    ("cluster.elbow_select", "seqlpd.cluster", "elbow_select",
     lambda f, a, k, r: {"K_chosen": r.K}),
    ("cluster.kmeanspp", "seqlpd.cluster", "kmeanspp",
     lambda f, a, k, r: {"lloyd_iterations": len(r.history) - 1}),
    ("cluster.super_keyframes", "seqlpd.cluster", "super_keyframes",
     lambda f, a, k, r: _skf_trees(r)),
    ("cluster.load_clusters", "seqlpd.cluster", "load_clusters",
     lambda f, a, k, r: _skf_trees(r[0])),
    ("seqmatch.detect_loop", "seqlpd.seqmatch", "detect_loop", _detect_loop),
    ("seqmatch.coarse_match", "seqlpd.seqmatch", "coarse_match", None),
    ("metrics.recall_at_n", "seqlpd.metrics", "recall_at_n", None),
    ("metrics.seq_protocol", "seqlpd.metrics", "seq_protocol", None),
]


@contextmanager
def instrumented(tracer):
    """Swap every TARGETS entry for a span-recording wrapper for the duration of the block."""
    mods = [m for n, m in list(sys.modules.items())
            if n == "seqlpd" or n.startswith("seqlpd.")]
    undo = []
    try:
        for name, modname, attr, count in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                undo.append((cls, meth, orig))
                setattr(cls, meth, tracer.wrap(name, orig, count))
                continue
            orig = getattr(owner, attr)
            wrapper = tracer.wrap(name, orig, count)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        yield tracer
    finally:
        for obj, key, orig in reversed(undo):
            setattr(obj, key, orig)


# Per-layer metrics of one traced pipeline pass: name -> unit.  Counts are per pass.
LAYER_UNITS = dict([
    ("cli.describe_dir.busy_ratio", "ratio"), ("cli.describe_reuse_ratio", "ratio"),
    ("cloud.load_kitti_bin.self_s", "s"), ("cloud.load_kitti_bin.bytes", "B"),
    ("cloud.accumulate_submap.self_s", "s"), ("cloud.accumulate_submap.points_out", "count"),
    ("cloud.normalize_submap.self_s", "s"),
    ("cloud.normalize_submap.upsampled_frames", "count"),
    ("cloud.SpatialIndex.knn_all.self_s", "s"),
    ("features.local_features.self_s", "s"),
    ("kernels.kdtree_knn.self_s", "s"), ("kernels.kdtree_knn.computed_pairs", "count"),
    ("kernels.kdtree_build.self_s", "s"), ("kernels.local_stats.self_s", "s"),
    ("kernels.feature_knn.self_s", "s"), ("kernels.feature_knn.computed_pairs", "count"),
    ("kernels.kmeans_assign.calls", "count"), ("kernels.kmeans_assign.self_s", "s"),
    ("kernels.kmeans_assign.computed_flops", "flop"),
    ("kernels.pairwise_l2.self_s", "s"), ("kernels.pairwise_l2.cells", "count"),
    ("kernels.trajectory_grid.self_s", "s"),
    ("kernels.trajectory_grid.cells_scanned", "count"),
    ("net.describe.self_s", "s"), ("net.input_transform.self_s", "s"),
    ("net.feature_transform.self_s", "s"), ("net.graph_aggregate.self_s", "s"),
    ("net.netvlad.self_s", "s"), ("net.baseline_descriptor.self_s", "s"),
    ("net.load_weights.self_s", "s"),
    ("placemap.PlaceMap.insert.calls", "count"), ("placemap.PlaceMap.insert.self_s", "s"),
    ("placemap.PlaceMap.descriptor_matrix.calls", "count"),
    ("placemap.PlaceMap.descriptor_matrix.self_s", "s"),
    ("placemap.PlaceMap.descriptor_matrix.bytes", "B"),
    ("placemap.save.self_s", "s"), ("placemap.load.self_s", "s"),
    ("cluster.elbow_select.self_s", "s"), ("cluster.kmeanspp.calls", "count"),
    ("cluster.kmeanspp.self_s", "s"), ("cluster.lloyd_iterations", "count"),
    ("cluster.K_chosen", "count"), ("cluster.super_keyframes.self_s", "s"),
    ("cluster.load_clusters.self_s", "s"), ("cluster.trees_queried_per_built", "ratio"),
    ("seqmatch.detect_loop.self_s", "s"), ("seqmatch.coarse_match.self_s", "s"),
    ("seqmatch.runs_per_window", "count"), ("seqmatch.accepted", "count"),
    ("seqmatch.rejected_no_second", "count"), ("seqmatch.rejected_ratio", "count"),
    ("seqmatch.ratio_margin_p50", "ratio"),
    ("metrics.recall_at_n.self_s", "s"), ("metrics.seq_protocol.self_s", "s"),
    ("input.upsampled_share", "ratio"), ("input.query_redescribe_share", "ratio"),
    ("input.window_map_coverage", "ratio"),
    ("trace.overhead_s", "s"), ("trace.uncovered_share", "ratio")])

def _merged_length(intervals):
    total = 0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def summarize(spans, wall_s, query_dir):
    """Per-layer metrics of one traced pass of ``wall_s`` seconds (0 if it failed).

    trace.overhead_s needs the untraced passes and is left at 0 here.
    """
    by_id = {r[0]: r for r in spans}
    children = defaultdict(list)
    for r in spans:
        if r[4] in by_id:
            children[r[4]].append(r)
    agg = defaultdict(lambda: defaultdict(float))
    for r in spans:
        if r[1].startswith(STAGE):
            continue
        dur = r[3] - r[2]
        own = sum(c[3] - c[2] for c in children[r[0]] if c[5] == r[5])
        a = agg[r[1]]
        a["calls"] += 1
        a["self_s"] += (dur - own) / 1e9
        for key, val in (r[6] or {}).items():
            if isinstance(val, (int, float)) and not isinstance(val, bool):
                a[key] += val

    out = {}
    for name in LAYER_UNITS:
        layer, _, stat = name.rpartition(".")
        if layer in agg and stat in ("calls", "self_s", "bytes", "points_out",
                                     "upsampled_frames", "computed_pairs",
                                     "computed_flops", "cells", "cells_scanned"):
            out[name] = agg[layer][stat]
        else:
            out[name] = 0.0
    out["cluster.lloyd_iterations"] = agg["cluster.kmeanspp"]["lloyd_iterations"]
    elbows = [r for r in spans if r[1] == "cluster.elbow_select" and r[6] is not None]
    out["cluster.K_chosen"] = float(elbows[-1][6]["K_chosen"]) if elbows else 0.0
    for key in ("accepted", "rejected_no_second", "rejected_ratio"):
        out["seqmatch." + key] = agg["seqmatch.detect_loop"][key]

    # describe: thread busy ratio, frame reuse, re-described query frames
    busy = capacity = 0.0
    seen = defaultdict(int)
    done = [r for r in spans if r[6] is not None]  # spans whose counters were recorded
    for d in (r for r in done if r[1] == "cli.describe_dir"):
        c = d[6]
        kids = [k for k in children[d[0]] if k[5] != d[5]] if c["workers"] > 1 \
            else children[d[0]]
        busy += sum(k[3] - k[2] for k in kids)
        capacity += (d[3] - d[2]) * c["workers"]
        for fid in c["ids"]:
            seen[(c["dir"], fid)] += 1
    out["cli.describe_dir.busy_ratio"] = busy / capacity if capacity else 0.0
    total = sum(seen.values())
    out["cli.describe_reuse_ratio"] = len(seen) / total if total else 0.0
    query = [n for (d, _), n in seen.items() if d == str(query_dir)]
    out["input.query_redescribe_share"] = \
        sum(1 for n in query if n > 1) / len(query) if query else 0.0
    norm = agg["cloud.normalize_submap"]
    out["input.upsampled_share"] = \
        norm["upsampled_frames"] / norm["frames"] if norm["frames"] else 0.0

    # matching: candidate runs and the share of the map they cover
    runs, cover, margins = [], [], []
    for d in (r for r in done if r[1] == "seqmatch.detect_loop"):
        rows = [k[6]["ref_rows"] for k in children[d[0]] if k[1] == "kernels.pairwise_l2"]
        runs.append(len(rows))
        cover.append(sum(rows) / d[6]["map_len"])
        if "ratio_margin" in d[6]:
            margins.append(d[6]["ratio_margin"])
    out["seqmatch.runs_per_window"] = statistics.fmean(runs) if runs else 0.0
    out["input.window_map_coverage"] = statistics.fmean(cover) if cover else 0.0
    out["seqmatch.ratio_margin_p50"] = statistics.median(margins) if margins else 0.0

    # A kdtree_knn span queries a built tree only if it starts after the span
    # that built the tree has ended: an earlier tree with the same id was
    # another object, freed before the built one took its address.
    built_end, queried = {}, set()
    for r in done:
        if "trees" in r[6]:
            built_end.update((id(t), r[3]) for t in r[6]["trees"])
    for r in done:
        if r[1] == "kernels.kdtree_knn" and r[2] > built_end.get(r[6]["tree"], r[2]):
            queried.add(r[6]["tree"])
    out["cluster.trees_queried_per_built"] = \
        len(queried) / len(built_end) if built_end else 0.0
    for r in done:
        if "trees" in r[6]:
            r[6]["trees"] = [id(t) for t in r[6]["trees"]]

    # share of the pass that no top-level module span on the main thread covers
    main = threading.main_thread().ident
    top = [(r[2], r[3]) for r in spans
           if r[5] == main and not r[1].startswith(STAGE)
           and (r[4] is None or by_id[r[4]][1].startswith(STAGE))]
    out["trace.uncovered_share"] = \
        max(0.0, 1.0 - _merged_length(top) / 1e9 / wall_s) if wall_s > 0.0 else 0.0
    out["trace.overhead_s"] = 0.0
    return out
