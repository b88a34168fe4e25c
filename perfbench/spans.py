"""Spans around graphpan's public functions, installed from outside the package.

Each wrapped function is replaced in the module namespace where the pipeline
looks it up (``aggregation.run_pipeline`` finds ``build_graph`` in
``graphpan.aggregation``, ``graph.build_structure`` finds ``knn_select`` in
``graphpan.graph``, and so on), so the package itself stays untouched.  A span
records its name, start, end, parent span and the operation it ran in; a
few spans also record the peak bytes allocated inside them (tracemalloc runs
only while such a span is open).  Tape work is counted by wrapping
``autodiff.Tensor.__init__``, which every op calls for its output: each
tensor built is one tape node (parameters are the leaves), its array bytes
are the tape's computed bytes, and its VJP names the op that built it.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

import numpy as np

from graphpan import aggregation, graph, metrics, training
from graphpan import autodiff as ad

MiB = float(1 << 20)


def _graph_counts(g):
    return {
        "graph.nodes": g.n_nodes,
        "graph.edges": sum(len(src) for src, _ in g.structure.edges),
    }


def _pattern_counts(ps):
    return {"patterns.live": len(ps), "patterns.nnz": sum(p.nnz for p in ps)}


def _clip_share(fused):
    v = ad.value(fused)
    return {"aggregation.clip_share": float(np.mean((v <= 0.0) | (v >= 1.0)))}


# (namespace, attribute, span name, record peak memory, counts from the result)
WRAPPED = [
    (aggregation, "forward", "aggregation.forward", False, None),
    (aggregation, "run_pipeline", "aggregation.run_pipeline", False, None),
    (training, "run_pipeline", "aggregation.run_pipeline", False, None),
    (aggregation, "upsample_bicubic", "imaging.upsample_bicubic", False, None),
    (aggregation, "extract_patches", "imaging.extract_patches", False, None),
    (aggregation, "embed_patches", "graph.embed_patches", False, None),
    (aggregation, "build_graph", "graph.build_graph", False, _graph_counts),
    (graph, "knn_select", "graph.knn_select", False, None),
    (aggregation, "generate_patterns", "patterns.generate_patterns", False, _pattern_counts),
    (aggregation, "aggregate_local", "aggregation.aggregate_local", False, None),
    (aggregation, "build_global_pattern_matrix", "aggregation.build_global_pattern_matrix", False, None),
    (aggregation, "global_similarity", "aggregation.global_similarity", True, None),
    (aggregation, "aggregate_global", "aggregation.aggregate_global", False, None),
    (aggregation, "reconstruct", "aggregation.reconstruct", False, _clip_share),
    (training, "backward", "training.backward", False, None),
    (training, "l1_loss", "training.l1_loss", False, None),
    (training, "contrastive_loss", "training.contrastive_loss", True, None),
    (training, "adam_step", "training.adam_step", False, None),
    (training, "load_checkpoint", "training.load_checkpoint", False, None),
    (ad.Tensor, "backward", "autodiff.backward", True, None),
    (metrics, "full_reference", "metrics.full_reference", False, None),
]

# per-layer metrics reported as median self seconds per operation
TIMED = [
    "autodiff.backward",
    "aggregation.global_similarity",
    "aggregation.aggregate_global",
    "aggregation.build_global_pattern_matrix",
    "aggregation.aggregate_local",
    "aggregation.reconstruct",
    "training.contrastive_loss",
    "training.l1_loss",
    "training.adam_step",
    "training.load_checkpoint",
    "graph.knn_select",
    "graph.build_graph",
    "graph.embed_patches",
    "patterns.generate_patterns",
    "imaging.upsample_bicubic",
    "imaging.extract_patches",
    "metrics.full_reference",
]
PEAKS = ["autodiff.backward", "aggregation.global_similarity", "training.contrastive_loss"]
COUNTS = [
    "graph.nodes",
    "graph.edges",
    "patterns.live",
    "patterns.nnz",
    "aggregation.clip_share",
]


def per_layer_units():
    """name -> unit of every metric :meth:`Tracer.per_layer` reports."""
    units = {f"{n}.s": "s" for n in TIMED}
    units.update({f"{n}.peak_mb": "MiB" for n in PEAKS})
    units.update({"autodiff.tape_nodes": "count", "autodiff.tape_mb": "MiB"})
    units.update({n: "count" for n in COUNTS})
    units["aggregation.clip_share"] = "ratio"
    units.update({"trace.overhead_s": "s", "trace.uncovered_s": "s"})
    return units


def _median(xs):
    return float(statistics.median(xs)) if xs else 0.0


class Tracer:
    """In-memory span recorder.  ``install`` swaps the wrappers in,
    ``uninstall`` restores the originals; spans are kept only while
    ``recording`` is true, so output checks run between operations stay out
    of the trace."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, peak bytes, tape nodes, tape bytes]
        self.counts = {}
        self.tape_by_op = {}  # op name -> [tensors built, bytes], whole traced run
        self.recording = False
        self.op = -1
        self._stack = []
        self._saved = []
        self._tape_nodes = 0
        self._tape_bytes = 0

    def install(self):
        for owner, attr, name, peak, counter in WRAPPED:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, peak, counter))
        init = ad.Tensor.__init__
        self._saved.append((ad.Tensor, "__init__", init))
        tracer = self

        def counted_init(t, data, parents=(), vjp=None):
            init(t, data, parents, vjp)
            if tracer.recording:
                tracer._tape_nodes += 1
                tracer._tape_bytes += t.data.nbytes
                # ops build their VJP as a closure: "matmul.<locals>.vjp"
                op = vjp.__qualname__.split(".")[0] if vjp is not None else "leaf"
                row = tracer.tape_by_op.setdefault(op, [0, 0])
                row[0] += 1
                row[1] += t.data.nbytes

        ad.Tensor.__init__ = counted_init

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _wrap(self, fn, name, peak, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            rec = [name, 0.0, 0.0, parent, tracer.op, None, tracer._tape_nodes, tracer._tape_bytes]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            measure = peak and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                if measure:
                    rec[5] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                rec[6] = tracer._tape_nodes - rec[6]
                rec[7] = tracer._tape_bytes - rec[7]
                tracer._stack.pop()
            if counter is not None:
                for key, val in counter(out).items():
                    tracer.counts.setdefault(key, []).append(val)
            return out

        return wrapper

    def per_layer(self, traced_op_s, untraced_op_s):
        """Per-layer metrics from the recorded spans.

        ``traced_op_s`` maps operation index -> seconds for the operations
        run with the tracer installed; ``untraced_op_s`` lists the seconds of
        operations run without it.  A ``.s`` metric is the layer's self time
        summed within an operation, median over the operations where the
        layer ran (0 where it never ran).
        """
        child_s = [0.0] * len(self.spans)
        for name, t0, t1, parent, *_ in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        self_by_op = {}
        root_by_op = {op: 0.0 for op in traced_op_s}
        for i, (name, t0, t1, parent, op, *_) in enumerate(self.spans):
            if op not in root_by_op:
                continue
            per_op = self_by_op.setdefault(name, {})
            per_op[op] = per_op.get(op, 0.0) + (t1 - t0) - child_s[i]
            if parent < 0:
                root_by_op[op] += t1 - t0

        out = {f"{n}.s": _median(list(self_by_op.get(n, {}).values())) for n in TIMED}
        for n in PEAKS:
            peaks = [s[5] / MiB for s in self.spans if s[0] == n and s[5] is not None]
            out[f"{n}.peak_mb"] = _median(peaks)
        passes = [s for s in self.spans if s[0] == "training.backward"]
        out["autodiff.tape_nodes"] = _median([s[6] for s in passes])
        out["autodiff.tape_mb"] = _median([s[7] / MiB for s in passes])
        for n in COUNTS:
            out[n] = _median(self.counts.get(n, []))
        out["trace.overhead_s"] = _median(list(traced_op_s.values())) - _median(untraced_op_s)
        out["trace.uncovered_s"] = _median(
            [traced_op_s[op] - root_by_op[op] for op in traced_op_s]
        )
        return out

    def dump(self):
        """Spans and the per-op tape breakdown, JSON-ready, for the trace file."""
        keys = ("name", "start", "end", "parent", "op", "peak_bytes", "tape_nodes", "tape_bytes")
        return {
            "spans": [dict(zip(keys, s)) for s in self.spans],
            "tape_by_op": {op: {"tensors": n, "bytes": b} for op, (n, b) in self.tape_by_op.items()},
        }
